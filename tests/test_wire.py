"""Wire line codec: encode/parse round trips and rejection of malformed lines."""

import pytest
from hypothesis import example, given, strategies as st

from dukptlab import wire
from dukptlab.errors import EmptyMessage, WireFormatError
from dukptlab.host import HostRegistry
from dukptlab.key_hierarchy import Ksn, parse_ksn
from dukptlab.wire import (
    MAX_DATA_BYTES, Scheme, TransactionMessage, encode_fields, encode_wire, parse_fields,
    parse_wire,
)

from conftest import EDIT_TOKENS, MALFORMED_TEMPLATES, edited, malformed_line

KSN = parse_ksn("FFFF9876543210E00001")


def test_round_trip_both_payloads():
    msg = TransactionMessage(KSN, b"\x01" * 8, b"\x02" * 16)
    assert parse_wire(encode_wire(msg)) == msg


def test_round_trip_pin_only():
    msg = TransactionMessage(KSN, encrypted_pin_block=b"\xaa" * 8)
    line = encode_wire(msg)
    assert line == "DUKPT1|FFFF9876543210E00001|AAAAAAAAAAAAAAAA|-|DUKPT"
    assert parse_wire(line) == msg


def test_round_trip_data_only():
    msg = TransactionMessage(KSN, encrypted_data=b"\xbb" * 8)
    assert parse_wire(encode_wire(msg)) == msg


def test_round_trip_master_session():
    msg = TransactionMessage(
        KSN,
        encrypted_data=b"\xcc" * 8,
        scheme=Scheme.MASTER_SESSION,
        wrapped_session_key=b"\xdd" * 16,
    )
    line = encode_wire(msg)
    assert line.endswith("|MS|" + "DD" * 16)
    assert parse_wire(line) == msg


@given(st.binary(min_size=8, max_size=8), st.binary(min_size=8, max_size=40).filter(lambda b: len(b) % 8 == 0),
       st.sampled_from(Scheme), st.binary(min_size=16, max_size=16))
def test_round_trip_random_payloads(pin_ct, data_ct, scheme, wrapped):
    wrapped = wrapped if scheme is Scheme.MASTER_SESSION else None
    msg = TransactionMessage(KSN, pin_ct, data_ct, scheme, wrapped)
    assert parse_wire(encode_wire(msg)) == msg


def test_lowercase_hex_accepted():
    line = "DUKPT1|ffff9876543210e00001|aaaaaaaaaaaaaaaa|-|DUKPT"
    msg = parse_wire(line)
    assert msg.ksn == KSN
    assert encode_wire(msg) == "DUKPT1|FFFF9876543210E00001|AAAAAAAAAAAAAAAA|-|DUKPT"


def test_message_requires_some_payload():
    with pytest.raises(EmptyMessage):
        TransactionMessage(KSN)
    # and, being a WireFormatError, needs no translation in parse_wire
    with pytest.raises(WireFormatError):
        TransactionMessage(KSN)


def test_message_validates_payload_shapes():
    with pytest.raises(WireFormatError):
        TransactionMessage(KSN, encrypted_pin_block=b"\x01" * 7)
    with pytest.raises(WireFormatError):
        TransactionMessage(KSN, encrypted_data=b"\x01" * 9)
    with pytest.raises(WireFormatError):
        TransactionMessage(KSN, encrypted_data=b"")
    # a wrapped session key comes with MS messages only, and is 16 bytes
    for scheme, wrapped in [(Scheme.FIXED, b"\xdd" * 16), (Scheme.DUKPT, b"\xdd" * 16),
                            (Scheme.MASTER_SESSION, None), (Scheme.MASTER_SESSION, b"\xdd" * 3)]:
        with pytest.raises(WireFormatError):
            TransactionMessage(KSN, encrypted_data=bytes(8), scheme=scheme,
                               wrapped_session_key=wrapped)


_DUKPT_FIELDS = ["DUKPT1", "FFFF9876543210E00001", "AAAAAAAAAAAAAAAA", "0011223344556677", "DUKPT"]
_MS_FIELDS = ["DUKPT1", "FFFF9876543210E00001", "-", "0011223344556677", "MS",
              "00112233445566778899AABBCCDDEEFF"]
_HEX_FIELDS = [(_DUKPT_FIELDS, 1), (_DUKPT_FIELDS, 2), (_DUKPT_FIELDS, 3), (_MS_FIELDS, 5)]
# whitespace between byte pairs, which bytes.fromhex would skip; a non-ASCII
# digit, which str.isalnum() accepts; and a letter that is not hex
_SPOILERS = [
    lambda f: f[:2] + " " + f[2:4] + " " + f[4:],
    lambda f: f[:2] + "\t" + f[2:4] + "\t" + f[4:],
    lambda f: "\u0660" + f[1:],
    lambda f: f[:-1] + "G",
]


def _spoiled(fields, index, spoil):
    return "|".join(spoil(f) if i == index else f for i, f in enumerate(fields))


def test_unspoiled_lines_parse():
    for fields in (_DUKPT_FIELDS, _MS_FIELDS):
        parse_wire("|".join(fields))


@pytest.mark.parametrize(
    "line",
    [
        "NOPE|FFFF9876543210E00001|AAAAAAAAAAAAAAAA|-|DUKPT",
        "DUKPT1|FFFF9876543210E00001|AAAAAAAAAAAAAAAA|-",
        "DUKPT1|FFFF9876543210E0000|AAAAAAAAAAAAAAAA|-|DUKPT",
        "DUKPT1|FFFF9876543210E00001|AAAAAAAAAAAAAAA|-|DUKPT",
        "DUKPT1|FFFF9876543210E00001|AAAAAAAAAAAAAA|-|DUKPT",
        "DUKPT1|FFFF9876543210E00001|AAAAAAAAAAAAAAAAAA|-|DUKPT",
        "DUKPT1|FFFF9876543210E00001|-|-|DUKPT",
        "DUKPT1|FFFF9876543210E00001|AAAAAAAAAAAAAAAA|ABC|DUKPT",
        "DUKPT1|FFFF9876543210E00001|AAAAAAAAAAAAAAAA|-|TLS",
        "DUKPT1|FFFF9876543210E00001|AAAAAAAAAAAAAAAA|-|MS",
        "DUKPT1|FFFF9876543210E00001|AAAAAAAAAAAAAAAA|-|DUKPT|EXTRA",
        # a sixth field only MS carries, and never a seventh
        "DUKPT1|FFFF9876543210E00001|AAAAAAAAAAAAAAAA|-|DUKPT|-",
        "DUKPT1|FFFF9876543210E00001|AAAAAAAAAAAAAAAA|-|FIXED|00112233445566778899AABBCCDDEEFF",
        "DUKPT1|FFFF9876543210E00001|AAAAAAAAAAAAAAAA|-|DUKPT|-|-",
        "|".join(_MS_FIELDS + ["00112233445566778899AABBCCDDEEFF"]),
        "|".join(_MS_FIELDS[:5] + ["-"]),
        "DUKPT1|FFFF9876543210E00001|AAAA AAAAAAAAAAAA|-|DUKPT",
        "DUKPT1|FFFF9876543210E00001|AAAAAAAAAAAAAAAA||DUKPT",
        *(_spoiled(fields, index, spoil) for fields, index in _HEX_FIELDS for spoil in _SPOILERS),
    ],
)
def test_parse_rejects_malformed(line):
    with pytest.raises(WireFormatError):
        parse_wire(line)
    assert HostRegistry().handle_wire_line(line) == "ERR|MalformedMessage"


@pytest.mark.parametrize("tag", ["dukpt", "Dukpt", " DUKPT", "MS ", ""])
def test_unknown_scheme_tags_are_malformed(tag):
    # as the fifth of six fields, the tag is not at the line's edge
    six = "|".join(_MS_FIELDS[:4] + [tag] + _MS_FIELDS[5:])
    with pytest.raises(WireFormatError, match="unknown scheme tag"):
        parse_wire(six)
    five = "|".join(_DUKPT_FIELDS[:4] + [tag])
    with pytest.raises(WireFormatError):
        parse_wire(five)
    host = HostRegistry()
    assert host.handle_wire_line(six) == host.handle_wire_line(five) == "ERR|MalformedMessage"


# --- parse_fields against parse_wire ----------------------------------------------------

# KSN fields int(s, 16) would take (a 0x prefix, _ separators, a sign, whitespace), a
# non-ASCII digit, and 18, 19, 21 and 22 characters: the field stays exactly 20 ASCII
# hex digits
_KSN_SPOILERS = ["0xFF9876543210E00001", "FFFF_9876543210E0001", "FFFF9876_543210E00001",
                 "+FFF9876543210E00001", "-FFF9876543210E00001", "FFFF 9876543210E0001",
                 "FFFF9876543210E0000 ", " FFFF9876543210E0001", "FFFF\t9876543210E0001",
                 "\u0660FFF9876543210E00001", "FFFF9876543210E0000", "FFFF9876543210E000001",
                 "FFFF9876543210E000", "FFFF9876543210E0000001",
                 # 20 digits and whitespace, which bytes.fromhex would skip
                 "FFFF 9876543210E00001", "FFFF9876543210E00001\t"]


def _either(parse, line):
    try:
        return parse(line)
    except WireFormatError:
        return None


def _assert_parsers_agree(line):
    msg, fields = _either(parse_wire, line), _either(parse_fields, line)
    assert (msg is None) == (fields is None), line
    if msg is not None:
        assert fields == (msg.ksn.raw, msg.encrypted_pin_block, msg.encrypted_data, msg.scheme,
                          msg.wrapped_session_key)


@pytest.mark.parametrize("ksn", _KSN_SPOILERS)
@pytest.mark.parametrize("fields", [_DUKPT_FIELDS, _MS_FIELDS])
def test_parse_fields_refuses_a_ksn_that_is_not_20_hex_digits(fields, ksn):
    line = "|".join(fields[:1] + [ksn] + fields[2:])
    with pytest.raises(WireFormatError):
        parse_fields(line)
    _assert_parsers_agree(line)


@pytest.mark.parametrize("template", MALFORMED_TEMPLATES)
def test_parse_fields_refuses_the_malformed_lines(template):
    line = malformed_line(template, _DUKPT_FIELDS[1], _DUKPT_FIELDS[2])
    with pytest.raises(WireFormatError):
        parse_fields(line)
    _assert_parsers_agree(line)


def test_parse_fields_reads_lowercase_hex():
    line = "|".join(f.lower() if 1 <= i <= 3 else f for i, f in enumerate(_DUKPT_FIELDS))
    assert parse_fields(line) == (bytes.fromhex(_DUKPT_FIELDS[1]), bytes.fromhex("AA" * 8),
                                  bytes.fromhex(_DUKPT_FIELDS[3]), Scheme.DUKPT, None)
    _assert_parsers_agree(line)


@given(base=st.sampled_from([_DUKPT_FIELDS, _MS_FIELDS,
                             ["DUKPT1", "FFFF9876543210E00001", "-", "00" * 8, "FIXED"]]),
       edits=st.lists(st.tuples(st.sampled_from(["substitute", "insert", "delete"]),
                                st.integers(0, 200), st.sampled_from(EDIT_TOKENS)), max_size=4))
def test_parse_fields_agrees_with_parse_wire(base, edits):
    _assert_parsers_agree(edited("|".join(base), edits))


# --- encode_fields, the inverse of parse_fields ------------------------------------------

_blocks = st.integers(1, 5).flatmap(lambda n: st.binary(min_size=8 * n, max_size=8 * n))


@st.composite
def _valid_fields(draw):
    """``(ksn_raw, pin_ct, data_ct, scheme, wrapped)`` of a line some scheme may send."""
    scheme = draw(st.sampled_from(Scheme))
    pin_ct = draw(st.none() | st.binary(min_size=8, max_size=8))
    data_ct = draw(_blocks if pin_ct is None else st.none() | _blocks)
    wrapped = (draw(st.binary(min_size=16, max_size=16)) if scheme is Scheme.MASTER_SESSION
               else None)
    return draw(st.binary(min_size=10, max_size=10)), pin_ct, data_ct, scheme, wrapped


@given(_valid_fields())
def test_encode_fields_round_trips_through_parse_fields(fields):
    line = encode_fields(*fields)
    assert parse_fields(line) == fields
    # a message of the same fields is the same line, and the line parses back to it
    msg = TransactionMessage(Ksn(fields[0]), *fields[1:])
    assert encode_wire(msg) == line
    assert parse_wire(line) == msg


def _refusal(call, *args):
    try:
        call(*args)
    except WireFormatError as exc:
        return type(exc)
    return None


def _sized(n, most):
    """Bytes of length ``n`` or of any length up to ``most``, or None."""
    return st.none() | st.binary(min_size=n, max_size=n) | st.binary(max_size=most)


@given(ksn_raw=st.binary(min_size=10, max_size=10) | st.binary(max_size=12),
       scheme=st.sampled_from(Scheme), pin_ct=_sized(8, 10), data_ct=st.none() | _blocks
       | st.binary(max_size=25), wrapped=_sized(16, 17))
@example(ksn_raw=bytes(10), scheme=Scheme.DUKPT, pin_ct=None, data_ct=None, wrapped=None)
@example(ksn_raw=bytes(10), scheme=Scheme.FIXED, pin_ct=None, data_ct=b"", wrapped=None)
@example(ksn_raw=bytes(10), scheme=Scheme.MASTER_SESSION, pin_ct=bytes(8), data_ct=bytes(16),
         wrapped=bytes(16))
@example(ksn_raw=bytes(9), scheme=Scheme.DUKPT, pin_ct=bytes(8), data_ct=None, wrapped=None)
@example(ksn_raw=bytes(10), scheme=Scheme.DUKPT, pin_ct=None, data_ct=bytes(MAX_DATA_BYTES),
         wrapped=None)
@example(ksn_raw=bytes(10), scheme=Scheme.DUKPT, pin_ct=None, data_ct=bytes(MAX_DATA_BYTES + 8),
         wrapped=None)
def test_encode_fields_refuses_what_a_message_refuses(ksn_raw, scheme, pin_ct, data_ct, wrapped):
    # the same payload rule, run once: the same refusal, EmptyMessage included; a KSN
    # that is not 10 bytes is refused whatever the payload
    payload = (pin_ct, data_ct, scheme, wrapped)
    refused = _refusal(encode_fields, ksn_raw, *payload)
    if len(ksn_raw) != 10:
        assert refused is WireFormatError
    else:
        assert refused is _refusal(TransactionMessage, Ksn(ksn_raw), *payload)
        if refused is None:
            assert parse_fields(encode_fields(ksn_raw, *payload)) == (ksn_raw, *payload)


# --- the bound on a line's length ---------------------------------------------------------

# the longest line the field rule allows: an MS line with a PIN block and the longest data
_LONGEST = "|".join(["DUKPT1", "FFFF9876543210E00001", "AA" * 8, "00" * MAX_DATA_BYTES, "MS",
                     "DD" * 16])


def _no_hex_read(text):
    raise AssertionError(f"a hex field of {len(text)} characters was read")


def test_the_longest_line_is_read_and_one_character_more_is_not(monkeypatch):
    assert len(_LONGEST) == 7 + 21 + 17 + 2 * MAX_DATA_BYTES + 1 + 3 + 32 == 593
    msg = parse_wire(_LONGEST)
    assert msg.encrypted_data == parse_fields(_LONGEST)[2] == bytes(MAX_DATA_BYTES)
    with pytest.raises(WireFormatError, match="^line is longer than 593 characters$"):
        parse_wire(f" {_LONGEST}\r\n")  # the whitespace around a line is counted
    host = HostRegistry()
    assert host.handle_wire_line(_LONGEST) == "ERR|UnsupportedScheme"  # read, then refused
    # one character more is refused before any field is read, on both routes
    monkeypatch.setattr(wire, "read_hex", _no_hex_read)
    for over in (_LONGEST + "D", "D" + _LONGEST, _LONGEST[:40] + " " + _LONGEST[40:]):
        with pytest.raises(WireFormatError, match="^line is longer than 593 characters$"):
            parse_wire(over)
        assert host.handle_wire_line(over) == "ERR|MalformedMessage"


# ASCII and Unicode whitespace that str.strip() would take off a line's ends
_FRAMES = [" ", "\r\n", "\t", "\x0b", "\x85", "\u2028", "\u3000"]


@pytest.mark.parametrize("frame", _FRAMES)
def test_a_line_framed_by_whitespace_is_refused_on_both_routes(registry, terminal, frame):
    # the line is read as handed: a transport strips its own terminator
    line = terminal.send(data=b"framed")[0]
    ms_line = "|".join(_MS_FIELDS)
    parse_fields(ms_line)  # read unframed; framed, its wrapped key is at the line's end
    for valid in (line, ms_line):
        for framed in (frame + valid, valid + frame):
            for route in (parse_fields, parse_wire):
                with pytest.raises(WireFormatError):
                    route(framed)
            assert registry.handle_wire_line(framed) == "ERR|MalformedMessage"
    assert registry.handle_wire_line(line) == "OK|1"  # no framed copy moved the device


@pytest.mark.parametrize("blank", [" ", "\u3000"])
def test_megabytes_of_trailing_whitespace_are_refused_unread(monkeypatch, registry, terminal,
                                                            initial_ksn, blank):
    def state():
        return (registry.last_accepted_counter(initial_ksn.initial_id),
                {device: bytes(table) for device, table in registry._tables.items()})

    assert registry.handle_wire_line(terminal.send(data=b"first")[0]) == "OK|1"
    before = state()
    line = terminal.send(data=b"second")[0]
    padded = line + blank * (8 << 20)  # 8 Mi characters over a valid line
    monkeypatch.setattr(wire, "read_hex", _no_hex_read)
    for route in (parse_fields, parse_wire):
        with pytest.raises(WireFormatError, match="^line is longer than 593 characters$"):
            route(padded)
    assert registry.handle_wire_line(padded) == "ERR|MalformedMessage"
    assert state() == before and before[0] == 1
    monkeypatch.undo()
    assert registry.handle_wire_line(line) == "OK|2"


def test_data_over_the_bound_is_refused_on_both_routes(registry, terminal):
    line, _, data_ct, _ = terminal.send(data=bytes(MAX_DATA_BYTES - 1))  # padded to the bound
    assert len(data_ct) == MAX_DATA_BYTES
    ksn, pin, data, tag = line.split("|")[1:]
    over = "|".join(["DUKPT1", ksn, pin, data + "00" * 8, tag])
    for route in (parse_wire, parse_fields):
        with pytest.raises(WireFormatError, match="^encrypted data must be whole blocks, 8 to 256"):
            route(over)
    assert registry.handle_wire_line(over) == "ERR|MalformedMessage"
    assert parse_wire(line).encrypted_data == data_ct
    assert registry.handle_wire_line(line) == "OK|1"
    # and on encode: every writer states the same rule
    for write in (lambda d: encode_fields(bytes(10), None, d),
                  lambda d: TransactionMessage(KSN, encrypted_data=d)):
        write(bytes(MAX_DATA_BYTES))
        with pytest.raises(WireFormatError):
            write(bytes(MAX_DATA_BYTES + 8))
