"""Wire line codec: encode/parse round trips and rejection of malformed lines."""

import pytest
from hypothesis import given, strategies as st

from dukptlab.errors import EmptyMessage, WireFormatError
from dukptlab.host import HostRegistry
from dukptlab.key_hierarchy import parse_ksn
from dukptlab.wire import Scheme, TransactionMessage, encode_wire, parse_wire

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
        "DUKPT1|FFFF9876543210E00001|AAAA AAAAAAAAAAAA|-|DUKPT",
        "DUKPT1|FFFF9876543210E00001|AAAAAAAAAAAAAAAA||DUKPT",
        *(_spoiled(fields, index, spoil) for fields, index in _HEX_FIELDS for spoil in _SPOILERS),
    ],
)
def test_parse_rejects_malformed(line):
    with pytest.raises(WireFormatError):
        parse_wire(line)


@pytest.mark.parametrize("tag", ["dukpt", "Dukpt", " DUKPT", "MS ", ""])
def test_unknown_scheme_tags_are_malformed(tag):
    # as the fifth of six fields, no strip() of the line can touch the tag
    six = "|".join(_MS_FIELDS[:4] + [tag] + _MS_FIELDS[5:])
    with pytest.raises(WireFormatError, match="unknown scheme tag"):
        parse_wire(six)
    five = "|".join(_DUKPT_FIELDS[:4] + [tag])
    with pytest.raises(WireFormatError):
        parse_wire(five)
    host = HostRegistry()
    assert host.handle_wire_line(six) == host.handle_wire_line(five) == "ERR|MalformedMessage"
