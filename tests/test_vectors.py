"""Vector records: generation, verification, file round trip, frozen file."""

import dataclasses
import io
import itertools
import re
import string
from pathlib import Path

import pytest

from dukptlab import vectors
from dukptlab.errors import DukptError, VectorFormatError
from dukptlab.key_hierarchy import (
    KeyRole,
    TdeaKey,
    derive_ipek,
    derive_key_chain,
    parse_ksn,
    seal,
    variant_data_key,
    variant_pin_key,
)
from dukptlab.pin_block import encode_iso0

INTEROP_FILE = Path(__file__).parent / "data" / "interop_vectors.txt"


def test_generate_then_verify_is_clean():
    records = vectors.generate(20)
    assert vectors.verify(records) == []


def test_generate_walks_usable_counters():
    records = vectors.generate(1030)
    counters = [r.counter for r in records]
    assert counters[:5] == [1, 2, 3, 4, 5]
    assert all(c.bit_count() <= 10 for c in counters)
    assert 0x3FF in counters and 0x400 in counters
    assert 0x7FF not in counters  # would be overweight


def test_generate_refuses_a_count_below_one():
    with pytest.raises(ValueError, match="^count must be at least 1$"):
        vectors.generate(0)


def test_corrupted_key_is_named():
    records = vectors.generate(3)
    bad = records[1]
    corrupted = vectors.VectorRecord(
        **{**bad.__dict__, "key": "00" * 16}
    )
    failures = vectors.verify([records[0], corrupted, records[2]])
    assert len(failures) == 1
    assert "record 2" in failures[0] and "key" in failures[0]


def test_corrupted_ciphertext_is_named():
    records = vectors.generate(1)
    corrupted = vectors.VectorRecord(
        **{**records[0].__dict__, "pin_ct": "00" * 8}
    )
    failures = vectors.verify([corrupted])
    assert len(failures) == 1 and "pin_ct" in failures[0]


@pytest.mark.parametrize("field,value,named", [
    ("data", "5A5G", "data_ct"),
    ("pin", "12", "pin_ct"),
    ("pan", "40123456789X9", "pin_ct"),
])
def test_bad_record_inputs_are_named_and_the_walk_goes_on(field, value, named):
    records = vectors.generate(3)
    bad = vectors.VectorRecord(**{**records[1].__dict__, field: value})
    corrupted = vectors.VectorRecord(**{**records[2].__dict__, "key": "00" * 16})
    failures = vectors.verify([records[0], bad, records[2], corrupted])
    assert len(failures) == 2
    assert failures[0].startswith(f"record 2: {named} inputs rejected")
    assert "record 4" in failures[1] and "key" in failures[1]


def test_file_round_trip(tmp_path):
    records = vectors.generate(7)
    path = tmp_path / "vectors.txt"
    with open(path, "w") as fh:
        vectors.write_file(records, fh)
    assert vectors.read_file(str(path)) == records


def test_record_line_round_trip():
    for record in vectors.generate(4):
        assert vectors.parse_record(record.to_line()) == record


def test_parse_record_rejects_malformed():
    good = vectors.generate(1)[0].to_line()
    with pytest.raises(VectorFormatError):
        vectors.parse_record(good + " mystery=1")
    with pytest.raises(VectorFormatError):
        vectors.parse_record(good + " key=00")
    with pytest.raises(VectorFormatError):
        vectors.parse_record("bdk=00 ksn=00")
    for counter in ("XYZ", "0x000001", "+1", "0_1", "", "0000001"):
        with pytest.raises(VectorFormatError, match="bad counter"):
            vectors.parse_record(good.replace("counter=000001", f"counter={counter}"))


def test_read_file_reports_line_numbers(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("# header\nnot a record\n")
    with pytest.raises(VectorFormatError, match="broken.txt:2"):
        vectors.read_file(str(path))
    line = vectors.generate(1)[0].to_line()
    path.write_bytes(f"# header\n{line}\n{line}\u00e9\n".encode("utf-8"))
    with pytest.raises(DukptError, match=f"^{re.escape(str(path))}:3: record line is not ASCII$"):
        vectors.read_file(str(path))


def test_frozen_interop_file_verifies():
    records = vectors.read_file(str(INTEROP_FILE))
    assert len(records) == 10
    assert vectors.verify(records) == []


def test_generate_reproduces_frozen_prefix():
    # the first five frozen records were produced by an independent
    # implementation; generation must agree with them byte for byte
    frozen = vectors.read_file(str(INTEROP_FILE))[:5]
    assert vectors.generate(5) == frozen


def test_comments_and_blanks_are_skipped(tmp_path):
    records = vectors.generate(2)
    path = tmp_path / "sparse.txt"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# leading comment, café\n\n")  # a comment may hold any byte
        fh.write(records[0].to_line() + "\n\n# middle\n")
        fh.write(records[1].to_line() + "\n")
    assert vectors.read_file(str(path)) == records


def test_write_file_to_string_buffer():
    buffer = io.StringIO()
    vectors.write_file(vectors.generate(1), buffer)
    text = buffer.getvalue()
    assert text.startswith("#")
    assert "counter=000001" in text


def test_counter_zero_record_is_named_and_the_walk_goes_on():
    records = vectors.generate(2)
    initial = dataclasses.replace(records[0], counter=0)
    corrupted = dataclasses.replace(records[1], key="00" * 16)
    failures = vectors.verify([initial, corrupted])
    assert failures == [
        "record 1: derivation failed: vector derivation requires role Transaction, got Initial",
        f"record 2 (counter 000002): key expected {'00' * 16}, derived {records[1].key}",
    ]


def test_a_programming_error_in_derivation_is_raised_not_reported(monkeypatch):
    # verify reports the refusals of a bad record; a fault in the code is no failed record
    records = vectors.generate(1)

    def broken(ipek, ksn):
        raise TypeError("a fault in derivation")

    monkeypatch.setattr(vectors, "derive_key_chain", broken)
    with pytest.raises(TypeError, match="^a fault in derivation$"):
        vectors.verify(records)


# --- the record codec and verify against field-by-field reference copies ---

_REFERENCE_REQUIRED = ("bdk", "ksn", "counter", "key", "pin_variant", "data_variant")
_REFERENCE_OPTIONAL = ("pin", "pan", "pin_ct", "data", "data_ct")


def _reference_to_line(record):
    pairs = [
        ("bdk", record.bdk),
        ("ksn", record.ksn),
        ("counter", f"{record.counter:06X}"),
        ("key", record.key),
        ("pin_variant", record.pin_variant),
        ("data_variant", record.data_variant),
    ]
    for name in _REFERENCE_OPTIONAL:
        value = getattr(record, name)
        if value is not None:
            pairs.append((name, value))
    return " ".join(f"{k}={v}" for k, v in pairs)


def _reference_parse_record(line):
    fields = {}
    for token in line.split():
        if "=" not in token:
            raise VectorFormatError(f"token without '=': {token!r}")
        name, _, value = token.partition("=")
        if name not in _REFERENCE_REQUIRED and name not in _REFERENCE_OPTIONAL:
            raise VectorFormatError(f"unknown field {name!r}")
        if name in fields:
            raise VectorFormatError(f"duplicate field {name!r}")
        fields[name] = value
    missing = [name for name in _REFERENCE_REQUIRED if name not in fields]
    if missing:
        raise VectorFormatError(f"missing fields: {', '.join(missing)}")
    text = fields["counter"]
    if not 0 < len(text) <= 6 or any(ch not in string.hexdigits for ch in text):
        raise VectorFormatError(f"bad counter {text!r}")
    return vectors.VectorRecord(
        bdk=fields["bdk"].upper(),
        ksn=fields["ksn"].upper(),
        counter=int(text, 16),
        key=fields["key"].upper(),
        pin_variant=fields["pin_variant"].upper(),
        data_variant=fields["data_variant"].upper(),
        pin=fields.get("pin"),
        pan=fields.get("pan"),
        pin_ct=fields.get("pin_ct", "").upper() or None,
        data=fields.get("data", "").upper() or None,
        data_ct=fields.get("data_ct", "").upper() or None,
    )


def _reference_verify(records):
    failures = []
    for index, record in enumerate(records, start=1):
        try:
            bdk = TdeaKey.from_hex(record.bdk, KeyRole.BASE_DERIVATION)
            ksn = parse_ksn(record.ksn).with_counter(record.counter)
            key = derive_key_chain(derive_ipek(bdk, ksn), ksn)
        except Exception as exc:
            failures.append(f"record {index}: derivation failed: {exc}")
            continue
        checks = [
            ("key", record.key, key.hex),
            ("pin_variant", record.pin_variant, variant_pin_key(key).hex),
            ("data_variant", record.data_variant, variant_data_key(key).hex),
        ]
        legs = []
        if record.pin_ct is not None:
            if record.pin is None or record.pan is None:
                failures.append(f"record {index}: pin_ct present without pin/pan")
            else:
                legs.append(("pin_ct", record.pin_ct, lambda: seal(
                    key.material, encode_iso0(record.pin, record.pan), None)[0]))
        if record.data_ct is not None:
            if record.data is None:
                failures.append(f"record {index}: data_ct present without data")
            else:
                legs.append(("data_ct", record.data_ct, lambda: seal(
                    key.material, None, bytes.fromhex(record.data))[1]))
        for name, expected, leg in legs:
            try:
                checks.append((name, expected, leg().hex().upper()))
            except ValueError as exc:
                failures.append(f"record {index}: {name} inputs rejected: {exc}")
        for name, expected, actual in checks:
            if expected != actual:
                failures.append(
                    f"record {index} (counter {record.counter:06X}): "
                    f"{name} expected {expected}, derived {actual}"
                )
    return failures


def _outcome(function, *args):
    try:
        return function(*args)
    except VectorFormatError as exc:
        return f"VectorFormatError: {exc}"


def _codec_lines():
    # counter 0x00000A, so the counter has a letter to lower-case too
    pairs = [token.partition("=")[::2] for token in vectors.generate(10)[-1].to_line().split()]
    hex_fields = {name for name, _ in pairs} - {"pin", "pan"}
    optional = [name for name, _ in pairs if name in _REFERENCE_OPTIONAL]
    cases = {
        "as written": lambda name, value: value,
        "lowercase hex": lambda name, value: value.lower() if name in hex_fields else value,
        "mixed-case pin/pan": lambda name, value: value + "aB" if name in ("pin", "pan") else value,
    }
    for size in range(len(optional) + 1):
        for dropped in itertools.combinations(optional, size):
            for emptied in [None, *optional]:
                for case in cases.values():
                    for order in (1, -1):
                        line = [
                            f"{name}={'' if name == emptied else case(name, value)}"
                            for name, value in pairs if name not in dropped
                        ]
                        yield " ".join(line[::order])


def test_record_codec_matches_its_field_by_field_reference():
    lines = list(_codec_lines())
    good = vectors.generate(1)[0].to_line()
    lines += [
        good + " mystery=1", good + " key=00", "bdk=00 ksn=00", "no_equals",
        good.replace("counter=000001", "counter=xyz"), good.replace("counter=000001", "counter="),
        good.replace("bdk=", "initial_bdk="), good.replace("ksn=", "initial_ksn="),
    ]
    assert len(lines) == 32 * 6 * 3 * 2 + 8
    for line in lines:
        expected = _outcome(_reference_parse_record, line)
        assert _outcome(vectors.parse_record, line) == expected, line
        if isinstance(expected, vectors.VectorRecord):
            assert expected.to_line() == _reference_to_line(expected), line


def test_empty_optional_hex_is_absent_and_pin_pan_keep_their_case():
    line = vectors.generate(1)[0].to_line()
    record = vectors.parse_record(
        line.replace("pin=1234", "pin=12aB").replace("pan=4012345678909", "pan=40123456789Xy")
        .replace("data_ct=01F83A2CE838A2B41E68241D8C72BFF1", "data_ct=")
    )
    assert (record.pin, record.pan, record.data_ct) == ("12aB", "40123456789Xy", None)
    assert record.to_line().endswith(" data=53616C653A2034322E303020555344")
    assert vectors.parse_record(line.replace("pin=1234", "pin=")).pin == ""


def _edited(record, edits):
    for name, value in edits:
        record = dataclasses.replace(record, **{name: value})
    return record


_EDITS = [
    *((name, "00" * (8 if name == "pin_ct" else 16))
      for name in ("key", "pin_variant", "data_variant", "pin_ct", "data_ct")),
    ("pin", None), ("pin", "12"), ("pan", None), ("pan", "40123456789X9"),
    ("data", None), ("data", "5A5G"),
    ("counter", 0x7FF),
    ("bdk", "ZZ" * 16), ("ksn", "ZZ" * 10),
]


@pytest.mark.parametrize("size", [1, 2, 3])
def test_verify_messages_match_the_field_by_field_reference(size):
    records = vectors.generate(2)
    differences = []
    for edits in itertools.combinations(_EDITS, size):
        corrupt = [records[0], _edited(records[1], edits)]
        expected, actual = _reference_verify(corrupt), vectors.verify(corrupt)
        if actual != expected:
            differences.append((edits, expected, actual))
    assert differences == []


def test_present_without_notes_come_before_rejected_inputs():
    record = _edited(vectors.generate(1)[0], [("data", None), ("pin", "12")])
    assert vectors.verify([record]) == _reference_verify([record]) == [
        "record 1: data_ct present without data",
        "record 1: pin_ct inputs rejected: PIN must be 4..12 decimal digits",
    ]
