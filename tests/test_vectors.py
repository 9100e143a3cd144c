"""Vector records: generation, verification, file round trip, frozen file."""

import io
from pathlib import Path

import pytest

from dukptlab import vectors
from dukptlab.errors import VectorFormatError

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
    with open(path, "w") as fh:
        fh.write("# leading comment\n\n")
        fh.write(records[0].to_line() + "\n\n# middle\n")
        fh.write(records[1].to_line() + "\n")
    assert vectors.read_file(str(path)) == records


def test_write_file_to_string_buffer():
    buffer = io.StringIO()
    vectors.write_file(vectors.generate(1), buffer)
    text = buffer.getvalue()
    assert text.startswith("#")
    assert "counter=000001" in text
