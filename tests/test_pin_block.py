"""Format-0 PIN block encoding, decoding, and the PAN-less shape check."""

import random

import pytest
from hypothesis import given, strategies as st

from dukptlab.errors import InvalidPan, InvalidPin, LengthError, MalformedPinBlock
from dukptlab.pin_block import decode_iso0, encode_iso0, structure_ok
from dukptlab.tdes import xor_bytes

from conftest import INTEROP_PAN, INTEROP_PIN, ISO0_CLEAR_BLOCK_HEX

pins = st.text(alphabet="0123456789", min_size=4, max_size=12)
pans = st.text(alphabet="0123456789", min_size=13, max_size=19)


def test_encode_hand_vector():
    # 041234FFFFFFFFFF xor 0000401234567890, computed by hand
    assert encode_iso0(INTEROP_PIN, INTEROP_PAN).hex().upper() == ISO0_CLEAR_BLOCK_HEX


def test_decode_hand_vector():
    assert decode_iso0(bytes.fromhex(ISO0_CLEAR_BLOCK_HEX), INTEROP_PAN) == INTEROP_PIN


@given(pins, pans)
def test_round_trip(pin, pan):
    assert decode_iso0(encode_iso0(pin, pan), pan) == pin


def test_pan_window_changes_block():
    # two PANs differing inside their rightmost-12 window (check digit excluded)
    a = encode_iso0("1234", "4012345678909")
    b = encode_iso0("1234", "4012345678919")
    assert a != b


def test_check_digit_is_excluded():
    # PANs differing only in the check digit encode identically
    assert encode_iso0("1234", "4012345678909") == encode_iso0("1234", "4012345678900")


def test_pin_digits_not_contiguous_in_block():
    # field 2 masks digits 3+ whenever the PAN window is nonzero there
    block = encode_iso0("987654", "4012345678909").hex().upper()
    assert "987654" not in block


def test_encode_input_validation():
    with pytest.raises(InvalidPin):
        encode_iso0("123", INTEROP_PAN)
    with pytest.raises(InvalidPin):
        encode_iso0("1" * 13, INTEROP_PAN)
    with pytest.raises(InvalidPin):
        encode_iso0("12a4", INTEROP_PAN)
    with pytest.raises(InvalidPan):
        encode_iso0("1234", "401234567890")  # 12 digits, too short
    with pytest.raises(InvalidPan):
        encode_iso0("1234", "40123456789O9")
    with pytest.raises(InvalidPin):
        encode_iso0("12²45", INTEROP_PAN)  # non-ASCII digit character
    with pytest.raises(InvalidPan):
        encode_iso0("1234", "４０１２３４５６７８９０９")


def test_decode_rejects_all_ff():
    with pytest.raises(MalformedPinBlock):
        decode_iso0(b"\xff" * 8, INTEROP_PAN)


# field 1 as hex, each with one fault that only the named check refuses; the rest is
# valid, so a block passes decode_iso0 once that one check is deleted
_ONE_FAULT_FIELDS = [
    ("141234FFFFFFFFFF", "control nibble"),
    ("03123FFFFFFFFFFF", "length nibble 3"),
    ("0D1234567890123F", "length nibble 13"),
    ("0412A4FFFFFFFFFF", "not all decimal"),
    ("041234FFFFFFFFFE", "filler"),
]


@pytest.mark.parametrize("field1, reason", _ONE_FAULT_FIELDS)
def test_decode_refuses_each_structure_fault_with_its_own_check(field1, reason):
    field2 = xor_bytes(encode_iso0("1234", INTEROP_PAN), bytes.fromhex("041234FFFFFFFFFF"))
    with pytest.raises(MalformedPinBlock, match=reason):
        decode_iso0(xor_bytes(bytes.fromhex(field1), field2), INTEROP_PAN)


def test_decode_rejects_wrong_block_length():
    with pytest.raises(LengthError):
        decode_iso0(bytes(7), INTEROP_PAN)


@given(pins, pans, pans)
def test_decode_with_wrong_pan_never_crashes(pin, pan, wrong_pan):
    block = encode_iso0(pin, pan)
    try:
        decoded = decode_iso0(block, wrong_pan)
    except MalformedPinBlock:
        return
    assert decoded.isdigit() and 4 <= len(decoded) <= 12


def test_structure_ok_accepts_well_formed():
    assert structure_ok(encode_iso0("1234", INTEROP_PAN))
    assert structure_ok(encode_iso0("123456789012", INTEROP_PAN))


def test_structure_ok_rejects_garbage():
    assert not structure_ok(b"\xff" * 8)
    assert not structure_ok(bytes.fromhex("141274EDCBA9876F"))  # control nibble
    assert not structure_ok(bytes.fromhex("031274EDCBA9876F"))  # length 3
    assert not structure_ok(bytes.fromhex("04A274EDCBA9876F"))  # pin digit A
    assert not structure_ok(bytes(7))


def _nibble_string_structure_ok(block):
    """The check as it read on hex nibble strings, kept as the reference."""
    if len(block) != 8:
        return False
    nibbles = block.hex().upper()
    if nibbles[0] != "0":
        return False
    length = int(nibbles[1], 16)
    if not 4 <= length <= 12:
        return False
    return nibbles[2].isdigit() and nibbles[3].isdigit()


def test_structure_ok_matches_the_nibble_string_check_on_every_leading_pair():
    rng = random.Random(2024)
    accepted = 0
    for first in range(256):
        for second in range(256):
            block = bytes([first, second]) + rng.randbytes(6)
            expected = _nibble_string_structure_ok(block)
            assert structure_ok(block) is expected, block.hex()
            accepted += expected
    # lengths 4..12 under a zero control nibble, times 100 decimal digit pairs
    assert accepted == 9 * 100
    for size in (7, 9):
        for _ in range(2000):
            block = rng.randbytes(size)
            assert structure_ok(block) is _nibble_string_structure_ok(block) is False
