"""Format-0 PIN block encoding.

The clear block is the XOR of two 8-byte fields: field 1 is a zero control
nibble, the PIN length nibble, the PIN digits, then 0xF filler; field 2 is
four zero nibbles followed by the rightmost twelve PAN digits *excluding*
the check digit (the classic off-by-one to get right). Because field 2
starts with four zero nibbles, the control nibble, length nibble, and first
two PIN digits survive the XOR unmasked.
"""

from . import tdes
from .errors import InvalidPan, InvalidPin, LengthError, MalformedPinBlock

PinBlock = bytes  # 8-byte clear format-0 block

_MIN_PIN = 4
_MAX_PIN = 12


def _all_ascii_digits(text: str) -> bool:
    # str.isdigit alone admits non-ASCII digit characters
    return text.isascii() and text.isdigit()


def _pan_field(pan: str) -> bytes:
    if len(pan) < 13 or not _all_ascii_digits(pan):
        raise InvalidPan("PAN must be at least 13 decimal digits")
    return bytes.fromhex("0000" + pan[:-1][-12:])


def encode_iso0(pin: str, pan: str) -> PinBlock:
    """Build the clear format-0 block for a PIN under its account number."""
    if not (_MIN_PIN <= len(pin) <= _MAX_PIN) or not _all_ascii_digits(pin):
        raise InvalidPin("PIN must be 4..12 decimal digits")
    field1 = bytes.fromhex(f"0{len(pin):X}{pin}".ljust(16, "F"))
    field2 = _pan_field(pan)
    return tdes.xor_bytes(field1, field2)


def decode_iso0(block: PinBlock, pan: str) -> str:
    """Recover the PIN from a clear block; total inverse of :func:`encode_iso0`.

    Validates the whole structure (control nibble, length, digit nibbles,
    filler) and raises :class:`MalformedPinBlock` on any violation, so a
    block decrypted under the wrong key fails here rather than yielding
    silent garbage.
    """
    if len(block) != 8:
        raise LengthError(f"PIN block must be 8 bytes, got {len(block)}")
    field2 = _pan_field(pan)
    field1 = tdes.xor_bytes(block, field2).hex().upper()
    if field1[0] != "0":
        raise MalformedPinBlock(f"control nibble is {field1[0]}, expected 0")
    length = int(field1[1], 16)
    if not _MIN_PIN <= length <= _MAX_PIN:
        raise MalformedPinBlock(f"PIN length nibble {length} outside 4..12")
    pin, filler = field1[2 : 2 + length], field1[2 + length :]
    if not pin.isdigit():
        raise MalformedPinBlock("PIN nibbles are not all decimal digits")
    if filler.strip("F"):
        raise MalformedPinBlock("filler nibbles are not all 0xF")
    return pin


def structure_ok(block: PinBlock) -> bool:
    """Shape check on the nibbles format 0 leaves unmasked by the PAN.

    Usable without the account number: the control nibble must be zero, the
    length nibble in range, and the first two PIN digits decimal. This is
    the host-side integrity signal for detecting a wrong-key decryption.
    """
    # byte 0 is the control nibble then the length: in range only when the control is 0
    return (len(block) == 8 and _MIN_PIN <= block[0] <= _MAX_PIN
            and block[1] >> 4 <= 9 and block[1] & 0xF <= 9)
