"""Simulator transport: one pipe-delimited ASCII line per transaction.

Layout (fields in order, ``-`` for an absent payload)::

    DUKPT1|<ksn:20 hex>|<pinblock:16 hex or ->|<data:even hex or ->|<scheme>

where ``<scheme>`` is ``DUKPT``, ``FIXED`` or ``MS``. Master/Session lines
append a sixth field carrying the wrapped session key (32 hex). Hex is read by
:func:`~dukptlab.key_hierarchy.read_hex` and written uppercase.

:func:`encode_fields` writes a line from its fields (the KSN's 10 bytes, the payloads, the
scheme, the wrapped key) and :func:`parse_fields` reads them back, each checking once;
:func:`encode_wire` writes a checked message and :func:`parse_wire` makes one of the fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import EmptyMessage, WireFormatError
from .key_hierarchy import Ksn, read_hex

WIRE_TAG = "DUKPT1"
# the longest data ciphertext: the card data of EMV contactless, card-emulation, mobile and
# browser payments is at most the chip data (ISO 8583 field 55): 255 bytes, 256 once padded
MAX_DATA_BYTES = 256


class Scheme(Enum):
    DUKPT = "DUKPT"
    FIXED = "FIXED"
    MASTER_SESSION = "MS"

    __hash__ = object.__hash__  # by identity, as host.VerdictStatus; each line's tag lookup hashes


_SCHEMES = {scheme.value: scheme for scheme in Scheme}
_TAGS = {scheme: tag for tag, scheme in _SCHEMES.items()}  # quicker than the member's .value
_MASTER_SESSION = Scheme.MASTER_SESSION  # read on every message; quicker than the member


@dataclass(frozen=True)
class TransactionMessage:
    """What a terminal emits per transaction.

    Weight policy on the counter is deliberately *not* enforced here: the host must be able
    to receive (and reject) a forged overweight KSN, so only the field rule is structural.
    """

    ksn: Ksn
    encrypted_pin_block: bytes | None = None
    encrypted_data: bytes | None = None
    scheme: Scheme = Scheme.DUKPT
    wrapped_session_key: bytes | None = None

    def __post_init__(self) -> None:
        _check_fields(self.ksn.raw, self.encrypted_pin_block, self.encrypted_data,
                      self.scheme, self.wrapped_session_key)


def _check_fields(ksn_raw: bytes, pin_ct: bytes | None, data_ct: bytes | None, scheme: Scheme,
                  wrapped: bytes | None) -> None:
    if len(ksn_raw) != 10:
        raise WireFormatError(f"KSN must be 10 bytes, got {len(ksn_raw)}")
    if pin_ct is None and data_ct is None:
        raise EmptyMessage("message must carry a PIN block or data (or both)")
    if pin_ct is not None and len(pin_ct) != 8:
        raise WireFormatError("encrypted PIN block must be 8 bytes")
    if data_ct is not None and (not 0 < len(data_ct) <= MAX_DATA_BYTES or len(data_ct) % 8):
        raise WireFormatError(f"encrypted data must be whole blocks, 8 to {MAX_DATA_BYTES} bytes")
    if scheme is _MASTER_SESSION:
        if wrapped is None or len(wrapped) != 16:
            raise WireFormatError("an MS message carries a 16-byte wrapped session key")
    elif wrapped is not None:
        raise WireFormatError("only an MS message carries a wrapped session key")


def _line(ksn_raw: bytes, pin_ct: bytes | None, data_ct: bytes | None, scheme: Scheme,
          wrapped: bytes | None) -> str:
    pin = "-" if pin_ct is None else pin_ct.hex().upper()
    data = "-" if data_ct is None else data_ct.hex().upper()
    line = f"{WIRE_TAG}|{ksn_raw.hex().upper()}|{pin}|{data}|{_TAGS[scheme]}"
    return line if wrapped is None else f"{line}|{wrapped.hex().upper()}"


_MAX_LINE = len(_line(bytes(10), bytes(8), bytes(MAX_DATA_BYTES), _MASTER_SESSION, bytes(16)))


def encode_fields(ksn_raw: bytes, pin_ct: bytes | None, data_ct: bytes | None,
                  scheme: Scheme = Scheme.DUKPT, wrapped: bytes | None = None) -> str:
    """The line :func:`parse_fields` reads back as these fields, checked as a message is."""
    _check_fields(ksn_raw, pin_ct, data_ct, scheme, wrapped)
    return _line(ksn_raw, pin_ct, data_ct, scheme, wrapped)


def encode_wire(msg: TransactionMessage) -> str:
    """:func:`encode_fields` of a message, whose constructor has already checked it."""
    return _line(msg.ksn.raw, msg.encrypted_pin_block, msg.encrypted_data, msg.scheme,
                 msg.wrapped_session_key)


def parse_fields(line: str) -> tuple[bytes, bytes | None, bytes | None, Scheme, bytes | None]:
    """``(ksn_raw, pin_ct, data_ct, scheme, wrapped)``, checked as a message is."""
    if len(line) > _MAX_LINE:  # the line as handed: longer than any valid one, refused unsplit
        raise WireFormatError(f"line is longer than {_MAX_LINE} characters")
    fields = line.split("|")
    if fields[0] != WIRE_TAG:
        raise WireFormatError(f"line does not start with {WIRE_TAG}")
    if len(fields) not in (5, 6):
        raise WireFormatError(f"expected 5 or 6 fields, got {len(fields)}")
    ksn_raw = read_hex(fields[1])  # a field that breaks the hex rule reads as b"", refused below
    pin_ct = None if fields[2] == "-" else read_hex(fields[2])
    data_ct = None if fields[3] == "-" else read_hex(fields[3])
    scheme = _SCHEMES.get(fields[4])
    if scheme is None:
        raise WireFormatError(f"unknown scheme tag {fields[4]!r}")
    wrapped = read_hex(fields[5]) if len(fields) == 6 else None  # sent only when present: no "-"
    _check_fields(ksn_raw, pin_ct, data_ct, scheme, wrapped)
    return ksn_raw, pin_ct, data_ct, scheme, wrapped


def parse_wire(line: str) -> TransactionMessage:
    ksn_raw, pin_ct, data_ct, scheme, wrapped = parse_fields(line)
    return TransactionMessage(Ksn(ksn_raw), pin_ct, data_ct, scheme, wrapped)
