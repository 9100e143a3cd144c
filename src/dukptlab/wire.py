"""Simulator transport: one pipe-delimited ASCII line per transaction.

Layout (fields in order, ``-`` for an absent payload)::

    DUKPT1|<ksn:20 hex>|<pinblock:16 hex or ->|<data:even hex or ->|<scheme>

where ``<scheme>`` is ``DUKPT``, ``FIXED`` or ``MS``. Master/Session lines
append a sixth field carrying the wrapped session key (32 hex). Hex is
accepted in either case and always emitted uppercase.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import EmptyMessage, WireFormatError
from .key_hierarchy import Ksn

WIRE_TAG = "DUKPT1"


class Scheme(Enum):
    DUKPT = "DUKPT"
    FIXED = "FIXED"
    MASTER_SESSION = "MS"


_SCHEMES = {scheme.value: scheme for scheme in Scheme}
_TAGS = {scheme: tag for tag, scheme in _SCHEMES.items()}  # quicker than the member's .value
_MASTER_SESSION = Scheme.MASTER_SESSION  # read on every message; quicker than the member


@dataclass(frozen=True)
class TransactionMessage:
    """What a terminal emits per transaction.

    Weight policy on the counter is deliberately *not* enforced here: the
    host must be able to receive (and reject) a forged overweight KSN, so
    only the payload invariants (presence and block lengths) are structural.
    """

    ksn: Ksn
    encrypted_pin_block: bytes | None = None
    encrypted_data: bytes | None = None
    scheme: Scheme = Scheme.DUKPT
    wrapped_session_key: bytes | None = None

    def __post_init__(self) -> None:
        _check_payload(self.encrypted_pin_block, self.encrypted_data, self.scheme,
                       self.wrapped_session_key)


def _check_payload(pin_ct: bytes | None, data_ct: bytes | None, scheme: Scheme,
                   wrapped: bytes | None) -> None:
    if pin_ct is None and data_ct is None:
        raise EmptyMessage("message must carry a PIN block or data (or both)")
    if pin_ct is not None and len(pin_ct) != 8:
        raise WireFormatError("encrypted PIN block must be 8 bytes")
    if data_ct is not None and (not data_ct or len(data_ct) % 8):
        raise WireFormatError("encrypted data must be a positive multiple of 8 bytes")
    if scheme is _MASTER_SESSION:
        if wrapped is None or len(wrapped) != 16:
            raise WireFormatError("an MS message carries a 16-byte wrapped session key")
    elif wrapped is not None:
        raise WireFormatError("only an MS message carries a wrapped session key")


def _hex_or_dash(value: bytes | None) -> str:
    return value.hex().upper() if value is not None else "-"


def encode_wire(msg: TransactionMessage) -> str:
    fields = [
        WIRE_TAG,
        msg.ksn.hex,
        _hex_or_dash(msg.encrypted_pin_block),
        _hex_or_dash(msg.encrypted_data),
        _TAGS[msg.scheme],
    ]
    if msg.wrapped_session_key is not None:
        fields.append(msg.wrapped_session_key.hex().upper())
    return "|".join(fields)


def _parse_hex(field: str, name: str) -> bytes:
    try:
        raw = bytes.fromhex(field)  # hex digits, but it skips whitespace: two digits a byte
    except ValueError:
        raw = b""
    if raw and 2 * len(raw) == len(field):
        return raw
    raise WireFormatError(f"{name} is not valid even-length hex: {field!r}")


def _split(line: str) -> tuple[bytes, bytes | None, bytes | None, Scheme, bytes | None]:
    fields = line.strip().split("|")
    if fields[0] != WIRE_TAG:
        raise WireFormatError(f"line does not start with {WIRE_TAG}")
    if len(fields) not in (5, 6):
        raise WireFormatError(f"expected 5 or 6 fields, got {len(fields)}")
    ksn_raw = _parse_hex(fields[1], "KSN")
    if len(ksn_raw) != 10:
        raise WireFormatError(f"KSN is not 20 hex digits: {fields[1]!r}")
    pin_ct = None if fields[2] == "-" else _parse_hex(fields[2], "pinblock")
    data_ct = None if fields[3] == "-" else _parse_hex(fields[3], "data")
    scheme = _SCHEMES.get(fields[4])
    if scheme is None:
        raise WireFormatError(f"unknown scheme tag {fields[4]!r}")
    # no "-" here: a wrapped session key is sent only when present
    wrapped = _parse_hex(fields[5], "wrapped session key") if len(fields) == 6 else None
    return ksn_raw, pin_ct, data_ct, scheme, wrapped


def parse_fields(line: str) -> tuple[bytes, bytes | None, bytes | None, Scheme, bytes | None]:
    """``(ksn_raw, pin_ct, data_ct, scheme, wrapped)``, checked as :func:`parse_wire` checks."""
    _, pin_ct, data_ct, scheme, wrapped = fields = _split(line)
    _check_payload(pin_ct, data_ct, scheme, wrapped)
    return fields


def parse_wire(line: str) -> TransactionMessage:
    ksn_raw, pin_ct, data_ct, scheme, wrapped = _split(line)
    return TransactionMessage(Ksn(ksn_raw), pin_ct, data_ct, scheme, wrapped)
