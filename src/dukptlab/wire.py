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
from .key_hierarchy import Ksn, parse_ksn

WIRE_TAG = "DUKPT1"


class Scheme(Enum):
    DUKPT = "DUKPT"
    FIXED = "FIXED"
    MASTER_SESSION = "MS"


_SCHEMES = {scheme.value: scheme for scheme in Scheme}
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
        if self.encrypted_pin_block is None and self.encrypted_data is None:
            raise EmptyMessage("message must carry a PIN block or data (or both)")
        if self.encrypted_pin_block is not None and len(self.encrypted_pin_block) != 8:
            raise WireFormatError("encrypted PIN block must be 8 bytes")
        if self.encrypted_data is not None and (
            not self.encrypted_data or len(self.encrypted_data) % 8
        ):
            raise WireFormatError("encrypted data must be a positive multiple of 8 bytes")
        if self.scheme is _MASTER_SESSION:
            if self.wrapped_session_key is None or len(self.wrapped_session_key) != 16:
                raise WireFormatError("an MS message carries a 16-byte wrapped session key")
        elif self.wrapped_session_key is not None:
            raise WireFormatError("only an MS message carries a wrapped session key")


def _hex_or_dash(value: bytes | None) -> str:
    return value.hex().upper() if value is not None else "-"


def encode_wire(msg: TransactionMessage) -> str:
    fields = [
        WIRE_TAG,
        msg.ksn.hex,
        _hex_or_dash(msg.encrypted_pin_block),
        _hex_or_dash(msg.encrypted_data),
        msg.scheme.value,
    ]
    if msg.wrapped_session_key is not None:
        fields.append(msg.wrapped_session_key.hex().upper())
    return "|".join(fields)


def _parse_hex(field: str, name: str) -> bytes:
    # bytes.fromhex tolerates embedded whitespace and isalnum() passes
    # non-ASCII digits; the wire format takes neither
    if field and not len(field) % 2 and field.isascii() and field.isalnum():
        try:
            return bytes.fromhex(field)
        except ValueError:
            pass
    raise WireFormatError(f"{name} is not valid even-length hex: {field!r}")


def parse_wire(line: str) -> TransactionMessage:
    fields = line.strip().split("|")
    if fields[0] != WIRE_TAG:
        raise WireFormatError(f"line does not start with {WIRE_TAG}")
    if len(fields) not in (5, 6):
        raise WireFormatError(f"expected 5 or 6 fields, got {len(fields)}")
    try:
        ksn = parse_ksn(fields[1])
    except ValueError as exc:
        raise WireFormatError(f"bad KSN field: {exc}") from exc
    pin_ct = None if fields[2] == "-" else _parse_hex(fields[2], "pinblock")
    data_ct = None if fields[3] == "-" else _parse_hex(fields[3], "data")
    scheme = _SCHEMES.get(fields[4])
    if scheme is None:
        raise WireFormatError(f"unknown scheme tag {fields[4]!r}")
    # no "-" here: a wrapped session key is sent only when present
    wrapped = _parse_hex(fields[5], "wrapped session key") if len(fields) == 6 else None
    return TransactionMessage(ksn, pin_ct, data_ct, scheme, wrapped)
