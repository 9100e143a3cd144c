"""Self-consistent derivation vector files.

One record per line, ``key=value`` pairs separated by spaces, ``#`` for
comments. Every expected value in a record is recomputable from its
``bdk`` + ``ksn`` + ``counter``, so a file both documents the derivation and
regression-tests it. Ciphertext fields are optional and carry their own
inputs (``pin``/``pan`` for the PIN leg, ``data`` for the data leg).
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Iterable, TextIO

from .errors import VectorFormatError
from .key_hierarchy import (
    KeyRole,
    TdeaKey,
    derive_ipek,
    derive_key_chain,
    next_counter,
    parse_ksn,
    variant_data_key,
    variant_pin_key,
)
from .pin_block import encode_iso0
from .terminal import encrypt_data, encrypt_pin

# defaults for generated files: the published interoperability key pair
DEFAULT_BDK_HEX = "0123456789ABCDEFFEDCBA9876543210"
DEFAULT_KSN_HEX = "FFFF9876543210E00000"
DEFAULT_PIN = "1234"
DEFAULT_PAN = "4012345678909"
DEFAULT_DATA = b"Sale: 42.00 USD"

_REQUIRED = ("bdk", "ksn", "counter", "key", "pin_variant", "data_variant")
_OPTIONAL = ("pin", "pan", "pin_ct", "data", "data_ct")


@dataclass(frozen=True)
class VectorRecord:
    """Expected derivation outputs for one (bdk, initial ksn, counter)."""

    bdk: str
    initial_ksn: str
    counter: int
    key: str
    pin_variant: str
    data_variant: str
    pin: str | None = None
    pan: str | None = None
    pin_ct: str | None = None
    data: str | None = None
    data_ct: str | None = None

    def to_line(self) -> str:
        pairs = [
            ("bdk", self.bdk),
            ("ksn", self.initial_ksn),
            ("counter", f"{self.counter:06X}"),
            ("key", self.key),
            ("pin_variant", self.pin_variant),
            ("data_variant", self.data_variant),
        ]
        for name in _OPTIONAL:
            value = getattr(self, name)
            if value is not None:
                pairs.append((name, value))
        return " ".join(f"{k}={v}" for k, v in pairs)


def parse_record(line: str) -> VectorRecord:
    fields: dict[str, str] = {}
    for token in line.split():
        if "=" not in token:
            raise VectorFormatError(f"token without '=': {token!r}")
        name, _, value = token.partition("=")
        if name not in _REQUIRED and name not in _OPTIONAL:
            raise VectorFormatError(f"unknown field {name!r}")
        if name in fields:
            raise VectorFormatError(f"duplicate field {name!r}")
        fields[name] = value
    missing = [name for name in _REQUIRED if name not in fields]
    if missing:
        raise VectorFormatError(f"missing fields: {', '.join(missing)}")
    # to_line writes six hex digits; int() alone would also take a sign, 0x and underscores
    text = fields["counter"]
    if not 0 < len(text) <= 6 or any(ch not in string.hexdigits for ch in text):
        raise VectorFormatError(f"bad counter {text!r}")
    return VectorRecord(
        bdk=fields["bdk"].upper(),
        initial_ksn=fields["ksn"].upper(),
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


def generate(
    count: int,
    bdk_hex: str = DEFAULT_BDK_HEX,
    ksn_hex: str = DEFAULT_KSN_HEX,
) -> list[VectorRecord]:
    """Walk the first ``count`` usable counters and record every derivation."""
    if count < 1:
        raise ValueError("count must be at least 1")
    bdk = TdeaKey.from_hex(bdk_hex, KeyRole.BASE_DERIVATION)
    initial_ksn = parse_ksn(ksn_hex).base
    ipek = derive_ipek(bdk, initial_ksn)
    clear_block = encode_iso0(DEFAULT_PIN, DEFAULT_PAN)
    records = []
    counter = 0
    for _ in range(count):
        counter = next_counter(counter)
        ksn = initial_ksn.with_counter(counter)
        key = derive_key_chain(ipek, ksn)
        records.append(
            VectorRecord(
                bdk=bdk.hex,
                initial_ksn=initial_ksn.hex,
                counter=counter,
                key=key.hex,
                pin_variant=variant_pin_key(key).hex,
                data_variant=variant_data_key(key).hex,
                pin=DEFAULT_PIN,
                pan=DEFAULT_PAN,
                pin_ct=encrypt_pin(key, clear_block).hex().upper(),
                data=DEFAULT_DATA.hex().upper(),
                data_ct=encrypt_data(key, DEFAULT_DATA).hex().upper(),
            )
        )
    return records


def verify(records: Iterable[VectorRecord]) -> list[str]:
    """Recompute every expected value; return one message per mismatch."""
    failures = []
    for index, record in enumerate(records, start=1):
        try:
            bdk = TdeaKey.from_hex(record.bdk, KeyRole.BASE_DERIVATION)
            ksn = parse_ksn(record.initial_ksn).with_counter(record.counter)
            key = derive_key_chain(derive_ipek(bdk, ksn), ksn)
        except Exception as exc:  # derivation itself may reject a bad record
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
                legs.append(("pin_ct", record.pin_ct,
                             lambda: encrypt_pin(key, encode_iso0(record.pin, record.pan))))
        if record.data_ct is not None:
            if record.data is None:
                failures.append(f"record {index}: data_ct present without data")
            else:
                legs.append(("data_ct", record.data_ct,
                             lambda: encrypt_data(key, bytes.fromhex(record.data))))
        for name, expected, leg in legs:
            try:  # a bad pin, pan or data field fails this record, not the run
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


def write_file(records: Iterable[VectorRecord], fh: TextIO) -> None:
    fh.write("# derivation vectors: every value recomputable from bdk+ksn+counter\n")
    for record in records:
        fh.write(record.to_line() + "\n")


def read_file(path: str) -> list[VectorRecord]:
    records = []
    with open(path, encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                records.append(parse_record(stripped))
            except VectorFormatError as exc:
                raise VectorFormatError(f"{path}:{lineno}: {exc}") from exc
    return records
