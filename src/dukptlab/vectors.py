"""Self-consistent derivation vector files.

One record per line, ``key=value`` pairs separated by spaces, ``#`` for
comments. Every expected value in a record is recomputable from its
``bdk`` + ``ksn`` + ``counter``, so a file both documents the derivation and
regression-tests it. Ciphertext fields are optional and carry their own
inputs (``pin``/``pan`` for the PIN leg, ``data`` for the data leg).
"""

from __future__ import annotations

import string
from dataclasses import MISSING, asdict, dataclass, fields, replace
from typing import Iterable, TextIO

from .errors import DukptError, VectorFormatError, read_records
from .key_hierarchy import (
    KeyRole,
    TdeaKey,
    derive_ipek,
    derive_key_chain,
    next_counter,
    parse_ksn,
    seal,
    variant_data_key,
    variant_pin_key,
)
from .pin_block import encode_iso0

# defaults for generated files: the published interoperability key pair
DEFAULT_BDK_HEX = "0123456789ABCDEFFEDCBA9876543210"
DEFAULT_KSN_HEX = "FFFF9876543210E00000"
DEFAULT_PIN = "1234"
DEFAULT_PAN = "4012345678909"
DEFAULT_DATA = b"Sale: 42.00 USD"


@dataclass(frozen=True)
class VectorRecord:
    """Expected derivation outputs for one (bdk, initial ksn, counter); the fields
    are the line's, in line order, and those with a default are optional."""

    bdk: str
    ksn: str
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
        values = asdict(self) | {"counter": f"{self.counter:06X}"}
        return " ".join(f"{name}={value}" for name, value in values.items() if value is not None)


# each field, and what an empty hex value parses to: absent if optional, "" if required
_EMPTY = {f.name: "" if f.default is MISSING else f.default for f in fields(VectorRecord)}
_AS_WRITTEN = ("counter", "pin", "pan")  # every other field is hex, and upper-cased


def parse_record(line: str) -> VectorRecord:
    values: dict[str, str | None] = {}
    for token in line.split():
        if "=" not in token:
            raise VectorFormatError(f"token without '=': {token!r}")
        name, _, value = token.partition("=")
        if name not in _EMPTY:
            raise VectorFormatError(f"unknown field {name!r}")
        if name in values:
            raise VectorFormatError(f"duplicate field {name!r}")
        values[name] = value if name in _AS_WRITTEN else value.upper() or _EMPTY[name]
    missing = [name for name, empty in _EMPTY.items() if empty == "" and name not in values]
    if missing:
        raise VectorFormatError(f"missing fields: {', '.join(missing)}")
    # to_line writes six hex digits; int() alone would also take a sign, 0x and underscores
    text = values["counter"]
    if not 0 < len(text) <= 6 or any(ch not in string.hexdigits for ch in text):
        raise VectorFormatError(f"bad counter {text!r}")
    return VectorRecord(**values | {"counter": int(text, 16)})


def _derive(record: VectorRecord) -> tuple[VectorRecord, list[str]]:
    """``record`` with the key its bdk, ksn and counter derive to, both variants, and
    each ciphertext it carries sealed from its own inputs; a ciphertext whose inputs
    are missing or rejected derives to None, and a note says why."""
    bdk = TdeaKey.from_hex(record.bdk, KeyRole.BASE_DERIVATION)
    ksn = parse_ksn(record.ksn).with_counter(record.counter)
    key = derive_key_chain(derive_ipek(bdk, ksn), ksn)  # counter 0: the Initial key, refused
    material = key.require(KeyRole.TRANSACTION, "vector derivation")
    notes = []
    if record.pin_ct is not None and None in (record.pin, record.pan):
        notes.append("pin_ct present without pin/pan")
    if record.data_ct is not None and record.data is None:
        notes.append("data_ct present without data")

    def decoded(name, decode, *inputs):
        if getattr(record, name) is None or None in inputs:
            return None
        try:  # a bad pin, pan or data field fails this record, not the run
            return decode(*inputs)
        except ValueError as exc:
            notes.append(f"{name} inputs rejected: {exc}")
            return None

    pin_ct, data_ct = seal(material, decoded("pin_ct", encode_iso0, record.pin, record.pan),
                           decoded("data_ct", bytes.fromhex, record.data))
    return replace(
        record,
        key=key.hex,
        pin_variant=variant_pin_key(key).hex,
        data_variant=variant_data_key(key).hex,
        pin_ct=pin_ct and pin_ct.hex().upper(),
        data_ct=data_ct and data_ct.hex().upper(),
    ), notes


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
    # the inputs, with "" for each value to derive
    template = VectorRecord(
        bdk.hex, initial_ksn.hex, 0, "", "", "",
        DEFAULT_PIN, DEFAULT_PAN, "", DEFAULT_DATA.hex().upper(), "",
    )
    records = []
    counter = 0
    for _ in range(count):
        counter = next_counter(counter)
        records.append(_derive(replace(template, counter=counter))[0])
    return records


def verify(records: Iterable[VectorRecord]) -> list[str]:
    """Recompute every expected value; return one message per mismatch."""
    failures = []
    for index, record in enumerate(records, start=1):
        try:
            derived, notes = _derive(record)
        except (DukptError, ValueError) as exc:  # derivation itself may reject a bad record
            failures.append(f"record {index}: derivation failed: {exc}")
            continue
        failures += [f"record {index}: {note}" for note in notes]
        for name, expected in asdict(record).items():
            actual = getattr(derived, name)
            if actual is not None and actual != expected:
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
    return read_records(path, parse_record)
