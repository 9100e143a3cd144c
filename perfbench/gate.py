"""Correctness gate run before any timing, and the secret-hygiene scan.

The gate holds derivation to the published interoperability vector and to
the frozen records in ``tests/data/interop_vectors.txt``, which it only
reads. A fast path that breaks derivation therefore stops the run before
it can post a number.
"""

from __future__ import annotations

import re
from pathlib import Path

from dukptlab import (
    KeyRole,
    TdeaKey,
    derive_ipek,
    derive_key_chain,
    encode_iso0,
    parse_ksn,
    variant_data_key,
    variant_pin_key,
)
from dukptlab.terminal import encrypt_data, encrypt_pin

PUBLISHED_BDK = "0123456789ABCDEFFEDCBA9876543210"
PUBLISHED_KSN = "FFFF9876543210E00000"
PUBLISHED_IPEK = "6AC292FAA1315B4D858AB3A3D7D5933A"

VECTOR_FILE = Path("tests") / "data" / "interop_vectors.txt"


class GateError(Exception):
    """The program under test disagrees with a frozen vector."""


def _expect(what: str, got: str, want: str) -> None:
    if got.upper() != want.upper():
        raise GateError(f"{what}: expected {want}")


def check_vectors(root: Path) -> int:
    """Check the published IPEK and every frozen record; return records checked."""
    bdk = TdeaKey.from_hex(PUBLISHED_BDK, KeyRole.BASE_DERIVATION)
    _expect("published IPEK", derive_ipek(bdk, parse_ksn(PUBLISHED_KSN)).hex, PUBLISHED_IPEK)
    path = root / VECTOR_FILE
    records = 0
    for line in path.read_text(encoding="ascii").splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        rec = dict(token.split("=", 1) for token in line.split())
        ksn = parse_ksn(rec["ksn"])
        ksn = ksn.with_counter(int(rec["counter"], 16))
        ipek = derive_ipek(TdeaKey.from_hex(rec["bdk"], KeyRole.BASE_DERIVATION), ksn)
        key = derive_key_chain(ipek, ksn)
        where = f"{VECTOR_FILE} counter {rec['counter']}"
        _expect(f"{where} key", key.hex, rec["key"])
        _expect(f"{where} pin_variant", variant_pin_key(key).hex, rec["pin_variant"])
        _expect(f"{where} data_variant", variant_data_key(key).hex, rec["data_variant"])
        if "pin_ct" in rec:
            block = encode_iso0(rec["pin"], rec["pan"])
            _expect(f"{where} pin_ct", encrypt_pin(key, block).hex(), rec["pin_ct"])
        if "data_ct" in rec:
            ct = encrypt_data(key, bytes.fromhex(rec["data"]))
            _expect(f"{where} data_ct", ct.hex(), rec["data_ct"])
        records += 1
    if not records:
        raise GateError(f"{VECTOR_FILE} holds no vectors")
    return records


_HEX_RUN = re.compile(r"[0-9A-Fa-f]{32,}")


def leaked(text: str, secrets: set[str]) -> int:
    """How many distinct secret key hex strings occur in ``text``."""
    found = set()
    for match in _HEX_RUN.finditer(text):
        run = match.group().upper()
        for i in range(len(run) - 31):
            if run[i:i + 32] in secrets:
                found.add(run[i:i + 32])
    return len(found)
