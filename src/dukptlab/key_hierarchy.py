"""Derivation math for the per-transaction key hierarchy.

Three layers of key material share one shape (double-length TDEA keys):

* a base derivation key (BDK) owned by the acquiring host,
* one initial key (IPEK) per device, computed from the BDK and the
  device's initial key serial number, and
* a chain of transaction keys grown from the IPEK by a one-way step,
  one key per value of the 21-bit transaction counter.

The key serial number (KSN) is 80 bits: the leftmost 59 bits identify the
key set and device and never change; the rightmost 21 bits carry the
transaction counter. Counters with more than ten set bits are skipped,
which is exactly what lets a device cover the whole space with a 21-slot
future-key table.

All functions here are pure; state lives in :mod:`dukptlab.terminal` and
:mod:`dukptlab.host`.
"""

from __future__ import annotations

import hmac
import math
from dataclasses import dataclass
from enum import Enum

from . import tdes
from .errors import (
    CounterExhausted,
    CounterOverweight,
    HexInputError,
    KeyRoleError,
    LengthError,
)

COUNTER_BITS = 21
COUNTER_MASK = 0x1FFFFF
MAX_COUNTER_WEIGHT = 10

# masks applied to key halves / whole keys during derivation
KEY_HALF_MASK = bytes.fromhex("C0C0C0C000000000C0C0C0C000000000")
PIN_VARIANT_MASK = bytes.fromhex("00000000000000FF00000000000000FF")
DATA_VARIANT_MASK = bytes.fromhex("0000000000FF00000000000000FF0000")


class KeyRole(Enum):
    """What a key is allowed to do; assigned at derivation time."""

    BASE_DERIVATION = "BaseDerivation"
    INITIAL = "Initial"
    TRANSACTION = "Transaction"
    PIN_VARIANT = "PinVariant"
    DATA_VARIANT = "DataVariant"


@dataclass(frozen=True, eq=False)
class TdeaKey:
    """A double-length TDEA key plus its derivation role.

    Equality and hashing consider the 16 content bytes only, so two keys
    derived by different routes compare equal exactly when their material
    matches; comparison runs in constant time.
    """

    material: bytes
    role: KeyRole

    def __post_init__(self) -> None:
        # own an immutable copy, so a caller's bytearray cannot change the key
        if not isinstance(self.material, bytes):
            object.__setattr__(self, "material", bytes(self.material))
        if len(self.material) != 16:
            raise LengthError(f"key must be 16 bytes, got {len(self.material)}")

    @classmethod
    def from_bytes(cls, material: bytes, role: KeyRole = KeyRole.BASE_DERIVATION) -> "TdeaKey":
        return cls(material, role)

    @classmethod
    def from_hex(cls, text: str, role: KeyRole = KeyRole.BASE_DERIVATION) -> "TdeaKey":
        if len(text) != 32:
            raise LengthError(f"key hex must be 32 characters, got {len(text)}")
        try:
            material = bytes.fromhex(text)
        except ValueError as exc:
            raise HexInputError(f"key is not valid hex: {text!r}") from exc
        return cls.from_bytes(material, role)

    @property
    def hex(self) -> str:
        return self.material.hex().upper()

    def xor_mask(self, mask: bytes, role: KeyRole) -> "TdeaKey":
        return TdeaKey.from_bytes(tdes.xor_bytes(self.material, mask), role)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TdeaKey):
            return NotImplemented
        return hmac.compare_digest(self.material, other.material)

    def __hash__(self) -> int:
        return hash(self.material)

    def __repr__(self) -> str:
        # key material stays out of reprs; logs must never leak it
        return f"TdeaKey(role={self.role.value})"


@dataclass(frozen=True)
class Ksn:
    """An 80-bit key serial number.

    ``raw`` is the canonical 10-byte big-endian form. The rightmost 21 bits
    are the transaction counter; everything above is the initial-KSN
    identifier (key-set id in the top 24 bits, device id below).
    """

    raw: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.raw, bytes):
            object.__setattr__(self, "raw", bytes(self.raw))
        if len(self.raw) != 10:
            raise LengthError(f"KSN must be 10 bytes, got {len(self.raw)}")

    @property
    def _value(self) -> int:
        return int.from_bytes(self.raw, "big")

    @property
    def counter(self) -> int:
        return self._value & COUNTER_MASK

    @property
    def initial_id(self) -> int:
        """The 59 identifier bits above the counter."""
        return self._value >> COUNTER_BITS

    @property
    def key_set_id(self) -> int:
        """Leftmost 24 bits; selects the base derivation key."""
        return self._value >> 56

    @property
    def base(self) -> "Ksn":
        """This KSN with all counter bits cleared; stable across updates."""
        return self.with_counter(0)

    def with_counter(self, counter: int) -> "Ksn":
        if not 0 <= counter <= COUNTER_MASK:
            raise ValueError(f"counter out of 21-bit range: {counter:#x}")
        value = (self._value & ~COUNTER_MASK) | counter
        return Ksn(value.to_bytes(10, "big"))

    @property
    def hex(self) -> str:
        return self.raw.hex().upper()

    def __repr__(self) -> str:
        return f"Ksn({self.hex})"


def parse_ksn(text: str) -> Ksn:
    """Parse the 20-hex-character canonical KSN encoding."""
    if len(text) != 20:
        raise LengthError(f"KSN hex must be 20 characters, got {len(text)}")
    try:
        raw = bytes.fromhex(text)
    except ValueError as exc:
        raise HexInputError(f"KSN is not valid hex: {text!r}") from exc
    return Ksn(raw)


def counter_weight(counter: int) -> int:
    """Number of set bits in a counter value."""
    return int(counter).bit_count()


def counter_is_usable(counter: int) -> bool:
    """True when a counter may label a transaction (nonzero, weight <= 10)."""
    return 0 < counter <= COUNTER_MASK and counter_weight(counter) <= MAX_COUNTER_WEIGHT


def next_counter(counter: int) -> int:
    """Advance to the next usable counter value.

    Returns the smallest ``c > counter`` whose set-bit count does not exceed
    :data:`MAX_COUNTER_WEIGHT`. Values above the weight bound are skipped
    entirely, never visited. Raises :class:`CounterExhausted` once no usable
    value remains.
    """
    if not 0 <= counter <= COUNTER_MASK:
        raise ValueError(f"counter out of 21-bit range: {counter:#x}")
    c = counter + 1
    while c <= COUNTER_MASK:
        if c.bit_count() <= MAX_COUNTER_WEIGHT:
            return c
        # adding the lowest set bit clears the trailing run; every value in
        # between would only add set bits on top of an already-overweight one
        c += c & -c
    raise CounterExhausted(f"no usable counter above {counter:#07x}")


def _count_weight_limited(limit: int) -> int:
    """How many v in [0, limit] have popcount(v) <= MAX_COUNTER_WEIGHT."""
    total = 0
    ones = 0
    for pos in range(COUNTER_BITS - 1, -1, -1):
        if limit & (1 << pos):
            budget = MAX_COUNTER_WEIGHT - ones
            total += sum(math.comb(pos, k) for k in range(0, min(pos, budget) + 1))
            ones += 1
            if ones > MAX_COUNTER_WEIGHT:
                return total
    return total + 1  # limit itself still qualifies


#: Size of the usable counter space (weight-bounded, excluding zero).
COUNTER_SPACE = sum(math.comb(COUNTER_BITS, k) for k in range(1, MAX_COUNTER_WEIGHT + 1))


def remaining_counters(counter: int) -> int:
    """Usable counters strictly greater than ``counter``."""
    if not 0 <= counter <= COUNTER_MASK:
        raise ValueError(f"counter out of 21-bit range: {counter:#x}")
    # COUNTER_SPACE excludes zero, which _count_weight_limited includes
    return COUNTER_SPACE + 1 - _count_weight_limited(counter)


def derive_ipek(bdk: TdeaKey, initial_ksn: Ksn) -> TdeaKey:
    """Derive a device's initial key from the base derivation key.

    The counter bits of ``initial_ksn`` are cleared before use, so any KSN
    belonging to the device yields the same result. Left half: TDEA-encrypt
    the leftmost 8 KSN bytes under the BDK. Right half: the same plaintext
    under the BDK with :data:`KEY_HALF_MASK` folded in.
    """
    if bdk.role is not KeyRole.BASE_DERIVATION:
        raise KeyRoleError(f"IPEK derivation needs a BaseDerivation key, got {bdk.role.value}")
    block = initial_ksn.base.raw[:8]
    left = tdes.encrypt_block(bdk.material, block)
    right = tdes.encrypt_block(tdes.xor_bytes(bdk.material, KEY_HALF_MASK), block)
    return TdeaKey(left + right, KeyRole.INITIAL)


def derive_child(material: bytes, ksn: Ksn, counter: int) -> bytes:
    """The non-reversible derivation step: the child of ``material`` named by ``counter``.

    The step message is the rightmost 8 bytes of ``ksn`` with its counter
    bits replaced by ``counter``. Each half of the output is produced by
    single-DES under one half-key with pre/post whitening by the other half;
    recovering the parent from the child requires a key search. The host's
    chain fold and the terminal's register refill both go through here.
    """
    value = (int.from_bytes(ksn.raw[-8:], "big") & ~COUNTER_MASK) | counter
    message = value.to_bytes(8, "big")
    left, right = material[:8], material[8:]
    new_right = tdes.xor_bytes(
        tdes.encrypt_block(left, tdes.xor_bytes(message, right)), right
    )
    masked = tdes.xor_bytes(material, KEY_HALF_MASK)
    mleft, mright = masked[:8], masked[8:]
    new_left = tdes.xor_bytes(
        tdes.encrypt_block(mleft, tdes.xor_bytes(message, mright)), mright
    )
    return new_left + new_right


def nrkgp(current_key: TdeaKey, ksn: Ksn) -> TdeaKey:
    """Non-reversible key generation: derive the child key named by ``ksn``.

    Requires at least one set counter bit (counter zero names the initial
    key, which is never an nrkgp output).
    """
    if ksn.counter == 0:
        raise ValueError("nrkgp needs a KSN with at least one counter bit set")
    return TdeaKey(derive_child(current_key.material, ksn, ksn.counter), KeyRole.TRANSACTION)


def derive_key_chain(ipek: TdeaKey, ksn: Ksn) -> TdeaKey:
    """Fold the one-way step over the counter's set bits, MSB first.

    ``key(0)`` is the IPEK itself; for each set bit, taken from most to
    least significant, the accumulated counter names one derivation step.
    This is the host-side route to any transaction key and the reference
    the terminal's register table must agree with.

    Raises :class:`CounterOverweight` for counters with more than
    :data:`MAX_COUNTER_WEIGHT` set bits; such KSNs are never honored.
    """
    counter = ksn.counter
    if counter_weight(counter) > MAX_COUNTER_WEIGHT:
        raise CounterOverweight(
            f"counter {counter:#07x} has {counter_weight(counter)} set bits"
        )
    if counter == 0:
        return ipek
    material = ipek.material
    acc = 0
    for pos in range(COUNTER_BITS - 1, -1, -1):
        bit = 1 << pos
        if counter & bit:
            acc |= bit
            material = derive_child(material, ksn, acc)
    return TdeaKey(material, KeyRole.TRANSACTION)


def variant_pin_key(transaction_key: TdeaKey) -> TdeaKey:
    """PIN-encryption variant of a transaction key (fixed XOR mask)."""
    if transaction_key.role is not KeyRole.TRANSACTION:
        raise KeyRoleError(
            f"PIN variant requires a Transaction key, got {transaction_key.role.value}"
        )
    return transaction_key.xor_mask(PIN_VARIANT_MASK, KeyRole.PIN_VARIANT)


def variant_data_key(transaction_key: TdeaKey) -> TdeaKey:
    """Data-encryption variant of a transaction key (fixed XOR mask)."""
    if transaction_key.role is not KeyRole.TRANSACTION:
        raise KeyRoleError(
            f"data variant requires a Transaction key, got {transaction_key.role.value}"
        )
    return transaction_key.xor_mask(DATA_VARIANT_MASK, KeyRole.DATA_VARIANT)
