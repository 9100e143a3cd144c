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

All functions here are pure, except that :func:`fold_chain` writes the
siblings it derives into the buffer it is handed; state lives in
:mod:`dukptlab.terminal` and :mod:`dukptlab.host`.
"""

from __future__ import annotations

import hmac
import math
from array import array
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum

from . import tdes
from .errors import CounterExhausted, CounterOverweight, HexInputError, KeyRoleError, LengthError

COUNTER_BITS = 21
COUNTER_MASK = 0x1FFFFF
# the 59-bit initial-KSN identifier above the counter: the key-set id, then the device id
KEY_SET_ID_BITS = 24
DEVICE_ID_BITS = 80 - COUNTER_BITS - KEY_SET_ID_BITS
MAX_COUNTER_WEIGHT = 10

# masks applied to key halves / whole keys during derivation, XORed by masked()
KEY_HALF_MASK = 0xC0C0C0C000000000C0C0C0C000000000
PIN_VARIANT_MASK = 0x00000000000000FF00000000000000FF
DATA_VARIANT_MASK = 0x0000000000FF00000000000000FF0000


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
        return self._value >> COUNTER_BITS + DEVICE_ID_BITS

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
    right = tdes.encrypt_block(masked(bdk.material, KEY_HALF_MASK), block)
    return TdeaKey(left + right, KeyRole.INITIAL)


def derive_children(material: bytes, ksn: Ksn, counters: Iterable[int]) -> bytes:
    """The non-reversible derivation step: the children of ``material`` named by ``counters``.

    Each step message is the rightmost 8 bytes of ``ksn`` with its counter
    bits replaced by one counter. Each half of a child is single-DES under
    one half-key of the parent, with pre/post whitening by the other half;
    recovering the parent from a child requires a key search. Those keys
    depend on the parent alone, so one ECB pass per half over the
    concatenated messages derives every child, and no counter builds a
    cipher of its own. The children come back as one run of 16-byte slots
    in the order of ``counters``, the layout of a future-key table (see
    :func:`fold_chain`); an empty ``counters`` builds no cipher.
    """
    base = int.from_bytes(ksn.raw[-8:], "big") & ~COUNTER_MASK
    messages = b"".join([(base | counter).to_bytes(8, "big") for counter in counters])
    if not messages:
        return b""
    size = len(messages)
    message = int.from_bytes(messages, "big")
    # 8-byte halves, interleaved left/right per child by extended-slice assignment
    children = array("Q", bytes(2 * size))
    # the left half of a child comes from the masked parent, the right from the parent
    for half, key in enumerate((masked(material, KEY_HALF_MASK), material)):
        whitening = int.from_bytes(key[8:] * (size // 8), "big")
        cipher = tdes.ecb_encrypt(key[:8], (message ^ whitening).to_bytes(size, "big"))
        whitened = int.from_bytes(cipher, "big") ^ whitening
        children[half::2] = array("Q", whitened.to_bytes(size, "big"))
    return children.tobytes()


def nrkgp(current_key: TdeaKey, ksn: Ksn) -> TdeaKey:
    """Non-reversible key generation: derive the child key named by ``ksn``.

    Requires at least one set counter bit (counter zero names the initial
    key, which is never an nrkgp output).
    """
    if ksn.counter == 0:
        raise ValueError("nrkgp needs a KSN with at least one counter bit set")
    material = derive_children(current_key.material, ksn, (ksn.counter,))
    return TdeaKey(material, KeyRole.TRANSACTION)


def derive_key_chain(ipek: TdeaKey, ksn: Ksn) -> TdeaKey:
    """Fold the one-way step over the counter's set bits, MSB first.

    ``key(0)`` is the IPEK itself; for each set bit, taken from most to
    least significant, the accumulated counter names one derivation step.
    This is the host-side route to any transaction key and the reference
    the terminal's future-key table must agree with.

    Raises :class:`CounterOverweight` for counters with more than
    :data:`MAX_COUNTER_WEIGHT` set bits; such KSNs are never honored.
    """
    counter = ksn.counter
    if counter.bit_count() > MAX_COUNTER_WEIGHT:
        raise CounterOverweight(f"counter {counter:#07x} has {counter.bit_count()} set bits")
    if counter == 0:
        return ipek
    # no room for siblings: a one-off key derives none
    return TdeaKey(fold_chain(ipek.material, ksn, 0, bytearray()), KeyRole.TRANSACTION)


def fold_chain(material: bytes, ksn: Ksn, prefix: int, siblings: bytearray) -> bytes:
    """Fold from ``key(prefix) = material`` to the key of the KSN's counter.

    ``prefix`` is the counter with zero or more of its low set bits cleared
    (0 names the IPEK). Each remaining set bit, MSB first, is one node of
    the walk and one :func:`derive_children` batch under the node's key:
    the child on the way down plus its right siblings, the node's children
    at the bits between that child's and the node's lowest set bit. Those
    siblings are the later counters a device's future-key table holds: the
    key of counter ``(c >> q+1 << q+1) | 1 << q`` goes to 16-byte slot ``q``
    of ``siblings``, and only the slots the buffer holds are derived, so an
    empty buffer makes this a plain fold. The counter's key is returned.
    This is the only fold: :func:`derive_key_chain` starts it from the IPEK,
    and the host from the nearest key its table still holds.
    """
    counter = ksn.counter
    rest = counter ^ prefix
    low = prefix & -prefix
    if prefix & rest or (prefix and rest >= low):
        raise ValueError(f"{prefix:#07x} is not a prefix of counter {counter:#07x}")
    top = low.bit_length() - 1 if prefix else COUNTER_BITS
    room = len(siblings) // 16
    while rest:
        bit = rest.bit_length() - 1
        rest ^= 1 << bit
        stop = min(top, room)  # the right siblings are at bits bit+1 .. stop-1
        if stop > bit + 1:
            children = derive_children(material, ksn, [prefix | 1 << q for q in range(bit, stop)])
            siblings[16 * (bit + 1) : 16 * stop] = children[16:]
        else:  # no comprehension for one child: a plain fold pays this per step
            children = derive_children(material, ksn, [prefix | 1 << bit])
        material = children[:16]
        prefix |= 1 << bit
        top = bit
    return material


def masked(material: bytes, mask: int) -> bytes:
    """16-byte key material XORed with one of this module's 128-bit masks."""
    if len(material) != 16:
        raise LengthError(f"key material must be 16 bytes, got {len(material)}")
    return (int.from_bytes(material, "big") ^ mask).to_bytes(16, "big")


def variant_pin_key(transaction_key: TdeaKey) -> TdeaKey:
    """PIN-encryption variant of a transaction key (fixed XOR mask)."""
    if transaction_key.role is not KeyRole.TRANSACTION:
        raise KeyRoleError(
            f"PIN variant requires a Transaction key, got {transaction_key.role.value}"
        )
    return TdeaKey(masked(transaction_key.material, PIN_VARIANT_MASK), KeyRole.PIN_VARIANT)


def variant_data_key(transaction_key: TdeaKey) -> TdeaKey:
    """Data-encryption variant of a transaction key (fixed XOR mask)."""
    if transaction_key.role is not KeyRole.TRANSACTION:
        raise KeyRoleError(
            f"data variant requires a Transaction key, got {transaction_key.role.value}"
        )
    return TdeaKey(masked(transaction_key.material, DATA_VARIANT_MASK), KeyRole.DATA_VARIANT)
