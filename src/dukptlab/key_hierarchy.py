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

Each key is split into a PIN variant and a data variant by a fixed XOR mask, both
made by one private step; :func:`seal` and :func:`unseal` are the one place a variant
meets a cipher mode. State lives in :mod:`dukptlab.terminal` and :mod:`dukptlab.host`:
:func:`fold_chain` and :func:`advance` write the table handed them; the rest is pure.
"""

from __future__ import annotations

import math
# hmac.compare_digest's own fallback: importing hmac would load a second OpenSSL (_hashlib)
from _operator import _compare_digest
from array import array
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
# a future-key table: one 16-byte slot per counter bit (see fold_chain)
TABLE_BYTES = 16 * COUNTER_BITS
_EMPTY_SLOT = bytes(16)

# the key-half mask (IPEK, one-way step) and the variant masks; no other module applies them
KEY_HALF_MASK = 0xC0C0C0C000000000C0C0C0C000000000
PIN_VARIANT_MASK = 0x00000000000000FF00000000000000FF
DATA_VARIANT_MASK = 0x0000000000FF00000000000000FF0000

# derive_children's layout for n children: a 1 in each 64-bit block, and one every 63 bits
_BLOCK_MASK = (1 << 64) - 1
_REPUNITS = [((1 << 64 * n) - 1) // _BLOCK_MASK for n in range(COUNTER_BITS + 1)]
_STEPS = [((1 << 63 * n) - 1) // (_BLOCK_MASK >> 1) for n in range(COUNTER_BITS + 1)]

_Parts = tuple[bytes | None, bytes | None]  # a PIN block and data, either absent
LoadedBdk = tuple[tdes.TdeaCipher, tdes.TdeaCipher]  # see load_bdk


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
    matches; comparison runs in constant time, in CPython's C
    ``_operator._compare_digest``.
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
        return cls(_from_hex(text, 16, "key"), role)

    @property
    def hex(self) -> str:
        return self.material.hex().upper()

    def require(self, role: KeyRole, use: str) -> bytes:
        """The key's 16 bytes for ``use``, which only a ``role`` key serves, or KeyRoleError."""
        if self.role is not role:
            raise KeyRoleError(f"{use} requires role {role.value}, got {self.role.value}")
        return self.material

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TdeaKey):
            return NotImplemented
        return _compare_digest(self.material, other.material)

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
    def value(self) -> int:
        return int.from_bytes(self.raw, "big")

    @property
    def counter(self) -> int:
        return self.value & COUNTER_MASK

    @property
    def initial_id(self) -> int:
        """The 59 identifier bits above the counter."""
        return self.value >> COUNTER_BITS

    @property
    def key_set_id(self) -> int:
        """Leftmost 24 bits; selects the base derivation key."""
        return self.value >> COUNTER_BITS + DEVICE_ID_BITS

    @property
    def base(self) -> "Ksn":
        """This KSN with all counter bits cleared; stable across updates."""
        return self.with_counter(0)

    def with_counter(self, counter: int) -> "Ksn":
        if not 0 <= counter <= COUNTER_MASK:
            raise ValueError(f"counter out of 21-bit range: {counter:#x}")
        value = (self.value & ~COUNTER_MASK) | counter
        return Ksn(value.to_bytes(10, "big"))

    @property
    def hex(self) -> str:
        return self.raw.hex().upper()

    def __repr__(self) -> str:
        return f"Ksn({self.hex})"


def parse_ksn(text: str) -> Ksn:
    """Parse the 20-hex-character canonical KSN encoding."""
    return Ksn(_from_hex(text, 10, "KSN"))


def read_hex(text: str) -> bytes:
    """``text`` read as two hex digits a byte, either case, nothing between; else ``b""``."""
    try:
        raw = bytes.fromhex(text)  # it skips whitespace, so the bytes are counted
    except ValueError:
        return b""
    return raw if 2 * len(raw) == len(text) else b""


def _from_hex(text: str, size: int, name: str) -> bytes:
    if len(text) != 2 * size:
        raise LengthError(f"{name} hex must be {2 * size} characters, got {len(text)}")
    if not (raw := read_hex(text)):
        raise HexInputError(f"{name} is not valid hex: {text!r}")
    return raw


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


def load_bdk(bdk: TdeaKey) -> LoadedBdk:
    """A BDK loaded for :func:`ipek_material`: itself, and under :data:`KEY_HALF_MASK`."""
    material = bdk.require(KeyRole.BASE_DERIVATION, "IPEK derivation")
    half_masked = (int.from_bytes(material, "big") ^ KEY_HALF_MASK).to_bytes(16, "big")
    return tdes.TdeaCipher(material), tdes.TdeaCipher(half_masked)


def ipek_material(loaded: LoadedBdk, ksn: int) -> bytes:
    """A device's initial key from the KSN ``ksn`` (the int :attr:`Ksn.value`), counter
    bits cleared: the leftmost 8 KSN bytes TDEA-encrypted under each key of ``loaded``."""
    block = ((ksn & ~COUNTER_MASK) >> 16).to_bytes(8, "big")
    return loaded[0].ecb_encrypt(block) + loaded[1].ecb_encrypt(block)


def derive_ipek(bdk: TdeaKey, initial_ksn: Ksn) -> TdeaKey:
    """Derive a device's initial key from the base derivation key (see :func:`ipek_material`)."""
    return TdeaKey(ipek_material(load_bdk(bdk), initial_ksn.value), KeyRole.INITIAL)


def derive_children(material: bytes, ksn: int, prefix: int, low: int, high: int) -> bytes:
    """The non-reversible derivation step: the children of ``material = key(prefix)``
    in table slots ``low .. high-1``.

    The child in slot ``q`` is the key of counter ``prefix | 1 << q``; ``prefix``
    is clear on those bits. Its step message is the rightmost 64 bits of the KSN
    ``ksn``, an int (:attr:`Ksn.value`), with the counter bits replaced by that
    counter. Each half of a child is single-DES under the left half of a key, the
    parent masked with :data:`KEY_HALF_MASK` for the left and the parent for the
    right, with pre/post whitening ``w`` by that key's right half; recovering the
    parent from a child requires a key search. Those keys depend on the parent
    alone, so one ECB pass per half derives every child: exactly two cipher builds
    for a non-empty run, none for an empty one. A pass's plaintext is one int
    built at a fixed op count, ``((base ^ w) * rep) ^ steps`` for the ``n``
    children: the repunit ``rep = (2**(64*n) - 1) // (2**64 - 1)`` has a 1 in
    every 64-bit block, and ``steps``, the 63-bit-stride repunit shifted left by
    ``high - 1``, sets bit ``q`` in slot ``q``'s block, the first child's block
    leftmost; nothing carries between blocks. The two passes' halves are
    interleaved into one run of 16-byte slots, slots ``low .. high-1`` of a
    future-key table (see :func:`fold_chain`).
    """
    if low >= high:
        return b""
    parent = _key_int(material)
    n = high - low
    rep, steps = _REPUNITS[n], _STEPS[n] << high - 1
    base = ksn & _BLOCK_MASK & ~COUNTER_MASK | prefix
    masked_parent = parent ^ KEY_HALF_MASK
    w_left, w_right = masked_parent & _BLOCK_MASK, parent & _BLOCK_MASK
    left = tdes.ecb_encrypt((masked_parent >> 64).to_bytes(8, "big"),
                            ((base ^ w_left) * rep ^ steps).to_bytes(8 * n, "big"))
    right = tdes.ecb_encrypt(material[:8], ((base ^ w_right) * rep ^ steps).to_bytes(8 * n, "big"))
    left = int.from_bytes(left, "big") ^ w_left * rep
    right = int.from_bytes(right, "big") ^ w_right * rep
    if n == 1:
        return (left << 64 | right).to_bytes(16, "big")
    children = array("Q", bytes(16 * n))
    children[::2] = array("Q", left.to_bytes(8 * n, "big"))
    children[1::2] = array("Q", right.to_bytes(8 * n, "big"))
    return children.tobytes()


def nrkgp(current_key: TdeaKey, ksn: Ksn) -> TdeaKey:
    """Non-reversible key generation: derive the child key named by ``ksn``.

    Requires at least one set counter bit (counter zero names the initial
    key, which is never an nrkgp output).
    """
    counter = ksn.counter
    if counter == 0:
        raise ValueError("nrkgp needs a KSN with at least one counter bit set")
    low = (counter & -counter).bit_length() - 1
    material = derive_children(current_key.material, ksn.value, counter ^ 1 << low, low, low + 1)
    return TdeaKey(material, KeyRole.TRANSACTION)


def derive_key_chain(ipek: TdeaKey, ksn: Ksn) -> TdeaKey:
    """Fold the one-way step over the counter's set bits, MSB first.

    ``key(0)`` is the IPEK itself; for each set bit, taken from most to
    least significant, the accumulated counter names one derivation step of
    one child. This is the reference route to any transaction key, which the
    terminal's future-key table and the host's walk must agree with.

    Raises :class:`CounterOverweight` for counters with more than
    :data:`MAX_COUNTER_WEIGHT` set bits; such KSNs are never honored.
    """
    counter = ksn.counter
    if counter.bit_count() > MAX_COUNTER_WEIGHT:
        raise CounterOverweight(f"counter {counter:#07x} has {counter.bit_count()} set bits")
    if counter == 0:
        return ipek
    material, prefix = ipek.material, 0
    while prefix != counter:
        bit = (counter ^ prefix).bit_length() - 1
        material = derive_children(material, ksn.value, prefix, bit, bit + 1)
        prefix |= 1 << bit
    return TdeaKey(material, KeyRole.TRANSACTION)


def fold_chain(material: bytes, ksn: int, slot: int, table: bytearray) -> bytes:
    """Write slots ``0 .. min(slot, 20)`` of the device's ``table`` after it issues
    counter ``c`` of the KSN ``ksn`` (the int :attr:`Ksn.value`); return ``key(c)``.

    A future-key table has one 16-byte slot per counter bit, :data:`TABLE_BYTES` in
    all; another length raises :class:`LengthError` before a write. At counter ``c``
    (0 for a fresh device), slot ``q`` holds the key of ``(c >> q+1 << q+1) | 1 << q``,
    the next counter to consume it, if bit ``q`` of ``c`` is clear and that counter is
    usable, and is zero otherwise. ``slot`` is the highest bit where ``c`` and an
    earlier counter part, or 21 for the IPEK; the slots above it are the same at both
    counters and are not written, and ``material`` is the earlier table's key in it,
    ``key(c >> slot << slot)``. Each set bit of ``c`` below the slot, MSB first, is one
    node of the walk, its slot zeroed, and one :func:`derive_children` run under its
    key: the child on the way down plus its right siblings. The walk ends in the slot
    the device consumes, ``low(c)`` or the start's, zeroed too: one more run fills the
    slots below it with ``key(c)``'s children, or zeros at weight 10.
    :func:`derive_key_chain` is the plain fold it is checked against.
    """
    if len(table) != TABLE_BYTES:
        raise LengthError(f"a future-key table is {TABLE_BYTES} bytes, got {len(table)}")
    counter = ksn & COUNTER_MASK
    prefix = counter >> slot << slot
    if slot < COUNTER_BITS:
        table[16 * slot : 16 * slot + 16] = _EMPTY_SLOT
    while prefix != counter:
        bit = (counter ^ prefix).bit_length() - 1
        run = derive_children(material, ksn, prefix, bit, slot)
        table[16 * bit : 16 * slot] = run  # the child on the way down, then its right siblings
        table[16 * bit : 16 * bit + 16] = _EMPTY_SLOT  # which is the next node
        material = run[:16]
        prefix |= 1 << bit
        slot = bit
    # the bits below the consumed slot are clear, so every child adds one set
    # bit: either all of them fit under the weight bound or none do
    table[: 16 * slot] = (derive_children(material, ksn, counter, 0, slot)
                          if counter.bit_count() < MAX_COUNTER_WEIGHT else bytes(16 * slot))
    return material


def advance(table: bytearray, ksn: int, last: int) -> bytes:
    """Move a device's ``table`` in place from counter ``last`` to the later counter ``c``
    of the KSN ``ksn`` (the int :attr:`Ksn.value`) and return ``key(c)``: :func:`fold_chain`
    from slot ``s``, the highest bit where ``c`` and ``last`` part, which holds
    ``key(c >> s << s)``. A ``c`` not above ``last``, or an empty slot ``s`` (a table that
    disagrees with ``last``), raises ``RuntimeError`` before a write."""
    if (c := ksn & COUNTER_MASK) <= last:
        raise RuntimeError(f"counter {c:#x} is not above last {last:#x}")
    slot = (c ^ last).bit_length() - 1
    material = bytes(table[16 * slot : 16 * slot + 16])
    if not any(material):
        raise RuntimeError(f"future-key slot {slot} is empty")
    return fold_chain(material, ksn, slot, table)


def _key_int(material: bytes) -> int:
    if len(material) != 16:
        raise LengthError(f"key material must be 16 bytes, got {len(material)}")
    return int.from_bytes(material, "big")


def _variants(material: bytes) -> tuple[bytes, bytes]:
    """The PIN and data variants of a transaction key's 16 bytes, read once as an int."""
    key = _key_int(material)
    pin, data = key ^ PIN_VARIANT_MASK, key ^ DATA_VARIANT_MASK
    return pin.to_bytes(16, "big"), data.to_bytes(16, "big")


def seal(material: bytes, clear_pin_block: bytes | None, data: bytes | None) -> _Parts:
    """Encrypt the PIN block (one TDEA block) and the data (padded CBC, zero IV) under
    the PIN and data variants of a transaction key's 16 bytes; an absent part stays None."""
    pin_key, data_key = _variants(material)
    pin_ct = None if clear_pin_block is None else tdes.encrypt_block(pin_key, clear_pin_block)
    data_ct = None if data is None else tdes.cbc_encrypt(data_key, data)
    return pin_ct, data_ct


def unseal(material: bytes, pin_ct: bytes | None, data_ct: bytes | None) -> _Parts:
    """Inverse of :func:`seal`; bad padding on the data raises DecryptFailed."""
    pin_key, data_key = _variants(material)
    clear_pin = None if pin_ct is None else tdes.ecb_decrypt(pin_key, pin_ct)
    clear_data = None if data_ct is None else tdes.cbc_decrypt(data_key, data_ct)
    return clear_pin, clear_data


def variant_pin_key(transaction_key: TdeaKey) -> TdeaKey:
    """PIN-encryption variant of a transaction key (fixed XOR mask)."""
    material = transaction_key.require(KeyRole.TRANSACTION, "PIN variant")
    return TdeaKey(_variants(material)[0], KeyRole.PIN_VARIANT)


def variant_data_key(transaction_key: TdeaKey) -> TdeaKey:
    """Data-encryption variant of a transaction key (fixed XOR mask)."""
    material = transaction_key.require(KeyRole.TRANSACTION, "data variant")
    return TdeaKey(_variants(material)[1], KeyRole.DATA_VARIANT)
