"""Terminal-side engine: the future-key table and per-transaction issuance.

A device is initialized once with its IPEK and immediately converts it into
21 future keys, one per counter bit position; the IPEK itself is never
stored. The keys live in one table of 16-byte slots, in the layout of the
host's mirror of it (the slot rule is stated once, at
:func:`~dukptlab.key_hierarchy.fold_chain`): slot ``q`` serves counter bit
``q``, and an all-zero slot is empty. Each transaction consumes the slot of
the lowest set bit of the freshly advanced counter, refills every slot
below it, and zeroes the consumed slot. All those children share one
parent, so a refill is one batched one-way step
(:func:`~dukptlab.key_hierarchy.derive_children`): one single-DES pass per
key half, whatever the number of children. The table is an optimization,
not a different derivation: every key it ever hands out equals the direct
derivation chain for the same counter, and the tests hold it to that.

Key erasure is modeled by zero-overwriting the table in place;
tamper-resistant hardware is out of scope, but the visible contract (no
spent key material remains reachable from the state) is real.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import tdes
from .errors import (
    CounterExhausted,
    EmptyPlaintext,
    KeyRoleError,
    LengthError,
    NonZeroCounter,
)
from .key_hierarchy import (
    COUNTER_BITS,
    MAX_COUNTER_WEIGHT,
    KeyRole,
    Ksn,
    TdeaKey,
    derive_children,
    next_counter,
    remaining_counters,
    variant_data_key,
    variant_pin_key,
)
from .wire import Scheme, TransactionMessage


@dataclass
class TerminalState:
    """Single-owner mutable device state; one transaction at a time.

    ``table`` is the future-key table, ``16 * COUNTER_BITS`` bytes in the
    slot layout of :func:`~dukptlab.key_hierarchy.fold_chain`; it never
    shows in the repr. ``counter`` is read-only: only issuance moves it,
    together with the table.
    """

    base_ksn: Ksn
    _counter: int = field(default=0, init=False)
    table: bytearray = field(default_factory=lambda: bytearray(16 * COUNTER_BITS), repr=False)
    exhausted: bool = False

    @property
    def counter(self) -> int:
        """The counter of the last issued key; 0 before the first."""
        return self._counter

    def occupied_count(self) -> int:
        return sum(1 for q in range(0, len(self.table), 16) if any(self.table[q : q + 16]))

    def remaining_transactions(self) -> int:
        """Usable counters this device can still burn."""
        if self.exhausted:
            return 0
        return remaining_counters(self._counter)

    def next_transaction_key(self) -> tuple[Ksn, TdeaKey]:
        """Advance the counter and issue the key for it.

        The consumed slot first seeds every slot below it with the children
        this key can still reach (skipping counters that would exceed the
        weight bound, which are never visited), then is zeroed. Exhaustion
        is permanent: the whole table is zeroed and the device refuses
        further traffic.
        """
        if self.exhausted:
            raise CounterExhausted("terminal is spent; re-injection required")
        try:
            counter = next_counter(self._counter)
        except CounterExhausted:
            self._retire()
            raise
        self._counter = counter
        low = (counter & -counter).bit_length() - 1
        material = bytes(self.table[16 * low : 16 * low + 16])
        if not any(material):
            raise RuntimeError(f"future-key slot {low} is empty")
        # the bits below the consumed one are clear, so every child adds one
        # set bit: either all of them fit under the weight bound or none do
        if low and counter.bit_count() < MAX_COUNTER_WEIGHT:
            self.table[: 16 * low] = derive_children(
                material, self.base_ksn, [counter | 1 << q for q in range(low)])
        self.table[16 * low : 16 * low + 16] = bytes(16)
        return (
            self.base_ksn.with_counter(counter),
            TdeaKey(material, KeyRole.TRANSACTION),
        )

    def build_message(
        self,
        clear_pin_block: bytes | None = None,
        data: bytes | None = None,
    ) -> TransactionMessage:
        """Run one full transaction: draw a key, encrypt, assemble the message.

        The drawn key and its variants exist only inside this call; the
        table's copy is already zeroed by the time the message returns.
        """
        if clear_pin_block is None and data is None:
            raise EmptyPlaintext("transaction needs a PIN block or data to send")
        ksn, key = self.next_transaction_key()
        pin_ct = encrypt_pin(key, clear_pin_block) if clear_pin_block is not None else None
        data_ct = encrypt_data(key, data) if data is not None else None
        return TransactionMessage(ksn, pin_ct, data_ct, Scheme.DUKPT)

    def _retire(self) -> None:
        self.table[:] = bytes(len(self.table))
        self.exhausted = True


def init_terminal(ipek: TdeaKey, initial_ksn: Ksn) -> TerminalState:
    """Provision a device: expand the IPEK into all 21 future keys, drop it.

    ``initial_ksn`` must carry a zero counter. After this returns, no part
    of the state equals the IPEK; only one-way children of it remain.
    """
    if ipek.role is not KeyRole.INITIAL:
        raise KeyRoleError(f"terminal init needs an Initial key, got {ipek.role.value}")
    if initial_ksn.counter != 0:
        raise NonZeroCounter(
            f"initial KSN must have a zero counter, got {initial_ksn.counter:#x}"
        )
    children = derive_children(ipek.material, initial_ksn, [1 << q for q in range(COUNTER_BITS)])
    return TerminalState(initial_ksn, table=bytearray(children))


def encrypt_pin(key: TdeaKey, clear_pin_block: bytes) -> bytes:
    """Encrypt one clear PIN block under the PIN variant of ``key``."""
    if len(clear_pin_block) != 8:
        raise LengthError(f"PIN block must be 8 bytes, got {len(clear_pin_block)}")
    return tdes.encrypt_block(variant_pin_key(key).material, clear_pin_block)


def decrypt_pin(key: TdeaKey, encrypted_pin_block: bytes) -> bytes:
    """Inverse of :func:`encrypt_pin`."""
    if len(encrypted_pin_block) != 8:
        raise LengthError(f"PIN block must be 8 bytes, got {len(encrypted_pin_block)}")
    return tdes.ecb_decrypt(variant_pin_key(key).material, encrypted_pin_block)


def encrypt_data(key: TdeaKey, plaintext: bytes) -> bytes:
    """Encrypt a data payload under the data variant (CBC, zero IV, padded)."""
    return tdes.cbc_encrypt(variant_data_key(key).material, plaintext)


def decrypt_data(key: TdeaKey, ciphertext: bytes) -> bytes:
    """Inverse of :func:`encrypt_data`; bad padding raises DecryptFailed."""
    return tdes.cbc_decrypt(variant_data_key(key).material, ciphertext)
