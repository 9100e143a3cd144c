"""Terminal-side engine: the future-key table and per-transaction issuance.

A device is initialized once with its IPEK and immediately converts it into
21 future keys, one per counter bit position, in one 21-slot run of the
one-way step; the IPEK itself is never stored. The keys live in one table of
16-byte slots, the layout the host's mirror of it keeps too (the slot rule
is stated once, at :func:`~dukptlab.key_hierarchy.fold_chain`): slot ``q``
serves counter bit ``q``, and an all-zero slot is empty. Each transaction
consumes the slot of the lowest set bit of the freshly advanced counter,
refills every slot below it with one run of the one-way step over those
slots (:func:`~dukptlab.key_hierarchy.derive_children`), and zeroes the
consumed slot. Every key the table hands out equals the direct derivation
chain for the same counter, and the tests hold it to that.

The device line is :meth:`TerminalState.issue` (a counter and its key's 16
bytes) then :func:`~dukptlab.key_hierarchy.seal`; the host opens the message
with :func:`~dukptlab.key_hierarchy.unseal`.
:meth:`~TerminalState.next_transaction_key` and the four key-object payload
functions are adapters over these that check roles.

Key erasure is modeled by zero-overwriting the table in place;
tamper-resistant hardware is out of scope, but the visible contract (no
spent key material remains reachable from the state) is real.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CounterExhausted, EmptyPlaintext, KeyRoleError, LengthError, NonZeroCounter
from .key_hierarchy import (
    COUNTER_BITS, MAX_COUNTER_WEIGHT, TABLE_BYTES, KeyRole, Ksn, TdeaKey, derive_children,
    next_counter, remaining_counters, seal, unseal,
)
from .wire import TransactionMessage


@dataclass
class TerminalState:
    """Single-owner mutable device state; one transaction at a time.

    ``table`` is the future-key table, :data:`~dukptlab.key_hierarchy.TABLE_BYTES`
    in the slot layout of :func:`~dukptlab.key_hierarchy.fold_chain`; it never
    shows in the repr. ``counter`` is read-only: only issuance moves it,
    together with the table.
    """

    base_ksn: Ksn
    _counter: int = field(default=0, init=False)
    table: bytearray = field(default_factory=lambda: bytearray(TABLE_BYTES), repr=False)
    exhausted: bool = field(default=False, init=False)

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
        """Advance the counter and issue the key for it (see :meth:`issue`)."""
        counter, material = self.issue()
        return self.base_ksn.with_counter(counter), TdeaKey(material, KeyRole.TRANSACTION)

    def build_message(
        self, clear_pin_block: bytes | None = None, data: bytes | None = None
    ) -> TransactionMessage:
        """Run one full transaction: draw a key, encrypt, assemble the message.

        A bad payload is refused before a key is drawn, leaving counter and
        table as they were. The drawn key and its variants are bytes that
        live only in this call; the table's copy is zeroed before it returns.
        """
        if clear_pin_block is None and data is None:
            raise EmptyPlaintext("transaction needs a PIN block or data to send")
        _check_pin_block(clear_pin_block)
        if data is not None and not data:
            raise EmptyPlaintext("refusing to encrypt an empty payload")
        counter, material = self.issue()
        pin_ct, data_ct = seal(material, clear_pin_block, data)
        return TransactionMessage(self.base_ksn.with_counter(counter), pin_ct, data_ct)

    def issue(self) -> tuple[int, bytes]:
        """Advance the counter and take its key's material from the table.

        The consumed slot first seeds every slot below it with the children
        this key can still reach, then is zeroed; the counter moves with the
        table, once the slot is found full. Exhaustion is permanent: the
        table is zeroed and the device refuses further traffic.
        """
        if self.exhausted:
            raise CounterExhausted("terminal is spent; re-injection required")
        try:
            counter = next_counter(self._counter)
        except CounterExhausted:
            self._retire()
            raise
        low = (counter & -counter).bit_length() - 1
        material = bytes(self.table[16 * low : 16 * low + 16])
        if not any(material):
            raise RuntimeError(f"future-key slot {low} is empty")
        # the bits below the consumed one are clear, so every child adds one
        # set bit: either all of them fit under the weight bound or none do
        if counter.bit_count() < MAX_COUNTER_WEIGHT:
            ksn = self.base_ksn.value
            self.table[: 16 * low] = derive_children(material, ksn, counter, 0, low)
        self.table[16 * low : 16 * low + 16] = bytes(16)
        self._counter = counter
        return counter, material

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
        raise NonZeroCounter(f"initial KSN must have a zero counter, got {initial_ksn.counter:#x}")
    children = derive_children(ipek.material, initial_ksn.value, 0, 0, COUNTER_BITS)
    return TerminalState(initial_ksn, table=bytearray(children))


def _check_pin_block(block: bytes | None) -> None:
    if block is not None and len(block) != 8:
        raise LengthError(f"PIN block must be 8 bytes, got {len(block)}")


def _material(key: TdeaKey) -> bytes:
    if key.role is not KeyRole.TRANSACTION:
        raise KeyRoleError(f"payload variants require a Transaction key, got {key.role.value}")
    return key.material


def encrypt_pin(key: TdeaKey, clear_pin_block: bytes) -> bytes:
    """Encrypt one clear PIN block under the PIN variant of ``key``."""
    _check_pin_block(clear_pin_block)
    return seal(_material(key), clear_pin_block, None)[0]


def decrypt_pin(key: TdeaKey, encrypted_pin_block: bytes) -> bytes:
    """Inverse of :func:`encrypt_pin`."""
    _check_pin_block(encrypted_pin_block)
    return unseal(_material(key), encrypted_pin_block, None)[0]


def encrypt_data(key: TdeaKey, plaintext: bytes) -> bytes:
    """Encrypt a data payload under the data variant (CBC, zero IV, padded)."""
    return seal(_material(key), None, plaintext)[1]


def decrypt_data(key: TdeaKey, ciphertext: bytes) -> bytes:
    """Inverse of :func:`encrypt_data`; bad padding raises DecryptFailed."""
    return unseal(_material(key), None, ciphertext)[1]
