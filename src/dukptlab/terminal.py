"""Terminal-side engine: the future-key table and per-transaction issuance.

A device is made once, by ``TerminalState(ipek, initial_ksn)`` (``init_terminal``
is the same class), and immediately converts its IPEK into 21 future keys, one
per counter bit position, in one 21-slot run of the one-way step; the IPEK
itself is never stored. There is no blank device. The keys live in one table of
16-byte slots: slot ``q`` serves counter bit ``q``, and an all-zero slot is
empty. :func:`~dukptlab.key_hierarchy.fold_chain`, which states the table rule
once, writes the fresh table, and each transaction moves it to the freshly
advanced counter in place with :func:`~dukptlab.key_hierarchy.advance`, the step
the host takes too; the host keeps the same table. Every key the table hands out
equals the direct derivation chain for the same counter, and the tests hold it to that.

A transaction is one checked step: refuse a bad payload, :meth:`TerminalState.issue`,
then :func:`~dukptlab.key_hierarchy.seal`. :meth:`~TerminalState.send` writes its line
and :meth:`~TerminalState.build_message` its message; the host opens either with
:func:`~dukptlab.key_hierarchy.unseal`. :meth:`~TerminalState.next_transaction_key`
and the four key-object payload functions are adapters that check roles.

Key erasure is modeled by zero-overwriting the table in place;
tamper-resistant hardware is out of scope, but the visible contract (no
spent key material remains reachable from the state) is real.
"""

from __future__ import annotations

from .errors import CounterExhausted, EmptyPlaintext, LengthError, NonZeroCounter
from .key_hierarchy import (
    COUNTER_BITS, TABLE_BYTES, KeyRole, Ksn, TdeaKey, advance, fold_chain, next_counter,
    remaining_counters, seal, unseal,
)
from .wire import MAX_DATA_BYTES, TransactionMessage, encode_fields


class TerminalState:
    """A provisioned device: single-owner mutable state, one transaction at a time.

    The Initial key ``ipek`` becomes the 21 future keys of ``initial_ksn`` (a zero
    counter) and is dropped: no part of the state equals it. ``table`` is the future-key
    table, :data:`~dukptlab.key_hierarchy.TABLE_BYTES` in the slot layout of
    :func:`~dukptlab.key_hierarchy.fold_chain`. The initial KSN is held as the ``Ksn``
    given; ``base_ksn``, ``ksn`` and ``counter`` are read-only, and only issuance moves
    the counter, with the table. The default repr shows no key.
    """

    __slots__ = ("_base", "_counter", "table")

    def __init__(self, ipek: TdeaKey, initial_ksn: Ksn):
        material = ipek.require(KeyRole.INITIAL, "terminal init")
        if initial_ksn.counter != 0:
            raise NonZeroCounter(
                f"initial KSN must have a zero counter, got {initial_ksn.counter:#x}")
        self._base, self._counter, self.table = initial_ksn, 0, bytearray(TABLE_BYTES)
        fold_chain(material, initial_ksn.value, COUNTER_BITS, self.table)

    @property
    def base_ksn(self) -> Ksn:
        """The device's initial KSN: its identifier with a zero counter."""
        return self._base

    @property
    def ksn(self) -> Ksn:
        """The KSN of the last issued key as a ``Ksn``; :meth:`send` writes it from ints."""
        return self._base.with_counter(self._counter)

    @property
    def counter(self) -> int:
        """The counter of the last issued key; 0 before the first."""
        return self._counter

    def remaining_transactions(self) -> int:
        """Usable counters this device can still burn."""
        return remaining_counters(self._counter)

    def next_transaction_key(self) -> tuple[Ksn, TdeaKey]:
        """Advance the counter and issue the key for it (see :meth:`issue`)."""
        material = self.issue()[1]
        return self.ksn, TdeaKey(material, KeyRole.TRANSACTION)

    def build_message(
        self, clear_pin_block: bytes | None = None, data: bytes | None = None
    ) -> TransactionMessage:
        """Run one transaction (see :meth:`send`) and return it as a message, not a line."""
        _, pin_ct, data_ct, _ = self._transact(clear_pin_block, data)
        return TransactionMessage(self.ksn, pin_ct, data_ct)

    def send(
        self, clear_pin_block: bytes | None = None, data: bytes | None = None
    ) -> tuple[str, bytes | None, bytes | None, bytes]:
        """Run one transaction and write its line: ``(line, pin_ct, data_ct, key)``.

        A bad payload is refused before a key is drawn, leaving counter and table as
        they were. ``key`` (the drawn key's 16 bytes) and its variants live only in
        this call; the table's copy is zeroed before it returns.
        """
        counter, pin_ct, data_ct, material = self._transact(clear_pin_block, data)
        line = encode_fields((self._base.value | counter).to_bytes(10, "big"), pin_ct, data_ct)
        return line, pin_ct, data_ct, material

    def _transact(self, clear_pin_block: bytes | None,
                  data: bytes | None) -> tuple[int, bytes | None, bytes | None, bytes]:
        """The checked step of both routes: ``(counter, pin_ct, data_ct, key)``."""
        if clear_pin_block is None and data is None:
            raise EmptyPlaintext("transaction needs a PIN block or data to send")
        _check_pin_block(clear_pin_block)
        if data is not None and not data:
            raise EmptyPlaintext("refusing to encrypt an empty payload")
        if data is not None and len(data) >= MAX_DATA_BYTES:  # padding adds 1 to 8 bytes
            raise LengthError(f"data must be under {MAX_DATA_BYTES} bytes, got {len(data)}")
        counter, material = self.issue()
        pin_ct, data_ct = seal(material, clear_pin_block, data)
        return counter, pin_ct, data_ct, material

    def issue(self) -> tuple[int, bytes]:
        """Advance the counter and take its key's material from the table.

        :func:`~dukptlab.key_hierarchy.advance` moves this very table to its table
        at the new counter. The counter moves with the table, once the step finds
        its slot full. Past the last usable counter every call raises
        :class:`~dukptlab.errors.CounterExhausted` and zeroes the table.
        """
        try:
            counter = next_counter(self._counter)
        except CounterExhausted:
            self.table[:] = bytes(len(self.table))
            raise
        material = advance(self.table, self._base.value | counter, self._counter)
        self._counter = counter
        return counter, material


init_terminal = TerminalState


def _check_pin_block(block: bytes | None) -> None:
    if block is not None and len(block) != 8:
        raise LengthError(f"PIN block must be 8 bytes, got {len(block)}")


def encrypt_pin(key: TdeaKey, clear_pin_block: bytes) -> bytes:
    """Encrypt one clear PIN block under the PIN variant of ``key``."""
    return seal(key.require(KeyRole.TRANSACTION, "PIN encryption"), clear_pin_block, None)[0]


def decrypt_pin(key: TdeaKey, encrypted_pin_block: bytes) -> bytes:
    """Inverse of :func:`encrypt_pin`."""
    _check_pin_block(encrypted_pin_block)
    return unseal(key.require(KeyRole.TRANSACTION, "PIN decryption"), encrypted_pin_block, None)[0]


def encrypt_data(key: TdeaKey, plaintext: bytes) -> bytes:
    """Encrypt a data payload under the data variant (CBC, zero IV, padded)."""
    return seal(key.require(KeyRole.TRANSACTION, "data encryption"), None, plaintext)[1]


def decrypt_data(key: TdeaKey, ciphertext: bytes) -> bytes:
    """Inverse of :func:`encrypt_data`; bad padding raises DecryptFailed."""
    return unseal(key.require(KeyRole.TRANSACTION, "data decryption"), None, ciphertext)[1]
