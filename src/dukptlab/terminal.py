"""Terminal-side engine: future-key registers and per-transaction issuance.

A device is initialized once with its IPEK and immediately converts it into
21 future keys, one per counter bit position; the IPEK itself is never
stored. Each transaction consumes the register addressed by the lowest set
bit of the freshly advanced counter, derives replacement keys into every
register below that bit, and wipes the consumed slot. The register table is
an optimization, not a different derivation: every key it ever hands out
equals the direct derivation chain for the same counter, and the tests hold
it to that.

Key erasure is modeled by zero-overwriting the stored byte buffer before the
slot is emptied; tamper-resistant hardware is out of scope, but the visible
contract (no spent key material remains reachable from the state) is real.
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
    derive_child,
    next_counter,
    remaining_counters,
    variant_data_key,
    variant_pin_key,
)
from .wire import Scheme, TransactionMessage


@dataclass
class FutureKeyRegister:
    """One slot of the future-key table; slot ``i`` serves counter bit ``i-1``."""

    key_material: bytearray | None = field(default=None, repr=False)

    @property
    def occupied(self) -> bool:
        return self.key_material is not None

    @property
    def key(self) -> TdeaKey | None:
        if self.key_material is None:
            return None
        return TdeaKey.from_bytes(self.key_material, KeyRole.TRANSACTION)

    def store(self, material: bytes) -> None:
        self.key_material = bytearray(material)

    def wipe(self) -> None:
        """Zero the buffer in place, then release the slot."""
        if self.key_material is not None:
            self.key_material[:] = bytes(16)
            self.key_material = None


@dataclass
class TerminalState:
    """Single-owner mutable device state; one transaction at a time."""

    base_ksn: Ksn
    counter: int = 0
    registers: list[FutureKeyRegister] = field(default_factory=list)
    exhausted: bool = False

    def occupied_count(self) -> int:
        return sum(1 for r in self.registers if r.occupied)

    def remaining_transactions(self) -> int:
        """Usable counters this device can still burn."""
        if self.exhausted:
            return 0
        return remaining_counters(self.counter)

    def next_transaction_key(self) -> tuple[Ksn, TdeaKey]:
        """Advance the counter and issue the key for it.

        The consumed register first seeds every register below its bit
        position with the children this key can still reach (skipping
        counters that would exceed the weight bound, which are never
        visited), then is wiped. Exhaustion is permanent: all registers are
        destroyed and the device refuses further traffic.
        """
        if self.exhausted:
            raise CounterExhausted("terminal is spent; re-injection required")
        try:
            counter = next_counter(self.counter)
        except CounterExhausted:
            self._retire()
            raise
        self.counter = counter
        bit_pos = (counter & -counter).bit_length() - 1
        register = self.registers[bit_pos]
        if not register.occupied:
            raise RuntimeError(f"future-key register {bit_pos + 1} is empty")
        material = bytes(register.key_material)
        for pos in range(bit_pos):
            child = counter | (1 << pos)
            if child.bit_count() <= MAX_COUNTER_WEIGHT:
                self.registers[pos].store(derive_child(material, self.base_ksn, child))
        register.wipe()
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
        register copy is already wiped by the time the message returns.
        """
        if clear_pin_block is None and data is None:
            raise EmptyPlaintext("transaction needs a PIN block or data to send")
        ksn, key = self.next_transaction_key()
        pin_ct = encrypt_pin(key, clear_pin_block) if clear_pin_block is not None else None
        data_ct = encrypt_data(key, data) if data is not None else None
        return TransactionMessage(ksn, pin_ct, data_ct, Scheme.DUKPT)

    def _retire(self) -> None:
        for register in self.registers:
            register.wipe()
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
    state = TerminalState(base_ksn=initial_ksn)
    for bit_pos in range(COUNTER_BITS):
        register = FutureKeyRegister()
        register.store(derive_child(ipek.material, initial_ksn, 1 << bit_pos))
        state.registers.append(register)
    return state


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
    if not plaintext:
        raise EmptyPlaintext("refusing to encrypt an empty payload")
    return tdes.cbc_encrypt(variant_data_key(key).material, plaintext)


def decrypt_data(key: TdeaKey, ciphertext: bytes) -> bytes:
    """Inverse of :func:`encrypt_data`; bad padding raises DecryptFailed."""
    return tdes.cbc_decrypt(variant_data_key(key).material, ciphertext)
