"""Acquirer-side processing: key registry, re-derivation, and policy.

The registry is a software stand-in for the HSM that would normally hold
base derivation keys: BDKs go in through :meth:`HostRegistry.register_bdk`
and never come out through any reply, verdict, or log. For each message the
host repeats the terminal's derivation, in bytes and ints from parse to
reply: :meth:`HostRegistry.process_message` reads the KSN once, as one int
that gives the counter, the device and the key-set id; checks the key set,
the counter's weight and the device's floor; folds to the transaction key
as 16 bytes; opens the payload with
:func:`~dukptlab.key_hierarchy.unseal` and holds a PIN block to
:func:`~dukptlab.pin_block.structure_ok`; and commits floor and table only
on an accept. :func:`format_reply` turns the
:class:`HostVerdict` into the reply. No key object is built on the way; the
role checks sit at the public entry points.

The fold does not always start from the device's initial key. For each of
up to :data:`TABLE_CACHE_DEVICES` recently accepted devices the registry
keeps a lazy mirror of the device's own future-key table. After accepting
counter ``L`` it holds the device's table as it stood when the device
issued ``L``: :func:`~dukptlab.key_hierarchy.fold_chain` states what that
table holds and returns the slots a walk rewrites. A later counter ``c`` is
folded from slot ``s = max(highest bit of c ^ L, lowest set bit of L)``,
which holds the key of ``c >> s << s``. In-order traffic then derives on
odd counters only; a device's first message and an evicted device start
from the BDK. Only an accepted message changes the table.

The trade-off: the table holds what the device itself held when it issued
``L``, ``key(L)`` and keys of later counters, never an earlier counter's
key, until the device is evicted (least recently accepted first) or its BDK
is replaced, and is zero-overwritten then. It holds no IPEK or BDK copy,
and the BDK the registry already holds opens every one of these keys anyway.

Two policies guard the counter, and neither can be turned off: KSNs whose
counter exceeds the weight bound are rejected outright, and each device's
accepted counters must be strictly increasing (replay and reordering both
surface as ``ReplayRejected``). Replacing a BDK keeps every floor.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum

from .errors import DecryptFailed, DuplicateKeySet, KeyRoleError, UnknownKeySet, WireFormatError
from .key_hierarchy import (
    COUNTER_BITS, COUNTER_MASK, DEVICE_ID_BITS, KEY_SET_ID_BITS, MAX_COUNTER_WEIGHT,
    TABLE_BYTES, KeyRole, Ksn, TdeaKey, derive_ipek, derive_key_chain, fold_chain, unseal,
)
from .pin_block import structure_ok
from .wire import Scheme, TransactionMessage, parse_wire

# devices whose key table is kept; host_scattered's 682 fit
TABLE_CACHE_DEVICES = 1024


class VerdictStatus(Enum):
    ACCEPTED = "Accepted"
    REPLAY_REJECTED = "ReplayRejected"
    OVERWEIGHT_COUNTER_REJECTED = "OverweightCounterRejected"
    UNKNOWN_KEY_SET = "UnknownKeySet"
    DECRYPT_FAILED = "DecryptFailed"


_DUKPT, _ACCEPTED = Scheme.DUKPT, VerdictStatus.ACCEPTED  # read per line; quicker than a member


@dataclass(frozen=True)
class HostVerdict:
    """Outcome of processing one message; clear fields only when accepted."""

    status: VerdictStatus
    derived_counter: int
    clear_pin_block: bytes | None = field(default=None, repr=False)
    clear_data: bytes | None = field(default=None, repr=False)

    @property
    def accepted(self) -> bool:
        return self.status is _ACCEPTED


class HostRegistry:
    """BDK store, per-device replay log and per-device key tables.

    One lock guards all three. :meth:`process_message` holds it from the BDK
    lookup to the commit, so a device's counter check, its decrypt, its log
    update and its table update are atomic, and no BDK replacement or
    eviction can touch a table while a message is open. Messages therefore
    run one at a time; the interpreter's global lock serializes the host's
    work anyway. The walk returns its slots in a fresh run that is copied into
    the table only on an accept, so any other verdict leaves the table
    byte-identical and its place in the eviction order unchanged.
    """

    def __init__(self) -> None:
        self._bdks: dict[int, TdeaKey] = {}
        self._device_log: dict[int, int] = {}
        self._lock = threading.Lock()
        # device -> its TABLE_BYTES key table at the logged counter, LRU order
        self._tables: OrderedDict[int, bytearray] = OrderedDict()

    def register_bdk(self, key_set_id: int, bdk: TdeaKey, overwrite: bool = False) -> None:
        """Install the base derivation key serving one key-set identifier.

        Replacing a BDK (``overwrite=True``) wipes its devices' tables but
        keeps their replay floors, since a reset would reopen counters already
        accepted: a device re-injected with the same initial KSN is accepted
        only above its old floor.
        """
        if not 0 <= key_set_id < (1 << KEY_SET_ID_BITS):
            raise ValueError(f"key-set id out of 24-bit range: {key_set_id:#x}")
        if bdk.role is not KeyRole.BASE_DERIVATION:
            raise KeyRoleError(f"registry stores BaseDerivation keys, got {bdk.role.value}")
        with self._lock:
            if key_set_id in self._bdks and not overwrite:
                raise DuplicateKeySet(f"key set {key_set_id:06X} already registered")
            self._bdks[key_set_id] = bdk
            # tables derived under a replaced BDK would open nothing under the new one
            for device in [d for d in self._tables if d >> DEVICE_ID_BITS == key_set_id]:
                _wipe(self._tables.pop(device))

    def last_accepted_counter(self, initial_id: int) -> int:
        """Replay-log position for a device; 0 when never seen."""
        with self._lock:
            return self._device_log.get(initial_id, 0)

    def rederive_key(self, ksn: Ksn) -> TdeaKey:
        """Recompute the transaction key named by a KSN, with no side effects.

        Diagnostic path: does not consult or update the replay log. A zero
        counter yields the device's initial key.
        """
        with self._lock:
            bdk = self._bdks.get(ksn.key_set_id)
        if bdk is None:
            raise UnknownKeySet(f"no BDK for key set {ksn.key_set_id:06X}")
        return derive_key_chain(derive_ipek(bdk, ksn), ksn)

    def process_message(self, msg: TransactionMessage) -> HostVerdict:
        """Authenticate-by-derivation: re-derive, decrypt, enforce policy."""
        if msg.scheme is not _DUKPT:
            raise ValueError(f"host engine processes DUKPT messages, got {msg.scheme.value}")
        value = int.from_bytes(msg.ksn.raw, "big")
        counter = value & COUNTER_MASK
        device = value >> COUNTER_BITS
        with self._lock:
            bdk = self._bdks.get(device >> DEVICE_ID_BITS)
            if bdk is None:
                return HostVerdict(VerdictStatus.UNKNOWN_KEY_SET, counter)
            if counter.bit_count() > MAX_COUNTER_WEIGHT:
                return HostVerdict(VerdictStatus.OVERWEIGHT_COUNTER_REJECTED, counter)
            # counter 0 names the initial key, never a transaction: it fails too
            last = self._device_log.get(device, 0)
            if counter <= last:
                return HostVerdict(VerdictStatus.REPLAY_REJECTED, counter)
            table = self._tables.get(device)
            if table is None:
                table = bytearray(TABLE_BYTES)
                slot, start = COUNTER_BITS, derive_ipek(bdk, msg.ksn).material
            else:
                # last's own slot if counter extends last, else the highest bit where they part
                slot = max(counter ^ last, last & -last).bit_length() - 1
                start = bytes(table[16 * slot : 16 * slot + 16])
            key, run = fold_chain(start, msg.ksn, slot)
            try:
                clear_pin, clear_data = _open(key, msg)
            except DecryptFailed:
                _wipe(run)
                return HostVerdict(VerdictStatus.DECRYPT_FAILED, counter)
            self._device_log[device] = counter
            table[: len(run)] = run
            _wipe(run)
            self._tables[device] = table
            self._tables.move_to_end(device)
            while len(self._tables) > TABLE_CACHE_DEVICES:
                _wipe(self._tables.popitem(last=False)[1])
            return HostVerdict(_ACCEPTED, counter, clear_pin, clear_data)

    def handle_wire_line(self, line: str) -> str:
        """Process one transport line and produce the reply line."""
        try:
            msg = parse_wire(line)
        except WireFormatError:
            return "ERR|MalformedMessage"
        if msg.scheme is not _DUKPT:
            return "ERR|UnsupportedScheme"
        verdict = self.process_message(msg)
        return format_reply(verdict)


def _open(key: bytes, msg: TransactionMessage) -> tuple[bytes | None, bytes | None]:
    """:func:`~dukptlab.key_hierarchy.unseal` under ``key``, then the PIN block's
    structure check."""
    clear_pin, clear_data = unseal(key, msg.encrypted_pin_block, msg.encrypted_data)
    if clear_pin is not None and not structure_ok(clear_pin):
        raise DecryptFailed("PIN block fails the format-0 structure check")
    return clear_pin, clear_data


def _wipe(buffer: bytearray) -> None:
    buffer[:] = bytes(len(buffer))


def format_reply(verdict: HostVerdict) -> str:
    """Reply line: ``OK|<counter-decimal>`` or ``ERR|<status-name>``."""
    if verdict.accepted:
        return f"OK|{verdict.derived_counter}"
    return f"ERR|{verdict.status.value}"
