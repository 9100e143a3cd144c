"""Acquirer-side processing: key registry, re-derivation, and policy.

The registry is a software stand-in for the HSM that would normally hold
base derivation keys: BDKs go in through :meth:`HostRegistry.register_bdk`
and never come out through any reply, verdict, or log. For each incoming
message the host folds the derivation chain to the transaction key and
decrypts — the same route the terminal took, which is the whole point of
the scheme.

The fold does not always start from the device's initial key. For each of
up to :data:`TABLE_CACHE_DEVICES` recently accepted devices the registry
keeps a lazy mirror of the device's own future-key table in one
:data:`TABLE_BYTES` buffer: slot :data:`KEY_SLOT` holds the key of the last
accepted counter ``L``, and slot ``q``, for each zero bit ``q`` of ``L``
above its lowest set bit, the key of counter ``(L >> q+1 << q+1) | 1 << q``
(at most 21 keys). Slots 0-20 share the layout of the terminal's table, so
above ``L``'s lowest set bit the two hold the same bytes. A later counter
starts from ``key(L)`` when it extends ``L``, else from the slot of the
highest bit where the two differ, and each step of its fold also derives
the step's right siblings into the table, one batch per step as in the
terminal's refill. In-order traffic then derives on odd counters only; a
device's first message and an evicted device start from the BDK. Only an
accepted message changes the table, and every slot it does not use is zero.

The trade-off: the table holds what the device itself holds, keys that
open this device's *later* counters and never earlier ones, until the
device is evicted (least recently accepted first) or its BDK is replaced,
and is zero-overwritten then. It holds no IPEK or BDK copy, and the BDK
the registry already holds opens every one of these keys anyway.

Two policies guard the counter, and neither can be turned off: KSNs whose
counter exceeds the weight bound are rejected outright, and each device's
accepted counters must be strictly increasing (replay and reordering both
surface as ``ReplayRejected``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum

from .errors import (
    DecryptFailed,
    DuplicateKeySet,
    KeyRoleError,
    UnknownKeySet,
    WireFormatError,
)
from .key_hierarchy import (
    COUNTER_BITS,
    KeyRole,
    Ksn,
    MAX_COUNTER_WEIGHT,
    TdeaKey,
    derive_ipek,
    derive_key_chain,
    fold_chain,
)
from .pin_block import structure_ok
from .terminal import decrypt_data, decrypt_pin
from .wire import Scheme, TransactionMessage, parse_wire

KEY_SET_ID_BITS = 24
# the device part of the 59-bit initial-KSN identifier, below the key-set id
DEVICE_ID_BITS = 80 - COUNTER_BITS - KEY_SET_ID_BITS
# devices whose key table is kept; host_scattered's 682 fit
TABLE_CACHE_DEVICES = 1024
# a table's slot of the last accepted counter's key, after one slot per counter bit
KEY_SLOT = COUNTER_BITS
TABLE_BYTES = 16 * (KEY_SLOT + 1)


class VerdictStatus(Enum):
    ACCEPTED = "Accepted"
    REPLAY_REJECTED = "ReplayRejected"
    OVERWEIGHT_COUNTER_REJECTED = "OverweightCounterRejected"
    UNKNOWN_KEY_SET = "UnknownKeySet"
    DECRYPT_FAILED = "DecryptFailed"


@dataclass(frozen=True)
class HostVerdict:
    """Outcome of processing one message; clear fields only when accepted."""

    status: VerdictStatus
    derived_counter: int
    clear_pin_block: bytes | None = field(default=None, repr=False)
    clear_data: bytes | None = field(default=None, repr=False)

    @property
    def accepted(self) -> bool:
        return self.status is VerdictStatus.ACCEPTED


class HostRegistry:
    """BDK store, per-device replay log and per-device key tables.

    One lock guards all three. :meth:`process_message` holds it from the BDK
    lookup to the commit, so a device's counter check, its decrypt, its log
    update and its table update are atomic, and no BDK replacement or
    eviction can touch a table while a message is open. Messages therefore
    run one at a time; the interpreter's global lock serializes the host's
    work anyway. The walk derives into a scratch buffer that is copied into
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
        """Install the base derivation key serving one key-set identifier."""
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
        if msg.scheme is not Scheme.DUKPT:
            raise ValueError(f"host engine processes DUKPT messages, got {msg.scheme.value}")
        counter = msg.ksn.counter
        device = msg.ksn.initial_id
        with self._lock:
            bdk = self._bdks.get(msg.ksn.key_set_id)
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
                prefix, start = 0, derive_ipek(bdk, msg.ksn).material
            else:
                prefix, slot = _walk_start(last, counter)
                start = bytes(table[16 * slot : 16 * slot + 16])
            # the walk rewrites every slot at and below its start's lowest set bit
            fresh = bytearray(16 * ((prefix & -prefix).bit_length() or COUNTER_BITS))
            key = TdeaKey(fold_chain(start, msg.ksn, prefix, fresh), KeyRole.TRANSACTION)
            try:
                clear_pin, clear_data = _open(key, msg)
            except DecryptFailed:
                _wipe(fresh)
                return HostVerdict(VerdictStatus.DECRYPT_FAILED, counter)
            self._device_log[device] = counter
            table[: len(fresh)] = fresh
            table[16 * KEY_SLOT :] = key.material
            _wipe(fresh)
            self._tables[device] = table
            self._tables.move_to_end(device)
            while len(self._tables) > TABLE_CACHE_DEVICES:
                _wipe(self._tables.popitem(last=False)[1])
            return HostVerdict(VerdictStatus.ACCEPTED, counter, clear_pin, clear_data)

    def handle_wire_line(self, line: str) -> str:
        """Process one transport line and produce the reply line."""
        try:
            msg = parse_wire(line)
        except WireFormatError:
            return "ERR|MalformedMessage"
        if msg.scheme is not Scheme.DUKPT:
            return "ERR|UnsupportedScheme"
        verdict = self.process_message(msg)
        return format_reply(verdict)


def _open(key: TdeaKey, msg: TransactionMessage) -> tuple[bytes | None, bytes | None]:
    """Clear PIN block and data; :class:`DecryptFailed` when either fails its check."""
    clear_pin = None
    if msg.encrypted_pin_block is not None:
        clear_pin = decrypt_pin(key, msg.encrypted_pin_block)
        if not structure_ok(clear_pin):
            raise DecryptFailed("PIN block fails the format-0 structure check")
    clear_data = None
    if msg.encrypted_data is not None:
        clear_data = decrypt_data(key, msg.encrypted_data)
    return clear_pin, clear_data


def _walk_start(last: int, counter: int) -> tuple[int, int]:
    """The prefix and table slot that the fold to ``counter`` starts from.

    ``last`` is the device's last accepted counter, the one its table was
    derived at; ``counter`` is above it.
    """
    diff = counter ^ last
    if diff < last & -last:  # counter extends last
        return last, KEY_SLOT
    high = diff.bit_length() - 1
    return counter >> high << high, high


def _wipe(buffer: bytearray) -> None:
    buffer[:] = bytes(len(buffer))


def format_reply(verdict: HostVerdict) -> str:
    """Reply line: ``OK|<counter-decimal>`` or ``ERR|<status-name>``."""
    if verdict.accepted:
        return f"OK|{verdict.derived_counter}"
    return f"ERR|{verdict.status.value}"
