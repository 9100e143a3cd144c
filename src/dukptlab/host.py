"""Acquirer-side processing: key registry, re-derivation, and policy.

The registry is a software stand-in for the HSM that would normally hold
base derivation keys: a BDK goes in through :meth:`HostRegistry.register_bdk`,
which loads it once (:func:`~dukptlab.key_hierarchy.load_bdk`), and never
comes out through any reply, verdict, or log. :meth:`~HostRegistry.handle_wire_line`
reads the KSN's 10 bytes from :func:`~dukptlab.wire.parse_fields` once as an int and
hands it, with the payloads, to the one policy path, which checks key set,
counter weight and floor, folds to the 16-byte key, opens the payload with
:func:`~dukptlab.key_hierarchy.unseal` (a PIN block also with
:func:`~dukptlab.pin_block.structure_ok`) and commits only on an accept; it
builds no message, verdict, ``Ksn`` or key object, and opens the PIN block and only
the data's last two blocks. The reply is ``OK|<counter>`` or a fixed ``ERR|`` string,
read back by :func:`reply_status`. :meth:`~HostRegistry.process_message` opens
everything and returns a :class:`HostVerdict`; role checks sit at the public entry points.

The fold does not always start from the device's initial key. For each of
up to :data:`TABLE_CACHE_DEVICES` recently accepted devices the registry
keeps, byte for byte, the device's own future-key table after it issued the
last accepted counter ``L`` (the rule is stated at
:func:`~dukptlab.key_hierarchy.fold_chain`). A later counter is reached by the
device's own step, :func:`~dukptlab.key_hierarchy.advance` from ``L``, so the
host derives where the device does; a new or evicted device folds from its IPEK,
as the device did when it was made. Each line walks its own buffer: a refusal
wipes it, and an accept keeps it as the device's table, wiping the one it replaces.
A table holds later counters' keys only, never a spent key or an IPEK or BDK
copy, and is zero-overwritten when the device is evicted (least recently
accepted first) or its BDK is replaced.

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

from .errors import DecryptFailed, DuplicateKeySet, UnknownKeySet, WireFormatError
from .key_hierarchy import (
    COUNTER_BITS, COUNTER_MASK, DEVICE_ID_BITS, KEY_SET_ID_BITS, MAX_COUNTER_WEIGHT,
    TABLE_BYTES, KeyRole, Ksn, LoadedBdk, TdeaKey, advance, derive_key_chain, fold_chain,
    ipek_material, load_bdk, unseal,
)
from .pin_block import structure_ok
from .tdes import PADDING_BLOCKS
from .wire import Scheme, TransactionMessage, parse_fields

# devices whose key table is kept; host_scattered's 682 fit
TABLE_CACHE_DEVICES = 1024


class VerdictStatus(Enum):
    ACCEPTED = "Accepted"
    REPLAY_REJECTED = "ReplayRejected"
    OVERWEIGHT_COUNTER_REJECTED = "OverweightCounterRejected"
    UNKNOWN_KEY_SET = "UnknownKeySet"
    DECRYPT_FAILED = "DecryptFailed"

    # members compare by identity, so hash by identity too: Enum.__hash__ is a Python call
    __hash__ = object.__hash__


_DUKPT, _ACCEPTED = Scheme.DUKPT, VerdictStatus.ACCEPTED  # read per line; quicker than a member
_ERR_REPLIES = {s: f"ERR|{s.value}" for s in VerdictStatus if s is not _ACCEPTED}
_REPLY_STATUSES = {reply: s for s, reply in _ERR_REPLIES.items()}


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

    One lock guards all three, held by the policy path from the BDK lookup to
    the commit, so a device's counter check, decrypt, log update and table
    update are atomic and no BDK replacement or eviction touches a table while
    a message is open; the interpreter's global lock serializes the work
    anyway, and the loaded BDKs' kept cipher contexts are used only under it.
    A device's table is its own after it issued its logged counter ``L``; each line at
    ``c`` walks its own copy from ``L`` to ``c``, which becomes the table only on an
    accept, so no other verdict makes a table or changes its bytes or eviction place.
    """

    def __init__(self) -> None:
        self._bdks: dict[int, LoadedBdk] = {}
        self._device_log: dict[int, int] = {}
        self._lock = threading.Lock()
        # device -> its key table at the logged counter, made on its first accept; LRU order
        self._tables: OrderedDict[int, bytearray] = OrderedDict()

    def register_bdk(self, key_set_id: int, bdk: TdeaKey, overwrite: bool = False) -> None:
        """Install the base derivation key serving one key-set identifier.

        Replacing a BDK (``overwrite=True``) wipes its devices' tables but
        keeps their replay floors, since a reset would reopen counters already
        accepted: a device re-injected with the same initial KSN is accepted
        only above its old floor. The old BDK's loaded contexts are dropped.
        """
        if not 0 <= key_set_id < (1 << KEY_SET_ID_BITS):
            raise ValueError(f"key-set id out of 24-bit range: {key_set_id:#x}")
        loaded = load_bdk(bdk)
        with self._lock:
            if key_set_id in self._bdks and not overwrite:
                raise DuplicateKeySet(f"key set {key_set_id:06X} already registered")
            self._bdks[key_set_id] = loaded
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
            ipek = TdeaKey(ipek_material(bdk, ksn.value), KeyRole.INITIAL)
        return derive_key_chain(ipek, ksn)

    def process_message(self, msg: TransactionMessage) -> HostVerdict:
        """Authenticate-by-derivation: re-derive, decrypt, enforce policy."""
        if msg.scheme is not _DUKPT:
            raise ValueError(f"host engine processes DUKPT messages, got {msg.scheme.value}")
        return HostVerdict(*self._process(msg.ksn.value, msg.encrypted_pin_block,
                                          msg.encrypted_data))

    def _process(self, value: int, pin_ct: bytes | None,
                 data_ct: bytes | None) -> tuple[VerdictStatus, int, bytes | None, bytes | None]:
        """The one policy path: a verdict's fields for a DUKPT message's parts, the KSN
        ``value`` an int (:attr:`~dukptlab.key_hierarchy.Ksn.value`)."""
        counter = value & COUNTER_MASK
        device = value >> COUNTER_BITS
        with self._lock:
            bdk = self._bdks.get(device >> DEVICE_ID_BITS)
            if bdk is None:
                return VerdictStatus.UNKNOWN_KEY_SET, counter, None, None
            if counter.bit_count() > MAX_COUNTER_WEIGHT:
                return VerdictStatus.OVERWEIGHT_COUNTER_REJECTED, counter, None, None
            # counter 0 names the initial key, never a transaction: it fails too
            last = self._device_log.get(device, 0)
            if counter <= last:
                return VerdictStatus.REPLAY_REJECTED, counter, None, None
            table = self._tables.get(device)
            if table is None:
                walk = bytearray(TABLE_BYTES)
                key = fold_chain(ipek_material(bdk, value), value, COUNTER_BITS, walk)
            else:
                walk = bytearray(table)
                key = advance(walk, value, last)
            try:
                clear_pin, clear_data = _open(key, pin_ct, data_ct)
            except DecryptFailed:
                _wipe(walk)
                return VerdictStatus.DECRYPT_FAILED, counter, None, None
            self._device_log[device] = counter
            if table is not None:
                _wipe(table)
            self._tables[device] = walk
            self._tables.move_to_end(device)
            while len(self._tables) > TABLE_CACHE_DEVICES:
                _wipe(self._tables.popitem(last=False)[1])
            return _ACCEPTED, counter, clear_pin, clear_data

    def handle_wire_line(self, line: str) -> str:
        """One transport line's reply; opens its PIN block and its data's last two blocks."""
        try:
            ksn_raw, pin_ct, data_ct, scheme, _ = parse_fields(line)
        except WireFormatError:
            return "ERR|MalformedMessage"
        if scheme is not _DUKPT:
            return "ERR|UnsupportedScheme"
        # parse_fields has checked the whole ciphertext's length
        tail = data_ct and data_ct[PADDING_BLOCKS]
        status, counter, _, _ = self._process(int.from_bytes(ksn_raw, "big"), pin_ct, tail)
        return f"OK|{counter}" if status is _ACCEPTED else _ERR_REPLIES[status]


def _open(key: bytes, pin: bytes | None, data: bytes | None) -> tuple[bytes | None, bytes | None]:
    """:func:`~dukptlab.key_hierarchy.unseal` under ``key``, then the PIN block's
    structure check."""
    clear_pin, clear_data = unseal(key, pin, data)
    if clear_pin is not None and not structure_ok(clear_pin):
        raise DecryptFailed("PIN block fails the format-0 structure check")
    return clear_pin, clear_data


def _wipe(buffer: bytearray) -> None:
    buffer[:] = bytes(len(buffer))


def format_reply(verdict: HostVerdict) -> str:
    """Reply line: ``OK|<counter-decimal>`` or ``ERR|<status-name>``."""
    return f"OK|{verdict.derived_counter}" if verdict.accepted else _ERR_REPLIES[verdict.status]


def reply_status(reply: str) -> VerdictStatus:
    """The status a verdict's reply line names; any other line raises ``ValueError``."""
    if reply[:3] == "OK|" and reply[3:].isascii() and reply[3:].isdigit():
        return _ACCEPTED
    if reply in _REPLY_STATUSES:
        return _REPLY_STATUSES[reply]
    raise ValueError(f"not a verdict reply: {reply!r}")
