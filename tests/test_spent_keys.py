"""Spent-key reachability: after mixed traffic through terminals and one host, no
transaction key that a device has issued, nor either of its variants, is reachable.

A key is spent once its device has issued its counter. Every device the host
serves ends with its last line accepted, so the host's floor is the device's
counter and the host has spent the same keys. The traffic:

* in-order and gapped lines from three devices over a cache of two tables, so
  tables are evicted;
* one refused line per status (replay, overweight counter, unknown key set,
  failed decrypt), an unsupported-scheme line and every malformed template;
* a BDK replacement, then the device re-injected under the new BDK;
* a device run to exhaustion from a state near the end of its life.

The oracle derives every spent key with ``derive_key_chain``, and its PIN and
data variants. After ``gc.collect()`` it looks for each of them at every offset
of every bytes or bytearray object that ``gc.get_objects()`` holds or refers to,
in every 128-bit int among those, and in the host's and the terminals' tables.

What the scan cannot see: bytes held only by C objects (the cipher library's
contexts, heap memory freed but not overwritten) and the locals of live frames,
which are not gc objects. This test keeps no key in its own frame.
"""

import gc
import random

import pytest

from dukptlab import host
from dukptlab.errors import CounterExhausted
from dukptlab.host import HostRegistry
from dukptlab.key_hierarchy import (
    Ksn, TdeaKey, derive_ipek, derive_key_chain, next_counter, variant_data_key,
    variant_pin_key,
)
from dukptlab.pin_block import encode_iso0
from dukptlab.terminal import init_terminal
from dukptlab.wire import Scheme, TransactionMessage, encode_wire

from conftest import INTEROP_PAN, MALFORMED_TEMPLATES, malformed_line, table_counters

KEY_SET, UNKNOWN_KEY_SET = 0x6B6B6B, 0x2D2D2D
BDK, NEW_BDK, UNKNOWN_BDK = (TdeaKey.from_bytes(random.Random(0x5BE17 + n).randbytes(16))
                             for n in range(3))
NEAR_THE_END = 0x1FE000  # 91 usable counters above it


def _ksn(key_set, index):
    return Ksn(((key_set << 56) | (index << 21)).to_bytes(10, "big"))


def _terminal_at(bdk, base, counter):
    """A device that has issued ``counter``, its table built from reference keys."""
    ipek, slots = derive_ipek(bdk, base), table_counters(counter)
    terminal = init_terminal(ipek, base)
    terminal.table[:] = b"".join(
        derive_key_chain(ipek, base.with_counter(slots[q])).material if q in slots
        else bytes(16) for q in range(21))
    terminal._counter = counter
    return terminal


def _line(terminal, rng):
    return encode_wire(terminal.build_message(
        encode_iso0(str(rng.randrange(10**4, 10**6)), INTEROP_PAN),
        rng.randbytes(rng.randint(1, 24))))


def _drive(registry, rng):
    """Send the traffic; return the replies and each device as (BDK, terminal, first
    counter it held)."""
    replies = []

    def send(line):
        replies.append(registry.handle_wire_line(line))

    devices = [_ksn(KEY_SET, i) for i in range(4)]
    terminals = [init_terminal(derive_ipek(BDK, ksn), ksn) for ksn in devices[:3]]
    for _ in range(120):
        terminal = rng.choices(terminals, weights=[4, 4, 1])[0]
        for _ in range(rng.choice([0, 0, 0, 1, 6])):
            terminal.issue()  # a line that never reaches the host
        send(_line(terminal, rng))
    first = terminals[0]
    line = _line(first, rng)
    send(line)
    send(line)
    tampered = first.build_message(None, b"refund")
    send(encode_wire(TransactionMessage(tampered.ksn, None, bytes(16))))
    send(encode_wire(TransactionMessage(first.ksn.with_counter(0x7FF), bytes(8))))
    unknown = init_terminal(derive_ipek(UNKNOWN_BDK, _ksn(UNKNOWN_KEY_SET, 0)),
                            _ksn(UNKNOWN_KEY_SET, 0))
    send(_line(unknown, rng))
    send(encode_wire(TransactionMessage(first.ksn, None, bytes(16), Scheme.FIXED)))
    for template in MALFORMED_TEMPLATES:
        send(malformed_line(template, first.ksn.hex, bytes(8).hex()))
    send(_line(first, rng))  # moves the floor past the tampered line
    registry.register_bdk(KEY_SET, NEW_BDK, overwrite=True)
    rekeyed = init_terminal(derive_ipek(NEW_BDK, devices[1]), devices[1])
    while rekeyed.counter < terminals[1].counter + 5:
        send(_line(rekeyed, rng))  # replays until it passes the old floor
    last = _terminal_at(NEW_BDK, devices[3], NEAR_THE_END)
    try:
        while True:
            send(_line(last, rng))
    except CounterExhausted:
        pass
    return replies, [(BDK, terminals[0], 0), (BDK, terminals[1], 0), (BDK, terminals[2], 0),
                     (UNKNOWN_BDK, unknown, 0), (NEW_BDK, rekeyed, 0),
                     (NEW_BDK, last, NEAR_THE_END)]


def _spent(devices):
    """Every key each device has issued, and both its variants."""
    spent = set()
    for bdk, terminal, first in devices:
        ipek = derive_ipek(bdk, terminal.base_ksn)
        counter = first or next_counter(0)
        while True:
            key = derive_key_chain(ipek, terminal.base_ksn.with_counter(counter))
            spent |= {key.material, variant_pin_key(key).material,
                      variant_data_key(key).material}
            if counter == terminal.counter:
                break
            counter = next_counter(counter)
    return spent


def _reachable(spent, tables):
    """(holder's type, key) for each spent key found in a gc object, its referents
    or the given tables."""
    gc.collect()
    objects = gc.get_objects()
    found, seen = [], set()
    for obj in objects:
        if obj is spent:
            continue
        for item in (obj, *gc.get_referents(obj)):
            if id(item) in seen:
                continue
            seen.add(id(item))
            if type(item) is int and 1 << 64 <= item < 1 << 128:
                blob = item.to_bytes(16, "big")
            elif isinstance(item, (bytes, bytearray)):
                blob = bytes(item)
            else:
                continue
            found += [(type(obj).__name__, blob[i : i + 16]) for i in range(len(blob) - 15)
                      if blob[i : i + 16] in spent]
    found += [("table", bytes(t[i : i + 16])) for t in tables for i in range(len(t) - 15)
              if bytes(t[i : i + 16]) in spent]
    return found


def test_no_spent_key_is_reachable(monkeypatch):
    monkeypatch.setattr(host, "TABLE_CACHE_DEVICES", 2)
    registry = HostRegistry()
    registry.register_bdk(KEY_SET, BDK)
    replies, devices = _drive(registry, random.Random(9))
    statuses = {reply.split("|")[1] for reply in replies if reply.startswith("ERR|")}
    assert statuses == {"ReplayRejected", "OverweightCounterRejected", "UnknownKeySet",
                        "DecryptFailed", "UnsupportedScheme", "MalformedMessage"}
    # each served device's last terminal (the re-injected one replaces its first)
    served = {t.base_ksn.initial_id: t for bdk, t, _ in devices if bdk is not UNKNOWN_BDK}
    assert all(registry.last_accepted_counter(d) == t.counter for d, t in served.items())
    assert devices[-1][1].remaining_transactions() == 0
    with pytest.raises(CounterExhausted):
        devices[-1][1].issue()
    spent = _spent(devices)
    tables = [*registry._tables.values(), *(terminal.table for _, terminal, _ in devices)]
    assert _reachable(spent, tables) == []
