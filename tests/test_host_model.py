"""Model-based host test: one HostRegistry against a naive reference host.

The reference keeps a dict floor per device and derives every key from the
BDK with ``derive_key_chain(derive_ipek(bdk, ksn), ksn)``; it opens a line
with the public ``decrypt_pin``, ``structure_ok`` and ``decrypt_data``, and
it models the table cache as a list of devices in eviction order. The
machine drives both with honest in-order and gapped lines from five
terminals over two key sets, held-back and replayed lines, forged
ciphertext, overweight, counter-0 and unknown-key-set lines, near-misses of
sent lines on the wire, and BDK replacement mid-stream, over a cache of
three tables. After every step:

* each verdict, its clear fields and its reply equal the reference's;
* each device's floor equals the reference's, which moves only on an accept;
* the cached devices, in eviction order, are the reference's, and each
  table holds the reference keys at its occupied slots and zeros elsewhere;
* every table buffer the registry let go of is all zero;
* no key appears, in hex or as escaped bytes, in any reply or repr.

A near-miss is a sent line with 1-4 characters substituted, inserted or
deleted, what a bad link or an attacker makes of it. Whatever the host
replies to one must be ``OK|<counter>`` or a fixed ``ERR|`` name, and a
reply other than ``OK`` must leave every floor, every table's bytes and the
eviction order as they were; a seeded bulk test sends 20,000 of them.

40 examples of up to 40 steps each, the count under hypothesis's default
profile, run in about 2 s (2 vCPUs, Python 3.11); the "deep" profile runs 800.
"""

import functools
import random
import re

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    multiple,
    rule,
    run_state_machine_as_test,
)

from dukptlab import host
from dukptlab.errors import DecryptFailed, WireFormatError
from dukptlab.host import HostRegistry, VerdictStatus, format_reply
from dukptlab.key_hierarchy import (
    MAX_COUNTER_WEIGHT,
    Ksn,
    TdeaKey,
    derive_ipek,
    derive_key_chain,
    next_counter,
)
from dukptlab.pin_block import encode_iso0, structure_ok
from dukptlab.terminal import decrypt_data, decrypt_pin, encrypt_data, encrypt_pin, init_terminal
from dukptlab.wire import Scheme, TransactionMessage, encode_wire, parse_wire

from conftest import INTEROP_PAN, edited, leaked, table_counters

CACHE_DEVICES = 3
KEY_SETS = {0x5A5A5A: 3, 0xC3C3C3: 2}  # registered key-set id -> its devices
UNKNOWN_KEY_SET = 0x0F0F0F
# two BDKs per key set; the registry serves the set with one of them at a time
BDKS = {
    key_set: [TdeaKey.from_bytes(random.Random(key_set + n).randbytes(16)) for n in range(2)]
    for key_set in KEY_SETS
}
DEVICES, UNKNOWN_DEVICES = (
    [Ksn(((key_set << 56) | (index << 21)).to_bytes(10, "big"))
     for key_set, count in sets.items() for index in range(count)]
    for sets in (KEY_SETS, {UNKNOWN_KEY_SET: 2})
)
LAST_USABLE = 0x1FF800  # the highest counter of weight at most 10

devices = st.sampled_from(DEVICES)
# most steps advance by one usable counter; the rest jump by a power of two
gaps = st.one_of(st.just(1), st.integers(0, 20).map(lambda k: 1 << k))
payload_kinds = st.sampled_from(["pin", "data", "both"])
pins = st.text("0123456789", min_size=4, max_size=12)
noise = st.binary(min_size=32, max_size=32)

# what a near-miss edits a line with: hex digits in either case, the field
# separator, the absent-payload dash, the scheme tags, whitespace, NUL and one
# non-ASCII digit (ARABIC-INDIC THREE, which str.isalnum() passes)
MUTATION_TOKENS = [*"0123456789ABCDEFabcdef", "|", "-", "DUKPT1", "DUKPT", "FIXED", "MS",
                   " ", "\t", "\n", "\x00", "\u0663"]
EDITS = ["substitute", "substitute", "insert", "delete"]  # a substitution keeps more lines parsing
edit_lists = st.lists(st.tuples(st.sampled_from(EDITS), st.integers(0, 1 << 16),
                                st.sampled_from(MUTATION_TOKENS)), min_size=1, max_size=4)
# every reply a host may give to any line
REPLY = re.compile(r"OK\|[1-9][0-9]*|ERR\|(MalformedMessage|UnsupportedScheme|ReplayRejected"
                   r"|OverweightCounterRejected|UnknownKeySet|DecryptFailed)")


@functools.lru_cache(maxsize=None)
def _ipek(bdk: TdeaKey, base: Ksn) -> TdeaKey:
    return derive_ipek(bdk, base)


@functools.lru_cache(maxsize=None)
def _reference_key(bdk: TdeaKey, ksn: Ksn) -> TdeaKey:
    return derive_key_chain(_ipek(bdk, ksn.base), ksn)


def _random_edits(rng):
    return [(rng.choice(EDITS), rng.randrange(1 << 16), rng.choice(MUTATION_TOKENS))
            for _ in range(rng.randint(1, 4))]


def _snapshot(registry):
    """Every floor, and each table's bytes in eviction order."""
    return dict(registry._device_log), [(d, bytes(t)) for d, t in registry._tables.items()]


def _reply(status, msg):
    return f"OK|{msg.ksn.counter}" if status is VerdictStatus.ACCEPTED else f"ERR|{status.value}"


def _send_near_miss(registry, line):
    """Send ``line``; check the reply's shape, and that a refusal changed nothing."""
    before = _snapshot(registry)
    reply = registry.handle_wire_line(line)  # no exception may escape
    assert REPLY.fullmatch(reply), (line, reply)
    if not reply.startswith("OK|"):
        assert _snapshot(registry) == before, (line, reply)
    return reply


def _forged(ksn, kind, raw):
    """A line of noise: an 8-byte PIN block and two blocks of data, or either."""
    return TransactionMessage(ksn, raw[:8] if kind != "data" else None,
                              raw[8:24] if kind != "pin" else None)


class HostModel(RuleBasedStateMachine):
    lines = Bundle("lines")

    def __init__(self):
        super().__init__()
        self.registry = HostRegistry()
        self.bdks = {key_set: choices[0] for key_set, choices in BDKS.items()}
        for key_set, bdk in self.bdks.items():
            self.registry.register_bdk(key_set, bdk)
        self.floors = {ksn.initial_id: 0 for ksn in DEVICES + UNKNOWN_DEVICES}
        self.sent = dict(self.floors)  # each terminal's last counter
        self.cached: list[int] = []  # devices with a table, least recently accepted first
        self.held: list[bytearray] = []
        self.secrets = {bdk.material for choices in BDKS.values() for bdk in choices}
        self.texts: list[str] = []  # replies and reprs of this step

    # --- the reference host -------------------------------------------------------

    def _key(self, ksn):
        bdk = self.bdks[ksn.key_set_id]
        key = _reference_key(bdk, ksn)
        self.secrets |= {key.material, _ipek(bdk, ksn.base).material}
        return key

    def _reference(self, msg):
        ksn = msg.ksn
        if ksn.key_set_id not in self.bdks:
            return VerdictStatus.UNKNOWN_KEY_SET, (None, None)
        if ksn.counter.bit_count() > MAX_COUNTER_WEIGHT:
            return VerdictStatus.OVERWEIGHT_COUNTER_REJECTED, (None, None)
        # a near-miss may name a device of a registered key set that never sent
        if ksn.counter <= self.floors.get(ksn.initial_id, 0):
            return VerdictStatus.REPLAY_REJECTED, (None, None)
        key = self._key(ksn)
        clear_pin = clear_data = None
        try:
            if msg.encrypted_pin_block is not None:
                clear_pin = decrypt_pin(key, msg.encrypted_pin_block)
                if not structure_ok(clear_pin):
                    raise DecryptFailed("PIN block structure")
            if msg.encrypted_data is not None:
                clear_data = decrypt_data(key, msg.encrypted_data)
        except DecryptFailed:
            return VerdictStatus.DECRYPT_FAILED, (None, None)
        self.floors[ksn.initial_id] = ksn.counter
        if ksn.initial_id in self.cached:
            self.cached.remove(ksn.initial_id)
        self.cached.append(ksn.initial_id)
        del self.cached[:-CACHE_DEVICES]
        return VerdictStatus.ACCEPTED, (clear_pin, clear_data)

    def _reference_table(self, device):
        base = Ksn((device << 21).to_bytes(10, "big"))
        slots = table_counters(self.floors[device])
        return b"".join(self._key(base.with_counter(slots[q])).material if q in slots
                        else bytes(16) for q in range(21))

    def _deliver(self, msg, via_wire):
        status, clear = self._reference(msg)
        if via_wire:
            reply = self.registry.handle_wire_line(encode_wire(msg))
        else:
            verdict = self.registry.process_message(msg)
            assert (verdict.status, verdict.derived_counter) == (status, msg.ksn.counter)
            assert (verdict.clear_pin_block, verdict.clear_data) == clear
            reply = format_reply(verdict)
            self.texts.append(repr(verdict))
        assert reply == _reply(status, msg)
        self.texts += [reply, repr(self.registry)]

    # --- traffic ------------------------------------------------------------------

    @rule(target=lines, base=devices, kind=payload_kinds, pin=pins,
          data=st.binary(min_size=1, max_size=24), via_wire=st.booleans(),
          steps=st.lists(st.tuples(gaps, st.sampled_from([True, True, True, False])),
                         min_size=1, max_size=4))
    def honest(self, base, kind, pin, data, via_wire, steps):
        """The terminal's next lines, each ``gap`` counters on; some are held back."""
        msgs = []
        for gap, deliver in steps:
            counter = next_counter(min(self.sent[base.initial_id] + gap - 1, LAST_USABLE - 1))
            self.sent[base.initial_id] = max(self.sent[base.initial_id], counter)
            key = self._key(base.with_counter(counter))
            msgs.append(TransactionMessage(
                base.with_counter(counter),
                encrypt_pin(key, encode_iso0(pin, INTEROP_PAN)) if kind != "data" else None,
                encrypt_data(key, data) if kind != "pin" else None,
            ))
            if deliver:
                self._deliver(msgs[-1], via_wire)
        return multiple(*msgs)

    @rule(msg=lines, via_wire=st.booleans())
    def resend(self, msg, via_wire):
        """A held-back line arrives late, or a delivered one is replayed."""
        self._deliver(msg, via_wire)

    @rule(msg=lines, edits=edit_lists)
    def near_miss(self, msg, edits):
        """A sent line, altered on the way; the reference judges what it parses to."""
        line = edited(encode_wire(msg), edits)
        reply = _send_near_miss(self.registry, line)
        try:
            parsed = parse_wire(line)
        except WireFormatError:
            assert reply == "ERR|MalformedMessage"
        else:
            if parsed.scheme is Scheme.DUKPT:
                assert reply == _reply(self._reference(parsed)[0], parsed)
            else:
                assert reply == "ERR|UnsupportedScheme"
        self.texts += [reply, repr(self.registry)]

    @rule(base=devices, gap=gaps, kind=payload_kinds, raw=noise, via_wire=st.booleans())
    def forged(self, base, gap, kind, raw, via_wire):
        """Noise for ciphertext at a counter above the floor, or near it."""
        counter = next_counter(min(self.floors[base.initial_id] + gap - 1, LAST_USABLE - 1))
        self._deliver(_forged(base.with_counter(counter), kind, raw), via_wire)

    @rule(case=st.sampled_from(["overweight", "counter 0", "unknown key set"]),
          base=devices, unknown=st.sampled_from(UNKNOWN_DEVICES),
          counter=st.integers(1, LAST_USABLE), kind=payload_kinds, raw=noise)
    def refused_before_derivation(self, case, base, unknown, counter, kind, raw):
        if case == "overweight":
            ksn = base.with_counter(counter | (1 << MAX_COUNTER_WEIGHT + 1) - 1)
        else:
            ksn = base if case == "counter 0" else unknown.with_counter(counter)
        self._deliver(_forged(ksn, kind, raw), via_wire=False)

    @rule(key_set=st.sampled_from(sorted(KEY_SETS)), choice=st.integers(0, 1))
    def replace_bdk(self, key_set, choice):
        """Overwrite a key set's BDK, with the other one or with the same one."""
        self.registry.register_bdk(key_set, BDKS[key_set][choice], overwrite=True)
        self.bdks[key_set] = BDKS[key_set][choice]
        self.cached = [d for d in self.cached if d >> host.DEVICE_ID_BITS != key_set]
        self.texts.append(repr(self.registry))

    # --- after every step -----------------------------------------------------------

    @invariant()
    def matches_reference(self):
        registry = self.registry
        for device, floor in self.floors.items():
            assert registry.last_accepted_counter(device) == floor
        assert list(registry._tables) == self.cached
        for device, table in registry._tables.items():
            assert bytes(table) == self._reference_table(device)
        tables = list(registry._tables.values())
        for buffer in self.held:
            if not any(buffer is table for table in tables):
                assert not any(buffer), "a dropped table was not wiped"
        self.held = tables
        assert not leaked("\n".join(self.texts), self.secrets)
        self.texts.clear()


@pytest.mark.hypothesis  # so that the deep run, -m hypothesis, selects it
def test_host_matches_reference_model(monkeypatch):
    # two fifths of the active profile's examples: 40 by default, 800 under "deep"
    monkeypatch.setattr(host, "TABLE_CACHE_DEVICES", CACHE_DEVICES)
    run_state_machine_as_test(HostModel, settings=settings(
        max_examples=settings.default.max_examples * 2 // 5, stateful_step_count=40,
        deadline=None, suppress_health_check=[HealthCheck.too_slow]))


def test_refused_near_misses_of_sent_lines_change_nothing():
    # 200 lines from two terminals of two key sets, each sent amid 100
    # near-misses of itself: half before it (the derivation path), half after
    # (mostly the floor)
    rng = random.Random(20_000)
    registry = HostRegistry()
    for key_set, choices in BDKS.items():
        registry.register_bdk(key_set, choices[0])
    terminals = [init_terminal(derive_ipek(BDKS[base.key_set_id][0], base), base)
                 for base in (DEVICES[0], DEVICES[-1])]
    replies = set()
    for n in range(200):
        kind = ["pin", "data", "both"][n % 3]
        line = encode_wire(terminals[n % 2].build_message(
            encode_iso0("1234", INTEROP_PAN) if kind != "data" else None,
            rng.randbytes(rng.randint(1, 24)) if kind != "pin" else None))
        for m in range(100):
            if m == 50:
                _send_near_miss(registry, line)
            mutant = edited(line, _random_edits(rng))
            reply = _send_near_miss(registry, mutant)
            if reply.startswith("OK|"):
                assert reply == f"OK|{parse_wire(mutant).ksn.counter}"
            replies.add(reply)
    # the near-misses reach the parser, the key-set lookup, the floor and the decrypt
    assert {"ERR|MalformedMessage", "ERR|UnknownKeySet", "ERR|ReplayRejected",
            "ERR|DecryptFailed"} <= replies
