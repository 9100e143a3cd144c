"""The benchmark's workloads: set-up, the timed closed loop and its checks.

Every workload is a closed loop with one caller in one process: the next
operation starts when the previous one returns. Constructing a workload
object is its set-up. ``step`` runs one untraced operation; ``traced_step``
runs the same operation with a span around each public call and, where a
call cannot be split from outside, shadow spans that repeat its parts.
Both return ``(units, latency_ns, wrong_units, shadow_ns)``.

Inputs repeat in epochs: when a workload has sent all its generated
traffic it starts again on freshly provisioned state (a new
``HostRegistry`` or newly initialised terminals), so a faster program
gets more epochs, never different inputs.
"""

from __future__ import annotations

import random
from collections import Counter
from time import perf_counter_ns

from dukptlab import (
    BUILTIN_PROFILES,
    HostRegistry,
    Scheme,
    TransactionMessage,
    VerdictStatus,
    derive_ipek,
    derive_key_chain,
    encode_wire,
    init_terminal,
    parse_wire,
    run_simulation,
)
from dukptlab import tdes
from dukptlab.baseline import (
    FixedKeyTerminal,
    MasterSessionContext,
    fixed_decrypt,
    fixed_encrypt,
    ms_unwrap_session,
    ms_wrap_session,
)
from dukptlab.errors import DecryptFailed, WireFormatError
from dukptlab.host import format_reply
from dukptlab.pin_block import structure_ok
from dukptlab.terminal import decrypt_data, decrypt_pin, encrypt_data, encrypt_pin

from . import traffic as gen

MALFORMED = "ERR|MalformedMessage"
UNSUPPORTED = "ERR|UnsupportedScheme"


def host_shadow(tr, op, parent, bdk, msg) -> None:
    """Repeat the public calls ``process_message`` made for an admitted message."""
    ksn = msg.ksn
    ipek = tr.call("key_hierarchy.derive_ipek", op, parent, derive_ipek, bdk, ksn.base)
    key = tr.call("key_hierarchy.derive_key_chain", op, parent, derive_key_chain, ipek, ksn,
                  counter=ksn.counter)
    if msg.encrypted_pin_block is not None:
        clear = tr.call("terminal.decrypt_pin", op, parent, decrypt_pin, key,
                        msg.encrypted_pin_block)
        if not tr.call("pin_block.structure_ok", op, parent, structure_ok, clear):
            return
    if msg.encrypted_data is not None:
        try:
            tr.call("terminal.decrypt_data", op, parent, decrypt_data, key, msg.encrypted_data)
        except DecryptFailed:
            pass


_DERIVED = (VerdictStatus.ACCEPTED, VerdictStatus.DECRYPT_FAILED)


class HostLines:
    """Replays generated wire lines into ``HostRegistry.handle_wire_line``."""

    def __init__(self, traffic: gen.HostTraffic):
        self.traffic = traffic
        self.secrets = traffic.secrets
        self.registry = self._registry()
        self.i = 0

    def fingerprint(self):
        return (self.traffic.lines, self.traffic.expected)

    def _registry(self) -> HostRegistry:
        registry = HostRegistry()
        for key_set_id, bdk in self.traffic.bdks.items():
            registry.register_bdk(key_set_id, bdk)
        return registry

    def _next(self) -> int:
        if self.i == len(self.traffic.lines):
            self.i = 0
            self.registry = self._registry()
        self.i += 1
        return self.i - 1

    def _wrong(self, i: int, reply: str, verdict) -> bool:
        if reply != self.traffic.expected[i]:
            return True
        if verdict is not None and verdict.accepted:
            return (verdict.clear_pin_block, verdict.clear_data) != self.traffic.sent[i]
        return False

    def pre_check(self) -> tuple[int, Counter]:
        """One whole epoch on a fresh registry: lines sent, wrong lines by kind.

        Unlike the timed loop it sees each verdict, so it also checks that
        every accepted message gives back exactly the clear PIN block and
        data that were sent.
        """
        registry = self._registry()
        wrong: Counter = Counter()
        for i, line in enumerate(self.traffic.lines):
            verdict = None
            try:
                msg = parse_wire(line)
            except WireFormatError:
                reply = MALFORMED
            else:
                if msg.scheme is not Scheme.DUKPT:
                    reply = UNSUPPORTED
                else:
                    verdict = registry.process_message(msg)
                    reply = format_reply(verdict)
            if self._wrong(i, reply, verdict):
                wrong[self.traffic.kinds[i]] += 1
        return len(self.traffic.lines), wrong

    def post_check(self) -> int:
        return 0

    def step(self):
        i = self._next()
        start = perf_counter_ns()
        reply = self.registry.handle_wire_line(self.traffic.lines[i])
        end = perf_counter_ns()
        return 1, end - start, reply != self.traffic.expected[i], 0

    def traced_step(self, tr):
        i = self._next()
        root = tr.new_id()
        verdict = None
        start = perf_counter_ns()
        try:
            msg = tr.call("wire.parse_wire", root, root, parse_wire, self.traffic.lines[i])
        except WireFormatError:
            reply = MALFORMED
        else:
            if msg.scheme is not Scheme.DUKPT:
                reply = UNSUPPORTED
            else:
                verdict = tr.call("host.process_message", root, root,
                                  self.registry.process_message, msg)
                pm = tr.last
                tr.annotate(msg.ksn.counter, verdict.status.value)
                reply = tr.call("host.format_reply", root, root, format_reply, verdict)
        end = perf_counter_ns()
        tr.record(root, "bench.host_line", root, None, start, end,
                  tag=reply.partition("|")[2] if reply.startswith("ERR") else "OK")
        if verdict is None or verdict.status not in _DERIVED:
            return 1, end - start, self._wrong(i, reply, verdict), 0
        host_shadow(tr, root, pm, self.traffic.bdks[msg.ksn.key_set_id], msg)
        return 1, end - start, self._wrong(i, reply, verdict), perf_counter_ns() - end


class TerminalIssue:
    """Devices issue transactions from counter 0 to just past 2**14."""

    SAMPLE_EVERY = 64
    MAX_SAMPLES = 2000

    def __init__(self, plan: gen.TerminalPlan):
        self.plan = plan
        self.secrets = set(plan.secrets)
        self.ksn_hex = [
            [d.base_ksn.with_counter(c).hex for c in plan.counters] for d in plan.devices
        ]
        self._provision()
        self.i = 0
        self.samples: list[tuple[int, int, str]] = []

    def fingerprint(self):
        return (self.ksn_hex, self.plan.payloads)

    def _provision(self) -> None:
        self.terminals = [init_terminal(d.ipek, d.base_ksn) for d in self.plan.devices]

    def _next(self) -> tuple[int, int, int]:
        n = len(self.plan.devices)
        if self.i == n * len(self.plan.counters):
            self.i = 0
            self._provision()
        k = self.i
        self.i += 1
        return k % n, k // n, k % len(self.plan.payloads)

    def pre_check(self) -> tuple[int, Counter]:
        return 0, Counter()

    def _check(self, d: int, idx: int, p: int, line: str) -> bool:
        if idx % self.SAMPLE_EVERY == 0 and len(self.samples) < self.MAX_SAMPLES:
            self.samples.append((d, p, line))
        return line.split("|", 2)[1] != self.ksn_hex[d][idx]

    def post_check(self) -> int:
        """Decrypt the sampled messages under ``derive_key_chain``'s key."""
        wrong = 0
        for d, p, line in self.samples:
            msg = parse_wire(line)
            key = derive_key_chain(self.plan.devices[d].ipek, msg.ksn)
            self.secrets.add(key.hex)
            block, data = self.plan.payloads[p]
            wrong += (decrypt_pin(key, msg.encrypted_pin_block) != block
                      or decrypt_data(key, msg.encrypted_data) != data)
        return wrong

    def step(self):
        d, idx, p = self._next()
        block, data = self.plan.payloads[p]
        start = perf_counter_ns()
        line = encode_wire(self.terminals[d].build_message(block, data))
        end = perf_counter_ns()
        return 1, end - start, self._check(d, idx, p, line), 0

    def traced_step(self, tr):
        d, idx, p = self._next()
        block, data = self.plan.payloads[p]
        root = tr.new_id()
        start = perf_counter_ns()
        ksn, key = tr.call("terminal.next_transaction_key", root, root,
                           self.terminals[d].next_transaction_key)
        tr.annotate(ksn.counter)
        pin_ct = tr.call("terminal.encrypt_pin", root, root, encrypt_pin, key, block)
        data_ct = tr.call("terminal.encrypt_data", root, root, encrypt_data, key, data)
        line = tr.call("wire.encode_wire", root, root, encode_wire,
                       TransactionMessage(ksn, pin_ct, data_ct, Scheme.DUKPT))
        end = perf_counter_ns()
        tr.record(root, "bench.terminal_tx", root, None, start, end, counter=ksn.counter)
        return 1, end - start, self._check(d, idx, p, line), 0


class Simulation:
    """Repeated ``run_simulation`` calls for one scheme at one fixed seed.

    An operation is one call of ``count`` transactions; its latency is
    reported per transaction. The first call, made in set-up, is the
    reference every later report must match line for line.
    """

    # the default --count of ``dukptlab simulate``, so one operation is one
    # simulate command's worth of traffic, provisioning included
    COUNT = 100

    def __init__(self, seed: int, scheme: Scheme):
        rng = random.Random(f"simulate:{scheme.value}:{seed}")
        self.scheme = scheme
        self.count = self.COUNT
        self.profile = BUILTIN_PROFILES["pos"]
        self.sim_seed = rng.randrange(1 << 32)
        self.reference = run_simulation(scheme, self.profile, self.count, self.sim_seed)
        self.reference_line = self.reference.record_line()
        # inputs for the shadow calls, drawn from the same seed
        self.bdk = gen.new_bdk(rng)
        self.base_ksn = gen.make_ksn(rng.randrange(1, 1 << 24), rng.randrange(1 << 35))
        self.block, self.payload = gen.random_payload(rng)
        self.key = gen.new_bdk(rng)
        self.rng = rng
        self.secrets = {self.bdk.hex, self.key.hex}

    def fingerprint(self):
        return self.reference_line

    def _wrong(self, report) -> bool:
        distinct = 1 if self.scheme is Scheme.FIXED else self.count
        return (
            report.accepted != self.count
            or report.distinct_keys != distinct
            or report.ciphertext_reuse != (self.scheme is Scheme.FIXED)
            or report.record_line() != self.reference_line
        )

    def pre_check(self) -> tuple[int, Counter]:
        """The set-up call's report: transactions run, wrong ones."""
        return self.count, Counter(reference=self.count * self._wrong(self.reference))

    def post_check(self) -> int:
        return 0

    def step(self):
        start = perf_counter_ns()
        report = run_simulation(self.scheme, self.profile, self.count, self.sim_seed)
        end = perf_counter_ns()
        return self.count, end - start, self.count * self._wrong(report), 0

    def traced_step(self, tr):
        root = tr.new_id()
        start = perf_counter_ns()
        report = tr.call(f"scenarios.run_simulation.{self.scheme.value}", root, root,
                         run_simulation, self.scheme, self.profile, self.count, self.sim_seed)
        rs = tr.last
        end = perf_counter_ns()
        tr.record(root, "bench.simulation", root, None, start, end)
        {
            Scheme.DUKPT: self._shadow_dukpt,
            Scheme.FIXED: self._shadow_fixed,
            Scheme.MASTER_SESSION: self._shadow_ms,
        }[self.scheme](tr, root, rs)
        return self.count, end - start, self.count * self._wrong(report), perf_counter_ns() - end

    # The shadows repeat, on this workload's own keys, the public calls one
    # simulated run is made of; what run_simulation spends beyond them is
    # the simulator's self time. rederive_key is deliberately not shadowed:
    # its cost is the DUKPT loop's own overhead.

    def _shadow_dukpt(self, tr, op, rs) -> None:
        ipek = tr.call("key_hierarchy.derive_ipek", op, rs, derive_ipek, self.bdk, self.base_ksn)
        self.secrets.add(ipek.hex)
        term = tr.call("terminal.init_terminal", op, rs, init_terminal, ipek, self.base_ksn)
        registry = HostRegistry()
        registry.register_bdk(self.base_ksn.key_set_id, self.bdk)
        for _ in range(self.count):
            ksn, key = tr.call("terminal.next_transaction_key", op, rs, term.next_transaction_key)
            tr.annotate(ksn.counter)
            self.secrets.add(key.hex)
            pin_ct = tr.call("terminal.encrypt_pin", op, rs, encrypt_pin, key, self.block)
            data_ct = tr.call("terminal.encrypt_data", op, rs, encrypt_data, key, self.payload)
            line = tr.call("wire.encode_wire", op, rs, encode_wire,
                           TransactionMessage(ksn, pin_ct, data_ct, Scheme.DUKPT))
            msg = tr.call("wire.parse_wire", op, rs, parse_wire, line)
            verdict = tr.call("host.process_message", op, rs, registry.process_message, msg)
            pm = tr.last
            tr.annotate(ksn.counter, verdict.status.value)
            host_shadow(tr, op, pm, self.bdk, msg)

    def _shadow_fixed(self, tr, op, rs) -> None:
        term = FixedKeyTerminal(self.key, self.base_ksn)
        for _ in range(self.count):
            ct = tr.call("baseline.fixed_encrypt", op, rs, fixed_encrypt, term, self.payload)
            line = tr.call("wire.encode_wire", op, rs, encode_wire, TransactionMessage(
                term.terminal_id, encrypted_data=ct, scheme=Scheme.FIXED))
            msg = tr.call("wire.parse_wire", op, rs, parse_wire, line)
            tr.call("baseline.fixed_decrypt", op, rs, fixed_decrypt, self.key, msg.encrypted_data)

    def _shadow_ms(self, tr, op, rs) -> None:
        ctx = MasterSessionContext(self.key, random_source=self.rng.randbytes)
        for _ in range(self.count):
            wrapped, session = tr.call("baseline.ms_wrap_session", op, rs, ms_wrap_session, ctx)
            self.secrets.add(session.hex)
            ct = tr.call("tdes.cbc_encrypt", op, rs, tdes.cbc_encrypt, session.material,
                         self.payload)
            line = tr.call("wire.encode_wire", op, rs, encode_wire, TransactionMessage(
                self.base_ksn, encrypted_data=ct, scheme=Scheme.MASTER_SESSION,
                wrapped_session_key=wrapped))
            msg = tr.call("wire.parse_wire", op, rs, parse_wire, line)
            host_session = tr.call("baseline.ms_unwrap_session", op, rs, ms_unwrap_session,
                                   self.key, msg.wrapped_session_key)
            tr.call("tdes.cbc_decrypt", op, rs, tdes.cbc_decrypt, host_session.material,
                    msg.encrypted_data)


# name -> (why this workload exists, set-up); constructing is the set-up
WORKLOADS = {
    "host_inorder": (
        "Consecutive counters from 64 devices over 4 key sets at mean weight ~8.65: the host's "
        "IPEK plus ~9-step fold dominates, and in-order traffic shares counter prefixes.",
        lambda seed: HostLines(gen.host_inorder(seed)),
    ),
    "host_scattered": (
        "682 devices seen 3 times each at random gapped counters: the same host path with no "
        "prefix reuse between lines, the control for any host-side key cache.",
        lambda seed: HostLines(gen.host_scattered(seed)),
    ),
    "host_hostile": (
        "Gapped and out-of-order honest lines mixed with replays, forged PIN-only lines, "
        "overweight counters, unknown key sets and malformed lines: rejection paths and policy.",
        lambda seed: HostLines(gen.host_hostile(seed)),
    ),
    "host_rejects": (
        "host_hostile without the forged lines: replays, late lines, overweight counters, "
        "unknown key sets and malformed lines time the host's rejection paths and policy.",
        lambda seed: HostLines(gen.host_hostile(seed, mix=gen.REJECTS_MIX)),
    ),
    "terminal_issue": (
        "Device side only: build_message and encode_wire from counter 0 past 2**14, so "
        "future-key issuance and register refill, worst case included, are timed.",
        lambda seed: TerminalIssue(gen.terminal_plan(seed)),
    ),
    "simulate_dukpt": (
        "run_simulation DUKPT on profile pos: the simulate command's terminal, wire, host and "
        "rederive_key pipeline.",
        lambda seed: Simulation(seed, Scheme.DUKPT),
    ),
    "simulate_fixed": (
        "run_simulation FIXED on profile pos: the fixed-key baseline's encrypt/decrypt loop.",
        lambda seed: Simulation(seed, Scheme.FIXED),
    ),
    "simulate_ms": (
        "run_simulation MS on profile pos: Master/Session wrap, unwrap and CBC per transaction.",
        lambda seed: Simulation(seed, Scheme.MASTER_SESSION),
    ),
}

# (set-up, operations) run traced in the probe phase of every traced run, so
# that each layer has spans even when the workload itself never calls it
PROBES = (
    (lambda seed: HostLines(gen.host_inorder(seed, n_devices=8, per_device=8)), 64),
    (lambda seed: TerminalIssue(gen.terminal_plan(seed, last_counter=1024)), 2048),
    (lambda seed: Simulation(seed, Scheme.DUKPT), 1),
    (lambda seed: Simulation(seed, Scheme.FIXED), 2),
    (lambda seed: Simulation(seed, Scheme.MASTER_SESSION), 2),
)
