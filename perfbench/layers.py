"""Microprobes and the per-layer metrics computed from a finished trace.

The microprobes time single public calls on seed-derived inputs: the rows
no workload isolates (DES key set-up against per-block cost, the chain
fold at fixed counter weights, one-way step, IPEK, terminal init) and a
host re-derivation. Every per-layer metric is then read off the spans; see
``tracing.SpanView`` for how a workload's own loop takes precedence over
the probes.
"""

from __future__ import annotations

import random
import statistics

from dukptlab import (
    HostRegistry,
    Scheme,
    derive_ipek,
    derive_key_chain,
    init_terminal,
    nrkgp,
    tdes,
)
from dukptlab.key_hierarchy import COUNTER_BITS
from dukptlab.pin_block import structure_ok

from . import traffic as gen
from .tracing import COUNTER, TAG, SpanView
from .workloads import Simulation

STATUSES = ("Accepted", "ReplayRejected", "OverweightCounterRejected", "UnknownKeySet",
            "DecryptFailed")

# name -> (unit, better)
PER_LAYER = {
    "tdes.encrypt_block.us": ("us", "lower"),
    "tdes.ecb_encrypt.setup_us": ("us", "lower"),
    "tdes.ecb_encrypt.per_block_us": ("us", "lower"),
    "tdes.cbc_decrypt.us": ("us", "lower"),
    "key_hierarchy.derive_ipek.us": ("us", "lower"),
    "key_hierarchy.nrkgp.us": ("us", "lower"),
    "key_hierarchy.derive_key_chain.w1.us": ("us", "lower"),
    "key_hierarchy.derive_key_chain.w5.us": ("us", "lower"),
    "key_hierarchy.derive_key_chain.w10.us": ("us", "lower"),
    "key_hierarchy.steps_per_msg": ("count", "lower"),
    "terminal.init_terminal.us": ("us", "lower"),
    "terminal.next_transaction_key.p50_us": ("us", "lower"),
    "terminal.next_transaction_key.p99_us": ("us", "lower"),
    "terminal.children_per_issue": ("count", "lower"),
    "terminal.encrypt_pin.us": ("us", "lower"),
    "terminal.encrypt_data.us": ("us", "lower"),
    "wire.parse_wire.us": ("us", "lower"),
    "wire.encode_wire.us": ("us", "lower"),
    "pin_block.structure_ok.us": ("us", "lower"),
    "host.process_message.p50_us": ("us", "lower"),
    "host.process_message.p99_us": ("us", "lower"),
    "host.self_us": ("us", "lower"),
    **{f"host.verdict.{s}": ("per_1k", "higher" if s == "Accepted" else "lower")
       for s in STATUSES},
    "host.reply.MalformedMessage": ("per_1k", "lower"),
    "host.accept_ratio": ("ratio", "higher"),
    "host.rederive_key.us": ("us", "lower"),
    "baseline.fixed_encrypt.us": ("us", "lower"),
    "baseline.fixed_decrypt.us": ("us", "lower"),
    "baseline.ms_wrap_session.us": ("us", "lower"),
    "baseline.ms_unwrap_session.us": ("us", "lower"),
    **{f"scenarios.self_us_per_tx.{s.value}": ("us", "lower") for s in Scheme},
    "trace.overhead_ratio": ("ratio", "lower"),
}


def _weight_counter(rng: random.Random, weight: int) -> int:
    return sum(1 << b for b in rng.sample(range(COUNTER_BITS), weight))


def microprobes(tr, seed: int, secrets: set[str], reps: int = 300) -> None:
    """Time single calls as root spans; every key made is added to ``secrets``."""
    rng = random.Random(f"microprobes:{seed}")
    bdk = gen.new_bdk(rng)
    base = gen.make_ksn(rng.randrange(1, 1 << 24), rng.randrange(1 << 35))
    ipek = derive_ipek(bdk, base)
    raw_key = rng.randbytes(16)
    secrets.update({bdk.hex, ipek.hex, raw_key.hex().upper()})
    block = rng.randbytes(8)
    one, many = rng.randbytes(8), rng.randbytes(8 * 21)
    ciphertext = tdes.cbc_encrypt(raw_key, gen.random_payload(rng)[1])
    clear_blocks = [gen.random_payload(rng)[0] for _ in range(16)]
    registry = HostRegistry()
    registry.register_bdk(base.key_set_id, bdk)

    def probe(name, fn, *args):
        op = tr.new_id()
        return tr.call(name, op, None, fn, *args)

    for i in range(reps):
        probe("tdes.encrypt_block", tdes.encrypt_block, raw_key, block)
        probe("tdes.ecb_encrypt.1b", tdes.ecb_encrypt, raw_key, one)
        probe("tdes.ecb_encrypt.21b", tdes.ecb_encrypt, raw_key, many)
        probe("tdes.cbc_decrypt", tdes.cbc_decrypt, raw_key, ciphertext)
        probe("key_hierarchy.derive_ipek", derive_ipek, bdk, base)
        probe("key_hierarchy.nrkgp", nrkgp, ipek, base.with_counter(1 << rng.randrange(21)))
        probe("pin_block.structure_ok", structure_ok, clear_blocks[i % len(clear_blocks)])
    for i in range(reps // 3):
        for weight in (1, 5, 10):
            ksn = base.with_counter(_weight_counter(rng, weight))
            key = probe(f"key_hierarchy.derive_key_chain.w{weight}", derive_key_chain, ipek, ksn)
            secrets.add(key.hex)
        ksn = base.with_counter(gen.usable_counter_at(rng.randint(1, gen.COUNTER_SPACE)))
        secrets.add(probe("host.rederive_key", registry.rederive_key, ksn).hex)
        if i % 10 == 0:
            probe("terminal.init_terminal", init_terminal, ipek, base)


def _per_1k(count: int, total: int) -> float:
    return 1000.0 * count / total


def per_layer_metrics(view: SpanView, overhead_ratio: float) -> dict[str, float]:
    m: dict[str, float] = {}
    m["tdes.encrypt_block.us"] = view.median_us("tdes.encrypt_block")
    one = view.median_us("tdes.ecb_encrypt.1b")
    per_block = (view.median_us("tdes.ecb_encrypt.21b") - one) / 20
    m["tdes.ecb_encrypt.setup_us"] = one - per_block
    m["tdes.ecb_encrypt.per_block_us"] = per_block
    m["tdes.cbc_decrypt.us"] = view.median_us("tdes.cbc_decrypt")

    m["key_hierarchy.derive_ipek.us"] = view.median_us("key_hierarchy.derive_ipek")
    m["key_hierarchy.nrkgp.us"] = view.median_us("key_hierarchy.nrkgp")
    for w in (1, 5, 10):
        m[f"key_hierarchy.derive_key_chain.w{w}.us"] = view.median_us(
            f"key_hierarchy.derive_key_chain.w{w}")
    served = [s[COUNTER] for s in view.named("host.process_message",
                                             "terminal.next_transaction_key")
              if s[COUNTER] is not None and s[TAG] in (None, "Accepted", "DecryptFailed")]
    m["key_hierarchy.steps_per_msg"] = statistics.fmean(c.bit_count() for c in served)

    issued = view.named("terminal.next_transaction_key")
    m["terminal.init_terminal.us"] = view.median_us("terminal.init_terminal")
    m["terminal.next_transaction_key.p50_us"] = view.pct_us("terminal.next_transaction_key", 50)
    m["terminal.next_transaction_key.p99_us"] = view.pct_us("terminal.next_transaction_key", 99)
    m["terminal.children_per_issue"] = statistics.fmean(
        gen.children_per_issue(s[COUNTER]) for s in issued)
    m["terminal.encrypt_pin.us"] = view.median_us("terminal.encrypt_pin")
    m["terminal.encrypt_data.us"] = view.median_us("terminal.encrypt_data")

    m["wire.parse_wire.us"] = view.median_us("wire.parse_wire")
    m["wire.encode_wire.us"] = view.median_us("wire.encode_wire")
    m["pin_block.structure_ok.us"] = view.median_us("pin_block.structure_ok")

    processed = view.named("host.process_message")
    m["host.process_message.p50_us"] = view.pct_us("host.process_message", 50)
    m["host.process_message.p99_us"] = view.pct_us("host.process_message", 99)
    m["host.self_us"] = statistics.median(view.self_us(s) for s in processed)
    for status in STATUSES:
        m[f"host.verdict.{status}"] = _per_1k(
            sum(s[TAG] == status for s in processed), len(processed))
    lines = view.named("bench.host_line")
    m["host.reply.MalformedMessage"] = _per_1k(
        sum(s[TAG] == "MalformedMessage" for s in lines), len(lines))
    m["host.accept_ratio"] = sum(s[TAG] == "OK" for s in lines) / len(lines)
    m["host.rederive_key.us"] = view.median_us("host.rederive_key")

    for call in ("fixed_encrypt", "fixed_decrypt", "ms_wrap_session", "ms_unwrap_session"):
        m[f"baseline.{call}.us"] = view.median_us(f"baseline.{call}")

    for scheme in Scheme:
        runs = view.named(f"scenarios.run_simulation.{scheme.value}")
        m[f"scenarios.self_us_per_tx.{scheme.value}"] = statistics.median(
            view.self_us(s) for s in runs) / Simulation.COUNT
    m["trace.overhead_ratio"] = overhead_ratio
    return m
