"""dukptlab benchmark: one workload, one seed, end-to-end or per-layer.

    python3 perfbench/run.py --workload host_inorder --seed 1 --seconds 10 --trace 0

Run from the repository root. The program is imported from ``src/`` of the
same checkout. Before any timing the correctness gate checks the published
IPEK vector and the frozen records in ``tests/data/interop_vectors.txt``;
without them the run exits with status 2 and prints no result.

``--trace 0`` measures with tracing off and reports the end-to-end
metrics. ``--trace 1`` spends half of ``--seconds`` untraced and half
traced, then runs the microprobes and a short traced pass of every other
workload, and reports the per-layer metrics; the spans go to
``perfbench/out/<workload>.trace.jsonl``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The lines before it carry the
run metadata, the sample counts and the error rate. No BDK, IPEK or
transaction key made during the run may appear in stdout or in the trace
file; if one does, the run exits with status 3 before printing anything.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.calibrate import SpeedMeter  # noqa: E402  (needs ROOT on sys.path)
from perfbench.tracing import percentile  # noqa: E402

# name -> (unit, better, bound). latency_p99_us is printed on every run but
# not bounded: on the reference machine its spread between runs (25-75 %)
# is wider than the largest bound a metric may have, 0.25.
END_TO_END = {
    "throughput_per_s": ("1/s", "higher", 0.24),
    "latency_p50_us": ("us", "lower", 0.24),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mib": ("MiB", "lower", 0.1),
}

WINDOW_NS = 1_000_000_000
# a machine-speed probe of PROBE_NS follows the first step that ends
# PROBE_EVERY_NS after the previous probe
PROBE_NS = 10_000_000
PROBE_EVERY_NS = 100_000_000
# set-up is repeated until it has taken this long (at least 3, at most 15
# times), with a probe of each kernel just before and just after each one
SETUP_BUDGET_S = 1.0


@dataclass
class Loop:
    """What one timed closed loop did."""

    units: int = 0
    failed: int = 0
    # per operation, scaled to nominal machine speed and unscaled; arrays,
    # so that the peak RSS of a run does not grow with its operation count
    latencies_us: array = field(default_factory=lambda: array("d"))
    raw_latencies_us: array = field(default_factory=lambda: array("d"))
    rates: list[float] = field(default_factory=list)  # units/s per window, unscaled
    factors: list[float] = field(default_factory=list)  # machine speed during each window

    @property
    def factor(self) -> float:
        return statistics.median(self.factors)

    @property
    def throughput(self) -> float:
        """Median over windows of the window's rate at nominal machine speed."""
        return statistics.median(r / f for r, f in zip(self.rates, self.factors))


def drive(step, seconds: float | None = None, max_ops: int | None = None) -> Loop:
    """Run ``step`` back to back for ``seconds`` or ``max_ops`` operations.

    Throughput is counted in windows of about a second, each scaled by
    the machine speed its probes saw. The median of the scaled window
    rates moves little when a stall elsewhere on the machine hits a few
    windows. Time a step spends on shadow calls, and time spent on probes,
    is left out of its window. Each latency is scaled by the probes just
    before and just after it. Runs bounded by ``max_ops`` are not
    calibrated.
    """
    meter = SpeedMeter() if seconds is not None else None
    loop = Loop()
    ops = 0
    last_factor = meter.probe(PROBE_NS)[1] if meter is not None else 1.0
    start = window_start = next_probe = perf_counter_ns()
    next_probe += PROBE_EVERY_NS
    deadline = start + int(seconds * 1e9) if seconds is not None else None
    window_units = window_shadow = 0
    segment: list[float] = []  # raw latencies since the last probe

    def close_segment(now: int) -> int:
        """Probe, scale the segment's latencies, return the time spent probing."""
        nonlocal last_factor, next_probe
        spent, factor = meter.probe(PROBE_NS) if meter is not None else (0, 1.0)
        scale = (last_factor * factor) ** 0.5
        loop.raw_latencies_us.extend(segment)
        loop.latencies_us.extend(lat * scale for lat in segment)
        segment.clear()
        last_factor, next_probe = factor, now + spent + PROBE_EVERY_NS
        return spent

    while True:
        units, latency_ns, wrong, shadow_ns = step()
        ops += 1
        loop.units += units
        loop.failed += wrong
        segment.append(latency_ns / 1000.0 / units)
        window_units += units
        window_shadow += shadow_ns
        now = perf_counter_ns()
        full = now - window_start >= WINDOW_NS
        done = (deadline is not None and now >= deadline) or (
            max_ops is not None and ops >= max_ops)
        if full or done or (meter is not None and now >= next_probe):
            spent = close_segment(now)
            if not (full or done):
                window_shadow += spent
        if full or done:
            factor = meter.factor() if meter is not None else 1.0
            # a last, partial window counts for latency but not for throughput
            if full or not loop.rates:
                loop.rates.append(window_units * 1e9 / (now - window_start - window_shadow))
                loop.factors.append(factor)
            window_start, window_units, window_shadow = perf_counter_ns(), 0, 0
        if done:
            return loop


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def run_untraced(spec, seed: int, seconds: float, report: list[str]):
    """Set up several times (median is ``setup_s``), check, then time."""
    _, factory = spec
    setup_times: list[float] = []  # unscaled
    setup_factors: list[float] = []  # machine speed around each set-up
    first = state = None
    deterministic = True
    meter = SpeedMeter()
    while len(setup_times) < 3 or (sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < 15):
        state = None
        gc.collect()
        meter.probe(PROBE_NS)
        t0 = perf_counter()
        state = factory(seed)
        setup_times.append(perf_counter() - t0)
        meter.probe(PROBE_NS)
        setup_factors.append(meter.factor())
        if first is None:
            first = state.fingerprint()
        deterministic = deterministic and state.fingerprint() == first
    checked, wrong_kinds = state.pre_check()
    gc.collect()
    loop = drive(state.step, seconds)
    post_wrong = state.post_check()
    # before the percentiles below, which sort a copy of every latency
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    factor = loop.factor
    p50, p99 = percentile(loop.latencies_us, 50), percentile(loop.latencies_us, 99)
    metrics = {
        "throughput_per_s": loop.throughput,
        "latency_p50_us": p50,
        "setup_s": statistics.median(t * f for t, f in zip(setup_times, setup_factors)),
        "peak_rss_mib": peak_rss_mib,
    }
    raw50, raw99 = percentile(loop.raw_latencies_us, 50), percentile(loop.raw_latencies_us, 99)
    report.append(f"latency per operation over {len(loop.latencies_us)} samples at nominal "
                  f"speed: p50 {p50:.6g} us, p99 {p99:.6g} us; "
                  f"unscaled p50 {raw50:.6g} us, p99 {raw99:.6g} us")
    report.append(f"machine speed factor {factor:.4f} (median of {len(loop.factors)} windows); "
                  f"unscaled: throughput {statistics.median(loop.rates):.6g} 1/s, "
                  f"setup {statistics.median(setup_times):.6g} s over {len(setup_times)} set-ups")
    if not deterministic:
        report.append("set-up is not deterministic: two set-ups of one seed differ")
    attempted = loop.units + checked
    failed = loop.failed + sum(wrong_kinds.values()) + post_wrong + (not deterministic)
    report_errors(report, attempted, failed, wrong_kinds, post_wrong)
    return metrics, attempted, failed, state.secrets, None


def run_traced(spec, seed: int, seconds: float, report: list[str], workload: str):
    """Time half untraced and half traced, then probe; return the trace text too."""
    from perfbench.layers import microprobes, per_layer_metrics
    from perfbench.tracing import SpanView, Tracer
    from perfbench.workloads import PROBES

    _, factory = spec
    state = factory(seed)
    checked, wrong_kinds = state.pre_check()
    gc.collect()
    untraced = drive(state.step, seconds / 2)
    tracer = Tracer()
    gc.collect()
    traced = drive(lambda: state.traced_step(tracer), seconds / 2)
    post_wrong = state.post_check()
    secrets = set(state.secrets)

    tracer.phase = "probe"
    microprobes(tracer, seed, secrets)
    probe_units = probe_failed = 0
    for probe_factory, ops in PROBES:
        mini = probe_factory(seed)
        done = drive(lambda: mini.traced_step(tracer), max_ops=ops)
        probe_failed += done.failed + mini.post_check()
        probe_units += done.units
        secrets |= mini.secrets

    view = SpanView(tracer.spans)
    metrics = per_layer_metrics(view, untraced.throughput / traced.throughput)
    per_op = {k: round(v / traced.units, 3) for k, v in sorted(view.self_by_module().items())}
    report.append(f"self time per operation by layer, us (traced loop): {json.dumps(per_op)}")
    report.append(f"samples {len(untraced.latencies_us)} untraced, {len(traced.latencies_us)} "
                  f"traced operations, {len(tracer.spans)} spans")
    attempted = untraced.units + traced.units + checked + probe_units
    failed = (untraced.failed + traced.failed + sum(wrong_kinds.values()) + post_wrong
              + probe_failed)
    report_errors(report, attempted, failed, wrong_kinds, post_wrong + probe_failed)
    return metrics, attempted, failed, secrets, tracer.render({"workload": workload,
                                                              "seed": seed})


def report_errors(report, attempted, failed, wrong_kinds, post_wrong) -> None:
    kinds = {k: v for k, v in sorted(wrong_kinds.items()) if v}
    report.append(f"error_rate {failed / attempted:.6f} ({failed} wrong of {attempted} "
                  f"attempted; pre-check wrong by kind {json.dumps(kinds)}; "
                  f"post-check wrong {post_wrong})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "dukptlab" / "__init__.py").is_file():
        print(f"benchmark: no dukptlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cryptography
    import dukptlab

    from perfbench import gate
    from perfbench.layers import PER_LAYER
    from perfbench.workloads import WORKLOADS

    if Path(dukptlab.__file__).resolve().parent != (SRC / "dukptlab").resolve():
        print(f"benchmark: dukptlab imported from {dukptlab.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    try:
        vectors = gate.check_vectors(ROOT)
    except (gate.GateError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark: correctness gate failed: {exc}", file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    meta = {
        "workload": args.workload,
        "why": spec[0],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": src_line_count(),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "nproc": os.cpu_count(),
        "gate_vectors_checked": vectors + 1,
    }
    report = [f"meta {json.dumps(meta)}"]
    if args.trace:
        metrics, attempted, failed, secrets, trace_text = run_traced(
            spec, args.seed, args.seconds, report, args.workload)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics, attempted, failed, secrets, trace_text = run_untraced(
            spec, args.seed, args.seconds, report)
        units = {name: unit for name, (unit, _, _) in END_TO_END.items()}
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    for name, value in metrics.items():
        report.append(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    report.append(json.dumps(result))
    emitted = "\n".join(report) + "\n" + (trace_text or "")
    if gate.leaked(emitted, secrets):
        print("benchmark: key material from this run appears in its output", file=sys.stderr)
        return 3
    if trace_text:
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"{args.workload}.trace.jsonl").write_text(trace_text, encoding="ascii")
    print("\n".join(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
