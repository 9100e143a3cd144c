"""In-memory spans recorded by the benchmark around its calls into dukptlab.

A span is one timed public call: its name is ``<module>.<call>``, it
belongs to one operation (``op``), and its ``parent`` is the span that
caused it. The benchmark also records *shadow* spans: after a call it
cannot split from outside (``HostRegistry.process_message``,
``run_simulation``), it repeats the public calls that make up that work on
the same inputs and records them as children of the outer span. A span's
self time is its duration minus the durations of its children, which for
nested children is the part of the interval they cover and for shadow
children is the cost they stand for.

Spans carry no arguments and no results, only an optional counter value
and a short tag (a verdict or reply status), so key material cannot reach
the trace file.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from time import perf_counter_ns

FIELDS = ("id", "parent", "op", "phase", "name", "start_ns", "end_ns", "counter", "tag")
ID, PARENT, OP, PHASE, NAME, START, END, COUNTER, TAG = range(len(FIELDS))


class Tracer:
    """Collects spans; ``phase`` tells the workload's own loop from probes."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.phase = "loop"
        self.last = 0
        self._next_id = 0

    def new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def record(self, sid, name, op, parent, start, end, counter=None, tag=None) -> None:
        self.spans.append((sid, parent, op, self.phase, name, start, end, counter, tag))

    def call(self, name, op, parent, fn, *args, counter=None):
        """Time ``fn(*args)`` as one span, also when it raises.

        The span's id is left in ``self.last``.
        """
        sid = self.new_id()
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.spans.append((sid, parent, op, self.phase, name, start, perf_counter_ns(),
                               counter, None))
            self.last = sid

    def annotate(self, counter=None, tag=None) -> None:
        """Set the counter and tag of the span recorded last."""
        self.spans[-1] = self.spans[-1][:COUNTER] + (counter, tag)

    def render(self, header: dict) -> str:
        """The trace file: a header line, then one JSON array per span."""
        lines = [json.dumps({"fields": FIELDS, **header})]
        lines.extend(json.dumps(s, separators=(",", ":")) for s in self.spans)
        return "\n".join(lines) + "\n"


def us(span) -> float:
    return (span[END] - span[START]) / 1000.0


def percentile(values, q: int) -> float:
    """The q-th percentile (1..99) of at least two values."""
    return statistics.quantiles(values, n=100)[q - 1]


class SpanView:
    """Per-layer statistics over a finished trace.

    Every lookup prefers the workload's own loop: a name the loop never
    recorded is answered from the probe phase, which runs every layer on
    small seed-derived inputs, so each metric exists for every workload.
    """

    def __init__(self, spans: list[tuple]):
        self.by_name: dict[tuple[str, str], list[tuple]] = defaultdict(list)
        self.child_us: dict[int, float] = defaultdict(float)
        for s in spans:
            self.by_name[(s[PHASE], s[NAME])].append(s)
            if s[PARENT] is not None:
                self.child_us[s[PARENT]] += us(s)
        self.spans = spans

    def named(self, *names: str) -> list[tuple]:
        """Spans of the first name the loop recorded, else of the first the
        probes recorded."""
        for phase in ("loop", "probe"):
            for name in names:
                if (phase, name) in self.by_name:
                    return self.by_name[(phase, name)]
        return []

    def median_us(self, name: str) -> float:
        return statistics.median(us(s) for s in self.named(name))

    def pct_us(self, name: str, q: int) -> float:
        return percentile([us(s) for s in self.named(name)], q)

    def self_us(self, span) -> float:
        return us(span) - self.child_us.get(span[ID], 0.0)

    def self_by_module(self) -> dict[str, float]:
        """Total self time in µs per module (the name's first component) in the loop."""
        totals: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s[PHASE] == "loop":
                totals[s[NAME].split(".", 1)[0]] += self.self_us(s)
        return dict(totals)
