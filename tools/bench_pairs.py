"""Paired benchmark runs: a parent revision against this checkout or another, into BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent REV --pr N [--change REV] [--pairs 5] \
        [--seeds 1-5] [--workload simulate_fixed ...] [--seconds 10]

Run from anywhere; stdlib only. The parent revision is exported with
``git archive`` into a temporary directory, removed on exit, so a killed run
leaves no worktree record behind; the change is this checkout's working tree,
uncommitted edits included, or with ``--change`` a second revision exported the
same way, so two past commits can be compared. Each pair runs
``perfbench/run.py --trace 0`` once on each tree with the same seed, and the parent
goes first in even pairs, the change in odd ones. Seeds are taken from ``--seeds`` in turn (default ``1-<pairs>``);
workloads default to every one ``BENCHMARK.json`` lists, and ``--seconds`` to its
``run_seconds``.

The file holds every run (the four gated metrics, the unscaled throughput, the
machine speed factor and ``correct``) and, per workload and metric, both sides'
medians, the parent's quartiles and IQR, and the pairs the change won, lost or
tied. A metric is ``unresolved`` when the parent's IQR, relative to its median,
exceeds the metric's bound in ``BENCHMARK.json``: the two trees cannot then be
told apart by that metric. The file decides nothing else; the bounds and the
gate stay where they are. It also counts the lines of ``src/``, ``perfbench/``
and ``tests/`` (``*.py``) on both sides. At the end the script prints one line per
workload and metric: both medians, the change's move, the pairs won and lost, and
``unresolved`` where it holds.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEED = re.compile(r"machine speed factor ([0-9.]+) .*unscaled: throughput ([0-9.e+]+) 1/s")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str, into: Path) -> str:
    """Write the tree of ``rev`` into ``into``; return the commit it names."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:  # an interpreter without extraction filters; the archive is our own
            tar.extractall(into)
    return commit


def line_counts(tree: Path) -> dict[str, int]:
    return {part: sum(len(p.read_text(encoding="utf-8").splitlines())
                      for p in (tree / part).rglob("*.py"))
            for part in ("src", "perfbench", "tests")}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``run.py``; its result line, or ``correct: false`` if it printed none."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "exit": proc.returncode, "stderr": proc.stderr[-2000:]}
    run = {"correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"],
           "metrics": {name: m["value"] for name, m in result["metrics"].items()}}
    speed = next(filter(None, map(SPEED.search, lines)), None)
    if speed:
        run["speed_factor"] = float(speed.group(1))
        run["unscaled_throughput_per_s"] = float(speed.group(2))
    return run


def summarize(pairs: list[dict], bounds: dict[str, tuple[str, float]]) -> dict:
    """Per metric: medians, the parent's spread, and pairs won, over pairs where both ran."""
    both = [p for p in pairs if "metrics" in p["parent"] and "metrics" in p["change"]]
    out = {}
    for name, (better, bound) in bounds.items():
        parent = [p["parent"]["metrics"][name] for p in both]
        change = [p["change"]["metrics"][name] for p in both]
        if not parent:
            continue
        sign = 1 if better == "higher" else -1
        won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        lost = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        median, change_median = statistics.median(parent), statistics.median(change)
        entry = {
            "better": better, "bound": bound,
            "parent_median": median, "change_median": change_median,
            "change_vs_parent": change_median / median - 1 if median else None,
            "pairs": len(parent), "won": won, "lost": lost, "tied": len(parent) - won - lost,
        }
        if len(parent) >= 2:
            q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
            entry.update(parent_q1=q1, parent_q3=q3, parent_iqr=q3 - q1,
                         unresolved=bool(median) and (q3 - q1) / abs(median) > bound)
        out[name] = entry
    return out


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--pr", required=True, type=int, help="names the file BENCH_<pr>.json")
    parser.add_argument("--change", help="git revision to run as the change (default: this tree)")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seeds", type=parse_seeds, help="A-B, taken in turn (default 1-<pairs>)")
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload BENCHMARK.json lists")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be at least 1 and --seconds positive")
    seeds = args.seeds or list(range(1, args.pairs + 1))
    bounds = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}

    started = time.perf_counter()
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        trees = {"parent": scratch / "parent", "change": ROOT}
        parent_commit = export(args.parent, trees["parent"])
        if args.change:
            trees["change"] = scratch / "change"
            change = {"rev": args.change, "commit": export(args.change, trees["change"])}
        else:
            change = {"head": git("rev-parse", "HEAD").decode().strip(), "uncommitted_edits":
                      bool(git("status", "--porcelain", "--untracked-files=no").strip())}
        workloads = {}
        for workload in args.workload or names:
            pairs = []
            for i in range(args.pairs):
                seed = seeds[i % len(seeds)]
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: {side}",
                          file=sys.stderr, flush=True)
                    pair[side] = run_once(trees[side], workload, seed, args.seconds)
                pairs.append(pair)
            workloads[workload] = {"metrics": summarize(pairs, bounds), "runs": pairs}
        lines = {side: line_counts(tree) for side, tree in trees.items()}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    report = {
        "pr": args.pr,
        "parent": {"rev": args.parent, "commit": parent_commit},
        "change": change,
        "settings": {"pairs": args.pairs, "seeds": seeds[:args.pairs], "seconds": args.seconds,
                     "trace": 0},
        "machine": {"python": platform.python_version(), "nproc": os.cpu_count(),
                    "platform": platform.platform()},
        "wall_seconds": round(time.perf_counter() - started, 1),
        "line_counts": lines,
        "all_correct": all(run["correct"] for w in workloads.values() for p in w["runs"]
                           for run in (p["parent"], p["change"])),
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out} in {report['wall_seconds']} s", file=sys.stderr)
    for workload, result in workloads.items():
        for name, m in result["metrics"].items():
            move = "n/a" if m["change_vs_parent"] is None else f"{m['change_vs_parent']:+.1%}"
            print(f"{workload} {name}: {m['parent_median']:.6g} -> {m['change_median']:.6g}"
                  f" ({move}), won {m['won']} lost {m['lost']} of {m['pairs']}"
                  + (", unresolved" if m.get("unresolved") else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
