"""Tests of the benchmark itself: generators, oracle, gate and output contract.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from dukptlab import COUNTER_SPACE, HostRegistry, next_counter, remaining_counters

from perfbench import gate
from perfbench import traffic as gen
from perfbench.layers import PER_LAYER
from perfbench.run import END_TO_END, drive
from perfbench.workloads import WORKLOADS, HostLines

ROOT = Path(__file__).resolve().parent.parent


def small_inorder(seed=7):
    return gen.host_inorder(seed, n_devices=6, per_device=5)


def small_hostile(seed=7, mix=None):
    return gen.host_hostile(seed, n_devices=24, n_lines=300, mix=mix)


@pytest.mark.parametrize("make", [small_inorder, small_hostile,
                                  lambda seed: small_hostile(seed, gen.REJECTS_MIX),
                                  lambda seed: gen.host_scattered(seed, n_devices=8)])
def test_same_seed_gives_same_lines_and_replies(make):
    a, b = make(11), make(11)
    assert a.lines == b.lines and a.expected == b.expected and a.sent == b.sent
    assert make(12).lines != a.lines


def test_terminal_plan_is_deterministic():
    a, b = gen.terminal_plan(3, last_counter=300), gen.terminal_plan(3, last_counter=300)
    assert a.payloads == b.payloads and a.counters == b.counters
    assert [d.base_ksn for d in a.devices] == [d.base_ksn for d in b.devices]


def test_usable_counter_at_ranks_usable_counters():
    counter = 0
    for rank in range(1, 3000):
        counter = next_counter(counter)
        assert gen.usable_counter_at(rank) == counter
    for rank in (COUNTER_SPACE // 3, COUNTER_SPACE - 1, COUNTER_SPACE):
        c = gen.usable_counter_at(rank)
        assert COUNTER_SPACE - remaining_counters(c) == rank


def test_inorder_traffic_is_all_accepted_with_clear_fields_returned():
    checked, wrong = HostLines(small_inorder()).pre_check()
    assert checked == 30 and not +wrong


def test_oracle_catches_a_tampered_expected_reply():
    traffic = small_inorder()
    traffic.expected[4] = "ERR|ReplayRejected"
    lines = HostLines(traffic)
    _, wrong = lines.pre_check()
    assert sum(wrong.values()) == 1
    loop = drive(lines.step, max_ops=len(traffic.lines))
    assert loop.failed == 1


def test_oracle_catches_wrong_clear_data():
    traffic = small_inorder()
    block, data = traffic.sent[2]
    traffic.sent[2] = (block, data + b"x")
    _, wrong = HostLines(traffic).pre_check()
    assert sum(wrong.values()) == 1


def test_hostile_floor_model_agrees_with_host_without_forgeries():
    traffic = small_hostile(mix=gen.REJECTS_MIX)
    assert {"legit", "late", "replay", "overweight", "unknown_key_set",
            "malformed"} <= set(traffic.kinds)
    _, wrong = HostLines(traffic).pre_check()
    assert not +wrong


def test_hostile_wrong_outcomes_come_only_from_forgeries():
    traffic = small_hostile(seed=5)
    registry = HostRegistry()
    for key_set_id, bdk in traffic.bdks.items():
        registry.register_bdk(key_set_id, bdk)
    replies = [registry.handle_wire_line(line) for line in traffic.lines]
    forged_accepted = [i for i, (k, r) in enumerate(zip(traffic.kinds, replies))
                       if k == "forged" and r.startswith("OK")]
    for i, (kind, reply, want) in enumerate(zip(traffic.kinds, replies, traffic.expected)):
        if reply != want:
            # an accepted forgery, or an honest line it locked out afterwards
            assert kind == "forged" or (kind == "legit" and forged_accepted
                                        and forged_accepted[0] < i)


def test_gate_accepts_frozen_vectors():
    assert gate.check_vectors(ROOT) == 10


def test_gate_rejects_a_wrong_key(tmp_path):
    target = tmp_path / gate.VECTOR_FILE
    target.parent.mkdir(parents=True)
    text = (ROOT / gate.VECTOR_FILE).read_text(encoding="ascii")
    target.write_text(text.replace("key=042666B4", "key=142666B4"), encoding="ascii")
    with pytest.raises(gate.GateError):
        gate.check_vectors(tmp_path)


def test_leak_scan_finds_embedded_key_hex():
    secret = "0123456789ABCDEF0123456789ABCDEF"
    assert gate.leaked(f"x {secret.lower()} y", {secret}) == 1
    assert gate.leaked(f"FF{secret}00", {secret}) == 1
    assert gate.leaked("counter 12345 and 0123456789ABCDEF", {secret}) == 0


def test_benchmark_json_matches_the_benchmark():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    for w in bench["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]][0] and len(w["why"]) <= 200
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]} \
        == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == PER_LAYER
    setup_bound = END_TO_END["setup_s"][2]
    assert all(bound <= setup_bound <= 0.25 for _, _, bound in END_TO_END.values())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload,trace", [("terminal_issue", "0"), ("simulate_fixed", "1")])
def test_result_line_contract(workload, trace):
    done = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = PER_LAYER if trace == "1" else END_TO_END
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name][0]
        assert isinstance(metric["value"], float)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench(tmp_path, "--workload", "host_inorder", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
