"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from worker import run_pass  # noqa: E402


def run_benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_same_seed_gives_same_small_queries_argv():
    first = workloads.small_queries_argv(7, "cache")
    assert first == workloads.small_queries_argv(7, "cache")
    assert first != workloads.small_queries_argv(8, "cache")
    kinds = [argv[0] for argv in first]
    assert len(kinds) == workloads.SMALL_QUERIES_CALLS
    for kind, share in workloads.SMALL_QUERIES_MIX:
        assert kinds.count(kind) == round(share * len(kinds))


def test_oracles_agree_with_known_counts():
    from multiderange.counting import brute_force_count

    assert workloads.derangements_oracle(52) == \
        29672484407795138298279444403649511427278111361911893663894333196201
    assert workloads.multiset_oracle((4,) * 13)[0] == workloads.DECK_NUMBER
    for mults in [(1, 1), (2, 2, 2), (3, 1, 2), (6, 1), (1, 2, 3, 4)]:
        derangements, arrangements = workloads.multiset_oracle(mults)
        assert derangements == brute_force_count(mults)
        word = [i for i, a in enumerate(mults) for _ in range(a)]
        assert arrangements == len(set(itertools.permutations(word)))


@pytest.mark.parametrize("workload,tamper", [
    ("big_multi", lambda call: call["expect"].update(stdout="1" + call["expect"]["stdout"])),
    ("small_queries", lambda call: call["expect"].update(kind="text", stdout="-1\n")),
    ("table_k4", lambda call: call["expect"]["known"].update({"150": "7"})),
])
def test_wrong_expected_value_is_reported_as_failure(tmp_path, workload, tamper):
    plan = workloads.build_plan(workload, 3, tmp_path, smoke=True)
    assert run_pass(plan)["failed"] == 0
    tamper(plan["calls"][0])
    result = run_pass(plan)
    assert result["failed"] == 1
    assert result["failures"]


def test_times_are_divided_by_the_host_slowdown_measured_next_to_them():
    nominal = run.REFERENCE_NOMINAL_S
    # The second pass ran on a host twice as slow and took twice as long.
    passes = [{"wall_s": w, "op_s": [0.4 * w, 0.6 * w], "peak_rss_mb": 50.0, "reference_s": [r * nominal]}
              for w, r in ((1.0, 1), (2.0, 2), (1.2, 1))]
    scaled, raw = run.end_to_end_metrics(([0.3] * 3, [3 * nominal] * 3), passes)
    assert raw["wall_s"] == 1.2 and raw["pass_host_slowdowns"] == [1, 2, 1]
    assert scaled["wall_s"] == 1.0
    assert scaled["op_p50_ms"] == pytest.approx(500) and scaled["op_p99_ms"] == pytest.approx(600)
    assert scaled["ops_per_s"] == pytest.approx(2.0)
    assert scaled["setup_s"] == pytest.approx(0.1)
    assert scaled["peak_rss_mb"] == 50.0


def test_failed_call_is_counted(tmp_path):
    plan = workloads.build_plan("big_multi", 3, tmp_path, smoke=True)
    plan["calls"].append({"argv": ["multi", "0"], "expect": {"kind": "text", "stdout": ""}})
    result = run_pass(plan)
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert "exit code 2" in result["failures"][0]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_completes(workload):
    proc = run_benchmark("--workload", workload, "--seed", "5", "--seconds", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_reaches_every_layer():
    proc = run_benchmark("--workload", "small_queries", "--seed", "5", "--seconds", "1",
                         "--smoke", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    assert list(metrics) == [name for name, _ in run.PER_LAYER]
    # Calls that start in cli reach the wrappers bound in cli's namespace.
    for name in ("cli.main.calls", "counting.multiset_derangement.calls", "polys.mul.calls",
                 "bigint.to_decimal.calls", "oeis.OeisClient.cross_check.calls"):
        assert metrics[name]["value"] > 0, name


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark("--workload", "small_queries", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
