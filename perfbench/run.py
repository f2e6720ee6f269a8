"""Benchmark of the multiderange command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is one of small_queries, big_multi,
table_k4, guess_k6, or `all`.  Each run measures the import time of
`multiderange.cli` in fresh interpreters, builds the workload's inputs and
expected answers in an untimed worker, then repeats timed passes, each in a
fresh worker process, for about S seconds.  Every pass checks its answers.
End-to-end times are divided by the host slowdown measured next to them
with reference.py.  With --trace 1 untraced and traced passes alternate
and the per-layer metrics are reported instead of the end-to-end ones.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every call of
every pass gave the expected answer and all passes printed the same bytes.
See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
WORK_DIR = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
from reference import REFERENCE_NOMINAL_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SPAWNS = 7
WORKER_TIMEOUT_S = 150

# (name, unit); BENCHMARK.json lists the same names and units.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
)
PER_LAYER = (
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.table.fallback_ratio", "ratio"),
    ("counting.multiset_derangement.calls", "count"),
    ("counting.multiset_derangement.self_s", "s"),
    ("counting.wrong_rank_probability.self_s", "s"),
    ("counting.uniform_fixed_k_prefix.s", "s"),
    ("polys.mul.calls", "count"),
    ("polys.mul.s", "s"),
    ("polys.mul.operand_bits_max", "bit"),
    ("polys.mul.operand_bits_total", "bit"),
    ("polys.product.s", "s"),
    ("polys.power.s", "s"),
    ("laguerre.laguerre.calls", "count"),
    ("laguerre.laguerre.hit_ratio", "ratio"),
    ("laguerre.exp_moment.calls", "count"),
    ("laguerre.exp_moment.s", "s"),
    ("laguerre.exp_moment.degree_max", "degree"),
    ("recurrences.guess_recurrence.s", "s"),
    ("recurrences.verify_recurrence.s", "s"),
    ("recurrences.extend_sequence.s", "s"),
    ("recurrences.extend_sequence.steps", "count"),
    ("bigint.to_decimal.calls", "count"),
    ("bigint.to_decimal.s", "s"),
    ("bigint.to_decimal.digits_total", "digit"),
    ("bigint.from_decimal.s", "s"),
    ("sequences.format_plain.s", "s"),
    ("sequences.parse_terms_file.s", "s"),
    ("oeis.OeisClient.cross_check.calls", "count"),
    ("oeis.OeisClient.cross_check.s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, MULTIDERANGE_OFFLINE="1")


def spawn_worker(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args], cwd=ROOT, env=worker_env(),
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


# A fresh interpreter imports the program, notes when the import finished,
# then times the reference kernels on the same CPU (the first, cold round
# is discarded).
SETUP_PROBE = (
    "import time, multiderange.cli; imported = time.monotonic(); import sys; "
    "sys.path.insert(0, sys.argv[1]); from reference import reference_seconds; "
    "reference_seconds(); print(imported, reference_seconds())"
)


def measure_setup() -> tuple[list[float], list[float]]:
    """(import times, reference-kernel times) of fresh interpreters.

    An import time runs from the spawn to the end of `import
    multiderange.cli` (time.monotonic is one clock for all processes).
    One unmeasured spawn first writes the bytecode caches.
    """
    times, reference_s = [], []
    for i in range(SETUP_SPAWNS + 1):
        began = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(HERE)], cwd=ROOT, env=worker_env(),
                              check=True, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        imported, reference = map(float, proc.stdout.split())
        if i:
            times.append(imported - began)
            reference_s.append(reference)
    return times, reference_s


def timed_passes(plan: Path, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
    """Untraced (and, with trace, alternating traced) passes until the next
    round would end after `seconds`; at least one round."""
    untraced, traced = [], []
    began = time.perf_counter()
    while True:
        untraced.append(spawn_worker("pass", str(plan)))
        if trace:
            traced.append(spawn_worker("pass", str(plan), "--trace"))
        elapsed = time.perf_counter() - began
        if elapsed * (len(untraced) + 1) / len(untraced) > seconds:
            return untraced, traced


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def end_to_end_metrics(setup: tuple[list[float], list[float]], passes: list[dict]) -> tuple[dict, dict]:
    """(host-scaled metrics, raw metrics) of a run.

    Times are divided by the host slowdown measured next to them: the
    median reference-kernel time of each pass, or of the set-up spawns, over
    REFERENCE_NOMINAL_S (see reference.py).
    """
    setup_times, setup_reference = setup
    slowdowns = [statistics.median(p["reference_s"]) / REFERENCE_NOMINAL_S for p in passes]
    setup_slowdown = statistics.median(setup_reference) / REFERENCE_NOMINAL_S

    def summary(scale: list[float]) -> dict:
        wall = statistics.median(p["wall_s"] / s for p, s in zip(passes, scale))
        # Every pass makes the same calls; a call's latency is its median
        # over the passes, so one stalled pass does not become the tail.
        latencies = sorted(statistics.median(t / s for t, s in zip(ts, scale))
                           for ts in zip(*(p["op_s"] for p in passes)))
        return {
            "wall_s": wall,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "ops_per_s": len(latencies) / wall,
            "op_p50_ms": statistics.median(latencies) * 1000,
            "op_p99_ms": percentile(latencies, 99) * 1000,
        }

    scaled = {"setup_s": statistics.median(setup_times) / setup_slowdown, **summary(slowdowns)}
    raw = {"setup_s": statistics.median(setup_times), **summary([1.0] * len(passes)),
           "setup_host_slowdown": setup_slowdown, "pass_host_slowdowns": slowdowns}
    return scaled, raw


def layer_values(traced_pass: dict) -> dict:
    layers = traced_pass["layers"]
    values = {}
    for name, _ in PER_LAYER:
        if name.startswith("trace."):
            continue
        if name == "cli.table.fallback_ratio":
            tables = traced_pass["tables"]
            values[name] = traced_pass["table_fallbacks"] / tables if tables else 0.0
            continue
        layer, field = name.rsplit(".", 1)
        values[name] = layers.get(layer, {}).get(field, 0)
    return values


def per_layer_metrics(untraced: list[dict], traced: list[dict]) -> dict:
    per_pass = [layer_values(p) for p in traced]
    metrics = {name: statistics.median(v[name] for v in per_pass) for name in per_pass[0]}
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_ratio"] = traced_wall / statistics.median(p["wall_s"] for p in untraced)
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool, workdir: Path) -> dict:
    workdir.mkdir(parents=True)
    setup = None if trace else measure_setup()
    plan = workdir / "plan.json"
    prepared = spawn_worker("prepare", str(plan), "--workload", workload, "--seed", str(seed),
                            *(["--smoke"] if smoke else []))
    untraced, traced = timed_passes(plan, seconds, trace)
    passes = untraced + traced
    digests = sorted({p["stdout_sha256"] for p in passes})
    if trace:
        metrics, raw = per_layer_metrics(untraced, traced), None
    else:
        metrics, raw = end_to_end_metrics(setup, untraced)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "workload": workload,
        "seed": seed,
        "env": prepared["env"],
        "passes": len(untraced),
        "traced_passes": len(traced),
        "calls_per_pass": prepared["calls"],
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": [f for p in passes for f in p["failures"]][:5],
        "stdout_sha256": digests,
        "deterministic": len(digests) == 1,
        "setup_samples_s": setup[0] if setup else None,
        "pass_wall_s": [p["wall_s"] for p in untraced],
        "metrics": metrics,
        "raw_metrics": raw,
        "median_traced_pass": sorted(traced, key=lambda p: p["wall_s"])[len(traced) // 2] if traced else None,
    }


def print_report(result: dict, units: dict) -> None:
    env = result["env"]
    print(f"== {result['workload']} (seed {result['seed']}): {result['passes']} untraced"
          f" + {result['traced_passes']} traced passes of {result['calls_per_pass']} calls")
    print(f"   python {env['python']}, numpy {env['numpy']}, "
          f"big-int backend {'gmpy2' if env['gmpy2'] else 'int (no gmpy2)'}, nproc {env['nproc']}, "
          f"int_max_str_digits {env['int_max_str_digits']}")
    print(f"   stdout sha256 {' '.join(result['stdout_sha256'])}")
    raw = result["raw_metrics"]
    if raw:
        print(f"   host slowdown {raw['setup_host_slowdown']:.4f} at set-up,"
              f" {statistics.median(raw['pass_host_slowdowns']):.4f} (median) in the passes;"
              " times are divided by it (raw values in brackets)")
    for name, value in result["metrics"].items():
        print(f"   {name:42s} {value:14.6g} {units[name]:6s}" + (f" [{raw[name]:.6g}]" if raw else ""))
    print(f"   {'fail_ratio':42s} {result['fail_ratio']:14.6g} ratio"
          f" ({result['failed']} of {result['attempted']} calls)")
    for failure in result["failures"]:
        print(f"   FAILED {failure}")
    if not result["deterministic"]:
        print("   FAILED passes printed different stdout bytes")
    shown = result["median_traced_pass"]
    if shown:
        wall = shown["wall_s"]
        print(f"   layers of the median traced pass ({wall:.4f} s), by self time:")
        print(f"     {'layer':44s} {'calls':>8s} {'busy s':>9s} {'self s':>9s}  busy%  self%")
        for name, stat in sorted(shown["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"     {name:44s} {stat['calls']:8d} {stat['s']:9.4f} {stat['self_s']:9.4f}"
                  f"  {stat['s'] / wall:5.1%} {stat['self_s'] / wall:5.1%}")
    print(json.dumps({"report": {k: v for k, v in result.items() if k != "median_traced_pass"}}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload sizes, for the benchmark's self-tests")
    args = parser.parse_args(argv)
    if not (SRC / "multiderange" / "cli.py").is_file():
        print(f"error: {SRC / 'multiderange'} not found; run from a multiderange checkout",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    WORK_DIR.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        results = [
            run_workload(w, args.seed, args.seconds, bool(args.trace), args.smoke, rundir / w)
            for w in workloads
        ]
    except (WorkerError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    for result in results:
        print_report(result, units)

    correct = all(r["failed"] == 0 and r["deterministic"] for r in results)
    metrics = {}
    for r in results:
        prefix = f"{r['workload']}." if len(results) > 1 else ""
        metrics.update({prefix + name: {"value": v, "unit": units[name]} for name, v in r["metrics"].items()})
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
