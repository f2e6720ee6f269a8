"""Compare two revisions on the benchmark in alternating fresh-copy pairs.

    python3 scripts/bench_pairs.py BASE CHANGE [--workload W|all] [--pairs N]
                                   [--seconds S] [--seed S0]

BASE and CHANGE are git revisions of this repository; for uncommitted work
pass the commit that `git stash create` prints.  Pair i runs the command
of BENCHMARK.json with `--workload W --seed S0+i --seconds S` once per
side, BASE first in even pairs and CHANGE first in odd ones.  Every run
gets a fresh `git archive` copy in a temporary directory outside the
repository, deleted afterwards.

For each workload and each end-to-end metric of BENCHMARK.json it prints
both sides' median and quartiles, host-scaled and raw, and in how many
pairs CHANGE was better by the metric's `better` direction; then the
failed calls of each side and in how many pairs both sides printed the same
stdout SHA-256s.  Exits 1 when a call failed or the stdout differed.
Standard library only.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_side(revision: str, workload: str, seed: int, seconds: float) -> dict[str, dict]:
    """The report of each workload of one benchmark run on a fresh copy."""
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as copy:
        archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", revision],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", copy], stdin=archive.stdout, check=True)
        archive.stdout.close()
        if archive.wait():
            raise SystemExit(f"error: git archive {revision} failed")
        args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
        done = subprocess.run([*BENCHMARK["command"], *args], cwd=copy,
                              capture_output=True, text=True)
    reports = [json.loads(line)["report"] for line in done.stdout.splitlines()
               if line.startswith('{"report"')]
    if not reports:
        raise SystemExit(f"error: {revision} seed {seed} gave no report:\n{done.stderr}")
    return {r["workload"]: r for r in reports}


def spread(values: list[float]) -> str:
    """'median [first quartile-third quartile]' of values (inclusive method,
    so the middle value is statistics.median)."""
    if len(values) < 2:
        return f"{values[0]:.6g}"
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{q2:.6g} [{q1:.6g}-{q3:.6g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    runs = {"base": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            revision = getattr(args, side)
            print(f"pair {i + 1}/{args.pairs}: {side} {revision} seed {seed}", file=sys.stderr)
            runs[side].append(run_side(revision, args.workload, seed, args.seconds))

    clean = True
    for workload in runs["base"][0]:
        base = [r[workload] for r in runs["base"]]
        change = [r[workload] for r in runs["change"]]
        print(f"== {workload}: {args.pairs} pairs, {args.base} -> {args.change};"
              " median [quartiles], base -> change")
        for metric in BENCHMARK["end_to_end"]:
            name = metric["name"]
            scaled = [[r["metrics"][name] for r in side] for side in (base, change)]
            raw = [[r["raw_metrics"][name] for r in side] for side in (base, change)]
            lower = metric["better"] == "lower"
            wins = sum((c < b) if lower else (c > b) for b, c in zip(*scaled))
            print(f"   {name:12s} host-scaled {spread(scaled[0])} -> {spread(scaled[1])},"
                  f" change better in {wins}/{args.pairs} ({metric['better']} is better)")
            print(f"   {'':12s} raw         {spread(raw[0])} -> {spread(raw[1])}")
        failed = [sum(r["failed"] for r in side) for side in (base, change)]
        attempted = [sum(r["attempted"] for r in side) for side in (base, change)]
        same = sum(b["stdout_sha256"] == c["stdout_sha256"] for b, c in zip(base, change))
        print(f"   failed calls: base {failed[0]} of {attempted[0]},"
              f" change {failed[1]} of {attempted[1]}")
        print(f"   same stdout SHA-256s in {same}/{args.pairs} pairs"
              f" (change: {' '.join(sorted({d for r in change for d in r['stdout_sha256']}))})")
        clean = clean and not any(failed) and same == args.pairs
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
