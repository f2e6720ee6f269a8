"""Benchmark worker: one fresh interpreter per plan build or per timed pass.

    python3 perfbench/worker.py prepare PLAN --workload NAME --seed N [--smoke]
    python3 perfbench/worker.py pass PLAN [--trace]

`prepare` builds the workload's inputs and expected answers (untimed) and
writes them to PLAN.  `pass` runs every call of PLAN through
`multiderange.cli.main(argv)` in this process, one after another with no
other thread, times the loop, then checks each call's output.  Both modes
print one JSON line describing the result.  `multiderange` must resolve to
the checkout's `src/` (run.py sets PYTHONPATH).
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from reference import reference_seconds
from tracing import Tracer
from workloads import build_plan, check_call

SRC = Path(__file__).resolve().parent.parent / "src"
MAX_REPORTED_FAILURES = 5
REFERENCE_SAMPLES = 3  # before and again after the timed loop


def environment() -> dict:
    """Interpreter, backend and text-conversion setup the program runs with."""
    import numpy

    import multiderange.cli

    where = Path(multiderange.cli.__file__).resolve().parent
    if where != SRC / "multiderange":
        raise SystemExit(f"multiderange was imported from {where}, not from {SRC}")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gmpy2": "gmpy2" in sys.modules,
        "nproc": len(os.sched_getaffinity(0)),
        "int_max_str_digits": sys.get_int_max_str_digits(),
    }


def run_pass(plan: dict, trace: bool = False) -> dict:
    """Time every call of the plan, then check the outputs."""
    from multiderange import cli

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    calls = plan["calls"]
    reference_s = [reference_seconds() for _ in range(REFERENCE_SAMPLES)]
    out, err = io.StringIO(), io.StringIO()
    records = []
    clock = time.perf_counter
    with redirect_stdout(out), redirect_stderr(err):
        start = clock()
        for call in calls:
            out_at, err_at = out.tell(), err.tell()
            began = clock()
            try:
                rc = cli.main(list(call["argv"]))
            except SystemExit as exc:
                rc = 0 if exc.code is None else exc.code
            except Exception as exc:  # noqa: BLE001 - a crash is a counted failure
                rc = f"{type(exc).__name__}: {exc}"
            records.append((clock() - began, rc, out_at, err_at))
        wall_s = clock() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = tracer.report() if tracer is not None else None  # before the checks call traced code
    reference_s += [reference_seconds() for _ in range(REFERENCE_SAMPLES)]

    stdout, stderr = out.getvalue(), err.getvalue()
    out_ends = [r[2] for r in records[1:]] + [len(stdout)]
    err_ends = [r[3] for r in records[1:]] + [len(stderr)]
    failures = []
    tables = fallbacks = 0
    for call, (_, rc, out_at, err_at), out_end, err_end in zip(calls, records, out_ends, err_ends):
        reason = check_call(call["expect"], rc, stdout[out_at:out_end])
        if reason is not None:
            failures.append(f"{' '.join(call['argv'][:4])} ...: {reason}")
        if call["argv"][0] == "table":
            tables += 1
            fallbacks += "guessing failed" in stderr[err_at:err_end]
    result = {
        "wall_s": wall_s,
        "op_s": [r[0] for r in records],
        "attempted": len(calls),
        "failed": len(failures),
        "failures": failures[:MAX_REPORTED_FAILURES],
        "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        "peak_rss_mb": peak_rss_mb,
        "reference_s": reference_s,
        "tables": tables,
        "table_fallbacks": fallbacks,
    }
    if layers is not None:
        result["layers"] = layers
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["prepare", "pass"])
    parser.add_argument("plan", type=Path)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    env = environment()
    if args.mode == "prepare":
        plan = build_plan(args.workload, args.seed, args.plan.parent, args.smoke)
        args.plan.write_text(json.dumps(plan))
        result = {"env": env, "calls": len(plan["calls"])}
    else:
        result = run_pass(json.loads(args.plan.read_text()), args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
