"""Workload definitions: generated CLI inputs, expected answers, and checks.

A plan is a JSON document listing the argv of every CLI call a pass makes,
each with the expectation its output is checked against.  Plans are built
once per benchmark run, before any timing, by `build_plan`; `check_call`
judges one call's captured output against its expectation.

`small_queries_argv` and the oracles below use the standard library only.
`build_plan` and `check_call` import `multiderange` lazily, because the
benchmark's parent process never imports the program under test.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("small_queries", "big_multi", "table_k4", "guess_k6")

# multiderange deck: 13 ranks, four suits ignored.
DECK_NUMBER = 1493804444499093354916284290188948031229880469556

# Bundled b-files that `oeis-check --fixed k --value k` matches: id -> k.
BUNDLED_FIXED_K = {
    "A000166": 1,
    "A000459": 2,
    "A059073": 3,
    "A059074": 4,
    "A123297": 5,
}

SMALL_QUERIES_CALLS = 1500
SMALL_QUERIES_MIX = (("multi", 0.45), ("prob", 0.35), ("derange", 0.10),
                     ("deck", 0.05), ("oeis-check", 0.05))

# small_queries: calls per pass; big_multi: number of fours; table_k4: (k,
# --seed, --upto, far indices checked against uniform_count); guess_k6: (k,
# seed terms, of which the last HOLDOUT are withheld from the guess input).
# The smoke sizes exist for the benchmark's self-tests.
SIZES = {
    "full": {
        "small_queries": SMALL_QUERIES_CALLS,
        "big_multi": 500,
        "table_k4": (4, 110, 1000, (150, 300)),
        "guess_k6": (6, 200),
    },
    "smoke": {
        "small_queries": 60,
        "big_multi": 120,
        "table_k4": (4, 110, 200, (150,)),
        "guess_k6": (4, 130),
    },
}

HOLDOUT = 10  # terms the guess input withholds, as `table` does


# -- input generation ------------------------------------------------------

def small_queries_argv(seed: int, cache_dir: str, calls: int = SMALL_QUERIES_CALLS) -> list[list[str]]:
    """The seeded argv list of one small_queries pass.

    The mix is exact (counts rounded from SMALL_QUERIES_MIX) and shuffled,
    so every seed does the same kinds of work in a different order and on
    different sizes.
    """
    rng = random.Random(seed)
    counts = {kind: round(calls * share) for kind, share in SMALL_QUERIES_MIX}
    counts["multi"] += calls - sum(counts.values())
    out = []
    for kind in ("multi", "prob"):
        for _ in range(counts[kind]):
            symbols = rng.randint(2, 16)
            out.append([kind] + [str(rng.randint(1, 6)) for _ in range(symbols)])
    out += [["derange", str(rng.randint(0, 300))] for _ in range(counts["derange"])]
    out += [["deck"] for _ in range(counts["deck"])]
    # The slowest calls of the mix are oeis-checks with a large k and a long
    # prefix.  Each id gets the same number of calls, with prefix lengths
    # spread evenly over 5..30, so the latency tail does not hinge on how
    # many of those a seed happens to draw.
    ids = sorted(BUNDLED_FIXED_K)
    per_id = -(-counts["oeis-check"] // len(ids))
    for j in range(counts["oeis-check"]):
        sequence_id = ids[j % len(ids)]
        count = 5 + int((j // len(ids) + rng.random()) * 26 / per_id)
        out.append(["oeis-check", "--id", sequence_id, "--fixed", "k",
                    "--value", str(BUNDLED_FIXED_K[sequence_id]),
                    "--count", str(count), "--cache-dir", cache_dir])
    rng.shuffle(out)
    return out


# -- independent oracles (no multiderange code) ------------------------------

def derangements_oracle(n: int) -> int:
    """D(n) by D(n) = (n-1)(D(n-1) + D(n-2)), a different recurrence from the
    program's."""
    a, b = 1, 0  # D(0), D(1)
    if n == 0:
        return a
    for m in range(2, n + 1):
        a, b = b, (m - 1) * (a + b)
    return b


def multiset_oracle(mults: tuple[int, ...]) -> tuple[int, int]:
    """(derangements, arrangements) of the multiset by inclusion-exclusion.

    Forcing k_i positions of block i to keep symbol i leaves
    (N-K)! / prod (a_i-k_i)! fillings, so
    D = sum_K (-1)^K (N-K)! c_K / prod a_i!  with
    c = prod_i sum_k C(a_i, k) a_i!/(a_i-k)! x^k, all in integers.
    """
    total = sum(mults)
    coeffs = [1]
    scale = 1
    for a in mults:
        factor = [math.comb(a, k) * math.perm(a, k) for k in range(a + 1)]
        grown = [0] * (len(coeffs) + a)
        for i, c in enumerate(coeffs):
            for k, f in enumerate(factor):
                grown[i + k] += c * f
        coeffs = grown
        scale *= math.factorial(a)
    signed = sum((-1) ** K * math.factorial(total - K) * c for K, c in enumerate(coeffs))
    derangements, rem = divmod(signed, scale)
    if rem:
        raise ArithmeticError(f"oracle sum not divisible for {mults}")
    return derangements, math.factorial(total) // scale


# -- plans -------------------------------------------------------------------

def build_plan(workload: str, seed: int, workdir: Path, smoke: bool = False) -> dict:
    """Generate the argv list and expectations of one workload.

    Runs before any timing.  Files the calls read are written under workdir.
    """
    from multiderange.bigint import to_decimal
    from multiderange.counting import uniform_count, uniform_fixed_k_prefix
    from multiderange.recurrences import guess_and_extend_uniform
    from multiderange.sequences import SequenceSlice, format_bfile

    size = SIZES["smoke" if smoke else "full"][workload]
    calls: list[dict] = []
    if workload == "small_queries":
        cache_dir = workdir / "oeis-cache"
        cache_dir.mkdir(parents=True, exist_ok=True)
        for argv in small_queries_argv(seed, str(cache_dir), size):
            calls.append({"argv": argv, "expect": _small_expectation(argv)})
    elif workload == "big_multi":
        extended, _ = guess_and_extend_uniform("fixed_k", 4, 110, size)
        calls.append({"argv": ["multi"] + ["4"] * size,
                      "expect": {"kind": "text", "stdout": to_decimal(extended.term(size)) + "\n"}})
    elif workload == "table_k4":
        k, seed_terms, upto, far = size
        root = Path(__file__).resolve().parent.parent
        published = (root / "src" / "multiderange" / "data" / "oeis" / "b059074.txt").read_text()
        known = {int(n): v for n, v in (line.split() for line in published.splitlines())}
        known.update({n: to_decimal(uniform_count(n, k)) for n in far})
        calls.append({"argv": ["table", "--fixed", "k", "--value", str(k), "--upto", str(upto),
                               "--seed", str(seed_terms)],
                      "expect": {"kind": "table", "lines": upto + 1,
                                 "known": {str(n): v for n, v in sorted(known.items())}}})
    elif workload == "guess_k6":
        k, count = size
        terms = uniform_fixed_k_prefix(k, count)
        shown, seed_file = workdir / "guess_terms.txt", workdir / "seed_terms.txt"
        shown.write_text(format_bfile(SequenceSlice(0, tuple(terms[:-HOLDOUT]))))
        seed_file.write_text(format_bfile(SequenceSlice(0, tuple(terms))))
        calls.append({"argv": ["guess", "--terms-file", str(shown)],
                      "expect": {"kind": "guess", "seed_terms": str(seed_file)}})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "smoke": smoke, "calls": calls}


def _small_expectation(argv: list[str]) -> dict:
    from multiderange.counting import brute_force_count

    kind = argv[0]
    if kind == "deck":
        return {"kind": "text", "stdout": f"{DECK_NUMBER}\n"}
    if kind == "derange":
        return {"kind": "text", "stdout": f"{derangements_oracle(int(argv[1]))}\n"}
    if kind == "oeis-check":
        return {"kind": "oeis_match", "id": argv[2]}
    mults = tuple(int(a) for a in argv[1:])
    derangements, arrangements = multiset_oracle(mults)
    if sum(mults) <= 10 and brute_force_count(mults) != derangements:
        raise ArithmeticError(f"oracles disagree on {mults}")
    if kind == "multi":
        return {"kind": "text", "stdout": f"{derangements}\n"}
    probability = Fraction(derangements, arrangements)
    return {"kind": "prob", "num": str(probability.numerator), "den": str(probability.denominator)}


# -- checks ------------------------------------------------------------------

def check_call(expect: dict, rc, stdout: str) -> str | None:
    """None when the call's exit code and stdout meet the expectation,
    otherwise the reason it failed."""
    if rc != 0:
        return f"exit code {rc}"
    kind = expect["kind"]
    if kind == "text":
        if stdout != expect["stdout"]:
            return f"stdout {_clip(stdout)!r} != expected {_clip(expect['stdout'])!r}"
        return None
    if kind == "prob":
        return _check_prob(expect, stdout)
    if kind == "oeis_match":
        if not stdout.startswith(f"{expect['id']}: match over "):
            return f"verdict is not match: {stdout.strip()!r}"
        return None
    if kind == "table":
        return _check_table(expect, stdout)
    if kind == "guess":
        return _check_guess(expect, stdout)
    return f"unknown expectation kind {kind!r}"


def _check_prob(expect: dict, stdout: str) -> str | None:
    exact = Fraction(int(expect["num"]), int(expect["den"]))
    try:
        fraction_text, decimal_text = stdout.rstrip("\n").split(" ≈ ")
    except ValueError:
        return f"malformed prob output {stdout!r}"
    if fraction_text != str(exact):
        return f"probability {fraction_text} != {exact}"
    approx = Fraction(decimal_text)
    if exact == 0:
        return None if approx == 0 else f"decimal {decimal_text} for 0"
    exponent = len(str(exact.numerator)) - len(str(exact.denominator))
    while Fraction(10) ** exponent > exact:
        exponent -= 1
    while Fraction(10) ** (exponent + 1) <= exact:
        exponent += 1
    # 15 significant digits, rounded: off by at most half a unit in the last.
    if abs(approx - exact) > Fraction(10) ** (exponent - 14) / 2:
        return f"decimal {decimal_text} is not {exact} to 15 digits"
    return None


def _check_table(expect: dict, stdout: str) -> str | None:
    lines = stdout.split("\n")
    if lines[-1] != "" or len(lines) - 1 != expect["lines"]:
        return f"expected {expect['lines']} newline-terminated lines, got {len(lines) - 1}"
    for n, value in expect["known"].items():
        if lines[int(n)] != value:
            return f"term {n} is {_clip(lines[int(n)])!r}, expected {_clip(value)!r}"
    return None


def _check_guess(expect: dict, stdout: str) -> str | None:
    from multiderange.recurrences import recurrence_from_json, verify_recurrence
    from multiderange.sequences import parse_bfile

    lines = stdout.splitlines()
    if len(lines) != 2:
        return f"expected a rendering and a JSON line, got {len(lines)} lines"
    try:
        rec = recurrence_from_json(lines[1])
    except (ValueError, KeyError) as exc:
        return f"unreadable recurrence JSON: {exc}"
    seed = parse_bfile(Path(expect["seed_terms"]).read_text())
    report = verify_recurrence(rec, seed)
    if not report.ok:
        return f"recurrence fails at n={report.failures[0]} of the {len(seed)} seed terms"
    return None


def _clip(text: str, limit: int = 60) -> str:
    return text if len(text) <= limit else text[:limit] + "..."
