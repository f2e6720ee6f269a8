#!/usr/bin/env python3
"""Record the recurrence guesser's output on a seeded corpus of inputs.

The corpus reaches cases the uniform-family pins do not: zero-heavy and
interleaved-zero sequences, zero prefixes, polynomial multiples with zeros
at their roots, periodic sequences times (n+1), and perturbed tails, over
offsets 0-4, order caps 1-4 and degree caps 0-4.  Several of these have
accepted candidates whose nullspace has dimension 2 or more, where the
choice of basis vector decides the printed recurrence.

Each case stores its input (terms, offset, caps) with the recurrence JSON
or the name of the exception the guesser raised.  The data is meant to be
recorded once, from a known-good revision, and replayed by
tests/test_recurrences.py::TestGuessCorpus; recording it again from the
code under test would pin whatever that code does.

    PYTHONPATH=src python scripts/record_guess_corpus.py > tests/data/guess_corpus.json
"""
from __future__ import annotations

import json
import math
import random
import sys

from multiderange.counting import classic_derangement
from multiderange.errors import InsufficientData, RecurrenceNotFound
from multiderange.recurrences import guess_recurrence, recurrence_to_json
from multiderange.sequences import SequenceSlice

SEED = 20261018


def zero_heavy(rng: random.Random, length: int) -> list[int]:
    """Mostly zeros: an all-zero run, sparse small values, or one spike."""
    kind = rng.randrange(3)
    if kind == 0:
        return [0] * length
    if kind == 1:
        return [rng.choice((0, 0, 0, 0, 1, -1, 2)) for _ in range(length)]
    terms = [0] * length
    terms[rng.randrange(length)] = rng.choice((1, -3, 7))
    return terms


def interleaved_zeros(rng: random.Random, length: int) -> list[int]:
    """A geometric, factorial-like or derangement sequence with zeros between
    its terms."""
    gap = rng.choice((2, 3))
    base = rng.randrange(3)
    terms = []
    for n in range(length):
        m, rest = divmod(n, gap)
        if rest:
            terms.append(0)
        elif base == 0:
            terms.append(3**m)
        elif base == 1:
            terms.append(math.factorial(m))
        else:
            terms.append(classic_derangement(m))
    return terms


def zero_prefix_geometric(rng: random.Random, length: int) -> list[int]:
    zeros = rng.randrange(1, 5)
    ratio = rng.choice((2, -2, 3, 5))
    scale = rng.choice((1, 2, -1))
    return [0] * zeros + [scale * ratio**n for n in range(length - zeros)]


def polynomial_times_power(rng: random.Random, length: int) -> list[int]:
    """(n - a)(n - b) 2^n or (n - a) 3^n: zeros at the polynomial's roots."""
    a, b = rng.randrange(1, 8), rng.randrange(2, 10)
    if rng.randrange(2):
        return [(n - a) * (n - b) * 2**n for n in range(length)]
    return [(n - a) * 3**n for n in range(length)]


def periodic_times_linear(rng: random.Random, length: int) -> list[int]:
    period = [rng.randrange(-2, 3) for _ in range(rng.choice((2, 3, 4)))]
    if not any(period):
        period[0] = 1
    return [(n + 1) * period[n % len(period)] for n in range(length)]


def central_binomials(length: int) -> list[int]:
    return [math.comb(2 * n, n) for n in range(length)]


def perturbed_tail(rng: random.Random, length: int) -> list[int]:
    base = rng.randrange(3)
    if base == 0:
        terms = [2**n for n in range(length)]
    elif base == 1:
        terms = [classic_derangement(n) for n in range(length)]
    else:
        terms = central_binomials(length)
    for i in range(rng.randrange(1, 4)):
        terms[-1 - i] += rng.choice((-1, 1)) * rng.randrange(1, 1000)
    return terms


FAMILIES = {
    "zero_heavy": zero_heavy,
    "interleaved_zeros": interleaved_zeros,
    "zero_prefix_geometric": zero_prefix_geometric,
    "polynomial_times_power": polynomial_times_power,
    "periodic_times_linear": periodic_times_linear,
    "perturbed_tail": perturbed_tail,
}

CASES_PER_FAMILY = 25


def guessed(terms: list[int], offset: int, max_order: int, max_degree: int) -> str:
    try:
        rec = guess_recurrence(SequenceSlice(offset, tuple(terms)), max_order, max_degree)
    except (InsufficientData, RecurrenceNotFound) as exc:
        return type(exc).__name__
    return recurrence_to_json(rec)


def main() -> None:
    rng = random.Random(SEED)
    cases = []
    for family, make in FAMILIES.items():
        for _ in range(CASES_PER_FAMILY):
            max_order, max_degree = rng.randrange(1, 5), rng.randrange(5)
            # Long enough for every candidate under the caps, some a little short.
            needed = (max_order + 1) * (max_degree + 1) + max_order + 10
            length = needed + rng.randrange(-3, 15)
            terms = make(rng, length)
            offset = rng.randrange(5)
            cases.append({
                "family": family,
                "offset": offset,
                "max_order": max_order,
                "max_degree": max_degree,
                "terms": terms,
                "expected": guessed(terms, offset, max_order, max_degree),
            })
    sys.stdout.write("[\n" + ",\n".join(json.dumps(case) for case in cases) + "\n]\n")


if __name__ == "__main__":
    main()
