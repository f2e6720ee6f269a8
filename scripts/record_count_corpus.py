#!/usr/bin/env python3
"""Record multiset derangement counts on shapes on both sides of the
counting dispatch rule.

`multiset_derangement` takes one of three routes to the product Q of the
scaled Laguerre factors: one packed big-integer product when that integer
has at most 2^16 bits, and past that a coefficient recurrence when few
distinct multiplicities repeat many times, and a balanced product tree
otherwise.  The shapes here sit on both sides of that rule and on its
edges: the deck, 500 fours, a thousand fours, (1..10) x 20, [40] x 8 and
[10] x 8; the sum of distinct multiplicities at 63 and 64; the total at 8
times that sum and one below it; single groups of 7 and 8 copies for
several multiplicities under 64; and shapes just inside and just past the
packed limit.

Each case stores its grouping, as [multiplicity, copies] pairs, with the
count's decimal text.  The data is meant to be recorded once, from a
known-good revision, and replayed by
tests/test_counting.py::TestCountCorpus; recording it again from the code
under test would pin whatever that code does.

    PYTHONPATH=src python scripts/record_count_corpus.py > tests/data/count_corpus.json
"""
from __future__ import annotations

import json
import sys

from multiderange.bigint import to_decimal
from multiderange.counting import multiset_derangement

SINGLE_GROUP_K = (1, 2, 3, 5, 9, 13, 21, 31, 47, 63)

CASES: list[tuple[str, list[list[int]]]] = [
    ("empty", []),
    ("deck", [[4, 13]]),
    ("fours_500", [[4, 500]]),
    ("fours_1000", [[4, 1000]]),
    ("one_to_ten_x20", [[a, 20] for a in range(1, 11)]),
    ("forty_x8", [[40, 8]]),
    ("ten_x8", [[10, 8]]),
    ("distinct_60", [[1, 60]]),
    ("one_to_twenty", [[a, 1] for a in range(1, 21)]),
    # The sum of distinct multiplicities at 63 and 64.
    ("r63_single", [[63, 8]]),
    ("r64_single", [[64, 8]]),
    ("r63_pair", [[30, 9], [33, 8]]),
    ("r64_pair", [[30, 9], [34, 8]]),
    # The total at 8 times that sum, and one below it.
    ("r5_q39", [[3, 11], [2, 3]]),
    ("r5_q40", [[3, 12], [2, 2]]),
    ("r8_q63", [[5, 10], [2, 6], [1, 1]]),
    ("r8_q64", [[5, 10], [2, 6], [1, 2]]),
    ("r63_q503", [[31, 9], [32, 7]]),
    ("r63_q504", [[31, 8], [32, 8]]),
]
CASES += [(f"k{k}_x{n}", [[k, n]]) for k in SINGLE_GROUP_K for n in (7, 8)]
# Just inside and just past the packed limit: exactly 2^16 bits and one
# slot more, the last threes and fours inside and the first past, and a
# pair at 8 times the sum of distinct multiplicities on each side.
CASES += [
    ("six_x16", [[6, 16]]),
    ("packed_at_limit", [[1, 3], [31, 4]]),
    ("packed_past_limit", [[1, 4], [31, 4]]),
    ("k3_x64", [[3, 64]]),
    ("k3_x65", [[3, 65]]),
    ("k4_x45", [[4, 45]]),
    ("k4_x46", [[4, 46]]),
    ("r19_q152", [[9, 8], [10, 8]]),
    ("r21_q167", [[10, 9], [11, 7]]),
    ("r21_q168", [[10, 8], [11, 8]]),
]


def main() -> None:
    cases = []
    for name, groups in CASES:
        multiplicities = [a for a, copies in groups for _ in range(copies)]
        count = multiset_derangement(multiplicities).value
        cases.append({"name": name, "groups": groups, "count": to_decimal(count)})
    sys.stdout.write("[\n" + ",\n".join(json.dumps(case) for case in cases) + "\n]\n")


if __name__ == "__main__":
    main()
