#!/usr/bin/env python3
"""Regenerate the bundled OEIS b-file fixtures from local computation.

Every term that the bounded oracles can reach is cross-checked against
brute-force enumeration and the generating-function expansion before the
file is written; the k=1 file is produced from the classic first-order
recurrence rather than the Laguerre engine, so the two code paths guard
each other.  Ranges for the k=3..5 files deliberately stop where the
published entries stopped (n=12, 12, 11) so tests exercise partial-overlap
reporting.
"""
from __future__ import annotations

import sys
from pathlib import Path

from multiderange.counting import (
    brute_force_count,
    classic_derangement,
    macmahon_count,
    uniform_prefix,
)
from multiderange.sequences import SequenceSlice, format_bfile

OUT_DIR = Path(__file__).resolve().parent.parent / "src" / "multiderange" / "data" / "oeis"

# id -> (multiplicity k, last index in the file)
UNIFORM_FILES = {
    "A000459": (2, 25),
    "A059073": (3, 12),
    "A059074": (4, 12),
    "A123297": (5, 11),
}

BRUTE_LIMIT = 12  # raised beyond the default so one extra term is checked


def cross_checked_uniform(k: int, upto: int) -> list[int]:
    terms = uniform_prefix("fixed_k", k, upto + 1)
    for n, value in enumerate(terms):
        if n * k <= BRUTE_LIMIT:
            assert brute_force_count((k,) * n, limit=BRUTE_LIMIT) == value, (k, n)
        if 1 <= n <= 6 and k <= 6:
            assert macmahon_count((k,) * n) == value, (k, n)
    return terms


def write_bfile(name: str, terms: list[int]) -> None:
    path = OUT_DIR / name
    path.write_text(format_bfile(SequenceSlice(0, tuple(terms))))
    print(f"wrote {path} ({len(terms)} terms)")


def main() -> int:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    write_bfile("b000166.txt", [classic_derangement(n) for n in range(41)])
    for sequence_id, (k, upto) in UNIFORM_FILES.items():
        write_bfile(f"b{sequence_id[1:]}.txt", cross_checked_uniform(k, upto))
    return 0


if __name__ == "__main__":
    sys.exit(main())
