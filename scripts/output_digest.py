#!/usr/bin/env python3
"""Print a digest of the command line's output over a fixed grid of calls.

Each line is one call: its argv, its exit code, and the SHA-256 of its
stdout and of its stderr, tab-separated.  Running the script on two
revisions and diffing the two listings shows whether a change kept every
output byte-identical:

    PYTHONPATH=src python scripts/output_digest.py > after.txt
    PYTHONPATH=/path/to/other/checkout/src python scripts/output_digest.py > before.txt
    diff before.txt after.txt

The multiderange found on the path is the one measured; the guess inputs
are read from this checkout's tests/data/guess_corpus.json.  The grid:

  - table, fixed k 0-9 and fixed n 0-6 up to 25, each with the default seed,
    --seed 0, --seed 30 and --no-fallback, in all three formats;
  - table --fixed k --value 4 --upto 150, and fixed n 3 and fixed n 4 up to
    100 in all three formats: each extends a guessed recurrence;
  - table, fixed k 5 up to 100 in all three formats, where the guess fails
    and the rest is computed directly, and with --no-fallback (exit 3);
  - table, fixed k 3 up to 100, and fixed k 4 up to 150 from a seed of 85,
    in all three formats: fixed-k tables that guess by the full scan, one
    below k = 4 and one with a seed short of the minimal-order shape;
  - guess on every input of the guess corpus, at its caps;
  - multi, prob, derange and deck in each of their formats;
  - oeis-check on the five bundled ids, at the k each one publishes and at
    the next k (a mismatch).

Calls run in-process through cli.main, in a temporary working directory
with the network switched off, so paths in the output are the same on
every run.  The exit code is main's return value, or the code of the
SystemExit that argparse raises on a usage error.  `listing()` yields the
same lines, in the current directory.

tests/data/output_digest.txt pins the listing, and
tests/test_output_digest.py compares it line by line.  A change meant to
alter some output records the file again with this script and names each
changed line.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import tempfile
from pathlib import Path
from typing import Iterator

from multiderange.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "tests" / "data" / "guess_corpus.json"

# Bundled b-files and the k whose fixed-k column each one publishes.
BUNDLED_FIXED_K = {"A000166": 1, "A000459": 2, "A059073": 3, "A059074": 4, "A123297": 5}

MULTISETS = ((1,), (2, 2), (1, 2, 3), (4, 4, 4, 4), (3,) * 10, tuple(range(1, 13)))
FORMATS = ("plain", "bfile", "structured")


def grid(corpus: list[dict]) -> list[list[str]]:
    """Every call of the grid, in order; the guess calls name files
    guess_000.txt, ... in the working directory."""
    calls = []
    columns = [("k", value) for value in range(10)] + [("n", value) for value in range(7)]
    for fixed, value in columns:
        for variant in ([], ["--seed", "0"], ["--seed", "30"], ["--no-fallback"]):
            for fmt in FORMATS:
                calls.append(["table", "--fixed", fixed, "--value", str(value), "--upto", "25",
                              *variant, "--format", fmt])
    calls.append(["table", "--fixed", "k", "--value", "4", "--upto", "150"])
    for fixed, value in (("n", 3), ("n", 4), ("k", 5)):
        calls += [["table", "--fixed", fixed, "--value", str(value), "--upto", "100",
                   "--format", fmt] for fmt in FORMATS]
    calls.append(["table", "--fixed", "k", "--value", "5", "--upto", "100", "--no-fallback"])
    calls += [["table", "--fixed", "k", "--value", "3", "--upto", "100", "--format", fmt]
              for fmt in FORMATS]
    calls += [["table", "--fixed", "k", "--value", "4", "--upto", "150", "--seed", "85",
               "--format", fmt] for fmt in FORMATS]
    for i, case in enumerate(corpus):
        calls.append(["guess", "--terms-file", f"guess_{i:03d}.txt",
                      "--max-order", str(case["max_order"]),
                      "--max-degree", str(case["max_degree"])])
    for n in (0, 1, 5, 20, 100):
        calls += [["derange", str(n), "--format", fmt] for fmt in FORMATS]
    for multiset in MULTISETS:
        counts = [str(a) for a in multiset]
        calls += [["multi", *counts, "--format", fmt] for fmt in FORMATS]
        calls += [["prob", *counts, "--format", fmt] for fmt in ("plain", "structured")]
    calls += [["deck", "--format", fmt] for fmt in FORMATS]
    for sequence_id, k in BUNDLED_FIXED_K.items():
        for value in (k, k + 1):
            for fmt in ("plain", "structured"):
                calls.append(["oeis-check", "--id", sequence_id, "--fixed", "k",
                              "--value", str(value), "--count", "30",
                              "--cache-dir", "oeis-cache", "--format", fmt])
    return calls


def run(argv: list[str]) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue().encode()


def listing() -> Iterator[str]:
    """The digest's lines, one per call of the grid, without newlines.

    The calls run in the current working directory, which gets the guess
    input files; the caller sets MULTIDERANGE_OFFLINE and the directory.
    """
    corpus = json.loads(CORPUS.read_text())
    for i, case in enumerate(corpus):
        Path(f"guess_{i:03d}.txt").write_text(
            "".join(f"{case['offset'] + n} {t}\n" for n, t in enumerate(case["terms"]))
        )
    for argv in grid(corpus):
        code, out, err = run(argv)
        yield "\t".join([shlex.join(argv), str(code), hashlib.sha256(out).hexdigest(),
                         hashlib.sha256(err).hexdigest()])


def digest() -> None:
    os.environ["MULTIDERANGE_OFFLINE"] = "1"
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        for line in listing():
            print(line, flush=True)


if __name__ == "__main__":
    digest()
