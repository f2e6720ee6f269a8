"""Host-speed reference: fixed work that shares no code with multiderange.

The hosts this benchmark runs on are shared, and their speed drifts by up
to half for minutes at a time, for every kind of work at once.  Each
worker times these kernels next to its timed loop, and run.py scales the
end-to-end times of a run by REFERENCE_NOMINAL_S / (median kernel time of
that run).  A slower program still reads slower; a slower host mostly
does not.

The kernels mirror the program's kinds of work, about 10 ms each on the
host the benchmark was written on: bytecode interpretation, a big-integer
multiply, int -> decimal text, and numpy int64 arithmetic.
"""
from __future__ import annotations

import time

# Median of reference_seconds() on an uncontended 2-vCPU Xeon VM (Python
# 3.11.7, numpy 2.4.6), so scaled times read as seconds on that host.
REFERENCE_NOMINAL_S = 0.035

_BIG = 3 ** 150_000
_TEXT = 7 ** 4_700  # 3,972 digits: under the interpreter's default str() limit


def reference_seconds() -> float:
    """Wall time of one round of the four kernels."""
    began = time.perf_counter()
    acc = 0
    for i in range(120_000):
        acc = (acc * 31 + i) % 1_000_003
    _ = _BIG * (_BIG + 1)
    for _ in range(30):
        str(_TEXT)
    import numpy as np  # here, so that importing this module loads no numpy

    m = np.arange(300 * 300, dtype=np.int64).reshape(300, 300) % 1000
    for _ in range(20):
        m = (m * 7 + m[:, ::-1]) % 2_147_483_647
    return time.perf_counter() - began
