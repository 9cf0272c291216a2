"""Machine-speed reference for the bounded timings.

The speed of this shared machine drifts by up to a factor of two within
minutes.  The same fault-sim operation took from 0.30 s to 0.59 s across
ten consecutive runs, so medians of raw wall time could not hold to any
bound a benchmark may set.  A fixed kernel that does not touch qhinf (small
dense factorisations, einsum and Python-level loops, the mix qhinf spends
its time in) slows down by the same factor: interleaved with those
operations, the ratio of operation time to kernel time stayed within 3 %
while the operation time itself moved by 20 %.

``factor()`` times the kernel and returns NOMINAL_S divided by that time.
A wall time multiplied by the factor is in reference seconds: seconds on a
machine where the kernel takes NOMINAL_S.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.012  # kernel time that defines one reference second
REPS = 3

_RNG = np.random.default_rng(0)
_M = _RNG.normal(size=(8, 8))
_S = _M @ _M.T + 8.0 * np.eye(8)


def _kernel() -> float:
    acc = 0.0
    for i in range(400):
        c = np.linalg.cholesky(_S + i * 1e-3 * np.eye(8))
        x = np.linalg.solve(c, _M)
        acc += float(np.einsum("ij,ji->", x, x))
        acc += sum({j: 0.5 * j for j in range(20)}.values())
    return acc


def factor() -> float:
    """NOMINAL_S over the median of REPS timed kernel runs."""
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return NOMINAL_S / statistics.median(times)
