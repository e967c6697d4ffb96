"""Machine-speed calibration for the benchmark's timings.

On the shared 2-vCPU Xeon host the baselines come from, the machine runs in
(at least) two speed states that differ by about 50% and switch every 10-60 s;
a fixed amount of work then takes 0.18 s or 0.27 s of wall and of CPU time
alike, so it is not time spent descheduled.  Raw latencies of ten seeded runs
spread by 25-37% (interquartile range over median) on ``pms-asym`` for that
reason alone.

So every timed sample is paired with timings of a fixed kernel that shares no
code with varosc (a LAPACK eigh, a BLAS matrix product and an interpreted
loop), and reported at a reference speed:

    normalised = raw * REFERENCE_MS / median(kernel times around the sample)

A change to varosc cannot move the kernel, so a slower or faster program still
shows in full; only the host's state is divided out.  The raw values are kept
next to the normalised ones in every record.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# kernel time in the host's fast state, single-threaded BLAS
REFERENCE_MS = 4.0
# each sample is normalised by the median kernel time over this many
# neighbouring kernel runs on either side
WINDOW = 5

_rng = np.random.default_rng(12345)
_SYM = _rng.standard_normal((150, 150))
_SYM = _SYM + _SYM.T
_GEN = _rng.standard_normal((300, 300))


def kernel_ms() -> float:
    """Wall time (ms) of a fixed mix of LAPACK, BLAS and interpreted work."""
    start = time.perf_counter()
    np.linalg.eigh(_SYM)
    _GEN @ _GEN
    acc = 0
    for i in range(20000):
        acc += i * i
    return 1e3 * (time.perf_counter() - start)


def normalise(samples: list[float], kernel: list[float]) -> list[float]:
    """Scale samples[i], timed between kernel[i] and kernel[i + 1], to the reference speed."""
    if len(kernel) != len(samples) + 1:
        raise ValueError("need one kernel timing before each sample and one after the last")
    out = []
    for i, value in enumerate(samples):
        local = kernel[max(0, i - WINDOW):i + WINDOW + 2]
        out.append(value * REFERENCE_MS / statistics.median(local))
    return out
