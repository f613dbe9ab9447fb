"""Host speed probe for the timed end-to-end metrics.

On a host whose physical cores are shared with other tenants, identical code
runs up to about 1.6x slower in some stretches than in others, and the
stretches last from seconds to minutes, longer than a run can average over.
Each timed call is therefore also reported at a reference speed: its
measured seconds times ``REFERENCE_BURST_S`` over the time of a fixed burst
of work sampled right before and right after the call. The burst uses NumPy
and plain Python only, never codim, so no change to codim can move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# One burst takes this long at the reference speed (about the median on a
# 2.1 GHz Xeon vCPU with BLAS pinned to one thread).
REFERENCE_BURST_S = 0.010
BURSTS_PER_SAMPLE = 4

_RNG = np.random.Generator(np.random.PCG64(0))
_X = _RNG.normal(size=(128, 64))
_W = _RNG.normal(size=(64, 64)) / 8.0


def burst() -> float:
    """Seconds taken by a fixed mix of small matmuls, elementwise ops and
    Python-level loops, the same kinds of work as the autodiff core."""
    start = time.perf_counter()
    for _ in range(150):
        h = np.maximum(_X @ _W, 0.0)
        g = (h > 0.0) * (h @ _W.T)
        [float(v) for v in g[0, :16]]
    return time.perf_counter() - start


class SpeedProbe:
    """Burst times sampled through one run."""

    def __init__(self):
        self.bursts: list[float] = []

    def sample(self) -> float:
        """Median time of a few bursts run now."""
        times = [burst() for _ in range(BURSTS_PER_SAMPLE)]
        self.bursts.extend(times)
        return statistics.median(times)

    def reference_seconds(self, seconds: float, before: float, after: float) -> float:
        """``seconds`` measured between samples ``before`` and ``after``,
        converted to the reference speed."""
        return seconds * REFERENCE_BURST_S / (0.5 * (before + after))

    @property
    def factor(self) -> float:
        """Reference speed over this run's median speed."""
        return REFERENCE_BURST_S / statistics.median(self.bursts)
