"""Machine-speed probe that puts wall times on a common scale.

On a shared VM the speed of a vCPU drifts by ±25% over minutes, and the
drift shows neither as steal time nor as a gap between CPU and wall time.
The probe is a fixed computation that never touches grasskit: a Python
loop of dict updates and small numpy products, the shape of grasskit's
hot loops, that allocates next to nothing.  A wall time ``t`` measured
next to a probe reading ``p`` (the median of its slices) is reported as ``t * (REFERENCE_S / p) ** SENSITIVITY``: an estimate of
the time the same work takes on a machine where one probe slice takes
``REFERENCE_S`` seconds.  A slower program moves that number; a slower
machine moves it much less.

The probe reacts more strongly to the machine's drift than grasskit
does.  Over 95 repetitions of ``selftest``, each next to a probe of this
kind, the spread of seven-sample medians was 0.29 unscaled, 0.11 with
exponent 1 and 0.06 with exponent 0.75.  A probe with an added sort gave
the same picture on ``selftest`` and ``sharp-planar``.  Hence
``SENSITIVITY``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.016
SENSITIVITY = 0.75
SLICES = 5

_SMALL = np.arange(24.0).reshape(6, 4)


def probe_slices(n: int = SLICES) -> list[float]:
    """Wall times of ``n`` runs of the fixed probe computation."""
    out = []
    for _ in range(n):
        counts: dict = {}
        t0 = time.perf_counter()
        for i in range(6000):
            key = (i % 251, i % 7)
            counts[key] = counts.get(key, 0) + 1
            _SMALL.T @ _SMALL
        out.append(time.perf_counter() - t0)
    return out


def scaled(wall_s: float, slices: list[float]) -> float:
    """``wall_s`` rescaled to the reference machine speed."""
    return wall_s * (REFERENCE_S / statistics.median(slices)) ** SENSITIVITY
