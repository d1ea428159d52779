"""Seeded random constructions used by experiments and self-tests.

All randomness flows through an explicitly keyed counter-based generator
(Philox) so that any run is reproducible from its integer seed.
"""

from __future__ import annotations

import numpy as np

from .affine import AffinePlane, ChartMPlane, ChartPoint
from .grassmann import random_subspace


def rng_for(*key: int) -> np.random.Generator:
    """Philox generator keyed by a tuple of integers."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))


def random_chart_m_plane(rng: np.random.Generator, l: int, m: int, n: int,
                         offset_scale: float = 0.6) -> ChartMPlane:
    """Random chart m-plane with sections meeting the chart box."""
    while True:
        w = random_subspace(rng, n - l, m - l)
        raw = rng.uniform(-offset_scale, offset_scale, size=(l + 1, n - l))
        o = raw - (w.project(raw.T)).T
        if np.max(np.abs(o)) <= 1.0:
            return ChartMPlane(w, o)


def random_point_on(rng: np.random.Generator, plane: ChartMPlane,
                    spread: float = 0.5) -> ChartPoint:
    """Chart point incident to ``plane`` (exactly, up to rounding)."""
    l = plane.l
    while True:
        coords = np.zeros((l + 1, plane.slice_dim))
        for j in range(l + 1):
            t = rng.uniform(-spread, spread, size=plane.direction.dim)
            coords[j] = plane.offsets[j] + plane.direction.basis @ t
        if np.max(np.abs(coords)) <= 1.0:
            return ChartPoint(coords)


def random_chart_point(rng: np.random.Generator, l: int, n: int,
                       scale: float = 1.0) -> ChartPoint:
    return ChartPoint(rng.uniform(-scale, scale, size=(l + 1, n - l)))


def random_affine_plane(rng: np.random.Generator, ambient: int, dim: int,
                        offset_scale: float = 0.4) -> AffinePlane:
    direction = random_subspace(rng, ambient, dim)
    return AffinePlane(direction, rng.uniform(-offset_scale, offset_scale, size=ambient))
