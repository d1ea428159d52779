"""Seeded random constructions used by experiments and self-tests.

All randomness flows through an explicitly keyed counter-based generator
(Philox) so that any run is reproducible from its integer seed.

Each construction draws one sample as arrays (the ``*_arrays`` helpers),
so a batched caller can loop over the draws alone and evaluate on stacks;
the object constructors are views of one draw and take the same stream.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .affine import AffinePlane, ChartMPlane, ChartPoint
from .grassmann import Subspace, random_subspaces


def rng_for(*key: int) -> np.random.Generator:
    """Philox generator keyed by a tuple of integers."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))


def chart_m_plane_arrays(rng: np.random.Generator, l: int, m: int, n: int,
                         offset_scale: float = 0.6) -> tuple[np.ndarray, np.ndarray]:
    """One random chart m-plane with sections meeting the chart box: its
    section direction basis (n-l, m-l) and offsets (l+1, n-l), as
    :class:`ChartMPlane` holds them.  A draw whose projected offsets leave
    the box is redrawn."""
    def off_direction(rows):
        return rows - (basis @ (basis.T @ rows.T)).T

    while True:
        basis = random_subspaces(rng, 1, n - l, m - l)[0]
        o = off_direction(rng.uniform(-offset_scale, offset_scale, size=(l + 1, n - l)))
        if np.max(np.abs(o)) <= 1.0:
            # projected once more, as ChartMPlane does: the bits of
            # chart_offsets on a stack of one, whose box check a second
            # projection (a rounding-size move) cannot fail
            return basis, off_direction(o)


def random_chart_m_plane(rng: np.random.Generator, l: int, m: int, n: int,
                         offset_scale: float = 0.6) -> ChartMPlane:
    """Random chart m-plane with sections meeting the chart box."""
    basis, offsets = chart_m_plane_arrays(rng, l, m, n, offset_scale)
    return ChartMPlane.view(basis, linalg.frozen(offsets))


def point_on_arrays(rng: np.random.Generator, basis: np.ndarray, offsets: np.ndarray,
                    spread: float = 0.5) -> np.ndarray:
    """Chart coordinates (l+1, n-l) of a point incident to the chart m-plane
    with section basis ``basis`` and offsets ``offsets`` (exactly, up to
    rounding); a point outside the chart box is redrawn."""
    while True:
        coords = np.zeros(offsets.shape)
        for j in range(len(offsets)):
            t = rng.uniform(-spread, spread, size=basis.shape[1])
            coords[j] = offsets[j] + basis @ t
        if np.max(np.abs(coords)) <= 1.0:
            return coords


def random_point_on(rng: np.random.Generator, plane: ChartMPlane,
                    spread: float = 0.5) -> ChartPoint:
    """Chart point incident to ``plane`` (exactly, up to rounding)."""
    return ChartPoint(point_on_arrays(rng, plane.direction.basis, plane.offsets, spread))


def chart_point_arrays(rng: np.random.Generator, l: int, n: int,
                       scale: float = 1.0) -> np.ndarray:
    """Chart coordinates (l+1, n-l), uniform in [-scale, scale]."""
    return rng.uniform(-scale, scale, size=(l + 1, n - l))


def random_chart_point(rng: np.random.Generator, l: int, n: int,
                       scale: float = 1.0) -> ChartPoint:
    return ChartPoint(chart_point_arrays(rng, l, n, scale))


def affine_plane_arrays(rng: np.random.Generator, ambient: int, dim: int,
                        offset_scale: float = 0.4) -> tuple[np.ndarray, np.ndarray]:
    """One random affine plane: its direction basis (ambient, dim) and its
    offset (ambient,) as drawn, before :func:`affine.affine_offsets` makes
    it orthogonal to the direction."""
    return (random_subspaces(rng, 1, ambient, dim)[0],
            rng.uniform(-offset_scale, offset_scale, size=ambient))


def random_affine_plane(rng: np.random.Generator, ambient: int, dim: int,
                        offset_scale: float = 0.4) -> AffinePlane:
    basis, offset = affine_plane_arrays(rng, ambient, dim, offset_scale)
    return AffinePlane(Subspace(basis), offset)
