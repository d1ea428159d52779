"""Seeded random constructions used by experiments and self-tests.

All randomness flows through an explicitly keyed counter-based generator
(Philox) so that any run is reproducible from its integer seed.

Chart m-planes and the points on them are drawn as blocks.  A block takes
each kind of draw for all of its samples in one generator call, checks the
samples against the chart box on the stack, and redraws the rejects after
the whole block, a sub-block at a time, until none is left; a Gaussian
direction that is rank-deficient is redrawn after its block, as
:func:`grassmann.orthonormal_draws` does.  The arrays returned are the ones
the box check read.  The object constructors are blocks of one, so they
make the generator calls of one sample drawn alone.
"""

from __future__ import annotations

import numpy as np

from . import grassmann, linalg
from .affine import AffinePlane, ChartMPlane, ChartPoint, off_directions


def rng_for(*key: int) -> np.random.Generator:
    """Philox generator keyed by a tuple of integers."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))


def _outside(coords: np.ndarray) -> np.ndarray:
    """Which of the N chart arrays (N, a, q) has an entry outside [-1, 1]."""
    return np.max(np.abs(coords), axis=(1, 2), initial=0.0) > 1.0


def random_chart_m_planes(rng: np.random.Generator, count: int, l: int, m: int, n: int,
                          offset_scale: float = 0.6) -> tuple[np.ndarray, np.ndarray]:
    """Section bases (count, q, r) and offsets (count, l+1, q) of ``count``
    chart m-planes whose sections meet the chart box.

    A block is one Gaussian direction block (count, q, r) through
    :func:`grassmann.orthonormal_draws`, then one uniform block of raw
    offsets in [-offset_scale, offset_scale], projected off the direction
    twice, as :class:`ChartMPlane` projects them.  A plane whose offsets
    leave the box is redrawn, direction and offsets, after the block."""
    q, r = n - l, m - l
    bases, offsets = np.empty((count, q, r)), np.empty((count, l + 1, q))
    todo = np.arange(count)
    while todo.size:
        b = grassmann.random_subspaces(rng, todo.size, q, r)
        raw = rng.uniform(-offset_scale, offset_scale, size=(todo.size, l + 1, q))
        o = off_directions(b, off_directions(b, raw))
        bases[todo], offsets[todo] = b, o
        todo = todo[_outside(o)]
    return bases, offsets


def random_points_on(rng: np.random.Generator, bases: np.ndarray, offsets: np.ndarray,
                     spread: float = 0.5) -> np.ndarray:
    """Chart coordinates (N, l+1, q) of a point on each of the chart
    m-planes with section bases ``bases`` (N, q, r) and offsets ``offsets``
    (N, l+1, q): offsets[j] + basis @ t_j for one uniform block of steps t
    (N, l+1, r) in [-spread, spread].  A point that leaves the box is
    redrawn after the block."""
    points = np.empty_like(offsets)
    todo = np.arange(len(offsets))
    while todo.size:
        steps = rng.uniform(-spread, spread, size=(todo.size, offsets.shape[1], bases.shape[2]))
        p = offsets[todo] + np.swapaxes(bases[todo] @ np.swapaxes(steps, 1, 2), 1, 2)
        points[todo] = p
        todo = todo[_outside(p)]
    return points


def random_chart_m_plane(rng: np.random.Generator, l: int, m: int, n: int,
                         offset_scale: float = 0.6) -> ChartMPlane:
    """Random chart m-plane with sections meeting the chart box."""
    bases, offsets = random_chart_m_planes(rng, 1, l, m, n, offset_scale)
    return ChartMPlane.view(bases[0], linalg.frozen(offsets[0]))


def random_point_on(rng: np.random.Generator, plane: ChartMPlane,
                    spread: float = 0.5) -> ChartPoint:
    """Chart point incident to ``plane`` (exactly, up to rounding); a point
    outside the chart box is redrawn."""
    return ChartPoint(random_points_on(rng, plane.direction.basis[None],
                                       plane.offsets[None], spread)[0])


def random_chart_point(rng: np.random.Generator, l: int, n: int,
                       scale: float = 1.0) -> ChartPoint:
    """Chart coordinates (l+1, n-l), uniform in [-scale, scale]."""
    return ChartPoint(rng.uniform(-scale, scale, size=(l + 1, n - l)))


def random_affine_plane(rng: np.random.Generator, ambient: int, dim: int,
                        offset_scale: float = 0.4) -> AffinePlane:
    """Random affine plane: a uniform direction, then an offset drawn in
    [-offset_scale, offset_scale]^ambient and made orthogonal to it."""
    return AffinePlane(grassmann.random_subspace(rng, ambient, dim),
                       rng.uniform(-offset_scale, offset_scale, size=ambient))
