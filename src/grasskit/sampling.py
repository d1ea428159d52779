"""Seeded random constructions used by experiments and self-tests.

All randomness flows through an explicitly keyed counter-based generator
(Philox) so that any run is reproducible from its integer seed.

Each construction is split in two.  Its draw (the ``*_draw`` helpers)
makes only the generator calls of one sample and its redraw decisions, and
returns the raw draws; its derivation (``chart_m_planes``, ``points_on``,
``linalg.orthonormalize_stack``) turns a stack of raw draws into bases,
offsets and points.  A batched caller loops over the draws alone and
derives once on stacks; the object constructors are the same draw and
derivation on a stack of one, so both forms take the same stream and give
the same bits.

Most redraw decisions are settled by a bound on the raw draws, with a
margin far above rounding; only a draw the bound cannot settle is derived
on a stack of one and checked exactly.
"""

from __future__ import annotations

import math

import numpy as np

from . import grassmann, linalg
from .affine import AffinePlane, ChartMPlane, ChartPoint, chart_offsets, off_directions

# a bound within this of 1 settles a chart-box decision without the exact check
BOX_MARGIN = 1e-9
# a Gaussian line draw with an entry above this has full rank
LINE_FLOOR = 1e-100


def rng_for(*key: int) -> np.random.Generator:
    """Philox generator keyed by a tuple of integers."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))


def _norms(rows: np.ndarray) -> list[float]:
    return [math.hypot(*row) for row in rows.tolist()]


def gaussian_draw(rng: np.random.Generator, ambient: int, dim: int) -> np.ndarray:
    """One Gaussian (ambient, dim) draw of a subspace basis, redrawn while
    rank-deficient, as ``grassmann.random_subspaces(rng, 1, ambient, dim)``
    draws it."""
    while True:
        x = rng.standard_normal((1, ambient, dim))
        if ((dim == 1 and max(map(abs, x.ravel().tolist())) > LINE_FLOOR)
                or linalg.orthonormalize_stack(x)[1].all()):
            return x[0]


def chart_m_planes(x: np.ndarray, raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Section bases (N, q, r) and offsets (N, l+1, q) of the chart m-planes
    drawn as Gaussian direction draws ``x`` (N, q, r) and raw offsets
    ``raw`` (N, l+1, q): the raw offsets projected off the direction, then
    once more by :func:`affine.chart_offsets`, as :class:`ChartMPlane`
    does (a rounding-size move)."""
    bases = linalg.orthonormalize_stack(x)[0]
    return bases, chart_offsets(bases, off_directions(bases, raw))


def chart_m_plane_draw(rng: np.random.Generator, l: int, m: int, n: int,
                       offset_scale: float = 0.6) -> tuple[np.ndarray, np.ndarray]:
    """The raw draws (x, raw) of one chart m-plane whose sections meet the
    chart box; a draw whose projected offsets leave the box is redrawn.

    A projection does not lengthen a row, so raw rows shorter than 1 keep
    the projected offsets in the box."""
    while True:
        x = gaussian_draw(rng, n - l, m - l)
        raw = rng.uniform(-offset_scale, offset_scale, size=(l + 1, n - l))
        if max(_norms(raw)) <= 1.0 - BOX_MARGIN:
            return x, raw
        bases = linalg.orthonormalize_stack(x[None])[0]
        if np.max(np.abs(off_directions(bases, raw[None]))) <= 1.0:
            return x, raw


def random_chart_m_plane(rng: np.random.Generator, l: int, m: int, n: int,
                         offset_scale: float = 0.6) -> ChartMPlane:
    """Random chart m-plane with sections meeting the chart box."""
    x, raw = chart_m_plane_draw(rng, l, m, n, offset_scale)
    bases, offsets = chart_m_planes(x[None], raw[None])
    return ChartMPlane.view(bases[0], linalg.frozen(offsets[0]))


def points_on(bases: np.ndarray, offsets: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Chart coordinates (N, l+1, q) of the points offsets[j] + basis @
    steps[j] on the chart m-planes with section bases ``bases`` (N, q, r)
    and offsets ``offsets`` (N, l+1, q); ``steps`` is (N, l+1, r)."""
    return offsets + np.swapaxes(bases @ np.swapaxes(steps, 1, 2), 1, 2)


def _steps_draw(rng, norms, reach: float, r: int, spread: float, exact) -> np.ndarray:
    """Steps (l+1, r) of one point on a chart m-plane, a row per section,
    redrawn while the point leaves the chart box.  Entry i of row j is at
    most norms[j] + reach * |steps[j]| when ``norms`` bound the offset rows'
    lengths and ``reach`` the basis rows' lengths; a point whose bound
    misses the box edge is checked by ``exact(steps)``."""
    while True:
        steps = np.array([rng.uniform(-spread, spread, size=r) for _ in norms])
        if (max(a + reach * math.hypot(*t) for a, t in zip(norms, steps.tolist()))
                <= 1.0 - BOX_MARGIN or exact(steps)):
            return steps


def _inside(bases, offsets, steps) -> bool:
    return bool(np.max(np.abs(points_on(bases, offsets, steps[None]))) <= 1.0)


def point_on_draw(rng: np.random.Generator, x: np.ndarray, raw: np.ndarray,
                  spread: float = 0.5) -> np.ndarray:
    """Steps (l+1, r) of a point on the chart m-plane drawn as (x, raw) by
    :func:`chart_m_plane_draw`, before the plane is derived.  The raw rows
    bound the offset rows; a line's basis rows are its entries over its
    length, and no basis row is longer than 1."""
    r = x.shape[1]
    reach = 1.0
    if r == 1:
        xs = x.ravel().tolist()
        reach = max(map(abs, xs)) / math.hypot(*xs)
    return _steps_draw(rng, _norms(raw), reach, r, spread,
                       lambda steps: _inside(*chart_m_planes(x[None], raw[None]), steps))


def random_point_on(rng: np.random.Generator, plane: ChartMPlane,
                    spread: float = 0.5) -> ChartPoint:
    """Chart point incident to ``plane`` (exactly, up to rounding); a point
    outside the chart box is redrawn."""
    basis, offsets = plane.direction.basis, plane.offsets
    steps = _steps_draw(rng, _norms(offsets), max(_norms(basis)), basis.shape[1], spread,
                        lambda steps: _inside(basis[None], offsets[None], steps))
    return ChartPoint(points_on(basis[None], offsets[None], steps[None])[0])


def chart_point_draw(rng: np.random.Generator, l: int, n: int,
                     scale: float = 1.0) -> np.ndarray:
    """Chart coordinates (l+1, n-l), uniform in [-scale, scale]."""
    return rng.uniform(-scale, scale, size=(l + 1, n - l))


def random_chart_point(rng: np.random.Generator, l: int, n: int,
                       scale: float = 1.0) -> ChartPoint:
    return ChartPoint(chart_point_draw(rng, l, n, scale))


def affine_plane_draw(rng: np.random.Generator, ambient: int, dim: int,
                      offset_scale: float = 0.4) -> tuple[np.ndarray, np.ndarray]:
    """The raw draws of one random affine plane: a Gaussian direction draw
    (ambient, dim) and its offset (ambient,) as drawn, before
    :func:`affine.affine_offsets` makes it orthogonal to the direction."""
    return (gaussian_draw(rng, ambient, dim),
            rng.uniform(-offset_scale, offset_scale, size=ambient))


def random_affine_plane(rng: np.random.Generator, ambient: int, dim: int,
                        offset_scale: float = 0.4) -> AffinePlane:
    x, offset = affine_plane_draw(rng, ambient, dim, offset_scale)
    return AffinePlane(grassmann.Subspace(linalg.orthonormalize_stack(x[None])[0][0]), offset)
