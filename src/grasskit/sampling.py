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

A redraw decision is settled without the stacked derivation where floats
suffice.  A plane is kept when its raw offset rows are shorter than 1 (a
projection does not lengthen a row).  A point is decided from a float
estimate of itself, computed from the raw draws and within a few ulps of
the derived point: an estimate whose largest entry is at least
``BOX_MARGIN`` inside the box keeps the draw, one at least ``BOX_MARGIN``
outside redraws it, and only one in between is derived on a stack of one
and checked exactly.
"""

from __future__ import annotations

import math
from operator import mul

import numpy as np

from . import grassmann, linalg
from .affine import AffinePlane, ChartMPlane, ChartPoint, chart_offsets, off_directions

# a bound or estimate this far from 1 settles a chart-box decision without
# the exact check
BOX_MARGIN = 1e-9
# a Gram-Schmidt residual below this fraction of its column leaves the float
# basis of point_on_draw too far from the derived one; that plane is derived
# first
RESIDUAL_FLOOR = 1e-4
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


def _steps_draw(rng, cols, offsets, spread: float, exact) -> np.ndarray:
    """Steps (l+1, r) of one point on a chart m-plane, a row per section,
    redrawn while the point leaves the chart box.  ``cols`` (r lists of q
    floats) and ``offsets`` (l+1 lists of q) are the plane's basis columns
    and offset rows in floats, within a few ulps of the arrays the point is
    derived from.  The point they give settles a draw whose largest entry is
    at least ``BOX_MARGIN`` from 1; ``exact(steps)`` decides the rest."""
    while True:
        draws = [rng.uniform(-spread, spread, size=len(cols)) for _ in offsets]
        top = 0.0
        for point, d in zip(offsets, draws):
            for t, e in zip(d.tolist(), cols):
                point = [a + t * b for a, b in zip(point, e)]
            top = max(top, *map(abs, point))
        if top <= 1.0 - BOX_MARGIN or (top < 1.0 + BOX_MARGIN and exact(np.array(draws))):
            return np.array(draws)


def _inside(bases, offsets, steps) -> bool:
    return bool(np.max(np.abs(points_on(bases, offsets, steps[None]))) <= 1.0)


def _off(v: list[float], cols: list[list[float]]) -> list[float]:
    """``v`` minus its projections on the orthonormal ``cols``, one at a time."""
    for e in cols:
        c = sum(map(mul, e, v))
        v = [a - c * b for a, b in zip(v, e)]
    return v


def _float_frame(x: np.ndarray, raw: np.ndarray):
    """The basis columns and offset rows of :func:`chart_m_planes` of one
    draw (x, raw), computed in floats: Gram-Schmidt of the columns of ``x``
    with a second pass, and the raw rows projected off the basis.  None when
    a residual falls below ``RESIDUAL_FLOOR`` times its column's length,
    where rounding in the floats could grow past ``BOX_MARGIN``."""
    cols = []
    for col in x.T.tolist():
        v = _off(_off(col, cols), cols)
        norm = math.hypot(*v)
        if cols and norm < RESIDUAL_FLOOR * math.hypot(*col):
            return None
        cols.append([a / norm for a in v])
    return cols, [_off(row, cols) for row in raw.tolist()]


def point_on_draw(rng: np.random.Generator, x: np.ndarray, raw: np.ndarray,
                  spread: float = 0.5) -> np.ndarray:
    """Steps (l+1, r) of a point on the chart m-plane drawn as (x, raw) by
    :func:`chart_m_plane_draw`, before the plane is derived.  Each try is
    decided from the float frame of :func:`_float_frame`; the plane is
    derived on a stack of one at most once, for a try that the floats leave
    within ``BOX_MARGIN`` of the box edge (or up front when the draw is too
    close to rank-deficient for the floats)."""
    derived = []

    def exact(steps):
        if not derived:
            derived.extend(chart_m_planes(x[None], raw[None]))
        return _inside(*derived, steps)

    frame = _float_frame(x, raw)
    if frame is None:
        derived.extend(chart_m_planes(x[None], raw[None]))
        frame = derived[0][0].T.tolist(), derived[1][0].tolist()
    return _steps_draw(rng, *frame, spread, exact)


def random_point_on(rng: np.random.Generator, plane: ChartMPlane,
                    spread: float = 0.5) -> ChartPoint:
    """Chart point incident to ``plane`` (exactly, up to rounding); a point
    outside the chart box is redrawn."""
    basis, offsets = plane.direction.basis, plane.offsets
    steps = _steps_draw(rng, basis.T.tolist(), offsets.tolist(), spread,
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
