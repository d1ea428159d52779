"""Plane-family experiments: sharp-example generation, the broad-narrow
classifier with transversality certificates, the subspace-dimension
counting functional and the counting-inequality verifier.

Families are finite separated subsets of the chart of m-planes.  Their
metric is the Euclidean metric on the feature embedding

    V  ->  (vec(P_direction)/sqrt(2), offset_0, ..., offset_l),

which is comparable to the chart metric on bounded sets (the projector
part is the chordal distance between directions).

A family of M members is held as arrays, with q = n-l and r = m-l:
``directions`` (M, q, r) orthonormal section bases and ``offsets``
(M, l+1, q) section offsets orthogonal to them.  Generation, union
sampling, the slab neighborhoods and the feature embedding work on these
arrays; ``PlaneFamily.members`` gives ``ChartMPlane`` views of the rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .affine import ChartMPlane, ChartPoint, chart_offsets, embed_tilde_stack
from .discretize import (CELL_CAP, SlabNeighborhood, GridCounter, box_count,
                         build_direction_net, cells_per_axis,
                         occupancy_mask, spacing_report, SpacingReport)
from .errors import CertificateError, InvalidInputError, ResourceCapError
from .grassmann import (Subspace, check_bases, distances, orthonormal_draws, project_stack,
                        random_subspaces)
from .params import ClassifierConstants, FamilyParams, admissible_p_max


# --------------------------------------------------------------- families

def _flat_rows(a: np.ndarray) -> np.ndarray:
    return a.reshape(a.shape[0], math.prod(a.shape[1:]))


@dataclass(frozen=True, init=False, eq=False)
class PlaneFamily:
    """A finite separated family of chart m-planes at one scale.

    The M members are held as two read-only arrays, with q = n-l and
    r = m-l: ``directions`` (M, q, r), the orthonormal bases of the section
    directions, and ``offsets`` (M, l+1, q), the section offsets, each row
    orthogonal to its direction and inside the chart box.  ``members`` is a
    tuple of ``ChartMPlane`` views of these rows, built on each access; a
    view shares its family's offsets and is not projected again.  Slab
    geometry takes the arrays: ``SlabNeighborhood(family, delta)``.
    :meth:`from_arrays` is the one constructor; :meth:`block` views a run
    of members.
    """

    params: FamilyParams
    scale: float
    directions: np.ndarray
    offsets: np.ndarray
    _features: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def from_arrays(cls, params: FamilyParams, scale: float, directions: np.ndarray,
                    offsets: np.ndarray) -> "PlaneFamily":
        """Family over stacked member arrays, checked as ``ChartMPlane``
        checks one member: the directions must be orthonormal, and the
        offsets are projected orthogonal to them and kept in the chart box."""
        q, r = params.n - params.l, params.m - params.l
        directions = np.asarray(directions, dtype=float)
        if directions.shape[1:] != (q, r) or np.shape(offsets)[1:] != (params.l + 1, q):
            raise InvalidInputError("member shapes do not match the family parameters")
        return cls._over(params, scale, linalg.frozen(check_bases(directions)),
                         linalg.frozen(chart_offsets(directions, np.asarray(offsets, dtype=float))))

    @classmethod
    def _over(cls, params: FamilyParams, scale: float, directions: np.ndarray,
              offsets: np.ndarray) -> "PlaneFamily":
        family = object.__new__(cls)
        object.__setattr__(family, "params", params)
        object.__setattr__(family, "scale", scale)
        object.__setattr__(family, "directions", directions)
        object.__setattr__(family, "offsets", offsets)
        return family

    def block(self, start: int, stop: int) -> "PlaneFamily":
        """Members start..stop-1 as a family over read-only views of this
        family's arrays: nothing is copied or projected again."""
        return self._over(self.params, self.scale, self.directions[start:stop],
                          self.offsets[start:stop])

    def __len__(self) -> int:
        return self.directions.shape[0]

    def member(self, index: int) -> ChartMPlane:
        return ChartMPlane.view(self.directions[index], self.offsets[index])

    @property
    def members(self) -> tuple[ChartMPlane, ...]:
        return tuple(self.member(i) for i in range(len(self)))

    def feature_matrix(self) -> np.ndarray:
        """Rows embed members into Euclidean space for separation/spacing:
        the projector D D^T / sqrt(2) of each direction, then the offsets."""
        if self._features is None:
            proj = self.directions @ np.swapaxes(self.directions, 1, 2) / math.sqrt(2.0)
            object.__setattr__(self, "_features",
                               np.concatenate([_flat_rows(proj), _flat_rows(self.offsets)], axis=1))
        return self._features

    def spacing(self) -> SpacingReport:
        return spacing_report(self.feature_matrix(), self.scale, self.params.spacing_exponent)


# ------------------------------------------------- sharp example generator

def digit_set(beta: float, levels: int) -> list[int]:
    """Positions 1..levels kept by a density-beta digit selection."""
    return [i for i in range(1, levels + 1)
            if math.floor(i * beta) > math.floor((i - 1) * beta)]


def _cantor_digits(span: float, beta: float, pitch: float) -> list[int] | None:
    """Digits of :func:`cantor_points` over a ``span``; None for one point.
    floor(log2(span / pitch)) is taken on mantissas and exponents: no overflow."""
    if pitch >= span or beta <= 0.0:
        return None
    (ms, es), (mp, ep) = math.frexp(span), math.frexp(pitch)
    return digit_set(min(beta, 1.0), math.floor(math.log2(ms / mp)) + es - ep)


def cantor_points(lo: float, hi: float, beta: float, pitch: float) -> np.ndarray:
    """Deterministic set of box dimension ``beta`` inside [lo, hi].

    Points are all subset sums of the scaled digits 2^-i with i running
    over a density-beta digit set; the count at resolution ``pitch`` is
    about ((hi-lo)/pitch)^beta and neighboring points are >= pitch apart.
    """
    span = hi - lo
    if span <= 0:
        raise InvalidInputError("empty interval")
    digits = _cantor_digits(span, beta, pitch)
    if digits is None:
        return np.array([lo + span / 2.0 if beta <= 0.0 else lo])
    values = np.array([0.0])
    for i in digits:
        values = np.concatenate([values, values + span * 2.0 ** (-i)])
    return lo + np.sort(values)


@dataclass(frozen=True)
class _Axis:
    """One generator coordinate: an index into a parameter block plus the
    1-d point set placed on it, drawn on first use; ``size`` needs no draw."""

    kind: str          # "tilt" | "offset" | "base"
    index: tuple
    lo: float
    hi: float
    beta: float
    pitch: float

    @property
    def size(self) -> int:
        digits = _cantor_digits(self.hi - self.lo, self.beta, self.pitch)
        return 1 if digits is None else 2 ** len(digits)

    @cached_property
    def points(self) -> np.ndarray:
        return cantor_points(self.lo, self.hi, self.beta, self.pitch)


def _graded_axes(specs: list[tuple[str, tuple, float, float]], budget: float,
                 pitch: float) -> list[_Axis]:
    """Assign a full grid to the first floor(budget) axes, a Cantor set of
    the fractional dimension to the next, and anchors beyond."""
    axes = []
    remaining = budget
    for kind, index, lo, hi in specs:
        b = min(1.0, max(0.0, remaining))
        axes.append(_Axis(kind, index, lo, hi, b, pitch))
        remaining -= b
    if remaining > 1e-9:
        raise InvalidInputError("dimension budget exceeds the available axes")
    return axes


def _sharp_axes(params: FamilyParams, delta: float):
    """Generator axes of the sharp example and the slice columns that carry
    the direction: returns (axes, base_cols, tilt_cols).

    For beta > l+1 members form a graded net inside the m-planes of a
    (d+1)-dimensional coordinate subspace; for beta <= l+1 they form a full
    net of the m-planes inside d-planes fibered over a beta-dimensional
    base set in the leading slice coordinates.  Direction column a is the
    unit vector on ``base_cols[a]`` tilted by the ``tilt_cols`` entries.
    """
    l, m, d, n = params.l, params.m, params.d, params.n
    pitch = 2.0 * delta
    n_i = n - d                    # leading slice coordinates (the base block)
    n_j = d - l                    # middle slice coordinates (direction block)
    r = m - l                      # section dimension
    j_axes = list(range(n_i, n_i + n_j))
    # beta > l+1: members inside the (d+1)-plane spanned by the first base
    # axis, the direction block and the slice shifts
    dir_axes = [0] + j_axes if params.beta > l + 1 else j_axes
    base_cols, tilt_cols = dir_axes[:r], dir_axes[r:]
    tilts = [("tilt", (a, b), -0.45, 0.45) for a in range(r) for b in range(len(tilt_cols))]
    shifts = [("offset", (jj, ax), -0.85, 0.85) for jj in range(l + 1) for ax in tilt_cols]
    if params.beta > l + 1:
        specs = shifts + tilts
    else:
        specs = tilts + shifts + [("base", (jj, ax), -0.85, 0.85)
                                  for jj in range(l + 1) for ax in range(n_i)]
    return _graded_axes(specs, params.spacing_exponent, pitch), base_cols, tilt_cols


SHARP_MEMBER_CAP = 2_000_000


def generate_sharp_example(params: FamilyParams, delta: float) -> PlaneFamily:
    """Deterministic family realizing the sharp-example constructions (see
    :func:`_sharp_axes`).  Grids use pitch 2*delta so the family is
    delta-separated with the spacing constant recorded by
    :meth:`PlaneFamily.spacing`.

    Member i takes on each axis the point indexed by its digit in the
    mixed-radix expansion of i (first axis least significant); all members
    are evaluated at once as arrays.
    """
    axes, base_cols, tilt_cols = _sharp_axes(params, delta)
    # sized from the digit sets: no axis is drawn for a family over the cap
    sizes = [a.size for a in axes]
    total = math.prod(sizes)
    if total > SHARP_MEMBER_CAP:
        # log2: the count itself may have more digits than str() prints
        raise ResourceCapError(f"sharp example would have 2^{math.log2(total):.2f} members, "
                               f"above the cap {SHARP_MEMBER_CAP}")

    r = params.m - params.l
    cols = np.zeros((total, params.n - params.l, r))
    cols[:, base_cols, range(r)] = 1.0
    offsets = np.zeros((total, params.l + 1, params.n - params.l))
    flat, stride = np.arange(total), 1
    for ax, size in zip(axes, sizes):
        vals = ax.points[flat // stride % size]
        stride *= size
        if ax.kind == "tilt":
            cols[:, tilt_cols[ax.index[1]], ax.index[0]] = vals
        else:  # "offset" and "base" both shift a slice coordinate
            offsets[:, ax.index[0], ax.index[1]] += vals
    directions = linalg.orthonormalize_stack(cols)[0]
    return PlaneFamily.from_arrays(params, delta, directions, offsets)


# union rows (kept points of the slice products) per chunk of members, which
# union_sample_points writes and union_box_count boxes at once, and section
# rows times coordinates that _section_runs tests per chunk; bounds temporaries
UNION_CHUNK_ROWS = 1 << 15
UNION_POINT_CAP = 6_000_000


def _union_ticks(family: PlaneFamily) -> np.ndarray:
    """Ticks on each axis of the lattice that samples each section of the
    family's members, at pitch half its scale."""
    pitch = family.scale / 2.0
    half = math.sqrt(family.directions.shape[1])
    return np.arange(-half, half + pitch / 2.0, pitch)


def _lead_ticks(ticks: np.ndarray, r: int) -> np.ndarray:
    """The (t**(r-1), r-1) rows of leading ticks t_1..t_{r-1} in lattice
    order, t_1 slowest; one empty row for r <= 1."""
    return np.array(list(itertools.product(ticks, repeat=max(r - 1, 0))))


def _section_runs(family: PlaneFamily, ticks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(start, length), each (M, copies, t**(r-1)) for t ticks: for each
    section and each row of its leading ticks (:func:`_lead_ticks`), the run
    of last ticks t_r at which offset + D t lies in the box.  Each coordinate
    of offset + D t in float is monotone in t_r (negated, exactly, where D's
    last column is negative), so a row keeps one run, from the first tick
    with no coordinate < -1 to the first with one > 1.  Each end is counted
    on that expression, D t summed as :func:`union_sample_points` sums it,
    t_k D[:, k] in k order with the offset last: guessed from the
    coordinates' crossings and checked by the ticks either side; where a
    check fails, the chunk is bisected.  A point section
    (r = 0) is one run of length 1.  ResourceCapError, before any run is
    found, when the runs of r >= 1 number above ``UNION_POINT_CAP``."""
    members, copies, q = family.offsets.shape
    r = family.directions.shape[2]
    if r == 0:
        return np.zeros((members, copies, 1), np.int64), np.ones((members, copies, 1), np.int64)
    if members * copies * len(ticks) ** (r - 1) > UNION_POINT_CAP:
        raise ResourceCapError("union sample exceeds the point cap")
    lead = _lead_ticks(ticks, r)
    ends = np.empty((2, members, copies, len(lead)), dtype=np.int64)
    n, pitch = len(ticks), family.scale / 2.0
    # x >= -1 is x > the float below -1; axes (coordinate, member, end, copy, row, tick)
    c = np.array([np.nextafter(-1.0, -2.0), 1.0]).reshape(2, 1, 1, 1)
    step = max(1, UNION_CHUNK_ROWS // (copies * len(lead) * q))
    for lo in range(0, members, step):
        sign = np.copysign(1.0, family.directions[lo:lo + step, :, -1])
        e = (family.directions[lo:lo + step] * sign[:, :, None]).transpose(0, 2, 1)
        # coordinate-major copies: results take their operands' layout, and
        # a reduction over a short contiguous axis is slow
        b = (family.offsets[lo:lo + step] * sign[:, None]).transpose(2, 0, 1).copy()
        b = b[:, :, None, :, None, None]
        slope = e[:, -1].T.copy()[:, :, None, None, None, None]
        # each row's leading part of D t, its terms summed in k order
        lead_part = np.zeros((q, len(e), 1, 1, len(lead), 1))
        for k in range(r - 1):
            lead_part += e[:, k].T[:, :, None, None, None, None] * lead[:, k, None]

        def before_end(t):
            # at ticks t of each row: is a coordinate < -1 (start), none > 1 (end)?
            below = b + (lead_part + slope * ticks.take(t, mode="clip")) <= c
            side = below.any(0)
            side[:, 1] = below.all(0)[:, 1]
            return side

        # base: the ticks up to the last crossing of a coordinate (start) or
        # the first (end), on a D t rounded otherwise: the ticks either side check
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = (c - b - lead_part) / (pitch * slope)
        guess = np.floor(cross - (ticks[0] / pitch - 1.0))
        # nan, a constant coordinate on the bound, counts every tick
        guess = np.fmax(np.fmin(guess, n), 0.0).astype(np.int64)
        base = guess.max(0)
        base[:, 1] = guess.min(0)[:, 1]
        side = before_end(base + np.arange(-1, 1))
        if not (((base == 0) | side[..., :1]) & ((base == n) | ~side[..., 1:])).all():
            # the answer lies in [base, base + m]
            base[:], m = 0, n
            while m > 1:
                np.add(base, m // 2, out=base, where=before_end(base + m // 2))
                m -= m // 2
            base += before_end(base)
        ends[:, lo:lo + step] = base[..., 0].swapaxes(0, 1)
    return ends[0], np.maximum(ends[1] - ends[0], 0)


def _union_runs(family: PlaneFamily) -> tuple:
    """(ticks, start, length, size, rows, chunks): :func:`_union_ticks`, the
    runs of :func:`_section_runs`, each section's kept points (M, copies),
    each member's rows, their product (in float: no overflow, exact below
    the cap), and the :func:`_union_chunks` of those rows.  ResourceCapError
    when the rows sum above ``UNION_POINT_CAP``."""
    ticks = _union_ticks(family)
    start, length = _section_runs(family, ticks)
    size = length.sum(axis=2)
    rows = np.prod(size, axis=1, dtype=float)
    if rows.sum() > UNION_POINT_CAP:
        raise ResourceCapError("union sample exceeds the point cap")
    rows = rows.astype(np.int64)
    return ticks, start, length, size, rows, _union_chunks(rows)


def _union_chunks(rows: np.ndarray) -> list[tuple[int, int]]:
    """(lo, hi) for each chunk of members that holds a row: the members
    whose first row lies in one window [k, k + 1) * UNION_CHUNK_ROWS."""
    begins = np.cumsum(rows) - rows
    cuts = np.searchsorted(begins, np.arange(0, rows.sum(), UNION_CHUNK_ROWS)).tolist()
    chunks = zip(cuts, cuts[1:] + [len(rows)])
    return [(lo, hi) for lo, hi in chunks if lo < hi and rows[lo:hi].any()]


def union_sample_points(family: PlaneFamily, runs: tuple | None = None,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Point sample of the union of the member plane-sets in the chart.

    Each member contributes the product over slices of a sample of its
    section inside the box at pitch half the family's scale, which keeps
    box counts at that scale exact up to boundary slivers.  Section j of a
    member is sampled on the tick lattice offset_j + D t, t in ticks^r,
    keeping the points with every |x| <= 1; a point section (r = 0) is
    kept as it is.  Rows come member by member, slice 0 varying slowest,
    and a section's points in lattice order.  Only the kept points are
    evaluated: the family's :func:`_union_runs` (or ``runs``, when the
    caller found them) size the output, and ResourceCapError is raised
    before any point is written when it would exceed ``UNION_POINT_CAP``.
    The points are written a chunk of members (the runs' chunks) at a
    time into a (copies*q, N) buffer returned as its transposed view, so
    its columns are contiguous.  The buffer is a fresh array, or the
    leading N columns of ``out``, a float (copies*q, >= N) buffer the
    caller lends, so that one buffer serves many calls; the result then
    views ``out``.  D t is zero for r = 0 and otherwise the elementwise sum
    of t_k D[:, k] in k order, the offset added last, so no BLAS kernel
    rounds the points.  The CLI boxes this output through
    :func:`union_box_count`.
    """
    _, copies, q = family.offsets.shape
    r = family.directions.shape[2]
    ticks, start, length, size, rows, chunks = _union_runs(family) if runs is None else runs
    begins = np.cumsum(rows) - rows
    total = int(rows.sum())
    if out is None:
        out = np.empty((copies * q, total))
    elif out.dtype != float or out.shape[0] != copies * q or out.shape[1] < total:
        raise InvalidInputError(f"a {out.dtype} {out.shape} buffer cannot hold "
                                f"{total} union points of {copies * q} coordinates")
    out = out[:, :total]
    d, o, lead = family.directions, family.offsets, _lead_ticks(ticks, r).T
    for lo, hi in chunks:
        p0, n = int(begins[lo]), int(rows[lo:hi].sum())
        dest = out[:, p0:p0 + n]
        if copies > 1:
            # each row's member and section positions, slice 0 most significant
            member = np.repeat(np.arange(hi - lo), rows[lo:hi])
            local = np.arange(n) - np.repeat(begins[lo:hi] - p0, rows[lo:hi])
            digits = [None] * copies
            for j in range(copies - 1, 0, -1):
                local, digits[j] = np.divmod(local, size[lo:hi, j].take(member))
            digits[0] = local
        for j in range(copies):
            # each kept point's last tick, run after run; a section starts at its first run
            run = length[lo:hi, j].ravel()
            first = np.cumsum(run) - run
            at = np.repeat(start[lo:hi, j].ravel() - first, run)
            at += np.arange(len(at))
            tick = ticks.take(at)
            count, first = size[lo:hi, j], first[::length.shape[2]]
            # copies = 1: the section points are the rows
            pts = dest if copies == 1 else np.empty((q, len(at)))
            # each kept point's ticks: its run's leading ticks, then its last tick
            coeff = [*(np.repeat(np.tile(col, hi - lo), run) for col in lead), tick]
            for a in range(q):
                if r:
                    np.multiply(np.repeat(d[lo:hi, a, 0], count), coeff[0], out=pts[a])
                    for k in range(1, r):
                        pts[a] += np.repeat(d[lo:hi, a, k], count) * coeff[k]
                else:  # a zero span: +0.0 plus a -0.0 offset is +0.0
                    pts[a] = 0.0
                pts[a] += np.repeat(o[lo:hi, j, a], count)
            if copies > 1:
                at = first.take(member) + digits[j]
                for a in range(q):
                    pts[a].take(at, mode="clip", out=dest[j * q + a])
    return out.T


def union_box_count(family: PlaneFamily) -> int:
    """``box_count(union_sample_points(family), family.scale)``, from runs
    found once, so a union over the point cap is refused before anything is
    boxed.  When an occupancy mask of its kept rows holds the count, each
    chunk of members is sampled from its slice of the runs into one point
    buffer, sized for the largest chunk and lent to every chunk's call, and
    boxed onto the mask, so memory follows the mask, that buffer and the
    runs: two integers per row of a section's leading ticks, against q
    floats per kept tick for its points.  A buffer of its own per chunk
    would be returned to the system and faulted in again chunk by chunk.
    Each chunk's runs say it is one chunk, so no call cuts it again."""
    _, copies, q = family.offsets.shape
    runs = _union_runs(family)
    rows, chunks = runs[4:]
    seen = occupancy_mask(copies * q, family.scale, int(rows.sum()))
    if seen is None:
        return box_count(union_sample_points(family, runs), family.scale)
    buffer = np.empty((copies * q, max(int(rows[lo:hi].sum()) for lo, hi in chunks)))
    count = 0
    for lo, hi in chunks:
        chunk = (runs[0], *(a[lo:hi] for a in runs[1:5]), [(0, hi - lo)])
        points = union_sample_points(family.block(lo, hi), chunk, out=buffer)
        count += box_count(points, family.scale, seen)
    return count


# ------------------------------------------------------------------ bush

@dataclass(frozen=True)
class BushDirections:
    """Directions of the family members whose slabs touch the ball around an
    anchor chart point, snapped to a separated direction net: the read-only
    net bases (B, q, r) that some member snaps to, and per basis its members."""

    bases: np.ndarray
    members: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(check_bases(self.bases)) != len(self.members) or not all(self.members):
            raise InvalidInputError("need one non-empty member tuple per direction")
        object.__setattr__(self, "bases", linalg.frozen(self.bases))

    @property
    def counts(self) -> list[int]:
        return [len(m) for m in self.members]

    def total(self) -> int:
        return sum(self.counts)


def bush_directions(anchor: ChartPoint, family: PlaneFamily) -> BushDirections:
    """Members whose slab neighborhood meets the delta-ball of the anchor,
    viewed as directions of :func:`build_direction_net` at the family's
    scale."""
    delta = family.scale
    q, r = family.directions.shape[1:]
    touching = np.flatnonzero(SlabNeighborhood(family, delta).chart_distance(anchor) <= delta)
    if not touching.size:
        return BushDirections(np.zeros((0, q, r)), ())
    net = build_direction_net(r, q, delta)
    buckets: dict[int, list[int]] = {}
    for i in touching.tolist():
        direction = np.broadcast_to(family.directions[i], net.shape)
        buckets.setdefault(int(np.argmin(distances(direction, net))), []).append(i)
    keys = sorted(buckets)
    return BushDirections(net[keys], tuple(tuple(buckets[k]) for k in keys))


# ------------------------------------------------------ broad-narrow step

@dataclass(frozen=True)
class TransverseTuple:
    """A (d-m+2)-tuple of direction balls with a volume certificate: the
    spanned parallelepiped of the witness vectors is too large for any
    (d-l)-plane to approximately contain all the balls."""

    centers: np.ndarray  # (J, q, r) ball centers, read-only
    radius: float
    vectors: np.ndarray
    volume: float
    threshold: float
    K: int

    def certified(self) -> bool:
        return self.volume >= self.threshold - 1e-12


@dataclass(frozen=True)
class Narrow:
    """Witness plane with at least half the selected balls near the
    sub-Grassmannian of subspaces inside it."""

    witness: Subspace
    covered_fraction: float

    kind = "narrow"


@dataclass(frozen=True)
class Broad:
    tuple: TransverseTuple

    kind = "broad"


def _select_balls(bases: list[np.ndarray], members: list, constants: ClassifierConstants,
                  n: int) -> list[list[int]]:
    """Indices of the chosen ball centers of each bush ``bases[t]`` (B_t, q, r)
    with member tuples ``members[t]``: a greedy cover at radius K^-n, the
    significance fraction K^(-n^4), the largest dyadic count class, then
    thinning to 100 K^-n separation.  All pair distances come from one
    :func:`distances` call and are read as Python lists."""
    radius = constants.ball_radius(n)
    fraction = math.exp(-(float(n) ** 4) * math.log(constants.K))
    flat = distances(np.concatenate([np.repeat(b, len(b), axis=0) for b in bases]),
                     np.concatenate([np.tile(b, (len(b), 1, 1)) for b in bases])).tolist()
    chosen, offset = [], 0
    for b, ms in zip(bases, members):
        size = len(b)
        dist = [flat[i:i + size] for i in range(offset, offset + size * size, size)]
        offset += size * size
        # each center takes every later direction within the radius
        left, centers = sorted(range(size), key=lambda i: (-len(ms[i]), i)), []
        while left:
            i, row, rest = left[0], dist[left[0]], left[1:]
            left = [j for j in rest if not row[j] <= radius]
            centers.append((i, sum(len(ms[j]) for j in rest if row[j] <= radius) + len(ms[i])))
        significance = sum(map(len, ms)) * fraction
        classes: dict[int, list[tuple[int, int]]] = {}
        for c, count in centers:
            if count >= significance:
                classes.setdefault(int(math.floor(math.log2(count))), []).append((c, count))
        best = max(classes, key=lambda k: (sum(count for _, count in classes[k]), k))
        kept: list[int] = []
        for c, _ in sorted(classes[best], key=lambda e: -e[1]):
            if all(dist[c][c2] > 100.0 * radius for c2 in kept):
                kept.append(c)
        chosen.append(kept)
    return chosen


def _classify_bushes(bases: list[np.ndarray], members: list, params: FamilyParams,
                     constants: ClassifierConstants) -> list[Narrow | Broad]:
    """Classify the bushes ``bases[t]`` (B_t, q, r) with member tuples
    ``members[t]`` in step.  The greedy certificate construction starts from
    the heaviest ball's orthonormal basis and keeps adding a unit vector
    from some ball at maximal distance from the span so far.  Completing
    d-l+1 vectors certifies a transverse tuple (Broad); getting stuck means
    every ball direction hugs the current span, whose extension to a
    (d-l)-plane is a Narrow witness covering all selected balls.  The open
    bushes have equally many vectors, so a step takes their spans from one
    ``orthonormalize_stack``, every selected ball's residual from one pair
    of products and their canonical decompositions from one stacked
    :func:`linalg.svd`, which gives each ball the top singular value and
    vector it would get alone; a winning ball's vector is its own product
    with that right vector.  The certificate volumes of the Broad bushes
    come from one :func:`linalg.gram_volume` call.  No bush's result depends
    on the others.  (A vector within ``RANK_TOL`` of its span, ruled out by
    the step threshold at any feasible K, stays a zero column.)
    """
    q, threshold = params.n - params.l, constants.step_threshold(params)
    selected = [b[c] for b, c in zip(bases, _select_balls(bases, members, constants, params.n))]
    out: list = [None] * len(selected)
    vectors, balls = [list(s[0].T) for s in selected], [[0] for _ in selected]
    active = list(range(len(selected)))
    while active and len(vectors[active[0]]) <= params.d - params.l:
        spans = linalg.orthonormalize_stack(np.stack([np.column_stack(vectors[t])
                                                      for t in active]))[0]
        sizes = [len(selected[t]) for t in active]
        stack = np.concatenate([selected[t] for t in active])
        span = spans[np.repeat(np.arange(len(active)), sizes)]
        resid = stack - span @ (np.swapaxes(span, 1, 2) @ stack)
        dec = linalg.svd(resid)
        top, ends = dec.singular_values[:, 0], np.cumsum(sizes)
        for a, (t, start, size) in enumerate(zip(active, (ends - sizes).tolist(), sizes)):
            win = start + int(np.argmax(top[start:start + size]))  # the first maximum
            if top[win] < threshold:
                pad = linalg.orthonormal_completion(spans[a], q)[:, :params.d - params.l]
                dist = project_stack(selected[t], np.broadcast_to(pad, (size,) + pad.shape))[1]
                out[t] = Narrow(Subspace(pad), float(np.mean(dist <= constants.c1 / constants.K)))
                continue
            vec = stack[win] @ dec.right[win, :, 0]
            vectors[t].append(vec / np.linalg.norm(vec))
            balls[t].append(win - start)
        active = [t for t in active if out[t] is None]
    frames = [np.column_stack(vectors[t]) for t in active]
    volumes = linalg.gram_volume(np.stack(frames)).tolist() if frames else []
    for t, frame, volume in zip(active, frames, volumes):
        tup = TransverseTuple(linalg.frozen(selected[t][balls[t]]),
                              constants.ball_radius(params.n), linalg.frozen(frame), volume,
                              constants.c_prime * constants.K ** (-params.n), constants.K)
        if not tup.certified():
            # the per-step threshold guarantees this cannot happen
            raise CertificateError("greedy certificate below the volume target")
        out[t] = Broad(tup)
    return out


def broad_narrow_classify(bush: BushDirections, params: FamilyParams) -> Narrow | Broad:
    """Classify a direction bush: :func:`_classify_bushes` of a stack of one."""
    if not bush.members:
        raise InvalidInputError("empty bush")
    constants = ClassifierConstants.for_params(params)
    return _classify_bushes([bush.bases], [bush.members], params, constants)[0]


def random_transverse_tuples(params: FamilyParams, rngs: list,
                             K: int | None) -> list[TransverseTuple]:
    """One certified tuple per generator, from random bushes of 4(d-l+2)
    directions drawn from it until one classifies Broad (at most 64).  Each
    round orthonormalizes every open tuple's bush in one stack and classifies
    them as one stack, so each tuple comes out as it would alone."""
    q, r = params.n - params.l, params.m - params.l
    members = tuple((i,) for i in range(4 * (params.d - params.l + 2)))
    constants = ClassifierConstants.for_params(params, K)
    out, pending = [None] * len(rngs), list(range(len(rngs)))
    for _ in range(64):
        if not pending:
            break
        raw = np.stack([rngs[t].standard_normal((len(members), q, r)) for t in pending])
        basis, keep = linalg.orthonormalize_stack(raw.reshape((-1, q, r)))
        basis = basis.reshape(raw.shape)
        # a rank-deficient row is redrawn from its generator, as random_subspaces would
        for i in np.flatnonzero(~keep.reshape(len(raw), -1).all(axis=1)):
            basis[i] = orthonormal_draws(rngs[pending[i]], raw[i])
        for t, res in zip(pending, _classify_bushes(list(basis),
                                                    [members] * len(pending), params, constants)):
            if isinstance(res, Broad):
                out[t] = res.tuple
        pending = [t for t in pending if out[t] is None]
    if pending:
        raise InvalidInputError("could not draw a broad bush (parameters too tight)")
    return out


def random_transverse_tuple(params: FamilyParams, rng: np.random.Generator) -> TransverseTuple:
    """:func:`random_transverse_tuples` of one generator."""
    return random_transverse_tuples(params, [rng], None)[0]


# -------------------------------------------------- counting functionals

DIM_PROJECTION_TOL = 1e-9


def dim_projection(u: Subspace, w: Subspace) -> int:
    """dim of the orthogonal projection of u into w: :func:`_projection_ranks`
    of the pair."""
    _check_ambient([u.basis, w.basis])
    return int(_projection_ranks([[u.basis]], [w.basis[None]])[0][0])


def _check_ambient(bases) -> None:
    """InvalidInputError unless the bases (..., N, dim) share one N."""
    if len({b.shape[-2] for b in bases}) > 1:
        raise InvalidInputError("ambient dimension mismatch")


@dataclass(frozen=True)
class BlInstance:
    """best_value is the maximum over the +/∩ lattice of the kernels
    K_j = W_j-perp of dim U - (p/J) sum_j dim proj_{W_j} U, a lower bound
    of its supremum over all subspaces U."""

    bases: tuple[np.ndarray, ...]  # the J W_j, (N, w_j) each, read-only
    p: float
    best_value: float
    candidate: np.ndarray  # (N, dim U) orthonormal basis of the maximizer, read-only
    n_candidates: int

    def value_of(self, u: np.ndarray) -> float:
        """The functional at the span of the orthonormal basis ``u`` (N, dim)."""
        _check_ambient([u, *self.bases])
        values_at = _functionals([[check_bases(u[None])[0]]], [w[None] for w in self.bases])[0]
        return float(values_at(self.p)[0])


# Three generators span a modular lattice of at most 28 members (Dedekind),
# 30 with 0 and R^N, so only J >= 4 kernels can pass DEDEKIND_MEMBERS and
# reach the cap.
DEDEKIND_MEMBERS = 30
LATTICE_CAP = 256
LATTICE_TOL = 1e-9  # projector entries closer than this are equal
CROSS_CHECK_DRAWS = 12  # random subspaces per proper dimension in verify_bl_bound


def kernel_lattices(ws: list[np.ndarray]) -> list[list[np.ndarray]]:
    """The closure of {0, R^N, K_1..K_J} (K_j = W_j-perp) under sum and
    intersection for each of T tuples, with ``ws`` the J stacks (T, N, w_j)
    of their W_j bases: per tuple, its members' orthonormal bases (N, dim)
    in order of discovery.  The K_j come from one completion per W
    dimension.

    A worklist pairs each member b with every earlier member a, skipping
    comparable pairs (P_a P_b = P_a or P_b), and adds the sum, then the
    intersection, a ascending; members are told apart by their projectors
    P.  The walk runs in step over the tuples: step b tests every tuple
    that has a member b at once, and builds all their pairs' sums and
    intersections in one :func:`linalg.sums_and_meets`.  A lattice that outgrows
    ``DEDEKIND_MEMBERS``, the most three kernels span, may be infinite, so
    the first tuple then walks on alone to its end: an infinite lattice
    stops the walk after the work of one lattice rather than of the whole
    stack, and if it closes, the others go on in step.  A tuple's walk reads
    only its own members, so this order changes no lattice.  Raises
    ResourceCapError beyond ``LATTICE_CAP`` members."""
    count, ambient = ws[0].shape[:2]
    kernels: list[np.ndarray | None] = [None] * len(ws)
    by_dim: dict[int, list[int]] = {}
    for j, w in enumerate(ws):
        by_dim.setdefault(w.shape[2], []).append(j)
    for dim, js in by_dim.items():
        full = linalg.orthonormal_completion(np.concatenate([ws[j] for j in js]), ambient)
        for i, j in enumerate(js):
            kernels[j] = full[i * count:(i + 1) * count, :, dim:]
    lattices: list[list[np.ndarray]] = [[] for _ in range(count)]
    # grown with the largest lattice so far, not allocated for LATTICE_CAP;
    # zeros, so that a comparison never reads an unset entry
    projectors = np.zeros((count, 2 + len(ws), ambient, ambient))

    def same(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.all(np.abs(a - b) <= LATTICE_TOL, axis=(-2, -1))

    def extend(owners: list[int], found: list[tuple[np.ndarray, np.ndarray]]) -> None:
        """Add the candidates ``found`` (basis, projector) to the lattices of
        ``owners``, in order, each unless its tuple already holds it.  The
        members from before the call are compared with all candidates at
        once, on the diagonals first (equal projectors have diagonals
        within LATTICE_TOL), then on the whole projectors of the pairs the
        diagonals leave; the candidates of one tuple are compared with each
        other in one call, and a loop over those booleans keeps the first
        of each."""
        nonlocal projectors
        if not found:
            return
        props, who = np.array([proj for _, proj in found]), np.array(owners)
        known = np.array([len(lattices[t]) for t in owners])
        width = int(known.max())
        # a gathered copy, so the differences can be taken in place
        gaps = np.diagonal(projectors, axis1=2, axis2=3)[who, :width]
        gaps -= np.diagonal(props, axis1=1, axis2=2)[:, None]
        near = (np.all(np.abs(gaps, out=gaps) <= LATTICE_TOL, axis=2)
                & (np.arange(width) < known[:, None]))
        cand, member = np.nonzero(near)
        old = np.zeros(len(found), dtype=bool)
        old[cand[same(projectors[who[cand], member], props[cand])]] = True
        fresh = np.flatnonzero(~old)
        tuples = who[fresh]
        later, earlier = np.nonzero(np.tril(tuples[:, None] == tuples[None, :], -1))
        twin = np.zeros((len(fresh), len(fresh)), dtype=bool)
        twin[later, earlier] = same(props[fresh[later]], props[fresh[earlier]])
        kept: list[int] = []
        for a, (i, row) in enumerate(zip(fresh.tolist(), twin.tolist())):
            if any(row[k] for k in kept):
                continue
            kept.append(a)
            t, n = owners[i], len(lattices[owners[i]])
            if n == LATTICE_CAP:
                raise ResourceCapError(f"kernel lattice of {len(ws)} subspaces "
                                       f"exceeds {LATTICE_CAP} members")
            if n == projectors.shape[1]:
                more = np.zeros((count, min(n, LATTICE_CAP - n)) + projectors.shape[2:])
                projectors = np.concatenate([projectors, more], axis=1)
            projectors[t, n] = props[i]
            lattices[t].append(found[i][0])

    def step(active: list[int], b: int) -> None:
        earlier, pb = projectors[active, :b], projectors[active, b, None]
        prods = earlier @ pb
        comparable = same(prods, earlier) | same(prods, pb)
        pairs = [(t, a) for t, row in zip(active, comparable.tolist())
                 for a, c in enumerate(row) if not c]
        sums, meets = linalg.sums_and_meets([(lattices[t][a], lattices[t][b]) for t, a in pairs])
        extend([t for t, _ in pairs for _ in range(2)],
               [x for s, m in zip(sums, meets) for x in (s, m)])

    start = [(np.zeros((ambient, 0)), np.zeros((ambient, ambient))),
             (np.eye(ambient), np.eye(ambient))]
    kernel_projectors = [k @ np.swapaxes(k, 1, 2) for k in kernels]
    extend([t for t in range(count) for _ in range(2 + len(ws))],
           [x for t in range(count)
            for x in start + [(k[t], p[t]) for k, p in zip(kernels, kernel_projectors)]])
    b, active, probed = 0, list(range(count)), False
    while active:
        if not probed and max(len(lattices[t]) for t in active) > DEDEKIND_MEMBERS:
            probed, lead, active = True, active[0], active[1:]
            s = b
            while len(lattices[lead]) > s:
                step([lead], s)
                s += 1
            continue
        step(active, b)
        b += 1
        active = [t for t in active if len(lattices[t]) > b]
    return lattices


def bl_constant_lower(subspaces, p: float) -> BlInstance:
    """:func:`bl_constant_lower_stack` of one tuple of subspaces at one
    exponent."""
    return bl_constant_lower_stack([w.basis[None] for w in subspaces], [p])[0][0]


def bl_constant_lower_stack(ws: list[np.ndarray], p_values) -> list[list[BlInstance]]:
    """The dimension-counting functional at the maximum over the +/∩ lattice
    of the kernels (:func:`kernel_lattices`), a lower bound of its
    supremum, at each exponent of ``p_values``, for T tuples of J
    subspaces, with ``ws`` the J stacks (T, N, w_j) of their bases.  The
    lattices and their projection ranks do not depend on p, so they are
    built once, for all tuples together, and serve every exponent."""
    if not ws:
        raise InvalidInputError("need at least one subspace")
    _check_ambient(ws)
    for p in p_values:
        if not 1.0 <= p <= len(ws) + 1e-12:
            raise InvalidInputError(f"exponent {p} outside [1, J={len(ws)}]")
    lattices = kernel_lattices(ws)
    picks = []
    for t, (lattice, values_at) in enumerate(zip(lattices, _functionals(lattices, ws))):
        for p in p_values:
            values = values_at(p)
            # first candidate of the top value cluster (values sit on a lattice
            # of spacing far above 1e-12, so this is the first maximizer)
            best = int(np.flatnonzero(values >= values.max() - 1e-12)[0])
            picks.append((t, float(p), float(values[best]), lattice[best]))
    # read-only copies, each stack checked orthonormal once: the W stacks,
    # and the maximizers grouped by dimension
    bases = [linalg.frozen(check_bases(w)) for w in ws]
    groups: dict[int, list[int]] = {}
    for i, pick in enumerate(picks):
        groups.setdefault(pick[3].shape[1], []).append(i)
    candidates = [None] * len(picks)
    for idx in groups.values():
        for i, u in zip(idx, linalg.frozen(check_bases(np.stack([picks[i][3] for i in idx])))):
            candidates[i] = u
    out = [[] for _ in lattices]
    for (t, p, value, _), u in zip(picks, candidates):
        out[t].append(BlInstance(tuple(w[t] for w in bases), p, value, u, len(lattices[t])))
    return out


def _functionals(lattices: list[list[np.ndarray]], ws: list[np.ndarray]) -> list:
    """Per tuple, p -> dim U - (p/J) sum_j dim proj_{W_j} U for every basis
    U of its list; the projection ranks, the p-free part, are counted once."""
    def at(dims: np.ndarray, totals: np.ndarray):
        return lambda p: dims - (p / len(ws)) * totals

    return [at(np.array([u.shape[1] for u in lattice]), totals)
            for lattice, totals in zip(lattices, _projection_ranks(lattices, ws))]


def _projection_ranks(lattices: list[list[np.ndarray]], ws: list[np.ndarray]) -> list[np.ndarray]:
    """sum_j dim proj_{W_j} U for every basis U of each tuple's list, with
    ``ws`` the J stacks (T, N, w_j) of the W_j: principal cosines above
    ``DIM_PROJECTION_TOL`` (absolute, so rounding-size overlaps count 0),
    off one batched singular-value call per (dim U, dim W) group across
    tuples."""
    # grouped with dicts: np.unique would import numpy.ma, about 1 MB of
    # resident memory on an otherwise small process
    members: dict[int, list[tuple[int, int]]] = {}
    for t, lattice in enumerate(lattices):
        for i, u in enumerate(lattice):
            if u.shape[1]:
                members.setdefault(u.shape[1], []).append((t, i))
    by_dim: dict[int, list[np.ndarray]] = {}
    for w in ws:
        if w.shape[2]:
            by_dim.setdefault(w.shape[2], []).append(w)
    transposed = [np.swapaxes(np.stack(group), -1, -2) for group in by_dim.values()]
    offsets = np.cumsum([0] + [len(lattice) for lattice in lattices])
    totals = np.zeros(offsets[-1], dtype=int)
    for idx in members.values():
        owner = [t for t, _ in idx]
        stack = np.stack([lattices[t][i] for t, i in idx])
        for wt in transposed:
            sigma = np.linalg.svd(wt[:, owner] @ stack, compute_uv=False)
            totals[[offsets[t] + i for t, i in idx]] += \
                np.sum(sigma > DIM_PROJECTION_TOL, axis=(0, 2))
    return np.split(totals, offsets[1:-1])


def tuple_obstruction_stack(tuples, params: FamilyParams) -> np.ndarray:
    """The W_j of the counting functional for T tuples, (T, J, N, N-k):
    orthogonal complements (in the product space R^N) of the embedded tuple
    directions, from one embedding and one completion of all the centers."""
    centers = np.concatenate([tup.centers for tup in tuples])
    big = embed_tilde_stack(centers, np.zeros((len(centers), params.l + 1, centers.shape[1])))[0]
    ws = linalg.orthonormal_completion(big)[:, :, big.shape[2]:]
    return ws.reshape((len(tuples), -1) + ws.shape[1:])


@dataclass(frozen=True)
class BlBoundReport:
    instance: BlInstance
    rhs: float
    ok: bool
    slack: float


def verify_bl_bound(tup: TransverseTuple, params: FamilyParams, p: float,
                    rng: np.random.Generator | None = None) -> BlBoundReport:
    """:func:`verify_bl_stack` of one tuple at one exponent.

    With ``rng``, ``CROSS_CHECK_DRAWS`` random subspaces of every proper
    dimension are scored too, and one that beats the lattice maximum raises
    CertificateError.
    """
    rep = verify_bl_stack([tup], params, [p])[0][0]
    if rng is not None:
        ws = rep.instance.bases
        ambient = ws[0].shape[0]
        draws = [b for r in range(1, ambient)
                 for b in random_subspaces(rng, CROSS_CHECK_DRAWS, ambient, r)]
        values_at = _functionals([draws], [w[None] for w in ws])[0]
        if draws and values_at(p).max() > rep.instance.best_value + 1e-12:
            raise CertificateError("a random subspace beats the kernel-lattice maximum")
    return rep


def verify_bl_stack(tuples, params: FamilyParams, p_values) -> list[list[BlBoundReport]]:
    """Check the certified lower bound of each tuple at each exponent of
    ``p_values`` against the closed-form ceiling

        (l+1)(d-l) + beta - ((l+1)(d-m) + beta) p.

    A violation would falsify the transversality certificate or the case
    analysis behind the ceiling, so it is reported as a hard failure.  The
    tuples are verified as one stack: their W_j come from one
    :func:`tuple_obstruction_stack`, and their kernel lattices and
    projection ranks from one :func:`bl_constant_lower_stack`, which serves
    every exponent.
    """
    if not tuples:
        raise InvalidInputError("need at least one tuple")
    shape = (params.d - params.m + 2, params.n - params.l, params.m - params.l)
    if any(tup.centers.shape != shape for tup in tuples):
        raise InvalidInputError(f"tuple centers must have shape {shape} for these parameters")
    if not all(tup.certified() for tup in tuples):
        raise InvalidInputError("tuple is not certified transverse")
    if params.beta > params.l + 1:
        # the counting inequality (and hence this ceiling) assumes
        # beta <= l+1; larger beta is reduced before reaching it
        raise InvalidInputError("bound requires beta <= l+1")
    p_max = admissible_p_max(params.l, params.m, params.d, params.beta)
    for p in p_values:
        if p > p_max + 1e-9:
            raise InvalidInputError(f"exponent {p} above the admissible maximum {p_max}")
    ws = tuple_obstruction_stack(tuples, params)
    instances = bl_constant_lower_stack([ws[:, j] for j in range(ws.shape[1])], p_values)
    l, m, d, beta = params.l, params.m, params.d, params.beta
    rhs = [(l + 1) * (d - l) + beta - ((l + 1) * (d - m) + beta) * p for p in p_values]
    return [[BlBoundReport(inst, float(r), inst.best_value <= r + 1e-9,
                           float(r - inst.best_value)) for r, inst in zip(rhs, insts)]
            for insts in instances]


# ------------------------------------------------------- counting norms

def overlap_counter(slab: SlabNeighborhood) -> GridCounter:
    """Per-cell multiplicity of a slab stack's members on the chart grid at
    its scale."""
    dim = slab.offsets.shape[1] * slab.offsets.shape[2]
    if cells_per_axis(slab.scale) ** dim > CELL_CAP:
        raise ResourceCapError("chart grid exceeds the cell cap; coarsen delta")
    counter = GridCounter(slab.scale, dim)
    counter.add_cells(slab.cells())
    return counter


def lp_counting_norm(family: PlaneFamily, p: float) -> float:
    """Riemann-sum L^p norm of the slab overlap function on the chart grid:
    (sum over cells of count^p * delta^N)^(1/p), counts from cell centers;
    the left side of :func:`kakeya_rows`."""
    return kakeya_rows(family, [p], 0.0)[0].lhs


@dataclass(frozen=True)
class KakeyaRow:
    delta: float
    members: int
    lhs: float
    rhs: float
    ratio: float


@dataclass(frozen=True)
class KakeyaReport:
    p: float
    rows: tuple[KakeyaRow, ...]
    ratio_bound: float
    growth_bound: float

    @property
    def bounded(self) -> bool:
        return all(r.ratio <= self.ratio_bound for r in self.rows)

    @property
    def max_growth(self) -> float:
        growths = [b.ratio / a.ratio for a, b in zip(self.rows, self.rows[1:])
                   if a.ratio > 0]
        return max(growths, default=1.0)

    @property
    def growth_ok(self) -> bool:
        return self.max_growth <= self.growth_bound + 1e-9

    @property
    def ok(self) -> bool:
        return self.bounded and self.growth_ok

    def flags(self) -> dict:
        return {"bounded": self.bounded, "max_ratio": max(r.ratio for r in self.rows),
                "max_growth": self.max_growth, "growth_ok": self.growth_ok}


def kakeya_rows(family: PlaneFamily, p_values, eps: float) -> list[KakeyaRow]:
    """The rows of the counting-inequality sweep at the family's scale, one
    per exponent, from one slab stack: the L^p norms of its overlap counter
    against delta^-(r(d-m)(1-1/p)+eps) times its total measure^(1/p).  For
    a non-empty family both sides are positive, so a side that overflows
    or rounds to 0 raises InvalidInputError."""
    if not all(p > 0 for p in p_values):
        raise InvalidInputError("exponents must be positive")
    params, delta = family.params, family.scale
    slab = SlabNeighborhood(family, delta)
    counter = overlap_counter(slab)
    total = float(slab.measure().sum())
    rows = []
    for p in p_values:
        exponent = (params.m - params.l) * (params.d - params.m) * (1.0 - 1.0 / p) + eps
        try:
            lhs = (counter.lp_power_sum(p) * delta ** counter.dim) ** (1.0 / p)
            rhs = delta ** (-exponent) * total ** (1.0 / p)
        except OverflowError:
            lhs = rhs = math.inf
        if len(family) and not (0.0 < lhs < math.inf and 0.0 < rhs < math.inf):
            raise InvalidInputError(f"the row at p={p:g}, eps={eps:g}, delta={delta:g} "
                                    "leaves the double range")
        rows.append(KakeyaRow(delta, len(family), lhs, rhs, lhs / rhs if rhs > 0 else math.inf))
    return rows


def verify_kakeya_inequality(families, p: float, eps: float,
                             ratio_bound: float = 10.0,
                             growth_bound: float = 2.0) -> KakeyaReport:
    """Sweep the inequality ratio across families at decreasing scales.

    The statement is asymptotic, so acceptance is on boundedness of the
    ratio and on its growth per scale halving, not on a specific constant.
    """
    fams = list(families)
    if not fams:
        raise InvalidInputError("need at least one family")
    scales = [f.scale for f in fams]
    if any(b >= a for a, b in zip(scales, scales[1:])):
        raise InvalidInputError("families must come at strictly decreasing scales")
    rows = tuple(kakeya_rows(f, [p], eps)[0] for f in fams)
    return KakeyaReport(float(p), rows, ratio_bound, growth_bound)
