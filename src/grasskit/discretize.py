"""Resolution-scale machinery: separated nets, slab neighborhoods of chart
m-planes, grid counting, box-dimension fits, the ball-counting spacing
condition, and the spacing partition.

Conventions fixed here and used everywhere:

* grids over the chart box [-1, 1]^q are anchored at -1 with half-open
  cells of side delta (the top edge is folded into the last cell);
* radii for the spacing condition are dyadic, r in {delta, 2 delta, ..., 1},
  and balls are closed Euclidean balls centered at family members;
* a slab neighborhood of a chart m-plane is the product over the l+1
  slices of the band of width delta around the section, clipped to the
  box; its measure is the exact volume of that clipped product;
* a grid cell is counted by one int64 key, the row-major mixed-radix
  number of its index tuple (axis 0 most significant), so sorted keys
  follow lexicographic tuple order; counts sort keys and compare
  neighbours.  ``GridCounter`` uses radix ``cells_per_axis(scale)``;
  ``box_count`` packs ``idx - idx.min(0)`` with radix ``span + 1`` and
  counts rows by lexsort when even that overflows int64.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .affine import ChartMPlane, ChartPoint
from .errors import InvalidInputError, InvalidScaleError, ResourceCapError
from .grassmann import Subspace, distances, random_subspaces

CANDIDATE_CAP = 4_000_000
CELL_CAP = 16_000_000
KEY_MAX = np.iinfo(np.int64).max


def _check_scale(delta: float) -> float:
    if not (0.0 < delta <= 1.0):
        raise InvalidScaleError(f"scale must be in (0, 1], got {delta}")
    return float(delta)


# ----------------------------------------------------------------- nets

@dataclass(frozen=True)
class DeltaNet:
    """A finite separated point set at a given scale.

    ``maximal`` marks nets built to also be covering at the same scale
    (up to the candidate-grid resolution).
    """

    scale: float
    points: np.ndarray
    maximal: bool = False

    def __post_init__(self):
        object.__setattr__(self, "points", linalg.frozen(linalg.as_matrix(self.points)))

    def __len__(self) -> int:
        return self.points.shape[0]

    def min_separation(self) -> float:
        return float(min_pairwise_distance(self.points))


def min_pairwise_distance(points: np.ndarray) -> float:
    m = points.shape[0]
    if m < 2:
        return np.inf
    best = np.inf
    chunk = max(1, 2_000_000 // max(m, 1))
    for start in range(0, m, chunk):
        block = points[start:start + chunk]
        d2 = np.sum((block[:, None, :] - points[None, :, :]) ** 2, axis=-1)
        for i in range(block.shape[0]):
            d2[i, start + i] = np.inf
        best = min(best, float(np.sqrt(np.min(d2))))
    return best


def _farthest_point_indices(dist_to, delta: float) -> list[int]:
    """Farthest-point insertion from candidate 0, where ``dist_to(i)`` is
    the distance array from candidate i: separation >= delta, covering (of
    the candidates) < delta."""
    chosen = [0]
    dist = dist_to(0)
    while True:
        nxt = int(np.argmax(dist))
        if dist[nxt] < delta:
            return chosen
        chosen.append(nxt)
        dist = np.minimum(dist, dist_to(nxt))


def _farthest_point_net(candidates: np.ndarray, delta: float) -> np.ndarray:
    """Starts from the lexicographically first candidate, so the result is
    deterministic."""
    cands = candidates[np.lexsort(candidates.T[::-1])]
    return cands[_farthest_point_indices(
        lambda i: np.linalg.norm(cands - cands[i], axis=1), delta)]


def build_net(dim: int, delta: float, half_width: float = 1.0) -> DeltaNet:
    """Maximal delta-separated subset of [-half_width, half_width]^dim.

    Farthest-point insertion over a fine candidate grid (pitch delta/8),
    which is deterministic and maximal up to the grid resolution.
    """
    delta = _check_scale(delta)
    pitch = delta / 8.0
    per_axis = int(math.floor(2.0 * half_width / pitch)) + 1
    if per_axis ** dim > CANDIDATE_CAP:
        raise ResourceCapError("candidate grid too fine for build_net")
    axis = np.linspace(-half_width, half_width, per_axis)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    candidates = np.column_stack([g.ravel() for g in grids])
    return DeltaNet(delta, _farthest_point_net(candidates, delta), maximal=True)


def build_direction_net(sub_dim: int, ambient: int, delta: float) -> list[Subspace]:
    """Separated net of the Grassmannian of sub_dim-subspaces of R^ambient.

    Lines in the plane get an exact angle grid; other shapes use
    farthest-point insertion over a deterministic pseudo-random candidate
    cloud, so they are separated and covering only up to sampling density.
    """
    delta = _check_scale(delta)
    if sub_dim == 0 or sub_dim == ambient:
        return [Subspace.zero(ambient) if sub_dim == 0 else Subspace.full(ambient)]
    if sub_dim == 1 and ambient == 2:
        # pitch pi/floor(pi/delta) >= delta keeps the separation exact
        count = max(1, int(math.floor(np.pi / delta)))
        return [Subspace.from_vectors([[math.cos(a), math.sin(a)]])
                for a in np.arange(count) * (np.pi / count)]
    dim_g = sub_dim * (ambient - sub_dim)
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence([0xD17EC7, sub_dim, ambient, int(round(1.0 / delta))])))
    if sub_dim == 1:
        n_cand = min(int(40 * (2.0 / delta) ** dim_g), 400_000)
        g = rng.standard_normal((n_cand, ambient))
        cands = g / np.linalg.norm(g, axis=1, keepdims=True)
        keep = _farthest_point_indices(
            lambda i: np.arccos(np.clip(np.abs(cands @ cands[i]), 0.0, 1.0)), delta)
        return [Subspace(cands[i].reshape(-1, 1)) for i in keep]
    cands = random_subspaces(rng, min(int(10 * (2.0 / delta) ** dim_g), 4_000),
                             ambient, sub_dim)
    keep = _farthest_point_indices(
        lambda i: distances(np.broadcast_to(cands[i], cands.shape), cands), delta)
    return [Subspace(cands[i]) for i in keep]


# ----------------------------------------------------------------- cells

def cells_per_axis(delta: float) -> int:
    return int(math.ceil(2.0 / delta - 1e-12))


def cell_indices(points: np.ndarray, delta: float) -> np.ndarray:
    """Integer grid cells (anchored at -1, half-open, side delta)."""
    delta = _check_scale(delta)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    # column by column: a reduction or ufunc over the short axis of a tall
    # array is far slower than the same work on its strided columns
    idx = np.empty(pts.shape, dtype=np.int64)
    for a in range(pts.shape[1]):
        col = pts[:, a] + 1.0
        col /= delta
        idx[:, a] = np.floor(col, out=col)
    return np.clip(idx, 0, cells_per_axis(delta) - 1, out=idx)


def _cell_keys(idx: np.ndarray, lo, radix) -> np.ndarray:
    """Mixed-radix int64 key of each row of ``idx - lo`` (axis 0 most
    significant); the caller keeps the product of ``radix`` within int64."""
    keys = idx[:, 0] - lo[0]
    for a in range(1, idx.shape[1]):
        keys *= radix[a]
        keys += idx[:, a]
        keys -= lo[a]
    return keys


def _run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal sorted keys."""
    return np.flatnonzero(np.diff(sorted_keys, prepend=sorted_keys[:1] - 1))


def _lexsort_distinct_rows(idx: np.ndarray) -> int:
    rows = idx[np.lexsort(idx.T[::-1])]
    return 1 + int(np.count_nonzero(np.any(rows[1:] != rows[:-1], axis=1)))


def _distinct_rows(idx: np.ndarray) -> int:
    if idx.shape[0] == 0:
        return 0
    cols = [idx[:, a] for a in range(idx.shape[1])]
    lo = [int(c.min()) for c in cols]
    radix = [int(c.max()) - low + 1 for c, low in zip(cols, lo)]
    if math.prod(radix) > KEY_MAX:
        return _lexsort_distinct_rows(idx)
    keys = _cell_keys(idx, lo, radix)
    keys.sort()
    return 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))


def box_count(points_or_slabs, delta: float) -> int:
    """Number of occupied grid cells for points or slab neighborhoods."""
    if (not isinstance(points_or_slabs, np.ndarray)
            and all(isinstance(s, SlabNeighborhood) for s in points_or_slabs)):
        cells = [s.cells(delta) for s in points_or_slabs]
        return _distinct_rows(np.concatenate(cells)) if cells else 0
    pts = np.atleast_2d(np.asarray(points_or_slabs, dtype=float))
    return _distinct_rows(cell_indices(pts, delta))


@dataclass(frozen=True)
class BoxFit:
    """Least-squares slope of log(count) against log(1/delta)."""

    slope: float
    intercept: float
    residual: float


def box_dimension_fit(deltas, counts) -> BoxFit:
    d = np.asarray(deltas, dtype=float)
    c = np.asarray(counts, dtype=float)
    if len(d) != len(c) or len(d) < 2:
        raise InvalidInputError("need at least two scales")
    if np.any(c <= 0):
        raise InvalidInputError("counts must be positive")
    x = np.log(1.0 / d)
    y = np.log(c)
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.max(np.abs(y - (slope * x + intercept))))
    return BoxFit(float(slope), float(intercept), resid)


@dataclass(eq=False)
class GridCounter:
    """Sparse per-cell multiplicity over the chart grid: sorted cell keys
    and their counts.

    Workers fill disjoint counters and merge once at the end; the merge is
    order-independent because addition commutes.
    """

    scale: float
    dim: int
    keys: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    counts: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))

    def __post_init__(self):
        self.radix = cells_per_axis(_check_scale(self.scale))
        if self.radix ** self.dim > KEY_MAX:
            raise ResourceCapError("grid too fine for int64 cell keys")

    def add_cells(self, cells: np.ndarray, weight: int = 1) -> None:
        idx = np.atleast_2d(np.asarray(cells, dtype=np.int64))
        if idx.size == 0:
            return
        if idx.shape[1] != self.dim or idx.min() < 0 or idx.max() >= self.radix:
            raise InvalidInputError("cells lie outside the counter's grid")
        keys = np.sort(_cell_keys(idx, [0] * self.dim, [self.radix] * self.dim))
        starts = _run_starts(keys)
        self._absorb(keys[starts], np.diff(np.r_[starts, keys.size]) * weight)

    def add_points(self, points: np.ndarray, weight: int = 1) -> None:
        self.add_cells(cell_indices(points, self.scale), weight)

    def _absorb(self, keys: np.ndarray, counts: np.ndarray) -> None:
        """Add keys with their counts, summing the counts of equal keys."""
        keys = np.concatenate([self.keys, keys])
        order = np.argsort(keys)
        keys = keys[order]
        starts = _run_starts(keys)
        counts = np.concatenate([self.counts, counts])[order]
        self.keys, self.counts = keys[starts], np.add.reduceat(counts, starts)

    @property
    def occupied(self) -> int:
        return int(self.keys.size)

    def total(self) -> int:
        return int(self.counts.sum())

    def lp_power_sum(self, p: float) -> float:
        return float(np.sum(self.counts.astype(float) ** p))

    def merge(self, other: "GridCounter") -> None:
        if other.scale != self.scale or other.dim != self.dim:
            raise InvalidInputError("cannot merge counters of different grids")
        self._absorb(other.keys, other.counts)

    def to_csv(self, path) -> None:
        cells = np.unravel_index(self.keys, (self.radix,) * self.dim)
        np.savetxt(path, np.column_stack([*cells, self.counts]), fmt="%d",
                   delimiter=",", comments="",
                   header=",".join(f"i{a}" for a in range(self.dim)) + ",count")


# ------------------------------------------------------------- polytopes

def polytope_vertices(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vertices of {x : a x <= b} by enumerating active constraint sets."""
    q = a.shape[1]
    rows = a.shape[0]
    vertices = []
    for combo in itertools.combinations(range(rows), q):
        sub = a[list(combo)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, b[list(combo)])
        if np.all(a @ x <= b + 1e-9):
            vertices.append(x)
    if not vertices:
        return np.zeros((0, q))
    v = np.array(vertices)
    return np.unique(np.round(v, 12), axis=0)


def polytope_volume(a: np.ndarray, b: np.ndarray) -> float:
    """Exact volume of a bounded polytope {x : a x <= b} (0 if flat/empty)."""
    q = a.shape[1]
    verts = polytope_vertices(a, b)
    if verts.shape[0] < q + 1:
        return 0.0
    if q == 1:
        return float(np.max(verts) - np.min(verts))
    from scipy.spatial import ConvexHull, QhullError
    try:
        return float(ConvexHull(verts).volume)
    except QhullError:
        return 0.0


# ----------------------------------------------------------------- slabs

@dataclass(frozen=True)
class SlabNeighborhood:
    """The delta-neighborhood, inside the chart, of the set of l-planes
    contained in a chart m-plane.

    In chart coordinates this is the product R_0 x ... x R_l, where R_j is
    the band of half-width delta around the j-th section (delta in each of
    the n-m normal directions, unconstrained along the m-l section
    directions) clipped to the slice box [-1, 1]^(n-l).
    """

    core: ChartMPlane
    scale: float

    def __post_init__(self):
        _check_scale(self.scale)

    @property
    def copies(self) -> int:
        return self.core.l + 1

    def _normal(self) -> np.ndarray:
        return self.core.normal_frame()

    def factor_deviation(self, j: int, points: np.ndarray) -> np.ndarray:
        """Max-norm of the normal deviation of slice points from section j."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        nf = self._normal()
        if nf.shape[1] == 0:
            return np.zeros(pts.shape[0])
        dev = np.abs((pts - self.core.offsets[j]) @ nf)
        out = dev[:, 0].copy()
        for a in range(1, dev.shape[1]):
            np.maximum(out, dev[:, a], out=out)
        return out

    def contains(self, point: ChartPoint | np.ndarray, slack: float = 0.0) -> bool:
        coords = point.coords if isinstance(point, ChartPoint) else \
            np.asarray(point, dtype=float).reshape(self.copies, -1)
        for j in range(self.copies):
            if self.factor_deviation(j, coords[j][None, :])[0] > self.scale + slack:
                return False
        return True

    def chart_distance(self, point: ChartPoint | np.ndarray) -> float:
        """Euclidean distance from a stacked chart point to the slab product."""
        coords = point.coords if isinstance(point, ChartPoint) else \
            np.asarray(point, dtype=float).reshape(self.copies, -1)
        nf = self._normal()
        total = 0.0
        for j in range(self.copies):
            if nf.shape[1] == 0:
                continue
            dev = np.abs((coords[j] - self.core.offsets[j]) @ nf)
            excess = np.maximum(dev - self.scale, 0.0)
            total += float(excess @ excess)
        return math.sqrt(total)

    def _factor_constraints(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """R_j as {x : a x <= b}: the slice box, then the band."""
        q = self.core.slice_dim
        nf = self._normal()
        shift = nf.T @ self.core.offsets[j]
        a = np.vstack([np.eye(q), -np.eye(q), nf.T, -nf.T])
        b = np.concatenate([np.ones(q), np.ones(q), shift + self.scale,
                            self.scale - shift])
        return a, b

    def factor_measure(self, j: int) -> float:
        """Exact volume of R_j (band around section j clipped to the box)."""
        return polytope_volume(*self._factor_constraints(j))

    def measure(self) -> float:
        out = 1.0
        for j in range(self.copies):
            out *= self.factor_measure(j)
        return out

    def factor_cells(self, j: int, grid_delta: float | None = None) -> np.ndarray:
        """Grid cells of the slice box whose centers lie in R_j."""
        gd = _check_scale(self.scale if grid_delta is None else grid_delta)
        q = self.core.slice_dim
        nf = self._normal()
        n_cells = cells_per_axis(gd)
        if nf.shape[1] == 0:
            # the band is the whole box
            ranges = [np.arange(n_cells)] * q
        else:
            verts = polytope_vertices(*self._factor_constraints(j))
            if verts.shape[0] == 0:
                return np.zeros((0, q), dtype=np.int64)
            lo = cell_indices(np.min(verts, axis=0)[None, :], gd)[0]
            hi = cell_indices(np.max(verts, axis=0)[None, :], gd)[0]
            ranges = [np.arange(lo[i], hi[i] + 1) for i in range(q)]
        if math.prod(len(r) for r in ranges) > CELL_CAP:
            raise ResourceCapError("slab rasterization exceeds the cell cap")
        mesh = np.meshgrid(*ranges, indexing="ij")
        idx = np.column_stack([m.ravel() for m in mesh])
        centers = -1.0 + (idx + 0.5) * gd
        keep = self.factor_deviation(j, centers) <= self.scale
        return idx[keep]

    def cells(self, grid_delta: float | None = None) -> np.ndarray:
        """Grid cells of the chart product whose centers lie in the slab."""
        factor = [self.factor_cells(j, grid_delta) for j in range(self.copies)]
        total = math.prod(f.shape[0] for f in factor)
        if total > CELL_CAP:
            raise ResourceCapError("slab product exceeds the cell cap")
        if total == 0:
            q = self.core.slice_dim
            return np.zeros((0, q * self.copies), dtype=np.int64)
        out = factor[0]
        for f in factor[1:]:
            left = np.repeat(out, f.shape[0], axis=0)
            right = np.tile(f, (out.shape[0], 1))
            out = np.hstack([left, right])
        return out


def slab_membership(point: ChartPoint, slab: SlabNeighborhood,
                    slack: float = 0.0) -> bool:
    return slab.contains(point, slack)


def ball_measure(delta: float, l: int, n: int) -> float:
    """Volume of a delta-ball in the chart (dimension (n-l)(l+1))."""
    delta = _check_scale(delta)
    dim = (n - l) * (l + 1)
    unit = np.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)
    return float(unit * delta ** dim)


# --------------------------------------------------------------- spacing

def dyadic_radii(delta: float) -> np.ndarray:
    delta = _check_scale(delta)
    radii = []
    r = delta
    while r < 1.0 - 1e-12:
        radii.append(r)
        r *= 2.0
    radii.append(1.0)
    return np.array(radii)


@dataclass(frozen=True)
class SpacingReport:
    """Worst ball-counting ratio against the bound (r/delta)^exponent."""

    ok: bool
    worst_ratio: float
    worst_center: int
    worst_radius: float
    worst_count: int


def spacing_report(points: np.ndarray, delta: float, exponent: float,
                   cap: int = 30_000) -> SpacingReport:
    """Check #(points ∩ B_r(x)) <= (r/delta)^exponent for all members x and
    dyadic radii.  Balls are closed and member-centered."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m = pts.shape[0]
    if m == 0:
        return SpacingReport(True, 0.0, -1, delta, 0)
    if m > cap:
        raise ResourceCapError(f"spacing check on {m} members exceeds the cap")
    if exponent < 0:
        raise InvalidInputError("exponent must be non-negative")
    radii = dyadic_radii(delta)
    worst = (0.0, -1, delta, 0)
    chunk = max(1, 4_000_000 // m)
    for start in range(0, m, chunk):
        block = pts[start:start + chunk]
        d = np.sqrt(np.sum((block[:, None, :] - pts[None, :, :]) ** 2, axis=-1))
        for r in radii:
            counts = np.sum(d <= r + 1e-12, axis=1)
            bound = (r / delta) ** exponent
            i = int(np.argmax(counts))
            ratio = counts[i] / bound
            if ratio > worst[0]:
                worst = (float(ratio), start + i, float(r), int(counts[i]))
    return SpacingReport(worst[0] <= 1.0 + 1e-9, *worst)


def check_spacing(points: np.ndarray, delta: float, exponent: float) -> bool:
    return spacing_report(points, delta, exponent).ok


def partition_spacing(points: np.ndarray, delta: float, exponent: float,
                      m_bound: float, max_parts: int | None = None) -> list[np.ndarray]:
    """Partition a finite set into parts that each satisfy the ball-counting
    bound with constant 1, by greedy peeling.

    Requires the input to satisfy the bound with constant ``m_bound``
    (checked first).  Each round keeps, for the worst ball, the quota of
    members closest to its center and defers the rest to later parts.
    Returns index arrays into ``points``.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m = pts.shape[0]
    if m == 0:
        return []
    pre = spacing_report(pts, delta, exponent)
    if pre.worst_ratio > m_bound + 1e-9:
        raise InvalidInputError(
            f"precondition violated: ball at member {pre.worst_center} radius "
            f"{pre.worst_radius} holds {pre.worst_count} members "
            f"(ratio {pre.worst_ratio:.3f} > M={m_bound})")
    if max_parts is None:
        max_parts = max(16, int(64 * m_bound ** 2))
    order = np.lexsort(pts.T[::-1])
    pool = list(order)
    parts: list[np.ndarray] = []
    radii = dyadic_radii(delta)
    while pool:
        if len(parts) >= max_parts:
            raise ResourceCapError("partition did not converge within the part cap")
        cand = list(pool)
        while True:
            sub = pts[cand]
            d = np.sqrt(np.sum((sub[:, None, :] - sub[None, :, :]) ** 2, axis=-1))
            worst_ratio, worst = 1.0 + 1e-9, None
            for r in radii:
                counts = np.sum(d <= r + 1e-12, axis=1)
                bound = (r / delta) ** exponent
                i = int(np.argmax(counts))
                if counts[i] / bound > worst_ratio:
                    worst_ratio, worst = counts[i] / bound, (i, r)
            if worst is None:
                break
            i, r = worst
            members = [k for k in range(len(cand)) if d[i, k] <= r + 1e-12]
            quota = max(1, int(math.floor((r / delta) ** exponent + 1e-9)))
            members.sort(key=lambda k: (d[i, k], cand[k]))
            drop = {cand[k] for k in members[quota:]}
            cand = [c for c in cand if c not in drop]
        parts.append(np.array(cand, dtype=np.int64))
        taken = set(cand)
        pool = [p for p in pool if p not in taken]
    return parts
