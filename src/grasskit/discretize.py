"""Resolution-scale machinery: direction nets of the Grassmannian, slab
neighborhoods of chart m-planes, grid counting, box-dimension fits, the
ball-counting spacing condition, and the spacing partition.

Conventions fixed here and used everywhere:

* grids over the chart box [-1, 1]^q are anchored at -1 with half-open
  cells of side delta (the top edge is folded into the last cell); a
  coordinate beyond the box, +-inf included, lies in the edge cell, and
  NaN raises ``InvalidInputError``;
* radii for the spacing condition are dyadic, r in {delta, 2 delta, ..., 1},
  and balls are closed Euclidean balls centered at family members;
* a slab neighborhood of a chart m-plane is the product over the l+1
  slices of the band of width delta around the section, clipped to the
  box.  ``SlabNeighborhood`` holds a stack of planes (one plane is a stack
  of one) and answers for all at once, member by member, from one vertex
  enumeration of its bands: exact measures by Lasserre's facet recursion;
  cells by scanning each band inside the cell box of its vertices, along
  lines of centers over the first q-1 axes cut to intervals of the last,
  then the deviation test on the centers.  A member's rows are
  lexicographic, slice 0 most significant;
* a grid cell is counted by one int64 key, the row-major mixed-radix
  number of its index tuple with radix ``cells_per_axis(scale)`` (axis 0
  most significant), so sorted keys follow lexicographic tuple order.
  ``GridCounter`` sorts keys and compares neighbours.  ``box_count`` keys
  the same way, column by column with no index matrix, and marks the keys
  on a bool occupancy mask when the key range is below 8 keys per point
  (the mask is then no larger than the keys), else sorts them; when the
  range overflows int64 it counts the index rows by lexsort.  A caller may
  pass its own mask, sized for all the points it will box, and box them a
  block at a time onto it, each call counting the cells that the calls
  before it left unmarked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from . import linalg
from .affine import ChartMPlane, ChartPoint
from .errors import InvalidInputError, InvalidScaleError, ResourceCapError
from .grassmann import distances, random_subspaces

CELL_CAP = 16_000_000
KEY_MAX = np.iinfo(np.int64).max
# points keyed per batch by box_count; bounds its temporaries only
KEY_BATCH = 1 << 16


def _check_scale(delta: float) -> float:
    if not (0.0 < delta <= 1.0):
        raise InvalidScaleError(f"scale must be in (0, 1], got {delta}")
    return float(delta)


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


# ----------------------------------------------------------------- nets

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


@lru_cache(maxsize=64)
def build_direction_net(sub_dim: int, ambient: int, delta: float) -> np.ndarray:
    """Separated net of the Grassmannian of sub_dim-subspaces of R^ambient,
    as a read-only stack (K, ambient, sub_dim) of orthonormal bases.

    Lines in the plane get an exact angle grid; other shapes use
    farthest-point insertion over a deterministic pseudo-random candidate
    cloud, so they are separated and covering only up to sampling density.
    The net depends on the arguments alone (the cloud is seeded from
    them), so each net is built once and the same array is returned again.
    """
    delta = _check_scale(delta)
    if sub_dim == 0 or sub_dim == ambient:
        return linalg.frozen(np.eye(ambient)[None, :, :sub_dim])
    if sub_dim == 1 and ambient == 2:
        # pitch pi/floor(pi/delta) >= delta keeps the separation exact
        count = max(1, int(math.floor(np.pi / delta)))
        angles = (np.arange(count) * (np.pi / count)).tolist()
        return linalg.frozen(linalg.orthonormalize_stack(
            np.array([[[math.cos(a)], [math.sin(a)]] for a in angles]))[0])
    dim_g = sub_dim * (ambient - sub_dim)
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence([0xD17EC7, sub_dim, ambient, int(round(1.0 / delta))])))
    if sub_dim == 1:
        n_cand = min(int(40 * (2.0 / delta) ** dim_g), 400_000)
        g = rng.standard_normal((n_cand, ambient))
        cands = g / np.linalg.norm(g, axis=1, keepdims=True)
        keep = _farthest_point_indices(
            lambda i: np.arccos(np.clip(np.abs(cands @ cands[i]), 0.0, 1.0)), delta)
        return linalg.frozen(cands[keep, :, None])
    cands = random_subspaces(rng, min(int(10 * (2.0 / delta) ** dim_g), 4_000),
                             ambient, sub_dim)
    keep = _farthest_point_indices(
        lambda i: distances(np.broadcast_to(cands[i], cands.shape), cands), delta)
    return linalg.frozen(cands[keep])


# ----------------------------------------------------------------- cells

def cells_per_axis(delta: float) -> int:
    return int(math.ceil(2.0 / delta - 1e-12))


def _cell_column(coords: np.ndarray, delta: float, top: int, out: np.ndarray) -> np.ndarray:
    """floor((x + 1) / delta) of each coordinate, clipped to [0, top] in
    float, into ``out``; NaN lies in no cell."""
    np.add(coords, 1.0, out=out)
    out /= delta
    np.clip(np.floor(out, out=out), 0.0, top, out=out)
    if out.size and np.isnan(out.min()):
        raise InvalidInputError("a NaN coordinate lies in no grid cell")
    return out


def cell_indices(points: np.ndarray, delta: float) -> np.ndarray:
    """Integer grid cells (anchored at -1, half-open, side delta)."""
    delta = _check_scale(delta)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    top = cells_per_axis(delta) - 1
    # column by column: a reduction or ufunc over the short axis of a tall
    # array is far slower than the same work on its strided columns.  One
    # column buffer serves every column, so at most one temporary is alive
    idx = np.empty(pts.shape, dtype=np.int64)
    col = np.empty(pts.shape[0])
    for a in range(pts.shape[1]):
        idx[:, a] = _cell_column(pts[:, a], delta, top, col)
    return idx


def _cell_keys(idx: np.ndarray, radix: int) -> np.ndarray:
    """Mixed-radix int64 key of each row of ``idx`` (axis 0 most
    significant); the caller keeps ``radix ** dim`` within int64."""
    keys = idx[:, 0].copy()
    for a in range(1, idx.shape[1]):
        keys *= radix
        keys += idx[:, a]
    return keys


def _run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal sorted keys."""
    return np.flatnonzero(np.diff(sorted_keys, prepend=sorted_keys[:1] - 1))


def _lexsort_distinct_rows(idx: np.ndarray) -> int:
    rows = idx[np.lexsort(idx.T[::-1])]
    return 1 + int(np.count_nonzero(np.any(rows[1:] != rows[:-1], axis=1)))


def occupancy_mask(dim: int, delta: float, rows: int) -> np.ndarray | None:
    """A cleared bool mask over the cell keys of points in R^dim at
    ``delta``, or None when that key range is 8 keys per row or more, so
    the mask of ``rows`` points is never larger than their keys."""
    span = cells_per_axis(_check_scale(delta)) ** dim
    return np.zeros(span, dtype=bool) if span < 8 * rows else None


def box_count(points: np.ndarray, delta: float, seen: np.ndarray | None = None) -> int:
    """Number of grid cells holding at least one of the points.

    Given ``seen``, an :func:`occupancy_mask` at ``delta``, only the cells
    not yet marked on it are counted, and the points' cells are marked, so
    a point set can be boxed a block at a time onto one mask."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, dim = pts.shape
    radix = cells_per_axis(_check_scale(delta))
    if n == 0:
        return 0
    if seen is None:
        if radix ** dim > KEY_MAX:
            return _lexsort_distinct_rows(cell_indices(pts, delta))
        seen = occupancy_mask(dim, delta, n)
    # keys folded column by column in _cell_keys's order, a batch at a time
    keys = np.empty(n, dtype=np.int64)
    col = np.empty(min(n, KEY_BATCH))
    cell = np.empty(len(col), dtype=np.int64)
    for start in range(0, n, KEY_BATCH):
        block = keys[start:start + KEY_BATCH]
        b = len(block)
        block[:] = _cell_column(pts[start:start + b, 0], delta, radix - 1, col[:b])
        for a in range(1, dim):
            cell[:b] = _cell_column(pts[start:start + b, a], delta, radix - 1, col[:b])
            block *= radix
            block += cell[:b]
    if seen is not None:
        # the new cells are counted over the keys' range only: a block of
        # nearby members touches a small part of a shared mask
        lo, hi = int(keys.min()), int(keys.max()) + 1
        before = np.count_nonzero(seen[lo:hi])
        seen[keys] = True
        return int(np.count_nonzero(seen[lo:hi]) - before)
    keys.sort()
    return 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))


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
    and their counts."""

    scale: float
    dim: int
    keys: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    counts: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))

    def __post_init__(self):
        self.radix = cells_per_axis(_check_scale(self.scale))
        if self.radix ** self.dim > KEY_MAX:
            raise ResourceCapError("grid too fine for int64 cell keys")

    def add_cells(self, cells: np.ndarray) -> None:
        """Count each row once more; the held keys, repeated by their
        counts, are sorted with the new ones."""
        idx = np.atleast_2d(np.asarray(cells, dtype=np.int64))
        if idx.size == 0:
            return
        if idx.shape[1] != self.dim or idx.min() < 0 or idx.max() >= self.radix:
            raise InvalidInputError("cells lie outside the counter's grid")
        keys = _cell_keys(idx, self.radix)
        keys = np.sort(np.concatenate([np.repeat(self.keys, self.counts), keys]))
        starts = _run_starts(keys)
        self.keys, self.counts = keys[starts], np.diff(np.r_[starts, keys.size])

    @property
    def occupied(self) -> int:
        return int(self.keys.size)

    def lp_power_sum(self, p: float) -> float:
        return float(np.sum(self.counts.astype(float) ** p))


# ------------------------------------------------------------- polytopes

VERTEX_TOL = 1e-9
ZERO_TOL = 1e-12
# work per batch of the stacked slab kernels: (polytope, row subset)
# systems for polytope_vertices and polytope_volume, scan lines for the
# raster; they bound the temporaries, not the results
VERTEX_BATCH = 1 << 16
RASTER_BATCH = 1 << 17


def _grids(spans: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Every point of the grids 0 <= idx < spans[p] (spans (P, c)), grid
    after grid in row-major order: its grid p and its index tuple.  Raises
    ResourceCapError before allocating more than CELL_CAP points."""
    size = np.prod(spans, axis=1)
    if size.sum() > CELL_CAP:
        raise ResourceCapError(f"{what} exceeds the cell cap")
    grid = np.repeat(np.arange(size.size), size)
    rest = np.arange(grid.size) - np.repeat(np.cumsum(size) - size, size)
    idx = np.empty((grid.size, spans.shape[1]), dtype=np.int64)
    for ax in reversed(range(spans.shape[1])):
        idx[:, ax] = rest % spans[grid, ax]
        rest //= spans[grid, ax]
    return grid, idx


def _intervals(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ends of {t : a t <= b} over the last axis (a = 0, b < 0 empties it)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        x = b / a
    hi = np.where(a > 0, x, np.where((a == 0) & (b < 0), -np.inf, np.inf))
    return (np.max(np.where(a < 0, x, -np.inf), axis=-1, initial=-np.inf),
            np.min(hi, axis=-1, initial=np.inf))


def polytope_vertices(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of polytopes {x : a x <= b}, a (P, R, q) and b (P, R): the
    regular, feasible solutions of the q-subsets of rows, solved for a
    batch of polytopes at a time.  A subset holding a row and its negation
    (in every polytope) is singular and skipped.  Returns the vertices
    padded to the largest count V, (P, V, q), with the mask (P, V) of those
    present, each polytope's in subset order."""
    sub = np.array(list(combinations(range(a.shape[1]), a.shape[2])))
    rows = np.swapaxes(a, 0, 1).reshape(a.shape[1], -1)
    opposite = np.array([[np.array_equal(u, -v) for v in rows] for u in rows])
    sub = sub[~np.any(opposite[sub[:, :, None], sub[:, None]], axis=(1, 2))]
    batch, verts, valid = max(1, VERTEX_BATCH // max(1, len(sub))), [], []
    for start in range(0, len(a), batch):
        part_a, part_b = a[start:start + batch], b[start:start + batch]
        sub_a, sub_b = part_a[:, sub], part_b[:, sub]
        regular = np.abs(np.linalg.det(sub_a)) >= 1e-12
        x = np.zeros(sub_b.shape)
        x[regular] = np.linalg.solve(sub_a[regular], sub_b[regular][..., None])[..., 0]
        slack = part_b[:, None] - np.matmul(x, np.swapaxes(part_a, 1, 2))
        ok = regular & np.all(slack >= -VERTEX_TOL, axis=2)
        first = np.argsort(~ok, axis=1, kind="stable")  # the vertices, in subset order
        verts.append(np.take_along_axis(x, first[..., None], axis=1))
        valid.append(np.take_along_axis(ok, first, axis=1))
    width = max([int(v.sum(1).max()) for v in valid], default=0)
    return (np.concatenate([v[:, :width] for v in verts] or [np.zeros((0, 0, a.shape[2]))]),
            np.concatenate([v[:, :width] for v in valid] or [np.zeros((0, 0), dtype=bool)]))


def polytope_volume(a: np.ndarray, b: np.ndarray, verts: np.ndarray,
                    valid: np.ndarray) -> np.ndarray:
    """Exact volumes (P,) of bounded polytopes {x : a x <= b} with vertices
    ``verts`` under mask ``valid`` (as :func:`polytope_vertices` returns
    them), by :func:`_lasserre` a batch of polytopes at a time."""
    batch = max(1, VERTEX_BATCH // math.comb(a.shape[1], a.shape[2]))
    parts = [slice(i, i + batch) for i in range(0, len(a), batch)]
    return np.concatenate([np.zeros(0)] + [_lasserre(a[p], b[p], verts[p], valid[p])
                                           for p in parts])


def _lasserre(a: np.ndarray, b: np.ndarray, verts: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Lasserre's recursion (JOTA 39, 1983) about the vertex mean: vol_d =
    (1/d) sum_i b_i / |a_it| vol_(d-1)(facet i less coordinate t = argmax |a_it|)."""
    n_poly, n_rows, q = a.shape
    on = valid[..., None] & (np.abs(b[:, None] - np.matmul(verts, np.swapaxes(a, 1, 2)))
                             <= VERTEX_TOL)
    centre = np.sum(verts * valid[..., None], axis=1) / np.maximum(valid.sum(1), 1)[:, None]
    b = b - np.matmul(a, centre[..., None])[..., 0]
    own, faces, weight = np.arange(n_poly), valid, np.ones(n_poly)
    live, rows = np.ones((n_poly, n_rows), dtype=bool), np.arange(n_rows)
    for d in range(q, 1, -1):  # facets holding a vertex, of every face
        s, i = np.nonzero(live & np.any(faces[..., None] & on[own], axis=1))
        pivot = a[s, i]
        t = np.argmax(np.abs(pivot), axis=1)
        alpha = pivot[np.arange(s.size), t]
        ratio = np.take_along_axis(a[s], t[:, None, None], axis=2)[..., 0] / alpha[:, None]
        cols = np.arange(d - 1) + (np.arange(d - 1) >= t[:, None])
        a_s = np.take_along_axis(a[s] - ratio[..., None] * pivot[:, None], cols[:, None], axis=2)
        b_s = b[s] - ratio * b[s, i][:, None]
        # a row vanishing on the facet drops out if it holds there, empties
        # the facet if it fails, or, on one hyperplane with row i facing
        # the same way, leaves the facet to the lower row
        zero = live[s] & (np.max(np.abs(a_s), axis=2) <= ZERO_TOL)
        drop = (b_s < -ZERO_TOL) | ((np.abs(b_s) <= ZERO_TOL) & (ratio > 0) & (rows < i[:, None]))
        keep = ~np.any(zero & drop, axis=1)
        weight = (weight[s] * b[s, i] / (np.abs(alpha) * d))[keep]
        faces, live = (faces[s] & on[own[s], :, i])[keep], (live[s] & ~zero)[keep]
        own, a, b = own[s][keep], a_s[keep], b_s[keep]
    lo, hi = _intervals(np.where(live, a[..., 0], 0.0), np.where(live, b, 0.0))
    # astype: an empty bincount is of integer type
    return np.bincount(own, weight * np.maximum(hi - lo, 0.0), n_poly).astype(float)


# ----------------------------------------------------------------- slabs

def _normal_dots(diff: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """(x - o) . N_a over the c axes of diff (..., c), normals (..., q, k),
    summed left to right so that the raster and ``chart_distance`` round
    alike."""
    acc = np.zeros(diff.shape[:-1] + normals.shape[-1:])
    for i in range(diff.shape[-1]):
        acc += diff[..., i, None] * normals[..., i, :]
    return acc


@dataclass(frozen=True, init=False, eq=False)
class SlabNeighborhood:
    """The delta-neighborhoods of the sets of l-planes contained in a stack
    of chart m-planes: a ``ChartMPlane`` or anything holding ``directions``
    (M, q, r) and ``offsets`` (M, l+1, q), such as a ``PlaneFamily``.
    Member i gives R_0 x ... x R_l, R_j the band of half-width delta (in
    the n-m normal directions) around section j, clipped to [-1, 1]^q."""

    scale: float
    offsets: np.ndarray
    normals: np.ndarray

    def __init__(self, planes, scale: float):
        if isinstance(planes, ChartMPlane):
            directions, offsets = planes.direction.basis[None], planes.offsets[None]
        else:
            directions, offsets = np.asarray(planes.directions, dtype=float), planes.offsets
        object.__setattr__(self, "scale", _check_scale(scale))
        object.__setattr__(self, "offsets", np.asarray(offsets, dtype=float))
        object.__setattr__(self, "normals", linalg.orthonormal_completion(
            directions)[:, :, directions.shape[2]:])

    def chart_distance(self, point: ChartPoint | np.ndarray) -> np.ndarray:
        """Euclidean distance (M,) from a chart point to each slab product."""
        coords = point.coords if isinstance(point, ChartPoint) else \
            np.asarray(point, dtype=float).reshape(self.offsets.shape[1:])
        dots = _normal_dots(coords - self.offsets, self.normals[:, None])
        return np.sqrt(np.sum(np.maximum(np.abs(dots) - self.scale, 0.0) ** 2, axis=(1, 2)))

    def contains(self, point: ChartPoint | np.ndarray) -> np.ndarray:
        """Which members' neighborhoods hold the point, (M,) booleans: the
        raster's test."""
        return self.chart_distance(point) <= 0.0

    @cached_property
    def polytopes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every R_j as {x : a x <= b}, member-major (box rows, then band
        rows), with its vertices and their mask: the stack's one call of
        :func:`polytope_vertices`, made on first use."""
        m, copies, q = self.offsets.shape
        nt = np.repeat(np.swapaxes(self.normals, 1, 2), copies, axis=0)
        shift = np.matmul(nt, self.offsets.reshape(m * copies, q, 1))[..., 0]
        eye = np.broadcast_to(np.eye(q), (m * copies, q, q))
        a = np.concatenate([eye, -eye, nt, -nt], axis=1)
        b = np.concatenate([np.ones((m * copies, 2 * q)), shift + self.scale,
                            self.scale - shift], axis=1)
        return (a, b, *polytope_vertices(a, b))

    def measure(self) -> np.ndarray:
        """Exact measure (M,) of each member's neighborhood."""
        volumes = polytope_volume(*self.polytopes)
        return np.prod(volumes.reshape(self.offsets.shape[:2]), axis=1)

    def cells(self) -> np.ndarray:
        """Grid cells of the chart at the slab scale whose centers lie in the
        neighborhoods, member after member, each member's rows in
        lexicographic order."""
        m, copies, q = self.offsets.shape
        verts, valid = self.polytopes[2:]
        # the cell box of each band's vertices (empty without vertices)
        lo = cell_indices(np.min(np.where(valid[..., None], verts, 2.0), axis=1, initial=2.0),
                          self.scale)
        hi = cell_indices(np.max(np.where(valid[..., None], verts, -2.0), axis=1,
                                 initial=-2.0), self.scale)
        # the lines of centers over the first q-1 axes of each box
        span = np.maximum(hi - lo + 1, 0)
        grid = span[:, :-1] * (span[:, -1:] > 0)
        lines = np.prod(grid, axis=1)
        if lines.sum() > CELL_CAP:
            raise ResourceCapError("slab rasterization exceeds the cell cap")
        # whole members at a time, about RASTER_BATCH scan lines per batch
        most = max(1, int(lines.reshape(m, copies).sum(1).max(initial=0)))
        step = copies * max(1, RASTER_BATCH // most)
        factor, band, candidates = [np.zeros((0, q), dtype=np.int64)], [np.zeros(0, int)], 0
        for start in range(0, m * copies, step):
            part = slice(start, start + step)
            cells, owner, candidates = self._scan(start, grid[part], lo[part], hi[part],
                                                  candidates)
            factor.append(cells)
            band.append(owner)
        factor = np.concatenate(factor)
        if copies == 1:
            return factor
        # product over the slices: slice 0 varies slowest within a member
        counts = np.bincount(np.concatenate(band), minlength=m * copies)
        starts = (np.cumsum(counts) - counts).reshape(m, copies)
        member, idx = _grids(counts.reshape(m, copies), "slab product")
        return np.concatenate([factor[starts[member, j] + idx[:, j]] for j in range(copies)],
                              axis=1)

    def _scan(self, start: int, grid: np.ndarray, lo: np.ndarray, hi: np.ndarray,
              candidates: int) -> tuple[np.ndarray, np.ndarray, int]:
        """Kept cells (K, q), in raster order, of the bands start, start+1, ...
        (in the order of :attr:`polytopes`) inside their cell boxes
        lo..hi, scanned along ``grid`` lines each, with the band of each cell
        and the family's running candidate count."""
        q, delta = lo.shape[1], self.scale
        origins = self.offsets.reshape(-1, q)[start:start + len(lo)]
        normals = self.normals[(start + np.arange(len(lo))) // self.offsets.shape[1]]
        poly, line = _grids(grid, "slab rasterization")
        line += lo[poly, :-1]
        partial = _normal_dots(-1.0 + (line + 0.5) * delta - origins[poly, :-1], normals[poly])
        # last axis: |partial + (t - o_last) N_last| <= delta, widened by a tolerance
        n_last, o_last, bound = normals[poly, -1], origins[poly, -1], delta + VERTEX_TOL
        t_lo, t_hi = _intervals(np.hstack([n_last, -n_last]),
                                np.hstack([bound - partial, bound + partial]))
        box_lo, box_hi = lo[poly, -1], hi[poly, -1]
        first = np.ceil(np.clip((o_last + t_lo + 1.0) / delta - 0.5, box_lo, box_hi + 1))
        stop = np.floor(np.clip((o_last + t_hi + 1.0) / delta - 0.5, box_lo - 1, box_hi))
        count = np.maximum(stop - first + 1, 0).astype(np.int64)
        candidates += int(count.sum())
        if candidates > CELL_CAP:
            raise ResourceCapError("slab rasterization exceeds the cell cap")
        at, step = _grids(count[:, None], "slab rasterization")
        last = first.astype(np.int64)[at] + step[:, 0]
        dots = partial[at] + (-1.0 + (last + 0.5) * delta - o_last[at])[:, None] * n_last[at]
        keep = np.max(np.abs(dots), axis=1, initial=0.0) <= delta
        return np.column_stack([line[at], last])[keep], start + poly[at][keep], candidates


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


SPACING_CAP = 30_000  # members of one spacing check


def spacing_report(points: np.ndarray, delta: float, exponent: float) -> SpacingReport:
    """Check #(points ∩ B_r(x)) <= (r/delta)^exponent for all members x and
    dyadic radii.  Balls are closed and member-centered."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m = pts.shape[0]
    if m == 0:
        return SpacingReport(True, 0.0, -1, delta, 0)
    if m > SPACING_CAP:
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
                      m_bound: float) -> list[np.ndarray]:
    """Partition a finite set into parts that each satisfy the ball-counting
    bound with constant 1, by greedy peeling.

    Requires the input to satisfy the bound with constant ``m_bound``
    (checked first).  Each round keeps, for the worst ball that
    :func:`spacing_report` finds, the quota of members closest to its
    center and defers the rest to later parts.  Above 2,000 candidates
    that scan runs in row chunks, so of two equal worst ratios in different
    chunks it may keep another than one scan over all rows would.
    Returns index arrays into ``points``; ResourceCapError beyond
    max(16, 64 M^2) parts.
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
    max_parts = max(16, int(64 * m_bound ** 2))
    order = np.lexsort(pts.T[::-1])
    pool = list(order)
    parts: list[np.ndarray] = []
    while pool:
        if len(parts) >= max_parts:
            raise ResourceCapError("partition did not converge within the part cap")
        cand = list(pool)
        while True:
            sub = pts[cand]
            worst = spacing_report(sub, delta, exponent)
            if worst.ok:
                break
            r = worst.worst_radius
            d = np.sqrt(np.sum((sub - sub[worst.worst_center]) ** 2, axis=-1))
            members = [k for k in range(len(cand)) if d[k] <= r + 1e-12]
            quota = max(1, int(math.floor((r / delta) ** exponent + 1e-9)))
            members.sort(key=lambda k: (d[k], cand[k]))
            drop = {cand[k] for k in members[quota:]}
            cand = [c for c in cand if c not in drop]
        parts.append(np.array(cand, dtype=np.int64))
        taken = set(cand)
        pool = [p for p in pool if p not in taken]
    return parts
