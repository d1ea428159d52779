"""Affine planes, the local chart, incidence, and the product embedding.

An ``AffinePlane`` is direction + offset with the offset orthogonal to the
direction, which makes the decomposition unique.  The local chart fixes
the reference slices

    S_0 = R^(n-l) x {0}^l,   S_j = S_0 + e_(n-l+j)  (j = 1..l),

parallel (n-l)-planes.  An l-plane transverse to S_0 meets each S_j in a
single point whose leading n-l coordinates give the chart coordinate
x_j in [-1, 1]^(n-l); an m-plane meets each S_j in parallel (m-l)-planes,
all sharing one direction inside R^(n-l).

Stacking the l+1 slice coordinates embeds chart l-planes into
R^N, N = (n-l)(l+1), and chart m-planes into affine k-planes of R^N,
k = (m-l)(l+1), as products of their slice sections.  Incidence (the
l-plane lies inside the m-plane) is equivalent to the stacked point lying
on the product plane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import CertificateError, InvalidInputError, OutOfChartError
from .grassmann import Subspace, distance as grassmann_distance

CHART_TOL = 1e-9
INCIDENCE_TOL = 1e-9


def affine_offsets(bases: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Offsets (N, n) of N affine planes made orthogonal to their directions,
    whose orthonormal bases are ``bases`` (N, n, k)."""
    if offsets.ndim != 2 or offsets.shape != bases.shape[:2]:
        raise InvalidInputError("offset/direction ambient mismatch")
    if not np.all(np.isfinite(offsets)):
        raise InvalidInputError("offset has non-finite entries")
    return offsets - _project(bases, offsets)


def _project(bases: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Orthogonal projections (N, n) of the rows of ``x`` onto the spans of
    ``bases`` (N, n, k); one matrix-vector product per row, as for 1-d x."""
    return (bases @ (np.swapaxes(bases, 1, 2) @ x[:, :, None]))[:, :, 0]


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of ``x``, each the dot a lone vector takes."""
    x = np.ascontiguousarray(x)
    return np.sqrt(np.vecdot(x, x))


def point_distances(bases: np.ndarray, offsets: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Distances (N,) from the points (N, n) to N affine planes given by
    their direction bases (N, n, k) and orthogonal offsets (N, n)."""
    return _norms(points - _project(bases, points) - offsets)


@dataclass(frozen=True)
class AffinePlane:
    """Affine plane ``{offset + u : u in direction}`` with offset ⟂ direction."""

    direction: Subspace
    offset: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.offset, dtype=float).ravel()
        x = affine_offsets(self.direction.basis[None], x[None])[0]
        object.__setattr__(self, "offset", linalg.frozen(x))

    @classmethod
    def view(cls, basis: np.ndarray, offset: np.ndarray) -> "AffinePlane":
        """The plane over one row of arrays whose offset already passed
        :func:`affine_offsets`; the offset is kept as given, not projected
        again."""
        plane = object.__new__(cls)
        object.__setattr__(plane, "direction", Subspace(basis))
        object.__setattr__(plane, "offset", linalg.frozen(offset))
        return plane

    @property
    def ambient_dim(self) -> int:
        return self.direction.ambient_dim

    @property
    def dim(self) -> int:
        return self.direction.dim

    def point_distance(self, x) -> float:
        x = np.asarray(x, dtype=float).reshape(1, -1)
        return float(point_distances(self.direction.basis[None], self.offset[None], x)[0])

    def same(self, other: "AffinePlane", tol: float = 1e-9) -> bool:
        return (self.direction.same(other.direction, tol)
                and float(np.linalg.norm(self.offset - other.offset)) <= tol)


def to_projective_stack(bases: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Lifts of N k-planes of R^n (direction bases (N, n, k), orthogonal
    offsets (N, n)): the bases (N, n+1, k+1) of the (k+1)-subspaces of
    R^(n+1) that meet the slice R^n x {1} exactly in the planes."""
    count, n, k = bases.shape
    cols = np.zeros((count, n + 1, k + 1))
    cols[:, :n, :k] = bases
    cols[:, :n, k] = offsets
    cols[:, n, k] = 1.0
    lifted, keep = linalg.orthonormalize_stack(cols)
    if not keep.all():
        # the direction columns fall below the rank floor of an offset
        # column some 1e10 times longer
        raise CertificateError("projective lift lost rank")
    return lifted


def from_projective_stack(lifted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`to_projective_stack` on its image: the direction
    bases (N, n, k) and orthogonal offsets (N, n) of the planes whose lifts
    have the bases ``lifted`` (N, n+1, k+1)."""
    n = lifted.shape[1] - 1
    last = lifted[:, n, :]
    if np.any(_norms(last) <= 1e-12):
        raise InvalidInputError("subspace is parallel to the affine slice")
    # direction: kernel of the last coordinate, from LAPACK's right singular
    # vectors past the first (linalg.svd's sign rule touches only the first);
    # anchor: last coordinate 1
    ker = np.swapaxes(np.linalg.svd(last[:, None, :])[2], 1, 2)[:, :, 1:]
    # the kernel columns of an orthonormal basis have last coordinate 0 and
    # stay orthonormal in R^n, so none is dropped
    bases = linalg.orthonormalize_stack((lifted @ ker)[:, :n, :])[0]
    t = last / np.vecdot(last, last)[:, None]
    anchors = (lifted @ t[:, :, None])[:, :n, 0]
    return bases, affine_offsets(bases, anchors)


def to_projective(plane: AffinePlane) -> Subspace:
    """Lift an l-plane of R^n to the (l+1)-subspace of R^(n+1) that meets
    the slice R^n x {1} exactly in the plane."""
    return Subspace(to_projective_stack(plane.direction.basis[None], plane.offset[None])[0])


def from_projective(sub: Subspace) -> AffinePlane:
    """Inverse of :func:`to_projective` on its image."""
    bases, offsets = from_projective_stack(sub.basis[None])
    return AffinePlane.view(bases[0], offsets[0])


def affine_distance(l1: AffinePlane, l2: AffinePlane) -> float:
    """Distance induced by the Grassmannian metric on the projective lifts
    (on stacks: ``grassmann.distances`` of two ``to_projective_stack``)."""
    return grassmann_distance(to_projective(l1), to_projective(l2))


def _max_norm_on_sphere(m: np.ndarray, c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """max ||m u + c|| over ||u|| = r (the max over the ball, by convexity)
    for each row of the stacks m (N, q, k), c (N, q) and r (N,).

    Solved through the eigen-decomposition of m^T m and the secular
    equation for the Lagrange multiplier, bisected on all rows at once.  A
    row stops at its own fixed point, where every later step would repeat
    the last one, so it takes the steps it would take alone.
    """
    out = _norms(c)
    rows = np.flatnonzero(r > 0.0) if m.shape[2] else np.zeros(0, dtype=int)
    if not len(rows):
        return out
    m, c, r = m[rows], c[rows], r[rows]
    k = m.shape[2]
    _, sigma, vt = np.linalg.svd(m)
    lam = np.zeros((len(rows), k))
    lam[:, :sigma.shape[1]] = sigma ** 2
    # the columns of vt^T are the eigenvectors of m^T m
    b = (vt @ (np.swapaxes(m, 1, 2) @ c[:, :, None]))[:, :, 0]
    lam_max, rr, nb = lam[:, 0], r * r, _norms(b)

    def norm_at(at, y):
        """||m u + c|| at u = q y on the rows ``at``."""
        q = np.swapaxes(vt[at], 1, 2)
        return _norms((m[at] @ (q @ y[:, :, None]))[:, :, 0] + c[at])

    def secular(at, t):
        """sum (b_i / (t - lam_i))^2 on the rows ``at``: r^2 at the multiplier."""
        return np.sum((b[at] / (t[:, None] - lam[at])) ** 2, axis=1)

    best = np.zeros(len(rows))
    tiny = nb <= 1e-14
    y = np.zeros((np.count_nonzero(tiny), k))
    y[:, 0] = r[tiny]
    best[tiny] = norm_at(tiny, y)
    # hard case: multiplier pinned at the top eigenvalue
    hard = ~tiny & (np.abs(b[:, 0]) < 1e-14)
    near = np.where(lam_max == 0, lam_max + 1e-300, lam_max * (1 + 1e-15) + 1e-300)
    hard[hard] = secular(hard, near[hard]) < rr[hard]
    shift = np.maximum(lam_max[hard] * 1e-12, 1e-300)
    y = b[hard] / ((lam_max[hard] + shift)[:, None] - lam[hard])
    y[:, 0] = 0.0
    y[:, 0] = np.sqrt(np.maximum(rr[hard] - np.vecdot(y, y), 0.0))
    best[hard] = norm_at(hard, y)
    at = ~tiny & ~hard
    bottom = lo = lam_max[at]
    hi = lo + nb[at] / r[at]
    above = np.nextafter(bottom, np.inf)
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        mid = np.where(mid <= bottom, above, mid)
        up = secular(at, mid) > rr[at]
        step = np.where(up, mid, lo), np.where(up, hi, mid)
        if np.array_equal(step[0], lo) and np.array_equal(step[1], hi):
            break
        lo, hi = step
    y = b[at] / (hi[:, None] - lam[at])
    val = norm_at(at, y * (r[at] / np.maximum(_norms(y), 1e-300))[:, None])
    # guard against numerical corner cases with axis candidates
    for i in range(k):
        e = np.zeros((len(hi), k))
        e[:, i] = r[at]
        val = np.maximum(val, np.maximum(norm_at(at, e), norm_at(at, -e)))
    best[at] = val
    out[rows] = best
    return out


def rho_distances(b1: np.ndarray, o1: np.ndarray, b2: np.ndarray,
                  o2: np.ndarray) -> np.ndarray:
    """:func:`rho_distance` (N,) for the pairs of two stacks of planes
    (bases (N, n, k), offsets (N, n))."""
    for o in (o1, o2):
        if np.any(_norms(o) > 0.5 + 1e-12):
            raise OutOfChartError("offset outside the ball of radius 1/2")
    if b1.shape[1] != b2.shape[1]:
        raise InvalidInputError("ambient dimension mismatch")
    comp = np.eye(b1.shape[1]) - b2 @ np.swapaxes(b2, 1, 2)
    m = comp @ b1
    c = (comp @ o1[:, :, None])[:, :, 0] - o2
    r = np.sqrt(np.maximum(0.0, 1.0 - np.vecdot(o1, o1)))
    return _max_norm_on_sphere(m, c, r)


def rho_distance(l1: AffinePlane, l2: AffinePlane) -> float:
    """Smallest rho with (unit ball ∩ l1) inside the rho-neighborhood of l2.

    Requires both offsets in the ball of radius 1/2.  The maximized
    function is the norm of an affine map, so the maximum over the disc
    (l1 ∩ unit ball) sits on its boundary sphere.
    """
    return float(rho_distances(l1.direction.basis[None], l1.offset[None],
                               l2.direction.basis[None], l2.offset[None])[0])


# ---------------------------------------------------------------------------
# the local chart


def slice_anchor(l: int, n: int, j: int) -> np.ndarray:
    """Translation vector of the j-th reference slice."""
    if not 0 <= j <= l:
        raise InvalidInputError("slice index out of range")
    v = np.zeros(n)
    if j > 0:
        v[n - l + j - 1] = 1.0
    return v


def check_chart_box(coords: np.ndarray) -> None:
    """OutOfChartError when an entry of the chart coordinates ``coords``
    (of one point or a stack) leaves [-1, 1]."""
    if np.max(np.abs(coords), initial=0.0) > 1.0 + CHART_TOL:
        raise OutOfChartError("chart coordinate outside [-1, 1]")


@dataclass(frozen=True)
class ChartPoint:
    """Chart coordinates of an l-plane: slice points x_0..x_l, each in
    [-1, 1]^(n-l), stored as an (l+1, n-l) array."""

    coords: np.ndarray

    def __post_init__(self):
        c = linalg.as_matrix(self.coords)
        check_chart_box(c)
        object.__setattr__(self, "coords", linalg.frozen(c))

    @property
    def l(self) -> int:
        return self.coords.shape[0] - 1

    @property
    def slice_dim(self) -> int:
        return self.coords.shape[1]

    def stacked(self) -> np.ndarray:
        """The point of R^N obtained by concatenating the slice coordinates."""
        return self.coords.ravel().copy()


def off_directions(directions: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The rows (N, a, q) minus their projections onto the spans of the
    orthonormal bases ``directions`` (N, q, r)."""
    dt = np.swapaxes(directions, 1, 2)
    return rows - np.swapaxes(directions @ (dt @ np.swapaxes(rows, 1, 2)), 1, 2)


def chart_offsets(directions: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Section offsets of N chart m-planes, made orthogonal to their section
    directions.

    ``directions`` (N, q, r) are orthonormal bases in the slice R^q and
    ``offsets`` (N, l+1, q) the raw offsets; returns the projected offsets,
    or raises OutOfChartError when one of them leaves the chart box.
    """
    if offsets.ndim != 3 or offsets.shape[::2] != directions.shape[:2]:
        raise InvalidInputError("offsets/direction ambient mismatch")
    if not np.all(np.isfinite(offsets)):
        raise InvalidInputError("offsets have non-finite entries")
    o = off_directions(directions, offsets)
    if o.size and np.max(np.abs(o)) > 1.0 + CHART_TOL:
        raise OutOfChartError("section offset outside the chart box")
    return o


@dataclass(frozen=True)
class ChartMPlane:
    """Chart form of an m-plane: one direction in R^(n-l) shared by all
    slice sections, plus per-slice offsets orthogonal to it.

    ``offsets`` is (l+1, n-l); row j is the point of the j-th section
    closest to the slice origin.
    """

    direction: Subspace
    offsets: np.ndarray

    def __post_init__(self):
        o = chart_offsets(self.direction.basis[None], linalg.as_matrix(self.offsets)[None])
        object.__setattr__(self, "offsets", linalg.frozen(o[0]))

    @classmethod
    def view(cls, basis: np.ndarray, offsets: np.ndarray) -> "ChartMPlane":
        """The plane over one row of arrays that already passed
        :func:`chart_offsets`; the offsets are kept as given, not projected
        again."""
        plane = object.__new__(cls)
        object.__setattr__(plane, "direction", Subspace(basis))
        object.__setattr__(plane, "offsets", offsets)
        return plane

    @property
    def l(self) -> int:
        return self.offsets.shape[0] - 1

    @property
    def slice_dim(self) -> int:
        return self.offsets.shape[1]

    def section(self, j: int) -> AffinePlane:
        """The j-th slice section as an affine plane of R^(n-l)."""
        return AffinePlane(self.direction, self.offsets[j])

    def normal_frame(self) -> np.ndarray:
        """Orthonormal basis (n-l, n-m) of the directions normal to the
        section direction inside the slice."""
        full = linalg.orthonormal_completion(self.direction.basis, self.slice_dim)
        return full[:, self.direction.dim:]


def incidences(bases: np.ndarray, offsets: np.ndarray, coords: np.ndarray,
                tol: float = INCIDENCE_TOL) -> np.ndarray:
    """:func:`incidence` (N,) of N chart points (coords (N, l+1, q)) and N
    chart m-planes (bases (N, q, r), offsets (N, l+1, q)): every slice point
    lies on its section, the affine plane of the shared direction through
    that slice's offset."""
    if coords.shape != offsets.shape:
        raise InvalidInputError("chart shape mismatch")
    count, sections, q = offsets.shape
    each = np.repeat(bases, sections, axis=0)
    d = point_distances(each, affine_offsets(each, offsets.reshape(-1, q)),
                        coords.reshape(-1, q))
    return np.all(d.reshape(count, sections) <= tol, axis=1)


def incidence(point: ChartPoint, plane: ChartMPlane, tol: float = INCIDENCE_TOL) -> bool:
    """True when every slice coordinate of the l-plane lies on the
    corresponding section of the m-plane (within ``tol``)."""
    return bool(incidences(plane.direction.basis[None], plane.offsets[None],
                           point.coords[None], tol)[0])


def embed_tilde_stack(bases: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Product embeddings of N chart m-planes (bases (N, q, r), offsets
    (N, l+1, q)): the block-diagonal direction bases (N, q(l+1), r(l+1)) and
    the orthogonal offsets (N, q(l+1))."""
    count, copies, q = offsets.shape
    r = bases.shape[2]
    big = np.zeros((count, q * copies, r * copies))
    for j in range(copies):
        big[:, j * q:(j + 1) * q, j * r:(j + 1) * r] = bases
    return big, affine_offsets(big, offsets.reshape(count, -1))


def embed_tilde(plane: ChartMPlane) -> AffinePlane:
    """Product embedding of a chart m-plane into R^N: the product of its
    l+1 slice sections, whose direction is the block sum of l+1 copies of
    the section direction and whose orthogonal complement is the block sum
    of the section normals."""
    big, offsets = embed_tilde_stack(plane.direction.basis[None], plane.offsets[None])
    return AffinePlane.view(big[0], offsets[0])


@dataclass(frozen=True)
class Chart:
    """The local chart of (l, n): conversions between genuine affine planes
    of R^n and their chart representations."""

    l: int
    n: int

    def __post_init__(self):
        if not 0 <= self.l < self.n:
            raise InvalidInputError("need 0 <= l < n")

    @property
    def slice_dim(self) -> int:
        return self.n - self.l

    def _slice_targets(self) -> np.ndarray:
        """Last-l coordinates of the anchors of slices 0..l."""
        t = np.zeros((self.l + 1, self.l))
        for j in range(1, self.l + 1):
            t[j, j - 1] = 1.0
        return t

    def points_of(self, bases: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Chart coordinates (N, l+1, n-l) of N transverse l-planes of R^n
        with direction bases (N, n, l) and orthogonal offsets (N, n)."""
        if bases.shape[1:] != (self.n, self.l) or offsets.shape != bases.shape[:2]:
            raise InvalidInputError("plane does not match the chart shape")
        nl = self.slice_dim
        if self.l == 0:
            coords = offsets.reshape(-1, 1, nl)
        else:
            d_low = bases[:, nl:, :]
            if np.any(linalg.ranks(np.linalg.svd(d_low, compute_uv=False)) < self.l):
                raise OutOfChartError("plane is not transverse to the reference slice")
            a_low = offsets[:, nl:]
            coords = np.zeros((len(bases), self.l + 1, nl))
            # one right-hand side per solve, the LAPACK call a lone plane takes
            for j, tgt in enumerate(self._slice_targets()):
                t = np.linalg.solve(d_low, (tgt - a_low)[:, :, None])
                coords[:, j] = (offsets + (bases @ t)[:, :, 0])[:, :nl]
        check_chart_box(coords)
        return coords

    def point_of(self, plane: AffinePlane) -> ChartPoint:
        """Chart coordinates of a transverse l-plane of R^n."""
        return ChartPoint(self.points_of(plane.direction.basis[None], plane.offset[None])[0])

    def planes_of(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Direction bases (N, n, l) and orthogonal offsets (N, n) of the
        l-planes of R^n through the slice points of N chart coordinates
        (N, l+1, n-l)."""
        if coords.shape[1:] != (self.l + 1, self.slice_dim):
            raise InvalidInputError("chart point does not match the chart shape")
        pts = np.zeros(coords.shape[:2] + (self.n,))
        pts[:, :, :self.slice_dim] = coords
        pts += [slice_anchor(self.l, self.n, j) for j in range(self.l + 1)]
        # the differences carry e_1..e_l in their last l coordinates, so
        # none is dropped
        bases = linalg.orthonormalize_stack(np.swapaxes(pts[:, 1:] - pts[:, :1], 1, 2))[0]
        return bases, affine_offsets(bases, pts[:, 0])

    def plane_of(self, point: ChartPoint) -> AffinePlane:
        """The l-plane of R^n through the chart slice points."""
        bases, offsets = self.planes_of(point.coords[None])
        return AffinePlane.view(bases[0], offsets[0])

    def affine_of(self, plane: ChartMPlane) -> AffinePlane:
        """The m-plane of R^n represented by a chart m-plane."""
        if plane.slice_dim != self.slice_dim or plane.l != self.l:
            raise InvalidInputError("chart m-plane does not match the chart shape")
        nl = self.slice_dim
        cols = [np.concatenate([plane.direction.basis[:, i], np.zeros(self.l)])
                for i in range(plane.direction.dim)]
        anchor = np.concatenate([plane.offsets[0], np.zeros(self.l)])
        pts = [anchor]
        for j in range(1, self.l + 1):
            p = np.concatenate([plane.offsets[j], np.zeros(self.l)])
            p += slice_anchor(self.l, self.n, j)
            pts.append(p)
        diffs = [p - anchor for p in pts[1:]]
        direction = Subspace.from_vectors(cols + diffs) if cols or diffs else Subspace.zero(self.n)
        return AffinePlane(direction, anchor)
