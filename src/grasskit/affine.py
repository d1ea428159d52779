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
from .errors import InvalidInputError, OutOfChartError
from .grassmann import Subspace, distance as grassmann_distance

CHART_TOL = 1e-9
INCIDENCE_TOL = 1e-9


@dataclass(frozen=True)
class AffinePlane:
    """Affine plane ``{offset + u : u in direction}`` with offset ⟂ direction."""

    direction: Subspace
    offset: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.offset, dtype=float).ravel()
        if len(x) != self.direction.ambient_dim:
            raise InvalidInputError("offset/direction ambient mismatch")
        if not np.all(np.isfinite(x)):
            raise InvalidInputError("offset has non-finite entries")
        x = x - self.direction.project(x)
        object.__setattr__(self, "offset", linalg.frozen(x))

    @classmethod
    def through_points(cls, points) -> "AffinePlane":
        """Affine span of a point list (first point is the anchor)."""
        pts = [np.asarray(p, dtype=float).ravel() for p in points]
        if not pts:
            raise InvalidInputError("need at least one point")
        diffs = [p - pts[0] for p in pts[1:]]
        if diffs:
            direction = Subspace.from_vectors(diffs)
        else:
            direction = Subspace.zero(len(pts[0]))
        return cls(direction, pts[0])

    @property
    def ambient_dim(self) -> int:
        return self.direction.ambient_dim

    @property
    def dim(self) -> int:
        return self.direction.dim

    def point_distance(self, x) -> float:
        x = np.asarray(x, dtype=float)
        r = x - self.direction.project(x) - self.offset
        return float(np.linalg.norm(r))

    def contains_point(self, x, tol: float = 1e-9) -> bool:
        return self.point_distance(x) <= tol

    def parallel_to(self, other: "AffinePlane", tol: float = 1e-9) -> bool:
        return self.direction.same(other.direction, tol)

    def same(self, other: "AffinePlane", tol: float = 1e-9) -> bool:
        return (self.parallel_to(other, tol)
                and float(np.linalg.norm(self.offset - other.offset)) <= tol)


def to_projective(plane: AffinePlane) -> Subspace:
    """Lift an l-plane of R^n to the (l+1)-subspace of R^(n+1) that meets
    the slice R^n x {1} exactly in the plane."""
    n = plane.ambient_dim
    cols = np.zeros((n + 1, plane.dim + 1))
    cols[:n, :plane.dim] = plane.direction.basis
    cols[:n, plane.dim] = plane.offset
    cols[n, plane.dim] = 1.0
    return Subspace.from_vectors(cols)


def from_projective(sub: Subspace) -> AffinePlane:
    """Inverse of :func:`to_projective` on its image."""
    n = sub.ambient_dim - 1
    b = sub.basis
    last = b[n, :]
    if float(np.linalg.norm(last)) <= 1e-12:
        raise InvalidInputError("subspace is parallel to the affine slice")
    # direction: kernel of the last coordinate; anchor: last coordinate 1
    ker = linalg.nullspace(last.reshape(1, -1))
    direction = Subspace.from_vectors((b @ ker)[:n, :]) if ker.shape[1] else Subspace.zero(n)
    t = last / float(last @ last)
    anchor = (b @ t)[:n]
    return AffinePlane(direction, anchor)


def affine_distance(l1: AffinePlane, l2: AffinePlane) -> float:
    """Distance induced by the Grassmannian metric on the projective lifts."""
    return grassmann_distance(to_projective(l1), to_projective(l2))


def _max_norm_on_sphere(m: np.ndarray, c: np.ndarray, r: float) -> float:
    """max ||m u + c|| over ||u|| = r (the max over the ball, by convexity).

    Solved through the eigen-decomposition of m^T m and the secular
    equation for the Lagrange multiplier.
    """
    if m.shape[1] == 0 or r <= 0.0:
        return float(np.linalg.norm(c))
    dec = linalg.svd(m)
    k = m.shape[1]
    lam = np.zeros(k)
    lam[:len(dec.singular_values)] = dec.singular_values ** 2
    q = dec.right  # eigenvectors of m^T m
    b = q.T @ (m.T @ c)
    lam_max = float(lam[0])

    def value(y):
        u = q @ y
        return float(np.linalg.norm(m @ u + c))

    if float(np.linalg.norm(b)) <= 1e-14:
        y = np.zeros(k)
        y[0] = r
        return value(y)

    def phi(t):
        return float(np.sum((b / (t - lam)) ** 2))

    hi = lam_max + float(np.linalg.norm(b)) / r
    lo = lam_max
    # hard case: multiplier pinned at the top eigenvalue
    if abs(b[0]) < 1e-14 and phi(lam_max + 1e-300 if lam_max == 0 else lam_max * (1 + 1e-15) + 1e-300) < r * r:
        shift = max(lam_max * 1e-12, 1e-300)
        y = b / (lam_max + shift - lam)
        y[0] = 0.0
        rem = r * r - float(y @ y)
        y[0] = np.sqrt(max(rem, 0.0))
        return value(y)
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if mid <= lam_max:
            mid = np.nextafter(lam_max, np.inf)
        step = (mid, hi) if phi(mid) > r * r else (lo, mid)
        if step == (lo, hi):
            # a fixed point: every later step would repeat this one
            break
        lo, hi = step
    y = b / (hi - lam)
    # guard against numerical corner cases with axis candidates
    best = value(y * (r / max(np.linalg.norm(y), 1e-300)))
    for i in range(k):
        e = np.zeros(k)
        e[i] = r
        best = max(best, value(e), value(-e))
    return best


def rho_distance(l1: AffinePlane, l2: AffinePlane) -> float:
    """Smallest rho with (unit ball ∩ l1) inside the rho-neighborhood of l2.

    Requires both offsets in the ball of radius 1/2.  The maximized
    function is the norm of an affine map, so the maximum over the disc
    (l1 ∩ unit ball) sits on its boundary sphere.
    """
    for pl in (l1, l2):
        if float(np.linalg.norm(pl.offset)) > 0.5 + 1e-12:
            raise OutOfChartError("offset outside the ball of radius 1/2")
    if l1.ambient_dim != l2.ambient_dim:
        raise InvalidInputError("ambient dimension mismatch")
    p2 = l2.direction.projector()
    eye = np.eye(l1.ambient_dim)
    m = (eye - p2) @ l1.direction.basis
    c = (eye - p2) @ l1.offset - l2.offset
    r = float(np.sqrt(max(0.0, 1.0 - float(l1.offset @ l1.offset))))
    return _max_norm_on_sphere(m, c, r)


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


@dataclass(frozen=True)
class ChartPoint:
    """Chart coordinates of an l-plane: slice points x_0..x_l, each in
    [-1, 1]^(n-l), stored as an (l+1, n-l) array."""

    coords: np.ndarray

    def __post_init__(self):
        c = linalg.as_matrix(self.coords)
        if np.max(np.abs(c)) > 1.0 + CHART_TOL:
            raise OutOfChartError("chart coordinate outside [-1, 1]")
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
    dt = np.swapaxes(directions, 1, 2)
    o = offsets - np.swapaxes(directions @ (dt @ np.swapaxes(offsets, 1, 2)), 1, 2)
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

    def parallel_to(self, other: "ChartMPlane", tol: float = 1e-9) -> bool:
        return self.direction.same(other.direction, tol)


def incidence(point: ChartPoint, plane: ChartMPlane, tol: float = INCIDENCE_TOL) -> bool:
    """True when every slice coordinate of the l-plane lies on the
    corresponding section of the m-plane (within ``tol``)."""
    if point.slice_dim != plane.slice_dim or point.l != plane.l:
        raise InvalidInputError("chart shape mismatch")
    for j in range(point.l + 1):
        if plane.section(j).point_distance(point.coords[j]) > tol:
            return False
    return True


def embed_tilde(plane: ChartMPlane) -> AffinePlane:
    """Product embedding of a chart m-plane into R^N: the product of its
    l+1 slice sections, whose direction is the block sum of l+1 copies of
    the section direction and whose orthogonal complement is the block sum
    of the section normals."""
    q = plane.slice_dim
    copies = plane.l + 1
    r = plane.direction.dim
    big = np.zeros((q * copies, r * copies))
    for j in range(copies):
        big[j * q:(j + 1) * q, j * r:(j + 1) * r] = plane.direction.basis
    return AffinePlane(Subspace(big), plane.offsets.ravel().copy())


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

    def point_of(self, plane: AffinePlane) -> ChartPoint:
        """Chart coordinates of a transverse l-plane of R^n."""
        if plane.ambient_dim != self.n or plane.dim != self.l:
            raise InvalidInputError("plane does not match the chart shape")
        nl = self.slice_dim
        if self.l == 0:
            return ChartPoint(plane.offset.reshape(1, nl))
        d_low = plane.direction.basis[nl:, :]
        if linalg.rank_of(d_low) < self.l:
            raise OutOfChartError("plane is not transverse to the reference slice")
        a_low = plane.offset[nl:]
        coords = np.zeros((self.l + 1, nl))
        for j, tgt in enumerate(self._slice_targets()):
            t = np.linalg.solve(d_low, tgt - a_low)
            coords[j] = (plane.offset + plane.direction.basis @ t)[:nl]
        return ChartPoint(coords)

    def plane_of(self, point: ChartPoint) -> AffinePlane:
        """The l-plane of R^n through the chart slice points."""
        if point.slice_dim != self.slice_dim or point.l != self.l:
            raise InvalidInputError("chart point does not match the chart shape")
        pts = []
        for j in range(self.l + 1):
            p = np.zeros(self.n)
            p[:self.slice_dim] = point.coords[j]
            p += slice_anchor(self.l, self.n, j)
            pts.append(p)
        return AffinePlane.through_points(pts)

    def m_plane_of(self, plane: AffinePlane) -> ChartMPlane:
        """Chart form of a transverse m-plane (l <= m <= n-1) of R^n."""
        if plane.ambient_dim != self.n:
            raise InvalidInputError("ambient dimension mismatch")
        m = plane.dim
        if not self.l <= m < self.n:
            raise InvalidInputError("plane dimension outside [l, n-1]")
        nl = self.slice_dim
        d = plane.direction.basis
        if self.l == 0:
            return ChartMPlane(Subspace(d[:nl, :]), plane.offset.reshape(1, nl))
        d_low = d[nl:, :]
        if linalg.rank_of(d_low) < self.l:
            raise OutOfChartError("plane is not transverse to the reference slice")
        ker = linalg.nullspace(d_low)
        w = Subspace.from_vectors((d @ ker)[:nl, :]) if ker.shape[1] else Subspace.zero(nl)
        a_low = plane.offset[nl:]
        # least-squares particular solution per slice
        gram = d_low @ d_low.T
        offsets = np.zeros((self.l + 1, nl))
        for j, tgt in enumerate(self._slice_targets()):
            t = d_low.T @ np.linalg.solve(gram, tgt - a_low)
            offsets[j] = (plane.offset + d @ t)[:nl]
        return ChartMPlane(w, offsets)

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
