"""Linear Grassmannian geometry: principal angles, the invariant distance,
explicit geodesics, and nearest-point projection onto the sub-Grassmannian
of subspaces contained in a fixed plane.

A ``Subspace`` is the universal currency: an orthonormal column basis plus
the ambient dimension.  Equality of subspaces is always decided through
principal angles, never by comparing bases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import InvalidInputError

# two subspaces are considered equal when all principal angles are below this
EQUALITY_TOL = 1e-9


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of R^q held as an orthonormal basis (q, dim).

    dim 0 (an empty basis) is allowed; it behaves as the trivial subspace.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = linalg.as_matrix(self.basis)
        q, k = b.shape
        if k > q:
            raise InvalidInputError(f"dim {k} exceeds ambient {q}")
        if k:
            g = b.T @ b - np.eye(k)
            if np.max(np.abs(g)) > 1e-10:
                raise InvalidInputError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", linalg.frozen(b))

    @classmethod
    def from_vectors(cls, vectors, tol: float = linalg.RANK_TOL) -> "Subspace":
        """Span of arbitrary vectors (dependent inputs are dropped)."""
        res = linalg.orthonormalize(vectors, tol)
        return cls(res.matrix)

    @classmethod
    def spanned_by_axes(cls, ambient: int, axes) -> "Subspace":
        b = np.zeros((ambient, len(axes)))
        for i, ax in enumerate(axes):
            b[ax, i] = 1.0
        return cls(b)

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(np.zeros((ambient, 0)))

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(np.eye(ambient))

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.T

    def project(self, x: np.ndarray) -> np.ndarray:
        return linalg.project_columns(self.basis, np.asarray(x, dtype=float))

    def complement(self) -> "Subspace":
        full = linalg.orthonormal_completion(self.basis, self.ambient_dim)
        return Subspace(full[:, self.dim:])

    def contains(self, other: "Subspace", tol: float = 1e-9) -> bool:
        return linalg.containment_residual(self.basis, other.basis) <= tol

    def same(self, other: "Subspace", tol: float = EQUALITY_TOL) -> bool:
        if self.ambient_dim != other.ambient_dim or self.dim != other.dim:
            return False
        if self.dim == 0:
            return True
        return bool(np.max(principal_angles(self, other).angles) <= tol)

    def intersect(self, other: "Subspace", tol: float = linalg.RANK_TOL) -> "Subspace":
        """Largest subspace contained in both operands."""
        if self.ambient_dim != other.ambient_dim:
            raise InvalidInputError("ambient dimension mismatch")
        return Subspace(linalg.intersect_bases(self.basis, other.basis, tol))

    def sum(self, other: "Subspace") -> "Subspace":
        stacked = np.hstack([self.basis, other.basis])
        if stacked.shape[1] == 0:
            return Subspace.zero(self.ambient_dim)
        return Subspace.from_vectors(stacked)


def random_subspace(rng: np.random.Generator, ambient: int, dim: int) -> Subspace:
    """Uniformly distributed subspace (orthonormalized Gaussian columns)."""
    if dim == 0:
        return Subspace.zero(ambient)
    while True:
        g = rng.standard_normal((ambient, dim))
        res = linalg.orthonormalize(g)
        if res.rank == dim:
            return Subspace(res.matrix)


@dataclass(frozen=True)
class PrincipalAngleData:
    """Angles (ascending, radians) and aligned orthonormal bases.

    The aligned bases satisfy v_i . w_j = cos(theta_i) when i = j and 0
    otherwise.
    """

    angles: np.ndarray
    left_aligned: np.ndarray
    right_aligned: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "angles", linalg.frozen(np.asarray(self.angles, dtype=float).ravel()))
        object.__setattr__(self, "left_aligned", linalg.frozen(self.left_aligned))
        object.__setattr__(self, "right_aligned", linalg.frozen(self.right_aligned))


def _aligned_angles(v: Subspace, w: Subspace) -> PrincipalAngleData:
    """Principal angles between subspaces of possibly different dims.

    Returns min(dim v, dim w) angles.  The overlap matrix of the two bases
    has singular values cos(theta_i); its singular vectors rotate each
    basis into aligned position.
    """
    a = v.basis.T @ w.basis
    dec = linalg.svd(a)
    k = min(v.dim, w.dim)
    left = v.basis @ dec.left[:, :k]
    right = w.basis @ dec.right[:, :k]
    # atan2 of the aligned pair keeps full precision near 0 where arccos of
    # the (clipped) singular value would lose half the digits
    angles = np.zeros(k)
    for i in range(k):
        c = float(np.clip(left[:, i] @ right[:, i], -1.0, 1.0))
        s = float(np.linalg.norm(right[:, i] - c * left[:, i]))
        angles[i] = np.arctan2(s, c)
    angles = np.minimum(angles, np.pi / 2.0)
    order = np.argsort(angles, kind="stable")
    return PrincipalAngleData(angles[order], left[:, order], right[:, order])


def principal_angles(v: Subspace, w: Subspace) -> PrincipalAngleData:
    if v.ambient_dim != w.ambient_dim:
        raise InvalidInputError("ambient dimension mismatch")
    if v.dim != w.dim:
        raise InvalidInputError("principal_angles needs equal dimensions")
    return _aligned_angles(v, w)


def distance(v: Subspace, w: Subspace) -> float:
    """Invariant geodesic distance: l2 norm of the principal angles."""
    if v.dim == 0 and w.dim == 0:
        return 0.0
    if v.dim == 1 and w.dim == 1 and v.ambient_dim == w.ambient_dim:
        # single principal angle; skip the decomposition machinery
        dot = float(v.basis[:, 0] @ w.basis[:, 0])
        c = min(abs(dot), 1.0)
        s = float(np.linalg.norm(w.basis[:, 0] - dot * v.basis[:, 0]))
        return float(np.arctan2(s, c))
    return float(np.linalg.norm(principal_angles(v, w).angles))


RIGHT_ANGLE_TOL = 1e-9


@dataclass(frozen=True)
class Geodesic:
    """Constant-speed geodesic with gamma(0) = start, gamma(1) = end.

    ``non_unique`` is set when some principal angle equals pi/2, where the
    connecting geodesic is not unique; the arc through the aligned end
    basis is returned in that case.
    """

    start: Subspace
    end: Subspace
    angles: np.ndarray
    aligned_start: np.ndarray
    perp: np.ndarray
    non_unique: bool = field(default=False)

    @property
    def length(self) -> float:
        return float(np.linalg.norm(self.angles))

    def at(self, t: float) -> Subspace:
        if self.start.dim == 0:
            return self.start
        cols = (np.cos(t * self.angles) * self.aligned_start
                + np.sin(t * self.angles) * self.perp)
        return Subspace.from_vectors(cols)


def geodesic(v: Subspace, w: Subspace) -> Geodesic:
    """Explicit geodesic from the aligned principal-angle bases.

    In every aligned direction the arc is cos(t theta) v_i + sin(t theta) v_i_perp
    with v_i_perp the unit vector in span{v_i, w_i} orthogonal to v_i on the
    w_i side; directions with theta = 0 stay constant.
    """
    data = principal_angles(v, w)
    k = v.dim
    perp = np.zeros((v.ambient_dim, k))
    non_unique = False
    for i in range(k):
        th = data.angles[i]
        if th < 1e-12:
            continue
        if abs(th - np.pi / 2.0) <= RIGHT_ANGLE_TOL:
            non_unique = True
        u = data.right_aligned[:, i] - np.cos(th) * data.left_aligned[:, i]
        perp[:, i] = u / np.sin(th)
    return Geodesic(v, w, linalg.frozen(data.angles), data.left_aligned,
                    linalg.frozen(perp), non_unique)


def vector_projection(x, pi: Subspace) -> np.ndarray:
    """Standard orthogonal projection of a vector onto the plane ``pi``."""
    return pi.project(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class GrassmannProjection:
    """Nearest point of the sub-Grassmannian {subspaces inside target}.

    ``distance`` is the geodesic distance from the source to the returned
    subspace, which also equals the distance to the whole submanifold.
    ``unique`` is False when the projection of the source into the target
    plane drops rank, in which case a (flagged) minimizer is returned.
    """

    subspace: Subspace
    distance: float
    unique: bool


def project_to_sub_grassmannian(v: Subspace, pi: Subspace,
                                tol: float = linalg.RANK_TOL) -> GrassmannProjection:
    """Closest l-subspace of ``pi`` to ``v`` (dim v = l <= dim pi).

    The aligned principal-angle basis of the pair (v, pi) spans the
    minimizer, and the aligned right vectors are parallel to the
    projections of the aligned left vectors into ``pi``.
    """
    if v.ambient_dim != pi.ambient_dim:
        raise InvalidInputError("ambient dimension mismatch")
    if v.dim > pi.dim:
        raise InvalidInputError("target plane dimension is too small")
    if v.dim == 0:
        return GrassmannProjection(v, 0.0, True)
    data = _aligned_angles(v, pi)
    dist = float(np.linalg.norm(data.angles))
    unique = bool(np.max(data.angles) < np.pi / 2.0 - 1e-12)
    w = Subspace.from_vectors(data.right_aligned)
    if w.dim < v.dim:
        # degenerate alignment; pad inside pi away from the found columns
        rest = [pi.basis[:, i] for i in range(pi.dim)]
        cols = [w.basis[:, i] for i in range(w.dim)] + rest
        w = Subspace(linalg.orthonormalize(cols).matrix[:, :v.dim])
        unique = False
    return GrassmannProjection(w, dist, unique)

