"""Linear Grassmannian geometry: principal angles, the invariant distance,
explicit geodesics, and nearest-point projection onto the sub-Grassmannian
of subspaces contained in a fixed plane.

A ``Subspace`` is the universal currency: an orthonormal column basis plus
the ambient dimension.  Equality of subspaces is always decided through
principal angles, never by comparing bases.

The kernels work on stacks: N bases of k-subspaces of R^q are one float
array of shape (N, q, k), and the pair kernels take two stacks of the same
N.  The functions on ``Subspace`` objects are views of a stack of size 1,
so a single pair and a stacked pair take the same arithmetic.

Principal angles rotate each basis by the singular vectors of the pair's
overlap matrix.  Lines take the sign of their 1x1 overlap, and pairs of
planes the closed-form rotations of their 2x2 overlap, evaluated
elementwise over the whole stack instead of by a LAPACK call per matrix.
Where a 2x2 overlap's two cosines lie within ``ROTATION_GAP_TOL`` of each
other, its closed-form rotation is ill-determined and could mix the two
angles, so those overlaps alone still take LAPACK.  Larger overlaps take
one stacked LAPACK SVD.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import CertificateError, InvalidInputError

# two subspaces are considered equal when all principal angles are below this
EQUALITY_TOL = 1e-9
# largest entry of |B^T B - I| accepted for an orthonormal basis B
ORTHONORMAL_TOL = 1e-10
# largest cosine gap cos(theta_1) - cos(theta_2) of a 2x2 overlap whose
# singular vectors come from LAPACK, not the closed form, which is
# ill-determined near a tie: at angles (1e-8, 1.5e-8), whose cosines tie in
# float, it alone put the angles 2.7e-9 off and LAPACK 1e-16
ROTATION_GAP_TOL = 1e-6


def check_bases(b: np.ndarray) -> np.ndarray:
    """``b`` as a float stack (N, q, k) of orthonormal bases, or
    InvalidInputError."""
    b = np.asarray(b, dtype=float)
    if b.ndim != 3 or b.shape[2] > b.shape[1]:
        raise InvalidInputError(f"expected an (N, q, k) stack with k <= q, got {b.shape}")
    # written so that a non-finite entry fails it too
    if b.size and not (np.abs(np.swapaxes(b, 1, 2) @ b - np.eye(b.shape[2])).max()
                       <= ORTHONORMAL_TOL):
        raise InvalidInputError("basis columns are not finite and orthonormal")
    return b


def _check_pair(v: np.ndarray, w: np.ndarray, equal_dims: bool = True):
    v, w = check_bases(v), check_bases(w)
    if v.shape[:2] != w.shape[:2] or (equal_dims and v.shape[2] != w.shape[2]):
        raise InvalidInputError(f"stacks of shapes {v.shape} and {w.shape} do not pair")
    return v, w


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of R^q held as an orthonormal basis (q, dim).

    dim 0 (an empty basis) is allowed; it behaves as the trivial subspace.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = linalg.as_matrix(self.basis)
        check_bases(b[None])
        object.__setattr__(self, "basis", linalg.frozen(b))

    @classmethod
    def from_vectors(cls, vectors) -> "Subspace":
        """Span of arbitrary vectors (dependent inputs are dropped)."""
        return cls(linalg.orthonormalize(vectors).matrix)

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
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.T

    def same(self, other: "Subspace", tol: float = EQUALITY_TOL) -> bool:
        return bool(same_stack(self.basis[None], other.basis[None], tol)[0])

    def intersect(self, other: "Subspace") -> "Subspace":
        """Largest subspace contained in both operands:
        :func:`linalg.sums_and_meets` of one pair."""
        _, meets = linalg.sums_and_meets([(self.basis, other.basis)])
        return Subspace(meets[0][0])

    def sum(self, other: "Subspace") -> "Subspace":
        """Smallest subspace containing both operands:
        :func:`linalg.sums_and_meets` of one pair."""
        sums, _ = linalg.sums_and_meets([(self.basis, other.basis)])
        return Subspace(sums[0][0])


def orthonormal_draws(rng: np.random.Generator, raw: np.ndarray) -> np.ndarray:
    """Orthonormal bases (N, q, k) of the Gaussian matrices ``raw``; a
    rank-deficient draw (probability zero) is never used but replaced by a
    fresh draw from ``rng``, taken after the whole block."""
    raw = np.array(raw, dtype=float)
    while True:
        basis, keep = linalg.orthonormalize_stack(raw)
        bad = ~keep.all(axis=1)
        if not bad.any():
            return basis
        raw[bad] = rng.standard_normal((int(bad.sum()),) + raw.shape[1:])


def random_subspaces(rng: np.random.Generator, count: int, ambient: int,
                     dim: int) -> np.ndarray:
    """``count`` uniform subspaces, drawn as ``count`` single draws would be."""
    return orthonormal_draws(rng, rng.standard_normal((count, ambient, dim)))


def random_subspace(rng: np.random.Generator, ambient: int, dim: int) -> Subspace:
    return Subspace(random_subspaces(rng, 1, ambient, dim)[0])


@dataclass(frozen=True)
class PrincipalAngleData:
    """Angles (ascending, radians) and aligned orthonormal bases.

    The aligned bases satisfy v_i . w_j = cos(theta_i) when i = j and 0
    otherwise.
    """

    angles: np.ndarray
    left_aligned: np.ndarray
    right_aligned: np.ndarray


def _plane_rotations(a: np.ndarray):
    """Singular vectors (u, vt) of a stack ``a`` (N, 2, 2), with
    a = u diag(s) vt and s descending and nonnegative.

    With a = [[p, b], [c, d]], E, F, G, H = (p+d)/2, (p-d)/2, (c+b)/2,
    (c-b)/2 and Q, R = hypot(E, H), hypot(F, G), the singular values are
    Q + R and |Q - R|, and a = rot(phi) diag(Q + R, Q - R) rot(theta), where
    rot(t) = [[cos t, -sin t], [sin t, cos t]] and phi, theta = (atan2(H, E)
    +- atan2(G, F)) / 2; u is rot(phi) with its second column negated where
    Q < R, and vt is rot(theta).  The overlaps whose cosine gap 2 min(Q, R)
    is at most ``ROTATION_GAP_TOL`` take one stacked LAPACK SVD instead, so
    they keep LAPACK's bits.  Every step works on each matrix alone, so a
    matrix gets the same bits alone and inside a stack.
    """
    # contiguous rows, so every ufunc takes the same loop at every length
    p, b, c, d = np.ascontiguousarray(a.reshape(-1, 4).T)
    e, f, g, h = (p + d) / 2.0, (p - d) / 2.0, (c + b) / 2.0, (c - b) / 2.0
    q, r = np.hypot(e, h), np.hypot(f, g)
    x, y = np.arctan2(h, e), np.arctan2(g, f)
    phi, theta = (x + y) / 2.0, (x - y) / 2.0
    cp, sp, ct, st = np.cos(phi), np.sin(phi), np.cos(theta), np.sin(theta)
    flip = np.where(q < r, -1.0, 1.0)
    u = np.stack([cp, -sp * flip, sp, cp * flip], axis=1).reshape(-1, 2, 2)
    vt = np.stack([ct, -st, st, ct], axis=1).reshape(-1, 2, 2)
    tied = 2.0 * np.minimum(q, r) <= ROTATION_GAP_TOL
    if tied.any():
        u[tied], _, vt[tied] = np.linalg.svd(a[tied], full_matrices=False)
    return u, vt


def aligned_angles(v: np.ndarray, w: np.ndarray, equal_dims: bool = True):
    """Principal angles between the pairs of two stacks of bases.

    Returns the angles (N, k), ascending, with the aligned bases of both
    stacks (N, q, k each), where k = min(dim v, dim w).  The overlap matrix
    of a pair has singular values cos(theta_i); its singular vectors rotate
    each basis into aligned position, and each angle is the atan2 of its
    aligned pair (Bjorck and Golub, Math. Comp. 27, 1973).  A stable
    argsort then orders each row's angles, unless every row already
    ascends as computed, as descending cosines usually leave them; only
    ties broken by rounding take the sort.

    Pairs of lines skip the SVD: their 1x1 overlap a has the singular
    vectors u = sign(a) (the sign bit of a zero included) and vt = 1, which
    are the bits LAPACK returns.  Pairs of planes take the closed-form
    rotations of their 2x2 overlap (``_plane_rotations``), except where
    the two cosines are within ``ROTATION_GAP_TOL``: there two distinct
    small angles can have cosines that tie in float, the closed form's
    rotation is arbitrary and would mix the angles, so those overlaps take
    LAPACK.  Every other shape takes one stacked LAPACK SVD.
    """
    v, w = _check_pair(v, w, equal_dims)
    k = min(v.shape[2], w.shape[2])
    if k == 0:
        return np.zeros((len(v), 0)), v[:, :, :0], w[:, :, :0]
    overlap = np.swapaxes(v, 1, 2) @ w
    if overlap.shape[1:] == (1, 1):
        # the bits of v @ u and w @ vt^T: a product by +-1 is exact, and a
        # matmul sum starts from +0.0, so a zero entry comes out +0.0
        left, right = v * np.copysign(1.0, overlap) + 0.0, w + 0.0
    else:
        if overlap.shape[1:] == (2, 2):
            u, vt = _plane_rotations(overlap)
        else:
            u, _, vt = np.linalg.svd(overlap, full_matrices=False)
        left = v @ u[:, :, :k]
        right = w @ np.swapaxes(vt, 1, 2)[:, :, :k]
    # atan2 of the aligned pair keeps full precision near 0 where arccos of
    # the (clipped) singular value would lose half the digits
    lt, rt = np.swapaxes(left, 1, 2), np.swapaxes(right, 1, 2)
    c = np.clip(np.vecdot(lt, rt), -1.0, 1.0)
    # contiguous rows, so each norm takes the dot a lone 1-d vector would
    gap = np.ascontiguousarray(rt - c[:, :, None] * lt)
    angles = np.minimum(np.arctan2(np.sqrt(np.vecdot(gap, gap)), c), np.pi / 2.0)
    # a stable argsort of rows that already ascend (ties included) is the
    # identity, so such a stack is returned as computed
    if k == 1 or np.all(angles[:, 1:] >= angles[:, :-1]):
        return angles, left, right
    order = np.argsort(angles, axis=1, kind="stable")
    return (np.take_along_axis(angles, order, 1),
            np.take_along_axis(left, order[:, None, :], 2),
            np.take_along_axis(right, order[:, None, :], 2))


def same_stack(v: np.ndarray, w: np.ndarray, tol: float = EQUALITY_TOL) -> np.ndarray:
    """Equality (N,) of the pairs of two stacks of bases: all principal
    angles at most ``tol``; stacks of different shapes are never equal."""
    if np.shape(v) != np.shape(w):
        return np.zeros(len(v), dtype=bool)
    return np.max(aligned_angles(v, w)[0], axis=1, initial=0.0) <= tol


def distances(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Invariant geodesic distances (N,): l2 norms of the principal angles."""
    angles = aligned_angles(v, w)[0]
    return np.sqrt(np.vecdot(angles, angles))


def principal_angles(v: Subspace, w: Subspace) -> PrincipalAngleData:
    return PrincipalAngleData(*(linalg.frozen(x[0]) for x in
                                aligned_angles(v.basis[None], w.basis[None])))


def distance(v: Subspace, w: Subspace) -> float:
    """Invariant geodesic distance: l2 norm of the principal angles."""
    return float(distances(v.basis[None], w.basis[None])[0])


RIGHT_ANGLE_TOL = 1e-9


def geodesic_frames(v: np.ndarray, w: np.ndarray):
    """Geodesics between the pairs of two stacks of equal-dim bases.

    Returns the angles (N, k), the aligned start bases and the unit
    directions of motion (N, q, k each), and the ``non_unique`` flags (N,).
    In every aligned direction the arc is cos(t theta) v_i + sin(t theta)
    v_i_perp with v_i_perp the unit vector in span{v_i, w_i} orthogonal to
    v_i on the w_i side; directions with theta = 0 stay constant.
    """
    angles, left, right = aligned_angles(v, w)
    moving = angles >= 1e-12
    sines = np.where(moving, np.sin(angles), 1.0)[:, None, :]
    perp = np.where(moving[:, None, :],
                    (right - np.cos(angles)[:, None, :] * left) / sines, 0.0)
    non_unique = np.any(moving & (np.abs(angles - np.pi / 2.0) <= RIGHT_ANGLE_TOL), axis=1)
    return angles, left, perp, non_unique


def geodesic_points(angles: np.ndarray, start: np.ndarray, perp: np.ndarray,
                    t: float) -> np.ndarray:
    """Bases (N, q, k) of gamma(t) on the geodesics of ``geodesic_frames``."""
    cols = np.cos(t * angles)[:, None, :] * start + np.sin(t * angles)[:, None, :] * perp
    basis, keep = linalg.orthonormalize_stack(cols)
    if not keep.all():
        # the columns are orthonormal by construction
        raise CertificateError("geodesic columns lost rank")
    return basis


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

    def at(self, t: float) -> Subspace:
        return Subspace(geodesic_points(self.angles[None], self.aligned_start[None],
                                        self.perp[None], t)[0])


def geodesic(v: Subspace, w: Subspace) -> Geodesic:
    """Explicit geodesic from the aligned principal-angle bases."""
    angles, start, perp, non_unique = geodesic_frames(v.basis[None], w.basis[None])
    return Geodesic(v, w, linalg.frozen(angles[0]), linalg.frozen(start[0]),
                    linalg.frozen(perp[0]), bool(non_unique[0]))


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


def project_stack(v: np.ndarray, pi: np.ndarray):
    """Closest l-subspaces of the planes ``pi`` (N, q, m) to the bases ``v``
    (N, q, l), l <= m: returns their bases (N, q, l), the distances (N,)
    and the ``unique`` flags (N,).

    The aligned principal-angle basis of a pair (v, pi) spans the
    minimizer, and the aligned right vectors are parallel to the
    projections of the aligned left vectors into ``pi``.
    """
    l = np.shape(v)[-1]
    if l > np.shape(pi)[-1]:
        raise InvalidInputError("target plane dimension is too small")
    angles, _, right = aligned_angles(v, pi, equal_dims=False)
    unique = np.max(angles, axis=1, initial=0.0) < np.pi / 2.0 - 1e-12
    # the right vectors are pi @ vt^T, or pi itself when both are lines:
    # orthonormal by construction, so Gram-Schmidt drops none of them
    w = linalg.orthonormalize_stack(right)[0]
    return w, np.sqrt(np.vecdot(angles, angles)), unique


def project_to_sub_grassmannian(v: Subspace, pi: Subspace) -> GrassmannProjection:
    """Closest l-subspace of ``pi`` to ``v`` (dim v = l <= dim pi)."""
    w, dist, unique = project_stack(v.basis[None], pi.basis[None])
    return GrassmannProjection(Subspace(w[0]), float(dist[0]), bool(unique[0]))
