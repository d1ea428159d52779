"""Small dense linear algebra used by all the geometric modules.

Everything here works on plain float64 numpy arrays and treats them as
values: no function mutates its argument, and arrays stored in result
objects are marked read-only.  A subspace basis is always an
``(ambient, dim)`` array with orthonormal columns.

The singular value decomposition is LAPACK's (``numpy.linalg.svd``)
followed by one vectorized canonicalization of signs and order, so equal
inputs give equal bases.  It takes a matrix or a stack (..., rows, cols)
in one LAPACK call, and a matrix gets the same bits alone and inside a
stack.  Callers that only need ranks or volumes take the singular values
alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

# rank decisions are made relative to the largest singular value
RANK_TOL = 1e-10


def as_stack(a) -> np.ndarray:
    """Validate and copy input into a float64 matrix or stack of matrices
    (..., rows, cols); a 1-d input is one column."""
    m = np.array(a, dtype=float)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim < 2:
        raise InvalidInputError(f"expected a matrix or a stack of them, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise InvalidInputError("matrix has non-finite entries")
    return m


def as_matrix(a) -> np.ndarray:
    """Validate and copy input into a float64 2-d array."""
    m = as_stack(a)
    if m.ndim != 2:
        raise InvalidInputError(f"expected a 2-d array, got ndim={m.ndim}")
    return m


def frozen(a: np.ndarray) -> np.ndarray:
    """Return a read-only view-safe copy of ``a``."""
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SvdResult:
    """Full decomposition ``a = left @ diag(singular_values) @ right.T``, of
    each matrix of a stack (..., rows, cols) along the leading axes.

    ``left`` is (..., rows, rows) orthogonal, ``right`` is (..., cols, cols)
    orthogonal and ``singular_values`` has length min(rows, cols), sorted
    non-increasing, padded with zeros past the rank.
    """

    left: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray


def svd(a) -> SvdResult:
    """Full SVD of a small dense matrix, or of each matrix of a stack
    (..., rows, cols), by one LAPACK call, canonicalized matrix by matrix.

    The small-side singular vectors (right ones for a tall matrix, left
    ones otherwise) are made to have a positive largest-magnitude entry;
    the big-side vectors flip with them, which preserves the product.
    Singular values come non-increasing, and blocks of equal (rounded)
    values are ordered lexicographically on the small-side vectors.  The
    signs are exact products by +-1 over the whole stack, and only the
    matrices whose rounded values tie are reordered, so a matrix gets the
    same bits alone and inside a stack.
    """
    m = as_stack(a)
    *stack, r, c = m.shape
    if r == 0 or c == 0:
        def eye(n):
            return np.broadcast_to(np.eye(n), (*stack, n, n))
        return SvdResult(frozen(eye(r)), frozen(np.zeros((*stack, 0))), frozen(eye(c)))
    u, sigma, vt = np.linalg.svd(m, full_matrices=True)
    v = np.swapaxes(vt, -1, -2)
    small, big = (u, v) if r <= c else (v, u)
    k = sigma.shape[-1]
    pivot = np.argmax(np.abs(np.round(small, 12)), axis=-2)[..., None, :]
    signs = np.where(np.take_along_axis(small, pivot, -2) < 0.0, -1.0, 1.0)
    small *= signs
    big[..., :k] *= signs
    rounded = np.round(sigma, 12)
    for i in map(tuple, np.argwhere(np.any(rounded[..., 1:] == rounded[..., :-1], axis=-1))):
        neg, key = np.round(-small[i], 10), rounded[i]
        order = sorted(range(k), key=lambda j: (-key[j], tuple(neg[:, j])))
        small[i], sigma[i] = small[i][:, order], sigma[i][order]
        big[i][:, :k] = big[i][:, order]
    left, right = (small, big) if r <= c else (big, small)
    return SvdResult(frozen(left), frozen(sigma), frozen(right))


def ranks(sigma: np.ndarray) -> np.ndarray:
    """Numerical ranks from singular values along the last axis (sorted
    non-increasing): the count above ``RANK_TOL`` times the largest, 0 when
    the largest is 0.  Works on one matrix's values or on a batch."""
    s = np.asarray(sigma, dtype=float)
    if s.shape[-1] == 0:
        return np.zeros(s.shape[:-1], dtype=int)
    return np.sum(s > RANK_TOL * s[..., :1], axis=-1)


def rank_of(a) -> int:
    m = as_matrix(a)
    return int(ranks(np.linalg.svd(m, compute_uv=False))) if m.size else 0


def orthonormal_completion(q: np.ndarray, ambient: int | None = None) -> np.ndarray:
    """Extend orthonormal columns ``q`` (..., n, k) to square orthogonal
    matrices (..., n, n).

    The extra columns come from a QR factorization of ``[q | I]``, one per
    matrix of a stack; the first columns of the result are ``q`` itself,
    exactly.
    """
    n = q.shape[-2] if ambient is None else ambient
    eye = np.broadcast_to(np.eye(n), q.shape[:-2] + (n, n))
    full, _ = np.linalg.qr(np.concatenate([q, eye], axis=-1))
    full[..., :q.shape[-1]] = q
    return full


def orthonormalize_stack(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Modified Gram-Schmidt with a second re-orthogonalization pass over a
    stack ``m`` of (ambient, k) column matrices, shape (N, ambient, k).

    Returns the bases (N, ambient, k) and a keep mask (N, k).  A column at
    or below ``RANK_TOL`` times the largest input column norm of its matrix
    after projection is dropped and left zero; a zero column projects
    nothing away from the later ones.
    """
    m = np.asarray(m, dtype=float)
    n, ambient, k = m.shape
    cols = np.zeros((n, k, ambient))
    keep = np.zeros((n, k), dtype=bool)
    floor = RANK_TOL * np.sqrt((m * m).sum(axis=1).max(axis=1, initial=0.0))
    for i in range(k):
        # np.vecdot takes the same BLAS dot as ``u @ v`` on 1-d vectors, so
        # one matrix gets the same bits alone and inside a stack
        v = m[:, :, i].copy()
        for _ in range(2):
            for j in range(i):
                v -= np.vecdot(cols[:, j], v)[:, None] * cols[:, j]
        nv = np.sqrt(np.vecdot(v, v))[:, None]
        keep[:, i] = nv[:, 0] > floor
        np.divide(v, nv, out=cols[:, i], where=keep[:, i, None])
    return np.swapaxes(cols, -1, -2), keep


@dataclass(frozen=True)
class OrthonormalizeResult:
    """Orthonormal basis for the span of the input vectors.

    ``matrix`` holds the kept columns; ``dropped`` lists the indices of
    input vectors that were linearly dependent at the tolerance.
    """

    matrix: np.ndarray
    rank: int
    dropped: tuple[int, ...]


def orthonormalize(vectors) -> OrthonormalizeResult:
    """``orthonormalize_stack`` of one (ambient, k) matrix, or of a sequence of
    same-length vectors as its columns, with the dropped columns removed."""
    if not (isinstance(vectors, np.ndarray) and vectors.ndim == 2):
        vs = [np.asarray(v, dtype=float).ravel() for v in vectors]
        if len({len(v) for v in vs}) > 1:
            raise InvalidInputError("vectors do not share an ambient dimension")
        vectors = np.column_stack(vs) if vs else np.zeros((0, 0))
    m = as_matrix(vectors)
    if m.shape[1] == 0:
        raise InvalidInputError("orthonormalize needs at least one vector")
    basis, keep = orthonormalize_stack(m[None])
    dropped = tuple(np.flatnonzero(~keep[0]).tolist())
    kept = basis[0][:, keep[0]] if dropped else basis[0]
    return OrthonormalizeResult(frozen(kept), kept.shape[1], dropped)


def gram_volume(stack) -> np.ndarray:
    """The j-dimensional volumes (...) of the parallelepipeds spanned by the
    j columns of each matrix of a stack (..., q, j).

    Computed as the product of the singular values, one LAPACK call for the
    stack, which equals sqrt(det of the Gram matrix); 1 for j = 0 and 0 for
    j > q, where the columns are dependent.
    """
    m = as_stack(stack)
    q, j = m.shape[-2:]
    if j == 0 or j > q:
        return np.full(m.shape[:-2], float(j == 0))
    return np.prod(np.linalg.svd(m, compute_uv=False), axis=-1)


def project_columns(basis: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Orthogonal projection of vector(s) onto the column span of ``basis``."""
    if basis.shape[1] == 0:
        return np.zeros_like(np.asarray(x, dtype=float))
    return basis @ (basis.T @ x)


def containment_residual(outer: np.ndarray, inner: np.ndarray) -> float:
    """Max-norm residual of projecting ``inner`` columns onto span(outer)."""
    if inner.shape[1] == 0:
        return 0.0
    r = inner - project_columns(outer, inner)
    return float(np.max(np.abs(r)))


def _kept(basis: np.ndarray, keep: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per matrix of an ``orthonormalize_stack`` result: its kept columns
    and its projector (dropped columns are zero and add nothing to it)."""
    proj = basis @ np.swapaxes(basis, 1, 2)
    return [(b[:, k], p) for b, k, p in zip(basis, keep, proj)]


def sums_and_meets(pairs: list[tuple[np.ndarray, np.ndarray]]):
    """The sums span(u) + span(w) and the intersections span(u) ∩ span(w)
    of the pairs of orthonormal bases (u, w) of one ambient dimension: two
    lists with one (orthonormal basis, projector) per pair.  Sums take one
    stacked Gram-Schmidt of [u | w] per width; intersections take one
    stacked SVD of [u | -w] per pair shape, whose null vectors (x, y) give
    u x = w y, a vector in both spans.  No pair's result depends on the
    others."""
    if len({b.shape[0] for pair in pairs for b in pair}) > 1:
        raise InvalidInputError("ambient dimension mismatch")
    sums, meets = [None] * len(pairs), [None] * len(pairs)
    widths: dict[int, list[int]] = {}
    shapes: dict[tuple[int, int], list[int]] = {}
    for i, (u, w) in enumerate(pairs):
        widths.setdefault(u.shape[1] + w.shape[1], []).append(i)
        shapes.setdefault((u.shape[1], w.shape[1]), []).append(i)
    for idx in widths.values():
        both = np.stack([np.concatenate(pairs[i], axis=1) for i in idx])
        for i, out in zip(idx, _kept(*orthonormalize_stack(both))):
            sums[i] = out
    for (a, _), idx in shapes.items():
        u = np.stack([pairs[i][0] for i in idx])
        _, sigma, vt = np.linalg.svd(np.concatenate(
            [u, -np.stack([pairs[i][1] for i in idx])], axis=2))
        rank = ranks(sigma)
        # the u-part of the null vectors, rows rank.. of vt, one product per
        # rank, so that no pair's product takes another shape in a stack
        for r in sorted(set(rank.tolist())):  # np.unique would import numpy.ma
            sel = np.flatnonzero(rank == r)
            null = np.swapaxes(vt[sel, r:, :a], 1, 2)
            for k, out in zip(sel.tolist(), _kept(*orthonormalize_stack(u[sel] @ null))):
                meets[idx[k]] = out
    return sums, meets
