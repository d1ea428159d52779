import numpy as np
import pytest

from grasskit import linalg
from grasskit.errors import InvalidInputError


def rng_for(*key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))


def eig2x2_oracle(s):
    """Eigenvalues of a symmetric 2x2 matrix from the characteristic polynomial."""
    tr = s[0, 0] + s[1, 1]
    det = s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]
    disc = np.sqrt(max(tr * tr / 4.0 - det, 0.0))
    return sorted([tr / 2.0 + disc, tr / 2.0 - disc], reverse=True)


# ---------------------------------------------------------------- svd

def svd_product(res):
    """left @ diag(singular_values) @ right.T, over the leading columns."""
    k = len(res.singular_values)
    return (res.left[:, :k] * res.singular_values) @ res.right[:, :k].T


def test_svd_identity():
    res = linalg.svd(np.eye(2))
    assert np.allclose(res.singular_values, [1.0, 1.0])


def test_svd_already_diagonal():
    res = linalg.svd(np.diag([3.0, 0.0]))
    assert np.allclose(res.singular_values, [3.0, 0.0])


def test_svd_2x3_matches_characteristic_polynomial():
    a = rng_for(42).standard_normal((2, 3))
    res = linalg.svd(a)
    expected = eig2x2_oracle(a @ a.T)
    assert np.allclose(res.singular_values ** 2, expected, atol=1e-12)


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 2), (2, 5), (6, 6), (4, 7), (9, 3)])
def test_svd_reconstruction_and_orthogonality(shape):
    for trial in range(8):
        a = rng_for(7, shape[0], shape[1], trial).standard_normal(shape) * 3.0
        res = linalg.svd(a)
        assert np.max(np.abs(svd_product(res) - a)) <= 1e-10
        assert np.allclose(res.left.T @ res.left, np.eye(shape[0]), atol=1e-12)
        assert np.allclose(res.right.T @ res.right, np.eye(shape[1]), atol=1e-12)
        sv = res.singular_values
        assert np.all(np.diff(sv) <= 1e-12)
        assert np.all(sv >= 0.0)


def test_svd_rank_deficient_reconstruction():
    a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.5, 1.0, 1.5]])
    res = linalg.svd(a)
    assert linalg.ranks(res.singular_values) == 1
    assert np.max(np.abs(svd_product(res) - a)) <= 1e-10


def test_svd_rejects_non_finite():
    with pytest.raises(InvalidInputError):
        linalg.svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_svd_against_numpy_on_random_batch():
    for trial in range(20):
        r, c = int(rng_for(3, trial).integers(1, 9)), int(rng_for(4, trial).integers(1, 9))
        a = rng_for(5, trial).standard_normal((r, c))
        ours = linalg.svd(a).singular_values
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(ours, ref, atol=1e-11)


def test_svd_sign_rule_and_order():
    # the small-side vectors (right for tall, left otherwise) have a
    # positive largest-magnitude entry; singular values never increase
    for shape in [(3, 2), (2, 5), (4, 4), (6, 3), (1, 4)]:
        for trial in range(6):
            a = rng_for(31, shape[0], shape[1], trial).standard_normal(shape)
            res = linalg.svd(a)
            small = res.right if shape[0] > shape[1] else res.left
            pivots = np.argmax(np.abs(small), axis=0)
            assert np.all(small[pivots, np.arange(small.shape[1])] > 0.0)
            assert np.all(np.diff(res.singular_values) <= 0.0)


def test_svd_repeated_singular_value_is_deterministic():
    q1 = linalg.orthonormalize(rng_for(37).standard_normal((5, 5))).matrix
    q2 = linalg.orthonormalize(rng_for(38).standard_normal((3, 3))).matrix
    d = np.zeros((5, 3))
    d[:3, :3] = np.diag([2.0, 2.0, 0.5])
    a = q1 @ d @ q2.T
    first, second = linalg.svd(a), linalg.svd(a)
    assert np.allclose(first.singular_values, [2.0, 2.0, 0.5], atol=1e-12)
    assert np.array_equal(first.left, second.left)
    assert np.array_equal(first.right, second.right)
    assert np.array_equal(first.singular_values, second.singular_values)
    # the tied pair is ordered lexicographically, larger vector first
    tied = np.round(first.right[:, :2], 10)
    assert tuple(tied[:, 0]) >= tuple(tied[:, 1])
    assert np.max(np.abs(svd_product(first) - a)) <= 1e-10


def reference_svd(a):
    """``linalg.svd`` as it canonicalized one matrix at a time: the
    reference its stacked form must match bit for bit on every matrix."""
    m = linalg.as_matrix(a)
    r, c = m.shape
    if r == 0 or c == 0:
        return np.eye(r), np.zeros(min(r, c)), np.eye(c)
    u, sigma, vt = np.linalg.svd(m, full_matrices=True)
    v = vt.T
    small, big = (u, v) if r <= c else (v, u)
    k = len(sigma)
    cols = np.arange(k)
    pivot = np.argmax(np.abs(np.round(small, 12)), axis=0)
    signs = np.where(small[pivot, cols] < 0.0, -1.0, 1.0)
    small *= signs
    big[:, :k] *= signs
    rounded = np.round(sigma, 12)
    if np.any(rounded[1:] == rounded[:-1]):
        neg = np.round(-small, 10)
        order = sorted(range(k), key=lambda i: (-rounded[i], tuple(neg[:, i])))
        small, sigma = small[:, order], sigma[order]
        big[:, :k] = big[:, order]
    left, right = (small, big) if r <= c else (big, small)
    return left, sigma, right


def _svd_bits(left, sigma, right):
    return left.tobytes(), sigma.tobytes(), right.tobytes(), left.shape, sigma.shape, right.shape


def svd_stack(shape, count=12):
    """A stack of ``count`` matrices of one shape: random ones, rank-deficient
    ones, and tied ones: scaled identities padded with zeros and isoclinic
    matrices (two equal singular values) in random frames."""
    r, c = shape
    g = rng_for(47, r, c)
    stack = g.standard_normal((count, r, c))
    k = min(r, c)
    if k:
        stack[1] = g.standard_normal((r, 1)) @ g.standard_normal((1, c))   # rank 1
        stack[2] = 0.0
        stack[3] = 2.5 * np.eye(r, c)
        stack[4] = np.eye(r, c)
        left = linalg.orthonormalize_stack(g.standard_normal((3, r, r)))[0]
        right = linalg.orthonormalize_stack(g.standard_normal((3, c, c)))[0]
        diag = np.zeros((r, c))
        diag[range(k), range(k)] = [1.5, 1.5, 0.25, 0.25][:k] if k <= 4 else 1.5
        stack[5:8] = left @ diag @ np.swapaxes(right, 1, 2)
    return stack


@pytest.mark.parametrize("shape", [(3, 2), (2, 3), (3, 3), (4, 1), (1, 4), (5, 5), (6, 3),
                                   (2, 6), (1, 1), (0, 3), (3, 0), (0, 0)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_stacked_svd_matches_the_per_matrix_canonicalization(shape):
    stack = svd_stack(shape)
    dec = linalg.svd(stack)
    assert not dec.left.flags.writeable and not dec.right.flags.writeable
    for i, m in enumerate(stack):
        ref = _svd_bits(*reference_svd(m))
        assert _svd_bits(dec.left[i], dec.singular_values[i], dec.right[i]) == ref, i
        alone = linalg.svd(m)
        assert _svd_bits(alone.left, alone.singular_values, alone.right) == ref, i
    # leading axes of any shape, and the ties really were reordered
    nested = linalg.svd(stack.reshape((3, 4) + shape))
    assert nested.right.tobytes() == dec.right.tobytes()
    if min(shape) > 1:
        rounded = np.round(dec.singular_values, 12)
        assert (rounded[:, 1:] == rounded[:, :-1]).any(axis=1)[[2, 3, 4, 5]].all()


def test_stacked_svd_rejects_a_nan_anywhere():
    stack = rng_for(48).standard_normal((5, 3, 2))
    linalg.svd(stack)
    stack[4, 2, 1] = np.nan
    with pytest.raises(InvalidInputError, match="non-finite"):
        linalg.svd(stack)
    with pytest.raises(InvalidInputError):
        linalg.svd(5.0)


def test_orthonormal_completion_keeps_q_exactly():
    for n, k in [(4, 0), (4, 1), (5, 3), (6, 6)]:
        q = linalg.orthonormalize(rng_for(41, n, k).standard_normal((n, max(k, 1)))).matrix[:, :k]
        full = linalg.orthonormal_completion(q, n)
        assert full.shape == (n, n)
        assert np.array_equal(full[:, :k], q)
        assert np.allclose(full.T @ full, np.eye(n), atol=1e-12)


def test_rank_of_matches_numpy_on_rank_deficient_batch():
    for trial in range(40):
        g = rng_for(43, trial)
        r, c = (int(x) for x in g.integers(1, 8, size=2))
        k = int(g.integers(0, min(r, c) + 1))
        a = g.standard_normal((r, k)) @ g.standard_normal((k, c))
        a *= 10.0 ** int(g.integers(-8, 9))   # the tolerance is relative
        assert linalg.rank_of(a) == np.linalg.matrix_rank(a)
        assert linalg.ranks(linalg.svd(a).singular_values) == np.linalg.matrix_rank(a)


# ------------------------------------------------------ orthonormalize

def test_orthonormalize_axis_rescale():
    res = linalg.orthonormalize([(2.0, 0.0), (0.0, 5.0)])
    assert not res.dropped
    assert np.allclose(np.abs(res.matrix), np.eye(2))


def test_orthonormalize_symmetric_pair():
    res = linalg.orthonormalize([(1.0, 1.0), (1.0, -1.0)])
    expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    assert np.allclose(np.abs(res.matrix), np.abs(expected))
    assert np.allclose(res.matrix.T @ res.matrix, np.eye(2), atol=1e-12)


def test_orthonormalize_near_dependence_reports_rank():
    res = linalg.orthonormalize([(1.0, 0.0), (1.0, 1e-13)])
    assert res.dropped
    assert res.rank == 1
    assert res.dropped == (1,)


def test_orthonormalize_preserves_span():
    for trial in range(10):
        g = rng_for(11, trial)
        vecs = g.standard_normal((5, 3)) * 2.0
        res = linalg.orthonormalize(vecs)
        # mutual projection residuals vanish when spans agree
        q = res.matrix
        assert linalg.containment_residual(q, vecs / np.linalg.norm(vecs, axis=0)) <= 1e-10
        assert linalg.containment_residual(vecs @ np.linalg.pinv(vecs.T @ vecs) @ vecs.T @ q, q) <= 1e-9


def test_orthonormalize_empty_rejected():
    with pytest.raises(InvalidInputError):
        linalg.orthonormalize([])


# --------------------------------------------------------- gram_volume

def test_gram_volume_orthonormal_triple():
    b = np.eye(4)[:, :3]
    assert linalg.gram_volume(b[None])[0] == pytest.approx(1.0)


def test_gram_volume_dependent_pair_is_zero():
    v = np.array([1.0, 2.0, 0.5])
    assert linalg.gram_volume(np.column_stack([v, v])[None])[0] == pytest.approx(0.0, abs=1e-12)


def test_gram_volume_matches_2x2_determinant():
    # oracle: |det [[1,1],[0,1]]| = 1
    frame = np.column_stack([(1.0, 0.0), (1.0, 1.0)])
    assert linalg.gram_volume(frame[None])[0] == pytest.approx(1.0, abs=1e-12)


def test_gram_volume_orthogonal_invariance():
    g = rng_for(13)
    vecs = g.standard_normal((5, 3))
    vol = linalg.gram_volume(vecs[None])[0]
    for trial in range(10):
        q = linalg.orthonormalize(rng_for(17, trial).standard_normal((5, 5))).matrix
        assert linalg.gram_volume((q @ vecs)[None])[0] == pytest.approx(vol, abs=1e-9)


@pytest.mark.parametrize("shape", [(4, 3), (3, 3), (6, 1), (2, 4), (3, 0), (0, 0)])
def test_stacked_gram_volume_is_each_matrix_product_of_singular_values(shape):
    # one LAPACK call for the stack, the same bits as each matrix alone;
    # no columns span volume 1, more columns than rows volume 0
    q, j = shape
    stack = rng_for(19, q, j).standard_normal((7, q, j))
    stack[3, :, 1:] = stack[3, :, :1]   # dependent columns
    volumes = linalg.gram_volume(stack)
    assert volumes.shape == (7,)
    for m, volume in zip(stack, volumes):
        if j == 0 or j > q:
            assert volume == float(j == 0)
        else:
            assert volume == np.prod(np.linalg.svd(m, compute_uv=False))
    assert linalg.gram_volume(stack.reshape((7, 1, q, j))).shape == (7, 1)


def test_gram_volume_rejects_non_finite():
    stack = np.ones((3, 2, 2))
    stack[2, 0, 1] = np.inf
    with pytest.raises(InvalidInputError):
        linalg.gram_volume(stack)


# --------------------------------------------------- sum and intersection

def meet(u, w):
    return linalg.sums_and_meets([(u, w)])[1][0][0]


def test_intersect_coordinate_planes():
    u = np.eye(3)[:, :2]           # span{e1, e2}
    w = np.eye(3)[:, 1:]           # span{e2, e3}
    res = meet(u, w)
    assert res.shape[1] == 1
    assert abs(abs(res[1, 0]) - 1.0) <= 1e-12


def test_intersect_idempotence():
    g = rng_for(19)
    u = linalg.orthonormalize(g.standard_normal((5, 3))).matrix
    res = meet(u, u)
    assert res.shape[1] == 3
    assert linalg.containment_residual(u, res) <= 1e-9


def test_intersect_matches_rank_nullity():
    # oracle: dim(U ∩ W) = dim U + dim W - rank [U | W] (via numpy rank)
    for trial in range(20):
        g = rng_for(23, trial)
        u = linalg.orthonormalize(g.standard_normal((5, 3))).matrix
        w = linalg.orthonormalize(g.standard_normal((5, 3))).matrix
        expected = 3 + 3 - np.linalg.matrix_rank(np.hstack([u, w]), tol=1e-10)
        res = meet(u, w)
        assert res.shape[1] == expected
        assert linalg.containment_residual(u, res) <= 1e-9
        assert linalg.containment_residual(w, res) <= 1e-9


def _mixed_pairs():
    """Pairs of orthonormal bases of R^5: zero-dimensional, full, nested,
    equal and generic, several of each shape so that pairs share a stack."""
    g = rng_for(24)

    def basis(*columns):
        return linalg.orthonormalize(np.column_stack(columns)).matrix

    zero, full, pairs = np.zeros((5, 0)), np.eye(5), []
    for dim in (1, 2, 3):
        a = basis(*g.standard_normal((dim, 5)))
        turned = a @ basis(*g.standard_normal((dim, dim)))  # the same subspace
        bigger = basis(*a.T, g.standard_normal(5))
        pairs += [(zero, a), (a, zero), (full, a), (a, a), (a, turned), (a, bigger), (bigger, a)]
        pairs += [(basis(*g.standard_normal((dim, 5))), basis(*g.standard_normal((w, 5))))
                  for w in (1, 2, 3, 4) for _ in range(2)]
    return pairs + [(zero, zero), (full, full)]


def test_sums_and_meets_of_a_mixed_stack():
    pairs = _mixed_pairs()
    sums, meets = linalg.sums_and_meets(pairs)
    for (u, w), (s, ps), (m, pm) in zip(pairs, sums, meets):
        # each pair as it would come out alone, byte for byte
        (alone_s, alone_ps), = linalg.sums_and_meets([(u, w)])[0]
        (alone_m, alone_pm), = linalg.sums_and_meets([(u, w)])[1]
        for a, b in [(s, alone_s), (ps, alone_ps), (m, alone_m), (pm, alone_pm)]:
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        # rank-nullity: dim(U+W) + dim(U∩W) = dim U + dim W
        joint = np.linalg.matrix_rank(np.hstack([u, w]), tol=1e-10) if u.size + w.size else 0
        assert s.shape[1] == joint
        assert s.shape[1] + m.shape[1] == u.shape[1] + w.shape[1]
        assert np.allclose(s.T @ s, np.eye(s.shape[1]), atol=1e-12)
        assert np.allclose(m.T @ m, np.eye(m.shape[1]), atol=1e-12)
        assert np.allclose(ps, s @ s.T) and np.allclose(pm, m @ m.T)
        for sub in (u, w):
            assert linalg.containment_residual(sub, m) <= 1e-9
            assert linalg.containment_residual(s, sub) <= 1e-9
    dims = {(u.shape[1], w.shape[1], m.shape[1]) for (u, w), (m, _) in zip(pairs, meets)}
    assert {(0, 0, 0), (5, 5, 5), (3, 3, 3), (2, 3, 0), (3, 4, 2), (4, 3, 3)} <= dims


def test_sums_and_meets_reject_mixed_ambients():
    with pytest.raises(InvalidInputError, match="ambient dimension mismatch"):
        linalg.sums_and_meets([(np.eye(3)[:, :1], np.eye(3)[:, 1:]),
                               (np.eye(2)[:, :1], np.eye(3)[:, :1])])


def test_orthonormalize_stack_matches_single_calls_with_dropped_columns():
    g = rng_for(42)
    m = g.standard_normal((20, 5, 3))
    m[3, :, 2] = m[3, :, 0] - 0.5 * m[3, :, 1]
    m[7, :, 1] = 0.0
    bases, keep = linalg.orthonormalize_stack(m)
    for one, basis, kept in zip(m, bases, keep):
        res = linalg.orthonormalize(one)
        assert np.array_equal(basis[:, kept], res.matrix)
        assert res.dropped == tuple(np.flatnonzero(~kept))
        assert not np.any(basis[:, ~kept])
    assert keep.sum() == 20 * 3 - 2
