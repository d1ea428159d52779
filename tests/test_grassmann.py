import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grasskit import grassmann as gr, linalg
from grasskit.errors import InvalidInputError


def rng_for(*key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))


def line(*coords):
    v = np.asarray(coords, dtype=float)
    return gr.Subspace.from_vectors([v / np.linalg.norm(v)])


def planar_line(angle):
    return line(np.cos(angle), np.sin(angle))


# ------------------------------------------------------ principal angles

def test_principal_angles_identical():
    v = gr.random_subspace(rng_for(1), 4, 2)
    data = gr.principal_angles(v, v)
    assert np.max(data.angles) <= 1e-9


def test_principal_angles_orthogonal_lines():
    data = gr.principal_angles(line(1, 0), line(0, 1))
    assert data.angles[0] == pytest.approx(np.pi / 2)


def test_principal_angles_mixed_pair():
    # oracle: overlap matrix of the two bases is diag(1, cos 0.3)
    v = gr.Subspace(np.eye(3)[:, :2])
    w = gr.Subspace.from_vectors([
        np.array([1.0, 0.0, 0.0]),
        np.array([0.0, np.cos(0.3), np.sin(0.3)]),
    ])
    data = gr.principal_angles(v, w)
    assert np.allclose(np.sort(data.angles), [0.0, 0.3], atol=1e-12)


def test_aligned_bases_biorthogonality():
    for trial in range(50):
        g = rng_for(2, trial)
        v = gr.random_subspace(g, 5, 2)
        w = gr.random_subspace(g, 5, 2)
        data = gr.principal_angles(v, w)
        overlap = data.left_aligned.T @ data.right_aligned
        assert np.max(np.abs(overlap - np.diag(np.cos(data.angles)))) <= 1e-9
        for aligned in (data.left_aligned, data.right_aligned):
            assert np.allclose(aligned.T @ aligned, np.eye(2), atol=1e-9)


def test_principal_angles_dim_mismatch():
    with pytest.raises(InvalidInputError):
        gr.principal_angles(line(1, 0), gr.Subspace(np.eye(2)))


# -------------------------------------------------------------- distance

def test_distance_zero_iff_same():
    v = gr.random_subspace(rng_for(3), 4, 2)
    assert gr.distance(v, v) == pytest.approx(0.0, abs=1e-9)


def test_distance_orthogonal_lines():
    assert gr.distance(line(1, 0), line(0, 1)) == pytest.approx(np.pi / 2)


def test_distance_from_principal_angle_oracle():
    v = gr.Subspace(np.eye(3)[:, :2])
    w = gr.Subspace.from_vectors([
        np.array([1.0, 0.0, 0.0]),
        np.array([0.0, np.cos(0.3), np.sin(0.3)]),
    ])
    assert gr.distance(v, w) == pytest.approx(0.3, abs=1e-12)


def test_distance_symmetry_and_orthogonal_invariance():
    from grasskit import linalg
    for trial in range(30):
        g = rng_for(4, trial)
        v = gr.random_subspace(g, 4, 2)
        w = gr.random_subspace(g, 4, 2)
        d = gr.distance(v, w)
        assert abs(d - gr.distance(w, v)) <= 1e-9
        q = linalg.orthonormalize(g.standard_normal((4, 4))).matrix
        qv = gr.Subspace.from_vectors(q @ v.basis)
        qw = gr.Subspace.from_vectors(q @ w.basis)
        assert abs(gr.distance(qv, qw) - d) <= 1e-9


def test_triangle_inequality_sampled():
    for trial in range(200):
        g = rng_for(5, trial)
        a, b, c = (gr.random_subspace(g, 4, 2) for _ in range(3))
        assert gr.distance(a, c) <= gr.distance(a, b) + gr.distance(b, c) + 1e-9


# -------------------------------------------------------------- geodesic

def test_geodesic_endpoints():
    g = rng_for(6)
    v = gr.random_subspace(g, 4, 2)
    w = gr.random_subspace(g, 4, 2)
    geo = gr.geodesic(v, w)
    assert geo.at(0.0).same(v, 1e-9)
    assert geo.at(1.0).same(w, 1e-8)


def test_geodesic_planar_rotation_oracle():
    # two lines at angle 0.8: the midpoint is the line rotated 0.4 from V
    geo = gr.geodesic(planar_line(0.1), planar_line(0.9))
    mid = geo.at(0.5)
    assert mid.same(planar_line(0.5), 1e-10)
    assert gr.distance(planar_line(0.1), mid) == pytest.approx(0.4, abs=1e-10)


def test_geodesic_distance_scaling():
    for trial in range(30):
        g = rng_for(7, trial)
        v = gr.random_subspace(g, 4, 2)
        w = gr.random_subspace(g, 4, 2)
        d = gr.distance(v, w)
        geo = gr.geodesic(v, w)
        for t in (0.25, 1.0 / 3.0, 0.5, 0.75):
            assert gr.distance(v, geo.at(t)) == pytest.approx(t * d, abs=1e-8)


def test_geodesic_right_angle_flagged():
    geo = gr.geodesic(line(1, 0), line(0, 1))
    assert geo.non_unique
    assert geo.at(1.0).same(line(0, 1), 1e-10)


def test_geodesic_total_geodesy_inside_plane():
    # both endpoints inside a fixed 3-plane of R^4: the whole arc stays in it
    from grasskit import linalg
    pi = gr.Subspace(np.eye(4)[:, :3])
    for trial in range(20):
        g = rng_for(8, trial)
        v = gr.Subspace.from_vectors(pi.basis @ gr.random_subspace(g, 3, 2).basis)
        w = gr.Subspace.from_vectors(pi.basis @ gr.random_subspace(g, 3, 2).basis)
        geo = gr.geodesic(v, w)
        for t in np.linspace(0.0, 1.0, 7):
            assert linalg.containment_residual(pi.basis, geo.at(t).basis) <= 1e-8


# ------------------------------------------------------------ projection

def test_projection_inside_is_identity():
    pi = gr.Subspace(np.eye(3)[:, :2])
    v = gr.Subspace.from_vectors([np.array([1.0, 1.0, 0.0])])
    res = gr.project_to_sub_grassmannian(v, pi)
    assert res.subspace.same(v, 1e-10)
    assert res.distance == pytest.approx(0.0, abs=1e-10)
    assert res.unique


def test_projection_line_to_coordinate_plane():
    # oracle: 1-d minimization of the distance over lines in the xy-plane
    v = line(1, 0, 1)
    pi = gr.Subspace(np.eye(3)[:, :2])
    res = gr.project_to_sub_grassmannian(v, pi)
    angles = np.linspace(0.0, np.pi, 20001)
    dists = [gr.distance(v, planar_line3(a)) for a in angles]
    best = min(dists)
    assert res.distance <= best + 1e-6
    assert res.subspace.same(line(1, 0, 0), 1e-8)


def planar_line3(angle):
    return gr.Subspace.from_vectors([np.array([np.cos(angle), np.sin(angle), 0.0])])


def test_projection_rank_zero_flagged():
    v = line(0, 0, 1)
    pi = gr.Subspace(np.eye(3)[:, :2])
    res = gr.project_to_sub_grassmannian(v, pi)
    assert not res.unique
    assert res.subspace.dim == 1
    assert pi.contains(res.subspace, 1e-10)


def test_projection_minimality_and_containment():
    for trial in range(30):
        g = rng_for(9, trial)
        v = gr.random_subspace(g, 4, 2)
        pi = gr.random_subspace(g, 4, 3)
        res = gr.project_to_sub_grassmannian(v, pi)
        assert pi.contains(res.subspace, 1e-9)
        # the ambient projection of v sits inside the Grassmannian projection
        pv = linalg.project_columns(pi.basis, v.basis)
        assert gr.Subspace.from_vectors(res.subspace.basis).contains(
            gr.Subspace.from_vectors(pv), 1e-8)
        for _ in range(40):
            contender = gr.Subspace.from_vectors(pi.basis @ gr.random_subspace(g, 3, 2).basis)
            assert res.distance <= gr.distance(v, contender) + 1e-6


# ----------------------------------------------------- vector projection

def test_vector_projection_fixed_point():
    pi = gr.Subspace(np.eye(3)[:, :2])
    x = np.array([0.3, -0.8, 0.0])
    assert np.allclose(linalg.project_columns(pi.basis, x), x)


def test_vector_projection_coordinate_plane():
    pi = gr.Subspace(np.eye(3)[:, :2])
    assert np.allclose(linalg.project_columns(pi.basis, np.array([1.0, 2.0, 3.0])),
                       [1.0, 2.0, 0.0])


def test_vector_projection_pythagoras():
    g = rng_for(10)
    for _ in range(20):
        pi = gr.random_subspace(g, 5, 3)
        x = g.standard_normal(5)
        p = linalg.project_columns(pi.basis, x)
        assert np.allclose(x @ x, p @ p + (x - p) @ (x - p))
        assert np.allclose(linalg.project_columns(pi.basis, p), p)


# ------------------------------------------------------- stacked kernels

def _orthonormal(raw):
    return np.linalg.qr(raw)[0]


@st.composite
def _stacked_pairs(draw):
    """Two (N, q, k) stacks of random bases, built from hypothesis-drawn seeds."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 3))
    q = draw(st.integers(k, 6))
    g = rng_for(77, draw(st.integers(0, 2 ** 32 - 1)))
    v = _orthonormal(g.standard_normal((n, q, k)))
    w = _orthonormal(g.standard_normal((n, q, k)))
    return v, w, g


@settings(max_examples=60, deadline=None)
@given(_stacked_pairs())
def test_stacked_angles_and_distances_match_arccos_reference(pair):
    v, w, g = pair
    angles, left, right = gr.aligned_angles(v, w)
    dists = gr.distances(v, w)
    cosines = np.linalg.svd(np.swapaxes(v, 1, 2) @ w, compute_uv=False)
    reference = np.sort(np.arccos(np.clip(cosines, -1.0, 1.0)), axis=1)
    # arccos loses digits near 0 and pi/2; compare only where it is sharp
    sharp = (reference > 1e-3) & (reference < np.pi / 2 - 1e-3)
    assert np.all(np.abs(angles - reference)[sharp] <= 1e-10)
    rows = sharp.all(axis=1)
    assert np.allclose(dists[rows], np.linalg.norm(reference[rows], axis=1), atol=1e-10)
    assert np.all(np.diff(angles, axis=1) >= 0.0)
    overlap = np.swapaxes(left, 1, 2) @ right
    assert np.allclose(overlap, np.cos(angles)[:, None, :] * np.eye(angles.shape[1]),
                       atol=1e-9)
    # symmetric, and blind to the choice of basis of either subspace
    assert np.allclose(gr.distances(w, v), dists, atol=1e-12)
    k = v.shape[2]
    turn = _orthonormal(g.standard_normal((len(v), k, k)))
    assert np.allclose(gr.distances(v @ turn, w), dists, atol=1e-12)


def test_single_pair_functions_equal_their_stack_entries_bit_for_bit():
    g = rng_for(78)
    for q, k in [(4, 2), (3, 1), (5, 3), (2, 1)]:
        v = gr.random_subspaces(g, 25, q, k)
        w = gr.random_subspaces(g, 25, q, k)
        stacked = gr.distances(v, w)
        single = [gr.distance(gr.Subspace(a), gr.Subspace(b)) for a, b in zip(v, w)]
        assert stacked.tolist() == single


def test_stack_checks_reject_bad_bases_and_mismatched_pairs():
    good = gr.random_subspaces(rng_for(79), 3, 4, 2)
    bent = good.copy()
    bent[1, 0, 0] += 1e-8
    broken = good.copy()
    broken[2, 1, 1] = np.nan
    for bad in (bent, broken, good[0], good[:, :1, :]):
        with pytest.raises(InvalidInputError):
            gr.distances(bad, good)
    for other in (good[:2], gr.random_subspaces(rng_for(80), 3, 5, 2),
                  gr.random_subspaces(rng_for(81), 3, 4, 1)):
        with pytest.raises(InvalidInputError):
            gr.distances(good, other)


def test_random_subspaces_is_the_sequence_of_single_draws():
    stacked = gr.random_subspaces(rng_for(82), 6, 4, 2)
    g = rng_for(82)
    for basis in stacked:
        assert np.array_equal(basis, gr.random_subspace(g, 4, 2).basis)


def test_orthonormal_draws_redraws_a_rank_deficient_draw():
    raw = rng_for(83).standard_normal((4, 3, 2))
    raw[2, :, 1] = 2.0 * raw[2, :, 0]
    g = rng_for(84)
    bases = gr.orthonormal_draws(g, raw)
    assert np.allclose(np.swapaxes(bases, 1, 2) @ bases, np.eye(2), atol=1e-12)
    clean = gr.orthonormal_draws(rng_for(85), raw[[0, 1, 3]])
    assert np.array_equal(bases[[0, 1, 3]], clean)
    replacement = gr.orthonormal_draws(rng_for(86), rng_for(84).standard_normal((1, 3, 2)))
    assert np.array_equal(bases[2], replacement[0])


def test_geodesic_frames_flag_right_angles_per_pair():
    e = np.eye(3)
    v = np.stack([e[:, :1], e[:, :1]])
    w = np.stack([e[:, 1:2], (e[:, :1] + e[:, 1:2]) / np.sqrt(2.0)])
    angles, start, perp, non_unique = gr.geodesic_frames(v, w)
    assert non_unique.tolist() == [True, False]
    assert np.allclose(angles[:, 0], [np.pi / 2, np.pi / 4])
    mid = gr.geodesic_points(angles, start, perp, 0.5)
    assert np.allclose(gr.distances(v, mid), angles[:, 0] / 2, atol=1e-12)


def test_project_stack_pads_only_the_degenerate_pairs():
    pi = np.stack([np.eye(3)[:, :2]] * 2)
    v = np.stack([np.array([[0.0], [0.0], [1.0]]),
                  np.array([[1.0], [0.0], [1.0]]) / np.sqrt(2.0)])
    bases, dists, unique = gr.project_stack(v, pi)
    assert unique.tolist() == [False, True]
    assert np.allclose(dists, [np.pi / 2, np.pi / 4])
    assert np.allclose(np.swapaxes(bases, 1, 2) @ bases, np.eye(1))
    assert np.allclose(bases[:, 2, :], 0.0)
    assert np.allclose(np.abs(bases[1, :, 0]), [1.0, 0.0, 0.0])


# ------------------------------------------------------ line pairs

def lapack_aligned_angles(v, w, equal_dims=True):
    """The stacked-SVD path of ``aligned_angles`` for every shape, 1x1
    overlaps included: the reference its closed form for lines must match."""
    v, w = gr._check_pair(v, w, equal_dims)
    k = min(v.shape[2], w.shape[2])
    u, _, vt = np.linalg.svd(np.swapaxes(v, 1, 2) @ w, full_matrices=False)
    left = v @ u[:, :, :k]
    right = w @ np.swapaxes(vt, 1, 2)[:, :, :k]
    lt, rt = np.swapaxes(left, 1, 2), np.swapaxes(right, 1, 2)
    c = np.clip(np.vecdot(lt, rt), -1.0, 1.0)
    gap = np.ascontiguousarray(rt - c[:, :, None] * lt)
    angles = np.minimum(np.arctan2(np.sqrt(np.vecdot(gap, gap)), c), np.pi / 2.0)
    return angles, left, right


def line_pairs(q):
    """Stacks of unit line pairs in R^q: random pairs, identical and negated
    ones, exactly orthogonal ones whose overlap products are all +0.0 or all
    -0.0, and pairs with overlaps from 1e-300 to 1, some with signed zero
    entries."""
    g = rng_for(90, q)
    x, y = g.standard_normal((2, 60, q, 1))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    v, w = [x, x, x], [y, x, -x]
    if q > 1:
        e = np.eye(q)[:, :, None]
        # every product of the second pair is -0.0: 1 * -0.0, -0.0 * 1, 0.0 * -0.0
        v_neg, w_neg = e[0].copy(), np.where(e[1] == 0, -0.0, e[1])
        v_neg[1] = -0.0
        v += [np.stack([e[0], v_neg, -e[0] + 0.0])]
        w += [np.stack([e[1], w_neg, e[q - 1]])]
        for c in 10.0 ** -np.arange(0, 301, 20.0):
            s = np.sqrt(1.0 - c * c)
            v += [np.stack([e[0], -e[0], np.where(e[0] == 0, -0.0, e[0])])]
            w += [np.stack([c * e[0] + s * e[1], c * e[0] - s * e[q - 1], c * e[0] + s * e[1]])]
    return np.concatenate(v), np.concatenate(w)


def _bits(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


def test_lapack_1x1_singular_vectors_are_the_signs():
    a = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 0.5, -1.0, 1.0])
    u, _, vt = np.linalg.svd(a[:, None, None], full_matrices=False)
    assert _bits(u, vt) == _bits(np.copysign(1.0, a)[:, None, None], np.ones((len(a), 1, 1)))


@pytest.mark.parametrize("q", range(1, 7))
def test_line_pairs_match_the_lapack_path_bit_for_bit(q, monkeypatch):
    v, w = line_pairs(q)
    assert _bits(*gr.aligned_angles(v, w)) == _bits(*lapack_aligned_angles(v, w))
    closed = [gr.distances(v, w), gr.same_stack(v, w), *gr.geodesic_frames(v, w)]
    monkeypatch.setattr(gr, "aligned_angles", lapack_aligned_angles)
    lapack = [gr.distances(v, w), gr.same_stack(v, w), *gr.geodesic_frames(v, w)]
    assert _bits(*closed) == _bits(*lapack)
