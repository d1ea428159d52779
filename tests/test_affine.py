import numpy as np
import pytest

from grasskit import affine as af, linalg
from grasskit.errors import CertificateError, OutOfChartError
from grasskit.grassmann import Subspace
from grasskit.sampling import (random_affine_plane, random_chart_m_plane,
                               random_chart_point, random_point_on, rng_for)


def line_through(p, q):
    p, q = np.asarray(p, float), np.asarray(q, float)
    return af.AffinePlane(Subspace.from_vectors([q - p]), p)


# ------------------------------------------------------------- projective

def test_to_projective_x_axis():
    l = af.AffinePlane(Subspace.spanned_by_axes(2, [0]), np.zeros(2))
    lifted = af.to_projective(l)
    expected = Subspace.from_vectors([np.array([1.0, 0, 0]), np.array([0, 0, 1.0])])
    assert lifted.same(expected, 1e-12)


def test_to_projective_point():
    p = af.AffinePlane(Subspace.zero(2), np.array([0.3, -0.7]))
    lifted = af.to_projective(p)
    expected = Subspace.from_vectors([np.array([0.3, -0.7, 1.0])])
    assert lifted.same(expected, 1e-12)


def test_projective_round_trip():
    for trial in range(200):
        g = rng_for(31, trial)
        dim = int(g.integers(0, 3))
        from grasskit.sampling import random_affine_plane
        pl = random_affine_plane(g, 4, dim)
        back = af.from_projective(af.to_projective(pl))
        assert back.same(pl, 1e-10)


def test_to_projective_refuses_a_lift_that_loses_rank():
    # the direction column falls below the rank floor of the offset column;
    # the lift used to come back one dimension short
    far = af.AffinePlane(Subspace.spanned_by_axes(3, [0]), np.array([0.0, 1e11, 0.0]))
    with pytest.raises(CertificateError):
        af.to_projective(far)


# -------------------------------------------------------- affine distance

def test_affine_distance_zero():
    pl = line_through([0.0, 0.0], [1.0, 1.0])
    assert af.affine_distance(pl, pl) == pytest.approx(0.0, abs=1e-9)


def test_affine_distance_two_points():
    # lifts of the points 0 and (1,0) are the lines spanned by (0,0,1) and
    # (1,0,1); the angle between them is arccos(1/sqrt(2))
    a = af.AffinePlane(Subspace.zero(2), np.zeros(2))
    b = af.AffinePlane(Subspace.zero(2), np.array([1.0, 0.0]))
    assert af.affine_distance(a, b) == pytest.approx(np.arccos(1 / np.sqrt(2)), abs=1e-12)


def test_affine_distance_symmetry():
    from grasskit.sampling import random_affine_plane
    for trial in range(50):
        g = rng_for(32, trial)
        a = random_affine_plane(g, 3, 1)
        b = random_affine_plane(g, 3, 1)
        assert af.affine_distance(a, b) == pytest.approx(af.affine_distance(b, a), abs=1e-10)


# ----------------------------------------------------------- rho distance

def rho_oracle(l1, l2, samples=4000):
    """Dense sampling of the unit-ball part of l1."""
    r = np.sqrt(max(0.0, 1.0 - float(l1.offset @ l1.offset)))
    if l1.dim == 0:
        return l2.point_distance(l1.offset)
    best = 0.0
    g = rng_for(99)
    for _ in range(samples):
        u = g.standard_normal(l1.dim)
        u = u / np.linalg.norm(u) * r
        x = l1.offset + l1.direction.basis @ u
        best = max(best, l2.point_distance(x))
    return best


def test_rho_identical_planes():
    pl = line_through([0.0, 0.1], [1.0, 0.1])
    assert af.rho_distance(pl, pl) == pytest.approx(0.0, abs=1e-12)


def test_rho_parallel_lines_gap():
    d = Subspace.spanned_by_axes(2, [0])
    a = af.AffinePlane(d, np.array([0.0, 0.0]))
    b = af.AffinePlane(d, np.array([0.0, 0.3]))
    assert af.rho_distance(a, b) == pytest.approx(0.3, abs=1e-12)


def test_rho_against_sampling_oracle():
    from grasskit.sampling import random_affine_plane
    for trial in range(25):
        g = rng_for(33, trial)
        a = random_affine_plane(g, 3, 1, offset_scale=0.25)
        b = random_affine_plane(g, 3, 1, offset_scale=0.25)
        rho = af.rho_distance(a, b)
        approx = rho_oracle(a, b)
        assert rho >= approx - 1e-9
        assert rho <= approx + 0.05 * max(approx, 0.1)


def test_rho_metric_comparability():
    # ratio rho/d bounded above and below over random in-chart pairs, and
    # far below the hard ceiling 100 n
    from grasskit.sampling import random_affine_plane
    ratios = []
    for trial in range(300):
        g = rng_for(34, trial)
        a = random_affine_plane(g, 3, 1, offset_scale=0.25)
        b = random_affine_plane(g, 3, 1, offset_scale=0.25)
        d = af.affine_distance(a, b)
        if d < 1e-6:
            continue
        ratios.append(af.rho_distance(a, b) / d)
    assert 1.0 / (100 * 3) <= min(ratios) and max(ratios) <= 100 * 3


def test_rho_rejects_out_of_chart():
    d = Subspace.spanned_by_axes(2, [0])
    a = af.AffinePlane(d, np.array([0.0, 0.9]))
    with pytest.raises(OutOfChartError):
        af.rho_distance(a, a)


# ----------------------------------------------------------------- charts

def test_chart_point_l0():
    chart = af.Chart(0, 2)
    p = af.AffinePlane(Subspace.zero(2), np.array([0.4, -0.2]))
    cp = chart.point_of(p)
    assert np.allclose(cp.coords, [[0.4, -0.2]])


def test_chart_line_two_slices():
    # line through (0.2, 0) and (0.5, 1): slice coordinates 0.2 and 0.5
    chart = af.Chart(1, 2)
    pl = line_through([0.2, 0.0], [0.5, 1.0])
    cp = chart.point_of(pl)
    assert np.allclose(cp.coords.ravel(), [0.2, 0.5], atol=1e-12)


def test_chart_rejects_non_transverse():
    chart = af.Chart(1, 2)
    horizontal = line_through([0.0, 0.5], [1.0, 0.5])
    with pytest.raises(OutOfChartError):
        chart.point_of(horizontal)


def test_chart_rejects_outside_box():
    chart = af.Chart(1, 2)
    pl = line_through([5.0, 0.0], [5.0, 1.0])
    with pytest.raises(OutOfChartError):
        chart.point_of(pl)


def test_chart_round_trip():
    for (l, n) in [(0, 2), (1, 2), (1, 3), (2, 4)]:
        chart = af.Chart(l, n)
        for trial in range(50):
            cp = random_chart_point(rng_for(35, l, n, trial), l, n, scale=0.95)
            back = chart.point_of(chart.plane_of(cp))
            assert np.max(np.abs(back.coords - cp.coords)) <= 1e-10


def test_chart_m_plane_dimension_count():
    # a chart m-plane has (m-l)(n-m) + (l+1)(n-m) free parameters
    l, m, n = 1, 2, 4
    v = random_chart_m_plane(rng_for(37), l, m, n)
    direction_params = (m - l) * (n - m)
    offset_params = (l + 1) * (n - m)
    assert v.normal_frame().shape == (n - l, n - m)
    assert v.offsets.shape == (l + 1, n - l)
    # offsets are constrained to the normal frame: n-m free entries each
    assert direction_params + offset_params == (m + 1) * (n - m)


# -------------------------------------------------------------- incidence

def test_incidence_by_construction():
    g = rng_for(38)
    v = random_chart_m_plane(g, 1, 2, 3)
    p = random_point_on(g, v)
    assert af.incidence(p, v)


def test_incidence_perturbed_off():
    g = rng_for(39)
    v = random_chart_m_plane(g, 1, 2, 3)
    p = random_point_on(g, v, spread=0.3)
    coords = p.coords.copy()
    coords[0] += 0.1 * v.normal_frame()[:, 0]
    assert not af.incidence(af.ChartPoint(coords), v, tol=1e-6)


def test_incidence_matches_containment_oracle():
    # incidence in chart coordinates iff the l-plane is a subset of the
    # m-plane in R^n, checked by sampling points of the l-plane
    chart = af.Chart(1, 3)
    g = rng_for(40)
    hits = misses = 0
    for trial in range(60):
        v = random_chart_m_plane(g, 1, 2, 3)
        big = chart.affine_of(v)
        if g.uniform() < 0.5:
            p = random_point_on(g, v)
        else:
            p = random_chart_point(g, 1, 3, scale=0.9)
        small = chart.plane_of(p)
        inside = all(
            big.point_distance(small.offset + small.direction.basis @ np.array([t])) <= 1e-8
            for t in np.linspace(-1.0, 1.0, 7)
        )
        assert af.incidence(p, v, tol=1e-8) == inside
        hits += inside
        misses += not inside
    assert hits > 10 and misses > 10


@pytest.mark.parametrize("l, m, n", [(0, 1, 2), (1, 2, 3), (1, 2, 4), (1, 1, 3)])
def test_incidences_meet_the_tolerance_as_incidence_does(l, m, n):
    # points moved off one section along its normal frame by half and by
    # twice the tolerance fall inside and outside it, on the stack and on
    # its single-plane views alike
    g = rng_for(43, l, m, n)
    planes, points, expected = [], [], []
    for trial in range(20):
        v = random_chart_m_plane(g, l, m, n)
        coords = random_point_on(g, v, spread=0.3).coords.copy()
        step = v.normal_frame() @ g.standard_normal(n - m)
        factor = (0.5, 2.0)[trial % 2]
        coords[trial % (l + 1)] += factor * af.INCIDENCE_TOL * step / np.linalg.norm(step)
        planes.append(v)
        points.append(af.ChartPoint(coords))
        expected.append(factor < 1.0)
    stacked = af.incidences(np.stack([v.direction.basis for v in planes]),
                            np.stack([v.offsets for v in planes]),
                            np.stack([p.coords for p in points]))
    assert stacked.tolist() == [af.incidence(p, v) for p, v in zip(points, planes)] == expected


# -------------------------------------------------------------- embedding

def test_embed_tilde_l0_identity():
    g = rng_for(41)
    v = random_chart_m_plane(g, 0, 1, 2)
    t = af.embed_tilde(v)
    assert t.direction.same(v.direction, 1e-12)
    p = random_point_on(g, v)
    assert t.point_distance(p.stacked()) <= 1e-10


def test_embed_tilde_parallelism():
    g = rng_for(42)
    for trial in range(40):
        v1 = random_chart_m_plane(g, 1, 2, 4)
        if trial % 2:
            v2 = af.ChartMPlane(v1.direction, random_chart_m_plane(g, 1, 2, 4).offsets)
        else:
            v2 = random_chart_m_plane(g, 1, 2, 4)
        same_dir = v1.direction.same(v2.direction, 1e-9)
        assert af.embed_tilde(v1).direction.same(af.embed_tilde(v2).direction, 1e-9) == same_dir


def test_embed_tilde_incidence_per_factor_oracle():
    # membership of the stacked point is equivalent to per-factor section
    # membership, which is the incidence relation
    g = rng_for(43)
    for trial in range(200):
        v = random_chart_m_plane(g, 1, 2, 4)
        p = random_point_on(g, v)
        t = af.embed_tilde(v)
        assert t.point_distance(p.stacked()) <= 1e-10
        per_factor = sum(
            v.section(j).point_distance(p.coords[j]) ** 2 for j in range(v.l + 1)
        )
        assert t.point_distance(p.stacked()) ** 2 == pytest.approx(
            per_factor, abs=1e-12)


def test_embed_tilde_orthogonal_complement_structure():
    v = random_chart_m_plane(rng_for(44), 1, 2, 4)
    t = af.embed_tilde(v)
    q = v.slice_dim
    normal = v.normal_frame()
    big_normal = np.zeros((2 * q, 2 * normal.shape[1]))
    big_normal[:q, :normal.shape[1]] = normal
    big_normal[q:, normal.shape[1]:] = normal
    comp = t.direction.complement()
    assert comp.same(Subspace(big_normal), 1e-10)


# ------------------------------------------------------- stacked kernels

def _arrays(planes):
    return (np.array([p.direction.basis for p in planes]),
            np.array([p.offset for p in planes]))


def _hard_case_pair():
    """l1 = the plane z = 0.3 and l2 a line with c orthogonal to the top
    eigenvector of m^T m (b[0] = 0) and the secular function below r^2
    there: the multiplier is pinned at the top eigenvalue."""
    a, s = 0.6, 0.05
    u = np.array([[0.0], [np.sin(a)], [np.cos(a)]])
    l1 = af.AffinePlane(Subspace.spanned_by_axes(3, [0, 1]), np.array([0.0, 0.0, 0.3]))
    l2 = af.AffinePlane(Subspace(u), s * np.array([0.0, np.cos(a), -np.sin(a)]))
    return l1, l2


def test_hard_case_pair_takes_the_hard_branch():
    l1, l2 = _hard_case_pair()
    comp = np.eye(3) - l2.direction.projector()
    m, c = comp @ l1.direction.basis, comp @ l1.offset - l2.offset
    dec = linalg.svd(m)
    lam = dec.singular_values ** 2
    b = dec.right.T @ (m.T @ c)
    r2 = 1.0 - float(l1.offset @ l1.offset)
    assert abs(b[0]) < 1e-14 and lam[0] > lam[1]
    assert np.sum((b / (lam[0] * (1 + 1e-15) - lam)) ** 2) < r2
    # the disc's boundary circle, sampled densely, stays below rho
    t = np.linspace(0.0, 2 * np.pi, 4001)
    circle = l1.offset + np.sqrt(r2) * np.column_stack([np.cos(t), np.sin(t), 0 * t])
    worst = max(l2.point_distance(x) for x in circle)
    assert worst <= af.rho_distance(l1, l2) <= worst + 1e-6


def _rho_cases():
    g = rng_for(71)
    for n in (3, 4):
        for k1 in (0, 1, 2):
            for k2 in range(n):
                l1 = [random_affine_plane(g, n, k1, offset_scale=0.25) for _ in range(12)]
                l2 = [random_affine_plane(g, n, k2, offset_scale=0.25) for _ in range(12)]
                yield f"R{n}-{k1}-{k2}", l1, l2
    # the hard case, |b| <= 1e-14 (both through the origin, c = 0) and a
    # generic row in one stack
    hard = _hard_case_pair()
    origin = (af.AffinePlane(Subspace.spanned_by_axes(3, [0, 1]), np.zeros(3)),
              af.AffinePlane(Subspace.spanned_by_axes(3, [2]), np.zeros(3)))
    generic = (random_affine_plane(g, 3, 2, offset_scale=0.25),
               random_affine_plane(g, 3, 1, offset_scale=0.25))
    yield "special", *zip(hard, origin, generic)


@pytest.mark.parametrize("l1, l2", [case[1:] for case in _rho_cases()],
                         ids=[case[0] for case in _rho_cases()])
def test_rho_stack_equals_its_stack_of_one_views(l1, l2):
    stacked = af.rho_distances(*_arrays(l1), *_arrays(l2))
    single = [af.rho_distance(a, b) for a, b in zip(l1, l2)]
    assert [float(x).hex() for x in stacked] == [x.hex() for x in single]
