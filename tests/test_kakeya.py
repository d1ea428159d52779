import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grasskit import discretize as dz
from grasskit import kakeya as kk
from grasskit.affine import ChartMPlane, ChartPoint
from grasskit.errors import (CertificateError, InvalidInputError, OutOfChartError,
                             ResourceCapError)
from grasskit.grassmann import Subspace
from grasskit.sampling import rng_for, random_chart_m_plane


# -------------------------------------------------------- admissible p

def test_p_max_line_case():
    # min{2, 2/(2 - 1/2), 2} = 4/3
    assert kk.admissible_p_max(0, 1, 1, 1.0) == pytest.approx(4.0 / 3.0)


def test_p_max_third_term_binds():
    assert kk.admissible_p_max(0, 1, 1, 1.0) <= 2.0
    assert kk.admissible_p_max(0, 2, 2, 2.0) <= 2.0


def test_p_max_degenerate_substitution():
    # beta = 0 at d = m: the first ratio uses beta -> l+1
    assert kk.admissible_p_max(0, 1, 1, 0.0) == pytest.approx(2.0)


def test_p_max_exceeds_one_everywhere():
    for n in range(2, 7):
        for d in range(1, n):
            for m in range(0, d + 1):
                for l in range(0, m + 1):
                    for beta in (0.25, 0.5, 1.0, m + 1.0):
                        assert kk.admissible_p_max(l, m, d, beta) > 1.0


# ------------------------------------------------------- sharp examples

def test_sharp_example_invalid_params():
    with pytest.raises(InvalidInputError):
        kk.FamilyParams(1, 0, 1, 2, 0.5)
    with pytest.raises(InvalidInputError):
        kk.FamilyParams(0, 1, 2, 2, 0.5)
    with pytest.raises(InvalidInputError):
        kk.FamilyParams(0, 1, 1, 2, 2.5)


def test_sharp_example_full_net_count():
    # beta = m+1 at d = m: a full net of chart m-planes, count ~ delta^-(m+1)
    params = kk.FamilyParams(0, 1, 1, 2, 2.0)
    delta = 2.0 ** -4
    fam = kk.generate_sharp_example(params, delta)
    ideal = delta ** -2.0
    assert ideal / 16 <= len(fam) <= ideal * 4
    assert fam.min_separation() >= delta


def test_sharp_example_cantor_count():
    params = kk.FamilyParams(0, 1, 1, 2, 0.5)
    delta = 2.0 ** -8
    fam = kk.generate_sharp_example(params, delta)
    ideal = delta ** -0.5
    assert ideal / 4 <= len(fam) <= ideal * 4


def test_sharp_example_spacing_constant():
    for (l, m, d, n, beta) in [(0, 1, 1, 2, 1.0), (0, 1, 1, 2, 0.5),
                               (1, 1, 2, 3, 1.0), (0, 1, 2, 3, 1.0)]:
        fam = kk.generate_sharp_example(kk.FamilyParams(l, m, d, n, beta), 2.0 ** -4)
        rep = fam.spacing()
        assert rep.worst_ratio <= 4.0, (l, m, d, n, beta, rep)
        assert fam.min_separation() >= fam.scale - 1e-12


def test_sharp_example_union_slope_flat_case():
    # l=0, m=d=1, n=2, beta=1: the union fills the plane, slope 2
    params = kk.FamilyParams(0, 1, 1, 2, 1.0)
    deltas = [2.0 ** -k for k in range(4, 9)]
    counts = [dz.box_count(kk.union_sample_points(kk.generate_sharp_example(params, d)), d)
              for d in deltas]
    fit = dz.box_dimension_fit(deltas, counts)
    assert abs(fit.slope - 2.0) <= 0.15


# ------------------------------------- array-backed families: references

def reference_sharp_example(params, delta):
    """The per-member loop that generate_sharp_example replaced: its
    ``ChartMPlane`` members."""
    axes, base_cols, tilt_cols = kk._sharp_axes(params, delta)
    l, r, slice_dim = params.l, params.m - params.l, params.n - params.l
    sizes = [len(a.points) for a in axes]
    members = []
    for flat in range(int(np.prod(sizes))):
        tilt = np.zeros((r, len(tilt_cols)))
        offsets = np.zeros((l + 1, slice_dim))
        rem = flat
        for ax, size in zip(axes, sizes):
            val = float(ax.points[rem % size])
            rem //= size
            if ax.kind == "tilt":
                tilt[ax.index] = val
            else:
                offsets[ax.index] += val
        cols = np.zeros((slice_dim, r))
        for a in range(r):
            cols[base_cols[a], a] = 1.0
            for b, ax in enumerate(tilt_cols):
                cols[ax, a] = tilt[a, b]
        direction = Subspace.from_vectors(cols) if r else Subspace.zero(slice_dim)
        members.append(ChartMPlane(direction, offsets))
    return members


def reference_union_sample_points(members, delta, cap=6_000_000):
    """The per-member loop that union_sample_points replaced."""
    pitch = delta / 2.0
    out = []
    total = 0
    for v in members:
        per_slice = []
        for j in range(v.l + 1):
            if v.direction.dim == 0:
                per_slice.append(v.offsets[j][None, :])
                continue
            half = np.sqrt(v.slice_dim)
            ticks = np.arange(-half, half + pitch / 2.0, pitch)
            mesh = np.meshgrid(*([ticks] * v.direction.dim), indexing="ij")
            coeff = np.column_stack([g.ravel() for g in mesh])
            pts = v.offsets[j][None, :] + coeff @ v.direction.basis.T
            pts = pts[np.max(np.abs(pts), axis=1) <= 1.0]
            per_slice.append(pts)
        rows = per_slice[0]
        for pts in per_slice[1:]:
            left = np.repeat(rows, pts.shape[0], axis=0)
            right = np.tile(pts, (rows.shape[0], 1))
            rows = np.hstack([left, right])
        total += rows.shape[0]
        if total > cap:
            raise ResourceCapError("union sample exceeds the point cap")
        out.append(rows)
    return np.vstack(out)


def reference_feature_matrix(members):
    return np.array([np.concatenate([v.direction.projector().ravel() / np.sqrt(2.0),
                                     v.offsets.ravel()]) for v in members])


ARRAY_FAMILY_CASES = [
    ((0, 1, 1, 2, 0.0), (4, 6)),
    ((0, 1, 1, 2, 0.5), (4, 6)),
    ((0, 1, 1, 2, 1.0), (4, 6)),
    ((1, 1, 2, 3, 0.0), (3, 5)),    # r = 0: point sections
    ((1, 1, 2, 3, 1.0), (3, 5)),
    ((0, 2, 2, 3, 1.0), (3, 4)),    # r = 2: a two-dimensional tick lattice
    ((1, 2, 3, 4, 0.5), (2, 3)),    # l = 1, r = 1: a product of two slices
]


@pytest.mark.parametrize("chunk_rows", [kk.UNION_CHUNK_ROWS, 1000])
@pytest.mark.parametrize("params, exponents", ARRAY_FAMILY_CASES)
def test_array_family_matches_per_member_loops(params, exponents, chunk_rows, monkeypatch):
    # a small chunk splits the members over many chunks
    monkeypatch.setattr(kk, "UNION_CHUNK_ROWS", chunk_rows)
    for k in exponents:
        params_k, delta = kk.FamilyParams(*params), 2.0 ** -k
        fam = kk.generate_sharp_example(params_k, delta)
        ref = reference_sharp_example(params_k, delta)
        # the members stacked as they are, with no second projection
        assert np.array_equal(fam.directions, np.stack([v.direction.basis for v in ref]))
        assert np.array_equal(fam.offsets, np.stack([v.offsets for v in ref]))
        assert np.array_equal(fam.feature_matrix(), reference_feature_matrix(ref))
        pts = kk.union_sample_points(fam)
        assert np.array_equal(pts, reference_union_sample_points(ref, delta))


def test_family_members_are_views_of_the_arrays():
    fam = kk.generate_sharp_example(kk.FamilyParams(1, 2, 3, 4, 0.5), 2.0 ** -3)
    for i, v in enumerate(fam.members):
        assert np.shares_memory(v.offsets, fam.offsets)
        assert np.array_equal(v.offsets, fam.offsets[i])
        assert np.array_equal(v.direction.basis, fam.directions[i])
    assert not fam.offsets.flags.writeable and not fam.directions.flags.writeable


def test_family_rejects_members_of_another_shape():
    # (1, 1, 2, 3) members have point sections: directions (M, 2, 0), offsets (M, 2, 2)
    params = kk.FamilyParams(1, 1, 2, 3, 1.0)
    line = Subspace.spanned_by_axes(2, [1]).basis[None]
    with pytest.raises(InvalidInputError):
        kk.PlaneFamily.from_arrays(params, 0.25, line, np.zeros((1, 2, 2)))
    with pytest.raises(InvalidInputError):
        kk.PlaneFamily.from_arrays(params, 0.25, np.zeros((1, 2, 0)), np.zeros((1, 1, 2)))


def test_family_json_rejects_a_member_outside_the_chart():
    fam = kk.generate_sharp_example(kk.FamilyParams(0, 1, 1, 2, 1.0), 2.0 ** -3)
    offsets = fam.offsets.copy()
    offsets[-1, 0, 0] = 1.5 + abs(offsets[-1, 0, 0])
    with pytest.raises(OutOfChartError):
        kk.PlaneFamily.from_arrays(fam.params, fam.scale, fam.directions, offsets)


def test_empty_family_round_trip():
    params = kk.FamilyParams(1, 1, 2, 3, 1.0)
    fam = kk.PlaneFamily.from_arrays(params, 0.25, np.zeros((0, 2, 0)), np.zeros((0, 2, 2)))
    assert len(fam) == 0 and fam.directions.shape == (0, 2, 0)
    assert fam.feature_matrix().shape == (0, 4 + 4)
    assert kk.union_sample_points(fam).shape == (0, 4)


def test_sharp_planar_work_is_pinned():
    # the work perfbench's sharp-planar workload checks: its traced
    # kakeya.union_sample_points.points and the per-delta box counts
    params = kk.FamilyParams(0, 1, 1, 2, 1.0)
    points = 0
    for k in range(4, 11):
        pts = kk.union_sample_points(kk.generate_sharp_example(params, 2.0 ** -k))
        points += len(pts)
        assert dz.box_count(pts, 2.0 ** -k) == 4 ** k
    assert points == 2_796_032


def test_union_point_cap_is_exact(monkeypatch):
    monkeypatch.setattr(kk, "UNION_CHUNK_ROWS", 1000)
    fam = kk.generate_sharp_example(kk.FamilyParams(0, 1, 1, 2, 1.0), 2.0 ** -5)
    total = len(kk.union_sample_points(fam))
    with pytest.raises(ResourceCapError):
        kk.union_sample_points(fam, cap=total - 1)
    assert len(kk.union_sample_points(fam, cap=total)) == total


# ----------------------------------------------------------------- bush

def test_bush_empty_off_all_slabs():
    fam = kk.generate_sharp_example(kk.FamilyParams(0, 1, 1, 2, 0.0), 2.0 ** -6)
    # the single member passes through x ~ 0; anchor far away
    anchor = ChartPoint(np.array([[0.9, 0.9]]))
    bush = kk.bush_directions(anchor, fam)
    assert bush.total() == 0


def test_bush_single_member_direction():
    fam = kk.generate_sharp_example(kk.FamilyParams(0, 1, 1, 2, 0.0), 2.0 ** -6)
    member = fam.members[0]
    anchor = ChartPoint(member.offsets.copy())
    bush = kk.bush_directions(anchor, fam)
    assert bush.total() == 1
    d = np.arccos(np.clip(abs(float(
        bush.directions[0].basis[:, 0] @ member.direction.basis[:, 0])), 0, 1))
    assert d <= fam.scale


def test_bush_directions_separated_brute_force():
    fam = kk.generate_sharp_example(kk.FamilyParams(0, 1, 1, 2, 1.0), 2.0 ** -4)
    anchor = ChartPoint(np.zeros((1, 2)))
    bush = kk.bush_directions(anchor, fam)
    dirs = bush.directions
    for i in range(len(dirs)):
        for j in range(i + 1, len(dirs)):
            from grasskit.grassmann import distance
            assert distance(dirs[i], dirs[j]) >= fam.scale - 1e-9


# ---------------------------------------------------------- broad/narrow

def test_classify_planar_bush_is_narrow():
    params = kk.FamilyParams(0, 1, 2, 3, 1.0)
    inside = Subspace(np.eye(3)[:, :2])
    g = rng_for(61)
    entries = []
    for i in range(10):
        v = inside.basis @ g.standard_normal((2, 1))
        entries.append((Subspace(v / np.linalg.norm(v)), (i,)))
    bush = kk.BushDirections(ChartPoint(np.zeros((1, 3))), tuple(entries))
    res = kk.broad_narrow_classify(bush, params)
    assert res.kind == "narrow"
    assert res.covered_fraction >= 0.5
    # the witness contains the spanning plane of the bush
    assert res.witness.dim == 2


def test_classify_spread_bush_is_broad():
    # an orthonormal-frame spread exceeding d-l dimensions
    params = kk.FamilyParams(0, 1, 1, 2, 1.0)
    entries = tuple((Subspace(np.eye(2)[:, [i]]), (i,)) for i in range(2))
    bush = kk.BushDirections(ChartPoint(np.zeros((1, 2))), entries)
    res = kk.broad_narrow_classify(bush, params)
    assert res.kind == "broad"
    # oracle: the frame's parallelepiped has volume exactly 1
    assert res.tuple.volume == pytest.approx(1.0, abs=1e-9)
    assert res.tuple.certified()


def test_broad_certificate_avoids_random_planes():
    # contrapositive: no sampled plane can be near every tuple ball
    from grasskit.grassmann import project_to_sub_grassmannian, random_subspace
    params = kk.FamilyParams(0, 1, 2, 3, 1.0)
    g = rng_for(62)
    tup = kk.random_transverse_tuple(params, g)
    probe = 100.0 * tup.K ** (-(params.n - params.l)) + tup.radius
    for trial in range(100):
        pi = random_subspace(rng_for(63, trial), 3, 2)
        dists = [project_to_sub_grassmannian(c, pi).distance for c in tup.centers]
        assert max(dists) > probe


def test_tuple_generation_all_parameter_sets():
    for (l, m, d, n) in [(0, 1, 1, 2), (0, 1, 2, 3), (1, 2, 2, 4)]:
        params = kk.FamilyParams(l, m, d, n, 1.0)
        tup = kk.random_transverse_tuple(params, rng_for(64, l, m, d, n))
        assert len(tup.centers) == d - m + 2
        assert tup.vectors.shape == (n - l, d - l + 1)
        assert tup.certified()
        # certificate volume is the gram volume of the witness vectors
        from grasskit.linalg import gram_volume
        assert tup.volume == pytest.approx(gram_volume(tup.vectors), abs=1e-12)


# -------------------------------------------------------- dim projection

def test_dim_projection_kernel_case():
    w = Subspace(np.eye(4)[:, :2])
    assert kk.dim_projection(w.complement(), w) == 0


def test_dim_projection_full_space():
    w = Subspace(np.eye(4)[:, :2])
    assert kk.dim_projection(Subspace.full(4), w) == 2


def test_dim_projection_matches_rank_oracle():
    from grasskit.grassmann import random_subspace
    for trial in range(30):
        g = rng_for(65, trial)
        u = random_subspace(g, 6, int(g.integers(1, 5)))
        w = random_subspace(g, 6, int(g.integers(1, 5)))
        expected = np.linalg.matrix_rank(w.projector() @ u.basis, tol=1e-9)
        assert kk.dim_projection(u, w) == expected
        # rank-nullity refinement: >= dim W + dim U - N, +1 when U misses W-perp
        lower = w.dim + u.dim - 6
        assert kk.dim_projection(u, w) >= lower
        if not u.contains(w.complement(), 1e-9):
            assert kk.dim_projection(u, w) >= lower + 1


# ------------------------------------------------------------- BL bounds

def test_bl_worked_2d_example():
    # exhaustive oracle over {0, e1, e2, diagonal, R^2} gives max 0
    w1 = Subspace.spanned_by_axes(2, [0])
    w2 = Subspace.spanned_by_axes(2, [1])
    inst = kk.bl_constant_lower([w1, w2], 2.0)
    assert inst.best_value == pytest.approx(0.0, abs=1e-12)
    diag = Subspace.from_vectors([np.array([1.0, 1.0])])
    for u, expect in [(Subspace.zero(2), 0.0), (w1, 0.0), (w2, 0.0),
                      (Subspace.full(2), 0.0), (diag, -1.0)]:
        assert inst.value_of(u) == pytest.approx(expect, abs=1e-12)


def test_bl_full_space_obstructions():
    ws = [Subspace.full(3)] * 2
    for p in (1.0, 1.5, 2.0):
        inst = kk.bl_constant_lower(ws, p)
        assert inst.best_value == pytest.approx(max(0.0, 3 * (1 - p)), abs=1e-12)


def test_bl_single_subspace_kernel_maximizer():
    w = Subspace(np.eye(5)[:, :2])
    inst = kk.bl_constant_lower([w], 1.0)
    assert inst.best_value == pytest.approx(3.0)
    # the kernel candidate attains the maximum (projection dimension 0)
    assert inst.value_of(w.complement()) == pytest.approx(3.0)


def _projectors_match(a: Subspace, b: Subspace) -> bool:
    return a.dim == b.dim and np.allclose(a.projector(), b.projector(), rtol=0, atol=1e-9)


def test_kernel_lattice_is_closed_and_distinct():
    from grasskit.grassmann import random_subspace
    for shape in [(0, 1, 2, 3), (0, 1, 3, 4)]:
        params = kk.FamilyParams(*shape, 1.0)
        tup = kk.random_transverse_tuple(params, rng_for(66, *shape))
        ws = kk.tuple_obstruction_subspaces(tup, params)
        lattice = kk.kernel_lattice(ws)
        ambient = ws[0].ambient_dim
        assert any(u.dim == 0 for u in lattice) and any(u.dim == ambient for u in lattice)
        for w in ws:
            assert any(_projectors_match(u, w.complement()) for u in lattice)
        for i, a in enumerate(lattice):
            assert not any(_projectors_match(a, b) for b in lattice[i + 1:])
            for b in lattice[i + 1:]:
                for c in (a.sum(b), a.intersect(b)):
                    assert any(_projectors_match(c, u) for u in lattice)
    g = rng_for(66)
    generic = [random_subspace(g, 4, 2) for _ in range(3)]
    # pairwise sums are R^4 and pairwise intersections 0
    assert len(kk.kernel_lattice(generic)) == 5


def test_kernel_lattice_cap(monkeypatch):
    params = kk.FamilyParams(0, 1, 3, 4, 1.0)
    ws = kk.tuple_obstruction_subspaces(kk.random_transverse_tuple(params, rng_for(67)),
                                        params)
    assert len(kk.kernel_lattice(ws)) == 16
    monkeypatch.setattr(kk, "LATTICE_CAP", 15)
    with pytest.raises(ResourceCapError):
        kk.kernel_lattice(ws)


def test_bl_value_is_the_lattice_max_member_by_member():
    # the lattice scored one member at a time through dim_projection
    from grasskit.grassmann import random_subspace
    ambient = 6
    for trial in range(3):
        g = rng_for(79, trial)
        ws = [random_subspace(g, ambient, int(g.integers(1, ambient))) for _ in range(3)]
        lattice = kk.kernel_lattice(ws)
        for p in (1.0, 1.2, 2.5):
            inst = kk.bl_constant_lower(ws, p)
            values = [u.dim - (p / 3) * sum(kk.dim_projection(u, w) for w in ws)
                      for u in lattice]
            assert inst.n_candidates == len(lattice)
            assert inst.best_value == max(values)
            assert inst.value_of(inst.best_candidate) == inst.best_value


def _bl_subspaces(data, kind):
    """Obstruction subspaces of a certified tuple, or J random or coordinate
    subspaces of a small ambient space.  Four random subspaces can span an
    infinite lattice (four lines in R^3 do), so random draws stop at J = 3."""
    from grasskit.grassmann import random_subspace
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    if kind == "tuple":
        shape = data.draw(st.sampled_from([(0, 1, 1, 2), (0, 1, 2, 3), (1, 2, 2, 4),
                                           (0, 1, 3, 4), (0, 2, 3, 4)]))
        params = kk.FamilyParams(*shape, 1.0)
        tup = kk.random_transverse_tuple(params, rng_for(seed))
        return kk.tuple_obstruction_subspaces(tup, params)
    ambient = data.draw(st.integers(2, 6))
    if kind == "random":
        g = rng_for(seed)
        return [random_subspace(g, ambient, data.draw(st.integers(0, ambient)))
                for _ in range(data.draw(st.integers(1, 3)))]
    return [Subspace.spanned_by_axes(ambient, data.draw(
        st.sets(st.integers(0, ambient - 1)).map(sorted)))
        for _ in range(data.draw(st.integers(1, 4)))]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["tuple", "random", "axes"]))
def test_no_coordinate_or_random_subspace_beats_the_lattice(data, kind):
    import itertools
    from grasskit.grassmann import random_subspace
    ws = _bl_subspaces(data, kind)
    p = data.draw(st.floats(1.0, float(len(ws))))
    inst = kk.bl_constant_lower(ws, p)
    ambient = ws[0].ambient_dim
    g = rng_for(data.draw(st.integers(0, 2 ** 32 - 1)))
    others = [Subspace.spanned_by_axes(ambient, axes) for r in range(1, ambient)
              for axes in itertools.combinations(range(ambient), r)]
    others += [random_subspace(g, ambient, r) for r in range(1, ambient) for _ in range(12)]
    assert kk._functional_values(others, inst.subspaces, p).max() <= inst.best_value + 1e-12


def test_verify_bl_bound_cross_check_catches_a_short_lattice(monkeypatch):
    params = kk.FamilyParams(1, 2, 2, 4, 1.0)
    tup = kk.random_transverse_tuple(params, rng_for(67))
    assert kk.verify_bl_bound(tup, params, 1.0, rng_for(68)).ok
    # a lattice missing its top member scores below the random draws
    lattice = kk.kernel_lattice
    monkeypatch.setattr(kk, "kernel_lattice", lambda ws: lattice(ws)[:1])
    with pytest.raises(CertificateError):
        kk.verify_bl_bound(tup, params, 1.0, rng_for(68))
    # without an rng there is no cross-check
    assert kk.verify_bl_bound(tup, params, 1.0).instance.best_value == 0.0


def test_bl_invalid_exponent():
    with pytest.raises(InvalidInputError):
        kk.bl_constant_lower([Subspace.full(2)], 3.5)


def test_verify_bl_bound_p1_equals_k():
    # p=1 ceiling is (l+1)(m-l) = k, attained at U = R^N
    params = kk.FamilyParams(1, 2, 2, 4, 1.0)
    tup = kk.random_transverse_tuple(params, rng_for(67))
    rep = kk.verify_bl_bound(tup, params, 1.0, rng_for(68))
    assert rep.rhs == pytest.approx(params.embedded_plane_dim)
    assert rep.instance.best_value == pytest.approx(params.embedded_plane_dim)
    assert rep.ok


def test_verify_bl_bound_never_fails_up_to_pmax():
    for (l, m, d, n) in [(0, 1, 1, 2), (0, 1, 2, 3), (1, 2, 2, 4)]:
        params = kk.FamilyParams(l, m, d, n, 1.0)
        p_max = kk.admissible_p_max(l, m, d, 1.0)
        for trial in range(5):
            tup = kk.random_transverse_tuple(params, rng_for(69, l, m, d, trial))
            for p in np.linspace(1.0, p_max, 4):
                rep = kk.verify_bl_bound(tup, params, float(p), rng_for(70, trial))
                assert rep.ok, (l, m, d, n, p, rep)


# ---------------------------------------------------------- L^p counting

def vertical_family(params, delta, positions):
    """Vertical lines x = const of the planar chart."""
    offsets = np.zeros((len(positions), 1, 2))
    offsets[:, 0, 0] = positions
    directions = np.broadcast_to(Subspace.spanned_by_axes(2, [1]).basis, (len(positions), 2, 1))
    return kk.PlaneFamily.from_arrays(params, delta, directions, offsets)


def test_lp_norm_single_slab():
    params = kk.FamilyParams(0, 1, 1, 2, 0.0)
    delta = 2.0 ** -5
    fam = vertical_family(params, delta, [0.1])
    measure = dz.SlabNeighborhood(fam, delta).measure().sum()
    for p in (1.0, 1.5, 2.0):
        val = kk.lp_counting_norm(fam, p)
        assert measure ** (1 / p) / 2 <= val <= measure ** (1 / p) * 2


def test_lp_norm_additive_at_p1():
    params = kk.FamilyParams(0, 1, 1, 2, 1.0)
    delta = 2.0 ** -5
    fam = vertical_family(params, delta, [-0.5, 0.5])
    val = kk.lp_counting_norm(fam, 1.0)
    total = dz.SlabNeighborhood(fam, delta).measure().sum()
    rel = 4 * delta * 2
    assert abs(val - total) <= rel * total


def test_lp_norm_tiling_count_one():
    # delta^-1 parallel slabs tiling the chart: count ~ 1 everywhere
    params = kk.FamilyParams(0, 1, 1, 2, 1.0)
    delta = 2.0 ** -5
    positions = np.arange(-1.0 + delta, 1.0, 2 * delta)
    fam = vertical_family(params, delta, positions)
    val = kk.lp_counting_norm(fam, 2.0)
    assert val == pytest.approx(2.0, rel=0.25)  # (2^2)^(1/2)


def test_kakeya_sweep_single_member():
    params = kk.FamilyParams(0, 1, 1, 2, 0.0)
    fams = [kk.generate_sharp_example(params, 2.0 ** -k) for k in (4, 5, 6)]
    rep = kk.verify_kakeya_inequality(fams, 1.0, 0.1)
    assert rep.ok
    assert all(r.ratio <= 1.0 for r in rep.rows)


def test_kakeya_p1_ratio_below_one():
    params = kk.FamilyParams(0, 1, 1, 2, 1.0)
    fams = [kk.generate_sharp_example(params, 2.0 ** -k) for k in (5, 6)]
    rep = kk.verify_kakeya_inequality(fams, 1.0, 0.1)
    assert all(r.ratio <= 1.0 + 1e-9 for r in rep.rows)


def test_verify_bl_bound_rejects_large_beta():
    params = kk.FamilyParams(0, 1, 1, 2, 1.0)
    tup = kk.random_transverse_tuple(params, rng_for(76))
    with pytest.raises(InvalidInputError, match="beta"):
        kk.verify_bl_bound(tup, kk.FamilyParams(0, 1, 1, 2, 2.0), 1.0)


def test_bl_full_space_margin_symbolic():
    # at U = R^N the ceiling minus the functional value is, in exact
    # arithmetic, (p-1) * ((l+1)(n-d) - beta), non-negative on the
    # inequality's hypothesis beta <= l+1 <= (l+1)(n-d)
    from fractions import Fraction
    for (l, m, d, n) in [(0, 1, 1, 2), (0, 1, 2, 3), (1, 2, 2, 4), (1, 2, 3, 5)]:
        for beta in (Fraction(0), Fraction(1, 2), Fraction(l + 1)):
            big_n = (l + 1) * (n - l)
            k = (l + 1) * (m - l)
            for p in (Fraction(1), Fraction(9, 8), Fraction(3, 2)):
                value_full = big_n - p * (big_n - k)
                rhs = (l + 1) * (d - l) + beta - ((l + 1) * (d - m) + beta) * p
                margin = rhs - value_full
                assert margin == (p - 1) * ((l + 1) * (n - d) - beta)
                assert margin >= 0


def test_lp_norm_resource_cap():
    from grasskit.errors import ResourceCapError
    params = kk.FamilyParams(1, 2, 2, 4, 1.0)
    v = random_chart_m_plane(rng_for(78), 1, 2, 4)
    fam = kk.PlaneFamily.from_arrays(params, 2.0 ** -6, v.direction.basis[None], v.offsets[None])
    with pytest.raises(ResourceCapError):
        kk.lp_counting_norm(fam, 2.0)
