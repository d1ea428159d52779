import warnings
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from grasskit import discretize as dz
from grasskit.affine import ChartMPlane, ChartPoint
from grasskit.errors import InvalidInputError, InvalidScaleError, ResourceCapError
from grasskit.grassmann import Subspace
from grasskit.kakeya import FamilyParams, generate_sharp_example
from grasskit.sampling import random_chart_m_plane, rng_for


def vertical_line_plane(x0):
    """Chart m-plane for l=0, m=1, n=2: the vertical line {x = x0}."""
    return ChartMPlane(Subspace.spanned_by_axes(2, [1]), np.array([[x0, 0.0]]))


def tilted_line_plane(angle, shift):
    d = np.array([np.cos(angle), np.sin(angle)])
    normal = np.array([-np.sin(angle), np.cos(angle)])
    return ChartMPlane(Subspace.from_vectors([d]), (shift * normal).reshape(1, 2))


# ------------------------------------------------------------------ nets

def test_net_invalid_scale():
    with pytest.raises(InvalidScaleError):
        dz.build_direction_net(1, 2, 0.0)
    with pytest.raises(InvalidScaleError):
        dz.build_direction_net(1, 2, 1.5)


def test_direction_net_circle():
    net = dz.build_direction_net(1, 2, 2.0 ** -3)
    assert len(net) == int(np.floor(np.pi / 2.0 ** -3))
    d01 = np.arccos(abs(float(net[0][:, 0] @ net[1][:, 0])))
    assert d01 >= 2.0 ** -3 - 1e-9


# ----------------------------------------------------------------- slabs

def test_slab_membership_core_and_displaced():
    v = tilted_line_plane(0.4, 0.1)
    delta = 1.0 / 16
    slab = dz.SlabNeighborhood(v, delta)
    on_core = ChartPoint((v.offsets[0] + 0.3 * v.direction.basis[:, 0]).reshape(1, 2))
    assert slab.contains(on_core)
    off = ChartPoint((v.offsets[0] + 2 * delta * v.normal_frame()[:, 0]).reshape(1, 2))
    assert not slab.contains(off)


def test_slab_membership_agrees_with_metric_distance():
    # brute force: distance from the point to a fine sample of the core
    g = rng_for(52)
    v = tilted_line_plane(0.35, 0.05)
    delta = 1.0 / 8
    slab = dz.SlabNeighborhood(v, delta)
    ts = np.linspace(-2.0, 2.0, 3001)
    core = v.offsets[0] + np.outer(ts, v.direction.basis[:, 0])
    core = core[np.max(np.abs(core), axis=1) <= 1.0]
    for _ in range(200):
        p = g.uniform(-1.0, 1.0, size=2)
        brute = float(np.min(np.linalg.norm(core - p, axis=1)))
        member = slab.contains(p.reshape(1, 2))
        if member:
            assert brute <= delta * 1.5 + 1e-6
        elif brute > delta * 1.5:
            assert not member


def test_slab_measure_degenerate_full_box():
    # m = n: the neighborhood is the whole box
    v = ChartMPlane(Subspace.full(2), np.zeros((1, 2)))
    slab = dz.SlabNeighborhood(v, 0.25)
    assert slab.measure() == pytest.approx(4.0)


def test_slab_measure_axis_aligned_area():
    # oracle: direct area of the clipped band, 2 x (2 delta) = 1 at delta=1/4
    slab = dz.SlabNeighborhood(vertical_line_plane(0.0), 0.25)
    assert slab.measure() == pytest.approx(2.0 * 0.5)


def test_slab_measure_tilted_interior_band():
    # oracle: an interior diagonal band of half-width delta across the box
    # has area 2*sqrt(2)*2*delta minus the two corner triangles
    delta = 1.0 / 16
    slab = dz.SlabNeighborhood(tilted_line_plane(np.pi / 4, 0.0), delta)
    # square area minus the two triangles cut off by the lines y = x +- c
    c = np.sqrt(2) * delta
    assert slab.measure() == pytest.approx(4.0 - (2.0 - c) ** 2, rel=1e-9)


def test_slab_measure_scaling():
    v = tilted_line_plane(0.3, 0.05)
    m1 = dz.SlabNeighborhood(v, 1.0 / 64).measure()
    m2 = dz.SlabNeighborhood(v, 1.0 / 32).measure()
    assert m2 == pytest.approx(2.0 * m1, rel=1e-6)


def exact_polytope_volume(a, b):
    """Reference: Lasserre's facet recursion in rationals, over the exact
    values of the float constraints {x : a x <= b}."""
    return _lasserre([[Fraction(float(x)) for x in row] for row in a],
                     [Fraction(float(x)) for x in b])


def _lasserre(a, b):
    q = len(a[0])
    if q == 1:
        lo = max((bi / ai for (ai,), bi in zip(a, b) if ai < 0), default=None)
        hi = min((bi / ai for (ai,), bi in zip(a, b) if ai > 0), default=None)
        if any(ai == 0 and bi < 0 for (ai,), bi in zip(a, b)):
            return Fraction(0)
        return max(hi - lo, Fraction(0))
    total = Fraction(0)
    for i, (ai, bi) in enumerate(zip(a, b)):
        t = max(range(q), key=lambda s: abs(ai[s]))
        sub_a, sub_b = [], []
        for j, (aj, bj) in enumerate(zip(a, b)):
            if j == i:
                continue
            ratio = aj[t] / ai[t]
            row = [aj[s] - ratio * ai[s] for s in range(q) if s != t]
            rhs = bj - ratio * bi
            if any(row):
                sub_a.append(row)
                sub_b.append(rhs)
            elif rhs < 0 or (rhs == 0 and ratio > 0 and j < i):
                break  # the facet is empty, or counted at row j
        else:
            total += bi / abs(ai[t]) * _lasserre(sub_a, sub_b) / q
    return total


def exact_slab_measure(directions, offsets, delta):
    """Product over the slices of the exact volumes of box x band."""
    q, r = directions.shape
    normal = np.linalg.qr(np.hstack([directions, np.eye(q)]))[0][:, r:]
    out = Fraction(1)
    for o in offsets:
        shift = normal.T @ o
        a = np.vstack([np.eye(q), -np.eye(q), normal.T, -normal.T])
        b = np.concatenate([np.ones(2 * q), shift + delta, delta - shift])
        out *= exact_polytope_volume(a, b)
    return out


def _family_members(shape, k, step):
    fam = generate_sharp_example(FamilyParams(*shape, 1.0), 2.0 ** -k)
    return fam.directions[::step], fam.offsets[::step], fam.scale


r2 = np.sqrt(0.5)
EXACT_MEASURE_CASES = {
    "0123": lambda: _family_members((0, 1, 2, 3), 4, 17),
    "1123": lambda: _family_members((1, 1, 2, 3), 4, 41),
    "0223": lambda: _family_members((0, 2, 2, 3), 4, 1),
    # the band [0.5, 1] x [-1, 1]: its upper edge is the box face x = 1
    "edge-on-face": lambda: (np.array([[[0.0], [1.0]]]), np.array([[[0.75, 0.0]]]), 0.25),
    "edge-on-face-3d": lambda: (np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]]),
                                np.array([[[-0.75, 0.0, 0.0]]]), 0.25),
    # the band x + y >= sqrt(2) meets the box only at the corner (1, 1)
    "corner": lambda: (np.array([[[r2], [-r2]]]), np.array([[[1 + r2 / 4, 1 + r2 / 4]]]), 0.25),
    "outside": lambda: (np.array([[[0.0], [1.0]]]), np.array([[[1.5, 0.0]]]), 0.25),
    "full-box": lambda: (np.eye(2)[None], np.zeros((1, 1, 2)), 0.25),
}


@pytest.mark.parametrize("case", EXACT_MEASURE_CASES)
def test_slab_measure_matches_exact_rational_volume(case):
    # planes given as bare arrays, so the corner and outside bands can sit
    # beyond the chart box
    directions, offsets, delta = EXACT_MEASURE_CASES[case]()
    got = dz.SlabNeighborhood(SimpleNamespace(directions=directions, offsets=offsets),
                              delta).measure()
    assert got.shape == (len(directions),)
    for value, d, o in zip(got, directions, offsets):
        exact = exact_slab_measure(d, o, delta)
        if exact == 0:
            assert value == 0.0
        else:
            assert abs(Fraction(float(value)) - exact) <= 1e-13 * exact


@pytest.mark.parametrize("shape", [(0, 1, 2, 3), (1, 1, 2, 3), (0, 1, 1, 2)])
def test_slab_batches_do_not_change_results(shape, monkeypatch):
    # the batch sizes bound temporaries only: tiny batches, many loops
    fam = generate_sharp_example(FamilyParams(*shape, 1.0), 2.0 ** -4)
    slab = dz.SlabNeighborhood(fam, fam.scale)
    cells, measure = slab.cells(), slab.measure()
    monkeypatch.setattr(dz, "VERTEX_BATCH", 7)
    monkeypatch.setattr(dz, "RASTER_BATCH", 5)
    assert np.array_equal(slab.cells(), cells)
    assert np.array_equal(slab.measure(), measure)
    empty = dz.SlabNeighborhood(SimpleNamespace(directions=fam.directions[:0],
                                                offsets=fam.offsets[:0]), fam.scale)
    assert empty.cells().shape == (0, cells.shape[1]) and empty.measure().shape == (0,)


SLAB_SHAPES = {
    "tilted": lambda: (tilted_line_plane(0.2, 0.1), 1.0 / 16),
    # a sweep-planar member: a vertical line, normal ±(1, 0)
    "axis-aligned": lambda: (generate_sharp_example(FamilyParams(0, 1, 1, 2, 1.0), 1.0 / 16)
                             .member(5), 1.0 / 16),
    "product-l1": lambda: (random_chart_m_plane(rng_for(8), 1, 2, 3, offset_scale=0.5), 0.25),
    "tube-0123": lambda: (random_chart_m_plane(rng_for(9), 0, 1, 3, offset_scale=0.5), 0.125),
    # a vertical line on a cell center: both band edges run through centers
    "edge-on-centers": lambda: (vertical_line_plane(-1.0 + 4.5 / 8), 1.0 / 8),
}


@pytest.mark.parametrize("shape", SLAB_SHAPES)
def test_slab_cells_match_membership(shape):
    plane, delta = SLAB_SHAPES[shape]()
    slab = dz.SlabNeighborhood(plane, delta)
    cells = slab.cells()
    # rows are distinct and in lexicographic order
    assert np.all(np.any(np.diff(cells, axis=0) != 0, axis=1))
    assert np.array_equal(cells, cells[np.lexsort(cells.T[::-1])])
    # exhaustive oracle: the grid centers of the chart that lie in the slab
    dim = plane.offsets.size
    axis = np.arange(dz.cells_per_axis(delta))
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    all_cells = np.column_stack([m.ravel() for m in mesh])
    all_centers = -1.0 + (all_cells + 0.5) * delta
    expected = {tuple(c) for c, x in zip(all_cells, all_centers) if slab.contains(x)}
    assert expected and {tuple(c) for c in cells} == expected
    if shape == "edge-on-centers":
        assert sorted({c[0] for c in expected}) == [3, 4, 5]


def unfiltered_polytope_vertices(a, b):
    """polytope_vertices without the subset filter: every q-subset of rows,
    in the order of itertools.combinations."""
    sub = np.array(list(combinations(range(a.shape[1]), a.shape[2])))
    sub_a, sub_b = a[:, sub], b[:, sub]
    regular = np.abs(np.linalg.det(sub_a)) >= 1e-12
    x = np.zeros(sub_b.shape)
    x[regular] = np.linalg.solve(sub_a[regular], sub_b[regular][..., None])[..., 0]
    slack = b[:, None] - np.matmul(x, np.swapaxes(a, 1, 2))
    ok = regular & np.all(slack >= -dz.VERTEX_TOL, axis=2)
    first = np.argsort(~ok, axis=1, kind="stable")
    width = int(ok.sum(1).max(initial=0))
    return (np.take_along_axis(x, first[..., None], axis=1)[:, :width],
            np.take_along_axis(ok, first, axis=1)[:, :width])


@pytest.mark.parametrize("shape", [(0, 1, 1, 2), (0, 1, 2, 3), (1, 1, 2, 3), (0, 2, 2, 3),
                                   (0, 1, 3, 4)])
def test_vertex_subset_filter_matches_unfiltered_enumeration(shape):
    l, m, d, n = shape
    rng = rng_for(31)
    planes = [random_chart_m_plane(rng, l, m, n, offset_scale=0.5) for _ in range(6)]
    stacks = [SimpleNamespace(directions=np.stack([v.direction.basis for v in planes]),
                              offsets=np.stack([v.offsets for v in planes]))]
    if d == m:  # an axis-aligned sharp family: band rows repeat box rows
        stacks.append(generate_sharp_example(FamilyParams(*shape, 1.0), 2.0 ** -3))
    for stack in stacks:
        a, b, verts, valid = dz.SlabNeighborhood(stack, 0.125).polytopes
        ref_verts, ref_valid = unfiltered_polytope_vertices(a, b)
        assert valid.any(axis=1).all()
        assert np.array_equal(valid, ref_valid) and verts.shape == ref_verts.shape
        assert verts[valid].tobytes() == ref_verts[ref_valid].tobytes()


def test_slab_enumerates_vertices_once(monkeypatch):
    calls = []

    def spy(a, b):
        calls.append(a.shape)
        return enumerate_vertices(a, b)

    enumerate_vertices = dz.polytope_vertices
    monkeypatch.setattr(dz, "polytope_vertices", spy)
    fam = generate_sharp_example(FamilyParams(1, 1, 2, 3, 1.0), 2.0 ** -3)
    slab = dz.SlabNeighborhood(fam, fam.scale)
    slab.measure(), slab.cells(), slab.measure(), slab.cells()
    assert calls == [(2 * len(fam), 8, 2)]


# ------------------------------------------------------------ box counts

def test_box_count_single_point():
    deltas = [2.0 ** -k for k in range(2, 8)]
    counts = [dz.box_count(np.array([[0.123, -0.4]]), d) for d in deltas]
    assert all(c == 1 for c in counts)
    fit = dz.box_dimension_fit(deltas, counts)
    assert abs(fit.slope) <= 1e-9


def test_box_count_segment_slope_one():
    deltas = [2.0 ** -k for k in range(4, 11)]
    counts = []
    for d in deltas:
        ts = np.arange(-1.0, 1.0 + d / 4, d / 4)
        pts = np.column_stack([ts, np.zeros_like(ts)])
        counts.append(dz.box_count(pts, d))
    fit = dz.box_dimension_fit(deltas, counts)
    assert abs(fit.slope - 1.0) <= 0.05


def test_box_fit_product_set_additivity():
    # slope of X x Y is slope(X) + slope(Y) for self-similar test sets
    deltas = [2.0 ** -k for k in range(3, 8)]
    c_seg, c_sq = [], []
    for d in deltas:
        ts = np.arange(-1.0, 1.0 + d / 4, d / 4)
        seg = np.column_stack([ts, np.zeros_like(ts)])
        xx, yy = np.meshgrid(ts, ts)
        sq = np.column_stack([xx.ravel(), yy.ravel()])
        c_seg.append(dz.box_count(seg, d))
        c_sq.append(dz.box_count(sq, d))
    s1 = dz.box_dimension_fit(deltas, c_seg).slope
    s2 = dz.box_dimension_fit(deltas, c_sq).slope
    assert abs(s2 - 2 * s1) <= 0.1


# ------------------------------------------------- cell keys (oracles)

def tuple_set_count(points, delta):
    return len(set(map(tuple, dz.cell_indices(points, delta))))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), dim=st.integers(1, 6), k=st.integers(0, 10))
def test_box_count_matches_tuple_set(data, dim, k):
    # points beyond the box exercise the clipping of the outer cells
    pts = data.draw(hnp.arrays(float, st.tuples(st.integers(0, 200), st.just(dim)),
                               elements=st.floats(-1.5, 1.5)))
    delta = 2.0 ** -k
    assert dz.box_count(pts, delta) == tuple_set_count(pts, delta)


@pytest.mark.parametrize("key_batch", [dz.KEY_BATCH, 4096])
def test_box_count_mask_and_sort_branches_match_tuple_set(key_batch, monkeypatch):
    # 20,000 points: a key range below 8 keys per point is counted on an
    # occupancy mask, a wider one by sorting the keys; both are reached,
    # and the key batches bound temporaries only
    monkeypatch.setattr(dz, "KEY_BATCH", key_batch)
    branches = set()
    for dim in (1, 2, 3):
        pts = rng_for(7, dim).uniform(-1.3, 1.3, size=(20000, dim))  # some outside
        pts[:500] = pts[500:1000]  # duplicates
        pts[1000:1002] = [[-1.0] * dim, [1.0] * dim]
        for k in (0, 2, 4, 6, 8):
            delta = 2.0 ** -k
            branches.add(dz.cells_per_axis(delta) ** dim < 8 * len(pts))
            # the keys read the points' columns: a Fortran-ordered copy and
            # a column-reversed view are read in place
            for view in (pts, np.asfortranarray(pts), pts[:, ::-1]):
                assert dz.box_count(view, delta) == tuple_set_count(view, delta)
    assert branches == {True, False}


def test_box_count_onto_one_mask_counts_each_cell_once():
    # blocks boxed onto one occupancy mask count only the cells that the
    # blocks before them left unmarked
    pts = rng_for(8).uniform(-1.3, 1.3, size=(6000, 2))
    pts[3000:3500] = pts[:500]  # cells shared across blocks
    delta = 2.0 ** -5
    seen = dz.occupancy_mask(2, delta, len(pts))
    counts = [dz.box_count(block, delta, seen) for block in np.array_split(pts, 7)]
    assert sum(counts) == dz.box_count(pts, delta) == tuple_set_count(pts, delta)
    assert dz.box_count(pts[:100], delta, seen) == dz.box_count(np.zeros((0, 2)), delta, seen) == 0
    # the mask is made only while it is smaller than the keys of the rows
    assert dz.occupancy_mask(2, delta, 513).shape == (4096,)
    assert dz.occupancy_mask(2, delta, 512) is None


@pytest.mark.parametrize("dim", [1, 2, 3, 6])
def test_column_wise_kernels_match_the_array_expressions(dim):
    # cell_indices works column by column; the whole-array expression it
    # replaced is the reference, bit for bit
    pts = rng_for(6, dim).uniform(-1.3, 1.3, size=(5000, dim))
    pts[::7] = 1.0
    for delta in (1.0, 0.3, 2.0 ** -5, 2.0 ** -10):
        old = np.clip(np.floor((pts + 1.0) / delta).astype(np.int64), 0,
                      dz.cells_per_axis(delta) - 1)
        assert np.array_equal(dz.cell_indices(pts, delta), old)


def test_coordinates_beyond_the_box_clamp_and_nan_is_rejected():
    # any value beyond the box, +-inf and values past int64 included, lies
    # in the edge cell, with no cast warning; NaN lies in no cell, and
    # every box_count path rejects it before it marks a caller's mask
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = [[np.inf], [3e18], [2e18], [1e300], [-np.inf], [-3e18], [-1.5]]
        assert dz.cell_indices(far, 0.25).ravel().tolist() == [7, 7, 7, 7, 0, 0, 0]
        assert dz.box_count([[np.inf], [-1.0]], 0.25) == 2
        assert dz.box_count([[np.inf, -np.inf], [9.0, -9.0], [1.0, -1.0]], 0.5) == 1
        with pytest.raises(InvalidInputError):
            dz.cell_indices([[0.0, np.nan]], 0.5)
        few = np.array([[0.0, np.nan]])
        many = np.zeros((100, 2))
        many[37, 1] = np.nan
        wide = np.zeros((10, 6))
        wide[3, 5] = np.nan
        delta = 2.0 ** -10
        assert dz.occupancy_mask(2, 0.25, len(few)) is None  # sorted keys
        assert dz.occupancy_mask(2, 0.25, len(many)) is not None  # mask
        assert dz.cells_per_axis(delta) ** 6 > dz.KEY_MAX  # lexsort
        for pts, scale in [(few, 0.25), (many, 0.25), (wide, delta)]:
            with pytest.raises(InvalidInputError):
                dz.box_count(pts, scale)
        seen = dz.occupancy_mask(2, 0.25, len(many))
        with pytest.raises(InvalidInputError):
            dz.box_count(many, 0.25, seen)
        assert not seen.any()


def test_box_count_key_overflow_uses_lexsort(monkeypatch):
    # 2048 cells per axis in 6 dimensions: the span product is 2^66
    delta = 2.0 ** -10
    pts = rng_for(5).uniform(-1.0, 1.0, size=(3000, 6))
    pts[:2] = [[-1.0] * 6, [1.0] * 6]
    pts[2:40] = pts[40:78]  # duplicates
    calls = []

    def spy(idx):
        calls.append(idx.shape)
        return lexsort_count(idx)

    lexsort_count = dz._lexsort_distinct_rows
    monkeypatch.setattr(dz, "_lexsort_distinct_rows", spy)
    assert dz.box_count(pts, delta) == tuple_set_count(pts, delta) == 2962
    assert calls == [(3000, 6)]


@settings(max_examples=30, deadline=None)
@given(shape=st.sampled_from([(0, 1, 2), (0, 1, 3), (1, 2, 3), (0, 2, 3)]),
       k=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       members=st.integers(0, 4))
def test_slab_box_count_matches_set_union(shape, k, seed, members):
    l, m, n = shape
    delta = 2.0 ** -k
    rng = rng_for(seed)
    slabs = [dz.SlabNeighborhood(random_chart_m_plane(rng, l, m, n), delta)
             for _ in range(members)]
    dim = (l + 1) * (n - l)
    cells = np.concatenate([np.zeros((0, dim), dtype=np.int64)] + [s.cells() for s in slabs])
    counter = dz.GridCounter(delta, dim)
    counter.add_cells(cells)
    assert counter.occupied == len(set(map(tuple, cells)))


def dict_counter(batches):
    ref: dict = {}
    for cells, weight in batches:
        for row in map(tuple, cells):
            ref[row] = ref.get(row, 0) + weight
    return ref


@st.composite
def counter_batches(draw, dim, k):
    radix = dz.cells_per_axis(2.0 ** -k)
    cells = hnp.arrays(np.int64, st.tuples(st.integers(0, 30), st.just(dim)),
                       elements=st.integers(0, radix - 1))
    return draw(st.lists(st.tuples(cells, st.integers(1, 4)), max_size=8))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), k=st.integers(0, 5))
def test_grid_counter_matches_dict_reference(data, dim, k):
    delta = 2.0 ** -k
    batches = data.draw(counter_batches(dim, k))
    counter = dz.GridCounter(delta, dim)
    for cells, weight in batches:
        counter.add_cells(np.repeat(cells, weight, axis=0))
    ref = dict_counter(batches)
    assert counter.occupied == len(ref)
    cells = np.unravel_index(counter.keys, (counter.radix,) * dim)
    assert list(zip(*map(list, cells), counter.counts.tolist())) == \
        [(*key, ref[key]) for key in sorted(ref)]
    for p in (1.0, 1.5, 2.0):
        assert counter.lp_power_sum(p) == pytest.approx(
            float(sum(v ** p for v in ref.values())), rel=1e-12)


def test_grid_counter_rejects_off_grid_cells_and_overflowing_grids():
    counter = dz.GridCounter(0.5, 2)
    with pytest.raises(InvalidInputError):
        counter.add_cells(np.array([[0, 4]]))
    with pytest.raises(InvalidInputError):
        counter.add_cells(np.array([[0, 1, 2]]))
    with pytest.raises(ResourceCapError):
        dz.GridCounter(2.0 ** -10, 6)


# --------------------------------------------------------------- spacing

def test_spacing_single_member():
    rep = dz.spacing_report(np.array([[0.3, 0.4]]), 0.125, 0.0)
    assert rep.ok


def test_spacing_cluster_fails():
    # delta^-s points inside one delta-ball violate the bound at r = delta
    delta = 0.125
    pts = np.array([[0.0, k * 1e-5] for k in range(8)])
    rep = dz.spacing_report(pts, delta, 1.0)
    assert not rep.ok
    assert rep.worst_radius == pytest.approx(delta)
    assert rep.worst_count == 8


def test_spacing_uniform_grid_via_exhaustive_oracle():
    # 1-d grid of pitch 2 delta in a coordinate slice, exponent 1: passes up
    # to the dyadic-rounding constant (closed balls pick up the boundary
    # neighbors at r = 2 delta, ratio 3/2)
    delta = 2.0 ** -5
    xs = np.arange(-1.0, 1.0, 2 * delta)
    pts = np.column_stack([xs, np.zeros_like(xs)])
    rep = dz.spacing_report(pts, delta, 1.0)
    # brute-force oracle over all member-centered dyadic balls
    worst = 0.0
    for r in dz.dyadic_radii(delta):
        for x in pts:
            cnt = int(np.sum(np.linalg.norm(pts - x, axis=1) <= r + 1e-12))
            worst = max(worst, cnt / (r / delta) ** 1.0)
    assert rep.worst_ratio == pytest.approx(worst)
    assert worst <= 2.0


def test_spacing_spread_grid_passes_exactly():
    # pitch 4 delta leaves room for the closed-ball boundary: constant 1
    delta = 2.0 ** -6
    xs = np.arange(-1.0, 1.0, 4 * delta)
    pts = np.column_stack([xs, np.zeros_like(xs)])
    assert dz.check_spacing(pts, delta, 1.0)


# -------------------------------------------------------------- partition

def spaced_line(delta, count, start=-0.9):
    xs = start + 4 * delta * np.arange(count)
    return np.column_stack([xs, np.zeros_like(xs)])


def test_partition_identity_when_compliant():
    delta = 2.0 ** -6
    pts = spaced_line(delta, 20)
    parts = dz.partition_spacing(pts, delta, 1.0, 1.0)
    assert len(parts) == 1
    assert len(parts[0]) == 20


def test_partition_translated_copies():
    # M near-coincident translates of a compliant set peel into exactly M parts
    delta = 2.0 ** -6
    for m in (2, 4):
        base = spaced_line(delta, 12)
        stacked = np.vstack([base + np.array([0.0, k * delta * 0.2]) for k in range(m)])
        parts = dz.partition_spacing(stacked, delta, 1.0, float(m))
        assert len(parts) == m
        union = np.sort(np.concatenate(parts))
        assert np.array_equal(union, np.arange(stacked.shape[0]))
        for part in parts:
            assert dz.check_spacing(stacked[part], delta, 1.0)


def test_partition_rejects_precondition_violation():
    delta = 2.0 ** -6
    pts = np.array([[0.0, k * 1e-6] for k in range(40)])
    with pytest.raises(InvalidInputError):
        dz.partition_spacing(pts, delta, 1.0, 2.0)
