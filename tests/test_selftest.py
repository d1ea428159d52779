"""The batched invariant suites: the geodesic and projection suites'
Gaussian block is the stream of the per-sample draws, the embedding and
chart suites draw blocks that redraw their rejects after the block, and the
results at fixed seeds and sizes are pinned."""

import numpy as np
import pytest

from grasskit import selftest
from grasskit.affine import (ChartMPlane, ChartPoint, chart_offsets, embed_tilde_stack,
                             incidences, off_directions, point_distances)
from grasskit.errors import InvalidInputError
from grasskit.grassmann import random_subspace, random_subspaces, same_stack
from grasskit.linalg import orthonormal_completion, orthonormalize_stack, project_columns
from grasskit.sampling import (random_chart_m_plane, random_chart_m_planes, random_point_on,
                               random_points_on, rng_for)


def test_geodesic_block_is_the_sequence_of_per_sample_draws():
    block = rng_for(5, 1).standard_normal((40, selftest.GEODESIC_WIDTH))
    g = rng_for(5, 1)
    sequential = [np.concatenate([g.standard_normal(shape).ravel()
                                  for shape in selftest.GEODESIC_DRAWS])
                  for _ in range(40)]
    assert np.array_equal(block, np.array(sequential))


def test_projection_block_is_the_sequence_of_per_sample_draws():
    contenders = 7
    block = rng_for(5, 2).standard_normal((30, 9 + 2 * contenders))
    g = rng_for(5, 2)
    sequential = [np.concatenate([g.standard_normal((3, 1)).ravel(),
                                  g.standard_normal((3, 2)).ravel()]
                                 + [g.standard_normal(2) for _ in range(contenders)])
                  for _ in range(30)]
    assert np.array_equal(block, np.array(sequential))


# (seed, geodesic samples, projection samples, contenders, chart samples):
# the benchmark's suite_scale 0.5 at seed 0 and acceptance sizes at seed 1
PINS = [
    ((0, 500, 250, 100, 250),
     0.014953868477985077, 6.0923994738004694e-09, 0.6397435039895407, 1.4200652742694306),
    ((1, 1000, 500, 200, 500),
     0.05133074005571481, 1.0230261082710967e-11, 0.6331581801750545, 1.4174477840536839),
]


@pytest.mark.parametrize("sizes, triangle, minimality, ratio_low, ratio_high", PINS)
def test_suite_values_are_pinned(sizes, triangle, minimality, ratio_low, ratio_high):
    seed, geo, proj, contenders, chart = sizes
    res = selftest.geodesic_suite(seed, geo)
    assert res.passed and res.min_triangle_slack == pytest.approx(triangle, abs=1e-12)
    assert max(res.max_symmetry_error, res.max_scaling_error,
               res.max_containment_residual) <= 1e-13
    res = selftest.projection_suite(seed, proj, contenders)
    assert res.passed and res.min_minimality_slack == pytest.approx(minimality, abs=1e-12)
    assert res.max_containment_residual <= 1e-13
    res = selftest.chart_suite(seed, chart)
    assert (res.ratio_low, res.ratio_high) == (ratio_low, ratio_high)


class _Degenerate:
    """A generator whose first block holds rank-deficient draws (the two
    columns of ``cols`` made equal in row 1) and a zero contender (row 2);
    later draws come from the real stream."""

    def __init__(self, g, cols):
        self.g, self.cols, self.calls = g, cols, 0

    def standard_normal(self, size):
        out = self.g.standard_normal(size)
        if self.calls == 0:
            first, second = self.cols
            out[1, second] = out[1, first]
            out[2, 9:11] = 0.0
        self.calls += 1
        return out


@pytest.mark.parametrize("suite, cols", [
    (selftest.geodesic_suite, (slice(0, 8, 2), slice(1, 8, 2))),
    (lambda seed, n: selftest.projection_suite(seed, n, 5), (slice(3, 9, 2), slice(4, 9, 2))),
])
def test_degenerate_draws_are_redrawn_not_used(monkeypatch, suite, cols):
    made = []

    def degenerate(*key):
        made.append(_Degenerate(rng_for(*key), cols))
        return made[-1]

    monkeypatch.setattr(selftest, "rng_for", degenerate)
    res = suite(3, 12)
    assert made[0].calls >= 2
    assert res.passed
    assert all(np.isfinite(v) for v in res.to_dict().values() if not isinstance(v, bool))


@pytest.mark.parametrize("call", [
    lambda: selftest.chart_suite(0, 0),
    lambda: selftest.chart_suite(0, 1),
    lambda: selftest.embedding_suite(0, 0),
    lambda: selftest.projection_suite(0, 5, contenders=0),
    lambda: selftest.geodesic_suite(0, 0),
    lambda: selftest.projection_suite(0, 0),
], ids=["chart-0", "chart-1", "embedding-0", "projection-no-contenders", "geodesic-0",
        "projection-0"])
def test_suites_reject_sizes_they_cannot_measure(call):
    with pytest.raises(InvalidInputError):
        call()


def _hexed(record: dict) -> dict:
    return {k: v.hex() if isinstance(v, float) else v
            for k, v in record.items() if k != "runtime"}


# every record field but the runtime, floats as hex: the PINS sizes, with the
# embedding suite at suite_scale 0.5 (seed 0) and at acceptance size (seed 1)
FIELD_PINS = [
    ("geodesic", (0, 500), {
        "samples": 500, "max_symmetry_error": "0x1.0000000000000p-51",
        "min_triangle_slack": "0x1.ea022407e3900p-7",
        "max_scaling_error": "0x1.0000000000000p-51",
        "max_containment_residual": "0x0.0p+0", "passed": True}),
    ("projection", (0, 250, 100), {
        "samples": 250, "contenders": 100, "max_containment_residual": "0x1.8000000000000p-52",
        "min_minimality_slack": "0x1.a2aaa00000000p-28", "passed": True}),
    ("embedding", (0, 500), {
        "samples": 500, "incidence_disagreements": 0, "parallelism_disagreements": 0,
        "incident_pairs": 250, "passed": True}),
    ("chart", (0, 250), {
        "samples": 250, "max_point_roundtrip": "0x1.0000000000000p-51",
        "max_projective_roundtrip": "0x1.77ea35d632e43p-54",
        "ratio_low": "0x1.478c75e6ed52ep-1", "ratio_high": "0x1.6b8965d72c275p+0",
        "ratio_prefix_low": "0x1.478c75e6ed52ep-1",
        "ratio_prefix_high": "0x1.697f020467aefp+0", "passed": True}),
    ("geodesic", (1, 1000), {
        "samples": 1000, "max_symmetry_error": "0x1.0000000000000p-51",
        "min_triangle_slack": "0x1.a4805d3a33640p-5",
        "max_scaling_error": "0x1.0000000000000p-51",
        "max_containment_residual": "0x0.0p+0", "passed": True}),
    ("projection", (1, 500, 200), {
        "samples": 500, "contenders": 200, "max_containment_residual": "0x1.8000000000000p-52",
        "min_minimality_slack": "0x1.67f2000000000p-37", "passed": True}),
    ("embedding", (1, 1000), {
        "samples": 1000, "incidence_disagreements": 0, "parallelism_disagreements": 0,
        "incident_pairs": 500, "passed": True}),
    ("chart", (1, 500), {
        "samples": 500, "max_point_roundtrip": "0x1.c000000000000p-52",
        "max_projective_roundtrip": "0x1.0bbb307acafdbp-53",
        "ratio_low": "0x1.442d4f1a17edap-1", "ratio_high": "0x1.6adddba44c59ap+0",
        "ratio_prefix_low": "0x1.442d4f1a17edap-1",
        "ratio_prefix_high": "0x1.6adddba44c59ap+0", "passed": True}),
]


@pytest.mark.parametrize("suite, args, fields", FIELD_PINS,
                         ids=[f"{s}-{a[0]}-{a[1]}" for s, a, _ in FIELD_PINS])
def test_every_suite_field_is_pinned(suite, args, fields):
    res = getattr(selftest, f"{suite}_suite")(*args)
    assert _hexed(res.to_dict()) == fields


# The object-based draw sequence the object constructors replay, one object
# at a time: the reference for a block of one.

def reference_chart_m_plane(g, l, m, n, offset_scale=0.6, tries=None):
    while True:
        if tries is not None:
            tries.append(1)
        w = random_subspace(g, n - l, m - l)
        raw = g.uniform(-offset_scale, offset_scale, size=(l + 1, n - l))
        o = raw - project_columns(w.basis, raw.T).T
        if np.max(np.abs(o)) <= 1.0:
            return ChartMPlane(w, o)


def reference_point_on(g, plane, spread=0.5, tries=None):
    while True:
        if tries is not None:
            tries.append(1)
        coords = np.zeros((plane.l + 1, plane.slice_dim))
        for j in range(plane.l + 1):
            t = g.uniform(-spread, spread, size=plane.direction.dim)
            coords[j] = plane.offsets[j] + plane.direction.basis @ t
        if np.max(np.abs(coords)) <= 1.0:
            return ChartPoint(coords)


def _state(g):
    return str(getattr(g, "g", g).bit_generator.state)


class _Forced:
    """The real stream, except that row ``row`` of the call numbered ``i``
    among the calls of its kind (from 0) is set to ``value``, for each
    ``(kind, i): (row, value)`` of ``forced``; every call is logged as
    (kind, size)."""

    def __init__(self, g, forced=()):
        self.g, self.forced, self.log = g, dict(forced), []

    def _force(self, kind, size, out):
        index = sum(k == kind for k, _ in self.log)
        self.log.append((kind, size))
        if (kind, index) in self.forced:
            row, value = self.forced[kind, index]
            out[row] = value
        return out

    def standard_normal(self, size):
        return self._force("normal", size, self.g.standard_normal(size))

    def uniform(self, low, high, size):
        return self._force("uniform", size, self.g.uniform(low, high, size=size))


def _ZeroFirst(g):
    """A generator whose first Gaussian block has an all-zero draw in row 3,
    a rank-deficient basis that must be redrawn."""
    return _Forced(g, {("normal", 0): (3, 0.0)})


def _after(key, log):
    """The generator ``rng_for(*key)`` once it has made the calls ``log``."""
    g = rng_for(*key)
    for kind, size in log:
        g.standard_normal(size) if kind == "normal" else g.uniform(size=size)
    return g


# embedding_draws(g, 60, 1, 2, 4)'s blocks when nothing is redrawn: the
# planes v, the even samples' steps, the odd samples' free points, the
# second planes
EMBEDDING_BLOCKS = [("normal", (60, 3, 1)), ("uniform", (60, 2, 3)), ("uniform", (30, 2, 1)),
                    ("uniform", (30, 2, 3)), ("normal", (60, 3, 1)), ("uniform", (60, 2, 3))]
# chart_draws(g, 60)'s blocks: the points, then each line stack's
# directions and offsets
CHART_BLOCKS = [("uniform", (60, 2, 2)), ("normal", (60, 3, 1)), ("uniform", (60, 3)),
                ("normal", (60, 3, 1)), ("uniform", (60, 3))]


@pytest.mark.parametrize("wrap", [_Forced, _ZeroFirst], ids=["stream", "deficient"])
@pytest.mark.parametrize("seed", [0, 7])
def test_embedding_draws_replay_the_object_sequence(seed, wrap):
    # the sequence of generator calls: six blocks when nothing is redrawn,
    # and a deficient direction redrawn right after its block, alone
    g, plain = wrap(rng_for(seed, 3)), _Forced(rng_for(seed, 3))
    v, offsets, points, w, w_offsets = selftest.embedding_draws(g, 60, 1, 2, 4)
    ref = selftest.embedding_draws(plain, 60, 1, 2, 4)
    assert plain.log == EMBEDDING_BLOCKS
    redraw = [("normal", (1, 3, 1))] if wrap is _ZeroFirst else []
    assert g.log == EMBEDDING_BLOCKS[:1] + redraw + EMBEDDING_BLOCKS[1:]
    assert _state(g) == _state(_after((seed, 3), g.log))
    if wrap is _Forced:
        assert all(map(np.array_equal, (v, offsets, points, w, w_offsets), ref))
        return
    others = np.arange(60) != 3
    assert np.array_equal(v[others], ref[0][others])
    x = _after((seed, 3), g.log[:1]).standard_normal((1, 3, 1))
    assert np.array_equal(v[3], orthonormalize_stack(x)[0][0])


@pytest.mark.parametrize("wrap", [_Forced, _ZeroFirst], ids=["stream", "deficient"])
@pytest.mark.parametrize("seed", [0, 7])
def test_chart_draws_replay_the_object_sequence(seed, wrap):
    # as for the embedding draws: five blocks, a deficient direction
    # redrawn right after its block, alone
    g, plain = wrap(rng_for(seed, 4)), _Forced(rng_for(seed, 4))
    points, b1, o1, b2, o2 = selftest.chart_draws(g, 60)
    ref = selftest.chart_draws(plain, 60)
    assert plain.log == CHART_BLOCKS
    # the first Gaussian block is the first lines' directions
    redraw = [("normal", (1, 3, 1))] if wrap is _ZeroFirst else []
    assert g.log == CHART_BLOCKS[:2] + redraw + CHART_BLOCKS[2:]
    assert _state(g) == _state(_after((seed, 4), g.log))
    assert np.array_equal(points, ref[0])
    others = np.arange(60) != 3 if wrap is _ZeroFirst else slice(None)
    assert np.array_equal(b1[others], ref[1][others])
    if wrap is _ZeroFirst:
        x = _after((seed, 4), g.log[:2]).standard_normal((1, 3, 1))
        assert np.array_equal(b1[3], orthonormalize_stack(x)[0][0])
    else:
        assert all(map(np.array_equal, (o1, b2, o2), ref[2:]))


def test_draw_helpers_replay_rejections():
    # offsets near the box edge: both rejection loops run more than once
    g, ref_g = rng_for(11), rng_for(11)
    plane_tries, point_tries = [], []
    for _ in range(40):
        plane = random_chart_m_plane(g, 1, 2, 4, offset_scale=0.95)
        point = random_point_on(g, plane, spread=0.9)
        v = reference_chart_m_plane(ref_g, 1, 2, 4, offset_scale=0.95, tries=plane_tries)
        p = reference_point_on(ref_g, v, spread=0.9, tries=point_tries)
        assert (np.array_equal(plane.direction.basis, v.direction.basis)
                and np.array_equal(plane.offsets, v.offsets))
        assert np.array_equal(point.coords, p.coords)
    assert _state(g) == _state(ref_g)
    assert len(plane_tries) > 40 and len(point_tries) > 40


# At seed 0 nothing is redrawn in the first 60 samples.  Uniform call 0 is
# the planes v's raw offsets, and row 10 is sample 10's; uniform call 1 is the
# even samples' steps, and row 5 is sample 10's point
FORCED_REDRAWS = {
    # raw rows of lengths 8.7 whose Gram matrix has top eigenvalue 100: off
    # any line one projected row keeps length >= 5, an entry >= 5/sqrt(3)
    "plane-leaves-box": {("uniform", 0): (10, [[5.0, 5.0, 5.0], [5.0, -5.0, 5.0]])},
    # a step of 5 along a unit line moves some entry by >= 5/sqrt(3)
    "point-leaves-box": {("uniform", 1): (5, [[5.0], [0.0]])},
    # a raw row of length 1.018 whose projection off any line has entries
    # <= 0.72 (1 + sqrt(2)) / 2 = 0.87: the check on the projection keeps it
    "exact-check-keeps": {("uniform", 0): (10, [[0.72, 0.72, 0.0], [0.0, 0.0, 0.0]])},
    # zero offsets, and a step along sample 10's line that puts the point's
    # largest entry within 1e-12 of the edge: the exact check keeps it
    "exact-check-at-the-edge": {("uniform", 0): (10, 0.0), ("uniform", 1): (5, None)},
}
# the redraw block each case makes right after the forced one
FORCED_AFTER = {"plane-leaves-box": [("normal", (1, 3, 1)), ("uniform", (1, 2, 3))],
                "point-leaves-box": [("uniform", (1, 2, 1))]}


@pytest.mark.parametrize("case", FORCED_REDRAWS)
def test_embedding_draws_replay_forced_redraws(case):
    # the forced draws replay the unforced block in every other sample, and
    # the forced sample is redrawn as a block of one after the whole block
    plain = _Forced(rng_for(0, 3))
    ref = selftest.embedding_draws(plain, 60, 1, 2, 4)
    forced = dict(FORCED_REDRAWS[case])
    if case == "exact-check-at-the-edge":
        forced["uniform", 1] = (5, [[(1.0 - 2.3e-13) / np.max(np.abs(ref[0][10]))], [0.0]])
    g = _Forced(rng_for(0, 3), forced)
    v, offsets, points, w, w_offsets = selftest.embedding_draws(g, 60, 1, 2, 4)
    hit = 1 + max(i for _, i in forced)
    after = FORCED_AFTER.get(case, [])
    assert g.log == EMBEDDING_BLOCKS[:hit + 1] + after + EMBEDDING_BLOCKS[hit + 1:]
    others = np.arange(60) != 10
    assert np.array_equal(v[others], ref[0][others])
    assert np.array_equal(offsets[others], ref[1][others])
    assert np.max(np.abs(offsets)) <= 1.0 and np.max(np.abs(points)) <= 1.0
    if case == "plane-leaves-box":
        again = random_chart_m_planes(_after((0, 3), g.log[:2]), 1, 1, 2, 4)
        assert np.array_equal(v[10:11], again[0]) and np.array_equal(offsets[10:11], again[1])
        return
    assert np.array_equal(v, ref[0])
    kept = np.arange(30) != 5
    assert np.array_equal(points[0::2][kept], ref[2][0::2][kept])
    if case == "point-leaves-box":
        again = random_points_on(_after((0, 3), g.log[:3]), v[10:11], offsets[10:11])
        assert np.array_equal(points[10:11], again)
    if case == "exact-check-keeps":
        assert np.hypot(0.72, 0.72) > 1.0 and np.max(np.abs(offsets[10])) <= 0.87
    if case == "exact-check-at-the-edge":
        assert 1.0 - 1e-12 < np.max(np.abs(points[10])) <= 1.0


@pytest.mark.parametrize("shape", [(1, 2, 4), (1, 3, 5), (0, 2, 4)], ids=["r1", "r2", "r2-l0"])
def test_blocks_return_what_the_box_check_read(shape):
    # offsets and steps near the box edge, so both blocks redraw: every
    # returned offset and point is in the box by the exact check, and every
    # point lies on its plane
    l, m, n = shape
    g = _Forced(rng_for(13, *shape))
    bases, offsets = random_chart_m_planes(g, 200, l, m, n, offset_scale=0.95)
    points = random_points_on(g, bases, offsets, spread=0.9)
    assert len(g.log) > 5
    assert np.max(np.abs(offsets)) <= 1.0 and np.max(np.abs(points)) <= 1.0
    assert np.array_equal(chart_offsets(bases, offsets), off_directions(bases, offsets))
    assert incidences(bases, offsets, points, 1e-12).all()


class _Scaled:
    """A generator whose first Gaussian draw is scaled by ``factor``."""

    def __init__(self, g, factor):
        self.g, self.factor, self.calls = g, factor, 0

    def standard_normal(self, size):
        out = self.g.standard_normal(size) * (self.factor if self.calls == 0 else 1.0)
        self.calls += 1
        return out

    def uniform(self, low, high, size):
        return self.g.uniform(low, high, size=size)


# the Gaussian draw of a plane block of one: a zero draw is redrawn; a line
# draw of entries near 1e-120 is kept by the rank check, as random_subspaces
# keeps it
@pytest.mark.parametrize("factor", [0.0, 1e-120, 1.0])
@pytest.mark.parametrize("dim", [0, 1, 2])
def test_gaussian_draw_replays_random_subspaces(dim, factor):
    g, ref_g = _Scaled(rng_for(12, dim), factor), _Scaled(rng_for(12, dim), factor)
    for _ in range(3):
        # one row of length <= 0.5 sqrt(3) < 1: never redrawn for the box
        bases, _ = random_chart_m_planes(g, 1, 0, dim, 3, offset_scale=0.5)
        assert np.array_equal(bases[0], random_subspaces(ref_g, 1, 3, dim)[0])
        ref_g.uniform(-0.5, 0.5, size=(1, 1, 3))
    assert g.calls == ref_g.calls == 3 + (factor == 0.0 and dim > 0)
    assert _state(g) == _state(ref_g)


@pytest.mark.parametrize("seed", [0, 5])
def test_point_draws_derive_no_plane_alone(seed, monkeypatch):
    # the points are drawn on the plane block's stacks: at the benchmark's
    # suite_scale the suites draw two plane blocks of the full sample count
    # and one point block, and no plane alone
    planes, points = [], []
    draw_planes, draw_points = selftest.random_chart_m_planes, selftest.random_points_on
    monkeypatch.setattr(selftest, "random_chart_m_planes",
                        lambda g, count, *a: planes.append(count) or draw_planes(g, count, *a))
    monkeypatch.setattr(selftest, "random_points_on",
                        lambda g, b, o: points.append(len(b)) or draw_points(g, b, o))
    selftest.run_all(seed, 0.5)
    assert planes == [500, 500] and points == [250]


def _both_sides(plane, coords, tol):
    """Incidence of a chart point and a chart m-plane as the embedding suite
    decides it on the chart side (every section within ``tol``) and on the
    product side (distance to the product embedding within ``tol``)."""
    bases, offsets, coords = plane.direction.basis[None], plane.offsets[None], coords[None]
    big, big_offsets = embed_tilde_stack(bases, offsets)
    tilde = point_distances(big, big_offsets, coords.reshape(1, -1)) <= tol
    return bool(incidences(bases, offsets, coords, tol)[0]), bool(tilde[0])


def _off_plane(plane, moves):
    """A point on ``plane`` moved by moves[j] along a unit section normal in
    section j."""
    on = random_points_on(rng_for(8), plane.direction.basis[None], plane.offsets[None],
                          spread=0.3)[0]
    normal = orthonormal_completion(plane.direction.basis)[:, plane.direction.dim]
    return on + np.asarray(moves)[:, None] * normal


@pytest.mark.parametrize("moves, incident", [
    ((0.1, 0.1), True), ((10.0, 0.0), False), ((0.0, 10.0), False), ((10.0, 10.0), False),
], ids=["both-0.1", "first-10", "second-10", "both-10"])
def test_incidence_tolerance_agrees_with_the_product_embedding(moves, incident):
    tol = 1e-9
    plane = random_chart_m_plane(rng_for(8), 1, 2, 4)
    assert _both_sides(plane, _off_plane(plane, np.multiply(moves, tol)), tol) == (incident,) * 2


def test_incidence_tolerance_band_where_the_sides_disagree():
    # characterization: the chart side takes the largest section distance and
    # the product side their l2 norm, so a point 0.8 tol off both sections is
    # incident on the chart side only; the suite's draws never land in this
    # band (tol / sqrt(l+1), tol]
    tol = 1e-9
    plane = random_chart_m_plane(rng_for(8), 1, 2, 4)
    assert _both_sides(plane, _off_plane(plane, (0.8 * tol, 0.8 * tol)), tol) == (True, False)


@pytest.mark.parametrize("angle, parallel", [(0.5, True), (2.0, False)])
def test_near_parallel_planes_agree_with_the_product_embedding(angle, parallel):
    # the product direction's principal angles are the section angle, repeated
    tol = 1e-9
    plane = random_chart_m_plane(rng_for(9), 1, 2, 4)
    basis = plane.direction.basis
    normal = orthonormal_completion(basis)[:, plane.direction.dim, None]
    turned = np.cos(angle * tol) * basis + np.sin(angle * tol) * normal
    v, w = basis[None], turned[None]
    big_v = embed_tilde_stack(v, plane.offsets[None])[0]
    big_w = embed_tilde_stack(w, plane.offsets[None])[0]
    assert bool(same_stack(v, w, tol)[0]) == bool(same_stack(big_v, big_w, tol)[0]) == parallel


class _Fixed:
    """The real stream, except that every Gaussian draw is ``x``."""

    def __init__(self, g, x):
        self.g, self.x = g, x

    def standard_normal(self, size):
        self.g.standard_normal(size)
        return np.broadcast_to(self.x, size).copy()

    def uniform(self, low, high, size):
        return self.g.uniform(low, high, size=size)


# (l, m, n) of planes with r = m - l >= 2 section dimensions, and x, a
# direction draw whose second column is 1e-6 off the first
NEAR_DEPENDENT = np.array([[1.0, 1.0], [0.5, 0.5 + 1e-6], [0.25, 0.25]])


@pytest.mark.parametrize("shape, x", [((1, 3, 5), None), ((0, 2, 4), None), ((2, 4, 6), None),
                                      ((1, 3, 4), NEAR_DEPENDENT)],
                         ids=["r2", "r2-l0", "r2-l2", "near-dependent"])
def test_point_draws_on_planes_replay_the_reference(shape, x):
    l, m, n = shape
    g, ref_g = rng_for(21, *shape), rng_for(21, *shape)
    if x is not None:
        g, ref_g = _Fixed(g, x), _Fixed(ref_g, x)
    for k in range(40):
        bases, offsets = random_chart_m_planes(g, 1, l, m, n, offset_scale=0.9)
        ref_plane = reference_chart_m_plane(ref_g, l, m, n, offset_scale=0.9)
        assert np.array_equal(ref_plane.direction.basis, bases[0])
        plane = ChartMPlane.view(bases[0], offsets[0])
        # the reference sums each section's basis @ t alone, a matmul order
        # that can differ in the last bit once r >= 2
        point = random_points_on(g, bases, offsets, spread=0.8)[0]
        assert np.max(np.abs(point - reference_point_on(ref_g, plane, spread=0.8).coords)) <= 1e-15
    assert _state(g) == _state(ref_g)
