"""The batched invariant suites: their Gaussian block is the stream of the
per-sample draws, and their results at fixed seeds and sizes are pinned."""

import numpy as np
import pytest

from grasskit import sampling, selftest
from grasskit.affine import (AffinePlane, ChartMPlane, ChartPoint, affine_offsets,
                             embed_tilde_stack, incidences, point_distances)
from grasskit.errors import InvalidInputError
from grasskit.grassmann import random_subspace, random_subspaces, same_stack
from grasskit.linalg import orthonormal_completion, orthonormalize_stack, project_columns
from grasskit.sampling import points_on, random_chart_m_plane, random_point_on, rng_for


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
     0.014953868477985077, 6.0923994738004694e-09, 0.6478763144348221, 1.3925679099939248),
    ((1, 1000, 500, 200, 500),
     0.05133074005571481, 1.0230261082710967e-11, 0.6417071655666756, 1.4066627402809044),
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
        "samples": 500, "max_symmetry_error": "0x1.8000000000000p-51",
        "min_triangle_slack": "0x1.ea022407e3880p-7",
        "max_scaling_error": "0x1.8000000000000p-51",
        "max_containment_residual": "0x0.0p+0", "passed": True}),
    ("projection", (0, 250, 100), {
        "samples": 250, "contenders": 100, "max_containment_residual": "0x1.8000000000000p-52",
        "min_minimality_slack": "0x1.a2aaa00000000p-28", "passed": True}),
    ("embedding", (0, 500), {
        "samples": 500, "incidence_disagreements": 0, "parallelism_disagreements": 0,
        "incident_pairs": 250, "passed": True}),
    ("chart", (0, 250), {
        "samples": 250, "max_point_roundtrip": "0x1.8000000000000p-52",
        "max_projective_roundtrip": "0x1.d64d51e0db1c6p-54",
        "ratio_low": "0x1.4bb671bcb37e6p-1", "ratio_high": "0x1.647f549ee20aep+0",
        "ratio_prefix_low": "0x1.4bb671bcb37e6p-1",
        "ratio_prefix_high": "0x1.647f549ee20aep+0", "passed": True}),
    ("geodesic", (1, 1000), {
        "samples": 1000, "max_symmetry_error": "0x1.8000000000000p-51",
        "min_triangle_slack": "0x1.a4805d3a33620p-5",
        "max_scaling_error": "0x1.0000000000000p-51",
        "max_containment_residual": "0x0.0p+0", "passed": True}),
    ("projection", (1, 500, 200), {
        "samples": 500, "contenders": 200, "max_containment_residual": "0x1.8000000000000p-52",
        "min_minimality_slack": "0x1.67f2000000000p-37", "passed": True}),
    ("embedding", (1, 1000), {
        "samples": 1000, "incidence_disagreements": 0, "parallelism_disagreements": 0,
        "incident_pairs": 500, "passed": True}),
    ("chart", (1, 500), {
        "samples": 500, "max_point_roundtrip": "0x1.0000000000000p-51",
        "max_projective_roundtrip": "0x1.90f5773e410e4p-54",
        "ratio_low": "0x1.488dd7736f7a3p-1", "ratio_high": "0x1.681b0ca2021b2p+0",
        "ratio_prefix_low": "0x1.488dd7736f7a3p-1",
        "ratio_prefix_high": "0x1.681b0ca2021b2p+0", "passed": True}),
]


@pytest.mark.parametrize("suite, args, fields", FIELD_PINS,
                         ids=[f"{s}-{a[0]}-{a[1]}" for s, a, _ in FIELD_PINS])
def test_every_suite_field_is_pinned(suite, args, fields):
    res = getattr(selftest, f"{suite}_suite")(*args)
    assert _hexed(res.to_dict()) == fields


# The object-based draw sequence the embedding and chart suites used to run,
# sample by sample: the reference the array draws must replay.

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


def reference_embedding_loop(g, samples, l=1, m=2, n=4):
    out = []
    for k in range(samples):
        v = reference_chart_m_plane(g, l, m, n)
        p = (reference_point_on(g, v) if k % 2 == 0
             else ChartPoint(g.uniform(-0.9, 0.9, size=(l + 1, n - l))))
        out.append((v, p, reference_chart_m_plane(g, l, m, n)))
    return out


def reference_chart_loop(g, samples):
    return [(ChartPoint(g.uniform(-0.9, 0.9, size=(2, 2))),
             AffinePlane(random_subspace(g, 3, 1), g.uniform(-0.25, 0.25, size=3)),
             AffinePlane(random_subspace(g, 3, 1), g.uniform(-0.25, 0.25, size=3)))
            for _ in range(samples)]


class _ZeroFirst:
    """A generator whose first Gaussian draw is all zeros, a rank-deficient
    basis that must be redrawn; everything else comes from the real stream."""

    def __init__(self, g):
        self.g, self.calls = g, 0

    def standard_normal(self, size):
        out = self.g.standard_normal(size)
        if self.calls == 0:
            out[...] = 0.0
        self.calls += 1
        return out

    def uniform(self, *args, **kwargs):
        return self.g.uniform(*args, **kwargs)


def _state(g):
    return str(getattr(g, "g", g).bit_generator.state)


@pytest.mark.parametrize("wrap", [lambda g: g, _ZeroFirst], ids=["stream", "deficient"])
@pytest.mark.parametrize("seed", [0, 7])
def test_embedding_draws_replay_the_object_sequence(seed, wrap):
    g, ref_g = wrap(rng_for(seed, 3)), wrap(rng_for(seed, 3))
    v, offsets, points, w, w_offsets = selftest.embedding_draws(g, 60, 1, 2, 4)
    ref = reference_embedding_loop(ref_g, 60)
    assert _state(g) == _state(ref_g)
    assert np.array_equal(v, [a.direction.basis for a, _, _ in ref])
    assert np.array_equal(offsets, [a.offsets for a, _, _ in ref])
    assert np.array_equal(points, [p.coords for _, p, _ in ref])
    assert np.array_equal(w, [b.direction.basis for _, _, b in ref])
    assert np.array_equal(w_offsets, [b.offsets for _, _, b in ref])


@pytest.mark.parametrize("wrap", [lambda g: g, _ZeroFirst], ids=["stream", "deficient"])
@pytest.mark.parametrize("seed", [0, 7])
def test_chart_draws_replay_the_object_sequence(seed, wrap):
    g, ref_g = wrap(rng_for(seed, 4)), wrap(rng_for(seed, 4))
    points, b1, o1, b2, o2 = selftest.chart_draws(g, 60)
    ref = reference_chart_loop(ref_g, 60)
    assert _state(g) == _state(ref_g)
    assert np.array_equal(points, [p.coords for p, _, _ in ref])
    for bases, offsets, i in ((b1, o1, 1), (b2, o2, 2)):
        assert np.array_equal(bases, [r[i].direction.basis for r in ref])
        assert np.array_equal(affine_offsets(bases, offsets), [r[i].offset for r in ref])


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


class _Forced:
    """The real stream, except that the uniform calls numbered in ``forced``
    (counting every uniform call from 0) return the given values; every call
    is logged as (kind, size)."""

    def __init__(self, g, forced):
        self.g, self.forced, self.log = g, forced, []

    def standard_normal(self, size):
        self.log.append(("normal", size))
        return self.g.standard_normal(size)

    def uniform(self, low, high, size):
        out = self.g.uniform(low, high, size=size)
        index = sum(kind == "uniform" for kind, _ in self.log)
        self.log.append(("uniform", size))
        if index in self.forced:
            out[...] = self.forced[index]
        return out


# At seed 0 nothing is redrawn in the first 24 samples, so uniform call 35 is
# the first plane's raw offsets of sample 10 (even), and 36 and 37 are the
# steps of its point, one per section.
FORCED_REDRAWS = {
    # raw rows of lengths 8.7 whose Gram matrix has top eigenvalue 100: off
    # any line one projected row keeps length >= 5, an entry >= 5/sqrt(3)
    "plane-leaves-box": ({35: [[5.0, 5.0, 5.0], [5.0, -5.0, 5.0]]}, ("normal", (1, 3, 1))),
    # a step of 5 along a unit line moves some entry by >= 5/sqrt(3)
    "point-leaves-box": ({36: [5.0]}, ("uniform", 1)),
    # a raw row of length 1.018 that the plane's bound cannot settle, whose
    # projection off any line has entries <= 0.72 (1 + sqrt(2)) / 2 = 0.87:
    # the plane's exact check keeps it, and the float estimate of its point
    # settles the point without deriving the plane
    "exact-check-keeps": ({35: [[0.72, 0.72, 0.0], [0.0, 0.0, 0.0]]}, ("uniform", 1)),
    # zero offsets, and a step along sample 10's line (largest entry
    # 0.84168) that puts the point's entry at 1 - 2.3e-13, inside BOX_MARGIN
    # of the edge: only the exact check, on the derived plane, can keep it
    "exact-check-at-the-edge": ({35: 0.0, 36: [1.188101516979372]}, ("uniform", 1)),
}
# the stack-of-one plane derivations each case makes in point_on_draw
EXACT_POINT_CHECKS = {"exact-check-at-the-edge": 1}


@pytest.mark.parametrize("case", FORCED_REDRAWS)
def test_embedding_draws_replay_forced_redraws(case, monkeypatch):
    forced, after = FORCED_REDRAWS[case]
    derived, derive = [], sampling.chart_m_planes
    monkeypatch.setattr(sampling, "chart_m_planes",
                        lambda x, raw: derived.append(len(x)) or derive(x, raw))
    g, ref_g = _Forced(rng_for(0, 3), forced), _Forced(rng_for(0, 3), forced)
    v, offsets, points, w, w_offsets = selftest.embedding_draws(g, 24, 1, 2, 4)
    assert derived == [1] * EXACT_POINT_CHECKS.get(case, 0)
    ref = reference_embedding_loop(ref_g, 24)
    assert g.log == ref_g.log and _state(g) == _state(ref_g)
    # the decision went the forced way: the call after the forced one is the
    # plane's redraw, the point's redraw (after its second step) or the point
    uniform = [i for i, (kind, _) in enumerate(g.log) if kind == "uniform"]
    hit = uniform[min(forced)]
    assert g.log[hit + (2 if case == "point-leaves-box" else 1)] == after
    if case == "exact-check-keeps":
        assert np.hypot(0.72, 0.72) > 1.0 - sampling.BOX_MARGIN
    if case == "exact-check-at-the-edge":
        assert 1.0 - sampling.BOX_MARGIN < np.max(np.abs(points[10])) <= 1.0
    assert np.array_equal(v, [a.direction.basis for a, _, _ in ref])
    assert np.array_equal(offsets, [a.offsets for a, _, _ in ref])
    assert np.array_equal(points, [p.coords for _, p, _ in ref])
    assert np.array_equal(w, [b.direction.basis for _, _, b in ref])
    assert np.array_equal(w_offsets, [b.offsets for _, _, b in ref])


class _Scaled:
    """A generator whose first Gaussian draw is scaled by ``factor``."""

    def __init__(self, g, factor):
        self.g, self.factor, self.calls = g, factor, 0

    def standard_normal(self, size):
        out = self.g.standard_normal(size) * (self.factor if self.calls == 0 else 1.0)
        self.calls += 1
        return out


# a zero draw is redrawn; a line draw of entries near 1e-120, below the
# bound's floor, is kept by the exact rank check, as random_subspaces keeps it
@pytest.mark.parametrize("factor", [0.0, 1e-120, 1.0])
@pytest.mark.parametrize("dim", [0, 1, 2])
def test_gaussian_draw_replays_random_subspaces(dim, factor):
    g, ref_g = _Scaled(rng_for(12, dim), factor), _Scaled(rng_for(12, dim), factor)
    for _ in range(3):
        x = sampling.gaussian_draw(g, 3, dim)
        basis = orthonormalize_stack(x[None])[0][0]
        assert np.array_equal(basis, random_subspaces(ref_g, 1, 3, dim)[0])
    assert g.calls == ref_g.calls == 3 + (factor == 0.0 and dim > 0)
    assert _state(g) == _state(ref_g)


@pytest.mark.parametrize("seed", [0, 5])
def test_point_draws_derive_no_plane_alone(seed, monkeypatch):
    # the float estimate settles every on-plane point draw of the benchmark's
    # suite_scale: no chart m-plane is derived on a stack of one
    alone, derive = [], sampling.chart_m_planes
    monkeypatch.setattr(sampling, "chart_m_planes",
                        lambda x, raw: alone.append(len(x) == 1) or derive(x, raw))
    selftest.run_all(seed, 0.5)
    assert not any(alone)


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
    steps = rng_for(8).uniform(-0.3, 0.3, size=(1, plane.l + 1, plane.direction.dim))
    on = points_on(plane.direction.basis[None], plane.offsets[None], steps)[0]
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


# (l, m, n) of planes with r = m - l >= 2 section dimensions, where the float
# estimate's basis takes Gram-Schmidt, and x, a draw whose second column is
# 1e-6 off the first, below the estimate's RESIDUAL_FLOOR
NEAR_DEPENDENT = np.array([[1.0, 1.0], [0.5, 0.5 + 1e-6], [0.25, 0.25]])


@pytest.mark.parametrize("shape, x", [((1, 3, 5), None), ((0, 2, 4), None), ((2, 4, 6), None),
                                      ((1, 3, 4), NEAR_DEPENDENT)],
                         ids=["r2", "r2-l0", "r2-l2", "near-dependent"])
def test_point_draws_on_planes_replay_the_reference(shape, x, monkeypatch):
    l, m, n = shape
    derived, derive = [], sampling.chart_m_planes
    monkeypatch.setattr(sampling, "chart_m_planes",
                        lambda x, raw: derived.append(len(x)) or derive(x, raw))
    g, ref_g = rng_for(21, *shape), rng_for(21, *shape)
    for k in range(40):
        draws = sampling.chart_m_plane_draw(g, l, m, n, offset_scale=0.9)
        if x is not None:
            draws = (x, draws[1])
        calls = len(derived)
        steps = sampling.point_on_draw(g, *draws, spread=0.8)
        assert len(derived) - calls <= 1
        bases, offsets = derive(draws[0][None], draws[1][None])
        plane = ChartMPlane.view(bases[0], offsets[0])
        if x is None:
            ref_plane = reference_chart_m_plane(ref_g, l, m, n, offset_scale=0.9)
            assert np.array_equal(ref_plane.direction.basis, bases[0])
        else:
            reference_chart_m_plane(ref_g, l, m, n, offset_scale=0.9)
        # the reference sums each section's basis @ t alone, a matmul order
        # that can differ in the last bit once r >= 2
        point = points_on(bases, offsets, steps[None])[0]
        assert np.max(np.abs(point - reference_point_on(ref_g, plane, spread=0.8).coords)) <= 1e-15
    assert _state(g) == _state(ref_g)
    if x is not None:
        # derived up front, once per point, whatever the point's tries
        assert derived == [1] * 40
