import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grasskit import discretize as dz
from grasskit import kakeya as kk
from grasskit import linalg
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

def _min_separation(fam):
    """Least distance between two rows of the family's feature matrix."""
    f = fam.feature_matrix()
    return np.linalg.norm(f[:, None] - f[None], axis=2)[np.triu_indices(len(f), 1)].min()


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
    assert _min_separation(fam) >= delta


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
        assert _min_separation(fam) >= fam.scale - 1e-12


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
    """The per-member loop that union_sample_points replaced, its span
    summed t_k D[:, k] in k order with the offset added last, as the
    sampler sums it."""
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
            basis = v.direction.basis
            span = coeff[:, :1] * basis[:, 0]
            for k in range(1, v.direction.dim):
                span = span + coeff[:, k:k + 1] * basis[:, k]
            pts = span + v.offsets[j][None, :]
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
    ((0, 0, 1, 2, 1.0), (3, 5)),    # r = 0, one slice: the points are the rows
    ((1, 1, 2, 3, 0.0), (3, 5)),    # r = 0: point sections
    ((1, 1, 2, 3, 1.0), (3, 5)),
    ((0, 2, 2, 3, 1.0), (3, 4)),    # r = 2: a two-dimensional tick lattice
    ((1, 2, 3, 4, 0.5), (2, 3)),    # l = 1, r = 1: a product of two slices
    ((0, 3, 3, 4, 2.5), (2,)),      # r = 3: tilted sections, a cubic tick lattice
]


# the default chunk gets a name, not its value, so retuning it keeps the ids
@pytest.mark.parametrize("chunk_rows", [kk.UNION_CHUNK_ROWS, 1000],
                         ids=["default-chunk", "1000"])
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


@pytest.mark.parametrize("l, n", [(0, 2), (1, 3)], ids=["one-slice", "two-slices"])
def test_point_sections_sample_no_negative_zero(l, n):
    # a point section's span is zero, and +0.0 plus a -0.0 offset is +0.0
    offsets = np.full((2, l + 1, n - l), -0.0)
    offsets[1, :, 0] = 0.5
    fam = kk.PlaneFamily.from_arrays(kk.FamilyParams(l, l, l + 1, n, 1.0), 0.25,
                                     np.zeros((2, n - l, 0)), offsets)
    pts = kk.union_sample_points(fam)
    assert np.signbit(fam.offsets).any() and not np.signbit(pts).any()
    assert np.array_equal(pts, reference_union_sample_points(fam.members, fam.scale))


def test_family_members_are_views_of_the_arrays():
    fam = kk.generate_sharp_example(kk.FamilyParams(1, 2, 3, 4, 0.5), 2.0 ** -3)
    for i, v in enumerate(fam.members):
        assert np.shares_memory(v.offsets, fam.offsets)
        assert np.array_equal(v.offsets, fam.offsets[i])
        assert np.array_equal(v.direction.basis, fam.directions[i])
    assert not fam.offsets.flags.writeable and not fam.directions.flags.writeable


def test_family_block_views_the_arrays():
    fam = kk.generate_sharp_example(kk.FamilyParams(1, 2, 3, 4, 0.5), 2.0 ** -3)
    part = fam.block(3, 7)
    assert len(part) == 4 and (part.params, part.scale) == (fam.params, fam.scale)
    for mine, whole in [(part.directions, fam.directions), (part.offsets, fam.offsets)]:
        assert np.shares_memory(mine, whole) and not mine.flags.writeable
        assert np.array_equal(mine, whole[3:7])


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
    cap = kk.UNION_POINT_CAP
    for params, k in [((0, 1, 1, 2, 1.0), 5),
                      ((1, 2, 3, 4, 0.5), 3),    # copies = 2
                      ((1, 1, 2, 3, 1.0), 4),    # r = 0
                      ((0, 2, 2, 3, 1.0), 4)]:   # r = 2
        fam = kk.generate_sharp_example(kk.FamilyParams(*params), 2.0 ** -k)
        monkeypatch.setattr(kk, "UNION_POINT_CAP", cap)
        pts = kk.union_sample_points(fam)
        total = len(pts)
        monkeypatch.setattr(kk, "UNION_POINT_CAP", total - 1)
        with pytest.raises(ResourceCapError):
            kk.union_sample_points(fam)
        # the streamed box count keeps the cap of the whole union
        with pytest.raises(ResourceCapError, match="^union sample exceeds the point cap$"):
            kk.union_box_count(fam)
        monkeypatch.setattr(kk, "UNION_POINT_CAP", total)
        again = kk.union_sample_points(fam)
        # each call fills its own output: no buffer outlives a call
        assert np.array_equal(again, pts) and not np.shares_memory(again, pts)
        assert kk.union_box_count(fam) == dz.box_count(pts, fam.scale)


def box_count_paths(monkeypatch):
    """Record how union_box_count boxes each family: chunk by chunk onto
    an occupancy mask, or the whole sample by sorted keys or, when the key
    range overflows int64, by lexsorted index rows; and the rows each mask
    was sized for."""
    paths, sized = [], []

    def recording(dim, delta, rows):
        seen = dz.occupancy_mask(dim, delta, rows)
        paths.append("mask" if seen is not None else
                     "rows" if dz.cells_per_axis(delta) ** dim > dz.KEY_MAX else "keys")
        sized.append(rows)
        return seen

    monkeypatch.setattr(kk, "occupancy_mask", recording)
    return paths, sized


def r0_family_beyond_int64_keys():
    # (1,1,2,5): point sections in 4 dimensions, so 8-dimensional union
    # points; 256 cells per axis at 2^-7 give a key range of 2^64
    params = kk.FamilyParams(1, 1, 2, 5, 1.0)
    offsets = rng_for(84).uniform(-1.0, 1.0, size=(60, 2, 4))
    offsets[30:40] = offsets[:10]  # shared cells
    return kk.PlaneFamily.from_arrays(params, 2.0 ** -7, np.zeros((60, 4, 0)), offsets)


@pytest.mark.parametrize("chunk_rows", [kk.UNION_CHUNK_ROWS, 1000, 4],
                         ids=["default-chunk", "1000", "4"])
def test_union_box_count_boxes_the_whole_sample(chunk_rows, monkeypatch):
    # a block is one chunk: at 1000 rows per chunk a masked family's chunks
    # hold a few members each, at 4 rows each member is a chunk of its own
    monkeypatch.setattr(kk, "UNION_CHUNK_ROWS", chunk_rows)
    paths, sized = box_count_paths(monkeypatch)
    calls = {"_section_runs": 0, "box_count": 0}
    for name, f in [("_section_runs", kk._section_runs), ("box_count", dz.box_count)]:
        def counted(*args, name=name, f=f):
            calls[name] += 1
            return f(*args)
        monkeypatch.setattr(kk, name, counted)
    families = [kk.generate_sharp_example(kk.FamilyParams(*params), 2.0 ** -k)
                for params, exponents in ARRAY_FAMILY_CASES for k in exponents]
    # a line of 16 rows, then one that keeps no point: at 4 rows per chunk
    # the second member's window holds no row, so it is not boxed
    s2 = math.sqrt(0.5)
    families.append(kk.PlaneFamily.from_arrays(
        kk.FamilyParams(0, 1, 1, 2, 1.0), 0.25, np.array([[[0.0], [1.0]], [[s2], [s2]]]),
        np.array([[[0.3, 0.0]], [[0.999, -0.999]]])))
    families.append(r0_family_beyond_int64_keys())
    for fam in families:
        pts = kk.union_sample_points(fam)
        want = dz.box_count(pts, fam.scale)
        # the chunks that hold rows: members whose first row lies in one
        # window; a member's rows are the product of its section sizes
        rows = kk._section_runs(fam, kk._union_ticks(fam))[1].sum(axis=2).prod(axis=1)
        begins = np.cumsum(rows) - rows
        chunks = len(set((begins[rows > 0] // chunk_rows).tolist()))
        before = dict(calls)
        assert kk.union_box_count(fam) == want
        # the runs are found once, the mask is sized from the kept rows,
        # and each chunk is boxed as one block
        assert calls["_section_runs"] - before["_section_runs"] == 1
        assert sized[-1] == len(pts)
        if paths[-1] == "mask":
            assert calls["box_count"] - before["box_count"] == chunks
    assert len(paths) == len(families) and set(paths) == {"mask", "keys", "rows"}
    assert paths[-1] == "rows"


def test_union_box_count_of_the_empty_family():
    params = kk.FamilyParams(1, 1, 2, 3, 1.0)
    fam = kk.PlaneFamily.from_arrays(params, 0.25, np.zeros((0, 2, 0)), np.zeros((0, 2, 2)))
    assert kk.union_box_count(fam) == 0


def r0_family_over_many_blocks():
    # (0,0,1,2): 60,000 points in the plane, whose 64 x 64 cells at 2^-5 take
    # the mask, 4,000 members a block at 1000 rows per chunk
    offsets = rng_for(85).uniform(-1.0, 1.0, size=(60_000, 1, 2))
    return kk.PlaneFamily.from_arrays(kk.FamilyParams(0, 0, 1, 2, 1.0), 2.0 ** -5,
                                      np.zeros((60_000, 2, 0)), offsets)


def sharp_family(params, k):
    return lambda: kk.generate_sharp_example(kk.FamilyParams(*params), 2.0 ** -k)


@pytest.mark.parametrize("family, cap", [
    # 8.4M union points: 66 blocks used to be boxed before the cap was reached
    (sharp_family((0, 1, 1, 2, 1.0), 11), kk.UNION_POINT_CAP),
    # 22 blocks, as only the masked lattice knew its kept count
    (sharp_family((0, 2, 2, 3, 1.0), 7), kk.UNION_POINT_CAP),
    (r0_family_over_many_blocks, 50_000),    # 12 blocks
], ids=["r-1", "r-2", "r-0"])
def test_over_cap_union_is_refused_before_boxing(family, cap, monkeypatch):
    # the union's exact runs are summed before any block is drawn
    monkeypatch.setattr(kk, "UNION_CHUNK_ROWS", 1000)
    calls = []

    def counted(*args):
        calls.append(len(args[0]))
        return dz.box_count(*args)

    monkeypatch.setattr(kk, "box_count", counted)
    monkeypatch.setattr(kk, "UNION_POINT_CAP", cap)
    with pytest.raises(ResourceCapError, match="^union sample exceeds the point cap$"):
        kk.union_box_count(family())
    assert calls == []


def edge_families():
    """Hand-built families whose section runs end on edge cases, each at
    three scales, the largest with one tick per axis.  r = 1: (0,1,1,2)
    slices are planar; in (0,1,3,4) and (1,2,4,5) slices, sqrt(q) = 2, so
    ticks land exactly on +-1.  r = 2: planes in (0,2,2,3) slices, and in
    (0,2,3,4) and (1,3,4,5) slices, where ticks land on +-1; the (1,3,4,5)
    products at coarser scales, which keep their rows few.  Each member is
    (direction columns, offsets)."""
    s2, tiny = math.sqrt(0.5), 2.0 ** -53
    # a plane cutting off the corner (1, 1, 1), negative components in both columns
    u, w = (s2, -s2, 0.0), (math.sqrt(1 / 6), math.sqrt(1 / 6), -math.sqrt(2 / 3))
    planar = [
        ((0.0, 1.0), (0.3, 0.0)),        # axis-parallel: x_0 stays constant
        ((1.0, 0.0), (0.0, -0.7)),
        ((0.0, -1.0), (-0.5, 0.0)),      # negative components
        ((-0.6, 0.8), (0.8, 0.6)),
        ((0.6, -0.8), (-0.4, -0.3)),
        ((-0.6, -0.8), (0.4, -0.3)),
        ((0.0, 1.0), (1.0, 0.0)),        # offsets on the box's faces
        ((0.0, -1.0), (-1.0, 0.0)),
        ((1.0, 0.0), (0.0, 1.0)),
        ((s2, s2), (0.0, 0.0)),          # through the corners
        ((s2, -s2), (0.0, 0.0)),
        ((s2, s2), (0.95, -0.95)),       # one tick inside at 2^-2
        ((s2, s2), (0.999, -0.999)),     # no tick inside
        # x_0 rounds to 1 - tiny or 1 at every tick, never above 1, while
        # the unrounded line leaves the box
        ((tiny, 1.0), (1.0 - tiny, 0.0)),
    ]
    four = [
        ((0.0, 0.0, 0.0, 1.0), (0.5, 0.0, 0.0, 0.0)),
        ((0.0, 0.0, -1.0, 0.0), (0.0, 1.0, 0.0, -1.0)),
        ((-0.6, 0.0, 0.0, 0.8), (0.8, 0.0, 0.0, 0.6)),
        ((0.5, -0.5, 0.5, -0.5), (0.5, 0.5, 0.0, 0.0)),
        # as the planar tiny line, but the run ends on x_2, far past the
        # end x_0 guesses: a guess the bisection corrects
        ((tiny, 0.6, 0.8, 0.0), (1.0 - tiny, 0.0, 0.0, 0.0)),
    ]
    product = [  # two slices: the rows are the product of the two runs
        ((0.0, 0.0, 0.0, 1.0), ((1.0, 0.0, 0.0, 0.0), (0.2, -0.5, 0.0, 0.0))),
        ((-0.6, 0.0, 0.0, 0.8), ((0.8, 0.3, 0.0, 0.6), (0.0, -1.0, 0.0, 0.0))),
        ((s2, s2, 0.0, 0.0), ((0.999, -0.999, 0.0, 0.0), (0.0, 0.0, 0.5, 0.0))),
        ((0.0, -s2, s2, 0.0), ((0.3, 0.5, 0.5, 0.0), (-1.0, 0.0, 0.0, 1.0))),
    ]
    planes = [
        (((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)), (0.0, 0.0, 0.3)),     # axis-aligned
        (((0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), (-0.7, 0.0, 0.0)),
        (((0.0, -1.0, 0.0), (-0.6, 0.0, 0.8)), (0.4, 0.0, 0.3)),   # negative components
        (((1.0, 0.0, 0.0), (0.0, -1.0, 0.0)), (0.0, 0.0, 1.0)),    # offsets on the faces
        (((0.0, 0.0, -1.0), (0.0, 1.0, 0.0)), (-1.0, 0.0, 0.0)),
        (((s2, s2, 0.0), (0.0, 0.0, 1.0)), (0.0, 0.0, 0.0)),       # through the corners
        ((u, w), (0.9526, 0.9526, 0.9526)),                        # one tick inside at 2^-2
        ((u, w), (0.993, 0.993, 0.993)),                           # no tick inside
        # the planar tiny line, swept along (0, 0.8, -0.6)
        (((0.0, 0.8, -0.6), (tiny, 0.6, 0.8)), (1.0 - tiny, 0.0, 0.0)),
    ]
    planes4 = [
        (((0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0)), (0.5, 0.0, 0.0, 0.0)),
        (((0.0, 0.0, -1.0, 0.0), (-0.6, 0.0, 0.0, 0.8)), (0.4, 1.0, 0.0, 0.3)),  # on x_1 = 1
        (((0.5, 0.5, 0.5, 0.5), (0.5, -0.5, 0.5, -0.5)), (0.0, 0.0, 0.0, 0.0)),  # corners
        # four's tiny line, swept along x_3
        (((0.0, 0.0, 0.0, 1.0), (tiny, 0.6, 0.8, 0.0)), (1.0 - tiny, 0.0, 0.0, 0.0)),
    ]
    product_planes = [
        (((0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0)),
         ((1.0, 0.0, 0.0, 0.0), (0.2, -0.5, 0.0, 0.0))),
        (((0.5, 0.5, 0.5, 0.5), (0.5, -0.5, 0.5, -0.5)),
         ((0.0, 0.0, 0.0, 0.0), (0.5, 0.0, -0.5, 0.0))),
    ]
    for params, members, scales in [((0, 1, 1, 2), planar, (16.0, 0.25, 2.0 ** -5)),
                                    ((0, 1, 3, 4), four, (16.0, 0.25, 2.0 ** -5)),
                                    ((1, 2, 4, 5), product, (16.0, 0.25, 2.0 ** -5)),
                                    ((0, 2, 2, 3), planes, (16.0, 0.25, 2.0 ** -5)),
                                    ((0, 2, 3, 4), planes4, (16.0, 0.25, 2.0 ** -5)),
                                    ((1, 3, 4, 5), product_planes, (16.0, 0.5, 0.25))]:
        q = params[3] - params[0]
        directions = np.array([d for d, _ in members]).reshape(len(members), -1, q)
        offsets = np.array([o for _, o in members]).reshape(len(members), params[0] + 1, q)
        for scale in scales:
            yield kk.PlaneFamily.from_arrays(kk.FamilyParams(*params, 1.0), scale,
                                             directions.swapaxes(1, 2), offsets)


@pytest.mark.parametrize("chunk_rows", [kk.UNION_CHUNK_ROWS, 4], ids=["default-chunk", "4"])
def test_section_runs_on_edge_families(chunk_rows, monkeypatch):
    # at 4 rows per chunk every run is longer than a chunk
    monkeypatch.setattr(kk, "UNION_CHUNK_ROWS", chunk_rows)
    for fam in edge_families():
        pts = kk.union_sample_points(fam)
        assert np.array_equal(pts, reference_union_sample_points(fam.members, fam.scale))
        assert pts.flags.f_contiguous
        if fam.scale == 0.25 and fam.params.n == 2:
            lengths = kk._section_runs(fam, kk._union_ticks(fam))[1][:, 0, 0].tolist()
            assert lengths[-3:-1] == [1, 0]
        if fam.scale == 0.25 and fam.params.n == 3:
            sizes = kk._section_runs(fam, kk._union_ticks(fam))[1].sum(axis=2)[:, 0].tolist()
            assert sizes[-3:-1] == [1, 0]


@pytest.mark.parametrize("name", ["_section_runs", "union_sample_points"])
def test_union_sampler_takes_no_blas_product(name):
    # D t is an elementwise sum in a fixed order, so the union points' bits
    # do not depend on which BLAS kernel a product would run on
    import ast
    with open(kk.__file__) as f:
        tree = ast.parse(f.read())
    fn = next(node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == name)
    products = []
    for node in ast.walk(fn):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            products.append(f"@ (line {node.lineno})")
        elif isinstance(node, ast.Call):
            called = getattr(node.func, "attr", getattr(node.func, "id", None))
            if called in {"matmul", "dot", "einsum", "tensordot"}:
                products.append(f"{called} (line {node.lineno})")
    assert products == []


def test_union_box_count_memory_follows_the_cells():
    # the held sample at 2^-10 (2.1M points in a buffer sized for 3M
    # candidate rows, then their keys) peaked at 68 MB; the streamed count
    # holds the 4.19 MB mask, one chunk of 32,768 points (0.52 MB) and their
    # keys (0.26 MB), and the union's runs (0.06 MB).  Blocks of four chunks
    # of lattice candidates peaked at 7.97 MB
    import tracemalloc
    fam = kk.generate_sharp_example(kk.FamilyParams(0, 1, 1, 2, 1.0), 2.0 ** -10)
    tracemalloc.start()
    try:
        count = kk.union_box_count(fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 4 ** 10
    assert peak < 7e6


def test_union_sample_is_sized_from_the_runs():
    # (0,2,2,3) at 2^-5 keeps 262,144 of its 795,664 lattice candidates,
    # 6.3 MB of points.  A buffer sized for the candidates would alone hold
    # 19.1 MB; sized from the runs, the output and one chunk's temporaries
    # stay below that
    import tracemalloc
    fam = kk.generate_sharp_example(kk.FamilyParams(0, 2, 2, 3, 1.0), 2.0 ** -5)
    tracemalloc.start()
    try:
        pts = kk.union_sample_points(fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pts) == 262_144
    assert pts.nbytes <= peak < 795_664 * 3 * 8


def lent_buffer_families():
    """Every union shape the sampler serves: the array cases, the edge
    families and the shapes the CLI's record pins cover (r = 0..3, copies
    1 and 2), each at its two coarsest pinned scales ((0,2,3,4) at 2^-4
    alone is 4.3M points)."""
    from test_cli import SHARP_RECORD_PINS
    for params, exponents in ARRAY_FAMILY_CASES:
        for k in exponents:
            yield kk.generate_sharp_example(kk.FamilyParams(*params), 2.0 ** -k)
    yield from edge_families()
    for params, pins in SHARP_RECORD_PINS:
        for k, _, _ in pins[:2]:
            yield kk.generate_sharp_example(kk.FamilyParams(*params), 2.0 ** -k)


@pytest.mark.parametrize("chunk_rows", [kk.UNION_CHUNK_ROWS, 1000, 4],
                         ids=["default-chunk", "1000", "4"])
def test_union_sample_into_a_lent_buffer_matches_a_fresh_one(chunk_rows, monkeypatch):
    monkeypatch.setattr(kk, "UNION_CHUNK_ROWS", chunk_rows)
    for fam in lent_buffer_families():
        runs = kk._union_runs(fam)
        fresh = kk.union_sample_points(fam, runs)
        # a wider buffer than the sample: only its leading columns are written
        buffer = np.full((fresh.shape[1], len(fresh) + 3), np.nan)
        lent = kk.union_sample_points(fam, runs, out=buffer)
        assert lent.shape == fresh.shape and lent.tobytes() == fresh.tobytes()
        assert lent.base is buffer and np.isnan(buffer[:, len(fresh):]).all()
    # a buffer one column short of the last family's sample
    with pytest.raises(InvalidInputError):
        kk.union_sample_points(fam, runs, out=buffer[:, :len(fresh) - 1])


def repeated_copies_2_family():
    # (1,2,2,3) at 2^-2, its members four times over: 2,048 rows in 8^4 cells
    # take the mask, which no sharp copies-2 family small enough does
    fam = kk.generate_sharp_example(kk.FamilyParams(1, 2, 2, 3, 1.0), 0.25)
    return kk.PlaneFamily.from_arrays(fam.params, fam.scale, np.tile(fam.directions, (4, 1, 1)),
                                      np.tile(fam.offsets, (4, 1, 1)))


@pytest.mark.parametrize("family, chunk_rows", [
    (sharp_family((0, 1, 1, 2, 1.0), 9), kk.UNION_CHUNK_ROWS),   # sharp-planar's 2^-9
    (repeated_copies_2_family, 1000),
    (sharp_family((0, 2, 2, 3, 1.0), 5), 1000),
    (sharp_family((0, 3, 3, 4, 2.5), 2), 1000),
    (r0_family_over_many_blocks, 1000),
], ids=["sharp-planar", "copies-2", "r-2", "r-3", "r-0"])
def test_union_box_count_lends_one_buffer_to_every_chunk(family, chunk_rows, monkeypatch):
    # the chunks are drawn through the module-global name, as perfbench's
    # tracer counts them, each a view of its kept rows in one buffer sized
    # for the largest chunk
    monkeypatch.setattr(kk, "UNION_CHUNK_ROWS", chunk_rows)
    original, drawn = kk.union_sample_points, []

    def recorded(*args, **kwargs):
        out = original(*args, **kwargs)
        drawn.append(out)
        return out

    monkeypatch.setattr(kk, "union_sample_points", recorded)
    cut, cuts = kk._union_chunks, []
    monkeypatch.setattr(kk, "_union_chunks", lambda rows: cuts.append(len(rows)) or cut(rows))
    fam = family()
    count = kk.union_box_count(fam)
    # the family is cut into chunks once; no chunk's call cuts it again
    assert cuts == [len(fam)]
    assert count == dz.box_count(original(fam), fam.scale)
    rows, chunks = kk._union_runs(fam)[4:]
    assert chunks == cut(rows)
    kept = [int(rows[lo:hi].sum()) for lo, hi in chunks]
    assert len(drawn) == len(kept) > 1
    assert [len(pts) for pts in drawn] == kept
    buffer = drawn[0].base
    assert buffer.shape == (drawn[0].shape[1], max(kept))
    assert all(pts.base is buffer for pts in drawn)


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
        bush.bases[0][:, 0] @ member.direction.basis[:, 0])), 0, 1))
    assert d <= fam.scale


def test_bush_directions_separated_brute_force():
    fam = kk.generate_sharp_example(kk.FamilyParams(0, 1, 1, 2, 1.0), 2.0 ** -4)
    anchor = ChartPoint(np.zeros((1, 2)))
    bush = kk.bush_directions(anchor, fam)
    dirs = [Subspace(b) for b in bush.bases]
    for i in range(len(dirs)):
        for j in range(i + 1, len(dirs)):
            from grasskit.grassmann import distance
            assert distance(dirs[i], dirs[j]) >= fam.scale - 1e-9


def test_bushes_share_one_direction_net(monkeypatch):
    # (0,1,2,3) at 2^-3: the net of lines in R^3 comes from farthest-point
    # insertion over a candidate cloud; anchors at six members
    fam = kk.generate_sharp_example(kk.FamilyParams(0, 1, 2, 3, 1.0), 2.0 ** -3)
    anchors = [ChartPoint(fam.offsets[i].copy()) for i in range(0, len(fam), len(fam) // 6)]
    dz.build_direction_net.cache_clear()
    cached = [kk.bush_directions(a, fam) for a in anchors]
    assert dz.build_direction_net.cache_info().misses == 1
    net = dz.build_direction_net(1, 3, fam.scale)
    assert dz.build_direction_net(1, 3, fam.scale) is net and not net.flags.writeable
    monkeypatch.setattr(kk, "build_direction_net", dz.build_direction_net.__wrapped__)
    for anchor, bush in zip(anchors, cached):
        fresh = kk.bush_directions(anchor, fam)
        assert np.array_equal(fresh.bases, bush.bases) and fresh.members == bush.members
    assert any(bush.total() > 1 for bush in cached)


@pytest.mark.parametrize("bases, members", [
    (np.ones((2, 2, 1)), ((0,), (1,))),        # columns that are not unit vectors
    (np.eye(2)[None, :, :1], ((0,), (1,))),     # more member tuples than bases
    (np.eye(3)[None, :, :1], ((),)),            # a direction without members
], ids=["not-orthonormal", "count-mismatch", "empty-member"])
def test_bush_rejects_bases_it_cannot_hold(bases, members):
    with pytest.raises(InvalidInputError):
        kk.BushDirections(bases, members)


# ---------------------------------------------------------- broad/narrow

@pytest.mark.parametrize("call", [
    lambda g: kk.broad_narrow_classify(kk.BushDirections(np.zeros((3, 2, 0)), ((0,), (1,), (2,))),
                                       kk.FamilyParams(1, 1, 2, 3, 1.0)),
    lambda g: kk.random_transverse_tuple(kk.FamilyParams(1, 1, 2, 3, 1.0), g),
    lambda g: kk.random_transverse_tuples(kk.FamilyParams(0, 0, 2, 3, 1.0), [g], None),
], ids=["classify", "one-tuple", "tuples"])
def test_the_classifier_rejects_zero_dimensional_directions(call):
    # with m = l these ended in a bare numpy ValueError; now nothing is drawn
    g = rng_for(69)
    with pytest.raises(InvalidInputError, match="l < m"):
        call(g)
    assert g.standard_normal() == rng_for(69).standard_normal()


def test_classify_planar_bush_is_narrow():
    params = kk.FamilyParams(0, 1, 2, 3, 1.0)
    inside = Subspace(np.eye(3)[:, :2])
    g = rng_for(61)
    bases = []
    for i in range(10):
        v = inside.basis @ g.standard_normal((2, 1))
        bases.append(v / np.linalg.norm(v))
    bush = kk.BushDirections(np.stack(bases), tuple((i,) for i in range(10)))
    res = kk.broad_narrow_classify(bush, params)
    assert res.kind == "narrow"
    assert res.covered_fraction >= 0.5
    # the witness contains the spanning plane of the bush
    assert res.witness.dim == 2


def test_classify_spread_bush_is_broad():
    # an orthonormal-frame spread exceeding d-l dimensions
    params = kk.FamilyParams(0, 1, 1, 2, 1.0)
    bush = kk.BushDirections(np.stack([np.eye(2)[:, [i]] for i in range(2)]), ((0,), (1,)))
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
        dists = [project_to_sub_grassmannian(Subspace(c), pi).distance for c in tup.centers]
        assert max(dists) > probe


def reference_greedy(bush, params):
    """The greedy certificate construction one ball at a time, with one
    canonical ``linalg.svd`` per ball per step: the vectors of a Broad
    outcome, or the span at which it got stuck."""
    constants = kk.ClassifierConstants.for_params(params)
    selected = [Subspace(bush.bases[c]) for c in
                kk._select_balls([bush.bases], [bush.members], constants, params.n)[0]]
    threshold = constants.step_threshold(params)
    first = selected[0]
    vectors = [first.basis[:, i] for i in range(first.dim)]
    while len(vectors) < params.d - params.l + 1:
        span = linalg.orthonormalize(np.column_stack(vectors)).matrix
        best = (-1.0, None)
        for center in selected:
            resid = center.basis - span @ (span.T @ center.basis)
            dec = linalg.svd(resid)
            if dec.singular_values[0] > best[0]:
                vec = center.basis @ dec.right[:, 0]
                best = (float(dec.singular_values[0]), vec / np.linalg.norm(vec))
        if best[0] < threshold:
            return "narrow", span
        vectors.append(best[1])
    return "broad", np.column_stack(vectors)


def reference_tuple(params, g):
    """A transverse tuple drawn one bush at a time, each bush classified by
    reference_greedy: the witness vectors of the first Broad bush, and the
    selected ball count of every bush drawn."""
    from grasskit.grassmann import random_subspaces
    q, r = params.n - params.l, params.m - params.l
    count = 4 * (params.d - params.l + 2)
    constants = kk.ClassifierConstants.for_params(params)
    selections = []
    for _ in range(64):
        bush = kk.BushDirections(random_subspaces(g, count, q, r),
                                 tuple((i,) for i in range(count)))
        selections.append(len(kk._select_balls([bush.bases], [bush.members],
                                               constants, params.n)[0]))
        kind, frame = reference_greedy(bush, params)
        if kind == "broad":
            return frame, selections
    raise AssertionError("no broad bush in 64 draws")


def isoclinic_bush(g):
    """(0,2,3,4) bush whose two later balls leave residuals with two equal
    rounded singular values, equal across the balls too: both are rotated
    by one angle off the first ball, along different pairings, in a random
    frame."""
    frame = np.linalg.qr(g.standard_normal((4, 4)))[0]
    angle = g.uniform(0.3, 1.2)
    c, s = np.cos(angle), np.sin(angle)
    bases = [np.eye(4)[:, :2], np.array([[c, 0], [0, c], [s, 0], [0, s]]),
             np.array([[c, 0], [0, c], [0, -s], [s, 0]])]
    return kk.BushDirections(np.stack([linalg.orthonormalize(frame @ b).matrix for b in bases]),
                             ((0,), (1,), (2,)))


def test_classifier_step_matches_the_per_ball_loop():
    # the stacked step keeps each ball's canonical top singular value where
    # the top two tie, so it picks the ball (and vector) the loop picks
    from grasskit.grassmann import random_subspaces
    bushes = []
    for shape in [(0, 1, 2, 3), (1, 2, 2, 4), (0, 2, 3, 4), (0, 1, 3, 4)]:
        params = kk.FamilyParams(*shape, 1.0)
        q, r = shape[3] - shape[0], shape[1] - shape[0]
        for trial in range(15):
            g = rng_for(71, *shape, trial)
            count = int(g.integers(2, 4 * (shape[2] - shape[0] + 2) + 1))
            bushes.append((kk.BushDirections(random_subspaces(g, count, q, r),
                                             tuple((i,) for i in range(count))), params))
    params = kk.FamilyParams(0, 2, 3, 4, 1.0)
    bushes += [(isoclinic_bush(rng_for(72, trial)), params) for trial in range(60)]
    kinds = set()
    for bush, params in bushes:
        kind, frame = reference_greedy(bush, params)
        res = kk.broad_narrow_classify(bush, params)
        kinds.add(res.kind)
        assert res.kind == kind
        if kind == "broad":
            assert np.array_equal(res.tuple.vectors, frame)
        else:
            width = frame.shape[1]
            assert np.array_equal(res.witness.basis[:, :width], frame)
    assert kinds == {"narrow", "broad"}


def _tuple_fields(tup):
    return tup.vectors.tobytes(), tup.centers.tobytes(), tup.volume.hex(), tup.threshold, tup.K


@pytest.mark.parametrize("shape", [(0, 1, 1, 2), (1, 2, 2, 3), (0, 1, 5, 6), (1, 2, 2, 4),
                                   (0, 2, 3, 4)])
def test_stacked_tuples_equal_tuples_drawn_one_at_a_time(shape):
    # (0,1,1,2) and (1,2,2,3) select different ball counts across the
    # stack's bushes; at (0,1,5,6) about one tuple in nine needs a second bush
    params = kk.FamilyParams(*shape, 1.0)
    rngs = [rng_for(96, *shape, i) for i in range(40)]
    selections = []
    for i, (tup, g) in enumerate(zip(kk.random_transverse_tuples(params, rngs, None), rngs)):
        alone = kk.random_transverse_tuple(params, rng_for(96, *shape, i))
        assert _tuple_fields(tup) == _tuple_fields(alone)
        ref = rng_for(96, *shape, i)
        frame, counts = reference_tuple(params, ref)
        assert np.array_equal(tup.vectors, frame)
        assert tup.volume == linalg.gram_volume(frame[None])[0]
        # the same generator calls: each bush drawn once, redraws included
        assert np.array_equal(g.standard_normal(8), ref.standard_normal(8))
        selections.append(counts)
    if shape in [(0, 1, 1, 2), (1, 2, 2, 3)]:
        assert len({counts[0] for counts in selections}) > 1
    if shape == (0, 1, 5, 6):
        assert any(len(counts) > 1 for counts in selections)


class _ZeroFirstRow:
    """A generator whose first draw has a zero (rank-deficient) first row."""

    def __init__(self, seed):
        self.g, self.first = rng_for(97, seed), True

    def standard_normal(self, shape):
        out = self.g.standard_normal(shape)
        if self.first:
            out[0], self.first = 0.0, False
        return out


def test_a_rank_deficient_draw_is_redrawn_from_its_own_generator():
    params = kk.FamilyParams(0, 1, 2, 3, 1.0)
    rngs = [_ZeroFirstRow(i) if i % 2 else rng_for(97, i) for i in range(5)]
    for i, tup in enumerate(kk.random_transverse_tuples(params, rngs, None)):
        ref = _ZeroFirstRow(i) if i % 2 else rng_for(97, i)
        assert np.array_equal(tup.vectors, reference_tuple(params, ref)[0])
        alone = kk.random_transverse_tuple(params, _ZeroFirstRow(i) if i % 2 else rng_for(97, i))
        assert _tuple_fields(tup) == _tuple_fields(alone)


def _sharp_bushes(params, k, seed, anchors):
    fam = kk.generate_sharp_example(params, 2.0 ** -k)
    g = rng_for(seed, k)
    bushes = []
    for _ in range(anchors):
        i = int(g.integers(len(fam)))
        coords = np.clip(fam.offsets[i] + g.uniform(-fam.scale, fam.scale, fam.offsets[i].shape),
                         -1, 1)
        bushes.append(kk.bush_directions(ChartPoint(coords), fam))
    return [b for b in bushes if b.members]


def _stack_of_bushes(shape):
    """Bushes of one shape and several sizes, Broad and Narrow: random ones,
    planar ones (inside one (d-l)-plane), multi-member sharp-family ones at
    (0,1,2,3) and tied isoclinic ones at (0,2,3,4)."""
    from grasskit.grassmann import random_subspaces
    params = kk.FamilyParams(*shape, 1.0)
    q, r = shape[3] - shape[0], shape[1] - shape[0]
    if shape == (0, 1, 2, 3):
        bushes = _sharp_bushes(params, 3, 98, 8) + _sharp_bushes(params, 4, 98, 8)
    else:
        bushes = [isoclinic_bush(rng_for(72, trial)) for trial in range(12)]
    for trial in range(10):
        g = rng_for(99, *shape, trial)
        count = int(g.integers(2, 4 * (shape[2] - shape[0] + 2) + 1))
        bases = random_subspaces(g, count, q, r)
        if trial % 3 == 0:
            bases = np.stack([linalg.orthonormalize(np.eye(q)[:, :shape[2] - shape[0]] @ b).matrix
                              for b in g.standard_normal((count, shape[2] - shape[0], r))])
        bushes.append(kk.BushDirections(bases, tuple((i,) for i in range(count))))
    return params, bushes


def _result_fields(res):
    if res.kind == "broad":
        return ("broad",) + _tuple_fields(res.tuple)
    return "narrow", res.witness.basis.tobytes(), res.covered_fraction.hex()


@pytest.mark.parametrize("shape", [(0, 1, 2, 3), (0, 2, 3, 4)])
def test_a_stack_of_bushes_classifies_as_each_bush_alone(shape):
    params, bushes = _stack_of_bushes(shape)
    constants = kk.ClassifierConstants.for_params(params)
    stacked = kk._classify_bushes([b.bases for b in bushes], [b.members for b in bushes],
                                  params, constants)
    assert [_result_fields(res) for res in stacked] == \
        [_result_fields(kk.broad_narrow_classify(b, params)) for b in bushes]
    for bush, res in zip(bushes, stacked):
        kind, frame = reference_greedy(bush, params)
        assert res.kind == kind
        if kind == "broad":
            assert np.array_equal(res.tuple.vectors, frame)
        else:
            assert np.array_equal(res.witness.basis[:, :frame.shape[1]], frame)
    assert {res.kind for res in stacked} == {"broad", "narrow"}
    assert len({len(b.members) for b in bushes}) > 2
    if shape == (0, 1, 2, 3):
        assert any(max(b.counts) > 1 for b in bushes)


def test_tuple_generation_all_parameter_sets():
    for (l, m, d, n) in [(0, 1, 1, 2), (0, 1, 2, 3), (1, 2, 2, 4)]:
        params = kk.FamilyParams(l, m, d, n, 1.0)
        tup = kk.random_transverse_tuple(params, rng_for(64, l, m, d, n))
        assert len(tup.centers) == d - m + 2
        assert tup.vectors.shape == (n - l, d - l + 1)
        assert tup.certified()
        # certificate volume is the gram volume of the witness vectors, exactly
        assert type(tup.volume) is float
        assert tup.volume == linalg.gram_volume(tup.vectors[None])[0]


def _digest(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()[:16]


# (shape, seed): sha256 prefixes of the witness vectors and of the stacked W_j
# bases, and the certificate volume as hex, with beta = 1 and rng_for(82, *shape, seed)
TUPLE_PINS = {
    ((0, 1, 1, 2), 0): ("a76b1f59747578c3", "0x1.febfcb5e6fdbap-1", "70d5aa70a9225894"),
    ((0, 1, 1, 2), 1): ("85ec2ba1282b5f2b", "0x1.fbba0674a3194p-1", "4d16cda83ec42467"),
    ((0, 1, 1, 2), 2): ("3be5d4fdc9e1a119", "0x1.fd496549a1045p-1", "a0cf5b5091952cbd"),
    ((0, 1, 2, 3), 0): ("d8e5afa1ca9ec71b", "0x1.d83b2c15d4931p-1", "c7009b54e1127378"),
    ((0, 1, 2, 3), 1): ("b232a8a86512fab3", "0x1.8086fdb72c454p-1", "2da4e5c471ca4ded"),
    ((0, 1, 2, 3), 2): ("fcb54178c4f0b109", "0x1.d268b62850e6bp-1", "2766582731e0c544"),
    ((1, 2, 2, 4), 0): ("46bc70b2ad89e251", "0x1.fa227eb24f0a0p-1", "0ac7ea9290f23b54"),
    ((1, 2, 2, 4), 1): ("30ae3a64123216c6", "0x1.fbfdb4e4bbc59p-1", "ccf77352f1b85025"),
    ((1, 2, 2, 4), 2): ("aadddc8c3a414762", "0x1.ea01d3c2c0d8ap-1", "8d02b18038821e4c"),
    ((0, 2, 3, 4), 0): ("6f803e0a23fc04f4", "0x1.f647a532dfde2p-1", "88df346054b0f66d"),
    ((0, 2, 3, 4), 1): ("d8cce7facc1225a8", "0x1.fd88408579d69p-1", "ac6a81c61264df82"),
    ((0, 2, 3, 4), 2): ("d85c2028dc81e1f7", "0x1.fbc6c8562ff89p-1", "5b2412493728d30c"),
    ((0, 1, 3, 4), 0): ("0438403ad740b8a6", "0x1.cce149ab90e61p-1", "88b286032a08358b"),
    ((0, 1, 3, 4), 1): ("53bec0aea43edda1", "0x1.ed9a3dd9e03d7p-1", "6be4e89de4786693"),
    ((0, 1, 3, 4), 2): ("65347a6b990a50a6", "0x1.8ca53d687aa72p-1", "505b7ba4bfb55083"),
    ((1, 2, 3, 5), 0): ("17a99c424912c899", "0x1.e7d9a0e663fcap-1", "c62518dd430b14d0"),
    ((1, 2, 3, 5), 1): ("e198b0c407531096", "0x1.fac85c17aca9bp-1", "75816256c875935c"),
    ((1, 2, 3, 5), 2): ("c9aea9181017690e", "0x1.f0fa945bf268fp-1", "d8063462e91fddf6"),
}


def _obstructions(tup, params):
    return [Subspace(b) for b in kk.tuple_obstruction_stack([tup], params)[0]]


def _lattice(ws):
    return [Subspace(b) for b in kk.kernel_lattices([w.basis[None] for w in ws])[0]]


@pytest.mark.parametrize("shape, seed", list(TUPLE_PINS))
def test_transverse_tuple_and_its_obstructions_are_pinned(shape, seed):
    params = kk.FamilyParams(*shape, 1.0)
    tup = kk.random_transverse_tuple(params, rng_for(82, *shape, seed))
    ws = _obstructions(tup, params)
    assert (_digest(tup.vectors), tup.volume.hex(),
            _digest(np.stack([w.basis for w in ws]))) == TUPLE_PINS[shape, seed]


# (shape, k): per anchor, the bush counts, the sha256 prefix of the Narrow
# witness basis and the covered fraction as hex, on the beta = 1 sharp family
# at 2^-k; anchor a jitters a member's offsets drawn from rng_for(83, *shape, k)
BUSH_PINS = {
    ((0, 1, 2, 3), 3): [
        ([1, 1], "c1e731ce1638fb8a"), ([1, 1], "c1e731ce1638fb8a"),
        ([1, 1], "c1e731ce1638fb8a"), ([1, 2], "e8c05b24e3dbb075"),
        ([2, 1], "591317f31d9cfe87"), ([1, 1], "c1e731ce1638fb8a"),
        ([1, 1], "c1e731ce1638fb8a"), ([1, 1], "c1e731ce1638fb8a")],
    ((0, 1, 2, 3), 4): [
        ([1, 1, 1, 2], "00f694dcd416bce7"), ([1, 1, 1, 1], "19978294951ac570"),
        ([1, 1, 1, 1], "19978294951ac570"), ([1, 1, 2, 1], "19978294951ac570"),
        ([1, 1, 1, 1], "19978294951ac570"), ([1, 1, 1, 1], "19978294951ac570"),
        ([1, 1, 1, 1], "19978294951ac570"), ([1, 1, 1, 1], "19978294951ac570")],
    ((0, 1, 1, 2), 4): [([1], "91e1e6a6da6e370c")] * 8,
}


@pytest.mark.parametrize("shape, k", list(BUSH_PINS))
def test_sharp_family_bushes_classify_as_pinned(shape, k):
    params = kk.FamilyParams(*shape, 1.0)
    delta = 2.0 ** -k
    fam = kk.generate_sharp_example(params, delta)
    g = rng_for(83, *shape, k)
    for counts, witness in BUSH_PINS[shape, k]:
        i = int(g.integers(len(fam)))
        coords = np.clip(fam.offsets[i] + g.uniform(-delta, delta, fam.offsets[i].shape), -1, 1)
        bush = kk.bush_directions(ChartPoint(coords), fam)
        res = kk.broad_narrow_classify(bush, params)
        assert (res.kind, bush.counts, _digest(res.witness.basis),
                res.covered_fraction.hex()) == ("narrow", counts, witness, "0x1.0000000000000p+0")


# -------------------------------------------------------- dim projection

def test_dim_projection_kernel_case():
    w = Subspace(np.eye(4)[:, :2])
    kernel = Subspace(linalg.orthonormal_completion(w.basis)[:, w.dim:])
    assert kk.dim_projection(kernel, w) == 0


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
        kernel = linalg.orthonormal_completion(w.basis)[:, w.dim:]
        if not linalg.containment_residual(u.basis, kernel) <= 1e-9:
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
        assert inst.value_of(u.basis) == pytest.approx(expect, abs=1e-12)


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
    kernel = Subspace(linalg.orthonormal_completion(w.basis)[:, w.dim:])
    assert inst.value_of(kernel.basis) == pytest.approx(3.0)


def _projectors_match(a: Subspace, b: Subspace) -> bool:
    return a.dim == b.dim and np.allclose(a.projector(), b.projector(), rtol=0, atol=1e-9)


def test_kernel_lattice_is_closed_and_distinct():
    from grasskit.grassmann import random_subspace
    for shape in [(0, 1, 2, 3), (0, 1, 3, 4)]:
        params = kk.FamilyParams(*shape, 1.0)
        tup = kk.random_transverse_tuple(params, rng_for(66, *shape))
        ws = _obstructions(tup, params)
        lattice = _lattice(ws)
        ambient = ws[0].basis.shape[0]
        assert any(u.dim == 0 for u in lattice) and any(u.dim == ambient for u in lattice)
        for w in ws:
            kernel = Subspace(linalg.orthonormal_completion(w.basis)[:, w.dim:])
            assert any(_projectors_match(u, kernel) for u in lattice)
        for i, a in enumerate(lattice):
            assert not any(_projectors_match(a, b) for b in lattice[i + 1:])
            for b in lattice[i + 1:]:
                for c in (a.sum(b), a.intersect(b)):
                    assert any(_projectors_match(c, u) for u in lattice)
    g = rng_for(66)
    generic = [random_subspace(g, 4, 2) for _ in range(3)]
    # pairwise sums are R^4 and pairwise intersections 0
    assert len(_lattice(generic)) == 5


def test_kernel_lattice_cap(monkeypatch):
    params = kk.FamilyParams(0, 1, 3, 4, 1.0)
    ws = _obstructions(kk.random_transverse_tuple(params, rng_for(67)), params)
    assert len(_lattice(ws)) == 16
    monkeypatch.setattr(kk, "LATTICE_CAP", 15)
    with pytest.raises(ResourceCapError):
        _lattice(ws)


def test_a_stack_reaches_the_cap_after_about_one_lattice(monkeypatch):
    # (0, 2, 4, 5) lattices are infinite: past DEDEKIND_MEMBERS the first
    # tuple walks on alone, so a stack of five stops at the cap after little
    # more work than its first tuple alone, not five lattices' worth
    params = kk.FamilyParams(0, 2, 4, 5, 1.0)
    tuples = [kk.random_transverse_tuple(params, rng_for(95, i)) for i in range(5)]
    ws = kk.tuple_obstruction_stack(tuples, params)
    monkeypatch.setattr(kk, "LATTICE_CAP", 64)
    pairs, meet = [], linalg.sums_and_meets
    monkeypatch.setattr(linalg, "sums_and_meets", lambda p: pairs.append(len(p)) or meet(p))
    walked = []
    for count in (1, 5):
        pairs.clear()
        with pytest.raises(ResourceCapError, match="exceeds 64 members"):
            kk.kernel_lattices([ws[:count, j] for j in range(ws.shape[1])])
        walked.append(sum(pairs))
    assert walked[1] < 2 * walked[0]


def test_bl_value_is_the_lattice_max_member_by_member():
    # the lattice scored one member at a time through dim_projection
    from grasskit.grassmann import random_subspace
    ambient = 6
    for trial in range(3):
        g = rng_for(79, trial)
        ws = [random_subspace(g, ambient, int(g.integers(1, ambient))) for _ in range(3)]
        lattice = _lattice(ws)
        for p in (1.0, 1.2, 2.5):
            inst = kk.bl_constant_lower(ws, p)
            values = [u.dim - (p / 3) * sum(kk.dim_projection(u, w) for w in ws)
                      for u in lattice]
            assert inst.n_candidates == len(lattice)
            assert inst.best_value == max(values)
            assert inst.value_of(inst.candidate) == inst.best_value


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
        return _obstructions(tup, params)
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
    ambient = ws[0].basis.shape[0]
    g = rng_for(data.draw(st.integers(0, 2 ** 32 - 1)))
    others = [Subspace.spanned_by_axes(ambient, axes) for r in range(1, ambient)
              for axes in itertools.combinations(range(ambient), r)]
    others += [random_subspace(g, ambient, r) for r in range(1, ambient) for _ in range(12)]
    values_at = kk._functionals([[u.basis for u in others]],
                                [w[None] for w in inst.bases])[0]
    assert values_at(p).max() <= inst.best_value + 1e-12


def test_verify_bl_bound_cross_check_catches_a_short_lattice(monkeypatch):
    params = kk.FamilyParams(1, 2, 2, 4, 1.0)
    tup = kk.random_transverse_tuple(params, rng_for(67))
    assert kk.verify_bl_bound(tup, params, 1.0, rng_for(68)).ok
    # a lattice missing its top member scores below the random draws
    lattices = kk.kernel_lattices
    monkeypatch.setattr(kk, "kernel_lattices", lambda ws: [lat[:1] for lat in lattices(ws)])
    with pytest.raises(CertificateError):
        kk.verify_bl_bound(tup, params, 1.0, rng_for(68))
    # without an rng there is no cross-check
    assert kk.verify_bl_bound(tup, params, 1.0).instance.best_value == 0.0


def _instance_fields(inst):
    return (inst.p, inst.best_value, inst.candidate.tobytes(),
            inst.n_candidates, [w.tobytes() for w in inst.bases])


@pytest.mark.parametrize("shape", [(1, 2, 2, 4), (0, 2, 3, 4), (0, 1, 3, 4)])
def test_verify_bl_bounds_equals_the_single_exponent_view(shape):
    params = kk.FamilyParams(*shape, 1.0)
    p_max = kk.admissible_p_max(shape[0], shape[1], shape[2], 1.0)
    p_values = [1.0, (1.0 + p_max) / 2.0, p_max]

    def fields(rep):
        return _instance_fields(rep.instance) + (rep.rhs, rep.ok, rep.slack)

    for trial in range(3):
        tup = kk.random_transverse_tuple(params, rng_for(73, *shape, trial))
        for seed in (None, 74):
            def rng():
                return None if seed is None else rng_for(seed, trial)
            assert [fields(rep) for rep in kk.verify_bl_stack([tup], params, p_values)[0]] \
                == [fields(kk.verify_bl_bound(tup, params, p, rng())) for p in p_values]
    ws = _obstructions(tup, params)
    stacks = [w.basis[None] for w in ws]
    assert [_instance_fields(inst) for inst in kk.bl_constant_lower_stack(stacks, p_values)[0]] \
        == [_instance_fields(kk.bl_constant_lower(ws, p)) for p in p_values]


def test_verify_bl_bounds_cross_checks_every_exponent(monkeypatch):
    params = kk.FamilyParams(1, 2, 2, 4, 1.0)
    tup = kk.random_transverse_tuple(params, rng_for(67))
    # a stand-in lattice {0, a line inside K_1}, of maximum max(0, 1 - p/2):
    # the random draws (best 5 - 4p) beat it at p = 1 but not at p = 1.2
    monkeypatch.setattr(kk, "kernel_lattices", lambda ws: [[
        Subspace.zero(ws[0].shape[1]).basis,
        linalg.orthonormal_completion(ws[0][0])[:, ws[0].shape[2], None]]])
    assert kk.verify_bl_bound(tup, params, 1.2, rng_for(68)).ok
    with pytest.raises(CertificateError):
        kk.verify_bl_bound(tup, params, 1.0, rng_for(68))


@pytest.mark.parametrize("shape", [(0, 1, 1, 2), (1, 2, 2, 4), (0, 1, 3, 4)])
def test_the_cross_check_takes_its_draws_and_no_more(shape):
    # criterion 6 hands verify_bl_bound a generator per check: the draws it
    # takes are CROSS_CHECK_DRAWS subspaces of each proper dimension, no more
    from grasskit.grassmann import random_subspaces
    params = kk.FamilyParams(*shape, 1.0)
    tup = kk.random_transverse_tuple(params, rng_for(93, *shape))
    g, expected = rng_for(94, *shape), rng_for(94, *shape)
    kk.verify_bl_bound(tup, params, 1.0, g)
    ambient = (params.l + 1) * (params.n - params.l)
    for r in range(1, ambient):
        random_subspaces(expected, kk.CROSS_CHECK_DRAWS, ambient, r)
    np.testing.assert_equal(g.bit_generator.state, expected.bit_generator.state)


@pytest.mark.parametrize("shape", [(1, 2, 2, 4), (0, 1, 2, 3), (0, 2, 3, 4), (0, 1, 3, 4),
                                   (0, 1, 1, 2), (0, 1, 4, 5)])
def test_a_stack_equals_its_tuples_one_at_a_time(shape):
    # (0, 1, 4, 5) has 32-member lattices, past DEDEKIND_MEMBERS: its first
    # tuple walks on alone, then the others in step
    params = kk.FamilyParams(*shape, 1.0)
    p_max = kk.admissible_p_max(shape[0], shape[1], shape[2], 1.0)
    p_values = [1.0, (1.0 + p_max) / 2.0, p_max]
    tuples = [kk.random_transverse_tuple(params, rng_for(91, *shape, i)) for i in range(4)]

    def fields(rep):
        inst = rep.instance
        return (inst.best_value, inst.n_candidates, inst.candidate.tobytes(),
                rep.rhs, rep.ok, rep.slack)

    stacked = kk.verify_bl_stack(tuples, params, p_values)
    assert len(stacked) == len(tuples)
    for tup, reports in zip(tuples, stacked):
        alone = kk.verify_bl_stack([tup], params, p_values)[0]
        assert [fields(r) for r in reports] == [fields(r) for r in alone]


@pytest.mark.parametrize("shape", [(0, 1, 1, 2), (0, 1, 2, 3), (1, 2, 2, 4)])
def test_stacked_ranks_follow_the_kernel_intersections(shape):
    # sum_j dim P_{W_j} U = J dim U - sum_j dim(U ∩ K_j), K_j = W_j-perp, on
    # every lattice member of a stack of tuples, with the intersections
    # taken one pair at a time by Subspace.intersect
    params = kk.FamilyParams(*shape, 1.0)
    tuples = [kk.random_transverse_tuple(params, rng_for(92, *shape, i)) for i in range(5)]
    ws = kk.tuple_obstruction_stack(tuples, params)
    stacks = [ws[:, j] for j in range(ws.shape[1])]
    lattices = kk.kernel_lattices(stacks)
    for t, (lattice, totals) in enumerate(zip(lattices, kk._projection_ranks(lattices, stacks))):
        kernels = [Subspace(linalg.orthonormal_completion(w)[:, w.shape[1]:]) for w in ws[t]]
        for u, total in zip(lattice, totals):
            u = Subspace(u)
            assert total == len(kernels) * u.dim - sum(u.intersect(k).dim for k in kernels)


def test_bl_instances_check_and_freeze_their_arrays(monkeypatch):
    # the W stacks and the maximizers are checked orthonormal, as the
    # Subspace objects they replace were, and held read-only
    params = kk.FamilyParams(1, 2, 2, 4, 1.0)
    tuples = [kk.random_transverse_tuple(params, rng_for(67, i)) for i in range(3)]
    ws = kk.tuple_obstruction_stack(tuples, params)
    stacks = [ws[:, j] for j in range(ws.shape[1])]
    for insts in kk.bl_constant_lower_stack(stacks, [1.0, 1.2]):
        for inst in insts:
            assert not inst.candidate.flags.writeable
            assert not any(w.flags.writeable for w in inst.bases)
    with pytest.raises(InvalidInputError, match="orthonormal"):
        kk.bl_constant_lower_stack([stacks[0] * 2.0] + stacks[1:], [1.0])
    lattices = kk.kernel_lattices
    monkeypatch.setattr(kk, "kernel_lattices",
                        lambda w: [[u * 2.0 for u in lattice] for lattice in lattices(w)])
    with pytest.raises(InvalidInputError, match="orthonormal"):
        kk.bl_constant_lower_stack(stacks, [1.0])


def test_bl_invalid_exponent():
    with pytest.raises(InvalidInputError):
        kk.bl_constant_lower([Subspace.full(2)], 3.5)


def test_mixed_ambient_dimensions_are_rejected():
    pair = [Subspace.spanned_by_axes(2, [0]), Subspace.spanned_by_axes(3, [1])]
    with pytest.raises(InvalidInputError, match="ambient dimension mismatch"):
        kk.bl_constant_lower(pair, 1.5)
    with pytest.raises(InvalidInputError, match="ambient dimension mismatch"):
        kk.dim_projection(*pair)


def test_verify_bl_stack_rejects_tuples_of_another_shape():
    # a (1,2,2,4) tuple used to be scored against the (0,1,2,3) ceiling, and
    # tuples of two shapes ended in numpy's reshape ValueError
    small, big = kk.FamilyParams(0, 1, 2, 3, 1.0), kk.FamilyParams(1, 2, 2, 4, 1.0)
    tup, other = kk.random_transverse_tuple(big, rng_for(67)), \
        kk.random_transverse_tuple(small, rng_for(67))
    for tuples, params in [([tup], small), ([tup, other], big), ([other, tup], small)]:
        with pytest.raises(InvalidInputError, match="shape"):
            kk.verify_bl_stack(tuples, params, [1.0])


def test_verify_bl_stack_rejects_no_tuples():
    params = kk.FamilyParams(1, 2, 2, 4, 1.0)
    with pytest.raises(InvalidInputError, match="at least one tuple"):
        kk.verify_bl_stack([], params, [1.0])


def test_verify_bl_bound_p1_equals_k():
    # p=1 ceiling is (l+1)(m-l) = k, attained at U = R^N
    params = kk.FamilyParams(1, 2, 2, 4, 1.0)
    tup = kk.random_transverse_tuple(params, rng_for(67))
    rep = kk.verify_bl_bound(tup, params, 1.0, rng_for(68))
    assert rep.rhs == pytest.approx((params.m - params.l) * (params.l + 1))
    assert rep.instance.best_value == pytest.approx((params.m - params.l) * (params.l + 1))
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


def test_nonpositive_exponents_are_rejected():
    params = kk.FamilyParams(0, 1, 1, 2, 1.0)
    fam = kk.generate_sharp_example(params, 2.0 ** -4)
    for p in (0.0, -1.0):
        with pytest.raises(InvalidInputError, match="positive"):
            kk.lp_counting_norm(fam, p)
        with pytest.raises(InvalidInputError, match="positive"):
            kk.verify_kakeya_inequality([fam], p, 0.1)


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


def test_a_repeated_kernel_adds_no_member():
    # K_1 listed twice: the seeding's own candidates include a twin, which
    # the walk drops, so the lattices are those of the tuples without it
    params = kk.FamilyParams(0, 1, 2, 3, 1.0)
    tuples = [kk.random_transverse_tuple(params, rng_for(93, i)) for i in range(4)]
    ws = kk.tuple_obstruction_stack(tuples, params)
    stacks = [ws[:, j] for j in range(ws.shape[1])]
    once, twice = kk.kernel_lattices(stacks), kk.kernel_lattices(stacks + stacks[:1])
    assert [[b.tobytes() for b in lat] for lat in twice] == [[b.tobytes() for b in lat]
                                                             for lat in once]
    for lat in twice:
        projectors = np.array([b @ b.T for b in lat])
        gaps = np.abs(projectors[:, None] - projectors[None]).max(axis=(2, 3))
        assert np.all(gaps[~np.eye(len(lat), dtype=bool)] > kk.LATTICE_TOL)
