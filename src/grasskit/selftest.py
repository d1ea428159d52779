"""Seeded geometry invariant suites.

Each suite runs a fixed-size randomized battery and returns a small result
record with the worst observed errors; the CLI's geometry-selftest
experiment and the acceptance tests share these implementations so a
criterion means the same thing everywhere.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, asdict

import numpy as np

from .affine import (Chart, affine_offsets, chart_offsets, check_chart_box,
                     embed_tilde_stack, from_projective_stack, incidences,
                     point_distances, rho_distances, to_projective_stack)
from .errors import InvalidInputError, ResourceCapError
from .grassmann import (distances, geodesic_frames, geodesic_points,
                        orthonormal_draws, project_stack, random_subspaces,
                        same_stack)
from .sampling import random_chart_m_planes, random_points_on, rng_for


class _Result:
    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


@dataclass(frozen=True)
class GeodesicSuiteResult(_Result):
    samples: int
    max_symmetry_error: float
    min_triangle_slack: float
    max_scaling_error: float
    max_containment_residual: float
    runtime: float

    @property
    def passed(self) -> bool:
        return (self.max_symmetry_error <= 1e-9
                and self.min_triangle_slack >= -1e-9
                and self.max_scaling_error <= 1e-8
                and self.max_containment_residual <= 1e-8)


# per-sample Gaussian block: v, w, u in G(2,4), then a, b in G(2,3), each
# an (ambient, dim) draw in that order
GEODESIC_DRAWS = ((4, 2), (4, 2), (4, 2), (3, 2), (3, 2))
GEODESIC_WIDTH = sum(q * k for q, k in GEODESIC_DRAWS)
GEODESIC_TIMES = (0.25, 0.5, 0.75)
CONTENDER_CHUNK = 4096  # projection-suite contender distances in one stack


def _blocks(g, block: np.ndarray, shapes) -> list[np.ndarray]:
    """Orthonormal stacks of the consecutive (ambient, dim) draws in the
    rows of ``block``; see :func:`grassmann.orthonormal_draws`."""
    ends = np.cumsum([q * k for q, k in shapes])
    return [orthonormal_draws(g, block[:, end - q * k:end].reshape(-1, q, k))
            for (q, k), end in zip(shapes, ends)]


def geodesic_suite(seed: int, samples: int = 1000) -> GeodesicSuiteResult:
    """Distance symmetry, triangle inequality, constant-speed geodesics in
    G(2,4), and total geodesy inside a fixed 3-plane."""
    if samples < 1:
        raise InvalidInputError(f"geodesic suite needs samples >= 1, got {samples}")
    start = time.perf_counter()
    g = rng_for(seed, 1)
    block = g.standard_normal((samples, GEODESIC_WIDTH))
    v, w, u, a, b = _blocks(g, block, GEODESIC_DRAWS)
    pi = np.eye(4)[:, :3]
    # the distance of (v, w) from the geodesic's own angles, as distances()
    # takes it from the same aligned_angles
    frames = geodesic_frames(v, w)[:3]
    d = np.sqrt(np.vecdot(frames[0], frames[0]))
    sym = np.max(np.abs(d - distances(w, v)), initial=0.0)
    triangle = np.min(distances(v, u) + distances(u, w) - d, initial=np.inf)
    # the scaling check at every time in one stack; each pair is as alone
    times = np.array(GEODESIC_TIMES)[:, None]
    moved = np.concatenate([geodesic_points(*frames, t) for t in GEODESIC_TIMES])
    along = distances(np.tile(v, (len(GEODESIC_TIMES), 1, 1)), moved)
    scaling = np.max(np.abs(along.reshape(len(GEODESIC_TIMES), -1) - times * d), initial=0.0)
    inner = geodesic_frames(pi @ a, pi @ b)[:3]
    points = [geodesic_points(*inner, t) for t in GEODESIC_TIMES]
    containment = max(np.max(np.abs(x - pi @ (pi.T @ x)), initial=0.0) for x in points)
    return GeodesicSuiteResult(samples, float(sym), float(triangle), float(scaling),
                               float(containment), time.perf_counter() - start)


@dataclass(frozen=True)
class ProjectionSuiteResult(_Result):
    samples: int
    contenders: int
    max_containment_residual: float
    min_minimality_slack: float
    runtime: float

    @property
    def passed(self) -> bool:
        return (self.max_containment_residual <= 1e-8
                and self.min_minimality_slack >= -1e-6)


def projection_suite(seed: int, samples: int = 500,
                     contenders: int = 200) -> ProjectionSuiteResult:
    """Nearest-point projection of lines onto the line-family of a random
    2-plane in R^3: ambient-projection containment plus minimality against
    random competitors."""
    if samples < 1 or contenders < 1:
        raise InvalidInputError(f"projection suite needs sizes >= 1, got {samples}, {contenders}")
    start = time.perf_counter()
    g = rng_for(seed, 2)
    # per sample: v (3x1), pi (3x2), then the contenders' coordinates in pi
    block = g.standard_normal((samples, 9 + 2 * contenders))
    v, pi = _blocks(g, block, ((3, 1), (3, 2)))
    res, dist, _ = project_stack(v, pi)
    projected = pi @ (np.swapaxes(pi, 1, 2) @ v)
    norms = np.linalg.norm(projected, axis=1, keepdims=True)
    keep = norms[:, 0, 0] > 1e-10
    x = projected[keep] / norms[keep]
    containment = np.max(np.abs(x - res[keep] @ (np.swapaxes(res[keep], 1, 2) @ x)),
                         initial=0.0)
    # contenders go by chunks of samples, so memory stays flat in the size
    step = max(1, CONTENDER_CHUNK // contenders)
    slack = np.inf
    for i in range(0, samples, step):
        # unit coordinate vectors; a zero draw is redrawn like a deficient basis
        units = orthonormal_draws(g, block[i:i + step, 9:].reshape(-1, 2, 1))
        lines = np.repeat(pi[i:i + step], contenders, axis=0) @ units
        d = distances(np.repeat(v[i:i + step], contenders, axis=0), lines)
        slack = min(slack, np.min(d.reshape(-1, contenders) - dist[i:i + step, None]))
    return ProjectionSuiteResult(samples, contenders, float(containment), float(slack),
                                 time.perf_counter() - start)


@dataclass(frozen=True)
class EmbeddingSuiteResult(_Result):
    samples: int
    incidence_disagreements: int
    parallelism_disagreements: int
    incident_pairs: int
    runtime: float

    @property
    def passed(self) -> bool:
        return (self.incidence_disagreements == 0
                and self.parallelism_disagreements == 0)


def embedding_draws(g, samples: int, l: int, m: int, n: int):
    """The embedding suite's draws, as blocks in this order: the chart
    m-planes v, the points on v of the even samples, the free chart points
    of the odd samples (uniform in [-0.9, 0.9]) and the second chart
    m-planes; each block's redraws follow it (see :mod:`grasskit.sampling`).
    Returns the stacks of v's bases and offsets, the points, and the second
    planes' bases and offsets."""
    v, offsets = random_chart_m_planes(g, samples, l, m, n)
    points = np.empty_like(offsets)
    points[0::2] = random_points_on(g, v[0::2], offsets[0::2])
    points[1::2] = g.uniform(-0.9, 0.9, size=points[1::2].shape)
    return [v, offsets, points, *random_chart_m_planes(g, samples, l, m, n)]


def embedding_suite(seed: int, samples: int = 1000, l: int = 1, m: int = 2,
                    n: int = 4) -> EmbeddingSuiteResult:
    """Incidence and parallelism agree exactly with the product embedding."""
    if samples < 1:
        raise InvalidInputError(f"embedding suite needs samples >= 1, got {samples}")
    start = time.perf_counter()
    tol = 1e-9
    v, offsets, points, w, w_offsets = embedding_draws(rng_for(seed, 3), samples, l, m, n)
    check_chart_box(points)
    # odd samples pair v with the second draw's offsets on v's own direction
    odd = np.arange(samples) % 2 == 1
    w[odd] = v[odd]
    w_offsets[odd] = chart_offsets(v[odd], w_offsets[odd])
    chart_side = incidences(v, offsets, points, tol)
    big, big_offsets = embed_tilde_stack(v, offsets)
    tilde_side = point_distances(big, big_offsets, points.reshape(samples, -1)) <= tol
    par_chart = same_stack(v, w, tol)
    par_tilde = same_stack(big, embed_tilde_stack(w, w_offsets)[0], tol)
    return EmbeddingSuiteResult(samples, int(np.sum(chart_side != tilde_side)),
                                int(np.sum(par_chart != par_tilde)), int(np.sum(chart_side)),
                                time.perf_counter() - start)


@dataclass(frozen=True)
class ChartSuiteResult(_Result):
    samples: int
    max_point_roundtrip: float
    max_projective_roundtrip: float
    ratio_low: float
    ratio_high: float
    ratio_prefix_low: float
    ratio_prefix_high: float
    runtime: float

    @property
    def passed(self) -> bool:
        n = 3
        return (self.max_point_roundtrip <= 1e-10
                and self.max_projective_roundtrip <= 1e-10
                and self.ratio_high <= 100 * n
                and self.ratio_low >= 1.0 / (100 * n)
                and self.ratio_prefix_low >= self.ratio_low
                and self.ratio_prefix_high <= self.ratio_high)


def chart_draws(g, samples: int):
    """The chart suite's draws, as blocks in this order: the chart points of
    (1, 3), uniform in [-0.9, 0.9]; then for the first lines of R^3 and
    then the second, a block of directions (deficient draws redrawn after
    it) and a block of offsets, uniform in [-0.25, 0.25]^3.  Returns the
    points and each line stack's bases and drawn offsets."""
    points = g.uniform(-0.9, 0.9, size=(samples, 2, 2))
    b1, o1 = random_subspaces(g, samples, 3, 1), g.uniform(-0.25, 0.25, size=(samples, 3))
    b2, o2 = random_subspaces(g, samples, 3, 1), g.uniform(-0.25, 0.25, size=(samples, 3))
    return points, b1, o1, b2, o2


def chart_suite(seed: int, samples: int = 500) -> ChartSuiteResult:
    """Chart and projective round trips plus the two-metric comparability
    ratios (recorded over a prefix and the full sample; the prefix bounds
    must nest inside the full ones)."""
    if samples < 2:
        raise InvalidInputError(f"chart suite needs samples >= 2, got {samples}")
    start = time.perf_counter()
    points, b1, o1, b2, o2 = chart_draws(rng_for(seed, 4), samples)
    check_chart_box(points)
    chart = Chart(1, 3)
    back = chart.points_of(*chart.planes_of(points))
    rt_point = np.max(np.abs(back - points), initial=0.0)
    o1, o2 = affine_offsets(b1, o1), affine_offsets(b2, o2)
    lifted = to_projective_stack(b1, o1)
    diff = from_projective_stack(lifted)[1] - o1
    rt_proj = np.max(np.sqrt(np.vecdot(diff, diff)), initial=0.0)
    d = distances(lifted, to_projective_stack(b2, o2))
    keep = d > 1e-6
    ratios = rho_distances(b1[keep], o1[keep], b2[keep], o2[keep]) / d[keep]
    half = ratios[:len(ratios) // 2]
    return ChartSuiteResult(samples, float(rt_point), float(rt_proj),
                            float(np.min(ratios)), float(np.max(ratios)),
                            float(np.min(half)), float(np.max(half)),
                            time.perf_counter() - start)


# per-suite cap on the draws a suite holds up front: the geodesic and
# projection suites' Gaussian blocks, and the embedding and chart suites'
# raw draws, counted in samples; the projection block sets the trip point
SUITE_WORK_CAP = 1_000_000


def run_all(seed: int, scale: float = 1.0) -> dict:
    """All invariant suites at a size factor (1.0 = acceptance sizes)."""
    geo, proj, contenders, emb, chart = (max(10, int(base * scale))
                                         for base in (1000, 500, 200, 1000, 500))
    work = max(GEODESIC_WIDTH * geo, proj * (9 + 2 * contenders), emb, chart)
    if work > SUITE_WORK_CAP:
        raise ResourceCapError(f"suite_scale {scale} needs {work} draws or samples "
                               f"in one suite, above the cap {SUITE_WORK_CAP}")
    suites = {
        "geodesic": geodesic_suite(seed, geo),
        "projection": projection_suite(seed, proj, contenders),
        "embedding": embedding_suite(seed, emb),
        "chart": chart_suite(seed, chart),
    }
    return {name: res.to_dict() for name, res in suites.items()}
