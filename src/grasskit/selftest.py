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

from .affine import (Chart, affine_distance, embed_tilde, incidence, rho_distance,
                     ChartMPlane)
from .errors import ResourceCapError
from .grassmann import (distances, geodesic_frames, geodesic_points,
                        orthonormal_draws, project_stack)
from .sampling import (random_affine_plane, random_chart_m_plane,
                       random_chart_point, random_point_on, rng_for)


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
    start = time.perf_counter()
    g = rng_for(seed, 1)
    block = g.standard_normal((samples, GEODESIC_WIDTH))
    v, w, u, a, b = _blocks(g, block, GEODESIC_DRAWS)
    pi = np.eye(4)[:, :3]
    d = distances(v, w)
    sym = np.max(np.abs(d - distances(w, v)), initial=0.0)
    triangle = np.min(distances(v, u) + distances(u, w) - d, initial=np.inf)
    frames = geodesic_frames(v, w)[:3]
    scaling = max(np.max(np.abs(distances(v, geodesic_points(*frames, t)) - t * d),
                         initial=0.0) for t in GEODESIC_TIMES)
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


def embedding_suite(seed: int, samples: int = 1000, l: int = 1, m: int = 2,
                    n: int = 4) -> EmbeddingSuiteResult:
    """Incidence and parallelism agree exactly with the product embedding."""
    start = time.perf_counter()
    g = rng_for(seed, 3)
    bad_inc = bad_par = incident = 0
    tol = 1e-9
    for k in range(samples):
        v = random_chart_m_plane(g, l, m, n)
        if k % 2 == 0:
            p = random_point_on(g, v)
        else:
            p = random_chart_point(g, l, n, scale=0.9)
        chart_side = incidence(p, v, tol)
        tilde_side = embed_tilde(v).point_distance(p.stacked()) <= tol
        incident += chart_side
        bad_inc += chart_side != tilde_side
        v2 = (ChartMPlane(v.direction, random_chart_m_plane(g, l, m, n).offsets)
              if k % 2 else random_chart_m_plane(g, l, m, n))
        par_chart = v.parallel_to(v2, tol)
        par_tilde = embed_tilde(v).parallel_to(embed_tilde(v2), tol)
        bad_par += par_chart != par_tilde
    return EmbeddingSuiteResult(samples, bad_inc, bad_par, incident,
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


def chart_suite(seed: int, samples: int = 500) -> ChartSuiteResult:
    """Chart and projective round trips plus the two-metric comparability
    ratios (recorded over a prefix and the full sample; the prefix bounds
    must nest inside the full ones)."""
    from .affine import from_projective, to_projective
    start = time.perf_counter()
    g = rng_for(seed, 4)
    chart = Chart(1, 3)
    rt_point = rt_proj = 0.0
    ratios = []
    for _ in range(samples):
        cp = random_chart_point(g, 1, 3, scale=0.9)
        back = chart.point_of(chart.plane_of(cp))
        rt_point = max(rt_point, float(np.max(np.abs(back.coords - cp.coords))))
        pl = random_affine_plane(g, 3, 1, offset_scale=0.25)
        back_pl = from_projective(to_projective(pl))
        rt_proj = max(rt_proj, float(np.linalg.norm(back_pl.offset - pl.offset)))
        other = random_affine_plane(g, 3, 1, offset_scale=0.25)
        d = affine_distance(pl, other)
        if d > 1e-6:
            ratios.append(rho_distance(pl, other) / d)
    half = ratios[:len(ratios) // 2]
    return ChartSuiteResult(samples, rt_point, rt_proj,
                            float(min(ratios)), float(max(ratios)),
                            float(min(half)), float(max(half)),
                            time.perf_counter() - start)


# per-suite cap: Gaussians a batched suite draws up front, or per-sample samples
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
