"""The batched invariant suites: their Gaussian block is the stream of the
per-sample draws, and their results at fixed seeds and sizes are pinned."""

import numpy as np
import pytest

from grasskit import selftest
from grasskit.sampling import rng_for


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
