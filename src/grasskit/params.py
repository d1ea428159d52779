"""Family parameters, the exponent range and the classifier's constants, in
plain Python: a config is checked without loading numpy or any layer."""

import math
from dataclasses import dataclass

from .errors import InvalidInputError


@dataclass(frozen=True)
class FamilyParams:
    """Dimension parameters (l, m, d, n, beta) of a plane-family problem."""

    l: int
    m: int
    d: int
    n: int
    beta: float

    def __post_init__(self):
        if not 0 <= self.l <= self.m <= self.d < self.n:
            raise InvalidInputError("need 0 <= l <= m <= d < n")
        if not 0.0 <= self.beta <= self.m + 1:
            raise InvalidInputError("need beta in [0, m+1]")

    @property
    def spacing_exponent(self) -> float:
        return (self.m + 1) * (self.d - self.m) + self.beta

    @property
    def union_dimension_target(self) -> float:
        return (self.l + 1) * (self.d - self.l) + min(self.l + 1, self.beta)

    def to_dict(self) -> dict:
        return {"l": self.l, "m": self.m, "d": self.d, "n": self.n, "beta": self.beta}


def admissible_p_max(l: int, m: int, d: int, beta: float) -> float:
    """Upper end of the exponent range for the counting inequality.

    The three terms are (d-m+beta+1)/(d-m+beta), (d+beta)/(d+beta-1/(d-m+2))
    and d-m+2.  When d-m+beta = 0 (beta = 0 at d = m) the first ratio
    degenerates; beta is then replaced by l+1 in that ratio, the same
    substitution the dimension argument uses to avoid beta = 0.  The result
    is always > 1.  Reading the first ratio's m as l gives the same minimum:
    for l < m, d >= 1, and either reading keeps that ratio at or above the
    second.
    """
    if not 0 <= l <= m <= d:
        raise InvalidInputError("need 0 <= l <= m <= d")
    if not 0.0 <= beta <= m + 1:
        raise InvalidInputError("need beta in [0, m+1]")
    t3 = float(d - m + 2)
    denom1 = d - m + beta
    if denom1 <= 1e-12:
        denom1 = d - m + (l + 1.0)
    t1 = (denom1 + 1.0) / denom1 if denom1 > 0 else math.inf
    denom2 = d + beta - 1.0 / t3
    t2 = (d + beta) / denom2 if denom2 > 0 else math.inf
    return float(min(t1, t2, t3))


@dataclass(frozen=True)
class ClassifierConstants:
    """Concrete values for the classifier's 'sufficiently large' constants."""

    K: int
    c1: float
    c_tilde: float
    c_prime: float

    @classmethod
    def for_params(cls, params: FamilyParams, K: int | None = None) -> "ClassifierConstants":
        if params.l == params.m:
            # the m-planes are the l-planes: zero-dimensional directions
            raise InvalidInputError("the classifier needs l < m")
        n = params.n
        c_tilde = 10.0 * n
        c_prime = 10.0 * c_tilde ** (params.d - params.l + 1)
        c1 = 100.0 * n * n
        if K is None:
            K = feasible_K(params)
        return cls(int(K), c1, c_tilde, c_prime)

    def ball_radius(self, n: int) -> float:
        return float(self.K) ** (-n)

    def step_threshold(self, params: FamilyParams) -> float:
        """Per-step residual bound for the greedy tuple construction; large
        enough that the final certificate volume clears c_prime K^-n."""
        steps = params.d - params.m + 1
        vol_target = self.c_prime * self.K ** (-params.n)
        per_step = vol_target ** (1.0 / steps) if steps else 0.0
        return max(self.c_tilde / self.K, per_step)


def feasible_K(params: FamilyParams) -> int:
    """Smallest power of two making the default constants usable at desk
    scale: the per-step threshold and the volume target must fit below 1/2
    (unit vectors cannot exceed volume 1)."""
    K = 2
    while K < 2 ** 24:
        c = ClassifierConstants.for_params(params, K)
        if c.c_tilde / K <= 0.5 and c.c_prime * K ** (-params.n) <= 0.5:
            return K
        K *= 2
    raise InvalidInputError("no feasible K below 2^24")
