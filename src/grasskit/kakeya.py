"""Plane-family experiments: sharp-example generation, the broad-narrow
classifier with transversality certificates, the subspace-dimension
counting functional and the counting-inequality verifier.

Families are finite separated subsets of the chart of m-planes.  Their
metric is the Euclidean metric on the feature embedding

    V  ->  (vec(P_direction)/sqrt(2), offset_0, ..., offset_l),

which is comparable to the chart metric on bounded sets (the projector
part is the chordal distance between directions).

A family of M members is held as arrays, with q = n-l and r = m-l:
``directions`` (M, q, r) orthonormal section bases and ``offsets``
(M, l+1, q) section offsets orthogonal to them.  Generation, union
sampling, the slab neighborhoods and the feature embedding work on these
arrays; ``PlaneFamily.members`` gives ``ChartMPlane`` views of the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .affine import ChartMPlane, ChartPoint, chart_offsets, embed_tilde
from .discretize import (CELL_CAP, SlabNeighborhood, GridCounter, build_direction_net,
                         cells_per_axis, min_pairwise_distance, spacing_report,
                         SpacingReport)
from .errors import CertificateError, InvalidInputError, ResourceCapError
from .grassmann import (Subspace, check_bases, distances, project_to_sub_grassmannian,
                        random_subspaces)


# ---------------------------------------------------------------- params

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
    def chart_dim(self) -> int:
        """N = (n-l)(l+1), the dimension of the chart of l-planes."""
        return (self.n - self.l) * (self.l + 1)

    @property
    def embedded_plane_dim(self) -> int:
        """k = (m-l)(l+1), the dimension of an embedded product plane."""
        return (self.m - self.l) * (self.l + 1)

    @property
    def union_dimension_target(self) -> float:
        return (self.l + 1) * (self.d - self.l) + min(self.l + 1, self.beta)

    def to_dict(self) -> dict:
        return {"l": self.l, "m": self.m, "d": self.d, "n": self.n, "beta": self.beta}

    @classmethod
    def from_dict(cls, data: dict) -> "FamilyParams":
        return cls(int(data["l"]), int(data["m"]), int(data["d"]),
                   int(data["n"]), float(data["beta"]))


def admissible_p_max(l: int, m: int, d: int, beta: float,
                     k_value: int | None = None) -> float:
    """Upper end of the exponent range for the counting inequality.

    The three terms are (d-k+beta+1)/(d-k+beta), (d+beta)/(d+beta-1/(d-m+2))
    and d-m+2, with k read as m by default.  When d-k+beta = 0 (beta = 0 at
    d = m) the first ratio degenerates; beta is then replaced by l+1 in that
    ratio, the same substitution the dimension argument uses to avoid
    beta = 0.  The result is always > 1.
    """
    if not 0 <= l <= m <= d:
        raise InvalidInputError("need 0 <= l <= m <= d")
    if not 0.0 <= beta <= m + 1:
        raise InvalidInputError("need beta in [0, m+1]")
    k = m if k_value is None else int(k_value)
    t3 = float(d - m + 2)
    denom1 = d - k + beta
    if denom1 <= 1e-12:
        denom1 = d - k + (l + 1.0)
    t1 = (denom1 + 1.0) / denom1 if denom1 > 0 else math.inf
    denom2 = d + beta - 1.0 / t3
    t2 = (d + beta) / denom2 if denom2 > 0 else math.inf
    return float(min(t1, t2, t3))


# --------------------------------------------------------------- families

def _flat_rows(a: np.ndarray) -> np.ndarray:
    return a.reshape(a.shape[0], math.prod(a.shape[1:]))


@dataclass(frozen=True, init=False, eq=False)
class PlaneFamily:
    """A finite separated family of chart m-planes at one scale.

    The M members are held as two read-only arrays, with q = n-l and
    r = m-l: ``directions`` (M, q, r), the orthonormal bases of the section
    directions, and ``offsets`` (M, l+1, q), the section offsets, each row
    orthogonal to its direction and inside the chart box.  ``members`` is a
    tuple of ``ChartMPlane`` views of these rows, built on each access; a
    view shares its family's offsets and is not projected again.  Slab
    geometry takes the arrays: ``SlabNeighborhood(family, delta)``.
    :meth:`from_arrays` is the one constructor.
    """

    params: FamilyParams
    scale: float
    directions: np.ndarray
    offsets: np.ndarray
    _features: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def from_arrays(cls, params: FamilyParams, scale: float, directions: np.ndarray,
                    offsets: np.ndarray) -> "PlaneFamily":
        """Family over stacked member arrays, checked as ``ChartMPlane``
        checks one member: the directions must be orthonormal, and the
        offsets are projected orthogonal to them and kept in the chart box."""
        q, r = params.n - params.l, params.m - params.l
        directions = np.asarray(directions, dtype=float)
        if directions.shape[1:] != (q, r) or np.shape(offsets)[1:] != (params.l + 1, q):
            raise InvalidInputError("member shapes do not match the family parameters")
        family = object.__new__(cls)
        object.__setattr__(family, "params", params)
        object.__setattr__(family, "scale", scale)
        object.__setattr__(family, "directions", linalg.frozen(check_bases(directions)))
        object.__setattr__(family, "offsets", linalg.frozen(
            chart_offsets(directions, np.asarray(offsets, dtype=float))))
        return family

    def __len__(self) -> int:
        return self.directions.shape[0]

    def member(self, index: int) -> ChartMPlane:
        return ChartMPlane.view(self.directions[index], self.offsets[index])

    @property
    def members(self) -> tuple[ChartMPlane, ...]:
        return tuple(self.member(i) for i in range(len(self)))

    def feature_matrix(self) -> np.ndarray:
        """Rows embed members into Euclidean space for separation/spacing:
        the projector D D^T / sqrt(2) of each direction, then the offsets."""
        if self._features is None:
            proj = self.directions @ np.swapaxes(self.directions, 1, 2) / math.sqrt(2.0)
            object.__setattr__(self, "_features",
                               np.concatenate([_flat_rows(proj), _flat_rows(self.offsets)], axis=1))
        return self._features

    def min_separation(self) -> float:
        return float(min_pairwise_distance(self.feature_matrix()))

    def spacing(self) -> SpacingReport:
        return spacing_report(self.feature_matrix(), self.scale, self.params.spacing_exponent)


# ------------------------------------------------- sharp example generator

def digit_set(beta: float, levels: int) -> list[int]:
    """Positions 1..levels kept by a density-beta digit selection."""
    return [i for i in range(1, levels + 1)
            if math.floor(i * beta) > math.floor((i - 1) * beta)]


def cantor_points(lo: float, hi: float, beta: float, pitch: float) -> np.ndarray:
    """Deterministic set of box dimension ``beta`` inside [lo, hi].

    Points are all subset sums of the scaled digits 2^-i with i running
    over a density-beta digit set; the count at resolution ``pitch`` is
    about ((hi-lo)/pitch)^beta and neighboring points are >= pitch apart.
    """
    span = hi - lo
    if span <= 0:
        raise InvalidInputError("empty interval")
    if pitch >= span or beta <= 0.0:
        return np.array([lo + span / 2.0 if beta <= 0.0 else lo])
    levels = int(math.floor(math.log2(span / pitch)))
    digits = digit_set(min(beta, 1.0), levels)
    values = np.array([0.0])
    for i in digits:
        values = np.concatenate([values, values + span * 2.0 ** (-i)])
    return lo + np.sort(values)


@dataclass(frozen=True)
class _Axis:
    """One generator coordinate: an index into a parameter block plus the
    1-d point set placed on it."""

    kind: str          # "tilt" | "offset" | "base"
    index: tuple
    points: np.ndarray


def _graded_axes(specs: list[tuple[str, tuple, float, float]], budget: float,
                 pitch: float) -> list[_Axis]:
    """Assign a full grid to the first floor(budget) axes, a Cantor set of
    the fractional dimension to the next, and anchors beyond."""
    axes = []
    remaining = budget
    for kind, index, lo, hi in specs:
        b = min(1.0, max(0.0, remaining))
        axes.append(_Axis(kind, index, cantor_points(lo, hi, b, pitch)))
        remaining -= b
    if remaining > 1e-9:
        raise InvalidInputError("dimension budget exceeds the available axes")
    return axes


def _sharp_axes(params: FamilyParams, delta: float):
    """Generator axes of the sharp example and the slice columns that carry
    the direction: returns (axes, base_cols, tilt_cols).

    For beta > l+1 members form a graded net inside the m-planes of a
    (d+1)-dimensional coordinate subspace; for beta <= l+1 they form a full
    net of the m-planes inside d-planes fibered over a beta-dimensional
    base set in the leading slice coordinates.  Direction column a is the
    unit vector on ``base_cols[a]`` tilted by the ``tilt_cols`` entries.
    """
    l, m, d, n = params.l, params.m, params.d, params.n
    pitch = 2.0 * delta
    n_i = n - d                    # leading slice coordinates (the base block)
    n_j = d - l                    # middle slice coordinates (direction block)
    r = m - l                      # section dimension
    j_axes = list(range(n_i, n_i + n_j))
    # beta > l+1: members inside the (d+1)-plane spanned by the first base
    # axis, the direction block and the slice shifts
    dir_axes = [0] + j_axes if params.beta > l + 1 else j_axes
    base_cols, tilt_cols = dir_axes[:r], dir_axes[r:]
    tilts = [("tilt", (a, b), -0.45, 0.45) for a in range(r) for b in range(len(tilt_cols))]
    shifts = [("offset", (jj, ax), -0.85, 0.85) for jj in range(l + 1) for ax in tilt_cols]
    if params.beta > l + 1:
        specs = shifts + tilts
    else:
        specs = tilts + shifts + [("base", (jj, ax), -0.85, 0.85)
                                  for jj in range(l + 1) for ax in range(n_i)]
    return _graded_axes(specs, params.spacing_exponent, pitch), base_cols, tilt_cols


def generate_sharp_example(params: FamilyParams, delta: float) -> PlaneFamily:
    """Deterministic family realizing the sharp-example constructions (see
    :func:`_sharp_axes`).  Grids use pitch 2*delta so the family is
    delta-separated with the spacing constant recorded by
    :meth:`PlaneFamily.spacing`.

    Member i takes on each axis the point indexed by its digit in the
    mixed-radix expansion of i (first axis least significant); all members
    are evaluated at once as arrays.
    """
    axes, base_cols, tilt_cols = _sharp_axes(params, delta)
    sizes = [len(a.points) for a in axes]
    total = math.prod(sizes)
    if total > 2_000_000:
        raise ResourceCapError(f"sharp example would have {total} members")

    r = params.m - params.l
    cols = np.zeros((total, params.n - params.l, r))
    cols[:, base_cols, range(r)] = 1.0
    offsets = np.zeros((total, params.l + 1, params.n - params.l))
    flat, stride = np.arange(total), 1
    for ax, size in zip(axes, sizes):
        vals = ax.points[flat // stride % size]
        stride *= size
        if ax.kind == "tilt":
            cols[:, tilt_cols[ax.index[1]], ax.index[0]] = vals
        else:  # "offset" and "base" both shift a slice coordinate
            offsets[:, ax.index[0], ax.index[1]] += vals
    directions = linalg.orthonormalize_stack(cols)[0]
    return PlaneFamily.from_arrays(params, delta, directions, offsets)


# candidate rows (tick-lattice points of the slice products) evaluated per
# chunk of members by union_sample_points; bounds its temporaries
UNION_CHUNK_ROWS = 1 << 18


def union_sample_points(family: PlaneFamily, cap: int = 6_000_000) -> np.ndarray:
    """Point sample of the union of the member plane-sets in the chart.

    Each member contributes the product over slices of a sample of its
    section inside the box at pitch half the family's scale, which keeps
    box counts at that scale exact up to boundary slivers.  Section j of a
    member is sampled on the tick lattice offset_j + D t, t in ticks^r,
    evaluated for a chunk of members at once; rows come member by member,
    slice 0 varying slowest.  ResourceCapError when the total exceeds
    ``cap``.
    """
    pitch = family.scale / 2.0
    _, copies, q = family.offsets.shape
    r = family.directions.shape[2]
    half = math.sqrt(q)
    ticks = np.arange(-half, half + pitch / 2.0, pitch)
    mesh = np.meshgrid(*([ticks] * r), indexing="ij")
    coeff = np.column_stack([g.ravel() for g in mesh]) if r else np.zeros((1, 0))
    step = max(1, UNION_CHUNK_ROWS // len(coeff) ** copies)
    out = []
    total = 0
    for start in range(0, len(family), step):
        offsets = family.offsets[start:start + step]
        span = coeff @ np.swapaxes(family.directions[start:start + step], 1, 2)
        pts, keep = [], None
        for j in range(copies):
            if r:
                p = offsets[:, j, None, :] + span
                inside = np.abs(p[..., 0]) <= 1.0
                for a in range(1, q):
                    inside &= np.abs(p[..., a]) <= 1.0
            else:  # a point section is taken as it is
                p = offsets[:, j, None, :]
                inside = np.ones(p.shape[:2], dtype=bool)
            pts.append(p)
            # keep[c, t_0, ..., t_j]: member c keeps the tick tuple
            keep = inside if keep is None else \
                keep[..., None] & inside.reshape(len(p), *([1] * j), -1)
        # flat row indices and np.take: far faster than a boolean or a
        # two-array index over the (member, tick) axes
        idx = np.unravel_index(np.flatnonzero(keep), keep.shape)
        rows = np.concatenate([np.take(p.reshape(-1, q), idx[0] * p.shape[1] + idx[j + 1], axis=0)
                               for j, p in enumerate(pts)], axis=1)
        total += rows.shape[0]
        if total > cap:
            raise ResourceCapError("union sample exceeds the point cap")
        out.append(rows)
    return np.concatenate(out) if out else np.zeros((0, family.params.chart_dim))


# ------------------------------------------------------------------ bush

@dataclass(frozen=True)
class BushDirections:
    """Directions of the family members whose slabs touch the ball around
    an anchor chart point, snapped to a separated direction net."""

    anchor: ChartPoint
    entries: tuple[tuple[Subspace, tuple[int, ...]], ...]

    @property
    def directions(self) -> list[Subspace]:
        return [e[0] for e in self.entries]

    @property
    def counts(self) -> list[int]:
        return [len(e[1]) for e in self.entries]

    def total(self) -> int:
        return sum(self.counts)


def bush_directions(anchor: ChartPoint, family: PlaneFamily) -> BushDirections:
    """Members whose slab neighborhood meets the delta-ball of the anchor,
    viewed as directions of :func:`build_direction_net` at the family's
    scale."""
    delta = family.scale
    touching = np.flatnonzero(SlabNeighborhood(family, delta).chart_distance(anchor) <= delta)
    if not touching.size:
        return BushDirections(anchor, ())
    net = build_direction_net(family.params.m - family.params.l,
                              family.params.n - family.params.l, delta)
    bases = np.stack([u.basis for u in net])
    buckets: dict[int, list[int]] = {}
    for i in touching.tolist():
        direction = np.broadcast_to(family.directions[i], bases.shape)
        buckets.setdefault(int(np.argmin(distances(direction, bases))), []).append(i)
    entries = tuple((net[key], tuple(idx)) for key, idx in sorted(buckets.items()))
    return BushDirections(anchor, entries)


# ------------------------------------------------------ broad-narrow step

@dataclass(frozen=True)
class ClassifierConstants:
    """Concrete values for the classifier's 'sufficiently large' constants."""

    K: int
    c1: float
    c_tilde: float
    c_prime: float

    @classmethod
    def for_params(cls, params: FamilyParams, K: int | None = None) -> "ClassifierConstants":
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


@dataclass(frozen=True)
class TransverseTuple:
    """A (d-m+2)-tuple of direction balls with a volume certificate: the
    spanned parallelepiped of the witness vectors is too large for any
    (d-l)-plane to approximately contain all the balls."""

    centers: tuple[Subspace, ...]
    radius: float
    vectors: np.ndarray
    volume: float
    threshold: float
    K: int

    def certified(self) -> bool:
        return self.volume >= self.threshold - 1e-12


@dataclass(frozen=True)
class Narrow:
    """Witness plane with at least half the selected balls near the
    sub-Grassmannian of subspaces inside it."""

    witness: Subspace
    covered_fraction: float
    selected: tuple

    kind = "narrow"


@dataclass(frozen=True)
class Broad:
    tuple: TransverseTuple
    selected: tuple

    kind = "broad"


def _select_balls(bush: BushDirections, constants: ClassifierConstants, n: int):
    """Significant, comparable-count, separated ball selection.

    Balls are centered on bush directions (greedy cover at radius K^-n),
    filtered at the significance fraction K^(-n^4), grouped in dyadic count
    classes (the largest class wins), then thinned to 100 K^-n separation.
    """
    radius = constants.ball_radius(n)
    total = bush.total()
    try:
        significance = total * math.exp(-(float(n) ** 4) * math.log(constants.K))
    except OverflowError:
        significance = 0.0
    order = sorted(range(len(bush.entries)), key=lambda i: (-bush.counts[i], i))
    dirs = np.stack([u.basis for u in bush.directions])
    dist = distances(np.repeat(dirs, len(dirs), axis=0),  # dist[i, j]: from i to j
                     np.tile(dirs, (len(dirs), 1, 1))).reshape(len(dirs), -1)
    centers: list[tuple[int, list[int]]] = []
    assigned = set()
    for i in order:
        if i in assigned:
            continue
        members = list(bush.entries[i][1])
        assigned.add(i)
        for j in order:
            if j in assigned:
                continue
            if dist[i, j] <= radius:
                members.extend(bush.entries[j][1])
                assigned.add(j)
        centers.append((i, members))
    centers = [(c, ms) for c, ms in centers if len(ms) >= significance]
    classes: dict[int, list[tuple[int, list[int]]]] = {}
    for c, ms in centers:
        classes.setdefault(int(math.floor(math.log2(len(ms)))), []).append((c, ms))
    best_class = max(classes, key=lambda k: (sum(len(ms) for _, ms in classes[k]), k))
    chosen = []
    for c, ms in sorted(classes[best_class], key=lambda e: -len(e[1])):
        if all(dist[c, c2] > 100.0 * radius for c2, _ in chosen):
            chosen.append((c, ms))
    return [(bush.entries[c][0], ms) for c, ms in chosen]


def broad_narrow_classify(bush: BushDirections, params: FamilyParams,
                          K: int | None = None) -> Narrow | Broad:
    """Classify a direction bush.

    The greedy certificate construction runs first: starting from the
    heaviest ball's orthonormal basis it keeps adding a unit vector from
    some ball at maximal distance from the span so far.  Completing
    d-l+1 vectors certifies a transverse tuple (Broad); getting stuck
    means every ball direction hugs the current span, whose extension to a
    (d-l)-plane is a Narrow witness covering all selected balls.
    """
    if not bush.entries:
        raise InvalidInputError("empty bush")
    constants = ClassifierConstants.for_params(params, K)
    q = params.n - params.l
    selected = _select_balls(bush, constants, params.n)
    threshold = constants.step_threshold(params)

    first = selected[0][0]
    vectors = [first.basis[:, i] for i in range(first.dim)]
    balls = [first]
    target = params.d - params.l + 1
    while len(vectors) < target:
        if vectors:
            span = linalg.orthonormalize(np.column_stack(vectors)).matrix
        else:
            span = np.zeros((q, 0))
        best = (-1.0, None, None)
        for center, _ in selected:
            resid = center.basis - span @ (span.T @ center.basis)
            dec = linalg.svd(resid)
            sigma = float(dec.singular_values[0]) if len(dec.singular_values) else 0.0
            if sigma > best[0]:
                vec = center.basis @ dec.right[:, 0]
                best = (sigma, vec / np.linalg.norm(vec), center)
        sigma, vec, ball = best
        if sigma < threshold:
            witness_dim = params.d - params.l
            padded = linalg.orthonormal_completion(span, q)[:, :witness_dim]
            witness = Subspace(padded)
            near = sum(
                1 for center, _ in selected
                if project_to_sub_grassmannian(center, witness).distance
                <= constants.c1 / constants.K
            )
            return Narrow(witness, near / len(selected), tuple(selected))
        vectors.append(vec)
        balls.append(ball)

    volume = linalg.gram_volume(np.column_stack(vectors))
    vol_target = constants.c_prime * constants.K ** (-params.n)
    tup = TransverseTuple(tuple(balls), constants.ball_radius(params.n),
                          linalg.frozen(np.column_stack(vectors)), volume,
                          vol_target, constants.K)
    if not tup.certified():
        # the per-step threshold guarantees this cannot happen
        raise CertificateError("greedy certificate below the volume target")
    return Broad(tup, tuple(selected))


def random_transverse_tuple(params: FamilyParams, rng: np.random.Generator,
                            K: int | None = None) -> TransverseTuple:
    """Certified tuple from classifying a random bush of 4(d-l+2)
    directions."""
    r = params.m - params.l
    q = params.n - params.l
    count = 4 * (params.d - params.l + 2)
    anchor = ChartPoint(np.zeros((params.l + 1, q)))
    for _ in range(64):
        entries = tuple((Subspace(b), (i,))
                        for i, b in enumerate(random_subspaces(rng, count, q, r)))
        bush = BushDirections(anchor, entries)
        result = broad_narrow_classify(bush, params, K=K)
        if isinstance(result, Broad):
            return result.tuple
    raise InvalidInputError("could not draw a broad bush (parameters too tight)")


# -------------------------------------------------- counting functionals

DIM_PROJECTION_TOL = 1e-9


def dim_projection(u: Subspace, w: Subspace, tol: float = DIM_PROJECTION_TOL) -> int:
    """dim of the orthogonal projection of u into w: the count of principal
    cosines above ``tol`` (absolute, so a rounding-size overlap counts 0)."""
    if u.dim == 0 or w.dim == 0:
        return 0
    return int(np.sum(linalg.singular_values(w.basis.T @ u.basis) > tol))


@dataclass(frozen=True)
class BlInstance:
    """best_value is the maximum over the +/∩ lattice of the kernels
    K_j = W_j-perp of dim U - (p/J) sum_j dim proj_{W_j} U, a lower bound
    of its supremum over all subspaces U."""

    subspaces: tuple[Subspace, ...]
    p: float
    best_value: float
    best_candidate: Subspace
    n_candidates: int

    def value_of(self, u: Subspace) -> float:
        j = len(self.subspaces)
        total = sum(dim_projection(u, w) for w in self.subspaces)
        return u.dim - (self.p / j) * total


# Three generators span a modular lattice of at most 28 members (Dedekind),
# 30 with 0 and R^N, so only J >= 4 kernels can reach the cap.
LATTICE_CAP = 256
LATTICE_TOL = 1e-9  # projector entries closer than this are equal
CROSS_CHECK_DRAWS = 12  # random subspaces per proper dimension in verify_bl_bound


def kernel_lattice(subspaces) -> list[Subspace]:
    """The closure of {0, R^N, K_1..K_J} (K_j = W_j-perp) under sum and
    intersection, in order of discovery: a worklist pairs each new member
    with every earlier one, skipping comparable pairs (P_a P_b = P_a or P_b),
    and members are told apart by their projectors P.  Raises
    ResourceCapError beyond ``LATTICE_CAP`` members."""
    ambient = subspaces[0].ambient_dim
    members: list[Subspace] = []
    projectors = np.empty((LATTICE_CAP, ambient, ambient))

    def same(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.all(np.abs(a - b) <= LATTICE_TOL, axis=(-2, -1))

    def add(u: Subspace) -> None:
        proj = u.projector()
        if same(projectors[:len(members)], proj).any():
            return
        if len(members) == LATTICE_CAP:
            raise ResourceCapError(f"kernel lattice of {len(subspaces)} subspaces "
                                   f"exceeds {LATTICE_CAP} members")
        projectors[len(members)] = proj
        members.append(u)

    for u in [Subspace.zero(ambient), Subspace.full(ambient),
              *(w.complement() for w in subspaces)]:
        add(u)
    for b, ub in enumerate(members):  # the walk takes in members added on the way
        prods = projectors[:b] @ projectors[b]
        comparable = same(prods, projectors[:b]) | same(prods, projectors[b])
        for a in np.flatnonzero(~comparable):
            add(members[a].sum(ub))
            add(members[a].intersect(ub))
    return members


def bl_constant_lower(subspaces, p: float) -> BlInstance:
    """The dimension-counting functional at the maximum over the +/∩ lattice
    of the kernels (:func:`kernel_lattice`), a lower bound of its supremum."""
    ws = tuple(subspaces)
    if not ws:
        raise InvalidInputError("need at least one subspace")
    jj = len(ws)
    if not 1.0 <= p <= jj + 1e-12:
        raise InvalidInputError(f"exponent {p} outside [1, J={jj}]")
    candidates = kernel_lattice(ws)
    values = _functional_values(candidates, ws, p)
    # first candidate of the top value cluster (values sit on a lattice of
    # spacing far above 1e-12, so this is the first maximizer)
    best = int(np.flatnonzero(values >= values.max() - 1e-12)[0])
    return BlInstance(ws, float(p), float(values[best]), candidates[best],
                      len(candidates))


def _functional_values(candidates: list[Subspace], ws: tuple[Subspace, ...],
                       p: float) -> np.ndarray:
    """dim U - (p/J) sum_j dim proj_{W_j} U for every candidate U, with the
    projection ranks of all same-dimension candidates read off one batched
    singular-value call per W_j (the rule of :func:`dim_projection`)."""
    # grouped with a dict: np.unique would import numpy.ma, about 1 MB of
    # resident memory on an otherwise small process
    groups: dict[int, list[int]] = {}
    for i, u in enumerate(candidates):
        if u.dim:
            groups.setdefault(u.dim, []).append(i)
    totals = np.zeros(len(candidates), dtype=int)
    for idx in groups.values():
        stack = np.stack([candidates[i].basis for i in idx])
        for w in ws:
            if w.dim:
                sigma = np.linalg.svd(w.basis.T @ stack, compute_uv=False)
                totals[idx] += np.sum(sigma > DIM_PROJECTION_TOL, axis=-1)
    dims = np.array([u.dim for u in candidates])
    return dims - (p / len(ws)) * totals


def tuple_obstruction_subspaces(tup: TransverseTuple, params: FamilyParams) -> list[Subspace]:
    """The W_j of the counting functional: orthogonal complements (in the
    product space R^N) of the embedded tuple directions."""
    l = params.l
    out = []
    for center in tup.centers:
        plane = ChartMPlane(center, np.zeros((l + 1, params.n - params.l)))
        out.append(embed_tilde(plane).direction.complement())
    return out


@dataclass(frozen=True)
class BlBoundReport:
    instance: BlInstance
    rhs: float
    ok: bool
    slack: float


def verify_bl_bound(tup: TransverseTuple, params: FamilyParams, p: float,
                    rng: np.random.Generator | None = None) -> BlBoundReport:
    """Check the certified lower bound against the closed-form ceiling

        (l+1)(d-l) + beta - ((l+1)(d-m) + beta) p.

    A violation would falsify the transversality certificate or the case
    analysis behind the ceiling, so it is reported as a hard failure.

    With ``rng``, random subspaces of every proper dimension are scored too,
    and one that beats the lattice maximum raises CertificateError.
    """
    if not tup.certified():
        raise InvalidInputError("tuple is not certified transverse")
    if params.beta > params.l + 1:
        # the counting inequality (and hence this ceiling) assumes
        # beta <= l+1; larger beta is reduced before reaching it
        raise InvalidInputError("bound requires beta <= l+1")
    p_max = admissible_p_max(params.l, params.m, params.d, params.beta)
    if p > p_max + 1e-9:
        raise InvalidInputError(f"exponent {p} above the admissible maximum {p_max}")
    ws = tuple_obstruction_subspaces(tup, params)
    inst = bl_constant_lower(ws, p)
    if rng is not None:
        ambient = ws[0].ambient_dim
        draws = [Subspace(b) for r in range(1, ambient)
                 for b in random_subspaces(rng, CROSS_CHECK_DRAWS, ambient, r)]
        if draws and _functional_values(draws, ws, p).max() > inst.best_value + 1e-12:
            raise CertificateError("a random subspace beats the kernel-lattice maximum")
    l, m, d, beta = params.l, params.m, params.d, params.beta
    rhs = (l + 1) * (d - l) + beta - ((l + 1) * (d - m) + beta) * p
    return BlBoundReport(inst, float(rhs), inst.best_value <= rhs + 1e-9,
                         float(rhs - inst.best_value))


# ------------------------------------------------------- counting norms

def overlap_counter(slab: SlabNeighborhood) -> GridCounter:
    """Per-cell multiplicity of a slab stack's members on the chart grid at
    its scale."""
    dim = slab.offsets.shape[1] * slab.offsets.shape[2]
    if cells_per_axis(slab.scale) ** dim > CELL_CAP:
        raise ResourceCapError("chart grid exceeds the cell cap; coarsen delta")
    counter = GridCounter(slab.scale, dim)
    counter.add_cells(slab.cells())
    return counter


def lp_counting_norm(family: PlaneFamily, p: float) -> float:
    """Riemann-sum L^p norm of the slab overlap function on the chart grid:
    (sum over cells of count^p * delta^N)^(1/p), counts from cell centers;
    the left side of :func:`kakeya_rows`."""
    return kakeya_rows(family, [p], 0.0)[0].lhs


@dataclass(frozen=True)
class KakeyaRow:
    delta: float
    members: int
    lhs: float
    rhs: float
    ratio: float


@dataclass(frozen=True)
class KakeyaReport:
    p: float
    eps: float
    rows: tuple[KakeyaRow, ...]
    ratio_bound: float
    growth_bound: float

    @property
    def bounded(self) -> bool:
        return all(r.ratio <= self.ratio_bound for r in self.rows)

    @property
    def max_growth(self) -> float:
        growths = [b.ratio / a.ratio for a, b in zip(self.rows, self.rows[1:])
                   if a.ratio > 0]
        return max(growths, default=1.0)

    @property
    def growth_ok(self) -> bool:
        return self.max_growth <= self.growth_bound + 1e-9

    @property
    def ok(self) -> bool:
        return self.bounded and self.growth_ok

    def flags(self) -> dict:
        return {"bounded": self.bounded, "max_ratio": max(r.ratio for r in self.rows),
                "max_growth": self.max_growth, "growth_ok": self.growth_ok}


def kakeya_rows(family: PlaneFamily, p_values, eps: float) -> list[KakeyaRow]:
    """The rows of the counting-inequality sweep at the family's scale, one
    per exponent, from one slab stack: the L^p norms of its overlap counter
    against delta^-(r(d-m)(1-1/p)+eps) times its total measure^(1/p).  For
    a non-empty family both sides are positive, so a side that overflows
    or rounds to 0 raises InvalidInputError."""
    params, delta = family.params, family.scale
    slab = SlabNeighborhood(family, delta)
    counter = overlap_counter(slab)
    total = float(slab.measure().sum())
    rows = []
    for p in p_values:
        exponent = (params.m - params.l) * (params.d - params.m) * (1.0 - 1.0 / p) + eps
        try:
            lhs = (counter.lp_power_sum(p) * delta ** counter.dim) ** (1.0 / p)
            rhs = delta ** (-exponent) * total ** (1.0 / p)
        except OverflowError:
            lhs = rhs = math.inf
        if len(family) and not (0.0 < lhs < math.inf and 0.0 < rhs < math.inf):
            raise InvalidInputError(f"the row at p={p:g}, eps={eps:g}, delta={delta:g} "
                                    "leaves the double range")
        rows.append(KakeyaRow(delta, len(family), lhs, rhs, lhs / rhs if rhs > 0 else math.inf))
    return rows


def verify_kakeya_inequality(families, p: float, eps: float,
                             ratio_bound: float = 10.0,
                             growth_bound: float = 2.0) -> KakeyaReport:
    """Sweep the inequality ratio across families at decreasing scales.

    The statement is asymptotic, so acceptance is on boundedness of the
    ratio and on its growth per scale halving, not on a specific constant.
    """
    fams = list(families)
    if not fams:
        raise InvalidInputError("need at least one family")
    scales = [f.scale for f in fams]
    if any(b >= a for a, b in zip(scales, scales[1:])):
        raise InvalidInputError("families must come at strictly decreasing scales")
    rows = tuple(kakeya_rows(f, [p], eps)[0] for f in fams)
    return KakeyaReport(float(p), float(eps), rows, ratio_bound, growth_bound)
