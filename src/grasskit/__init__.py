"""grasskit: executable Grassmannian geometry and discretized plane-family
counting experiments.

Modules:

* ``linalg``     - small dense SVD (LAPACK, canonical signs and order),
                   ranks, orthonormalization, Gram volumes, the stacked
                   subspace sum and intersection kernel;
* ``grassmann``  - principal angles, distances, geodesics and projection
                   onto a sub-Grassmannian over (N, q, k) stacks of bases;
* ``affine``     - affine planes, the local chart, incidence, the product
                   embedding, the two comparable metrics;
* ``discretize`` - Grassmannian direction nets, slab neighborhoods, grid
                   counting, box-dimension fits, the spacing condition and
                   partition;
* ``kakeya``     - sharp-example families, broad-narrow classification,
                   transversality certificates, the subspace-dimension
                   counting functional, the counting-inequality verifier;
* ``sampling``   - seeded random constructions: one-sample draws and
                   their derivation on stacks;
* ``selftest``   - the seeded geometry invariant suites;
* ``cli``        - config-driven deterministic experiment runner.
"""

__version__ = "0.1.0"

from .grassmann import Subspace, distance, geodesic, principal_angles  # noqa: F401
from .affine import AffinePlane, Chart, ChartMPlane, ChartPoint, incidence  # noqa: F401
from .kakeya import FamilyParams, PlaneFamily, admissible_p_max  # noqa: F401
