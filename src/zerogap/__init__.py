"""zerogap: points far from polynomial zero sets, and covering refutation.

Constructive numerical routines for locating points on spheres and in balls
that stay provably far from the zero sets of real and complex polynomials,
plus refuters that turn those points into explicit counterexamples to
insufficient coverings by spherical segments and planks.
"""

from .ballfinder import (
    LiftedDiagnostics,
    PairCertificate,
    euclidean_zero_distance,
    lifted_diagnostics,
    multiplier_point,
    pair_point,
)
from .chebmult import (
    ConvergenceReport,
    ball_multiplier,
    cheb_eval,
    cheb_positive_zeros,
    cheb_tail_product,
    convergence_report,
    trig_tail_product,
)
from .complexproj import (
    ComplexGapReport,
    ComplexHomogPoly,
    WeightedSystem,
    chart_radius_check,
    complex_zero_distance,
    hermitian_angle,
    verify_complex_gap,
    verify_weighted_gap,
)
from .covering import (
    Plank,
    RefutationResult,
    SphericalSegment,
    refute_cover_ball,
    refute_cover_sphere,
    split_segments,
)
from .errors import VerificationError
from .polycore import (
    AffineForm,
    CirclePlane,
    MultiPoly,
    product_of_affine_forms,
    restrict_to_circle,
)
from .sphereopt import (
    SphereGapReport,
    SphereMaxResult,
    angular_distance_to_zero_set,
    maximize_abs_on_sphere,
    slice_distance,
    verify_sphere_gap,
)
from .trigcircle import (
    CircleZero,
    TrigPoly,
    ZeroGapReport,
    interlacing_check,
    trig_max_points,
    trig_zeros,
    zero_gap_certificate,
)

__version__ = "0.1.0"
