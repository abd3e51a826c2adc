"""Numerical geometry of Minkowski norms and the two-sticks problem.

The library computes and verifies, at floating-point scale, for the p-norms
with 1 < p < inf (the Euclidean norm being p = 2): normal maps, the gap
function h(x, y) = ||y|| - <y, N(x)>, moduli of geometric convexity,
empirical convexity/doubling/balance constants, Lipschitz and Hölder
endpoint estimates for equal-length directed segments satisfying the
two-sticks condition, the parallel-strip confinement of terminal gaps, and
the three-dimensional configurations showing the Hölder exponent is tight.
"""

from .norms import (
    EuclideanNorm,
    Norm,
    PNorm,
    ZeroVectorError,
)
from .gap import gap
from .convexity import (
    ConstantsReport,
    DegenerateSampleError,
    ModulusResult,
    OnevScanResult,
    PreconditionError,
    TransferReport,
    estimate_balanced,
    estimate_doubling,
    estimate_lambda,
    estimate_uniform_constants,
    extend_constants,
    extend_constants_to,
    moduli,
    modulus,
    onev_default_grid,
    onev_g,
    onev_scan,
    transfer_check,
)
from .sticks import (
    DegenerateStickError,
    PairVerdicts,
    Stick,
    StripReport,
    holder_ratio,
    pair_verdicts,
    segment_point_distance,
    strip_experiment,
    strip_experiments,
    two_sticks_check,
)
from .atlas import (
    NearestResult,
    RayFamily,
    SiteSet,
    build_ray_family,
    generate_strip_pairs,
    nearest_point,
)
from .sharpness import (
    SharpnessCurve,
    SharpnessInstance,
    construct_pgt2,
    construct_plt2,
    holder_exponent,
    sharpness_curve,
    solve_g,
)

__version__ = "0.1.0"

__all__ = [
    "EuclideanNorm", "Norm", "PNorm", "ZeroVectorError",
    "gap",
    "ConstantsReport", "DegenerateSampleError", "ModulusResult", "OnevScanResult",
    "PreconditionError", "TransferReport", "estimate_balanced", "estimate_doubling",
    "estimate_lambda", "estimate_uniform_constants", "extend_constants",
    "extend_constants_to", "moduli", "modulus", "onev_default_grid",
    "onev_g", "onev_scan", "transfer_check",
    "DegenerateStickError", "PairVerdicts", "Stick", "StripReport", "holder_ratio",
    "pair_verdicts", "segment_point_distance", "strip_experiment",
    "strip_experiments", "two_sticks_check",
    "NearestResult", "RayFamily", "SiteSet", "build_ray_family", "generate_strip_pairs",
    "nearest_point",
    "SharpnessCurve", "SharpnessInstance", "construct_pgt2", "construct_plt2",
    "holder_exponent", "sharpness_curve", "solve_g",
]
