"""Numerical geometry of Minkowski norms and the two-sticks problem.

The library computes and verifies, at floating-point scale: norm normal
maps, the gap function h(x, y) = ||y|| - <y, N(x)>, moduli of geometric
convexity, empirical convexity/doubling/balance constants, Lipschitz and
Hölder endpoint estimates for equal-length directed segments satisfying the
two-sticks condition, the parallel-strip confinement of terminal gaps, and
the three-dimensional configurations showing the Hölder exponent for
p-norms is tight.
"""

from .norms import (
    EuclideanNorm,
    Norm,
    NormValidationReport,
    PluginNorm,
    PNorm,
    TangentDecomposition,
    ZeroVectorError,
    finite_diff_gradient,
    norm_from_json,
    tangent_decompose,
    validate_norm,
)
from .gap import gap, linearization_identity_residual, triangle_equality_residual
from .convexity import (
    ConstantsReport,
    DegenerateSampleError,
    ModulusResult,
    OnevScanResult,
    TransferReport,
    duality_residual,
    estimate_balanced,
    estimate_doubling,
    estimate_lambda,
    estimate_uniform_constants,
    extend_constants,
    extend_constants_to,
    modulus,
    modulus_grid,
    onev_default_grid,
    onev_f,
    onev_g,
    onev_scan,
    transfer_check,
)
from .sticks import (
    DegenerateStickError,
    FlipChainReport,
    PairVerdicts,
    PreconditionError,
    Stick,
    StripReport,
    euclid_interp_bound_residual,
    euclid_lipschitz_ratio,
    euclid_monotonicity,
    flip_chain_verify,
    holder_ratio,
    pair_verdicts,
    segment_point_distance,
    select_special_stick,
    strip_experiment,
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
    "EuclideanNorm", "Norm", "NormValidationReport", "PluginNorm", "PNorm",
    "TangentDecomposition", "ZeroVectorError", "finite_diff_gradient", "norm_from_json",
    "tangent_decompose", "validate_norm",
    "gap", "linearization_identity_residual", "triangle_equality_residual",
    "ConstantsReport", "DegenerateSampleError", "ModulusResult", "OnevScanResult",
    "TransferReport", "duality_residual", "estimate_balanced", "estimate_doubling",
    "estimate_lambda", "estimate_uniform_constants", "extend_constants",
    "extend_constants_to", "modulus", "modulus_grid", "onev_default_grid", "onev_f",
    "onev_g", "onev_scan", "transfer_check",
    "DegenerateStickError", "FlipChainReport", "PairVerdicts", "PreconditionError",
    "Stick", "StripReport", "euclid_interp_bound_residual", "euclid_lipschitz_ratio",
    "euclid_monotonicity", "flip_chain_verify", "holder_ratio", "pair_verdicts",
    "segment_point_distance", "select_special_stick", "strip_experiment",
    "two_sticks_check",
    "NearestResult", "RayFamily", "SiteSet", "build_ray_family", "generate_strip_pairs",
    "nearest_point",
    "SharpnessCurve", "SharpnessInstance", "construct_pgt2", "construct_plt2",
    "holder_exponent", "sharpness_curve", "solve_g",
]
