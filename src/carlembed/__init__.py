"""Carleson constants and Hardy-space embedding norms for finitely
supported measures on the unit disc and the unit ball of C^n.

The package computes the embedding norm of the inclusion H^2 -> L^2(mu)
for a finite atomic measure mu, compares it against the closed-form
bound 2e (disc) and e (2n)!/(n!)^2 (ball) in terms of the kernel-side
Carleson constant, and numerically certifies each identity used in the
derivation: Green's formulas, the invariant Laplacian of the Poisson
kernel, the exponential-weight contraction, and the key pointwise
inequality at the atoms.
"""

from .calculus import (
    FD_STEP,
    MultiPoly,
    beta_constant,
    corollary_check,
    green_function_ball,
    green_weight_disc,
    greens_formula_check,
    hardy_norm_sq,
    invariant_laplacian_fd,
    invariant_laplacian_poisson_ball,
    key_inequality_check,
    laplacian_fd,
    laplacian_poisson_disc,
    poisson_gradient_ball,
    potential_laplacian_closed,
    uchiyama_checks,
    uchiyama_density,
    uchiyama_embedding_check,
)
from .errors import (
    CarlembedError,
    InputError,
    KernelConditioningWarning,
    NumericError,
    SingularityError,
    UnsupportedError,
)
from .extremal import SearchConfig, SearchResult, ratio, search
from .geometry import (
    Space,
    SpacePoint,
    inner,
    mobius,
    normalized_kernel,
    poisson_kernel,
    pseudo_hyperbolic,
    szego_kernel,
)
from .interpolation import (
    InterpolationReport,
    PointSequence,
    carleson_delta,
    gram_matrix,
    interpolation_report,
    orthogonalizer_cond,
    sequence_measure,
)
from .measure import (
    AnalysisReport,
    DiscreteMeasure,
    analyze,
    box_constant,
    carleson_potential,
    embedding_norm_sq,
    kernel_constant_grid,
    kernel_constant_on_support,
    theorem_bound_constant,
)
from .numerics import (
    HermitianMatrix,
    QuadratureSpec,
    ball_quadrature,
    boundary_quadrature,
    default_quadrature,
    disc_quadrature,
    extreme_eigs,
    gauss_legendre,
    rng_stream,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "CarlembedError",
    "DiscreteMeasure",
    "FD_STEP",
    "HermitianMatrix",
    "InputError",
    "InterpolationReport",
    "KernelConditioningWarning",
    "MultiPoly",
    "NumericError",
    "PointSequence",
    "QuadratureSpec",
    "SearchConfig",
    "SearchResult",
    "SingularityError",
    "Space",
    "SpacePoint",
    "UnsupportedError",
    "analyze",
    "ball_quadrature",
    "beta_constant",
    "boundary_quadrature",
    "box_constant",
    "carleson_delta",
    "carleson_potential",
    "corollary_check",
    "default_quadrature",
    "disc_quadrature",
    "embedding_norm_sq",
    "extreme_eigs",
    "gauss_legendre",
    "gram_matrix",
    "green_function_ball",
    "green_weight_disc",
    "greens_formula_check",
    "hardy_norm_sq",
    "inner",
    "interpolation_report",
    "invariant_laplacian_fd",
    "invariant_laplacian_poisson_ball",
    "kernel_constant_grid",
    "kernel_constant_on_support",
    "key_inequality_check",
    "laplacian_fd",
    "laplacian_poisson_disc",
    "mobius",
    "normalized_kernel",
    "orthogonalizer_cond",
    "poisson_gradient_ball",
    "poisson_kernel",
    "potential_laplacian_closed",
    "pseudo_hyperbolic",
    "ratio",
    "rng_stream",
    "search",
    "sequence_measure",
    "szego_kernel",
    "theorem_bound_constant",
    "uchiyama_checks",
    "uchiyama_density",
    "uchiyama_embedding_check",
]
