"""Heat kernels of the circle-fibered AdS space over the complex hyperbolic
ball, the spin-weighted (generalized Maass) heat kernel on the ball, and the
radial heat kernel of odd-dimensional real hyperbolic space, together with a
verification harness that recomputes every formula by an independent route.
"""

from .geometry import (
    BallPoint,
    FiberAngle,
    bergman_pairing,
    hermitian_inner,
    point_at_distance,
    twist_phase,
)
from .kernels import (
    AdsSeriesResult,
    SeriesConfig,
    ads_kernel_integral,
    ads_kernel_series_detail,
    maass_direct_profile,
    maass_radial_profile,
)
from .quadrature import (
    ConvergenceError,
    IntegrationResult,
    QuadratureConfig,
    adaptive_gauss_kronrod,
)
from .radial_heat import (
    GaussianTerm,
    GaussianTermSum,
    hyperbolic_heat_kernel,
    hyperbolic_heat_kernel_scaled,
    millson_apply,
    millson_term_sum,
)
from .special import chebyshev_T, spectral_cosh_factor
from .verify import (
    CheckOutcome,
    ResidualReport,
    SymmetricOperatorSample,
    check_maass_pde,
    check_normalization_k0,
    check_radial_heat_pde,
    check_semigroup_k0,
    check_subordination,
    random_negative_semidefinite,
    run_default_suite,
)

__version__ = "0.1.0"

__all__ = [
    "BallPoint",
    "FiberAngle",
    "bergman_pairing",
    "hermitian_inner",
    "point_at_distance",
    "twist_phase",
    "chebyshev_T",
    "spectral_cosh_factor",
    "GaussianTerm",
    "GaussianTermSum",
    "millson_apply",
    "millson_term_sum",
    "hyperbolic_heat_kernel",
    "hyperbolic_heat_kernel_scaled",
    "QuadratureConfig",
    "IntegrationResult",
    "ConvergenceError",
    "adaptive_gauss_kronrod",
    "SeriesConfig",
    "AdsSeriesResult",
    "maass_radial_profile",
    "maass_direct_profile",
    "ads_kernel_series_detail",
    "ads_kernel_integral",
    "ResidualReport",
    "SymmetricOperatorSample",
    "random_negative_semidefinite",
    "check_maass_pde",
    "check_radial_heat_pde",
    "check_subordination",
    "check_semigroup_k0",
    "check_normalization_k0",
    "CheckOutcome",
    "run_default_suite",
    "__version__",
]
