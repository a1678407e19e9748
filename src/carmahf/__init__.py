"""Second-order structure of high-frequency sampled CARMA processes.

Given a Levy-driven CARMA(p, q) model, this package computes the exact and
asymptotic (small grid size) second-order structure of the sampled sequence:
the continuous-time kernel, autocovariance and spectral density, the sampled
and filtered spectral densities, the exact filtered autocovariances, the
ARMA(p, p-1) representation via spectral factorization, the small-Delta limit
formulas, and seeded simulators used as Monte Carlo oracles.
"""

__version__ = "0.1.0"

from .asymptotics import (
    AsymptoticMa,
    c_coefficients,
    differenced_spectrum_asymptotic,
    f_ma_asymptotic,
    gamma_ma_asymptotic,
    gamma_ma_asymptotic_coefficient,
    limit_ma_model,
)
from .core import (
    CarmaModel,
    ModelError,
    acvf_continuous,
    kernel,
    kernel_derivative_at_zero,
    kernel_values,
    matrix_exp,
    spectral_density_continuous,
    stationary_state_covariance,
    validate,
)
from .factorization import (
    FactorizationError,
    SampledArma,
    innovations_check,
    reconstruct_acvf,
    reconstruction_residual,
    sampled_arma,
    spectral_factorize,
)
from .poly import Polynomial, RootSet, coprime, find_roots, is_stable
from .sampling import (
    CoarseSamplingWarning,
    CovSequence,
    acvf_filtered,
    acvf_filtered_sequence,
    annihilation_residual,
    filter_coefficients,
    power_transfer,
    spectral_density_filtered,
    spectral_density_sampled,
)
from .simulate import (
    DriverSpec,
    SimulationResult,
    empirical_filtered_acvf,
    simulate_euler,
    simulate_gaussian_exact,
    spawn_seeds,
)

__all__ = [
    "AsymptoticMa",
    "CarmaModel",
    "CoarseSamplingWarning",
    "CovSequence",
    "DriverSpec",
    "FactorizationError",
    "ModelError",
    "Polynomial",
    "RootSet",
    "SampledArma",
    "SimulationResult",
    "acvf_continuous",
    "acvf_filtered",
    "acvf_filtered_sequence",
    "annihilation_residual",
    "c_coefficients",
    "coprime",
    "differenced_spectrum_asymptotic",
    "empirical_filtered_acvf",
    "f_ma_asymptotic",
    "filter_coefficients",
    "find_roots",
    "gamma_ma_asymptotic",
    "gamma_ma_asymptotic_coefficient",
    "innovations_check",
    "is_stable",
    "kernel",
    "kernel_derivative_at_zero",
    "kernel_values",
    "limit_ma_model",
    "matrix_exp",
    "power_transfer",
    "reconstruct_acvf",
    "reconstruction_residual",
    "sampled_arma",
    "simulate_euler",
    "simulate_gaussian_exact",
    "spawn_seeds",
    "spectral_density_continuous",
    "spectral_density_filtered",
    "spectral_density_sampled",
    "spectral_factorize",
    "stationary_state_covariance",
    "validate",
]
