"""Second-order structure of high-frequency sampled CARMA processes.

Given a Levy-driven CARMA(p, q) model, this package computes the exact and
asymptotic (small grid size) second-order structure of the sampled sequence:
the continuous-time kernel, autocovariance and spectral density, the sampled
and filtered spectral densities, the exact filtered autocovariances, the
ARMA(p, p-1) representation via spectral factorization, the small-Delta limit
formulas, and seeded simulators used as Monte Carlo oracles.

Nothing is imported until a name is used: ``import carmahf`` loads neither
numpy nor a submodule, and the first use of a public name or a submodule
(``carmahf.sampled_arma``, ``carmahf.simulate``) imports the submodule that
holds it (PEP 562).
"""

import importlib

__version__ = "0.1.0"

#: Each submodule and the public names it defines.
_EXPORTS = {
    "asymptotics": ("AsymptoticMa", "differenced_spectrum_asymptotic", "f_ma_asymptotic", "gamma_ma_asymptotic",
                    "limit_ma_model"),
    "core": ("CarmaModel", "ModelError", "acvf_continuous", "kernel_derivative_at_zero", "kernel_values",
             "spectral_density_continuous", "stationary_state_covariance", "validate"),
    "factorization": ("FactorizationError", "SampledArma", "reconstruct_acvf", "reconstruction_residual",
                      "sampled_arma", "spectral_factorize"),
    "poly": ("find_roots",),
    "sampling": ("CovSequence", "acvf_filtered_sequence", "filter_coefficients", "power_transfer",
                 "spectral_density_filtered", "spectral_density_sampled"),
    "simulate": ("DriverSpec", "SimulationResult", "empirical_filtered_acvf", "simulate_euler",
                 "simulate_gaussian_exact", "spawn_seeds"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")
__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _OWNER:
        return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*__all__, *_SUBMODULES})
