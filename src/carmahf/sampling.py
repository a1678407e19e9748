"""The Delta-grid layer.

Annihilating-filter coefficients and power transfer function, the sampled and
filtered spectral densities, and the exact filtered autocovariances at lags
0..p-1 (extendable past p-1, where they vanish).

Every quantity derives from the Delta-scaled sampled system (F, Q, b) of
:func:`core.sampled_state_space`, built once per call: :func:`_filter_and_acvf`
gives phi as the characteristic polynomial of F and the MA(p-1) part of
phi(B) Y from the Faddeev-LeVerrier matrices of F, and :func:`_shifted` gives
the resolvent stack behind psi and f_Delta, a quadratic form in Q.  No route
needs the autoregressive roots, so repeated and nearly repeated roots need no
special case.  The roots (companion eigenvalues, :func:`core.ar_roots`) serve
only the Delta-regime, :func:`coarseness`, and its coarse-grid warning.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import core
from .core import CarmaModel


class CoarseSamplingWarning(UserWarning):
    """Delta * max|Re lambda| > 1: outside the small-Delta regime."""


@dataclass(frozen=True)
class CovSequence:
    """Finite autocovariance list gamma(0..n_max) on a Delta-grid.

    ``provenance`` is one of "exact", "asymptotic", "empirical"; empirical
    sequences carry per-lag standard errors.
    """

    delta: float
    values: tuple
    provenance: str
    stderr: tuple | None = None

    def __post_init__(self):
        if self.provenance not in ("exact", "asymptotic", "empirical"):
            raise ValueError(f"unknown provenance {self.provenance!r}")


def coarseness(model: CarmaModel, delta: float) -> float:
    """Delta * max|Re lambda|; the small-Delta regime is coarseness <= 1."""
    return delta * float(np.max(np.abs(core.ar_roots(model).real)))


def _check_grid(model: CarmaModel, delta: float) -> None:
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    c = coarseness(model, delta)
    if c > 1.0:
        warnings.warn(
            f"delta={delta} is coarse for this model (delta * max|Re lambda| = "
            f"{c:.3g} > 1); asymptotic comparisons are unreliable",
            CoarseSamplingWarning,
            stacklevel=4,  # the caller of the public function, past its helper
        )


def _filter_and_acvf(model: CarmaModel, delta: float) -> tuple:
    """phi = charpoly(F) and gamma_MA(0..p-1), from one sampled system (F, Q, b).

    Faddeev-LeVerrier: C_0 = I, phi_j = -tr(F C_(j-1)) / j and
    C_j = F C_(j-1) + phi_j I, so C_j = sum_(k<=j) phi_k F^(j-k) and
    C_p = phi(F) = 0 (Cayley-Hamilton).  Hence phi(B) Y_t = sum_j v_j^T eps_(t-j)
    with the Delta-scaled rows v_j = C_j^T b and the transition noise eps, the
    MA(p-1) part of the sampled ARMA, and
    gamma_MA(n) = sigma2 * sum_j v_(j+n)^T Q v_j, a finite sum.
    """
    _check_grid(model, delta)
    F, Q, b = core.sampled_state_space(model, delta)
    p = model.p
    phi = np.ones(p + 1)
    V = np.empty((p, p))
    C = np.eye(p)
    for j in range(1, p + 1):
        V[j - 1] = C.T @ b
        FC = F @ C
        phi[j] = -np.trace(FC) / j
        C = FC + phi[j] * np.eye(p)
    return phi, [model.sigma2 * float(np.sum((V[n:] @ Q) * V[: p - n])) for n in range(p)]


def filter_coefficients(model: CarmaModel, delta: float) -> np.ndarray:
    """Coefficients (A_0, ..., A_p) of the annihilating filter prod(1 - e^(lambda_j Delta) B).

    A_0 = 1; the characteristic polynomial of F = e^(A Delta), by
    Faddeev-LeVerrier, so repeated roots need no special case.
    """
    return _filter_and_acvf(model, delta)[0]


def _shifted(model: CarmaModel, delta: float, omega) -> tuple:
    """e^(-i omega) I - F^T stacked over the omega grid, with Q and b, from one sampled system."""
    _check_grid(model, delta)
    F, Q, b = core.sampled_state_space(model, delta)
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    return np.exp(-1j * w)[:, None, None] * np.eye(model.p) - F.T, Q, b


def _f_delta(model: CarmaModel, shifted: np.ndarray, Q: np.ndarray, b: np.ndarray) -> np.ndarray:
    """f_Delta = sigma2 / (2 pi) * u^H Q u with u = shifted^-1 b, one batched solve over the grid."""
    u = np.linalg.solve(shifted, b[:, None])[..., 0]
    return model.sigma2 / (2.0 * np.pi) * np.real(np.einsum("ni,ij,nj->n", u.conj(), Q, u))


def _like(omega, out: np.ndarray) -> np.ndarray | float:
    """A float for a scalar omega, else the array over the grid."""
    return float(out[0]) if np.ndim(omega) == 0 else out


def power_transfer(model: CarmaModel, delta: float, omega) -> np.ndarray | float:
    """Power transfer function psi(omega) = |phi(e^(i omega))|^2 of the filter.

    Evaluated as |det(e^(-i omega) I - F^T)|^2, since phi is the
    characteristic polynomial of F.
    """
    return _like(omega, np.abs(np.linalg.det(_shifted(model, delta, omega)[0])) ** 2)


def spectral_density_sampled(model: CarmaModel, delta: float, omega):
    """Spectral density f_Delta of the sampled sequence on [-pi, pi]."""
    return _like(omega, _f_delta(model, *_shifted(model, delta, omega)))


def spectral_density_filtered(model: CarmaModel, delta: float, omega):
    """Spectral density f_MA = psi * f_Delta of the filtered sequence."""
    shifted, Q, b = _shifted(model, delta, omega)
    return _like(omega, np.abs(np.linalg.det(shifted)) ** 2 * _f_delta(model, shifted, Q, b))


def annihilation_residual(model: CarmaModel, delta: float, t: float) -> float:
    """sum_k A_k g(t - k Delta) for t > p Delta; vanishes identically in theory."""
    if t <= model.p * delta:
        raise ValueError("annihilation holds only beyond p * delta")
    A = filter_coefficients(model, delta)
    return float(A @ core.kernel_values(model, t - delta * np.arange(len(A))))


def acvf_filtered(model: CarmaModel, delta: float, n: int) -> float:
    """Exact gamma_MA(n) of the filtered sampled sequence; lags n >= p are exactly 0 (MA(p-1))."""
    if n < 0:
        raise ValueError("lag must be non-negative")
    gamma = _filter_and_acvf(model, delta)[1]
    return gamma[n] if n < model.p else 0.0


def acvf_filtered_sequence(model: CarmaModel, delta: float, n_max: int | None = None) -> CovSequence:
    """Exact CovSequence gamma_MA(0..n_max); n_max defaults to p-1."""
    gamma = _filter_and_acvf(model, delta)[1]
    if n_max is None:
        n_max = model.p - 1
    vals = tuple(gamma[n] if n < model.p else 0.0 for n in range(n_max + 1))
    return CovSequence(delta=delta, values=vals, provenance="exact")
