"""The Delta-grid layer.

Annihilating-filter coefficients and power transfer function, the sampled and
filtered spectral densities, and the exact filtered autocovariances at lags
0..p-1 (extendable past p-1, where they vanish).

Every quantity derives from the Delta-scaled sampled system (F, Q, b) of
:func:`core.sampled_state_space`: phi is the characteristic polynomial of F,
the MA(p-1) part of phi(B) Y comes from the Faddeev-LeVerrier matrices of F,
and the spectra are resolvent quadratic forms in Q.  No route needs the
autoregressive roots, so repeated and nearly repeated roots need no special
case.  The roots (companion eigenvalues, :func:`core.ar_roots`) serve only
the Delta-regime, :func:`coarseness`, and its coarse-grid warning.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

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
            stacklevel=3,
        )


@lru_cache(maxsize=512)
def _filter_vectors(model: CarmaModel, delta: float) -> tuple:
    """phi = charpoly(F) and the rows v_j = C_j^T b (j = 0..p-1), Delta-scaled.

    Faddeev-LeVerrier: C_0 = I, phi_j = -tr(F C_(j-1)) / j and
    C_j = F C_(j-1) + phi_j I, so C_j = sum_(k<=j) phi_k F^(j-k) and
    C_p = phi(F) = 0 (Cayley-Hamilton).  Hence phi(B) Y_t = sum_j v_j^T eps_(t-j)
    for the transition noise eps, the MA(p-1) part of the sampled ARMA.
    """
    F, _, b = core.sampled_state_space(model, delta)
    p = model.p
    phi = np.ones(p + 1)
    V = np.empty((p, p))
    C = np.eye(p)
    for j in range(1, p + 1):
        V[j - 1] = C.T @ b
        FC = F @ C
        phi[j] = -np.trace(FC) / j
        C = FC + phi[j] * np.eye(p)
    phi.setflags(write=False)
    V.setflags(write=False)
    return phi, V


def filter_coefficients(model: CarmaModel, delta: float) -> np.ndarray:
    """Coefficients (A_0, ..., A_p) of the annihilating filter prod(1 - e^(lambda_j Delta) B).

    A_0 = 1; the characteristic polynomial of F = e^(A Delta), by
    Faddeev-LeVerrier, so repeated roots need no special case.
    """
    _check_grid(model, delta)
    return np.array(_filter_vectors(model, delta)[0])


def _shifted(model: CarmaModel, delta: float, w: np.ndarray) -> np.ndarray:
    """The stack e^(-i omega) I - F^T over a 1-d omega grid (Delta-scaled F)."""
    F = core.sampled_state_space(model, delta)[0]
    return np.exp(-1j * w)[:, None, None] * np.eye(model.p) - F.T


def power_transfer(model: CarmaModel, delta: float, omega) -> np.ndarray | float:
    """Power transfer function psi(omega) = |phi(e^(i omega))|^2 of the filter.

    Evaluated as |det(e^(-i omega) I - F^T)|^2, since phi is the
    characteristic polynomial of F.
    """
    w = np.asarray(omega, dtype=float)
    out = np.abs(np.linalg.det(_shifted(model, delta, np.atleast_1d(w)))) ** 2
    if w.ndim == 0:
        return float(out[0])
    return out


def spectral_density_sampled(model: CarmaModel, delta: float, omega):
    """Spectral density f_Delta of the sampled sequence on [-pi, pi].

    f_Delta(omega) = sigma2 / (2 pi) * u^H Q u with
    u = (e^(-i omega) I - F^T)^-1 b, one batched solve over the omega grid.
    """
    _check_grid(model, delta)
    w = np.asarray(omega, dtype=float)
    w1 = np.atleast_1d(w)
    _, Q, b = core.sampled_state_space(model, delta)
    u = np.linalg.solve(_shifted(model, delta, w1), b[:, None])[..., 0]
    out = model.sigma2 / (2.0 * np.pi) * np.real(np.einsum("ni,ij,nj->n", u.conj(), Q, u))
    if w.ndim == 0:
        return float(out[0])
    return out


def spectral_density_filtered(model: CarmaModel, delta: float, omega):
    """Spectral density f_MA = psi * f_Delta of the filtered sequence."""
    return power_transfer(model, delta, omega) * spectral_density_sampled(model, delta, omega)


def annihilation_residual(model: CarmaModel, delta: float, t: float) -> float:
    """sum_k A_k g(t - k Delta) for t > p Delta; vanishes identically in theory."""
    if t <= model.p * delta:
        raise ValueError("annihilation holds only beyond p * delta")
    A = filter_coefficients(model, delta)
    return float(A @ core.kernel_values(model, t - delta * np.arange(len(A))))


def acvf_filtered(model: CarmaModel, delta: float, n: int) -> float:
    """Exact autocovariance gamma_MA(n) of the filtered sampled sequence.

    gamma_MA(n) = sigma2 * sum_j v_(j+n)^T Q v_j, a finite sum over the
    moving-average vectors of the sampled ARMA.  Lags n >= p are supported
    and are exactly 0, the (p-1)-correlation of the filtered sequence.
    """
    if n < 0:
        raise ValueError("lag must be non-negative")
    _check_grid(model, delta)
    p = model.p
    if n >= p:
        return 0.0
    Q = core.sampled_state_space(model, delta)[1]
    V = _filter_vectors(model, delta)[1]
    return model.sigma2 * float(np.sum((V[n:] @ Q) * V[: p - n]))


def acvf_filtered_sequence(model: CarmaModel, delta: float, n_max: int | None = None) -> CovSequence:
    """Exact CovSequence gamma_MA(0..n_max); n_max defaults to p-1."""
    if n_max is None:
        n_max = model.p - 1
    vals = tuple(acvf_filtered(model, delta, n) for n in range(n_max + 1))
    return CovSequence(delta=delta, values=vals, provenance="exact")
