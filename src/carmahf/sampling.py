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
special case.  ``CarmaModel.roots`` serve only :func:`coarseness`, which
``validate`` reads for the small-Delta regime; Delta passes the one rule of
:func:`core._check_delta`.  These quantities are exact at every Delta, so no
grid is too coarse for them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import CarmaModel


@dataclass(frozen=True)
class CovSequence:
    """Finite autocovariance list gamma(0..n_max) on a Delta-grid.

    An empirical sequence carries per-lag standard errors in ``stderr``; an
    exact one has ``stderr`` None.
    """

    delta: float
    values: tuple
    stderr: tuple | None = None


def coarseness(model: CarmaModel, delta: float) -> float:
    """Delta * max|lambda|, not |Re lambda| (an undamped pair past Nyquist is coarse); small Delta is <= 1."""
    return delta * max(abs(z) for z in model.roots)


def _filter_and_acvf(model: CarmaModel, delta: float) -> tuple:
    """phi = charpoly(F) and gamma_MA(0..p-1), from one sampled system (F, Q, b).

    Faddeev-LeVerrier: C_0 = I, phi_j = -tr(F C_(j-1)) / j and
    C_j = F C_(j-1) + phi_j I, so C_j = sum_(k<=j) phi_k F^(j-k) and
    C_p = phi(F) = 0 (Cayley-Hamilton).  Hence phi(B) Y_t = sum_j v_j^T eps_(t-j)
    with the Delta-scaled rows v_j = C_j^T b and the transition noise eps, the
    MA(p-1) part of the sampled ARMA, and
    gamma_MA(n) = sigma2 * sum_j v_(j+n)^T Q v_j = sigma2 * sum_j W[j+n, j], a
    sub-diagonal sum of one quadratic form W = V Q V^T, with V zero-padded
    below so that rows j+n >= p read 0.
    """
    core._check_delta(delta)
    F, Q, b = core.sampled_state_space(model, delta)
    p = model.p
    phi = np.ones(p + 1)
    V = np.zeros((2 * p, p))
    C = np.eye(p)
    for j in range(1, p + 1):
        V[j - 1] = C.T @ b
        C = F @ C
        phi[j] = -C.trace() / j
        C.flat[:: p + 1] += phi[j]
    W = (V @ Q) @ V[:p].T
    k = np.arange(p)
    return phi, (model.sigma2 * W[k[:, None] + k, k].sum(axis=1)).tolist()


def filter_coefficients(model: CarmaModel, delta: float) -> np.ndarray:
    """Coefficients (A_0, ..., A_p) of the annihilating filter prod(1 - e^(lambda_j Delta) B).

    A_0 = 1; the characteristic polynomial of F = e^(A Delta), by
    Faddeev-LeVerrier, so repeated roots need no special case.
    """
    return _filter_and_acvf(model, delta)[0]


def _shifted(model: CarmaModel, delta: float, omega) -> tuple:
    """e^(-i omega) I - F^T stacked over the flattened omega grid, with Q and b, from one sampled system."""
    core._check_delta(delta)
    F, Q, b = core.sampled_state_space(model, delta)
    w = np.ravel(np.asarray(omega, dtype=float))
    return np.exp(-1j * w)[:, None, None] * np.eye(model.p) - F.T, Q, b


def _f_delta(model: CarmaModel, shifted: np.ndarray, Q: np.ndarray, b: np.ndarray) -> np.ndarray:
    """f_Delta = sigma2 / (2 pi) * u^H Q u with u = shifted^-1 b, one batched solve over the grid."""
    u = np.linalg.solve(shifted, b[:, None])[..., 0]
    return model.sigma2 / (2.0 * np.pi) * np.real(np.einsum("ni,ij,nj->n", u.conj(), Q, u))


def power_transfer(model: CarmaModel, delta: float, omega) -> np.ndarray | float:
    """Power transfer function psi(omega) = |phi(e^(i omega))|^2 of the filter.

    Evaluated as |det(e^(-i omega) I - F^T)|^2, since phi is the
    characteristic polynomial of F.
    """
    return core._like(omega, np.abs(np.linalg.det(_shifted(model, delta, omega)[0])) ** 2)


def spectral_density_sampled(model: CarmaModel, delta: float, omega):
    """Spectral density f_Delta of the sampled sequence on [-pi, pi]."""
    return core._like(omega, _f_delta(model, *_shifted(model, delta, omega)))


def spectral_density_filtered(model: CarmaModel, delta: float, omega):
    """Spectral density f_MA = psi * f_Delta of the filtered sequence."""
    shifted, Q, b = _shifted(model, delta, omega)
    return core._like(omega, np.abs(np.linalg.det(shifted)) ** 2 * _f_delta(model, shifted, Q, b))


def acvf_filtered_sequence(model: CarmaModel, delta: float, n_max: int | None = None) -> CovSequence:
    """Exact CovSequence gamma_MA(0..n_max); n_max defaults to p-1."""
    n_max = model.p - 1 if n_max is None else n_max
    if n_max < 0:
        raise ValueError("lag must be non-negative")
    gamma = _filter_and_acvf(model, delta)[1]
    vals = tuple(gamma[n] if n < model.p else 0.0 for n in range(n_max + 1))
    return CovSequence(delta=float(delta), values=vals)
