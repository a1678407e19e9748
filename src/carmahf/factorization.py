"""Spectral factorization of a finite covariance sequence.

Turns the filtered-sequence autocovariances into the invertible moving-average
polynomial theta(B) and innovation variance tau^2 of the ARMA representation
of the sampled process.  The covariance generating polynomial is palindromic,
so it is factored in w = z + 1/z, where each reciprocal root pair (r, 1/r) is
one root w = r + 1/r; theta takes the member with |r| >= 1 of each.  The
innovations recursion is kept as an independent verification oracle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import core, poly, sampling
from .core import CarmaModel
from .sampling import CovSequence

#: theta roots this close to the unit circle mark the non-invertible boundary.
BOUNDARY_TOL = 1e-8
#: Multiple of eps * sum_k |S_k| 2^k, a bound on the rounding error of S(w)
#: on the segment [-2, 2] that the spectrum maps to.
_SEGMENT_ROUNDING = 16.0 * np.finfo(float).eps


class FactorizationError(RuntimeError):
    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class SampledArma:
    """ARMA(p, p-1) representation of the sampled sequence at grid size delta.

    ``phi`` are the AR coefficients (A_0=1, ..., A_p), ``theta`` the MA
    coefficients (theta_1, ..., theta_{p-1}) of an invertible theta(B), and
    ``tau2`` the innovation variance.  ``boundary`` is True when theta(B) has
    a root within ``BOUNDARY_TOL`` of the unit circle, i.e. it is only the
    non-invertible limit.
    """

    delta: float
    phi: tuple
    theta: tuple
    tau2: float
    boundary: bool = False


def reconstruct_acvf(theta, tau2: float) -> np.ndarray:
    """Autocovariances gamma(0..m) of the MA model (theta, tau2)."""
    t = np.concatenate([[1.0], np.asarray(theta, dtype=float)])
    m = len(t) - 1
    return np.array([tau2 * np.dot(t[: m + 1 - n], t[n:]) for n in range(m + 1)])


def spectral_factorize(cov) -> tuple[np.ndarray, float]:
    """Invertible MA factorization of a covariance sequence gamma(0..m).

    The covariance generating polynomial sum_{|n|<=m} gamma(n) z^n equals
    S(w) = gamma(0) + sum_{n>=1} gamma(n) D_n(w) in w = z + 1/z, where
    D_n(w) = z^n + z^-n.  Each of the m roots w of S gives the root r of
    z^2 - w z + 1 with |r| >= 1, theta(z) = prod(1 - z / r) and
    tau^2 = gamma(0) / (1 + sum theta_j^2).  Warns when a root of theta lies
    on the unit circle.
    """
    theta, tau2, _ = _factorize(cov)
    return theta, tau2


def _factorize(cov) -> tuple[np.ndarray, float, bool]:
    """:func:`spectral_factorize` plus whether theta(B) hit the unit circle."""
    gamma = np.asarray(getattr(cov, "values", cov), dtype=float)
    if gamma.ndim != 1 or len(gamma) == 0:
        raise ValueError("covariance sequence must be a non-empty 1-d array")
    if not np.all(np.isfinite(gamma)):
        raise FactorizationError("non_finite", f"covariance sequence is not finite: {gamma}")
    if gamma[0] <= 0.0:
        raise FactorizationError("not_psd", "gamma(0) must be positive")
    # Reduce the claimed order past exactly-zero trailing covariances.
    m = len(gamma) - 1
    while m > 0 and gamma[m] == 0.0:
        m -= 1
    gamma = gamma[: m + 1]
    toeplitz = np.array([[gamma[abs(i - j)] for j in range(m + 1)] for i in range(m + 1)])
    if np.linalg.eigvalsh(toeplitz).min() < -1e-10 * gamma[0]:
        raise FactorizationError("not_psd", "covariance Toeplitz matrix is not PSD")
    if m == 0:
        return np.zeros(0), float(gamma[0]), False

    # S(w) in ascending powers, from D_0 = 2, D_1 = w, D_{n+1} = w D_n - D_{n-1}.
    s = np.zeros(m + 1)
    s[0] = gamma[0]
    d_prev, d = np.array([2.0]), np.array([0.0, 1.0])
    for g in gamma[1:]:
        s[: len(d)] += g * d
        d_prev, d = d, np.concatenate([[0.0], d]) - np.pad(d_prev, (0, 2))
    theta, boundary = _theta(s)
    if theta is None:
        # Rounding put a root of S on (-2, 2): the computed spectrum dips below
        # zero where gamma_MA is tiny, near omega = 0.  Factor the sequence
        # within rounding of gamma that lifts S by its rounding bound there.
        s[0] += _SEGMENT_ROUNDING * np.dot(np.abs(s), 2.0 ** np.arange(m + 1))
        theta, boundary = _theta(s)
        if theta is None:
            raise FactorizationError("not_psd", "spectrum is negative beyond rounding: theta is not real")
    tau2 = gamma[0] / (1.0 + np.dot(theta, theta))
    if boundary:
        warnings.warn("unit-circle spectral roots: factorization is at the non-invertible boundary")
    return theta, float(tau2), boundary


def _theta(s: np.ndarray) -> tuple[np.ndarray | None, bool]:
    """theta from the roots of S(w), or None when it is not real; and the boundary flag."""
    w = poly.find_roots(poly.Polynomial(s))
    root = np.sqrt((w - 2.0) * (w + 2.0))
    r = np.where(np.abs(w + root) >= np.abs(w - root), w + root, w - root) / 2.0
    # theta(z) = prod(1 - z / r_j), normalized so theta_0 = 1.
    c = np.array([1.0 + 0.0j])
    for rj in r:
        c = np.concatenate([c, [0.0]]) - np.concatenate([[0.0], c / rj])
    if np.max(np.abs(c.imag)) > 1e-8 * np.max(np.abs(c)):
        return None, False
    return c.real[1:], bool(np.any(np.abs(np.abs(r) - 1.0) <= BOUNDARY_TOL))


def innovations_check(cov, theta, tau2: float, steps: int = 200) -> float:
    """Independent check of a factorization via the innovations recursion.

    Runs the innovations algorithm on the MA(m) covariance sequence and
    returns the maximum deviation of the converged one-step predictor
    coefficients and variance from (theta, tau2).
    """
    gamma = np.asarray(getattr(cov, "values", cov), dtype=float)
    m = len(gamma) - 1
    theta = np.asarray(theta, dtype=float)

    def kappa(i, j):
        d = abs(i - j)
        return gamma[d] if d <= m else 0.0

    v = np.empty(steps + 1)
    v[0] = gamma[0]
    th = np.zeros((steps + 1, steps + 1))
    for n in range(1, steps + 1):
        for k in range(max(0, n - m), n):
            s = kappa(n, k)
            for j in range(max(0, n - m), k):
                s -= th[k, k - j] * th[n, n - j] * v[j]
            th[n, n - k] = s / v[k]
        v[n] = gamma[0] - sum(th[n, n - j] ** 2 * v[j] for j in range(max(0, n - m), n))
    dev = abs(v[steps] - tau2) / max(tau2, 1e-300)
    for j in range(m):
        dev = max(dev, abs(th[steps, j + 1] - theta[j]))
    return float(dev)


def sampled_arma(model: CarmaModel, delta: float) -> SampledArma:
    """Full chain: filter coefficients, exact gamma_MA, spectral factorization."""
    core.validate(model, require_coprime=False)
    phi, gamma = sampling._filter_and_acvf(model, delta)
    theta, tau2, boundary = _factorize(gamma)
    return SampledArma(delta=delta, phi=tuple(phi), theta=tuple(theta), tau2=tau2, boundary=boundary)


def reconstruction_residual(arma: SampledArma, cov: CovSequence) -> float:
    """Max relative deviation of the reconstructed autocovariances."""
    gamma = np.asarray(cov.values)
    rec = reconstruct_acvf(arma.theta, arma.tau2)
    k = min(len(rec), len(gamma))
    return float(np.max(np.abs(rec[:k] - gamma[:k])) / np.abs(gamma[0]))
