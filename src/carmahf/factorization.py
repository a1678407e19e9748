"""Spectral factorization of a finite covariance sequence.

Turns the filtered-sequence autocovariances into the invertible moving-average
polynomial theta(B) and innovation variance tau^2 of the ARMA representation
of the sampled process.  The factorization is root-based; the innovations
recursion is kept as an independent verification oracle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import core, poly, sampling
from .core import CarmaModel
from .sampling import CovSequence

#: Reciprocal-pair matching tolerance for the roots of the covariance
#: generating polynomial.
PAIRING_TOL = 1e-6
#: Roots this close to the unit circle are treated as boundary
#: (non-invertible limit) and assigned once to the theta side.
BOUNDARY_TOL = 1e-8


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
    a root on the unit circle, i.e. it is only the non-invertible limit.
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

    Forms the covariance generating polynomial G(z) = sum_{|n|<=m}
    gamma(n) z^(n+m), whose 2m roots occur in reciprocal pairs (z, 1/z);
    theta is assembled from the root of each pair with modulus >= 1 and
    tau^2 = gamma(0) / (1 + sum theta_j^2).  Warns when a root lies on the
    unit circle.
    """
    theta, tau2, _ = _factorize(cov)
    return theta, tau2


def _factorize(cov) -> tuple[np.ndarray, float, bool]:
    """:func:`spectral_factorize` plus whether theta(B) hit the unit circle."""
    gamma = np.asarray(getattr(cov, "values", cov), dtype=float)
    if gamma.ndim != 1 or len(gamma) == 0:
        raise ValueError("covariance sequence must be a non-empty 1-d array")
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

    gen = np.concatenate([gamma[::-1], gamma[1:]])  # ascending in z, degree 2m
    roots = list(poly.find_roots(poly.Polynomial(gen)).values())
    roots.sort(key=lambda z: -abs(z))

    theta_roots = []
    boundary = False
    remaining = roots
    while remaining:
        r = remaining.pop(0)
        if not remaining:
            raise FactorizationError("root_pairing_failure", "odd number of roots left unpaired")
        scores = [abs(r * z - 1.0) for z in remaining]
        j = int(np.argmin(scores))
        if scores[j] > PAIRING_TOL * max(1.0, abs(r) ** 2):
            raise FactorizationError(
                "root_pairing_failure",
                f"no reciprocal partner for root {r} (best mismatch {scores[j]:.3g})",
            )
        partner = remaining.pop(j)
        if abs(abs(r) - 1.0) <= BOUNDARY_TOL:
            boundary = True
            theta_roots.append(r)
        else:
            theta_roots.append(r if abs(r) >= 1.0 else partner)

    # theta(z) = prod(1 - z / r_j), normalized so theta_0 = 1.
    c = np.array([1.0 + 0.0j])
    for r in theta_roots:
        nxt = np.zeros(len(c) + 1, dtype=complex)
        nxt[: len(c)] += c
        nxt[1:] -= c / r
        c = nxt
    if np.max(np.abs(c.imag)) > 1e-8 * np.max(np.abs(c)):
        raise FactorizationError("root_pairing_failure", "theta coefficients are not real")
    theta = c.real[1:] / c.real[0]
    tau2 = gamma[0] / (1.0 + np.dot(theta, theta))
    if boundary:
        warnings.warn("unit-circle spectral roots: factorization is at the non-invertible boundary")
    return theta, float(tau2), boundary


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
    phi = sampling.filter_coefficients(model, delta)
    theta, tau2, boundary = _factorize(sampling.acvf_filtered_sequence(model, delta))
    return SampledArma(delta=delta, phi=tuple(phi), theta=tuple(theta), tau2=tau2, boundary=boundary)


def reconstruction_residual(arma: SampledArma, cov: CovSequence) -> float:
    """Max relative deviation of the reconstructed autocovariances."""
    gamma = np.asarray(cov.values)
    rec = reconstruct_acvf(arma.theta, arma.tau2)
    k = min(len(rec), len(gamma))
    return float(np.max(np.abs(rec[:k] - gamma[:k])) / np.abs(gamma[0]))
