"""Small-Delta limit formulas.

The odd-coefficient series c_k(omega), the asymptotic filtered spectral
density and autocovariances, the limit MA model for every p - q >= 1,
and the differenced-spectrum form.

The asymptotic autocovariance coefficients are one central difference of
the generalized covariance of integrated Brownian motion.  The terms of
that difference cancel heavily, so it is summed over integers and converted
to float only at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import CarmaModel
from .factorization import spectral_factorize

#: Exclusion zone around omega = 0, where c_k(omega) has a pole.
OMEGA_TOL = 1e-8


class OmegaTooCloseToZero(ValueError):
    pass


def _check_omega(omega) -> np.ndarray:
    w = np.asarray(omega, dtype=float)
    if np.min(np.abs(1.0 - np.cos(w))) <= OMEGA_TOL:
        raise OmegaTooCloseToZero(
            "asymptotic spectral formulas have a pole at omega = 0; "
            "require |1 - cos omega| > 1e-8"
        )
    return w


def c_coefficients(omega: float, K: int) -> np.ndarray:
    """Coefficients c_0..c_K of sinh(x)/(cosh(x) - cos omega) = sum c_k x^(2k+1).

    Obtained by dividing the two Taylor series in powers of x^2.
    In particular c_0 = 1/(1 - cos omega).
    """
    _check_omega(omega)
    if K < 0:
        raise ValueError("K must be non-negative")
    num = np.array([1.0 / math.factorial(2 * k + 1) for k in range(K + 1)])
    den = np.array([1.0 / math.factorial(2 * k) for k in range(K + 1)])
    den[0] = 1.0 - math.cos(omega)
    c = np.empty(K + 1)
    for k in range(K + 1):
        c[k] = (num[k] - np.dot(den[1 : k + 1], c[k - 1 :: -1][:k])) / den[0]
    return c


def f_ma_asymptotic(model: CarmaModel, delta: float, omega) -> np.ndarray | float:
    """Leading-order filtered spectral density as Delta -> 0 (fixed omega != 0)."""
    w = _check_omega(omega)
    d = model.p - model.q
    c = np.array([c_coefficients(float(x), d - 1)[d - 1] for x in np.atleast_1d(w)])
    out = (
        model.sigma2
        / (2.0 * np.pi)
        * (-1.0) ** (d - 1)
        * np.float64(delta) ** (2 * d - 1)  # inf, not OverflowError, at huge delta
        * c
        * 2.0 ** (model.p - 1)
        * (1.0 - np.cos(np.atleast_1d(w))) ** model.p
    )
    if w.ndim == 0:
        return float(out[0])
    return out


def gamma_ma_asymptotic_coefficient(p: int, q: int, n: int) -> Fraction:
    """Exact rational coefficient of sigma^2 Delta^(2d-1) in gamma_MA(n), d = p - q.

    As Delta -> 0 the filter tends to (1 - B)^p and Y behaves locally like
    (d-1)-fold integrated Brownian motion, whose generalized covariance is
    (-1)^d |h|^(2d-1) / (2 (2d-1)!).  The coefficient is the 2p-th central
    difference of that covariance at lag n:

        (-1)^d / (2 (2d-1)!) * sum_{k=-p..p} (-1)^k C(2p, p+k) |n+k|^(2d-1).

    It is 0 for n >= p (a 2p-th difference of a polynomial of degree
    2d-1 < 2p) and (-1)^q / (2d-1)! at n = p - 1.
    """
    if not 0 <= q < p:
        raise ValueError("require 0 <= q < p")
    if n < 0:
        raise ValueError("lag must be non-negative")
    d = p - q
    total = sum(
        (-1) ** (k % 2) * math.comb(2 * p, p + k) * abs(n + k) ** (2 * d - 1)
        for k in range(-p, p + 1)
    )
    return Fraction((-1) ** d * total, 2 * math.factorial(2 * d - 1))


def gamma_ma_asymptotic(model: CarmaModel, delta: float, n: int) -> float:
    """Leading-order gamma_MA(n) as Delta -> 0."""
    coef = gamma_ma_asymptotic_coefficient(model.p, model.q, n)
    # a numpy power overflows to inf where a Python float power raises OverflowError
    return float(coef) * model.sigma2 * float(np.float64(delta) ** (2 * (model.p - model.q) - 1))


@dataclass(frozen=True)
class AsymptoticMa:
    """Limit MA model for d = p - q >= 1.

    The limit moving average is (1 + theta_1 B + ...) (1 - B)^q with
    innovation variance tau2_scale * sigma^2 * Delta^(2d-1); ``theta`` is the
    non-(1-B)^q part.
    """

    d: int
    theta: tuple
    tau2_scale: float


def limit_ma_model(d: int) -> AsymptoticMa:
    """Invertible factor of the limit covariances gamma_MA(d, 0, n), n < d.

    Their generating polynomial is the Euler-Frobenius polynomial, whose
    zeros are real, negative, simple and in reciprocal pairs.
    """
    if d < 1:
        raise ValueError(f"the limit MA model needs p - q >= 1, got {d}")
    theta, tau2 = spectral_factorize([float(gamma_ma_asymptotic_coefficient(d, 0, n)) for n in range(d)])
    return AsymptoticMa(d, tuple(theta), tau2)


def differenced_spectrum_asymptotic(model: CarmaModel, delta: float, omega) -> np.ndarray | float:
    """Leading-order spectral density of the (p-q)-times differenced samples.

    For a CAR(1) this is the constant sigma^2 Delta / (2 pi): the increments
    approximate those of Brownian motion.
    """
    w = _check_omega(omega)
    d = model.p - model.q
    c = np.array([c_coefficients(float(x), d - 1)[d - 1] for x in np.atleast_1d(w)])
    out = (
        model.sigma2
        / (2.0 * np.pi)
        * delta
        * (-2.0 * delta**2) ** (d - 1)
        * c
        * (1.0 - np.cos(np.atleast_1d(w))) ** d
    )
    if w.ndim == 0:
        return float(out[0])
    return out
