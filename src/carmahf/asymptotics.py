"""Small-Delta limit formulas.

The asymptotic autocovariances, the limit MA model for every p - q >= 1,
and the asymptotic filtered and differenced spectra.

The asymptotic autocovariance coefficients are one central difference of
the generalized covariance of integrated Brownian motion.  The terms of
that difference cancel heavily, so it is summed over integers and converted
to float only at the end.  The same integers give both spectra: the
differenced spectrum is their cosine sum, a polynomial S_d(v) in
v = 4 cos^2(omega/2) with positive coefficients, and the filtered one is
S_d(v) times u^q, u = 4 sin^2(omega/2).  Neither has a pole at omega = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .core import CarmaModel
from .factorization import _w_polynomial, spectral_factorize


def _numerator(p: int, q: int, n: int) -> int:
    """2 (2d-1)! times the coefficient of sigma^2 Delta^(2d-1) in gamma_MA(n), d = p - q.

    As Delta -> 0 the filter tends to (1 - B)^p and Y behaves locally like
    (d-1)-fold integrated Brownian motion, whose generalized covariance is
    (-1)^d |h|^(2d-1) / (2 (2d-1)!).  The coefficient is the 2p-th central
    difference of that covariance at lag n:

        (-1)^d / (2 (2d-1)!) * sum_{k=-p..p} (-1)^k C(2p, p+k) |n+k|^(2d-1).

    It is 0 for n >= p and (-1)^q / (2d-1)! at n = p - 1.  Here
    |x|^(2d-1) = x^(2d-1) + 2 max(-x, 0)^(2d-1), and the 2p-th difference of
    the polynomial x^(2d-1), of degree below 2p, is 0: only the terms with
    n + k < 0 are left, doubled.
    """
    if not 0 <= q < p:
        raise ValueError("require 0 <= q < p")
    if n < 0:
        raise ValueError("lag must be non-negative")
    d = p - q
    half = sum((-1) ** (k % 2) * math.comb(2 * p, p + k) * (-n - k) ** (2 * d - 1) for k in range(-p, -n))
    return (-1) ** d * 2 * half


def gamma_ma_asymptotic(model: CarmaModel, delta: float, n: int) -> float:
    """Leading-order gamma_MA(n) as Delta -> 0."""
    core._check_delta(delta)
    d = model.p - model.q
    # one int / int division, correctly rounded like float(Fraction)
    coef = _numerator(model.p, model.q, n) / (2 * math.factorial(2 * d - 1))
    # a numpy power overflows to inf where a Python float power raises OverflowError
    return coef * model.sigma2 * float(np.float64(delta) ** (2 * d - 1))


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
    # int / int divisions, correctly rounded like float(Fraction)
    den = 2 * math.factorial(2 * d - 1)
    theta, tau2 = spectral_factorize([_numerator(d, 0, n) / den for n in range(d)])
    return AsymptoticMa(d, tuple(theta.tolist()), tau2)


def _differenced_polynomial(d: int) -> list:
    """Ascending coefficients of S_d(v), v = w + 2 = 4 cos^2(omega/2).

    S_d(w) = C(d, 0, 0) + sum_n C(d, 0, n) D_n(w) is the cosine sum of the
    gamma_MA coefficients C.  It is built and shifted from w to v on integers
    and divided by 2 (2d-1)! once; every coefficient is positive.
    """
    s = _w_polynomial([_numerator(d, 0, n) for n in range(d)])
    for i in range(d):  # Taylor shift s(w) -> s(v - 2)
        for k in range(d - 2, i - 1, -1):
            s[k] -= 2 * s[k + 1]
    den = 2 * math.factorial(2 * d - 1)
    return [c / den for c in s]


def differenced_spectrum_asymptotic(model: CarmaModel, delta: float, omega) -> np.ndarray | float:
    """Leading-order spectral density of the (p-q)-times differenced samples.

    sigma^2 Delta^(2d-1) / (2 pi) * S_d(v) with v = 4 cos^2(omega/2), finite
    and positive for every omega.  For a CAR(1) this is the constant
    sigma^2 Delta / (2 pi): the increments approximate those of Brownian motion.
    """
    core._check_delta(delta)
    w = np.asarray(omega, dtype=float)
    d = model.p - model.q
    v = np.square(2.0 * np.cos(0.5 * w))
    s = 0.0
    for c in reversed(_differenced_polynomial(d)):  # Horner
        s = s * v + c
    # inf, not OverflowError, at huge delta
    return core._like(w, model.sigma2 / (2.0 * np.pi) * np.float64(delta) ** (2 * d - 1) * s)


def f_ma_asymptotic(model: CarmaModel, delta: float, omega) -> np.ndarray | float:
    """Leading-order filtered spectral density as Delta -> 0.

    sigma^2 Delta^(2d-1) / (2 pi) * u^q S_d(v): the differenced spectrum times
    the power transfer u^q of the (1 - B)^q factor, u = 4 sin^2(omega/2).
    It is finite for every omega and exactly 0 at omega = 0 for q >= 1.
    """
    w = np.asarray(omega, dtype=float)
    return core._like(w, differenced_spectrum_asymptotic(model, delta, w) * (2.0 * np.sin(0.5 * w)) ** (2 * model.q))
