"""Spectral factorization of a finite covariance sequence.

Turns the filtered-sequence autocovariances into the invertible moving-average
polynomial theta(B) and innovation variance tau^2 of the ARMA representation
of the sampled process.  The covariance generating polynomial is palindromic,
so it is factored in w = z + 1/z, where each reciprocal root pair (r, 1/r) is
one root w = r + 1/r; theta takes the member with |r| >= 1 of each.  theta is at
the unit-circle boundary where |S| is within its rounding bound on [-2, 2] by a root.
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass

import numpy as np

from . import poly, sampling
from .core import CarmaModel

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

    ``phi`` are the AR coefficients (A_0=1, ..., A_p), ``gamma`` the exact
    gamma_MA(0..p-1) that was factored into the MA coefficients ``theta``
    (theta_1, ..., theta_{p-1}) of an invertible theta(B) and the innovation
    variance ``tau2``.  ``boundary`` is True when theta(B) cannot be told, within
    the rounding bound of S(w), from a factor with a root on the unit circle.
    """

    delta: float
    phi: tuple
    gamma: tuple
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
    tau^2 = gamma(0) / (1 + sum theta_j^2).  Warns when theta cannot be told,
    within the rounding bound of S, from a factor with a unit-circle root.
    """
    theta, tau2, _ = _factorize(cov)
    return theta, tau2


def _factorize(cov) -> tuple[np.ndarray, float, bool]:
    """:func:`spectral_factorize` plus whether theta(B) is at the unit-circle boundary."""
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
    if m == 0:
        return np.zeros(0), float(gamma[0]), False

    # The one PSD rule: S(w) has no real root on (-2, 2), the image of the unit
    # circle, beyond rounding.
    s = _w_polynomial(gamma.tolist())
    rounding = _SEGMENT_ROUNDING * poly._horner([abs(c) for c in s], 2.0)
    theta, boundary = _theta(s, rounding)
    if theta is None:
        # Rounding put a root of S on (-2, 2): the computed spectrum dips below
        # zero where gamma_MA is tiny, near omega = 0.  Factor the sequence
        # within rounding of gamma that lifts S by its rounding bound there.  An
        # end of the segment where S was already within rounding of 0 is an
        # exact unit root of theta that the lift may not move out.
        ends = [e for e in (-2.0, 2.0) if abs(poly._horner(s, e)) <= rounding]
        s[0] += rounding
        theta, _ = _theta(s, rounding, ends)
        if theta is None:
            raise FactorizationError("not_psd", "spectrum is negative beyond rounding: theta is not real")
        boundary = True
    tau2 = gamma[0] / (1.0 + np.dot(theta, theta))
    if boundary:
        warnings.warn("unit-circle spectral roots: factorization is at the non-invertible boundary", stacklevel=3)
    return theta, float(tau2), boundary


def _w_polynomial(gamma: list) -> list:
    """S(w) = gamma_0 + sum_n gamma_n D_n(w) in ascending powers of w.

    D_0 = 2, D_1 = w, D_(n+1) = w D_n - D_(n-1) on exact integer coefficients;
    each S_k adds gamma_n D_n[k] in order of n, so integer gammas give exact integers.
    """
    s = [gamma[0]] + [0] * (len(gamma) - 1)
    d_prev, d = [2], [0, 1]
    for g in gamma[1:]:
        for i, di in enumerate(d):
            s[i] += g * di
        d_prev, d = d, [x - y for x, y in zip([0] + d, d_prev + [0, 0])]
    return s


def _theta(s: list, rounding: float, ends=()) -> tuple[np.ndarray | None, bool]:
    """theta from the roots of S(w), or None when it is not real; and the boundary flag.

    theta is not real exactly when S has a real root in (-2, 2), a zero of the
    spectrum on the unit circle whose r has |r| = 1 and no conjugate partner;
    every other root is real with |w| >= 2 or one of an exactly conjugate pair.
    The flag is set when |S(clip(Re w, -2, 2))| <= ``rounding`` for a root w.
    For each end e of ``ends``, the root nearest e is read as e when it is real
    and inside the segment on e's side: an exact unit root of theta, z = e / 2,
    that rounding left inside.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            roots = poly.find_roots(s).tolist()
    except np.linalg.LinAlgError as exc:  # the companion of S is past the float range
        raise FactorizationError("non_finite", f"the roots of S(w) are not computable: {exc}") from None
    for e in ends:
        near = min(roots, key=lambda w: abs(w - e))
        if near.imag == 0.0 and 0.0 < near.real * e < 4.0:
            roots[roots.index(near)] = complex(e)
    if any(w.imag == 0.0 and -2.0 < w.real < 2.0 for w in roots):
        return None, False
    r = []
    for w in roots:
        root = cmath.sqrt((w - 2.0) * (w + 2.0))
        if not cmath.isfinite(root):  # (w - 2)(w + 2) overflows; the sign of root is not used
            root = cmath.sqrt(w - 2.0) * cmath.sqrt(w + 2.0)
        r.append((w + root if abs(w + root) >= abs(w - root) else w - root) / 2.0)
    boundary = any(abs(poly._horner(s, min(max(w.real, -2.0), 2.0))) <= rounding for w in roots)
    return np.array([x.real for x in _unit_product(r)[1:]]), boundary


def _unit_product(r: list) -> list:
    """Ascending coefficients of prod_j (1 - z / r_j) on complex scalars."""
    c = [1.0 + 0.0j]
    for rj in r:
        c = [c[0]] + [c[k] - c[k - 1] / rj for k in range(1, len(c))] + [-c[-1] / rj]
    return c


def sampled_arma(model: CarmaModel, delta: float) -> SampledArma:
    """Full chain: filter coefficients, exact gamma_MA, spectral factorization."""
    phi, gamma = sampling._filter_and_acvf(model, delta)
    theta, tau2, boundary = _factorize(gamma)
    return SampledArma(delta, tuple(phi.tolist()), tuple(gamma), tuple(theta.tolist()), tau2, boundary)


def reconstruction_residual(arma: SampledArma) -> float:
    """Max deviation of the autocovariances of (theta, tau2) from ``arma.gamma``, relative to gamma(0)."""
    rec = reconstruct_acvf(arma.theta, arma.tau2)  # theta may stop short of p - 1 where gamma_MA is 0
    return float(np.max(np.abs(rec - arma.gamma[: len(rec)])) / abs(arma.gamma[0]))
