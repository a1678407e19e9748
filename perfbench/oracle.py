"""High-precision reference for the sampled CARMA second-order structure.

The reference follows the state-space route and never finds a root, so it is
valid for every root multiplicity:

* M = [[A, e_p e_p^T], [0, -A^T]], E = expm(M * delta) (mpmath);
* F = E[:p, :p] = e^(A delta) and Q = E[:p, p:] F^T (Van Loan 1978);
* phi = charpoly(F) by Faddeev-LeVerrier;
* v_j = C_j^T b with C_j = sum_{k <= j} phi_k F^(j-k), and
  gamma_MA(n) = sigma2 * sum_j v_{j+n}^T Q v_j;
* f_MA(w) = (gamma(0) + 2 sum_n gamma(n) cos(n w)) / (2 pi) and
  f_Delta = f_MA / |phi(e^(i w))|^2.

Every value is computed at two working precisions and the pair must agree far
beyond the 1e-6 judging tolerance; when they do not, both precisions are
raised.  Results are cached by their exact float inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mp

#: Tolerances used to judge library output ("misses the oracle").
REL_TOL = 1e-6
#: Required agreement between the two working precisions.
CERT_TOL = 1e-15
_EXTRA_DPS = 15
_MAX_TRIES = 4
#: Grid sizes used to extrapolate the small-delta limit coefficients.
_LIMIT_DELTAS = (1e-6, 1e-7, 1e-8)


class OracleError(RuntimeError):
    """The reference could not certify itself."""

    def __init__(self, message: str):
        super().__init__(message)
        _failures.append(message)


_failures = []


def certified() -> bool:
    """True while no reference of this process has failed its certification."""
    return not _failures


@dataclass(frozen=True)
class Reference:
    """Certified sampled structure of one (model, delta); values are mpf."""

    p: int
    q: int
    sigma2: float
    delta: float
    phi: tuple  # (1, phi_1, ..., phi_p)
    gamma: tuple  # gamma_MA(0..p-1)
    dps: int
    agreement: float  # relative disagreement of the two precisions


def _base_dps(p: int, delta: float) -> int:
    # Entries of E span delta^0 .. delta^(2p-1) and C_j cancels down to
    # delta^j, so the digits lost grow like p |log10 delta|; the two-precision
    # comparison raises the precision if that estimate is short.
    return 30 + p * max(1, math.ceil(-math.log10(delta)))


def _companion(a):
    p = len(a)
    A = mp.zeros(p, p)
    for i in range(p - 1):
        A[i, i + 1] = 1
    for j in range(p):
        A[p - 1, j] = -mp.mpf(a[p - 1 - j])
    return A


def _filter_vectors(F, b) -> tuple:
    """phi = charpoly(F) and the vectors v_j = C_j^T b, j = 0..p-1."""
    p = F.rows
    # Faddeev-LeVerrier: det(zI - F) = z^p + c_1 z^(p-1) + ... + c_p.
    phi = [mp.mpf(1)]
    Mk = mp.eye(p)
    for k in range(1, p + 1):
        FM = F * Mk
        c = -sum(FM[i, i] for i in range(p)) / k
        phi.append(c)
        Mk = FM + c * mp.eye(p)

    bv = mp.matrix([mp.mpf(x) for x in b] + [0] * (p - len(b)))
    v = []
    Fpow = [mp.eye(p)]
    for _ in range(p - 1):
        Fpow.append(F * Fpow[-1])
    for j in range(p):
        C = mp.zeros(p, p)
        for k in range(j + 1):
            C += phi[k] * Fpow[j - k]
        v.append(C.T * bv)
    return phi, v


def _structure(a, b, sigma2: float, delta: float):
    """(phi, gamma) at the current working precision."""
    p = len(a)
    A = _companion(a)
    M = mp.zeros(2 * p, 2 * p)
    for i in range(p):
        for j in range(p):
            M[i, j] = A[i, j]
            M[p + i, p + j] = -A[j, i]
    M[p - 1, 2 * p - 1] = 1
    E = mp.expm(M * mp.mpf(delta))
    F = E[0:p, 0:p]
    Q = E[0:p, p : 2 * p] * F.T
    Q = (Q + Q.T) / 2
    phi, v = _filter_vectors(F, b)
    s2 = mp.mpf(sigma2)
    gamma = []
    for n in range(p):
        tot = mp.mpf(0)
        for j in range(p - n):
            tot += (v[j + n].T * Q * v[j])[0, 0]
        gamma.append(s2 * tot)
    return phi, gamma


def _rel_diff(x, y, scale) -> float:
    return float(max(abs(u - w) for u, w in zip(x, y)) / scale)


@lru_cache(maxsize=None)
def reference(a: tuple, b: tuple, sigma2: float, delta: float) -> Reference:
    """Certified phi and gamma_MA(0..p-1) for one (model, delta)."""
    p = len(a)
    dps = _base_dps(p, delta)
    for _ in range(_MAX_TRIES):
        with mp.workdps(dps):
            phi_lo, gam_lo = _structure(a, b, sigma2, delta)
        with mp.workdps(dps + _EXTRA_DPS):
            phi_hi, gam_hi = _structure(a, b, sigma2, delta)
            agree = max(
                _rel_diff(gam_lo, gam_hi, abs(gam_hi[0])),
                _rel_diff(phi_lo, phi_hi, max(abs(c) for c in phi_hi)),
            )
        if agree < CERT_TOL:
            return Reference(p, len(b) - 1, sigma2, delta, tuple(phi_hi), tuple(gam_hi), dps + _EXTRA_DPS, agree)
        dps += 30
    raise OracleError(f"precisions disagree by {agree:.3g} for a={a} b={b} delta={delta}")


def _trig_sum(gamma, w):
    return gamma[0] + 2 * sum(gamma[n] * mp.cos(n * w) for n in range(1, len(gamma)))


def trig_value(gamma, w: float) -> float:
    """(gamma(0) + 2 sum_n gamma(n) cos(n w)) / (2 pi) for a finite gamma."""
    with mp.workdps(60):
        return float(_trig_sum([mp.mpf(g) for g in gamma], mp.mpf(w)) / (2 * mp.pi))


def _psi(phi, w):
    re = sum(c * mp.cos(k * w) for k, c in enumerate(phi))
    im = sum(c * mp.sin(k * w) for k, c in enumerate(phi))
    return re * re + im * im


def spectra(ref: Reference, omegas) -> tuple[list, list]:
    """(f_MA, f_Delta) at each omega, as floats."""
    f_ma, f_d = [], []
    with mp.workdps(ref.dps):
        two_pi = 2 * mp.pi
        for w in omegas:
            wm = mp.mpf(float(w))
            fm = _trig_sum(ref.gamma, wm) / two_pi
            f_ma.append(float(fm))
            f_d.append(float(fm / _psi(ref.phi, wm)))
    return f_ma, f_d


def canonical_model(p: int, q: int) -> tuple:
    """(a, b) with AR roots -1..-p and MA polynomial (z + 1/2)^q."""
    a = [1.0]
    for r in range(1, p + 1):
        a = [x + r * y for x, y in zip(a + [0.0], [0.0] + a)]
    b = [1.0]
    for _ in range(q):
        b = [x + 0.5 * y for x, y in zip([0.0] + b, b + [0.0])]
    return tuple(a[1:]), tuple(b)


@lru_cache(maxsize=None)
def limit_for_orders(p: int, q: int) -> tuple:
    """Small-delta limit coefficients of gamma_MA for orders (p, q).

    The limit depends on the orders only; it is extrapolated on
    :func:`canonical_model` and checked against the paper's exact top lag.
    """
    a, b = canonical_model(p, q)
    lim = limit_coefficients(a, b, 1.0)
    top = exact_top_lag_coefficient(p, q)
    if abs(lim[-1] - mpmath.mpf(top.numerator) / top.denominator) > 1e-12 * abs(lim[0]):
        raise OracleError(f"top-lag limit {lim[-1]} differs from exact {top} for p={p} q={q}")
    return lim


@lru_cache(maxsize=None)
def limit_coefficients(a: tuple, b: tuple, sigma2: float) -> tuple:
    """lim gamma_MA(n) / (sigma2 delta^(2(p-q)-1)) as delta -> 0, n = 0..p-1.

    Polynomial (Lagrange) extrapolation to delta = 0 of the certified reference
    at three tiny grid sizes; gamma_MA / delta^(2(p-q)-1) is analytic in delta.
    A fourth point certifies the extrapolation.
    """
    p, q = len(a), len(b) - 1
    d = p - q
    deltas = _LIMIT_DELTAS + (_LIMIT_DELTAS[-1] / 10,)
    rows = []
    with mp.workdps(60):
        for dl in deltas:
            ref = reference(a, b, sigma2, dl)
            scale = mp.mpf(sigma2) * mp.mpf(dl) ** (2 * d - 1)
            rows.append([g / scale for g in ref.gamma])

        def extrapolate(xs, ys):
            # Lagrange polynomial through (xs, ys) evaluated at 0.
            tot = mp.mpf(0)
            for i, xi in enumerate(xs):
                w = mp.mpf(1)
                for j, xj in enumerate(xs):
                    if i != j:
                        w *= xj / (xj - xi)
                tot += w * ys[i]
            return tot

        xs = [mp.mpf(x) for x in deltas]
        lim3 = [extrapolate(xs[:3], [r[n] for r in rows[:3]]) for n in range(p)]
        lim4 = [extrapolate(xs, [r[n] for r in rows]) for n in range(p)]
        agree = _rel_diff(lim3, lim4, abs(lim4[0]))
    if agree > 1e-12:
        raise OracleError(f"limit extrapolation disagrees by {agree:.3g} for a={a} b={b}")
    return tuple(lim4)


def exact_top_lag_coefficient(p: int, q: int) -> Fraction:
    """The paper's exact limit (-1)^q / (2(p-q)-1)! of gamma_MA(p-1)."""
    return Fraction((-1) ** q, math.factorial(2 * (p - q) - 1))


def self_check() -> None:
    """Check the reference against the library on carma21 at delta = 0.1.

    The two-precision agreement and the exact top-lag limit are checked on
    every reference as it is produced.
    """
    from carmahf import core, sampling

    m = core.CarmaModel([3.0, 2.0], [1.5, 1.0])
    ref = reference(m.a, m.b, m.sigma2, 0.1)
    err = max(
        gamma_error(sampling.acvf_filtered_sequence(m, 0.1).values, ref.gamma),
        phi_error(sampling.filter_coefficients(m, 0.1), ref),
    )
    if err > 1e-9:
        raise OracleError(f"reference and library disagree by {err:.3g} on carma21 at delta = 0.1")
    limit_for_orders(m.p, m.q)


def is_invertible(theta) -> bool:
    """Schur-Cohn step-down test: every zero of 1 + theta_1 z + ... lies outside |z| <= 1."""
    with mp.workdps(50):
        c = [mp.mpf(1)] + [mp.mpf(float(t)) for t in theta]
        while len(c) > 1:
            k = c[-1] / c[0]
            if abs(k) >= 1:
                return False
            m = len(c) - 1
            c = [(c[i] - k * c[m - i]) for i in range(m)]
        return True


def ma_acvf(theta, tau2: float) -> list:
    """Autocovariances of the MA model (theta, tau2), exactly from its floats."""
    with mp.workdps(50):
        t = [mp.mpf(1)] + [mp.mpf(float(x)) for x in theta]
        m = len(t) - 1
        return [mp.mpf(float(tau2)) * sum(t[i] * t[i + n] for i in range(m + 1 - n)) for n in range(m + 1)]


# -- Judging rules -----------------------------------------------------------


def gamma_error(got, ref_gamma) -> float:
    """max |got - ref| / |ref(0)|; lags missing on either side count as zero."""
    n = max(len(got), len(ref_gamma))
    g = [float(x) for x in got] + [0.0] * (n - len(got))
    if not all(math.isfinite(x) for x in g):
        return math.inf
    r = [mpmath.mpf(x) for x in ref_gamma] + [mpmath.mpf(0)] * (n - len(ref_gamma))
    return float(max(abs(mpmath.mpf(x) - y) for x, y in zip(g, r)) / abs(r[0]))


def spectrum_error(got, ref_values) -> float:
    """max relative error over the grid; inf if ``got`` has another length."""
    got = list(got)
    if len(got) != len(ref_values):
        return math.inf
    worst = 0.0
    for x, y in zip(got, ref_values):
        x = float(x)
        err = abs(x - y) / abs(y) if y != 0.0 else (0.0 if x == 0.0 else math.inf)
        if not math.isfinite(x):
            err = math.inf
        worst = max(worst, err)
    return worst


def arma_error(theta, tau2: float, ref: Reference) -> float:
    """Reconstruction error of (theta, tau2) against gamma_MA; inf if not invertible."""
    if not is_invertible(theta):
        return math.inf
    return gamma_error([float(x) for x in ma_acvf(theta, tau2)], ref.gamma)


def phi_error(phi, ref: Reference) -> float:
    """max |phi - ref| / max |ref| over the filter coefficients."""
    return gamma_error(phi, ref.phi) * abs(ref.phi[0]) / float(max(abs(c) for c in ref.phi))
