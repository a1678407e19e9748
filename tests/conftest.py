import math
import os
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp

import carmahf
from carmahf import CarmaModel


@pytest.fixture
def ou():
    return CarmaModel([1.0], [1.0])


@pytest.fixture
def carma20():
    return CarmaModel([3.0, 2.0], [1.0])


@pytest.fixture
def carma21():
    # Corpus model from the acceptance suite; a and b share the zero -1, which
    # is harmless for every second-order quantity computed here.
    return CarmaModel([3.0, 2.0], [1.0, 1.0])


@pytest.fixture
def carma30():
    return CarmaModel([6.0, 11.0, 6.0], [1.0])  # roots -1, -2, -3


def child_env():
    """The environment of a child that imports the same package as this process,
    also when pytest put it on sys.path rather than PYTHONPATH."""
    src = str(Path(carmahf.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def corpus():
    return [
        CarmaModel([3.0, 2.0], [1.0, 1.0]),
        CarmaModel([3.0, 2.0], [1.0]),
        CarmaModel([6.0, 11.0, 6.0], [1.0]),
    ]


def random_stable_model(rng, p_max=4):
    p = int(rng.integers(1, p_max + 1))
    roots = []
    while len(roots) < p:
        if p - len(roots) >= 2 and rng.random() < 0.5:
            re = -rng.uniform(0.3, 3.0)
            im = rng.uniform(0.3, 3.0)
            roots += [complex(re, im), complex(re, -im)]
        else:
            roots.append(complex(-rng.uniform(0.3, 3.0), 0.0))
    a_poly = np.real(np.poly(np.array(roots)))  # descending, monic
    a = a_poly[1:]
    q = int(rng.integers(0, p))
    b = np.concatenate([rng.uniform(-1.0, 1.0, q), [1.0]])
    return CarmaModel(a, b, sigma2=float(rng.uniform(0.5, 2.0)))


def inverse_transform(density, n_points, lags):
    """int_-pi^pi f(w) cos(h w) dw for each lag h by the n-point rule on [-pi, pi), n even.

    For f(w) = (1/2pi) sum_k c_k e^(-ikw) the rule returns sum_m c_(h + m n): exact
    for a trigonometric polynomial of degree below n - h, and otherwise off by the
    aliased terms c_(h + m n), m != 0.
    """
    w = np.linspace(-np.pi, np.pi, n_points, endpoint=False)
    f = density(w)
    return [2 * np.pi * np.mean(f * np.cos(h * w)) for h in lags]


def roots_model(ar_roots, ma_zeros):
    """The model with these AR roots and MA zeros, b scaled to b_q = 1."""
    return CarmaModel(np.real(np.poly(ar_roots))[1:], np.atleast_1d(np.poly(ma_zeros))[::-1])


#: AR roots and MA zeros of the cases beyond distinct roots and low q: a double root,
#: a quadruple root, two roots 1e-5 apart, and q = p - 1 for p <= 5 (AR roots -1..-p,
#: MA zeros -1.5..-(p - 0.5)).
COVERAGE_ROOTS = {
    "double": ([-1.0, -1.0], [-0.5]),
    "quadruple": ([-1.0] * 4, [-0.5]),
    "near_pair": ([-1.0, -1.0 - 1e-5, -2.0], [-0.5]),
    **{f"p{p}q{p - 1}": (-np.arange(1.0, p + 1), -np.arange(1.5, p)) for p in range(1, 6)},
}


def coverage_models():
    return [roots_model(*roots) for roots in COVERAGE_ROOTS.values()]


#: a of a fourfold pair of AR roots at damping 1e-3 and modulus 2 (p = 8): its
#: correctly rounded Sigma fails plain Cholesky, so the simulators draw from
#: Sigma's exact factor (core._sigma_factor).
_PAIR = 2.0 * complex(-1e-3, math.sqrt(1.0 - 1e-6))
FOURFOLD_PAIR_A = np.real(np.poly([_PAIR, _PAIR.conjugate()] * 4))[1:]

#: Lightly damped pairs repeated several times, where the map a -> Sigma is so
#: ill-conditioned that a float solve loses Sigma's leading digits: the fourfold
#: pair above, and the worst model of test_core's damped-pair family at seed 9,
#: a fivefold pair at damping 0.01 and modulus 1.3e-3 (p = 10).
ILL_CONDITIONED_A = {
    "fourfold_pair": FOURFOLD_PAIR_A,
    "fivefold_pair": [
        0.0001387093270868829, 8.586456559667685e-06, 9.52176775737641e-10, 2.9477669151403847e-11,
        2.4507321159663143e-15, 5.057637244718152e-17, 2.8030229755828866e-21, 4.3368818087319116e-23,
        1.2020535377520332e-27, 1.4868689169585643e-29,
    ],
}


# The one high-precision reference: the state space (A, b, Sigma) in mpmath, from
# which every tested quantity is derived for any root multiplicity.


def mp_system(model):
    """(A, b, Sigma) of the model in mpmath at the working precision.

    Sigma_ij = Cov(Y^(i), Y^(j)) for the unit-input CAR(p) state, which is
    (-1)^i gamma^(i+j)(0) for even i + j and 0 for odd (gamma is even), so
    Sigma = sum_k c_k B_k with c_k = gamma^(2k)(0) and (B_k)_(i, 2k-i) = (-1)^i:
    p unknowns, not p^2.  Column k of the p^2 Lyapunov equations
    A Sigma + Sigma A^T = -e_p e_p^T is A B_k + B_k A^T, whose (i, j) entry is
    (-1)^j A_(i, 2k-j) + (-1)^i A_(j, 2k-i).  The equations in c are
    consistent; they are solved by least squares at three times the working
    precision, and the full residual is checked at the working precision.
    """
    p, dps = model.p, mp.dps
    a = model.companion()

    def entry(i, j):
        return a[i, j] if 0 <= j < p else 0.0

    with mp.workdps(3 * dps):
        K = mp.matrix(
            [
                [(-1) ** j * mp.mpf(entry(i, 2 * k - j)) + (-1) ** i * mp.mpf(entry(j, 2 * k - i)) for k in range(p)]
                for i in range(p)
                for j in range(p)
            ]
        )
        rhs = mp.matrix(p * p, 1)
        rhs[p * p - 1] = -1
        c = mp.lu_solve(K, rhs)
        sigma = mp.matrix(p, p)
        for i in range(p):
            for j in range(i % 2, p, 2):
                sigma[i, j] = (-1) ** i * c[(i + j) // 2]
        A = mp.matrix(a.tolist())
        E = A * sigma + sigma * A.T
        E[p - 1, p - 1] += 1
        assert mp.mnorm(E, 1) <= mp.mpf(10) ** -dps * mp.mnorm(A, 1) * mp.mnorm(sigma, 1)
    return A, mp.matrix(model.b_vector().tolist()), sigma


def mp_sigma(model, dps=80):
    """Sigma of :func:`mp_system` at ``dps`` digits, rounded to floats."""
    with mp.workdps(dps):
        return np.array(mp_system(model)[2].tolist(), dtype=float)


def mp_kernel_acvf(model, lags):
    """g(h) and gamma_Y(h) to 60 digits from the row b^T e^(Ah), rounded to floats.

    Below h = 1e-3 the row is the Taylor series, whose terms fall at once;
    above it mp.expm, whose error is relative to a norm of order one.
    """
    g, gamma = [], []
    with mp.workdps(60):
        A, b, sigma = mp_system(model)
        for h in lags:
            if h >= 1e-3:
                row = b.T * mp.expm(A * mp.mpf(h))
            else:
                row = term = b.T
                for n in range(1, 40):
                    term = term * A * (mp.mpf(h) / n)
                    row += term
            g.append(row[model.p - 1])
            gamma.append(model.sigma2 * (row * sigma * b)[0])
    return np.array(g, dtype=float), np.array(gamma, dtype=float)


def mp_continuous_density(model, omegas):
    """f_Y(w) = sigma2/(2 pi) |b(iw)|^2 / |a(iw)|^2 to 30 digits, rounded to floats;
    mpmath's exponent range has no overflow."""
    with mp.workdps(30):
        out = []
        for w in omegas:
            z = mp.mpc(0, w)
            num, den = abs(mp.polyval(model.b[::-1], z)) ** 2, abs(mp.polyval([1.0, *model.a], z)) ** 2
            out.append(model.sigma2 / (2 * mp.pi) * num / den)
        return np.array(out, dtype=float)


def mp_sampled_density(model, delta, omegas):
    """f_Delta(w) to 60 digits, rounded to floats.

    gamma_Y(n delta) = sigma2 b^T F^n Sigma b with F = e^(A delta), so summing
    the Fourier series gives
    f_Delta(w) = sigma2/(2 pi) [b^T Sigma b + 2 Re b^T (e^(iw) I - F)^-1 F Sigma b].
    """
    with mp.workdps(60):
        A, b, sigma = mp_system(model)
        F = mp.expm(A * mp.mpf(delta))
        s, u = (b.T * sigma * b)[0], F * sigma * b
        out = []
        for w in omegas:
            r = mp.lu_solve(mp.expj(mp.mpf(w)) * mp.eye(model.p) - F, u)
            out.append(model.sigma2 / (2 * mp.pi) * (s + 2 * mp.re((b.T * r)[0])))
        return np.array(out, dtype=float)


def mp_gamma_ma(model, delta):
    """The filter phi and gamma_MA(0..p-1) at the working precision, as mp vectors.

    phi_j are the coefficients of det(I - F B), the characteristic polynomial
    of F = e^(A delta) by Faddeev-LeVerrier, and
    gamma_MA(n) = sum_(j,k) phi_j phi_k gamma_Y((n + j - k) delta).

    gamma_MA comes from gamma_Y, built from Sigma, so the sum cancels about
    log10(gamma_Y(0) / gamma_MA(0)) digits.  On a model with AR roots near the
    imaginary axis that exceeds 80: for the AR roots -2.53e-13, -1.99e-14,
    -1.60e-13 +- 0.386i and -0.443, b = (1) and delta = 1e-4, it is 77, and
    80 digits give gamma_MA(0) = 3.957e-37 against 4.303987220943075e-37 at
    150 and at 250 digits.  Such a model needs a higher working precision.
    """
    p = model.p
    A, b, sigma = mp_system(model)
    F = mp.expm(A * mp.mpf(delta))
    phi, M = [mp.mpf(1)], mp.zeros(p, p)
    for k in range(1, p + 1):
        M = F * M + phi[-1] * mp.eye(p)
        FM = F * M
        phi.append(-mp.fsum(FM[i, i] for i in range(p)) / k)
    rows = [b.T]
    for _ in range(2 * p - 1):
        rows.append(rows[-1] * F)
    acvf = [model.sigma2 * (row * sigma * b)[0] for row in rows]
    gamma = [
        mp.fsum(phi[j] * phi[k] * acvf[abs(n + j - k)] for j in range(p + 1) for k in range(p + 1))
        for n in range(p)
    ]
    return phi, gamma


def mp_theta(gamma):
    """(theta, tau2) of the invertible MA factor of gamma(0..m), at the working precision.

    S(w) = gamma_0 + sum_n gamma_n D_n(w) by D_0 = 2, D_1 = w,
    D_(n+1) = w D_n - D_(n-1); each root w of S, found by mp.polyroots at
    raised precision, gives the root r of z^2 - w z + 1 with |r| >= 1;
    theta(z) = prod(1 - z / r) and tau2 = gamma_0 / (1 + sum theta_j^2).
    """
    m = len(gamma) - 1
    s = [gamma[0]] + [mp.mpf(0)] * m
    d_prev, d = [2], [0, 1]
    for g in gamma[1:]:
        for i, di in enumerate(d):
            s[i] += g * di
        d_prev, d = d, [x - y for x, y in zip([0] + d, d_prev + [0, 0])]
    c = [mp.mpc(1)]
    if m:
        for w in mp.polyroots(s[::-1], maxsteps=500, extraprec=2 * mp.prec):
            root = mp.sqrt((w - 2) * (w + 2))
            r = (w + root if abs(w + root) >= abs(w - root) else w - root) / 2
            c = [c[0]] + [c[k] - c[k - 1] / r for k in range(1, len(c))] + [-c[-1] / r]
    theta = [mp.re(x) for x in c[1:]]
    return theta, gamma[0] / (1 + mp.fsum(t**2 for t in theta))
