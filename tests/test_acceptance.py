"""Acceptance suite: ten end-to-end checks of the package's core claims.

Each test prints a single PASS/FAIL line so the suite doubles as a
human-readable report when run with ``pytest -s`` (or via the captured
output of ``pytest -v``).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import carmahf as chf
from carmahf import CarmaModel, DriverSpec
from carmahf.asymptotics import _numerator

from conftest import corpus, inverse_transform


def report(name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def test_criterion_01_ma1_limit_constants():
    """Factorizing gamma = (2/3, 1/6) yields theta = 2 - sqrt(3), tau2 = (2 + sqrt(3))/6."""
    theta, tau2 = chf.spectral_factorize([2.0 / 3.0, 1.0 / 6.0])
    ok = (
        len(theta) == 1
        and abs(theta[0] - (2.0 - math.sqrt(3.0))) <= 1e-10 * (2.0 - math.sqrt(3.0))
        and abs(tau2 - (2.0 + math.sqrt(3.0)) / 6.0) <= 1e-10 * (2.0 + math.sqrt(3.0)) / 6.0
    )
    report("criterion 1: MA(1) limit constants from (2/3, 1/6)", ok)


def test_criterion_02_ma2_limit_constants():
    """Factorizing gamma = (11/20, 13/60, 1/120) yields the closed-form MA(2) limit."""
    theta, tau2 = chf.spectral_factorize([11.0 / 20.0, 13.0 / 60.0, 1.0 / 120.0])
    r30 = math.sqrt(30.0)
    t1 = 13.0 - math.sqrt(135.0 + 4.0 * r30)
    t2 = 2.0 * (8.0 + r30) - math.sqrt(375.0 + 64.0 * r30)
    s = (2.0 * (8.0 + r30) + math.sqrt(375.0 + 64.0 * r30)) / 120.0
    ok = (
        len(theta) == 2
        and abs(theta[0] - t1) <= 1e-9 * t1
        and abs(theta[1] - t2) <= 1e-9 * t2
        and abs(tau2 - s) <= 1e-9 * s
    )
    report("criterion 2: MA(2) limit constants from (11/20, 13/60, 1/120)", ok)


def test_criterion_03_top_lag_rational_identity():
    """Exact rational check of the top-lag asymptotic covariance for all p <= 6."""
    ok = True
    for p in range(1, 7):
        for q in range(p):
            d = p - q
            got = Fraction(_numerator(p, q, p - 1), 2 * math.factorial(2 * d - 1))
            ok &= got == Fraction((-1) ** q, math.factorial(2 * d - 1))
    # tabulated family: coefficients 1, 1/6, 1/120, 1/5040 for d = 1..4 with sign (-1)^(p-d)
    for d, denom in ((1, 1), (2, 6), (3, 120), (4, 5040)):
        p, q = d, 0
        got = Fraction(_numerator(p, q, p - 1), 2 * math.factorial(2 * d - 1))
        ok &= got == Fraction((-1) ** (p - d), denom)
    report("criterion 3: top-lag asymptotic covariance, exact rational arithmetic", ok)


def test_criterion_04_exact_asymptotic_convergence():
    """Exact/asymptotic ratios within 1 +/- 0.02 at delta = 1e-3, improving from 1e-2."""
    ok = True
    omegas = (np.pi / 4, np.pi / 2, np.pi)
    for m in corpus():
        gamma = {d: chf.acvf_filtered_sequence(m, d).values for d in (1e-2, 1e-3)}
        for n in range(m.p):
            errs = [abs(gamma[d][n] / chf.gamma_ma_asymptotic(m, d, n) - 1.0) for d in (1e-2, 1e-3)]
            ok &= errs[1] <= 0.02 and errs[1] < errs[0]
        for w in omegas:
            errs = [
                abs(chf.spectral_density_filtered(m, d, w) / chf.f_ma_asymptotic(m, d, w) - 1.0)
                for d in (1e-2, 1e-3)
            ]
            ok &= errs[1] <= 0.02 and errs[1] < errs[0]
    report("criterion 4: exact-to-asymptotic convergence on the three-model corpus", ok)


def test_criterion_05_fourier_duality():
    """gamma_MA(n) equals the inverse transform of f_MA to 1e-8 relative.

    f_MA is a trigonometric polynomial of degree p - 1, so the 4p-point rule is exact.
    """
    ok = True
    for m in corpus():
        for d in (0.01, 0.1, 0.5):
            gamma = chf.acvf_filtered_sequence(m, d).values
            got = inverse_transform(lambda w: chf.spectral_density_filtered(m, d, w), 4 * m.p, range(m.p))
            ok &= all(abs(g - want) <= 1e-8 * gamma[0] for g, want in zip(got, gamma))
    report("criterion 5: Fourier duality of filtered covariances and spectrum", ok)


def test_criterion_06_finite_correlation_and_annihilation():
    """Covariances vanish beyond lag p-1; the filter annihilates the kernel."""
    ok = True
    rng = np.random.default_rng(606)
    for m in corpus():
        d = 0.1
        gamma = chf.acvf_filtered_sequence(m, d, m.p + 1).values
        ok &= abs(gamma[m.p]) <= 1e-9 * gamma[0]
        ok &= abs(gamma[m.p + 1]) <= 1e-9 * gamma[0]
        gmax = np.abs(chf.kernel_values(m, np.linspace(0.01, 10.0, 400))).max()
        A = chf.filter_coefficients(m, d)
        for t in m.p * d + rng.uniform(1e-3, 10.0, 20):
            ok &= abs(A @ chf.kernel_values(m, t - d * np.arange(m.p + 1))) <= 1e-10 * gmax
    report("criterion 6: finite correlation length and kernel annihilation", ok)


def test_criterion_07_monte_carlo_exact_gaussian():
    """Exact-Gaussian simulation reproduces analytic filtered covariances (4 SE)."""
    m = CarmaModel([3.0, 2.0], [1.0, 1.0])
    r = chf.simulate_gaussian_exact(m, 0.1, 1_000_000, seed=12345)
    emp = chf.empirical_filtered_acvf(r, lags=3)
    exact = chf.acvf_filtered_sequence(m, 0.1, n_max=3)
    ok = True
    for h in range(4):
        dev = abs(emp.values[h] - exact.values[h]) / emp.stderr[h]
        ok &= dev <= 4.0
    report("criterion 7: exact-Gaussian Monte Carlo agreement at 4 standard errors", ok)


def test_criterion_08_driver_invariance():
    """Compound-Poisson driver yields the same second-order structure (4 SE)."""
    m = CarmaModel([3.0, 2.0], [1.0, 1.0])
    drv = DriverSpec(kind="compound_poisson", jump_rate=5.0, jump_dist="two_point")
    r = chf.simulate_euler(m, 0.1, 200_000, substeps=64, driver=drv, seed=999)
    emp = chf.empirical_filtered_acvf(r, lags=1)
    exact = chf.acvf_filtered_sequence(m, 0.1)
    ok = True
    for h in range(2):
        dev = abs(emp.values[h] - exact.values[h]) / emp.stderr[h]
        ok &= dev <= 4.0
    report("criterion 8: driver invariance of the second-order structure", ok)


def test_criterion_09_brownian_increment_limit():
    """CAR(1) differenced samples behave like Brownian increments for small delta."""
    ou = CarmaModel([1.0], [1.0])
    d = 0.002
    r = chf.simulate_gaussian_exact(ou, d, 200_000, seed=2024)
    inc = np.diff(r.y)
    var = float(np.var(inc))
    se = d * math.sqrt(2.0 / len(inc))
    ok = abs(var - d) <= 4.0 * se
    w = np.linspace(0.05, np.pi, 101)
    spec = chf.differenced_spectrum_asymptotic(ou, d, w)
    ok &= np.max(np.abs(spec - d / (2 * np.pi))) <= 1e-12 * d / (2 * np.pi)
    report("criterion 9: Brownian-increment limit of differenced CAR(1) samples", ok)


def test_criterion_10_factorization_roundtrip():
    """200 random invertible MA models: theta within 1e-8, tau2 within 1e-10."""
    rng = np.random.default_rng(1010)
    ok = True
    for _ in range(200):
        m = int(rng.integers(1, 6))
        roots = []
        while len(roots) < m:
            if m - len(roots) >= 2 and rng.random() < 0.5:
                rad = rng.uniform(1.15, 4.0)
                ang = rng.uniform(0.1, np.pi - 0.1)
                roots += [rad * np.exp(1j * ang), rad * np.exp(-1j * ang)]
            else:
                roots.append(rng.uniform(1.15, 4.0) * rng.choice([-1.0, 1.0]))
        theta_true = np.real(np.poly(1.0 / np.array(roots, dtype=complex)))[1:]
        tau2_true = float(rng.uniform(0.2, 3.0))
        gamma = chf.reconstruct_acvf(theta_true, tau2_true)
        theta, tau2 = chf.spectral_factorize(gamma)
        ok &= np.max(np.abs(np.asarray(theta) - theta_true)) <= 1e-8
        ok &= abs(tau2 - tau2_true) <= 1e-10 * tau2_true
        if len(theta):
            # np.roots on (1, theta_1, ..., theta_m) returns the reciprocals of
            # the zeros of theta(z), so invertibility means all moduli <= 1
            ok &= np.max(np.abs(np.roots(np.concatenate([[1.0], theta])))) <= 1.0 + 1e-8
    report("criterion 10: spectral-factorization roundtrip property suite", ok)
