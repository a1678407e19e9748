import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import carmahf as chf
from carmahf import CarmaModel
from carmahf.asymptotics import _numerator

from conftest import corpus


def _coefficient(p: int, q: int, n: int) -> Fraction:
    """The exact rational coefficient of sigma^2 Delta^(2d-1) in gamma_MA(n), d = p - q."""
    return Fraction(_numerator(p, q, n), 2 * math.factorial(2 * (p - q) - 1))


def _cosine_sum(coefs, w) -> "mpmath.mpf":
    """(C_0 + 2 sum_n C_n cos(n w)) / (2 pi) of exact rationals C_n.

    Exact at w = 0.  Near it the O(1) terms cancel to O(w^(2q)), so the
    sum carries 60 digits more than that cancellation takes.
    """
    if w == 0.0:
        total = coefs[0] + 2 * sum(coefs[1:])
        return mpmath.mpf(total.numerator) / total.denominator / (2 * mpmath.pi)
    with mpmath.workdps(60 + int(2 * len(coefs) * max(0.0, -math.log10(w)))):
        x = mpmath.mpf(float(w))
        total = mpmath.mpf(0)
        for n, c in enumerate(coefs):
            total += (1 if n == 0 else 2) * mpmath.mpf(c.numerator) / c.denominator * mpmath.cos(n * x)
        return +(total / (2 * mpmath.pi))


def _ulps(got: float, want) -> float:
    """|got - want| in units in the last place of want as a float."""
    return float(abs(mpmath.mpf(float(got)) - want)) / math.ulp(float(want))


class TestFmaAsymptotic:
    def test_ratio_to_exact_small_delta(self):
        # exact / asymptotic -> 1 as delta -> 0 at fixed omega
        w = np.array([0.7, 1.5, 2.8])
        for m in corpus():
            err_coarse = np.max(
                np.abs(chf.spectral_density_filtered(m, 1e-2, w) / chf.f_ma_asymptotic(m, 1e-2, w) - 1.0)
            )
            err_fine = np.max(
                np.abs(chf.spectral_density_filtered(m, 1e-3, w) / chf.f_ma_asymptotic(m, 1e-3, w) - 1.0)
            )
            assert err_fine < 0.02
            assert err_fine < err_coarse

    def test_car1_explicit(self, ou):
        # d = 1: S_1 = 1, the flat Brownian-increment spectrum sigma2 delta / (2 pi)
        d = 1e-3
        assert chf.f_ma_asymptotic(ou, d, 1.1) == pytest.approx(d / (2 * np.pi), rel=1e-12)

    def test_matches_mpmath_cosine_sum(self):
        # Both spectra against the cosine sum of the exact coefficients in
        # mpmath, at omega = 0, near it and on a grid over (0, pi].  Measured
        # worst cases on x86-64 with numpy 2.4: 11.5 ulp for f_MA (p = 10,
        # q = 9) and 5.9 ulp for the differenced spectrum (d = 10); the bounds
        # double them to allow for another libm's sin and cos.
        omegas = np.concatenate([[0.0, 1e-8, 1e-5, 1e-3], np.linspace(0.0, np.pi, 65)[1:]])
        worst_f = worst_s = 0.0
        for p in range(1, 11):
            for q in range(p):
                d = p - q
                # (z + 1)^p: a stable model of orders (p, q); sigma2 = delta = 1 leaves the coefficient sums
                m = CarmaModel([math.comb(p, k) for k in range(1, p + 1)], [1.0] * (q + 1))
                f = chf.f_ma_asymptotic(m, 1.0, omegas)
                s = chf.differenced_spectrum_asymptotic(m, 1.0, omegas)
                if q >= 1:
                    assert f[0] == 0.0
                for w, fw, sw in zip(omegas, f, s):
                    want_f = _cosine_sum([_coefficient(p, q, n) for n in range(p)], w)
                    want_s = _cosine_sum([_coefficient(d, 0, n) for n in range(d)], w)
                    if want_f != 0:
                        worst_f = max(worst_f, _ulps(fw, want_f))
                    worst_s = max(worst_s, _ulps(sw, want_s))
        assert worst_f <= 23.0
        assert worst_s <= 12.0


class TestGammaMaAsymptotic:
    def test_lag_pminus1_closed_form(self):
        # gamma_MA(p-1) coefficient equals (-1)^q / (2(p-q)-1)! exactly
        for p in range(1, 11):
            for q in range(p):
                got = _coefficient(p, q, p - 1)
                want = Fraction((-1) ** q, math.factorial(2 * (p - q) - 1))
                assert got == want

    def test_vanishes_beyond_order(self):
        for p in range(1, 11):
            for q in range(p):
                for n in range(p, p + 2):
                    assert _coefficient(p, q, n) == 0

    def test_known_table_values(self):
        # MA limit of the d=2 family: gamma(0)/gamma(1) = -(2-sqrt(3))/... check
        # via the tabulated limit model instead of hand expansion.
        lim = chf.limit_ma_model(2)
        g0 = float(_coefficient(2, 0, 0))
        g1 = float(_coefficient(2, 0, 1))
        t = lim.theta[0]
        assert g1 / g0 == pytest.approx(t / (1 + t * t), rel=1e-12)
        assert g0 == pytest.approx(lim.tau2_scale * (1 + t * t), rel=1e-12)

    def test_matches_exact_small_delta(self):
        cases = [(m, 1e-3, 0.02) for m in corpus()]
        # p = 5, q = 0 at delta = 1e-5: gamma_MA(n) is of size delta^9, far
        # below the rounding error of its O(1) ingredients in unscaled form
        cases.append((CarmaModel([15.0, 85.0, 225.0, 274.0, 120.0], [1.0]), 1e-5, 1e-3))
        for m, d, tol in cases:
            gamma = chf.acvf_filtered_sequence(m, d).values
            for n in range(m.p):
                exact = gamma[n]
                asym = chf.gamma_ma_asymptotic(m, d, n)
                assert exact / asym == pytest.approx(1.0, abs=tol)

    def test_half_sum_is_the_central_difference(self):
        # only the terms with n + k < 0 are summed: the rest is a 2p-th
        # difference of an odd polynomial of degree 2d - 1 < 2p, which is 0
        for p in range(1, 13):
            for q in range(p):
                d = p - q
                for n in range(p + 2):
                    full = sum(
                        (-1) ** (k % 2) * math.comb(2 * p, p + k) * abs(n + k) ** (2 * d - 1)
                        for k in range(-p, p + 1)
                    )
                    assert _numerator(p, q, n) == (-1) ** d * full

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            _numerator(2, 2, 0)
        with pytest.raises(ValueError):
            _numerator(2, 0, -1)


class TestLimitMaModel:
    def test_d1(self):
        lim = chf.limit_ma_model(1)
        assert lim.theta == ()
        assert lim.tau2_scale == 1.0

    def test_d2(self):
        lim = chf.limit_ma_model(2)
        assert lim.theta[0] == pytest.approx(2.0 - math.sqrt(3.0), rel=1e-15)
        assert lim.tau2_scale == pytest.approx((2.0 + math.sqrt(3.0)) / 6.0, rel=1e-15)

    def test_d3(self):
        lim = chf.limit_ma_model(3)
        assert lim.theta[0] == pytest.approx(0.4736716353032389, rel=1e-12)
        assert lim.theta[1] == pytest.approx(0.0185561992518437, rel=1e-9)
        assert lim.tau2_scale == pytest.approx(0.44908621750795674, rel=1e-12)

    def test_consistency_with_rational_coefficients(self):
        # the limit MA model must reproduce the exact asymptotic covariances
        for d in range(1, 9):
            p, q = d, 0
            lim = chf.limit_ma_model(d)
            t = np.concatenate([[1.0], lim.theta])
            for n in range(d):
                want = float(_coefficient(p, q, n))
                got = lim.tau2_scale * float(np.dot(t[: d - n], t[n:]))
                assert got == pytest.approx(want, rel=1e-9)

    def test_unsupported(self):
        with pytest.raises(ValueError):
            chf.limit_ma_model(0)

    def test_factorization_converges_to_limit_d3(self, carma30):
        lim = chf.limit_ma_model(3)
        arma = chf.sampled_arma(carma30, 1e-3)
        assert np.allclose(arma.theta, lim.theta, atol=0.01)
        assert arma.tau2 / (carma30.sigma2 * 1e-15) == pytest.approx(lim.tau2_scale, rel=0.02)


class TestDifferencedSpectrum:
    def test_car1_flat(self, ou):
        # increments of near-Brownian motion: flat spectrum sigma2 delta / 2pi
        d = 1e-3
        w = np.array([0.5, 1.5, 3.0])
        got = chf.differenced_spectrum_asymptotic(ou, d, w)
        assert np.allclose(got, d / (2 * np.pi), rtol=1e-12)

    def test_relation_to_filtered_asymptotic(self, carma20):
        # the two asymptotic forms differ by (2(1-cos w))^p vs (... )^d scaling
        d = 1e-3
        w = 1.3
        f1 = chf.f_ma_asymptotic(carma20, d, w)
        f2 = chf.differenced_spectrum_asymptotic(carma20, d, w)
        ratio = (2.0 * (1.0 - math.cos(w))) ** carma20.q
        assert f1 / f2 == pytest.approx(ratio, rel=1e-10)

    def test_overflowing_delta_gives_inf(self, carma20):
        # delta^(2d-1) overflows to inf, as in f_ma_asymptotic, instead of raising OverflowError
        with np.errstate(over="ignore"):
            assert chf.differenced_spectrum_asymptotic(carma20, 1e200, 1.3) == np.inf


@pytest.mark.parametrize("delta", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize(
    "limit",
    [
        lambda m, d: chf.gamma_ma_asymptotic(m, d, 0),
        lambda m, d: chf.f_ma_asymptotic(m, d, 1.3),
        lambda m, d: chf.differenced_spectrum_asymptotic(m, d, 1.3),
    ],
    ids=["gamma_ma", "f_ma", "differenced"],
)
def test_asymptotics_reject_bad_delta(carma20, limit, delta):
    with pytest.raises(ValueError, match="delta must be finite and > 0"):
        limit(carma20, delta)
