import math
from fractions import Fraction

import numpy as np
import pytest

import carmahf as chf
from carmahf import CarmaModel
from carmahf.asymptotics import OmegaTooCloseToZero, gamma_ma_asymptotic_coefficient

from conftest import corpus


class TestCCoefficients:
    def test_closed_forms(self):
        for w in (0.5, 1.0, 2.5, np.pi - 0.1):
            cw = math.cos(w)
            c = chf.c_coefficients(w, 2)
            assert c[0] == pytest.approx(1.0 / (1.0 - cw), rel=1e-12)
            assert c[1] == pytest.approx(-(2.0 + cw) / (6.0 * (1.0 - cw) ** 2), rel=1e-12)
            assert c[2] == pytest.approx(
                (33.0 + 26.0 * cw + math.cos(2 * w)) / (240.0 * (1.0 - cw) ** 3), rel=1e-11
            )

    def test_series_oracle(self):
        # partial sums of sum c_k x^(2k+1) converge to sinh x / (cosh x - cos w)
        w, x = 1.2, 0.3
        c = chf.c_coefficients(w, 12)
        series = sum(ck * x ** (2 * k + 1) for k, ck in enumerate(c))
        want = math.sinh(x) / (math.cosh(x) - math.cos(w))
        assert series == pytest.approx(want, rel=1e-12)

    def test_pole_guard(self):
        with pytest.raises(OmegaTooCloseToZero):
            chf.c_coefficients(0.0, 1)
        with pytest.raises(OmegaTooCloseToZero):
            chf.c_coefficients(1e-6, 1)


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
        # d = 1: c_0 cancels the (1 - cos w) factor, leaving the flat
        # Brownian-increment spectrum sigma2 delta / (2 pi)
        d = 1e-3
        assert chf.f_ma_asymptotic(ou, d, 1.1) == pytest.approx(d / (2 * np.pi), rel=1e-12)

    def test_pole_guard(self, ou):
        with pytest.raises(OmegaTooCloseToZero):
            chf.f_ma_asymptotic(ou, 0.01, 0.0)


class TestGammaMaAsymptotic:
    def test_lag_pminus1_closed_form(self):
        # gamma_MA(p-1) coefficient equals (-1)^q / (2(p-q)-1)! exactly
        for p in range(1, 11):
            for q in range(p):
                got = gamma_ma_asymptotic_coefficient(p, q, p - 1)
                want = Fraction((-1) ** q, math.factorial(2 * (p - q) - 1))
                assert got == want

    def test_vanishes_beyond_order(self):
        for p in range(1, 11):
            for q in range(p):
                for n in range(p, p + 2):
                    assert gamma_ma_asymptotic_coefficient(p, q, n) == 0

    def test_known_table_values(self):
        # MA limit of the d=2 family: gamma(0)/gamma(1) = -(2-sqrt(3))/... check
        # via the tabulated limit model instead of hand expansion.
        lim = chf.limit_ma_model(2)
        g0 = float(gamma_ma_asymptotic_coefficient(2, 0, 0))
        g1 = float(gamma_ma_asymptotic_coefficient(2, 0, 1))
        t = lim.theta[0]
        assert g1 / g0 == pytest.approx(t / (1 + t * t), rel=1e-12)
        assert g0 == pytest.approx(lim.tau2_scale * (1 + t * t), rel=1e-12)

    def test_matches_exact_small_delta(self):
        cases = [(m, 1e-3, 0.02) for m in corpus()]
        # p = 5, q = 0 at delta = 1e-5: gamma_MA(n) is of size delta^9, far
        # below the rounding error of its O(1) ingredients in unscaled form
        cases.append((CarmaModel([15.0, 85.0, 225.0, 274.0, 120.0], [1.0]), 1e-5, 1e-3))
        for m, d, tol in cases:
            for n in range(m.p):
                exact = chf.acvf_filtered(m, d, n)
                asym = chf.gamma_ma_asymptotic(m, d, n)
                assert exact / asym == pytest.approx(1.0, abs=tol)

    def test_fourier_sum_matches_f_ma_asymptotic(self):
        # The coefficients are the autocovariances of the limit spectrum, so
        # their cosine sum must reproduce f_ma_asymptotic, which is built from
        # the c_k(omega) series and never touches the coefficients.
        sigma2, delta = 1.3, 0.1
        for p in range(1, 9):
            for q in range(p):
                m = CarmaModel([1.0] * p, [1.0] * (q + 1), sigma2=sigma2)
                c = [float(gamma_ma_asymptotic_coefficient(p, q, n)) for n in range(p)]
                for w in (np.pi / 4, np.pi / 2, 2.0, np.pi):
                    trig = c[0] + 2.0 * sum(c[n] * math.cos(n * w) for n in range(1, p))
                    want = chf.f_ma_asymptotic(m, delta, w)
                    got = trig / (2.0 * np.pi) * sigma2 * delta ** (2 * (p - q) - 1)
                    assert got == pytest.approx(want, rel=1e-9)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            gamma_ma_asymptotic_coefficient(2, 2, 0)
        with pytest.raises(ValueError):
            gamma_ma_asymptotic_coefficient(2, 0, -1)


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
        for d in (1, 2, 3):
            p, q = d, 0
            lim = chf.limit_ma_model(d)
            t = np.concatenate([[1.0], lim.theta])
            for n in range(d):
                want = float(gamma_ma_asymptotic_coefficient(p, q, n))
                got = lim.tau2_scale * float(np.dot(t[: d - n], t[n:]))
                assert got == pytest.approx(want, rel=1e-9)

    def test_unsupported(self):
        with pytest.raises(ValueError):
            chf.limit_ma_model(4)

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
