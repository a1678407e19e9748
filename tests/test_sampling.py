import math
import warnings

import numpy as np
import pytest

import carmahf as chf
from carmahf import CarmaModel, core, poly
from carmahf.sampling import CovSequence, coarseness

from conftest import corpus, coverage_models, inverse_transform, mp_sampled_density, random_stable_model

#: f_Delta within DENSITY_BOUND * max(1, 1/delta) of itself: exact f_Delta loses about
#: eps/delta near omega = 0.  The worst measured is 7.1 eps * max(1, 1/delta).
DENSITY_BOUND = 32 * np.finfo(float).eps
#: AR roots -1, -0.1 +- 100i: coarse by the modulus long before by the real part
OSCILLATORY_A = [1.2, 10000.21, 10000.01]


def assert_density_close(m, delta):
    """f_Delta on 42 frequencies of [-pi, pi] against the 60-digit reference."""
    w = np.append(np.linspace(-np.pi + 0.01, np.pi - 0.01, 41), np.pi)
    want = mp_sampled_density(m, delta, w)
    rel = DENSITY_BOUND * max(1.0, 1.0 / delta)
    assert chf.spectral_density_sampled(m, delta, w) == pytest.approx(want, rel=rel, abs=0.0)


class TestCovSequence:
    def test_ok(self):
        c = CovSequence(delta=0.1, values=(1.0, 0.5))
        assert c.stderr is None


class TestGridChecks:
    def test_nonpositive_delta(self, ou):
        for delta in (0.0, -0.1, np.nan, np.inf):
            for quantity in (chf.filter_coefficients, lambda m, d: chf.spectral_density_sampled(m, d, 1.0)):
                with pytest.raises(ValueError, match="delta must be finite and > 0"):
                    quantity(ou, delta)

    def test_prebuilt_model_is_not_rechecked(self, monkeypatch, carma30):
        # a(z) is solved once, when the model is built: no Delta-grid or
        # small-Delta quantity solves it again
        a = (*carma30.a[::-1], 1.0)
        calls = []
        find_roots = poly.find_roots
        monkeypatch.setattr(poly, "find_roots", lambda c: calls.append(tuple(c) == a) or find_roots(c))
        chf.sampled_arma(carma30, 0.01)
        chf.filter_coefficients(carma30, 0.01)
        chf.spectral_density_filtered(carma30, 0.01, [0.5, np.pi])
        chf.gamma_ma_asymptotic(carma30, 0.01, 1)
        chf.f_ma_asymptotic(carma30, 0.01, [0.5, np.pi])
        chf.differenced_spectrum_asymptotic(carma30, 0.01, [0.5, np.pi])
        assert not any(calls)
        calls.clear()
        CarmaModel(carma30.a, carma30.b)
        assert calls == [True]

    def test_coarseness_reads_the_modulus(self):
        m = CarmaModel(OSCILLATORY_A, [1.0])
        assert coarseness(m, 0.1) == pytest.approx(10.0, rel=1e-6)  # Delta * max|Re lambda| is only 0.1

    @pytest.mark.parametrize(
        "a, delta",
        [([3.0, 2.0], 0.6), ([3.0, 2.0], 2.0), (OSCILLATORY_A, 0.1)],
        ids=["carma20-0.6", "carma20-2", "oscillatory"],
    )
    def test_exact_routines_are_silent_at_coarse_delta(self, a, delta):
        # the Delta-grid quantities are exact at every Delta: past the small-Delta regime none of them warns
        m = CarmaModel(a, [1.0])
        assert coarseness(m, delta) > 1.0
        w = [0.5, np.pi]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chf.filter_coefficients(m, delta)
            chf.acvf_filtered_sequence(m, delta)
            chf.spectral_density_sampled(m, delta, w)
            chf.spectral_density_filtered(m, delta, w)
            chf.power_transfer(m, delta, w)
            chf.sampled_arma(m, delta)
            chf.empirical_filtered_acvf(chf.simulate_gaussian_exact(m, delta, 400, seed=0), m.p - 1)


class TestFilterCoefficients:
    def test_ou(self, ou):
        A = chf.filter_coefficients(ou, 0.1)
        assert np.allclose(A, [1.0, -np.exp(-0.1)], rtol=1e-14)

    def test_carma20(self, carma20):
        d = 0.05
        A = chf.filter_coefficients(carma20, d)
        e1, e2 = np.exp(-d), np.exp(-2 * d)
        assert np.allclose(A, [1.0, -(e1 + e2), e1 * e2], rtol=1e-13)

    def test_complex_pair_real_output(self):
        m = CarmaModel([2.0, 5.0], [1.0])  # roots -1 +- 2i
        A = chf.filter_coefficients(m, 0.1)
        assert A.dtype == np.float64
        d = 0.1
        assert A[1] == pytest.approx(-2 * np.exp(-d) * np.cos(2 * d), rel=1e-12)
        assert A[2] == pytest.approx(np.exp(-2 * d), rel=1e-12)

    def test_repeated_root_binomial(self):
        # a(z) = (z+1)^k: phi(B) = (1 - e^{-delta} B)^k, binomially expanded
        d = 0.01
        r = np.exp(-d)
        for k in (2, 3, 4):
            m = CarmaModel([math.comb(k, j) for j in range(1, k + 1)], [1.0])
            want = [math.comb(k, j) * (-r) ** j for j in range(k + 1)]
            assert np.allclose(chf.filter_coefficients(m, d), want, rtol=1e-13, atol=1e-15)

    def test_sum_small_for_small_delta(self, carma30):
        # phi(1) = prod(1 - e^{lambda delta}) = O(delta^p)
        assert abs(chf.filter_coefficients(carma30, 1e-3).sum()) < 1e-8


class TestPowerTransfer:
    def test_matches_abs_phi_squared(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            m = random_stable_model(rng)
            d = rng.uniform(0.02, 0.3)
            A = chf.filter_coefficients(m, d)
            w = rng.uniform(-np.pi, np.pi, 20)
            phi_eiw = np.array([np.dot(A, np.exp(-1j * x * np.arange(len(A)))) for x in w])
            assert np.allclose(chf.power_transfer(m, d, w), np.abs(phi_eiw) ** 2, rtol=1e-10)

    def test_nonnegative_scalar(self, ou):
        val = chf.power_transfer(ou, 0.1, 0.0)
        assert isinstance(val, float)
        assert val >= 0.0


class TestSampledDensity:
    def test_ou_closed_form(self, ou):
        # f_Delta(w) = (sigma2/2) * (1/pi) * sinh(delta) / (cosh(delta) - cos w) / 2
        d, w = 0.2, 1.3
        want = 0.5 * np.sinh(d) / (np.cosh(d) - np.cos(w)) / (2 * np.pi)
        assert chf.spectral_density_sampled(ou, d, w) == pytest.approx(want, rel=1e-12)

    def test_state_space_vs_mpmath(self):
        for m in [*corpus(), *coverage_models()]:
            for d in (0.05, 0.3, 1e-3):
                assert_density_close(m, d)

    def test_inverse_transform_recovers_sampled_acvf(self, carma21):
        # (1/2pi-normalized) duality: gamma_Y(h delta) = int_-pi^pi f_Delta e^{ihw} dw.  The
        # 1024-point rule is off by the aliased sum_(m != 0) gamma_Y(|h + 1024 m| delta), below
        # gamma_Y(0) e^(-min|Re lambda| (1024 - h) delta) ~ e^-102: exact in floats.
        d = 0.1
        lags = (0, 1, 3)
        got = inverse_transform(lambda w: chf.spectral_density_sampled(carma21, d, w), 1024, lags)
        assert got == pytest.approx(chf.acvf_continuous(carma21, np.array(lags) * d), rel=1e-9)

    @pytest.mark.parametrize("delta", [10.0, 20.0, 50.0])
    def test_coarse_grid_vs_mpmath(self, carma30, delta):
        # past delta * max|lambda| ~ 4 the sampled system comes by doubling
        assert_density_close(carma30, delta)

    def test_repeated_root_folded_route(self):
        m = CarmaModel([2.0, 1.0], [1.0])  # double root -1
        w = np.array([0.7, 2.0])
        got = chf.spectral_density_sampled(m, 0.1, w)
        assert np.all(got > 0)


class TestFilteredDensity:
    def test_product_form(self, carma30):
        d = 0.1
        w = np.linspace(0.2, 3.0, 17)
        assert np.allclose(
            chf.spectral_density_filtered(carma30, d, w),
            chf.power_transfer(carma30, d, w) * chf.spectral_density_sampled(carma30, d, w),
        )

    def test_duality_with_acvf_filtered(self):
        # gamma_MA(n) = int_-pi^pi f_MA(w) e^{inw} dw for every corpus model; f_MA is a
        # trigonometric polynomial of degree p - 1, so the 4p-point rule has no aliasing
        for m in corpus():
            d = 0.1
            gamma = chf.acvf_filtered_sequence(m, d).values
            got = inverse_transform(lambda w: chf.spectral_density_filtered(m, d, w), 4 * m.p, range(m.p))
            assert got == pytest.approx(gamma, rel=1e-8, abs=1e-14)


@pytest.mark.parametrize(
    "density",
    [chf.spectral_density_sampled, chf.spectral_density_filtered, chf.power_transfer],
    ids=["sampled", "filtered", "power_transfer"],
)
@pytest.mark.parametrize("delta", [0.1, 1e-3])
def test_an_array_of_frequencies_keeps_its_shape(density, delta):
    # a (2, 3) omega gives the flat call's values in omega's shape, bit for bit
    m = CarmaModel([6.0, 11.0, 6.0], [2.0, 1.0])
    w = np.array([[-3.0, -0.5, 0.0], [0.25, 1.0, np.pi]])
    got = density(m, delta, w)
    assert got.shape == (2, 3)
    assert np.array_equal(got, density(m, delta, w.ravel()).reshape(2, 3))
    assert np.array_equal(got[1, 1], density(m, delta, 1.0))


class TestAnnihilation:
    def test_residual_tiny(self):
        # sum_k A_k g(t - k delta) = 0 for t > p delta: the filter annihilates the kernel
        rng = np.random.default_rng(33)
        for _ in range(5):
            m = random_stable_model(rng)
            d = rng.uniform(0.05, 0.3)
            A = chf.filter_coefficients(m, d)
            for t in (m.p * d * 1.5, m.p * d + 3.0):
                g0 = chf.kernel_values(m, 0.5)
                assert abs(A @ chf.kernel_values(m, t - d * np.arange(m.p + 1))) < 1e-10 * max(1.0, abs(g0))


class TestAcvfFiltered:
    def test_ou_closed_form(self, ou):
        # gamma_MA(0) = sigma2 (1 - e^{-2 delta}) / 2 for the unit CAR(1)
        d = 0.2
        want = 0.5 * (1 - np.exp(-2 * d))
        assert chf.acvf_filtered_sequence(ou, d).values[0] == pytest.approx(want, rel=1e-12)

    def test_direct_sum_oracle(self, carma21):
        # gamma_MA(n) = sum_{j,k} A_j A_k gamma_Y((n + j - k) delta)
        d = 0.15
        A = chf.filter_coefficients(carma21, d)
        gamma = chf.acvf_filtered_sequence(carma21, d).values
        for n in range(carma21.p):
            oracle = sum(
                A[j] * A[k] * chf.acvf_continuous(carma21, (n + j - k) * d)
                for j in range(len(A))
                for k in range(len(A))
            )
            assert gamma[n] == pytest.approx(oracle, rel=1e-10)

    def test_vanishing_beyond_order(self):
        for m in corpus():
            d = 0.1
            gamma = chf.acvf_filtered_sequence(m, d, m.p + 2).values
            for n in range(m.p, m.p + 3):
                assert abs(gamma[n]) < 5e-14 * gamma[0]

    def test_sequence(self, carma30):
        cov = chf.acvf_filtered_sequence(carma30, 0.1)
        assert cov.stderr is None
        assert len(cov.values) == 3
        assert cov.values == chf.acvf_filtered_sequence(carma30, 0.1, n_max=4).values[:3]

    def test_coarse_grid(self, carma30):
        assert chf.acvf_filtered_sequence(carma30, 50.0).values[0] == pytest.approx(1 / 120, abs=1e-9)

    @pytest.mark.parametrize("delta", [1e3, 1e10, 1e30])
    def test_decorrelated_limit(self, delta):
        # e^(lambda delta) underflows: gamma_MA -> (gamma_Y(0), 0, ..., 0)
        for m in corpus():
            cov = chf.acvf_filtered_sequence(m, delta)
            g0 = chf.acvf_continuous(m, 0.0)
            assert cov.values[0] == pytest.approx(g0, rel=1e-12)
            assert np.all(np.abs(cov.values[1:]) <= 1e-12 * g0)

    def test_beyond_scaled_range_is_nan(self, carma30):
        # Q's Delta-scaled (0, 0) entry, gamma_Y(0) / delta^4, underflows
        assert np.isnan(chf.acvf_filtered_sequence(carma30, 1e100).values[0])

    def test_negative_lag_rejected(self, ou):
        with pytest.raises(ValueError):
            chf.acvf_filtered_sequence(ou, 0.1, -1)

    def test_negative_n_max_rejected(self, carma30):
        with pytest.raises(ValueError, match="lag must be non-negative"):
            chf.acvf_filtered_sequence(carma30, 0.1, n_max=-1)
        first = chf.acvf_filtered_sequence(carma30, 0.1).values[:1]
        assert chf.acvf_filtered_sequence(carma30, 0.1, n_max=0).values == first


class TestNoSharedState:
    def test_results_do_not_leak_between_calls(self, carma20):
        # every call builds its own arrays; scaling one in place changes no other
        d = 0.1
        g0, g_ma = chf.acvf_continuous(carma20, 0.0), chf.acvf_filtered_sequence(carma20, d).values
        arrays = [
            lambda: [core.stationary_state_covariance(carma20)],
            lambda: list(core.sampled_state_space(carma20, d)),
            lambda: [chf.filter_coefficients(carma20, d)],
        ]
        for get in arrays:
            got = get()
            want = [x.copy() for x in got]
            for x in got:
                x *= 2.0
            assert all(np.array_equal(x, y) for x, y in zip(get(), want))
        assert chf.acvf_continuous(carma20, 0.0) == g0
        assert chf.acvf_filtered_sequence(carma20, d).values == g_ma
