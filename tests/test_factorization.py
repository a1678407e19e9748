from dataclasses import replace

import numpy as np
import pytest
from mpmath import mp

import carmahf as chf
from carmahf import CarmaModel, FactorizationError, core, poly
from carmahf.factorization import _SEGMENT_ROUNDING, _factorize, _theta, _unit_product, _w_polynomial, reconstruct_acvf

from conftest import COVERAGE_ROOTS, corpus, mp_gamma_ma, mp_theta, random_stable_model, roots_model

EPS = np.finfo(float).eps
#: Bound on phi and theta (absolute), and on gamma_MA and tau2 (relative to gamma_MA(0)
#: and tau2), against the 80-digit reference; the worst measured on the corpus is 4 ulp.
FORWARD_BOUND = 16 * EPS


class TestSpectralFactorize:
    def test_ma1_known(self):
        # gamma of MA(1) with theta = 0.5, tau2 = 2: (2.5, 1.0)
        theta, tau2 = chf.spectral_factorize([2.5, 1.0])
        assert theta == pytest.approx([0.5], rel=1e-10)
        assert tau2 == pytest.approx(2.0, rel=1e-10)

    def test_white_noise(self):
        theta, tau2 = chf.spectral_factorize([3.0])
        assert len(theta) == 0
        assert tau2 == 3.0

    def test_trailing_zero_reduces_order(self):
        theta, tau2 = chf.spectral_factorize([2.5, 1.0, 0.0])
        assert theta == pytest.approx([0.5], rel=1e-10)

    def test_roundtrip_random_invertible(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            m = int(rng.integers(1, 5))
            # invertible theta built from roots outside the unit disk
            roots = []
            while len(roots) < m:
                if m - len(roots) >= 2 and rng.random() < 0.5:
                    r = rng.uniform(1.2, 3.0)
                    ang = rng.uniform(0.2, np.pi - 0.2)
                    roots += [r * np.exp(1j * ang), r * np.exp(-1j * ang)]
                else:
                    roots.append(rng.uniform(1.2, 3.0) * rng.choice([-1.0, 1.0]))
            theta_true = np.real(np.poly(1.0 / np.array(roots, dtype=complex)))[1:]
            tau2_true = float(rng.uniform(0.5, 2.0))
            gamma = reconstruct_acvf(theta_true, tau2_true)
            theta, tau2 = chf.spectral_factorize(gamma)
            assert np.allclose(theta, theta_true, atol=1e-8)
            assert tau2 == pytest.approx(tau2_true, rel=1e-8)

    def test_invertibility_invariant(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            m = random_stable_model(rng)
            d = rng.uniform(0.02, 0.4)
            arma = chf.sampled_arma(m, d)
            if arma.theta:
                z = np.roots([1.0] + list(arma.theta))
                assert np.max(np.abs(z)) <= 1.0 + 1e-7

    def test_not_psd(self):
        with pytest.raises(FactorizationError) as exc:
            chf.spectral_factorize([1.0, 1.1])
        assert exc.value.reason == "not_psd"

    def test_negative_spectrum(self):
        # the Toeplitz matrix is PSD, but 1 + 1.2 cos(omega) < 0 near omega = pi
        with pytest.raises(FactorizationError) as exc:
            chf.spectral_factorize([1.0, 0.6])
        assert exc.value.reason == "not_psd"

    def test_nonpositive_gamma0(self):
        with pytest.raises(FactorizationError):
            chf.spectral_factorize([-1.0, 0.1])

    @pytest.mark.parametrize("cov", [[], np.ones((2, 2))], ids=["empty", "2-d"])
    def test_not_a_sequence(self, cov):
        with pytest.raises(ValueError, match="non-empty 1-d array"):
            chf.spectral_factorize(cov)

    def test_boundary_root_warns(self):
        # gamma of (1 - B) white noise: unit-circle spectral root
        with pytest.warns(UserWarning, match="boundary"):
            theta, tau2 = chf.spectral_factorize([2.0, -1.0])
        assert theta == pytest.approx([-1.0], abs=1e-6)
        assert tau2 == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("theta", [(-1.5, 0.5), (0.5, -0.5), (-2 / 3, -1 / 3)], ids=["1-B", "1+B", "1-B,1+B/3"])
    def test_unit_root_beside_a_second_factor_warns(self, theta):
        # (1 - B)(1 - B/2), (1 + B)(1 - B/2) and (1 - B)(1 + B/3): theta comes back off by
        # about sqrt(eps), the precision to which a simple root of S at w = +-2 fixes |r|
        gamma = reconstruct_acvf(theta, 1.0)
        with pytest.warns(UserWarning, match="boundary"):
            chf.spectral_factorize(gamma)
        assert _factorize(gamma)[2]

    @pytest.mark.filterwarnings("ignore:unit-circle spectral roots")
    def test_every_unit_root_is_the_boundary(self):
        # one root at exactly +-1 beside 0-3 others: S is zero at w = +-2, so every draw is flagged
        rng = np.random.default_rng(7)
        assert all(_factorize(reconstruct_acvf(_ma_with_nearest_root(rng, 1.0), 1.0))[2] for _ in range(400))

    def test_root_off_the_circle_is_not_the_boundary(self):
        # the nearest root 1e-4 from the circle: theta is resolved, and no draw is flagged
        rng = np.random.default_rng(11)
        assert not any(_factorize(reconstruct_acvf(_ma_with_nearest_root(rng, 1.0 + 1e-4), 1.0))[2]
                       for _ in range(400))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: chf.spectral_factorize([2.0, -1.0]),
            lambda: chf.sampled_arma(CarmaModel([3.0, 2.0], [1e-3, 1.0]), 1e-5),
        ],
        ids=["spectral_factorize", "sampled_arma"],
    )
    def test_boundary_warning_points_at_the_caller(self, call):
        with pytest.warns(UserWarning, match="boundary") as record:
            call()
        assert record[0].filename == __file__


def _ma_with_nearest_root(rng, nearest: float) -> np.ndarray:
    """theta of prod(1 - B / r): one real root of modulus ``nearest``, and 0-3 more
    real roots of modulus 10^U(0.05, 0.5), each of either sign."""
    moduli = [nearest] + list(10.0 ** rng.uniform(0.05, 0.5, int(rng.integers(0, 4))))
    roots = np.array(moduli) * rng.choice([-1.0, 1.0], len(moduli))
    return np.real(np.poly(1.0 / roots))[1:]


def _rounding(s: list) -> float:
    """The rounding bound of S(w) on [-2, 2]: _SEGMENT_ROUNDING * sum_k |S_k| 2^k."""
    return _SEGMENT_ROUNDING * sum(abs(c) * 2.0**k for k, c in enumerate(s))


class TestWForm:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_w_polynomial_is_chebyshev(self, m):
        # D_n(w) = z^n + z^-n = 2 T_n(w / 2); its power coefficients are integers
        from numpy.polynomial import chebyshev

        def d_n(n):
            return 2.0 * chebyshev.cheb2poly([0.0] * n + [1.0]) / 2.0 ** np.arange(n + 1)

        for n in range(1, m + 1):
            gamma = [0.0] * (m + 1)
            gamma[n] = 1.0
            want = np.zeros(m + 1)
            want[: n + 1] = d_n(n)
            assert np.array_equal(_w_polynomial(gamma), want)
        gamma = np.random.default_rng(m).standard_normal(m + 1)
        want = np.zeros(m + 1)
        want[0] = gamma[0]
        for n in range(1, m + 1):
            want[: n + 1] += gamma[n] * d_n(n)
        scale = np.sum(np.abs(gamma)) * 2.0**m
        assert np.max(np.abs(np.array(_w_polynomial(list(gamma))) - want)) <= 8 * np.finfo(float).eps * scale

    def test_real_root_on_the_segment_is_not_real(self):
        # S(w) = (w - 1)(w - 3): the simple root w = 1 is a sign change of the spectrum at omega = pi/3
        assert _theta([3.0, -4.0, 1.0], _rounding([3.0, -4.0, 1.0])) == (None, False)

    def test_pair_just_off_the_segment_is_the_boundary(self):
        # S(w) = w^2 + 1e-18, theta(B) = 1 + B^2 lifted: the roots +-1e-9 i give conjugate r,
        # |r| - 1 = 5e-10, and S(0) = 1e-18 is within the rounding bound 1.4e-14
        theta, boundary = _theta([1e-18, 0.0, 1.0], _rounding([1e-18, 0.0, 1.0]))
        assert boundary
        assert theta.tolist() == pytest.approx([0.0, 1.0], abs=1e-8)

    def test_unit_product_matches_np_poly(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = int(rng.integers(1, 7))
            roots = []
            while len(roots) < m:
                if m - len(roots) >= 2 and rng.random() < 0.5:
                    r = rng.uniform(1.05, 4.0) * np.exp(1j * rng.uniform(0.1, np.pi - 0.1))
                    roots += [r, np.conj(r)]
                else:
                    roots.append(complex(rng.uniform(1.05, 4.0) * rng.choice([-1.0, 1.0])))
            monic = np.poly(roots)[::-1]  # prod(z - r_j), ascending
            want = monic / monic[0]  # prod(1 - z / r_j)
            got = np.array(_unit_product(roots))
            assert np.max(np.abs(got - want)) <= 16 * np.finfo(float).eps * np.max(np.abs(want))


def mp_reference(model, delta):
    """phi, gamma_MA, theta and tau2 of the sampled ARMA in 80 digits, rounded to floats."""
    with mp.workdps(80):
        phi, gamma = mp_gamma_ma(model, delta)
        theta, tau2 = mp_theta(gamma)
    return np.array(phi, dtype=float), np.array(gamma, dtype=float), np.array(theta, dtype=float), float(tau2)


def assert_theta_tau2_close(arma, theta, tau2):
    assert np.abs(np.array(arma.theta) - theta).max(initial=0.0) <= FORWARD_BOUND
    assert abs(arma.tau2 - tau2) <= FORWARD_BOUND * tau2


class TestForwardAccuracy:
    """The filter, gamma_MA, theta and tau2 against the reference, not against each other."""

    def test_agreement_on_corpus(self):
        for m in corpus():
            for d in (0.05, 0.2):
                phi, gamma, theta, tau2 = mp_reference(m, d)
                arma = chf.sampled_arma(m, d)
                assert np.abs(np.array(arma.phi) - phi).max() <= FORWARD_BOUND
                got = chf.acvf_filtered_sequence(m, d).values
                assert np.abs(np.array(got) - gamma).max() <= FORWARD_BOUND * gamma[0]
                assert_theta_tau2_close(arma, theta, tau2)

    @pytest.mark.xfail(reason="theta's zeros near z = 1 are not resolved from float gamma_MA")
    @pytest.mark.parametrize("delta", [1e-2, 1e-3])
    def test_p5q4_small_delta(self, delta):
        # AR roots -1..-5, MA zeros -1.5..-4.5; measured errors: theta 1.2e-4 and 0.10,
        # tau2 -4.3e-5 and +3.5% (relative) at delta = 1e-2 and 1e-3
        m = roots_model(*COVERAGE_ROOTS["p5q4"])
        _, _, theta, tau2 = mp_reference(m, delta)
        assert_theta_tau2_close(chf.sampled_arma(m, delta), theta, tau2)


class TestSampledArma:
    def test_car1(self, ou):
        d = 0.1
        arma = chf.sampled_arma(ou, d)
        assert arma.phi == pytest.approx([1.0, -np.exp(-d)], rel=1e-12)
        assert arma.theta == ()
        assert arma.tau2 == pytest.approx(0.5 * (1 - np.exp(-2 * d)), rel=1e-10)

    def test_carma21_small_delta_limits(self, carma21):
        # d = p - q = 1: theta(B) -> (1 - B)^q, tau2 ~ sigma2 * delta
        arma = chf.sampled_arma(carma21, 0.001)
        assert arma.theta[0] == pytest.approx(-1.0, abs=0.01)
        assert arma.tau2 / (carma21.sigma2 * 0.001) == pytest.approx(1.0, abs=0.01)

    def test_carma20_small_delta_limits(self, carma20):
        # d = 2: theta -> 2 - sqrt(3), tau2 -> (2 + sqrt(3))/6 sigma2 delta^3
        lim = chf.limit_ma_model(2)
        arma = chf.sampled_arma(carma20, 0.001)
        assert arma.theta[0] == pytest.approx(lim.theta[0], abs=0.01)
        assert arma.tau2 / (carma20.sigma2 * 0.001**3) == pytest.approx(
            lim.tau2_scale, rel=0.01
        )

    def test_roots_come_from_the_poly_module(self, monkeypatch, carma20):
        # the benchmark's tracer counts poly.find_roots calls by wrapping the module attribute
        calls = []
        real = poly.find_roots

        def counted(coeffs):
            calls.append(coeffs)
            return real(coeffs)

        want = chf.sampled_arma(carma20, 0.1)
        monkeypatch.setattr(poly, "find_roots", counted)
        assert chf.sampled_arma(carma20, 0.1) == want
        assert len(calls) == 1

    def test_reconstruction_residual(self):
        for m in corpus():
            d = 0.1
            arma = chf.sampled_arma(m, d)
            assert arma.gamma == chf.acvf_filtered_sequence(m, d).values
            assert chf.reconstruction_residual(arma) < 1e-10

    def test_boundary_flag_set(self):
        # theta_1 = -1 + 1.0e-8 at delta = 1e-5 (50-digit oracle): float gamma
        # cannot resolve it from the unit circle, so only the limit is found
        m = CarmaModel([3.0, 2.0], [1e-3, 1.0])
        with pytest.warns(UserWarning, match="boundary"):
            arma = chf.sampled_arma(m, 1e-5)
        assert arma.boundary
        assert arma.theta[0] == pytest.approx(-1.0, abs=1e-9)
        assert not chf.sampled_arma(m, 1e-2).boundary

    @pytest.mark.parametrize(
        "roots",
        [COVERAGE_ROOTS["p5q4"], (-np.arange(1.0, 9), -np.arange(1.5, 6))],
        ids=["p5q4", "p8q5"],
    )
    def test_unresolved_zeros_near_one_are_flagged(self, roots):
        # float gamma_MA does not resolve theta's zeros near z = 1: theta is off by 0.10 (p5q4)
        # and 0.51 (p8q5) against the 80-digit reference, and the flag says so
        with pytest.warns(UserWarning, match="boundary"):
            assert chf.sampled_arma(roots_model(*roots), 1e-3).boundary

    @pytest.mark.xfail(strict=True, reason="float gamma_MA's own error lifts S above its rounding bound")
    @pytest.mark.parametrize("delta", [1e-1, 1e-2])
    def test_ma_zeros_on_the_imaginary_axis_are_flagged(self, delta):
        # MA zeros +-2i put theta's zeros exactly on the unit circle, at every delta
        assert chf.sampled_arma(roots_model([-1.0, -2.0, -3.0], [2j, -2j]), delta).boundary

    def test_repeated_roots_supported(self):
        m = CarmaModel([2.0, 1.0], [1.0])
        arma = chf.sampled_arma(m, 0.05)
        assert arma.gamma == chf.acvf_filtered_sequence(m, 0.05).values
        assert chf.reconstruction_residual(arma) < 1e-9


def _strictly_invertible(theta) -> bool:
    """Schur-Cohn step-down: every reflection coefficient of theta has |k| < 1."""
    a = np.concatenate([[1.0], theta])
    for k in range(len(a) - 1, 0, -1):
        kappa = a[k]
        if not abs(kappa) < 1.0:
            return False
        a = (a[:k] - kappa * a[k:0:-1]) / (1.0 - kappa * kappa)
    return True


class TestSmallDelta:
    """theta's zeros crowd toward z = 1 as delta -> 0; each case stays invertible."""

    @pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4, 1e-5])
    def test_random_models(self, delta):
        rng = np.random.default_rng(0)
        for _ in range(200):
            m = random_stable_model(rng, 5)
            arma = chf.sampled_arma(m, delta)
            assert _strictly_invertible(arma.theta)
            assert arma.gamma == chf.acvf_filtered_sequence(m, delta).values
            assert chf.reconstruction_residual(arma) <= 1e-12

    @pytest.mark.parametrize(
        "a, b, sigma2, delta",
        [
            ([6.017057893525042, 13.306090638378105, 7.950876149632643],
             [-0.48999421839046886, -0.3077755996057354, 1.0], 1.4151082111492093, 1e-3),
            ([7.325781233774103, 28.065279786004456, 45.4579796283586, 22.391243032351042],
             [0.5581987484838622, 0.11121615828872478, 1.0], 0.6582725977207098, 1e-4),
            ([7.325781233774103, 28.065279786004456, 45.4579796283586, 22.391243032351042],
             [0.5581987484838622, 0.11121615828872478, 1.0], 0.6582725977207098, 1e-5),
        ],
        ids=["p3q2-1e-3", "p4q2-1e-4", "p4q2-1e-5"],
    )
    def test_one_ulp_perturbations(self, a, b, sigma2, delta, monkeypatch):
        # Every entry of every matrix exponential moves by one ulp, either way.
        rng = np.random.default_rng(3)
        exact = core._pade13

        def perturbed(M):
            E = exact(M)
            return E + rng.choice([-1.0, 1.0], E.shape) * np.spacing(E)

        monkeypatch.setattr(core, "_pade13", perturbed)
        m = CarmaModel(a, b, sigma2=sigma2)
        for _ in range(40):
            # theta and tau2 against gamma_MA from other perturbed exponentials
            arma = replace(chf.sampled_arma(m, delta), gamma=chf.acvf_filtered_sequence(m, delta).values)
            assert chf.reconstruction_residual(arma) <= 1e-12

    def test_near_boundary_resolved(self):
        # 60-digit reference: theta_1 + 1 = 1.0017e-7; the root is off the circle, and
        # theta finds it, but |S(2)| is 0.71 of S's rounding bound, so float gamma cannot
        # tell it from the circle and the flag is set
        with pytest.warns(UserWarning, match="boundary"):
            arma = chf.sampled_arma(CarmaModel([3.0, 2.0], [1e-3, 1.0]), 1e-4)
        assert arma.boundary
        assert arma.theta[0] + 1.0 == pytest.approx(1.0017e-7, abs=5e-9)

    def test_near_boundary_invertible(self):
        # 60-digit reference: theta_1 + 1 = 3.0000e-7
        arma = chf.sampled_arma(CarmaModel([3.0, 2.0], [-0.03, 1.0]), 1e-5)
        assert _strictly_invertible(arma.theta)
        assert arma.theta[0] + 1.0 == pytest.approx(3.0000e-7, abs=5e-9)
