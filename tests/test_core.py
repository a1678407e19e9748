import numpy as np
import pytest
from mpmath import mp
from scipy.integrate import quad

import carmahf as chf
from carmahf import CarmaModel, ModelError
from carmahf.core import ar_roots

from conftest import random_stable_model, residue_acvf, residue_kernel


class TestValidate:
    def test_ou_valid(self, ou):
        assert chf.validate(ou) is ou

    def test_carma20_valid(self, carma20):
        chf.validate(carma20)
        got = sorted(ar_roots(carma20).real)
        assert np.allclose(got, [-2.0, -1.0], atol=1e-10)

    def test_common_zeros(self, carma21):
        with pytest.raises(ModelError) as exc:
            chf.validate(carma21)
        assert exc.value.reason == "common_zeros"
        # skipping the identifiability gate accepts the same model
        chf.validate(carma21, require_coprime=False)
        # a zero at -1 shared with a triple or higher AR root at -1
        for a, b in (
            ([3.0, 3.0, 1.0], [1.0, 1.0]),
            ([4.0, 6.0, 4.0, 1.0], [1.0, 1.0]),
            ([4.0, 6.0, 4.0, 1.0], [1.0, 2.0, 1.0]),
            ([5.0, 10.0, 10.0, 5.0, 1.0], [1.0, 1.0]),
        ):
            with pytest.raises(ModelError) as exc:
                chf.validate(CarmaModel(a, b))
            assert exc.value.reason == "common_zeros"
            chf.validate(CarmaModel(a, b), require_coprime=False)

    def test_distinct_zeros_near_repeated_root(self):
        # -1.003 and a triple -1 are clearly apart, whichever polynomial holds which
        for a_roots, b_roots in (([-1.003, -2, -2, -2], [-1, -1, -1]), ([-1, -1, -1, -2], [-1.003])):
            m = CarmaModel(np.poly(a_roots)[1:], np.poly(b_roots)[::-1])
            assert chf.validate(m) is m

    def test_bad_orders(self):
        with pytest.raises(ModelError) as exc:
            chf.validate(CarmaModel([1.0], [0.5, 1.0]))
        assert exc.value.reason == "bad_orders"

    def test_unstable(self):
        # a root at 1, roots at +-i and a root at 0: the boundary is unstable
        for a in ([-1.0], [0.0, 1.0], [0.0]):
            with pytest.raises(ModelError) as exc:
                chf.validate(CarmaModel(a, [1.0]))
            assert exc.value.reason == "unstable_ar"

    def test_nonpositive_sigma2(self):
        with pytest.raises(ModelError) as exc:
            chf.validate(CarmaModel([1.0], [1.0], sigma2=0.0))
        assert exc.value.reason == "nonpositive_sigma2"


class TestCompanion:
    def test_layout(self, carma30):
        A = carma30.companion()
        assert np.allclose(A[-1], [-6.0, -11.0, -6.0])
        assert np.allclose(A[:-1, 1:], np.eye(2))
        assert np.allclose(A[:-1, 0], 0.0)

    def test_eigenvalues_match_ar_roots(self, carma30):
        assert np.allclose(np.sort_complex(ar_roots(carma30)), [-3.0, -2.0, -1.0], atol=1e-12)
        # a triple root at -1 splits by about eps^(1/3) and stays in the left half plane
        triple = ar_roots(CarmaModel([3.0, 3.0, 1.0], [1.0]))
        assert len(triple) == 3 and np.all(triple.real < 0.0)
        assert np.all(np.abs(triple + 1.0) < 1e-4)

    def test_p1_scalar(self, ou):
        assert ou.companion() == np.array([[-1.0]])


class TestKernel:
    def test_ou(self, ou):
        assert chf.kernel(ou, 0.5) == pytest.approx(np.exp(-0.5), rel=1e-12)

    def test_causal(self, carma20):
        assert chf.kernel(carma20, -1.0) == 0.0

    def test_carma20_residue_value(self, carma20):
        assert chf.kernel(carma20, 1.0) == pytest.approx(np.exp(-1) - np.exp(-2), rel=1e-12)

    def test_residue_vs_expm(self):
        # distinct-root models: the matrix exponential against the residue sum in 50 digits
        rng = np.random.default_rng(3)
        for _ in range(5):
            m = random_stable_model(rng)
            ts = rng.uniform(1e-3, 10.0, 100)
            assert np.allclose(chf.kernel_values(m, ts), residue_kernel(m, ts), rtol=1e-9, atol=1e-12)

    def test_repeated_root_kernel(self):
        # a(z) = (z+1)^2: g(t) = t e^{-t}
        m = CarmaModel([2.0, 1.0], [1.0])
        for t in (0.3, 1.0, 2.5):
            assert chf.kernel(m, t) == pytest.approx(t * np.exp(-t), rel=1e-9)


class TestKernelDerivativesAtZero:
    def test_known_order_patterns(self):
        assert chf.kernel_derivative_at_zero(CarmaModel([3, 2], [1, 1]), 0) == pytest.approx(1.0)
        m30 = CarmaModel([6, 11, 6], [1])
        assert [chf.kernel_derivative_at_zero(m30, k) for k in range(3)] == pytest.approx([0, 0, 1])
        m20 = CarmaModel([3, 2], [1])
        assert [chf.kernel_derivative_at_zero(m20, k) for k in range(2)] == pytest.approx([0, 1])

    def test_pattern_all_orders(self):
        # 0 for k < p-q-1 and 1 at k = p-q-1, for every p <= 6, q < p
        rng = np.random.default_rng(11)
        for p in range(1, 7):
            for q in range(p):
                a = np.real(np.poly(-rng.uniform(0.3, 2.0, p)))[1:]
                b = np.concatenate([rng.uniform(-1, 1, q), [1.0]])
                m = CarmaModel(a, b)
                for k in range(p - q):
                    want = 1.0 if k == p - q - 1 else 0.0
                    assert abs(chf.kernel_derivative_at_zero(m, k) - want) < 1e-10


class TestAcvfContinuous:
    def test_ou_values(self, ou):
        assert chf.acvf_continuous(ou, 0.0) == pytest.approx(0.5, rel=1e-12)
        assert chf.acvf_continuous(ou, 2.0) == pytest.approx(0.5 * np.exp(-2), rel=1e-12)

    def test_quadrature_oracle(self, carma21):
        # gamma_Y(h) = sigma2 * int_0^inf g(u) g(u+|h|) du
        for h in (0.0, 0.7, 5.0):
            oracle, _ = quad(
                lambda u: chf.kernel(carma21, u) * chf.kernel(carma21, u + h),
                0.0,
                np.inf,
                limit=200,
            )
            assert chf.acvf_continuous(carma21, h) == pytest.approx(oracle, rel=1e-7)

    def test_residue_vs_lyapunov(self):
        # distinct-root models: the Lyapunov/expm identity against the residue sum in 50 digits
        rng = np.random.default_rng(5)
        for _ in range(5):
            m = random_stable_model(rng)
            hs = rng.uniform(0.0, 5.0, 5)
            assert chf.acvf_continuous(m, hs) == pytest.approx(residue_acvf(m, hs), rel=1e-9, abs=1e-13)

    def test_repeated_roots_fall_back(self):
        m = CarmaModel([2.0, 1.0], [1.0])  # double root -1
        oracle, _ = quad(lambda u: chf.kernel(m, u) ** 2, 0.0, np.inf, limit=200)
        assert chf.acvf_continuous(m, 0.0) == pytest.approx(oracle, rel=1e-9)
        # quadruple root -1: gamma_Y(0) = int (t^3 e^-t / 3!)^2 dt = 6! / (2^7 3!^2)
        m = CarmaModel([4.0, 6.0, 4.0, 1.0], [1.0])
        assert chf.acvf_continuous(m, 0.0) == pytest.approx(5.0 / 32.0, rel=1e-12)


class TestSpectralDensityContinuous:
    def test_ou_at_zero(self, ou):
        assert chf.spectral_density_continuous(ou, 0.0) == pytest.approx(1 / (2 * np.pi), rel=1e-12)

    def test_even(self, carma21):
        w = np.linspace(0.1, 20, 50)
        assert np.allclose(
            chf.spectral_density_continuous(carma21, w),
            chf.spectral_density_continuous(carma21, -w),
        )

    def test_carma21_hand_value(self, carma21):
        # |b(i)|^2 / |a(i)|^2 / (2 pi) = 2 / ((2-1)^2 + 9) / (2 pi)
        assert chf.spectral_density_continuous(carma21, 1.0) == pytest.approx(
            2.0 / 10.0 / (2 * np.pi), rel=1e-12
        )

    def test_wiener_khinchin(self, carma20):
        omega_max = 500.0
        val, _ = quad(lambda w: chf.spectral_density_continuous(carma20, w), 0, omega_max, limit=400)
        # rational-decay tail bound: f ~ C / w^4 beyond the window
        tail = chf.spectral_density_continuous(carma20, omega_max) * omega_max / 3.0
        total = 2.0 * (val + tail)
        assert total == pytest.approx(chf.acvf_continuous(carma20, 0.0), rel=1e-6)


EPS = np.finfo(float).eps


def mp_expm(M):
    """e^M to 60 digits, rounded to floats."""
    with mp.workdps(60):
        return np.array(mp.expm(mp.matrix(M.tolist())).tolist(), dtype=float)


def max_rel_error(got, ref):
    """Largest entry error relative to the largest entry of the reference."""
    return np.abs(got - ref).max() / np.abs(ref).max()


class TestMatrixExp:
    # (a, b) with distinct, double, quadruple and nearly repeated AR roots
    VAN_LOAN_MODELS = (
        ([6.0, 11.0, 6.0], [1.0]),
        ([2.0, 1.0], [1.0]),
        ([4.0, 6.0, 4.0, 1.0], [1.0, 1.0]),
        (np.poly([-1.0, -1.001, -2.0])[1:], [0.5, 1.0]),
    )

    @pytest.mark.parametrize("delta", [1e-1, 1e-5])
    @pytest.mark.parametrize("a, b", VAN_LOAN_MODELS)
    def test_van_loan_block_against_mpmath(self, a, b, delta):
        # the Delta-scaled block of core.sampled_state_space, within 8 ulp of its norm
        m = CarmaModel(a, b)
        p, k = m.p, np.arange(m.p)
        M = np.zeros((2 * p, 2 * p))
        M[:p, :p] = m.companion() * delta ** (k[:, None] - k[None, :] + 1.0)
        M[p:, p:] = -M[:p, :p].T
        M[p - 1, 2 * p - 1] = delta
        assert max_rel_error(chf.matrix_exp(M), mp_expm(M)) <= 8 * EPS

    def test_scaled_degree_13_against_mpmath(self):
        # an unscaled A Delta at Delta = 1 needs degree 13 and two squarings; 16 ulp
        from carmahf.core import _pade_degree

        A = CarmaModel([10.0, 35.0, 50.0, 24.0, 5.0], [1.0]).companion()
        m, s, _ = _pade_degree(A)
        assert m == 13 and s > 0
        assert max_rel_error(chf.matrix_exp(A), mp_expm(A)) <= 16 * EPS

    def test_stack_against_mpmath(self):
        # each slice scaled and squared on its own; 16 ulp per slice
        A = CarmaModel([4.0, 6.0, 4.0, 1.0], [1.0]).companion()
        ts = np.array([0.0, 1e-5, 0.3, 2.0, 7.5])
        got = chf.matrix_exp(A * ts[:, None, None])
        assert got.shape == (len(ts), 4, 4)
        for t, E in zip(ts, got):
            assert max_rel_error(E, mp_expm(A * t)) <= 16 * EPS

    def test_empty_stack_and_one_by_one(self):
        assert chf.matrix_exp(np.zeros((0, 3, 3))).shape == (0, 3, 3)
        assert chf.matrix_exp(np.array([[-0.7]]))[0, 0] == np.exp(-0.7)
        assert chf.matrix_exp(np.full((4, 1, 1), -2.5)).ravel().tolist() == [np.exp(-2.5)] * 4

    def test_zero(self):
        assert np.array_equal(chf.matrix_exp(np.zeros((3, 3))), np.eye(3))

    def test_non_finite_gives_nan(self):
        # a NaN entry, and entries whose powers overflow (a sampled block at Delta = 1e200)
        for M in ([[np.nan, 0.0], [0.0, 1.0]], [[1e300, 1.0], [0.0, 1.0]]):
            with np.errstate(over="ignore", invalid="ignore"):
                assert np.isnan(chf.matrix_exp(np.array(M))).all()

    def test_diagonal(self):
        got = chf.matrix_exp(np.diag([-1.0, -2.0]))
        assert np.allclose(got, np.diag([np.exp(-1), np.exp(-2)]), rtol=1e-14)

    def test_companion_entry(self, carma20):
        got = chf.matrix_exp(carma20.companion())
        assert got[0, 0] == pytest.approx(2 * np.exp(-1) - np.exp(-2), rel=1e-12)

    def test_eigen_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            M = rng.standard_normal((4, 4))
            lam, V = np.linalg.eig(M)
            oracle = np.real(V @ np.diag(np.exp(lam)) @ np.linalg.inv(V))
            assert np.allclose(chf.matrix_exp(M), oracle, rtol=1e-10, atol=1e-12)


class TestStationaryStateCovariance:
    def test_ou(self, ou):
        assert chf.stationary_state_covariance(ou) == pytest.approx(np.array([[0.5]]))

    def test_carma20_closed_form(self, carma20):
        sigma = chf.stationary_state_covariance(carma20)
        assert np.allclose(sigma, [[1 / 12, 0.0], [0.0, 1 / 6]], atol=1e-12)

    @pytest.mark.parametrize("a", [[2.0, 1.0], [3.0, 3.0, 1.0], [4.0, 6.0, 4.0, 1.0], [5.0, 10.0, 10.0, 5.0, 1.0]])
    def test_repeated_roots_against_mpmath(self, a):
        # (z+1)^p: the Kronecker system solved in 50 digits; 16 ulp of the norm
        m = CarmaModel(a, [1.0])
        p, A = m.p, m.companion()
        with mp.workdps(50):
            K = mp.matrix((np.kron(np.eye(p), A) + np.kron(A, np.eye(p))).tolist())
            rhs = mp.matrix(p * p, 1)
            rhs[p * p - 1] = -1
            ref = np.array([float(x) for x in mp.lu_solve(K, rhs)]).reshape(p, p)
        assert max_rel_error(chf.stationary_state_covariance(m), ref) <= 16 * EPS

    def test_lyapunov_residual_and_consistency(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            m = random_stable_model(rng)
            sigma = chf.stationary_state_covariance(m)
            A = m.companion()
            rhs = np.zeros_like(A)
            rhs[-1, -1] = -1.0
            res = A @ sigma + sigma @ A.T - rhs
            assert np.linalg.norm(res) <= 1e-10 * max(np.linalg.norm(sigma), 1.0)
            assert np.allclose(sigma, sigma.T)
            assert np.linalg.eigvalsh(sigma).min() >= -1e-12
            b = m.b_vector()
            assert m.sigma2 * (b @ sigma @ b) == pytest.approx(
                chf.acvf_continuous(m, 0.0), rel=1e-10
            )
