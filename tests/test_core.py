import contextlib
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

import carmahf as chf
from carmahf import CarmaModel, ModelError, core, poly

from conftest import (
    FOURFOLD_PAIR_A,
    coverage_models,
    mp_continuous_density,
    mp_kernel_acvf,
    mp_sigma,
    random_stable_model,
    roots_model,
)

DEMO_MODELS = Path(__file__).resolve().parents[1] / "demos" / "models"
EPS = np.finfo(float).eps
#: Kernel error relative to its largest value against the 60-digit reference: the worst
#: measured is 8.3 ulp (random models).
KERNEL_BOUND = 32 * EPS
#: gamma_Y error relative to each value: the worst measured is 43 ulp (random models).
ACVF_BOUND = 128 * EPS


def max_rel_error(got, ref):
    """Largest entry error relative to the largest entry of the reference."""
    return np.abs(got - ref).max() / np.abs(ref).max()


def fraction_det(M):
    """The determinant of the square matrix M over exact fractions, by elimination with row swaps."""
    M = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for k in range(len(M)):
        pivot = next((i for i in range(k, len(M)) if M[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            M[k], M[pivot], det = M[pivot], M[k], -det
        det *= M[k][k]
        for i in range(k + 1, len(M)):
            f = M[i][k] / M[k][k]
            M[i] = [x - f * y for x, y in zip(M[i], M[k])]
    return det


def hurwitz_matrix(a):
    """H_ij = a_(2j-i+1) of z^p + a_1 z^(p-1) + ... + a_p over exact fractions (a_0 = 1)."""
    coef = [Fraction(1), *map(Fraction, a)]
    p = len(a)
    return [[coef[2 * j - i + 1] if 0 <= 2 * j - i + 1 <= p else Fraction(0) for j in range(p)] for i in range(p)]


def routh_stable(a):
    """True when every root of z^p + a_1 z^(p-1) + ... + a_p has a negative real part:
    the first column of the Routh array, over exact fractions, is positive."""
    c = [Fraction(x) for x in (1.0, *a)] + [Fraction(0)] * 2
    prev, row = c[0::2], c[1::2]
    for _ in range(len(a)):
        if row[0] <= 0:
            return False
        prev, row = row, [(row[0] * prev[j + 1] - prev[0] * row[j + 1]) / row[0] for j in range(len(row) - 1)] + [0]
    return True


def exact_c(a):
    """c_k = gamma^(2k)(0) of the unit-input CAR(p) state over exact fractions: the
    last-row Lyapunov equations of the companion matrix, as in conftest.mp_system,
    by Cramer's rule."""
    p = len(a)
    A = [[Fraction(j == i + 1) for j in range(p)] for i in range(p - 1)] + [[-Fraction(x) for x in a[::-1]]]

    def entry(i, j):
        return A[i][j] if 0 <= j < p else 0

    K = [[(-1) ** j * entry(p - 1, 2 * k - j) + (-1) ** (p - 1) * entry(j, 2 * k - p + 1) for k in range(p)]
         for j in range(p)]
    rhs = [0] * (p - 1) + [-1]
    det = fraction_det(K)
    return [fraction_det([row[:k] + [r] + row[k + 1:] for row, r in zip(K, rhs)]) / det for k in range(p)]


class TestValidate:
    def test_ou_valid(self, ou):
        assert chf.validate(ou) is ou

    def test_carma20_valid(self, carma20):
        chf.validate(carma20)
        got = sorted(np.real(carma20.roots))
        assert np.allclose(got, [-2.0, -1.0], atol=1e-10)
        # the same AR roots with an MA zero at -5
        m = CarmaModel(carma20.a, [5.0, 1.0])
        assert chf.validate(m) is m

    def test_common_zeros(self, carma21):
        with pytest.raises(ModelError) as exc:
            chf.validate(carma21)
        assert exc.value.reason == "common_zeros"
        # a zero at -1 shared with a double AR root at -1 (b at the split roots of a is
        # just over the tolerance), or with a triple or higher one
        for a, b in (
            ([4.0, 5.0, 2.0], [1.0, 1.0]),
            ([3.0, 3.0, 1.0], [1.0, 1.0]),
            ([4.0, 6.0, 4.0, 1.0], [1.0, 1.0]),
            ([4.0, 6.0, 4.0, 1.0], [1.0, 2.0, 1.0]),
            ([5.0, 10.0, 10.0, 5.0, 1.0], [1.0, 1.0]),
        ):
            with pytest.raises(ModelError) as exc:
                chf.validate(CarmaModel(a, b))
            assert exc.value.reason == "common_zeros"

    def test_distinct_zeros_near_repeated_root(self):
        # -1.003 and a triple -1 are clearly apart, whichever polynomial holds which
        for a_roots, b_roots in (([-1.003, -2, -2, -2], [-1, -1, -1]), ([-1, -1, -1, -2], [-1.003])):
            m = CarmaModel(np.poly(a_roots)[1:], np.poly(b_roots)[::-1])
            assert chf.validate(m) is m

    @pytest.mark.parametrize("k, zero", [(2, -1.0001), (5, -1.03)])
    def test_distinct_zero_near_a_k_fold_root(self, k, zero):
        # the polynomial holding the k-fold -1 is only d^k at the other's zero, d away,
        # yet the zeros are clearly apart, whichever polynomial holds which
        for a_roots, b_roots in (([-1] * k, [zero]), ([zero, *[-2] * k], [-1] * k)):
            m = CarmaModel(np.poly(a_roots)[1:], np.poly(b_roots)[::-1])
            assert chf.validate(m) is m

    def test_bad_orders(self):
        for a, b in (([1.0], [0.5, 1.0]), ([], [1.0]), ([1.0], [])):
            with pytest.raises(ModelError) as exc:
                CarmaModel(a, b)
            assert exc.value.reason == "bad_orders"

    #: a root at 1, roots -1 and 0.5, roots at +-i, a root at 0, and (z+1)(z^2+0.09) and
    #: (z+0.5)(z^2+0.25), whose second Hurwitz determinant is exactly 0: the boundary is unstable
    UNSTABLE_A = ([-1.0], [0.5, -0.5], [0.0, 1.0], [0.0], [1.0, 0.09, 0.09], [0.5, 0.25, 0.125])

    def test_unstable(self):
        for a in self.UNSTABLE_A:
            with pytest.raises(ModelError) as exc:
                CarmaModel(a, [1.0])
            assert exc.value.reason == "unstable_ar"

    def test_nonpositive_sigma2(self):
        for sigma2 in (0.0, -1.0, np.nan):
            with pytest.raises(ModelError) as exc:
                CarmaModel([1.0], [1.0], sigma2=sigma2)
            assert exc.value.reason == "nonpositive_sigma2"

    def test_non_finite(self):
        # checked before the eigensolve, which would reject a NaN with its own error
        for a, b, sigma2 in (
            ([np.nan, 1.0], [1.0], 1.0),
            ([3.0, np.inf], [1.0], 1.0),
            ([3.0, 2.0], [np.nan, 1.0], 1.0),
            ([3.0, 2.0], [1.0, np.nan], 1.0),
            ([1.0], [1.0], np.inf),
        ):
            with pytest.raises(ModelError) as exc:
                CarmaModel(a, b, sigma2)
            assert exc.value.reason == "non_finite"

    def test_bad_normalization(self):
        for b in ([0.5, 2.0], [1.0, 0.0]):
            with pytest.raises(ModelError) as exc:
                CarmaModel([3.0, 2.0], b)
            assert exc.value.reason == "bad_normalization"

    @pytest.mark.parametrize(
        "a",
        [[3e-13, 2e-26], [1.0000000000005, 5e-13]],
        ids=["roots-1e-13,-2e-13", "roots-1,-5e-13"],
    )
    def test_hurwitz_model_near_zero_is_stable(self, a):
        # p = 2 with positive coefficients: a(z) is exactly Hurwitz, and the first
        # model with time rescaled by 100 (roots -1e-11 and -2e-11) is accepted
        assert CarmaModel([3e-11, 2e-22], [1.0]).p == 2
        assert CarmaModel(a, [1.0]).p == 2

    @pytest.mark.parametrize("a", [[6.0, 11.0, 6.0], FOURFOLD_PAIR_A], ids=["carma30", "fourfold_pair"])
    def test_hurwitz_pivots_are_the_hurwitz_determinants(self, a):
        # the rows are upper triangular with k-th pivot den^k Delta_k, and their last
        # column, solved back over fractions, solves H x = (-1)^(p-1) e_1
        p, rows = len(a), core._hurwitz(a)
        den = max(Fraction(x).denominator for x in a)
        H = hurwitz_matrix(a)
        minors = [fraction_det([row[:k] for row in H[:k]]) for k in range(1, p + 1)]
        assert all(rows[i][j] == 0 for i in range(p) for j in range(i))
        assert [rows[k][k] for k in range(p)] == [den ** (k + 1) * d for k, d in enumerate(minors)]
        x = []
        for k in reversed(range(p)):
            x.insert(0, (rows[k][p] - sum(u * v for u, v in zip(rows[k][k + 1 : p], x))) / Fraction(rows[k][k]))
        assert [sum(h * v for h, v in zip(row, x)) for row in H] == [(-1) ** (p - 1) * (i == 0) for i in range(p)]

    @pytest.mark.parametrize("a", [*UNSTABLE_A, [6.0, 11.0, 6.0], FOURFOLD_PAIR_A, [3e-13, 2e-26]])
    def test_hurwitz_refuses_exactly_a_nonpositive_determinant(self, a):
        H = hurwitz_matrix(a)
        minors = [fraction_det([row[:k] for row in H[:k]]) for k in range(1, len(a) + 1)]
        assert (core._hurwitz(a) is None) == any(d <= 0 for d in minors)

    def test_validate_solves_only_b(self, monkeypatch, carma20):
        # a(z) was solved when the model was built; validate solves b(z) once, and
        # for q = 0 nothing
        calls = []
        find_roots = poly.find_roots
        monkeypatch.setattr(poly, "find_roots", lambda c: calls.append(tuple(c)) or find_roots(c))
        m = CarmaModel(carma20.a, [5.0, 1.0])
        calls.clear()
        assert chf.validate(m) is m
        assert calls == [m.b]
        calls.clear()
        assert chf.validate(carma20) is carma20
        assert calls == []

    def test_roots_stay_out_of_equality(self, carma20):
        twin = CarmaModel(carma20.a, carma20.b, carma20.sigma2)
        object.__setattr__(twin, "roots", ())
        assert twin == carma20 and hash(twin) == hash(carma20)
        assert "roots" not in repr(carma20)
        assert isinstance(carma20.roots, tuple)


class TestStabilityProperty:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(-10.0, 10.0, allow_subnormal=False), min_size=1, max_size=6).flatmap(
            lambda a: st.tuples(
                st.just(a), st.lists(st.floats(-2.0, 2.0, allow_subnormal=False), max_size=len(a) - 1)
            )
        )
    )
    @example(([8.31e-283, 8.31e-283], []))
    def test_model_is_stable_or_rejected(self, ab):
        # a model is built exactly when the exact Routh array puts every AR root in the open
        # left half plane; a built model has a positive variance, or a c_k past the float
        # range, named by sigma_overflow, as for the example a = [8.31e-283, 8.31e-283]
        a, b = ab
        try:
            m = CarmaModel(a, b + [1.0])
        except ModelError as exc:
            assert exc.reason == "unstable_ar"
            assert not routh_stable(a)
            return
        assert routh_stable(a)
        try:
            variance = chf.acvf_continuous(m, 0.0)
        except ModelError as exc:
            assert exc.reason == "sigma_overflow"
            assert max(abs(c) for c in exact_c(m.a)) > sys.float_info.max
            return
        assert variance > 0.0


class TestCompanion:
    def test_layout(self, carma30):
        A = carma30.companion()
        assert np.allclose(A[-1], [-6.0, -11.0, -6.0])
        assert np.allclose(A[:-1, 1:], np.eye(2))
        assert np.allclose(A[:-1, 0], 0.0)

    def test_eigenvalues_match_stored_roots(self, carma30):
        assert np.allclose(np.sort_complex(carma30.roots), [-3.0, -2.0, -1.0], atol=1e-12)
        # the roots are those of a(z) from the one root finder, bit for bit
        assert np.array(carma30.roots).tobytes() == poly.find_roots((*carma30.a[::-1], 1.0)).tobytes()
        eig = np.sort_complex(np.linalg.eigvals(carma30.companion()))
        assert np.allclose(np.sort_complex(carma30.roots), eig, rtol=0.0, atol=1e-12)
        # a triple root at -1 splits by about eps^(1/3) and stays in the left half plane
        triple = np.array(CarmaModel([3.0, 3.0, 1.0], [1.0]).roots)
        assert len(triple) == 3 and np.all(triple.real < 0.0)
        assert np.all(np.abs(triple + 1.0) < 1e-4)

    def test_p1_scalar(self, ou):
        assert ou.companion() == np.array([[-1.0]])


class TestKernel:
    def test_ou(self, ou):
        assert chf.kernel_values(ou, 0.5) == pytest.approx(np.exp(-0.5), rel=1e-12)

    def test_causal(self, carma20):
        assert chf.kernel_values(carma20, -1.0) == 0.0

    def test_carma20_closed_form(self, carma20):
        assert chf.kernel_values(carma20, 1.0) == pytest.approx(np.exp(-1) - np.exp(-2), rel=1e-12)

    def test_expm_vs_mpmath(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            m = random_stable_model(rng)
            ts = rng.uniform(1e-3, 10.0, 100)
            assert max_rel_error(chf.kernel_values(m, ts), mp_kernel_acvf(m, ts)[0]) <= KERNEL_BOUND

    def test_repeated_root_kernel(self):
        # a(z) = (z+1)^2: g(t) = t e^{-t}
        m = CarmaModel([2.0, 1.0], [1.0])
        for t in (0.3, 1.0, 2.5):
            assert chf.kernel_values(m, t) == pytest.approx(t * np.exp(-t), rel=1e-9)


class TestKernelDerivativesAtZero:
    def test_known_order_patterns(self):
        assert chf.kernel_derivative_at_zero(CarmaModel([3, 2], [1, 1]), 0) == pytest.approx(1.0)
        m30 = CarmaModel([6, 11, 6], [1])
        assert [chf.kernel_derivative_at_zero(m30, k) for k in range(3)] == pytest.approx([0, 0, 1])
        m20 = CarmaModel([3, 2], [1])
        assert [chf.kernel_derivative_at_zero(m20, k) for k in range(2)] == pytest.approx([0, 1])

    def test_negative_order_rejected(self, carma20):
        with pytest.raises(ValueError, match="non-negative"):
            chf.kernel_derivative_at_zero(carma20, -1)

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
        # gamma_Y(h) = sigma2 * int_0^inf g(u) g(u+|h|) du, by mpmath's quadrature of the kernel
        def g(u):
            return chf.kernel_values(carma21, float(u))

        for h in (0.0, 0.7, 5.0):
            oracle = mp.quad(lambda u: g(u) * g(u + h), [0, mp.inf])
            assert chf.acvf_continuous(carma21, h) == pytest.approx(float(oracle), rel=1e-7)

    def test_lyapunov_vs_mpmath(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            m = random_stable_model(rng)
            hs = rng.uniform(0.0, 5.0, 5)
            assert chf.acvf_continuous(m, hs) == pytest.approx(mp_kernel_acvf(m, hs)[1], rel=ACVF_BOUND, abs=0.0)

    def test_repeated_roots_fall_back(self):
        # double root -1: g(t) = t e^-t, so gamma_Y(0) = int t^2 e^-2t dt = 1/4
        m = CarmaModel([2.0, 1.0], [1.0])
        assert chf.acvf_continuous(m, 0.0) == pytest.approx(0.25, rel=1e-12)
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
        # gamma_Y(0) = int f_Y(w) dw over the real line, by mpmath's quadrature of f_Y
        total = 2 * mp.quad(lambda w: chf.spectral_density_continuous(carma20, float(w)), [0, 1, 10, mp.inf])
        assert float(total) == pytest.approx(chf.acvf_continuous(carma20, 0.0), rel=1e-6)

    @pytest.mark.parametrize("name", ["car1", "carma20", "carma21", "carma30"])
    def test_bit_identical_to_float_horner(self, name):
        doc = json.loads((DEMO_MODELS / f"{name}.json").read_text())
        m = CarmaModel(doc["a"], doc["b"], doc["sigma2"])
        w = np.concatenate([[0.0], np.geomspace(1e-3, 1e6, 60)])
        w = np.concatenate([-w[::-1], w])

        def horner(coeffs, z):  # descending coefficients, on Python complex scalars
            out = complex(coeffs[0])
            for c in coeffs[1:]:
                out = out * z + c
            return out

        # the polynomials by Horner in Python; |.|^2 and the ratio as the library takes them
        num = np.abs([horner(m.b[::-1], 1j * x) for x in w.tolist()]) ** 2
        den = np.abs([horner((1.0, *m.a), 1j * x) for x in w.tolist()]) ** 2
        want = m.sigma2 / (2.0 * np.pi) * num / den
        assert chf.spectral_density_continuous(m, w).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "m",
        [roots_model(-np.arange(1.0, 11.0), -np.arange(1.5, 10.0)), CarmaModel([3.0, 2.0], [1.0, 1.0])],
        ids=["p10q9", "carma21"],
    )
    def test_far_frequencies_against_mpmath(self, m):
        # |a(i omega)|^2 overflows past |omega| ~ 1e15 (p = 10) and 1e77 (p = 2).  Within
        # 16 ulp of each normal value (the worst measured is 3.4 ulp), within the
        # smallest normal below it, and never NaN.
        w = np.concatenate([[0.0], np.geomspace(1e-3, 1e200, 204)])
        w = np.concatenate([-w[::-1], w])
        got, want = chf.spectral_density_continuous(m, w), mp_continuous_density(m, w)
        normal = want >= np.finfo(float).tiny
        assert np.all(np.abs(got - want)[normal] <= 16 * EPS * want[normal])
        assert np.all(np.abs(got - want)[~normal] <= np.finfo(float).tiny)


def mp_expm(M):
    """e^M to 60 digits, rounded to floats."""
    with mp.workdps(60):
        return np.array(mp.expm(mp.matrix(M.tolist())).tolist(), dtype=float)


def mp_scaled_exp(A, t):
    """T^-1 e^(At) T with T = diag(t^(p-1), ..., t, 1) to 60 digits, rounded to floats."""
    p = len(A)
    with mp.workdps(60):
        T = mp.diag([mp.mpf(t) ** (p - 1 - i) for i in range(p)])
        return np.array((T**-1 * mp.expm(mp.matrix(A.tolist()) * mp.mpf(t)) * T).tolist(), dtype=float)


class TestMatrixExp:
    """The one matrix exponential, the [13/13] Pade approximant of a norm-capped
    scaled block, checked through the outputs that read it: the sampled system (its
    Van Loan block), and the kernel and the continuous-time autocovariance (S x)."""

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
        # the Delta-scaled block of core.sampled_state_space: its exponential, and the
        # F and Q = G F^T read from it, each within 8 ulp of its norm
        m = CarmaModel(a, b)
        p, k = m.p, np.arange(m.p)
        M = np.zeros((2 * p, 2 * p))
        M[:p, :p] = m.companion() * delta ** (k[:, None] - k[None, :] + 1.0)
        M[p:, p:] = -M[:p, :p].T
        M[p - 1, 2 * p - 1] = delta
        assert np.array_equal(core._van_loan_block(m, delta), M)
        assert max_rel_error(core._pade13(M), mp_expm(M)) <= 8 * EPS
        with mp.workdps(60):
            E = mp.expm(mp.matrix(M.tolist()))
            G = E[:p, p:] * E[:p, :p].T
            F_ref = np.array(E[:p, :p].tolist(), dtype=float)
            Q_ref = np.array(((G + G.T) / 2).tolist(), dtype=float)
        F, Q, _ = core.sampled_state_space(m, delta)
        assert max_rel_error(F, F_ref) <= 8 * EPS
        assert max_rel_error(Q, Q_ref) <= 8 * EPS

    def test_scaled_degree_13_against_mpmath(self):
        # at Delta = 1, T = I and F = e^A; the block needs halving and doubling; 16 ulp,
        # and the kernel and autocovariance at t = 1 within 16 ulp of their values
        m = CarmaModel([10.0, 35.0, 50.0, 24.0, 5.0], [1.0])
        assert max_rel_error(core.sampled_state_space(m, 1.0)[0], mp_expm(m.companion())) <= 16 * EPS
        g, gamma = mp_kernel_acvf(m, [1.0])
        assert abs(chf.kernel_values(m, 1.0) - g[0]) <= 16 * EPS * abs(g[0])
        assert abs(chf.acvf_continuous(m, 1.0) - gamma[0]) <= 16 * EPS * abs(gamma[0])

    def test_stack_against_mpmath(self):
        # a quadruple root over a stack of lags: F at each lag, and g and gamma_Y over
        # the whole stack, each within 16 ulp of its norm
        m = CarmaModel([4.0, 6.0, 4.0, 1.0], [1.0])
        ts = np.array([0.0, 1e-5, 0.3, 2.0, 7.5])
        for t in ts[1:]:
            assert max_rel_error(core.sampled_state_space(m, t)[0], mp_scaled_exp(m.companion(), t)) <= 16 * EPS
        g, gamma = mp_kernel_acvf(m, ts)
        assert max_rel_error(chf.kernel_values(m, ts), g) <= 16 * EPS
        assert max_rel_error(chf.acvf_continuous(m, ts), gamma) <= 16 * EPS

    def test_non_finite_gives_nan(self):
        # a NaN coefficient is refused at construction; a Delta whose block overflows gives NaN
        with pytest.raises(ModelError, match="must be finite") as exc:
            CarmaModel([np.nan, 1.0], [1.0])
        assert exc.value.reason == "non_finite"
        with np.errstate(over="ignore", invalid="ignore"):
            F, Q, _ = core.sampled_state_space(CarmaModel([3.0, 2.0], [1.0]), 1e200)
        assert np.isnan(F).all() and np.isnan(Q).all()

    def test_diagonal(self):
        # p = 1: F = e^(-a Delta) and Q = (1 - e^(-2 a Delta)) / (2 a) from the 2 x 2 block
        for a in (1.0, 2.0):
            F, Q, _ = core.sampled_state_space(CarmaModel([a], [1.0]), 1.0)
            assert F[0, 0] == pytest.approx(np.exp(-a), rel=1e-14)
            assert Q[0, 0] == pytest.approx(-np.expm1(-2 * a) / (2 * a), rel=1e-14)

    def test_companion_entry(self, carma20):
        got = core.sampled_state_space(carma20, 1.0)[0]
        assert got[0, 0] == pytest.approx(2 * np.exp(-1) - np.exp(-2), rel=1e-12)

    def test_eigen_oracle(self):
        # distinct-root models at Delta = 1, where F = e^A
        rng = np.random.default_rng(9)
        for _ in range(5):
            m = random_stable_model(rng)
            lam, V = np.linalg.eig(m.companion())
            oracle = np.real(V @ np.diag(np.exp(lam)) @ np.linalg.inv(V))
            assert np.allclose(core.sampled_state_space(m, 1.0)[0], oracle, rtol=1e-10, atol=1e-12)


class TestEdgeLags:
    LAGS = np.array([0.0, 1e-300, 1e-120, 1e-60, 1e-5, 0.3, 2.0, 7.5, 30.0])
    MODELS = (
        ([1.0], [1.0]),
        ([3.0, 2.0], [1.0, 1.0]),
        ([6.0, 11.0, 6.0], [0.3, -0.2, 1.0]),
        (np.poly([-1.0, -1.001, -2.0])[1:], [0.5, 1.0]),
        ([4.0, 6.0, 4.0, 1.0], [1.0]),
        ([4.0, 6.0, 4.0, 1.0], [0.5, 1.0]),
        ([10.0, 35.0, 50.0, 24.0, 5.0], [1.0]),
        ([10.0, 35.0, 50.0, 24.0, 5.0], [2.0, 3.0, 1.0]),
        *((m.a, m.b) for m in coverage_models()),
    )

    @pytest.mark.parametrize("a, b", MODELS)
    def test_against_mpmath(self, a, b):
        # Lag 0 gives the exact limits.  Up to 1e-5 every value is one dominant Taylor
        # term, within 16 ulp of itself; over all lags within 32 ulp of the largest
        # (the worst measured is 16.2, the fifth-order kernel at t = 7.5).
        m = CarmaModel(a, b, sigma2=0.7)
        g, gamma = chf.kernel_values(m, self.LAGS), chf.acvf_continuous(m, self.LAGS)
        assert g[0] == m.b_vector()[-1]
        assert gamma[0] == (m.sigma2 * (chf.stationary_state_covariance(m) @ m.b_vector())) @ m.b_vector()
        g_ref, gamma_ref = mp_kernel_acvf(m, self.LAGS)
        small = self.LAGS <= 1e-5
        assert np.all(np.abs(g - g_ref)[small] <= 16 * EPS * np.abs(g_ref)[small])
        assert np.all(np.abs(gamma - gamma_ref)[small] <= 16 * EPS * np.abs(gamma_ref)[small])
        assert max_rel_error(g, g_ref) <= 32 * EPS
        assert max_rel_error(gamma, gamma_ref) <= 32 * EPS

    def test_tiny_delta_block_is_finite(self):
        # h^-k overflows at Delta = 1e-120, and 0 * inf would make F NaN
        F, Q, b = core.sampled_state_space(CarmaModel([10.0, 35.0, 50.0, 24.0, 5.0], [1.0]), 1e-120)
        assert np.isfinite(F).all()

    def test_nan_time(self, carma21):
        assert np.isnan(chf.kernel_values(carma21, [0.5, np.nan])).tolist() == [False, True]
        assert np.isnan(chf.acvf_continuous(carma21, [0.5, np.nan])).tolist() == [False, True]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "a, b, lags",
        [
            ([3.0, 2.0], [1.0, 1.0], [1e150, 1e200, 1e300]),
            ([15.0, 85.0, 225.0, 274.0, 120.0], [1.0], [1e61, 1e62, 1e100]),
        ],
        ids=["carma21", "roots-1..-5"],
    )
    def test_lags_beyond_the_scaled_range(self, a, b, lags):
        # S h overflows past h ~ 9.5e153 (carma21) and ~1.1e61 (AR roots -1..-5), the first lag
        # just inside; the kernel halves h to the model's time scale all the same.  Every value
        # underflows to 0, with no warning.
        m = CarmaModel(a, b)
        h = [*lags, *(-x for x in lags)]
        assert chf.kernel_values(m, h).tolist() == chf.acvf_continuous(m, h).tolist() == [0.0] * 6
        g_ref, gamma_ref = mp_kernel_acvf(m, lags[:1])
        assert chf.kernel_values(m, lags[0]) == g_ref[0] and chf.acvf_continuous(m, lags[0]) == gamma_ref[0]

    @pytest.mark.parametrize("a, b", MODELS)
    def test_kernel_needs_no_sampled_system(self, a, b, monkeypatch):
        # g and gamma_Y square e^(S x) themselves: with the sampled system refused, every lag,
        # out to 1e300, gives the value it gave before
        m, lags = CarmaModel(a, b, sigma2=0.7), np.concatenate([self.LAGS, [1e3, 1e10, 1e30, 1e100, 1e300]])
        g, gamma = chf.kernel_values(m, lags), chf.acvf_continuous(m, lags)

        def refused(model, delta):
            raise AssertionError("the kernel reads the sampled system")

        monkeypatch.setattr(core, "sampled_state_space", refused)
        assert np.array_equal(chf.kernel_values(m, lags), g)
        assert np.array_equal(chf.acvf_continuous(m, lags), gamma)

    @pytest.mark.xfail(strict=True, reason="the doubling F <- F F amplifies rounding on this non-normal model")
    def test_lightly_damped_near_fourfold_pair(self):
        # Roots -0.0015 and four pairs at -0.003..-0.008 +- 27.99i.  The values must be right or
        # refused; kernel_values gives g(30) = -2.4225e-5 against -2.2729e-5 and g(100) = 14.57 against -1.86e-5.
        a = [0.045614134627865094, 3134.1703858729106, 108.40812700841423, 3683633.4314373196,
             86801.38998157787, 1924188538.536589, 24127480.732681938, 376920745479.1758, 570663801.0916673]
        m, lags = CarmaModel(a, [1.0]), [30.0, 100.0]
        for got, ref in zip((chf.kernel_values, chf.acvf_continuous), mp_kernel_acvf(m, lags)):
            with contextlib.suppress(ModelError):
                assert np.max(np.abs(got(m, lags) - ref)) <= 1e-6 * np.max(np.abs(ref))

    @pytest.mark.xfail(strict=True, reason="the doubling F <- F F raises rounding to the power 2^s")
    def test_long_lag_of_a_lightly_damped_model(self):
        # AR roots -1e-11, -1 and -2: kernel_values gives g(1e11) = 0.1839386 against
        # 0.1839397, 2.3e-6 of max |g|.  The values must be right or refused.
        m, lags = roots_model([-1e-11, -1.0, -2.0], []), [1e9, 1e11]
        for got, ref in zip((chf.kernel_values, chf.acvf_continuous), mp_kernel_acvf(m, lags)):
            with contextlib.suppress(ModelError):
                assert np.max(np.abs(got(m, lags) - ref)) <= 1e-6 * np.max(np.abs(ref))

    @pytest.mark.parametrize("a, b", [([3.0, 2.0], [1.5, 1.0]), ([4.0, 6.0, 4.0, 1.0], [0.5, 1.0])])
    def test_infinite_lag_is_the_limit(self, a, b):
        # g(inf) = 0 and gamma(+-inf) = 0, for distinct roots and the fourfold root -1
        m = CarmaModel(a, b)
        g = chf.kernel_values(m, [np.inf, -np.inf, np.nan])
        gamma = chf.acvf_continuous(m, [np.inf, -np.inf, np.nan])
        assert g[:2].tolist() == gamma[:2].tolist() == [0.0, 0.0]
        assert np.isnan(g[2]) and np.isnan(gamma[2])
        assert chf.kernel_values(m, np.inf) == chf.acvf_continuous(m, -np.inf) == 0.0


def random_models(seed, n, p_min, repeat, pair, draw_pair):
    """n seeded models with b = (1) and p ~ U{p_min..10}, a refused one as None (never re-drawn).

    Roots are drawn one step at a time: the last root or pair again with
    probability ``repeat``, else a pair draw_pair(rng) and its conjugate with
    probability ``pair`` (where two roots are left), else a real root
    -10^U(-3, 6).  sigma2 = 1: Sigma is per unit sigma2.
    """
    rng = np.random.default_rng(seed)
    models = []
    for _ in range(n):
        p = int(rng.integers(p_min, 11))
        roots, last = [], []
        while len(roots) < p:
            if last and len(roots) + len(last) <= p and rng.random() < repeat:
                new = last
            elif p - len(roots) >= 2 and rng.random() < pair:
                z = draw_pair(rng)
                new = [z, z.conjugate()]
            else:
                new = [-(10 ** rng.uniform(-3, 6))]
            roots, last = roots + new, new
        try:
            models.append(CarmaModel(np.real(np.poly(roots))[1:], [1.0]))
        except ModelError:
            models.append(None)
    return models


class TestStationaryStateCovariance:
    def test_ou(self, ou):
        assert chf.stationary_state_covariance(ou) == pytest.approx(np.array([[0.5]]))

    def test_carma20_closed_form(self, carma20):
        sigma = chf.stationary_state_covariance(carma20)
        assert np.allclose(sigma, [[1 / 12, 0.0], [0.0, 1 / 6]], atol=1e-12)

    # Sigma is the exact solution rounded once, so every test below asks for the
    # 80-digit reference rounded to floats, bit for bit.
    @pytest.mark.parametrize("a", [[2.0, 1.0], [3.0, 3.0, 1.0], [4.0, 6.0, 4.0, 1.0], [5.0, 10.0, 10.0, 5.0, 1.0]])
    def test_repeated_roots_against_mpmath(self, a):
        m = CarmaModel(a, [1.0])
        assert np.array_equal(chf.stationary_state_covariance(m), mp_sigma(m))

    # AR roots spread over up to ten decades or far off the real axis, and one
    # p = 5 model with complex roots; the first is the model whose unscaled
    # solve gave Sigma_00 = -1.42e-30
    SPREAD_ROOTS = {
        "stiff": [-10.0, -1e4, -1e5, -1e6],
        "decades": [-1.0, -10.0, -100.0, -1e3, -1e4],
        "double_and_fast": [-2.0, -2.0, -1e6],
        "slow_and_fast": [-1e-3, -1.0, -1e3],
        "oscillatory": [-1.0, -0.1 + 100j, -0.1 - 100j],
    }
    SPREAD_A = [np.real(np.poly(r))[1:] for r in SPREAD_ROOTS.values()] + [[10.0, 35.0, 50.0, 24.0, 5.0]]

    @pytest.mark.parametrize("a", SPREAD_A, ids=[*SPREAD_ROOTS, "p5_complex"])
    def test_spread_roots_against_mpmath(self, a):
        m = CarmaModel(a, [1.0])
        sigma = chf.stationary_state_covariance(m)
        assert np.array_equal(sigma, mp_sigma(m))
        np.linalg.cholesky(sigma)

    def test_stiff_variance_is_positive(self):
        m = CarmaModel(self.SPREAD_A[0], [1.0])
        ref = mp_sigma(m)
        assert ref[0, 0] == pytest.approx(4.995e-32, rel=1e-3)
        assert np.array_equal(chf.stationary_state_covariance(m), ref)
        assert chf.acvf_continuous(m, 0.0) == ref[0, 0] > 0.0

    def test_random_spread_family(self):
        # Six seeded families, p <= 10, b = (1) and sigma2 = 1.  Spread (seed
        # 1104, 160 draws): real roots -10^U(-3, 6) and conjugate pairs of
        # modulus 10^U(-3, 6) at a uniform angle, each root or pair repeated
        # with probability 0.2.  Damped pairs (seeds 5 to 9, 80 draws each,
        # p >= 2): the last root or pair repeated with probability 0.3, else a
        # pair r (-zeta +- i sqrt(1 - zeta^2)) with r = 10^U(-3, 6) and
        # zeta = 10^U(-3, 0) with probability 0.6, else a real root.  Models
        # that CarmaModel refuses are skipped, never re-drawn; none was, and
        # each family must keep at least its floor.  Sigma must equal the
        # reference and factor by plain Cholesky.
        def spread_pair(rng):
            return 10 ** rng.uniform(-3, 6) * np.exp(1j * rng.uniform(np.pi / 2, np.pi))

        def damped_pair(rng):
            r, zeta = 10 ** rng.uniform(-3, 6), 10 ** rng.uniform(-3, 0)
            return r * complex(-zeta, math.sqrt(1.0 - zeta**2))

        families = [(random_models(1104, 160, 1, 0.2, 0.3, spread_pair), 150)]
        families += [(random_models(seed, 80, 2, 0.3, 0.6, damped_pair), 75) for seed in (5, 6, 7, 8, 9)]
        for drawn, floor in families:
            models = [m for m in drawn if m is not None]
            assert len(models) >= floor
            for m in models:
                sigma = chf.stationary_state_covariance(m)
                assert np.array_equal(sigma, mp_sigma(m)), m.a
                np.linalg.cholesky(sigma)

    # Lightly damped pairs repeated several times, where the map a -> Sigma is
    # so ill-conditioned that a float solve loses Sigma's leading digits: a
    # fourfold pair at damping 1e-3 and modulus 2, and the worst model of the
    # damped-pair family at seed 9, a fivefold pair at damping 0.01 and
    # modulus 1.3e-3.  The fourfold pair's correctly rounded Sigma fails plain
    # Cholesky, so its simulators raise LinAlgError (test_simulate).
    ILL_CONDITIONED_A = {
        "fourfold_pair": FOURFOLD_PAIR_A,
        "fivefold_pair": [
            0.0001387093270868829, 8.586456559667685e-06, 9.52176775737641e-10, 2.9477669151403847e-11,
            2.4507321159663143e-15, 5.057637244718152e-17, 2.8030229755828866e-21, 4.3368818087319116e-23,
            1.2020535377520332e-27, 1.4868689169585643e-29,
        ],
    }

    @pytest.mark.parametrize("a", ILL_CONDITIONED_A.values(), ids=ILL_CONDITIONED_A)
    def test_ill_conditioned_pairs(self, a):
        m = CarmaModel(a, [1.0])
        assert np.array_equal(chf.stationary_state_covariance(m), mp_sigma(m))

    def test_overflow_is_a_model_error(self):
        # a sixteen-fold root -3e-12: the variance c_0 grows like (3e-12)^-31, beyond the float range
        m = CarmaModel(np.real(np.poly([-3e-12] * 16))[1:], [1.0])
        with pytest.raises(ModelError, match="float range") as exc:
            chf.stationary_state_covariance(m)
        assert exc.value.reason == "sigma_overflow"

    def test_lyapunov_residual_and_consistency(self, carma30):
        rng = np.random.default_rng(13)
        for m in [*(random_stable_model(rng) for _ in range(5)), carma30, CarmaModel(self.SPREAD_A[-1], [1.0])]:
            sigma = chf.stationary_state_covariance(m)
            # the checkerboard form, exactly: symmetric, and 0 where i + j is odd
            i = np.arange(m.p)
            assert np.array_equal(sigma, sigma.T)
            assert not sigma[(i[:, None] + i) % 2 == 1].any()
            A = m.companion()
            rhs = np.zeros_like(A)
            rhs[-1, -1] = -1.0
            res = A @ sigma + sigma @ A.T - rhs
            assert np.linalg.norm(res) <= 1e-10 * max(np.linalg.norm(sigma), 1.0)
            assert np.linalg.eigvalsh(sigma).min() >= -1e-12
            b = m.b_vector()
            assert m.sigma2 * (b @ sigma @ b) == pytest.approx(
                chf.acvf_continuous(m, 0.0), rel=1e-10
            )
