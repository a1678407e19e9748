import numpy as np
import pytest

import carmahf as chf
from carmahf import CarmaModel, DriverSpec, core, simulate
from carmahf.simulate import spawn_seeds

from conftest import corpus


class TestDriverSpec:
    def test_defaults(self):
        d = DriverSpec()
        assert d.kind == "brownian"

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            DriverSpec(kind="gamma")

    def test_rejects_bad_jumps(self):
        with pytest.raises(ValueError):
            DriverSpec(kind="compound_poisson", jump_rate=0.0)
        with pytest.raises(ValueError):
            DriverSpec(kind="compound_poisson", jump_dist="cauchy")


class TestSeeds:
    def test_spawn_deterministic_and_distinct(self):
        a = spawn_seeds(7, 4)
        b = spawn_seeds(7, 4)
        assert a == b
        assert len(set(a)) == 4
        assert spawn_seeds(8, 4) != a

    def test_reproducibility_bit_identical(self, carma20):
        r1 = chf.simulate_gaussian_exact(carma20, 0.1, 5000, seed=321)
        r2 = chf.simulate_gaussian_exact(carma20, 0.1, 5000, seed=321)
        assert np.array_equal(r1.y, r2.y)
        r3 = chf.simulate_gaussian_exact(carma20, 0.1, 5000, seed=322)
        assert not np.array_equal(r1.y, r3.y)


def _scale(m, delta):
    """t = (delta^(p-1), ..., delta, 1), the diagonal of core.sampled_state_space's T."""
    return delta ** np.arange(m.p - 1.0, -1.0, -1.0)


def _unscaled_transition(m, delta):
    """(F, Q_Delta) of core.sampled_state_space mapped back to T F T^-1 and T Q T^T."""
    F, Q, _ = core.sampled_state_space(m, delta)
    t = _scale(m, delta)
    return t[:, None] * F / t, np.outer(t, t) * Q


class TestTransitionNoiseCovariance:
    def test_ou_closed_form(self, ou):
        d = 0.3
        Q = _unscaled_transition(ou, d)[1]
        assert Q[0, 0] == pytest.approx(0.5 * (1 - np.exp(-2 * d)), rel=1e-12)

    def test_quadrature_oracle(self, carma30):
        from scipy.integrate import quad
        from scipy.linalg import expm

        d = 0.2
        A = carma30.companion()
        Q = _unscaled_transition(carma30, d)[1]
        for i in range(3):
            for j in range(3):
                val, _ = quad(
                    lambda u: expm(A * u)[i, -1] * expm(A * u)[j, -1],
                    0.0,
                    d,
                    limit=100,
                    epsabs=1e-13,
                )
                assert Q[i, j] == pytest.approx(val, abs=1e-11)

    def test_consistency_with_stationary_covariance(self, carma20):
        # Sigma = F Sigma F^T + Q_Delta must hold for the sampled chain
        d = 0.4
        F, Q = _unscaled_transition(carma20, d)
        S = chf.stationary_state_covariance(carma20)
        assert np.allclose(S, F @ S @ F.T + Q, atol=1e-12)


def _longdouble_loop(b_out, F, G, e, x0):
    """The state recursion of ``_propagate`` in extended precision, step by step."""
    F, G, x, b_out = (np.asarray(v, dtype=np.longdouble) for v in (F, G, x0, b_out))
    eps = np.asarray(e, dtype=np.longdouble) @ G.T
    y = np.empty(len(e) + 1, dtype=np.longdouble)
    y[0] = b_out @ x
    for k in range(len(e)):
        x = F @ x + eps[k]
        y[k + 1] = b_out @ x
    return y, x


def _assert_matches_loop(b_out, F, G, e, x0):
    y, x = simulate._propagate(b_out, F, G, e, x0)
    y_ref, x_ref = _longdouble_loop(b_out, F, G, e, x0)
    assert np.max(np.abs(y - y_ref)) <= 1e-9 * np.max(np.abs(y_ref))
    assert np.max(np.abs(x - x_ref)) <= 1e-9 * np.max(np.abs(x_ref))


def _exact_transition(m, delta, n, rng):
    """(b, F, G, e, x0), Delta-scaled, as simulate_gaussian_exact passes them, per unit sigma2."""
    F, Q, b = core.sampled_state_space(m, delta)
    Ls = np.linalg.cholesky(chf.stationary_state_covariance(m)) / _scale(m, delta)[:, None]
    x0 = Ls @ rng.standard_normal(m.p)
    return b, F, np.linalg.cholesky(Q), rng.standard_normal((n, m.p)), x0


class TestPropagate:
    @pytest.mark.parametrize(
        "a, delta",
        [
            ([2.0, 1.0 + 1e-10], 1e-3),  # near pair: an eigenbasis route erred by 6.5e-4 here
            ([4.0, 6.0, 4.0, 1.0], 1e-2),
            ([4.0, 6.0, 4.0, 1.0], 1e-5),
            ([5.0, 10.0, 10.0, 5.0, 1.0], 1e-2),
            ([5.0, 10.0, 10.0, 5.0, 1.0], 1e-5),
            ([0.2, 4.01], 1e-2),  # oscillatory pair, roots -0.1 +- 2i
        ],
    )
    def test_matches_longdouble_loop(self, a, delta):
        m = CarmaModel(a, [1.0])
        _assert_matches_loop(*_exact_transition(m, delta, 20_000, np.random.default_rng(4)))

    @pytest.mark.parametrize("a", [[4.0, 6.0, 4.0, 1.0], [0.2, 4.01]])
    def test_euler_transition_matches_longdouble_loop(self, a):
        # F = I + A dt driven through the last state channel alone, as simulate_euler passes it
        m = CarmaModel(a, [0.5, 1.0])
        dt = 1e-3
        e = np.sqrt(dt) * np.random.default_rng(5).standard_normal((20_000, 1))
        _assert_matches_loop(m.b_vector(), np.eye(m.p) + m.companion() * dt, np.eye(m.p)[:, -1:], e, np.ones(m.p))

    @pytest.mark.parametrize("n", [2**14 - 1, 2**14])
    def test_scan_lengths(self, n):
        # n + 1 states: 2^14 ends the scan on a half-length step, 2^14 + 1 on a one-row step;
        # at this delta F^(2^14) is still about 0.2, so a skipped last step shows
        m = CarmaModel([3.0, 2.0], [1.0])
        _assert_matches_loop(*_exact_transition(m, 1e-4, n, np.random.default_rng(6)))

    def test_state_carried_across_blocks(self, monkeypatch):
        # 16 full blocks and a partial one of 387 steps, each starting from the state the last left
        monkeypatch.setattr(simulate, "_BLOCK", 1000)
        m = CarmaModel([5.0, 10.0, 10.0, 5.0, 1.0], [1.0])
        _assert_matches_loop(*_exact_transition(m, 1e-2, 2**14 + 3, np.random.default_rng(7)))

    def test_single_sample(self, carma30):
        x0 = np.array([0.5, -1.0, 2.0])
        y, x = simulate._propagate(carma30.b_vector(), np.eye(3), np.eye(3), np.empty((0, 3)), x0)
        assert y == pytest.approx([carma30.b_vector() @ x0], rel=1e-14)
        assert x == pytest.approx(x0, rel=1e-14)


class TestSimulateGaussianExact:
    def test_moments_ou(self, ou):
        r = chf.simulate_gaussian_exact(ou, 0.1, 200_000, seed=7)
        g0 = chf.acvf_continuous(ou, 0.0)
        g1 = chf.acvf_continuous(ou, 0.1)
        assert r.y.mean() == pytest.approx(0.0, abs=4 * np.sqrt(g0 / 1000))
        assert np.dot(r.y, r.y) / len(r.y) == pytest.approx(g0, rel=0.03)
        assert np.dot(r.y[:-1], r.y[1:]) / len(r.y) == pytest.approx(g1, rel=0.03)

    def test_sampled_acvf_matches_theory(self, carma30):
        d = 0.2
        r = chf.simulate_gaussian_exact(carma30, d, 400_000, seed=17)
        for h in range(3):
            emp = np.dot(r.y[: len(r.y) - h], r.y[h:]) / len(r.y)
            assert emp == pytest.approx(chf.acvf_continuous(carma30, h * d), rel=0.05)

    def test_empty_and_negative_length(self, carma30):
        r = chf.simulate_gaussian_exact(carma30, 0.1, 0, seed=1)
        assert r.y.shape == (0,)
        with pytest.raises(ValueError, match="path length n must be >= 0"):
            chf.simulate_gaussian_exact(carma30, 0.1, -1, seed=1)

    def test_repeated_root_stationary_variance(self):
        # defective companion matrix: a double root at -1
        m = CarmaModel([2.0, 1.0], [1.0])
        r = chf.simulate_gaussian_exact(m, 0.1, 60_000, seed=23)
        g0 = chf.acvf_continuous(m, 0.0)
        assert np.dot(r.y, r.y) / len(r.y) == pytest.approx(g0, rel=0.1)


class TestSimulateEuler:
    def test_brownian_matches_exact_statistics(self, ou):
        r = chf.simulate_euler(ou, 0.1, 100_000, substeps=32, driver=DriverSpec(), seed=5)
        g0 = chf.acvf_continuous(ou, 0.0)
        assert np.dot(r.y, r.y) / len(r.y) == pytest.approx(g0, rel=0.05)

    def test_bias_shrinks_with_substeps(self, ou):
        g0 = chf.acvf_continuous(ou, 0.0)

        def err(ss):
            r = chf.simulate_euler(ou, 0.1, 300_000, substeps=ss, driver=DriverSpec(), seed=5)
            return abs(np.dot(r.y, r.y) / len(r.y) - g0) / g0

        assert err(64) < err(1)

    def test_compound_poisson_second_order(self, ou):
        drv = DriverSpec(kind="compound_poisson", jump_rate=5.0, jump_dist="two_point")
        r = chf.simulate_euler(ou, 0.1, 200_000, substeps=32, driver=drv, seed=11)
        g0 = chf.acvf_continuous(ou, 0.0)
        g1 = chf.acvf_continuous(ou, 0.1)
        assert np.dot(r.y, r.y) / len(r.y) == pytest.approx(g0, rel=0.05)
        assert np.dot(r.y[:-1], r.y[1:]) / len(r.y) == pytest.approx(g1, rel=0.05)

    @pytest.mark.parametrize("a", [[3.0, 2.0], [2.0, 1.0]])  # distinct roots, double root
    def test_state_carried_across_chunks(self, monkeypatch, a):
        m = CarmaModel(a, [0.5, 1.0])
        one = chf.simulate_euler(m, 0.1, 2_000, substeps=4, driver=DriverSpec(), seed=9)
        monkeypatch.setattr(simulate, "_BLOCK", 1000)
        many = chf.simulate_euler(m, 0.1, 2_000, substeps=4, driver=DriverSpec(), seed=9)
        assert np.max(np.abs(many.y - one.y)) <= 1e-12 * np.max(np.abs(one.y))

    def test_substeps_validation(self, ou):
        with pytest.raises(ValueError):
            chf.simulate_euler(ou, 0.1, 100, substeps=0, driver=DriverSpec(), seed=1)

    def test_empty_and_negative_length(self, ou):
        r = chf.simulate_euler(ou, 0.1, 0, substeps=2, driver=DriverSpec(), seed=1)
        assert r.y.shape == (0,)
        with pytest.raises(ValueError, match="path length n must be >= 0"):
            chf.simulate_euler(ou, 0.1, -1, substeps=2, driver=DriverSpec(), seed=1)


@pytest.mark.parametrize("delta", [0.0, -0.1, np.nan, np.inf])
@pytest.mark.parametrize(
    "run",
    [
        lambda m, d: chf.simulate_gaussian_exact(m, d, 10, seed=1),
        lambda m, d: chf.simulate_euler(m, d, 10, substeps=2, driver=DriverSpec(), seed=1),
    ],
    ids=["exact", "euler"],
)
def test_simulators_reject_bad_delta(carma20, run, delta):
    with pytest.raises(ValueError, match="delta must be finite and > 0"):
        run(carma20, delta)


class TestEmpiricalFilteredAcvf:
    def test_matches_exact_within_stderr(self, carma20):
        d = 0.1
        r = chf.simulate_gaussian_exact(carma20, d, 500_000, seed=12345)
        emp = chf.empirical_filtered_acvf(r, carma20, lags=3)
        exact = chf.acvf_filtered_sequence(carma20, d, n_max=3)
        for h in range(4):
            dev = (emp.values[h] - exact.values[h]) / emp.stderr[h]
            assert abs(dev) < 4.0

    def test_provenance_and_shapes(self, ou):
        r = chf.simulate_gaussian_exact(ou, 0.1, 10_000, seed=2)
        emp = chf.empirical_filtered_acvf(r, ou, lags=2)
        assert emp.provenance == "empirical"
        assert len(emp.values) == 3
        assert len(emp.stderr) == 3
        assert all(s > 0 for s in emp.stderr)

    def test_series_too_short(self, carma30):
        r = chf.simulate_gaussian_exact(carma30, 0.1, 200, seed=3)
        with pytest.raises(ValueError, match="too short"):
            chf.empirical_filtered_acvf(r, carma30, lags=2)
