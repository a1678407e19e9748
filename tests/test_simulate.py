import os
import subprocess
import sys

import numpy as np
import pytest

import carmahf as chf
from carmahf import CarmaModel, DriverSpec, core, simulate
from carmahf.simulate import spawn_seeds

from conftest import FOURFOLD_PAIR_A, child_env, corpus


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

    @pytest.mark.parametrize("rate", [np.nan, np.inf])
    def test_rejects_non_finite_jump_rate(self, rate):
        with pytest.raises(ValueError, match="jump_rate must be finite and > 0"):
            DriverSpec(kind="compound_poisson", jump_rate=rate)


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


def _longdouble_loop(b_out, F, v, x0):
    """The state recursion of ``_propagate`` in extended precision, step by step."""
    F, v, x, b_out = (np.asarray(u, dtype=np.longdouble) for u in (F, v, x0, b_out))
    y = np.empty(len(v) + 1, dtype=np.longdouble)
    y[0] = b_out @ x
    for k in range(len(v)):
        x = F @ x + v[k]
        y[k + 1] = b_out @ x
    return y, x


def _rows(v):
    """A ``draw`` for ``_propagate`` that hands out the rows of v in order."""
    end = [0]

    def draw(k):
        end[0] += k
        return v[end[0] - k : end[0]].copy()

    return draw


def _spy_propagate(monkeypatch):
    """Wrap ``simulate._propagate`` to record each call's (x0, rows drawn)."""
    calls = []
    real = simulate._propagate

    def spy(b_out, F, draw, m, x0):
        rows = []
        calls.append((x0, rows))

        def recorded(k):
            rows.append(draw(k))
            return rows[-1]

        return real(b_out, F, recorded, m, x0)

    monkeypatch.setattr(simulate, "_propagate", spy)
    return calls


def _assert_matches_loop(b_out, F, v, x0):
    y, x = simulate._propagate(b_out, F, _rows(v), len(v), x0)
    y_ref, x_ref = _longdouble_loop(b_out, F, v, x0)
    assert np.max(np.abs(y - y_ref)) <= 1e-9 * np.max(np.abs(y_ref))
    assert np.max(np.abs(x - x_ref)) <= 1e-9 * np.max(np.abs(x_ref))


def _exact_transition(m, delta, n, rng):
    """(b, F, v, x0), Delta-scaled, as simulate_gaussian_exact passes them, per unit sigma2."""
    F, Q, b = core.sampled_state_space(m, delta)
    Ls = np.linalg.cholesky(chf.stationary_state_covariance(m)) / _scale(m, delta)[:, None]
    x0 = Ls @ rng.standard_normal(m.p)
    return b, F, rng.standard_normal((n, m.p)) @ np.linalg.cholesky(Q).T, x0


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
        # the fine Euler step F = I + A dt, driven through the last state channel alone
        m = CarmaModel(a, [0.5, 1.0])
        dt = 1e-3
        v = np.zeros((20_000, m.p))
        v[:, -1] = np.sqrt(dt) * np.random.default_rng(5).standard_normal(20_000)
        _assert_matches_loop(m.b_vector(), np.eye(m.p) + m.companion() * dt, v, np.ones(m.p))

    @pytest.mark.parametrize("a", [[4.0, 6.0, 4.0, 1.0], [0.2, 4.01]])
    def test_folded_euler_step_matches_fine_grid_loop(self, monkeypatch, a):
        # simulate_euler's one Delta step F_E^S, G_S against S steps of F_E = I + A dt,
        # on the same increments and x0, over three blocks of many slices each
        monkeypatch.setattr(simulate, "_BLOCK", 500)
        calls = _spy_propagate(monkeypatch)
        m = CarmaModel(a, [0.5, 1.0])
        S, dt = 16, 1e-3
        y = chf.simulate_euler(m, S * dt, 1_251, substeps=S, driver=DriverSpec(), seed=5).y
        ((x0, rows),) = calls
        assert len(np.concatenate(rows)) == 1_250
        # the increments again: the stream after x0's p normals, in the order the slices drew it
        rng = np.random.default_rng(5)
        rng.standard_normal(m.p)
        dl = np.zeros((1_250 * S, m.p))
        dl[:, -1] = np.sqrt(dt) * rng.standard_normal(1_250 * S)
        y_ref = _longdouble_loop(m.b_vector(), np.eye(m.p) + m.companion() * dt, dl, x0)[0]
        assert np.max(np.abs(y - y_ref[::S])) <= 1e-9 * np.max(np.abs(y_ref))

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
        y, x = simulate._propagate(carma30.b_vector(), np.eye(3), _rows(np.empty((0, 3))), 0, x0)
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

    @pytest.mark.parametrize("jump_dist", ["two_point", "normal"])
    def test_compound_poisson_second_order(self, ou, jump_dist):
        drv = DriverSpec(kind="compound_poisson", jump_rate=5.0, jump_dist=jump_dist)
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

    def test_root_near_stability_margin(self):
        # root -1e-11: a burn-in of 20 / (Delta min|Re lambda|) steps would be 2e13 steps
        m = CarmaModel([1e-11], [1.0])
        y = chf.simulate_euler(m, 0.1, 1_000, substeps=4, driver=DriverSpec(), seed=3).y
        assert y.shape == (1_000,)
        assert np.all(np.isfinite(y))

    def test_substeps_validation(self, ou):
        with pytest.raises(ValueError):
            chf.simulate_euler(ou, 0.1, 100, substeps=0, driver=DriverSpec(), seed=1)
        # F_E = 1 - Delta/S for the OU root -1: |F_E| = 1.5 diverges, |F_E| = 1 is a random walk
        for delta in (2.5, 2.0):
            with pytest.raises(ValueError, match=f"F_E >= 1 at substeps = 1, delta = {delta}"):
                chf.simulate_euler(ou, delta, 100, substeps=1, driver=DriverSpec(), seed=1)

    def test_empty_and_negative_length(self, ou):
        r = chf.simulate_euler(ou, 0.1, 0, substeps=2, driver=DriverSpec(), seed=1)
        assert r.y.shape == (0,)
        with pytest.raises(ValueError, match="path length n must be >= 0"):
            chf.simulate_euler(ou, 0.1, -1, substeps=2, driver=DriverSpec(), seed=1)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_euler_memory_does_not_grow_with_substeps():
    # one (20000, 1024) block of increments alone would be 164 MB; slices of
    # _BLOCK // substeps Delta steps keep the child near its import floor.
    # VmHWM is the peak of the child's own image: ru_maxrss would count the
    # parent's pages that the child held between fork and exec.
    code = (
        "import re, carmahf as chf\n"
        "chf.simulate_euler(chf.CarmaModel([1.0], [1.0]), 0.1, 20_000, 1024, chf.DriverSpec(), 1)\n"
        "print(re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read())[1])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert int(proc.stdout) / 1024 < 60.0


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


@pytest.mark.parametrize(
    "run",
    [
        lambda m: chf.simulate_gaussian_exact(m, 0.1, 2_500, seed=1),
        lambda m: chf.simulate_euler(m, 0.1, 2_500, substeps=3, driver=DriverSpec(), seed=1),
    ],
    ids=["exact", "euler"],
)
def test_simulators_draw_one_block_at_a_time(monkeypatch, carma20, run):
    monkeypatch.setattr(simulate, "_BLOCK", 1000)
    calls = _spy_propagate(monkeypatch)
    run(carma20)
    ((_, rows),) = calls
    assert [len(r) for r in rows] == [1000, 1000, 499]


@pytest.mark.parametrize(
    "run",
    [
        lambda m: chf.simulate_gaussian_exact(m, 0.1, 10, seed=1),
        lambda m: chf.simulate_euler(m, 1e-3, 10, substeps=10, driver=DriverSpec(), seed=1),  # F_E stable
    ],
    ids=["exact", "euler"],
)
def test_sigma_not_positive_definite_raises(run):
    # the fourfold pair's correctly rounded Sigma fails plain Cholesky; no jitter hides it
    with pytest.raises(np.linalg.LinAlgError):
        run(CarmaModel(FOURFOLD_PAIR_A, [1.0]))


class TestEmpiricalFilteredAcvf:
    def test_matches_exact_within_stderr(self, carma20):
        d = 0.1
        r = chf.simulate_gaussian_exact(carma20, d, 500_000, seed=12345)
        emp = chf.empirical_filtered_acvf(r, lags=3)
        exact = chf.acvf_filtered_sequence(carma20, d, n_max=3)
        for h in range(4):
            dev = (emp.values[h] - exact.values[h]) / emp.stderr[h]
            assert abs(dev) < 4.0

    def test_model_and_shapes(self, ou):
        r = chf.simulate_gaussian_exact(ou, 0.1, 10_000, seed=2)
        emp = chf.empirical_filtered_acvf(r, lags=2)
        assert r.model is ou
        assert len(emp.values) == 3
        assert len(emp.stderr) == 3
        assert all(s > 0 for s in emp.stderr)

    @pytest.mark.parametrize("lags", [-1, -3])
    def test_rejects_negative_lags(self, ou, lags):
        r = chf.simulate_gaussian_exact(ou, 0.1, 1_000, seed=2)
        with pytest.raises(ValueError, match="lag must be non-negative"):
            chf.empirical_filtered_acvf(r, lags=lags)

    def test_series_too_short(self, carma30):
        r = chf.simulate_gaussian_exact(carma30, 0.1, 200, seed=3)
        with pytest.raises(ValueError, match="too short"):
            chf.empirical_filtered_acvf(r, lags=2)
