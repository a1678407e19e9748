import os
import subprocess
import sys

import numpy as np
import pytest
from mpmath import mp

import carmahf as chf
from carmahf import CarmaModel, DriverSpec, core, simulate
from carmahf.simulate import spawn_seeds

from conftest import ILL_CONDITIONED_A, child_env, corpus, mp_system


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

    def test_lyapunov_identity_vs_mpmath(self, carma30):
        # Q_Delta = Sigma - e^(A Delta) Sigma e^(A^T Delta) at 60 digits
        d = 0.2
        with mp.workdps(60):
            A, _, sigma = mp_system(carma30)
            F = mp.expm(A * mp.mpf(d))
            want = np.array((sigma - F * sigma * F.T).tolist(), dtype=float)
        assert _unscaled_transition(carma30, d)[1] == pytest.approx(want, abs=1e-11)

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
    """A ``noise`` for ``_propagate`` with M = I: it hands out the rows of v in order."""
    end = [0]

    def noise(shape):
        end[0] += shape[0]
        return v[end[0] - shape[0] : end[0]]

    return noise


def _spy_propagate(monkeypatch):
    """Wrap ``simulate._propagate`` to record each call's (x0, raw noise blocks drawn)."""
    calls = []
    real = simulate._propagate

    def spy(b_out, F, noise, M, m, x0):
        blocks = []
        calls.append((x0, blocks))

        def recorded(shape):
            blocks.append(noise(shape))
            return blocks[-1]

        return real(b_out, F, recorded, M, m, x0)

    monkeypatch.setattr(simulate, "_propagate", spy)
    return calls


def _assert_matches_loop(b_out, F, v, x0):
    y, x = simulate._propagate(b_out, F, _rows(v), np.eye(len(x0)), len(v), x0)
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
        # on the same increments and x0, over 41 blocks of 500 // S = 31 Delta steps
        monkeypatch.setattr(simulate, "_BLOCK", 500)
        calls = _spy_propagate(monkeypatch)
        m = CarmaModel(a, [0.5, 1.0])
        S, dt = 16, 1e-3
        y = chf.simulate_euler(m, S * dt, 1_251, substeps=S, driver=DriverSpec(), seed=5).y
        ((x0, blocks),) = calls
        assert [len(dl) for dl in blocks] == [31] * 40 + [10]
        # the increments again: the stream after x0's p normals, in the order the blocks drew it
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
        # 16 full blocks of 5000 // p = 1000 steps and a partial one of 387 steps, each
        # starting from the state the last left
        monkeypatch.setattr(simulate, "_BLOCK", 5000)
        m = CarmaModel([5.0, 10.0, 10.0, 5.0, 1.0], [1.0])
        _assert_matches_loop(*_exact_transition(m, 1e-2, 2**14 + 3, np.random.default_rng(7)))

    def test_single_sample(self, carma30):
        x0 = np.array([0.5, -1.0, 2.0])
        y, x = simulate._propagate(carma30.b_vector(), np.eye(3), _rows(np.empty((0, 3))), np.eye(3), 0, x0)
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
    "run, shapes",
    [
        # the exact step draws p = 2 normals per Delta step
        (lambda m: chf.simulate_gaussian_exact(m, 0.1, 2_500, seed=1), [(500, 2)] * 4 + [(499, 2)]),
        # Euler draws substeps = 3 increments per Delta step
        (
            lambda m: chf.simulate_euler(m, 0.1, 2_500, substeps=3, driver=DriverSpec(), seed=1),
            [(333, 3)] * 7 + [(168, 3)],
        ),
    ],
    ids=["exact", "euler"],
)
def test_simulators_draw_one_block_at_a_time(monkeypatch, carma20, run, shapes):
    # every block draws about _BLOCK = 1000 numbers, whatever it maps them into
    monkeypatch.setattr(simulate, "_BLOCK", 1000)
    calls = _spy_propagate(monkeypatch)
    run(carma20)
    ((_, blocks),) = calls
    assert [dl.shape for dl in blocks] == shapes


@pytest.mark.parametrize("a", ILL_CONDITIONED_A.values(), ids=ILL_CONDITIONED_A)
@pytest.mark.parametrize("scheme", ["exact", "euler"])
def test_ill_conditioned_pairs_draw_from_the_exact_factor(monkeypatch, scheme, a):
    # the fourfold pair's correctly rounded Sigma fails plain Cholesky; both
    # simulators draw x0 = sqrt(sigma2) R z from Sigma's exact factor instead
    m = CarmaModel(a, [1.0], sigma2=2.0)
    calls = _spy_propagate(monkeypatch)
    if scheme == "exact":
        y = chf.simulate_gaussian_exact(m, 0.1, 1_000, seed=1).y
        t = _scale(m, 0.1)[:, None]
    else:  # dt = 1e-4 keeps the fourfold pair's F_E stable
        y = chf.simulate_euler(m, 1e-3, 1_000, substeps=10, driver=DriverSpec(), seed=1).y
        t = 1.0
    ((x0, _),) = calls
    z = np.random.default_rng(1).standard_normal(m.p)
    assert np.array_equal(x0, np.sqrt(2.0) * core._sigma_factor(m) / t @ z)
    assert y.shape == (1_000,)
    assert np.all(np.isfinite(y))


def _stepwise(b_out, F, noise, M, m, x0):
    """``_propagate``'s recursion one step at a time (:func:`_longdouble_loop`), on the same noise."""
    y, x = _longdouble_loop(b_out, F, noise((m, M.shape[1])) @ M.T, x0)
    return y.astype(float), x.astype(float)


def _max_deviation_in_se(result):
    """max over lags 0..p-1 of |gamma_hat - gamma_MA| / SE: the Monte Carlo judge of ``validate``."""
    p = result.model.p
    emp = chf.empirical_filtered_acvf(result, lags=p - 1)
    exact = chf.acvf_filtered_sequence(result.model, result.delta)
    return max(abs(e - g) / se for e, g, se in zip(emp.values, exact.values, emp.stderr))


#: Delta |lambda| = 0.8 and 0.39, where gamma_MA(0) / gamma_Y(0) is 6.3e-21 and 3.2e-23:
#: a float path resolves the filtered series.  At Delta = 0.01 (9.2e-45 for the fourfold
#: pair) the path's rounding outweighs it, even one step at a time.
ILL_JUDGED_DELTA = {"fourfold_pair": 0.4, "fivefold_pair": 300.0}


JUDGED_RUNS = {
    "exact": lambda m, delta: chf.simulate_gaussian_exact(m, delta, 4_000, seed=1),
    # dt = Delta / 1000 keeps the fourfold pair's F_E stable
    "euler": lambda m, delta: chf.simulate_euler(m, delta, 4_000, substeps=1_000, driver=DriverSpec(), seed=1),
}


@pytest.mark.parametrize("name", ILL_CONDITIONED_A)
@pytest.mark.parametrize("scheme", JUDGED_RUNS)
def test_ill_conditioned_draw_passes_the_filtered_judge_step_by_step(monkeypatch, scheme, name):
    # each simulator's x0, F and noise are right: propagated one step at a
    # time, the path agrees with gamma_MA within 4 SE at every lag
    monkeypatch.setattr(simulate, "_propagate", _stepwise)
    m = CarmaModel(ILL_CONDITIONED_A[name], [1.0])
    assert _max_deviation_in_se(JUDGED_RUNS[scheme](m, ILL_JUDGED_DELTA[name])) <= 4.0


@pytest.mark.xfail(
    strict=True,
    reason="the doubling scan squares F, up to F^(2^11) in the exact step's blocks and F^64 in "
    "Euler's, and on these non-normal F squaring amplifies rounding (ROADMAP item 11): "
    "the path is off by 22 to 27 SE",
)
@pytest.mark.parametrize("name", ILL_CONDITIONED_A)
@pytest.mark.parametrize("scheme", JUDGED_RUNS)
def test_ill_conditioned_path_passes_the_filtered_judge(scheme, name):
    m = CarmaModel(ILL_CONDITIONED_A[name], [1.0])
    assert _max_deviation_in_se(JUDGED_RUNS[scheme](m, ILL_JUDGED_DELTA[name])) <= 4.0


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

    @pytest.mark.parametrize("lags", [998, 3000])
    def test_lags_past_the_filtered_length(self, lags):
        # n = 1000 and p = 3 leave 997 filtered points: the biased estimator is 0 from lag 997 on
        m = CarmaModel([6.0, 11.0, 6.0], [2.0, 1.0])
        r = chf.simulate_gaussian_exact(m, 0.1, 1_000, seed=4)
        emp = chf.empirical_filtered_acvf(r, lags=lags)
        assert emp.values[997:] == (0.0,) * (lags - 996)
        short = chf.empirical_filtered_acvf(r, lags=996)
        assert emp.values[:997] == short.values
        assert emp.stderr[:997] == short.stderr

    def test_series_too_short(self, carma30):
        r = chf.simulate_gaussian_exact(carma30, 0.1, 200, seed=3)
        with pytest.raises(ValueError, match="too short"):
            chf.empirical_filtered_acvf(r, lags=2)
