"""Self-tests of the benchmark (not of the package).

    python3 -m pytest -q perfbench/check_bench.py

They check that the oracle certifies itself, that an op forced to raise is
counted in ``fail_share``, that a result perturbed by 1e-5 is counted in
``wrong_share``, that probe outcomes stay out of ``failed``, and that every
workload runs with no failed op and a peak RSS well under the machine's
memory.  The file name keeps them out of the package's own test run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_package()

import corpus  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

workloads.quiet()


def test_oracle_self_check():
    oracle.self_check()
    assert oracle.certified()


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_oracle_top_lag_limit_is_exact(p):
    for q in range(p):
        lim = oracle.limit_for_orders(p, q)
        top = oracle.exact_top_lag_coefficient(p, q)
        assert abs(float(lim[-1]) - top.numerator / top.denominator) <= 1e-12 * abs(float(lim[0]))


def test_oracle_limit_does_not_depend_on_roots():
    # Includes a triple root, where the package itself fails.
    for m in (corpus.TRIPLE, corpus.NEAR_PAIR, corpus.CARMA30):
        lim = oracle.limit_coefficients(m.a, m.b, m.sigma2)
        ref = oracle.limit_for_orders(m.p, m.q)
        assert oracle.gamma_error([float(x) for x in lim], ref) <= 1e-12


def test_oracle_precisions_agree():
    for m in (corpus.QUADRUPLE, corpus.NEAR_PAIR):
        for d in (1e-1, 1e-5):
            assert oracle.reference(m.a, m.b, m.sigma2, d).agreement < oracle.CERT_TOL


def test_oracle_invertibility_test():
    assert oracle.is_invertible([0.5])
    assert not oracle.is_invertible([2.0])
    assert not oracle.is_invertible([-1.0])  # unit root
    assert oracle.is_invertible([])


def _small_chain():
    wl = workloads.ArmaChain(seed=3)
    wl.build()
    wl.ops = [op for op in wl.ops if op.model.label in ("random_p2q1", "random_p3q0") and op.delta >= 1e-2]
    wl.probe = []
    wl.prepare_oracle()
    return wl


def test_correct_outputs_pass():
    wl = _small_chain()
    results = run.run_passes(wl, 0)
    metrics, detail, attempted, failed = run.end_to_end(results, [1.0], 100.0)
    assert attempted == len(wl.ops) and failed == 0
    assert detail["fail_share"] == 0.0 and metrics["ops_per_s"] > 0


def test_forced_raise_counts_as_failed(monkeypatch):
    wl = _small_chain()
    real = workloads.ArmaChain.run
    victim = wl.ops[0]

    def flaky(self, op):
        if op is victim:
            raise RuntimeError("forced")
        return real(self, op)

    monkeypatch.setattr(workloads.ArmaChain, "run", flaky)
    results = run.run_passes(wl, 0)
    metrics, detail, attempted, failed = run.end_to_end(results, [1.0], 100.0)
    assert failed == 1 and detail["wrong_share"] == 0.0
    assert detail["fail_share"] == pytest.approx(1 / attempted)


def test_perturbed_result_counts_as_wrong(monkeypatch):
    wl = _small_chain()
    real = workloads.ArmaChain.run
    victim = wl.ops[0]

    def perturbed(self, op):
        arma, gam, f = real(self, op)
        return [arma, gam, f * (1.0 + 1e-5) if op is victim else f]

    monkeypatch.setattr(workloads.ArmaChain, "run", perturbed)
    results = run.run_passes(wl, 0)
    metrics, detail, attempted, failed = run.end_to_end(results, [1.0], 100.0)
    assert failed == 1
    assert detail["wrong_share"] == pytest.approx(1 / attempted)


def test_probe_outcomes_stay_out_of_failed(monkeypatch):
    wl = _small_chain()
    wl.probe = [wl.ops[0], wl.ops[1]]
    real = workloads.ArmaChain.run

    def flaky(self, op):
        if op is wl.probe[0]:
            raise RuntimeError("forced")
        return real(self, op)

    monkeypatch.setattr(workloads.ArmaChain, "run", flaky)
    counts = run.run_probe(wl)
    assert counts == {"probe_cases": 2, "probe_ok": 1, "probe_raised": 1, "probe_wrong": 0}


def test_corpus_keeps_failing_cases_and_times_every_order():
    orders = {(p, q) for p in range(1, 6) for q in range(p)}
    for seed in (1, 2):
        cases = corpus.arma_chain(seed)
        assert {(m.p, m.q) for m, _ in cases if m.label.startswith("random")} == orders
        for m in (corpus.TRIPLE, corpus.QUADRUPLE):
            assert [d for n, d in cases if n is m] == list(corpus.ARMA_DELTAS)
    timed = corpus.timed_cases()
    assert timed == corpus.timed_cases()
    assert {(m.p, m.q) for m, _ in timed if m.label.startswith("random")} == orders
    assert not {m for m, _ in timed} & {corpus.TRIPLE, corpus.QUADRUPLE}


@pytest.mark.parametrize("traced", [False, True])
def test_clear_caches_empties_every_cache(traced):
    import importlib

    import tracing
    from carmahf import core, sampling

    tracer = tracing.Tracer(track_peaks=False)
    if traced:
        tracer.install()
    try:
        m = core.CarmaModel([3.0, 2.0], [1.5, 1.0])
        sampling.spectral_density_filtered(m, 0.1, [0.0, 1.0])
        tracing.clear_caches(tracer if traced else None)
        caches = [
            target
            for short in tracing.MODULES
            for obj in vars(importlib.import_module(f"carmahf.{short}")).values()
            for target in (obj, getattr(obj, "__wrapped__", None))
            if hasattr(target, "cache_info")
        ]
        assert caches and all(c.cache_info().currsize == 0 for c in caches)
    finally:
        if traced:
            tracer.uninstall()


def test_short_spectrum_counts_as_wrong():
    ref = [1.0, 2.0, 3.0]
    assert oracle.spectrum_error([1.0, 2.0, 3.0], ref) == 0.0
    assert oracle.spectrum_error([1.0, 2.0], ref) == float("inf")
    assert oracle.spectrum_error([], ref) == float("inf")


def test_traced_run_alternates_and_counts_per_pass():
    import tracing

    wl = _small_chain()
    wl.tracer = tracing.Tracer(track_peaks=False)
    results, n_traced = run.run_traced(wl, 0)
    assert n_traced == 1 and [r[4] for r in results[:4]] == [False, True, True, False]
    assert [r[0] for r in results[::2]] == [r[0] for r in results[1::2]]
    assert not wl.tracing and not wl.tracer._originals
    metrics = run.per_layer(results, wl.tracer, n_traced)
    assert set(metrics) == set(run.PER_LAYER)
    # One sampled_arma per op finds the AR roots once.
    assert metrics["poly.find_roots.calls"] >= len(wl.ops)
    assert metrics["trace.overhead_ratio"] > 0


def _mem_total_mb() -> float:
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no MemTotal")


@pytest.mark.parametrize("name", run.NAMES)
def test_run_has_no_failed_op_and_rss_well_under_memory(name):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", "5", "--seconds", "0"]
    proc = subprocess.run(cmd, cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["peak_rss_mb"]["value"] < 0.5 * _mem_total_mb()
