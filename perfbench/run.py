"""Benchmark of the carmahf package: end-to-end and per-module numbers.

Run one workload (the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``):

    python3 perfbench/run.py --workload arma-chain --seed 1 --seconds 30 --trace 0

Run every workload, each in its own fresh process, and print a table:

    python3 perfbench/run.py --workload all --seed 1 --seconds 30 [--trace 1]

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the end-to-end metrics are printed, with
``--trace 1`` the per-module metrics of traced runs that alternate with
untraced ones (see :func:`run_traced`).
Every returned value is judged against the mpmath oracle in ``oracle.py``;
timed ops that raise, exit non-zero or miss the oracle are counted in
``failed``.  Each workload's probe cases, which hold the package's known
failures, run once per run after the timed ops; their outcomes are on the
line before the result and their misses on stderr.
``correct`` is true when the oracle certified every reference it produced
(two working precisions, the exact top-lag limit and the library on carma21
at delta = 0.1 agree) and every op was judged.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
NAMES = ("cli-cold", "arma-chain")
#: Set-up is timed this many times per run; setup_s is the median.
SETUP_SAMPLES = 7

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_FUNCTION_METRICS = (
    ("poly.find_roots", ("calls", "self_ms")),
    ("core.ar_roots", ("hit_ratio", "lookups")),
    ("core.matrix_exp", ("calls", "self_ms")),
    ("core.kernel_values", ("calls", "self_ms")),
    ("core.stationary_state_covariance", ("self_ms",)),
    ("sampling.filter_coefficients", ("self_ms", "errors")),
    ("sampling.acvf_filtered", ("calls", "self_ms")),
    ("sampling.spectral_density_sampled", ("self_ms", "peak_alloc_mb")),
    ("sampling.power_transfer", ("self_ms",)),
    ("factorization.spectral_factorize", ("self_ms", "errors")),
    ("asymptotics.gamma_ma_asymptotic_coefficient", ("self_ms", "hit_ratio")),
    ("asymptotics.f_ma_asymptotic", ("self_ms",)),
    ("simulate.simulate_gaussian_exact", ("self_ms",)),
    ("simulate.transition_noise_covariance", ("self_ms",)),
    ("simulate.empirical_filtered_acvf", ("self_ms",)),
)
_UNITS = {"calls": "count", "errors": "count", "lookups": "count", "self_ms": "ms", "hit_ratio": "ratio", "peak_alloc_mb": "MB"}
CLI_COMMANDS = ("acvf", "spectrum", "sampled-arma", "validate")

PER_LAYER = {"import.total_ms": "ms", "import.scipy_signal_ms": "ms"}
PER_LAYER.update({f"cli.main_ms.{c}": "ms" for c in CLI_COMMANDS})
PER_LAYER.update({f"{fn}.{k}": _UNITS[k] for fn, keys in _FUNCTION_METRICS for k in keys})
PER_LAYER["trace.overhead_ratio"] = "ratio"


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package() -> float:
    """Import carmahf from the checkout's src/ and return the seconds it took."""
    if not (SRC / "carmahf" / "__init__.py").is_file():
        die(f"no package source at {SRC / 'carmahf'}; run from a carmahf checkout")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import carmahf

    took = time.perf_counter() - t0
    if Path(carmahf.__file__).resolve().parent != (SRC / "carmahf").resolve():
        die(f"imported carmahf from {carmahf.__file__}, not from {SRC}")
    return took


def fresh_import_seconds(extra: tuple = ()) -> tuple:
    """Wall time of a fresh interpreter that imports carmahf, and its stderr."""
    from workloads import child_env

    cmd = [sys.executable, *extra, "-c", "import carmahf"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120)
    took = time.perf_counter() - t0
    if proc.returncode != 0:
        die(f"fresh import failed: {proc.stderr.strip()[-300:]}")
    return took, proc.stderr


def fresh_setup_seconds(workload: str, seed: int) -> float:
    """Set-up seconds of a fresh process (import, inputs, warm-up), measured inside it."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"]
    from workloads import child_env

    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        die(f"set-up in a fresh process failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def set_tracing(wl, on: bool) -> None:
    """Switch the workload's span tracing on or off for the ops that follow."""
    if on == wl.tracing:
        return
    wl.tracing = on
    if wl.name != "cli-cold":  # cli-cold traces inside its child processes
        (wl.tracer.install if on else wl.tracer.uninstall)()


def call(wl, op) -> tuple:
    """Run one op; returns (seconds, output, exception)."""
    import tracing

    if wl.clears_caches_per_op:
        tracing.clear_caches(wl.tracer if wl.tracing else None)
    out, exc = None, None
    t0 = time.perf_counter()
    try:
        out = wl.run(op)
    except Exception as e:  # every failure of the program is an outcome
        exc = e
    return time.perf_counter() - t0, out, exc


def verdict(wl, op, out, exc) -> tuple:
    """(outcome, note) of one op against the oracle."""
    from workloads import WRONG

    try:
        outcome = wl.classify(op, out, exc)
        note = "" if exc is None else f"{type(exc).__name__}: {getattr(exc, 'reason', exc)}"
    except Exception as e:  # unreadable output misses the oracle too
        outcome, note = WRONG, f"unjudgeable output: {type(e).__name__}: {e}"
    return outcome, note


def run_pass(wl, rng, modes=(False,)) -> list:
    """One pass over ``wl.ops`` in a random order.

    Each op runs once per entry of ``modes`` (tracing off or on), and the
    order of ``modes`` flips from one op to the next.  Ops run back to back;
    their outputs are judged after the pass.  Returns (op, latency seconds,
    outcome, note, traced) per run.
    """
    done = []
    for k, i in enumerate(rng.permutation(len(wl.ops))):
        op = wl.ops[i]
        for on in modes if k % 2 == 0 else modes[::-1]:
            set_tracing(wl, on)
            done.append((op, *call(wl, op), on))
    return [(op, lat, *verdict(wl, op, out, exc), on) for op, lat, out, exc, on in done]


def _rng(wl):
    import numpy as np

    return np.random.default_rng([wl.seed, 99])


def run_passes(wl, seconds: float, modes=(False,)) -> list:
    """Whole passes while the op time is under ``seconds`` (at least one).

    No pass starts that would, at the mean pass time so far, end more than
    half a pass beyond ``seconds``.
    """
    rng, results, total, n_pass = _rng(wl), [], 0.0, 0
    while n_pass == 0 or total + total / n_pass / 2 < seconds:
        part = run_pass(wl, rng, modes)
        total += sum(r[1] for r in part)
        results += part
        n_pass += 1
    set_tracing(wl, False)
    return results


def run_traced(wl, seconds: float) -> tuple:
    """Untraced and traced runs of the same ops; returns (results, traced passes).

    Every op runs untraced and traced back to back, with the same inputs, one
    way round and then the other from op to op, so drift in the machine's
    speed cancels in ``trace.overhead_ratio``.
    """
    results = run_passes(wl, seconds, (False, True))
    return results, sum(r[4] for r in results) // len(wl.ops)


def run_probe(wl) -> dict:
    """Run every probe case once, untimed; count the outcomes, list the misses."""
    counts = {"probe_cases": len(wl.probe), "probe_ok": 0, "probe_raised": 0, "probe_wrong": 0}
    for op in wl.probe:
        _, out, exc = call(wl, op)
        outcome, note = verdict(wl, op, out, exc)
        counts[f"probe_{outcome}"] += 1
        if outcome != "ok":
            print(f"# probe {outcome:6s}: {describe(op)} {note[:120]}", file=sys.stderr)
    return counts


def describe(op) -> str:
    m = op.model
    where = " ".join(op.args) if op.args and isinstance(op.args[0], str) else f"delta={op.delta:g}"
    return f"{op.kind} {m.label} p={m.p} q={m.q} {where}"


def report_failures(results) -> None:
    seen = {}
    for op, _, outcome, note, _ in results:
        if outcome != "ok":
            seen.setdefault((describe(op), outcome, str(note)[:120]), 0)
            seen[(describe(op), outcome, str(note)[:120])] += 1
    for (what, outcome, note), k in sorted(seen.items()):
        print(f"# {outcome:6s} x{k}: {what} {note}", file=sys.stderr)


def peak_rss_mb(wl) -> float:
    """Peak RSS of this process, or for cli-cold of its largest child so far."""
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(results, setup_samples, rss_mb: float) -> tuple:
    lat = [r[1] for r in results]
    n = len(lat)
    outcomes = [r[2] for r in results]
    failed = sum(o != "ok" for o in outcomes)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "ops_per_s": n / sum(lat),
        "peak_rss_mb": rss_mb,
    }
    detail = {
        "ops": n,
        "fail_share": failed / n,
        "wrong_share": sum(o == "wrong" for o in outcomes) / n,
        "op_p90_ms": statistics.quantiles(lat, n=10)[-1] * 1e3 if n >= 100 else None,
    }
    return metrics, detail, n, failed


def per_layer(results, tracer, n_traced: int) -> dict:
    """Per-module metrics from :func:`run_traced`.

    Calls, errors, cache lookups and self times are per traced pass.
    """
    from tracing import ChildTraces

    funcs = tracer.summary()
    out = {}
    if isinstance(tracer, ChildTraces):
        imports = tracer.imports
    else:
        imports = [
            ChildTraces.parse_importtime(fresh_import_seconds(("-X", "importtime"))[1]) for _ in range(SETUP_SAMPLES)
        ]
    out["import.total_ms"] = statistics.median(t.get("carmahf", 0) for t in imports) / 1e3
    out["import.scipy_signal_ms"] = statistics.median(t.get("scipy.signal", 0) for t in imports) / 1e3
    for c in CLI_COMMANDS:
        ms = getattr(tracer, "main_ms", {}).get(c, [])
        out[f"cli.main_ms.{c}"] = statistics.median(ms) if ms else 0.0
    for fn, keys in _FUNCTION_METRICS:
        s = funcs.get(fn, {})
        for k in keys:
            if k == "hit_ratio":
                look = s.get("cache_lookups", 0)
                val = s.get("cache_hits", 0) / look if look else 0.0
            elif k == "lookups":
                val = s.get("cache_lookups", 0) / n_traced
            elif k == "peak_alloc_mb":
                val = s.get(k, 0.0)
            else:
                val = s.get(k, 0) / n_traced
            out[f"{fn}.{k}"] = val
    traced = sum(r[1] for r in results if r[4])
    out["trace.overhead_ratio"] = traced / sum(r[1] for r in results if not r[4])
    return out


def set_up(name: str, seed: int) -> tuple:
    """Import, input generation and warm-up; returns (workload, seconds taken).

    The benchmark's own modules are imported outside the timed part.
    """
    import_s = import_package()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    workloads.quiet()
    t0 = time.perf_counter()
    wl = workloads.WORKLOADS[name](seed)
    wl.build()
    wl.warm_up()
    return wl, import_s + time.perf_counter() - t0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl, setup_own = set_up(name, seed)
    import oracle
    import tracing

    correct = True
    try:
        oracle.self_check()
        wl.prepare_oracle()
    except oracle.OracleError as exc:
        print(f"perfbench: oracle failed its self-check: {exc}", file=sys.stderr)
        correct = False

    if not trace:
        results = run_passes(wl, seconds)
        rss_mb = peak_rss_mb(wl)
        if name == "cli-cold":
            setups = [fresh_import_seconds()[0] for _ in range(SETUP_SAMPLES)]
        else:
            setups = [setup_own] + [fresh_setup_seconds(name, seed) for _ in range(SETUP_SAMPLES - 1)]
        metrics, detail, attempted, failed = end_to_end(results, setups, rss_mb)
        units = END_TO_END
    else:
        wl.tracer = tracing.ChildTraces() if name == "cli-cold" else tracing.Tracer(track_peaks=False)
        results, n_traced = run_traced(wl, seconds)
        metrics = per_layer(results, wl.tracer, n_traced)
        detail = {"ops": len(results), "traced_passes": n_traced}
        attempted, failed = len(results), sum(r[2] != "ok" for r in results)
        units = PER_LAYER
    report_failures(results)
    detail.update(run_probe(wl))
    correct = correct and oracle.certified()
    return {
        "detail": detail,
        "result": {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        },
    }


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own fresh process; print a table of every metric."""
    rows, ok = [], True
    for name in NAMES:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed with code {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            ok = False
            continue
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        rows.append((name, detail, result))
    for name, detail, result in rows:
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for key, m in result["metrics"].items():
            print(f"   {key:55s} {m['value']:>14.6g} {m['unit']}")
        for key, val in detail.items():
            if val is not None:
                unit = "share" if key.endswith("_share") else ("ms" if key.endswith("_ms") else "count")
                print(f"   {key:55s} {val:>14.6g} {unit}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.setup_only:
        print(set_up(args.workload, args.seed)[1])
        return 0
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out["detail"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
