"""Batch command-line interface.

Loads a JSON model specification, runs a computation, and emits a
machine-readable CSV or JSON document.  Exit codes: 0 success, 1 I/O error,
2 model validation error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
import warnings
from datetime import datetime, timezone

import numpy as np

# asymptotics and simulate are imported inside the commands that use them, so a
# cold call does not pay to load modules its subcommand never runs.
from . import __version__, core, factorization, sampling
from .core import CarmaModel, ModelError
from .factorization import FactorizationError

EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

_MODEL_KEYS = {"a", "b", "sigma2", "label"}


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def load_model(path: str) -> CarmaModel:
    with open(path) as fh:
        doc = json.load(fh, parse_int=float)
    if not isinstance(doc, dict):
        raise CliError(EXIT_VALIDATION, "model file must contain a JSON object")
    unknown = set(doc) - _MODEL_KEYS
    if unknown:
        raise CliError(EXIT_VALIDATION, f"unknown model keys: {sorted(unknown)}")
    missing = {"a", "b", "sigma2"} - set(doc)
    if missing:
        raise CliError(EXIT_VALIDATION, f"missing model keys: {sorted(missing)}")
    # every JSON number, and nothing else, reads as a float (too large an integer as inf)
    for key in ("a", "b"):
        if not (isinstance(doc[key], list) and all(isinstance(x, float) for x in doc[key])):
            raise CliError(EXIT_VALIDATION, f"invalid model: {key} must be a JSON array of numbers, got {doc[key]!r}")
    if not isinstance(doc["sigma2"], float):
        raise CliError(EXIT_VALIDATION, f"invalid model: sigma2 must be a JSON number, got {doc['sigma2']!r}")
    if not isinstance(doc.get("label", ""), str):
        raise CliError(EXIT_VALIDATION, f"invalid model: label must be a JSON string, got {doc['label']!r}")
    model = CarmaModel(doc["a"], doc["b"], doc["sigma2"], doc.get("label"))
    core.validate(model)
    return model


def _require(ok: bool, message: str) -> None:
    """Reject a bad numeric argument with a one-line validation error."""
    if not ok:
        raise CliError(EXIT_VALIDATION, message)


def _require_finite(values, what: str, delta: float) -> None:
    """Refuse to emit a computed value that overflowed to inf or NaN."""
    if not np.all(np.isfinite(values)):
        raise CliError(EXIT_NUMERIC, f"{what} is not finite at delta = {delta!r}")


def _model_echo(model: CarmaModel) -> dict:
    echo = {"a": list(model.a), "b": list(model.b), "sigma2": model.sigma2}
    if model.label is not None:
        echo["label"] = model.label
    return echo


def _emit(args, meta: dict, columns: list, rows: list) -> None:
    meta["version"] = __version__
    if not args.no_timestamp:
        meta["timestamp"] = datetime.now(timezone.utc).isoformat()
    try:
        with contextlib.nullcontext(sys.stdout) if args.output == "-" else open(args.output, "w", newline="") as out:
            if args.format == "json":
                json.dump({"meta": meta, "columns": columns, "rows": rows}, out, indent=2)
                out.write("\n")
            else:
                # CSV dialect: '.' decimal separator, headers in row 1, metadata
                # as leading comment lines.
                for key, val in meta.items():
                    out.write(f"# {key}: {json.dumps(val)}\n")
                csv.writer(out).writerows([columns, *rows])
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot write output: {exc}")


def cmd_acvf(args, model: CarmaModel) -> tuple:
    _require(args.lags >= 0, "--lags must be >= 0")
    if args.mode == "exact":
        vals = sampling.acvf_filtered_sequence(model, args.delta, args.lags).values
    else:
        from . import asymptotics

        vals = [asymptotics.gamma_ma_asymptotic(model, args.delta, lag) for lag in range(args.lags + 1)]
    _require_finite(vals, "the autocovariance", args.delta)
    rows = [[lag, repr(float(val)), args.mode] for lag, val in enumerate(vals)]
    return {"delta": args.delta, "mode": args.mode}, ["lag", "gamma", "mode"], rows


def _auto_omega_max(model: CarmaModel) -> float:
    d = model.p - model.q
    g0 = core.acvf_continuous(model, 0.0)
    omega = 10.0 * (1.0 + max(map(abs, model.roots)))
    while omega < 1e6:
        tail = 4.0 * core.spectral_density_continuous(model, omega) * omega / (2 * d - 1)
        if tail < 1e-6 * g0:
            break
        omega *= 2.0
    return omega


def cmd_spectrum(args, model: CarmaModel) -> tuple:
    _require(args.grid_points >= 2, "--grid-points must be >= 2")
    if args.which == "continuous":
        omax = _auto_omega_max(model)
        grid = np.linspace(-omax, omax, args.grid_points)
        vals = core.spectral_density_continuous(model, grid)
    else:
        grid = np.linspace(-np.pi, np.pi, args.grid_points)
        if args.which == "sampled":
            vals = sampling.spectral_density_sampled(model, args.delta, grid)
        elif args.which == "filtered":
            vals = sampling.spectral_density_filtered(model, args.delta, grid)
        else:
            from . import asymptotics

            vals = asymptotics.f_ma_asymptotic(model, args.delta, grid)
    _require_finite(vals, "the spectral density", args.delta)
    rows = [[repr(float(w)), repr(float(f))] for w, f in zip(grid, vals)]
    return {"delta": args.delta, "which": args.which}, ["omega", "f"], rows


def cmd_sampled_arma(args, model: CarmaModel) -> tuple:
    arma = factorization.sampled_arma(model, args.delta)
    residual = factorization.reconstruction_residual(arma)
    rows = [["phi", k, repr(float(c))] for k, c in enumerate(arma.phi)]
    rows += [["theta", k, repr(float(c))] for k, c in enumerate(arma.theta, start=1)]
    rows += [["tau2", "", repr(float(arma.tau2))], ["reconstruction_residual", "", repr(residual)]]
    return {"delta": args.delta}, ["quantity", "index", "value"], rows


def _validate_one_delta(model: CarmaModel, delta: float) -> tuple:
    """Exact-vs-asymptotic ratio checks for one grid size, and the exact gamma_MA."""
    from . import asymptotics

    omegas = {"pi/4": np.pi / 4, "pi/2": np.pi / 2, "pi": np.pi}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sampling.CoarseSamplingWarning)
        gamma = sampling.acvf_filtered_sequence(model, delta).values
        f_ma = sampling.spectral_density_filtered(model, delta, list(omegas.values()))
    f_ma_asym = asymptotics.f_ma_asymptotic(model, delta, list(omegas.values()))
    checks = [(f"acvf_ratio_lag{n}", g, asymptotics.gamma_ma_asymptotic(model, delta, n)) for n, g in enumerate(gamma)]
    checks += [(f"spectrum_ratio_{name}", f, a) for name, f, a in zip(omegas, f_ma, f_ma_asym)]
    regime = sampling.coarseness(model, delta) <= 1.0
    rows = []
    for name, exact, asym in checks:
        ratio = exact / asym
        status = "PASS" if abs(ratio - 1.0) <= 0.05 else ("FAIL" if regime else "WARN")
        rows.append([name, delta, repr(float(ratio)), "|ratio-1| <= 0.05", status])
    return rows, gamma


def cmd_validate(args, model: CarmaModel) -> tuple:
    from . import simulate

    deltas = sorted(args.delta_sweep, reverse=True)
    _require(args.seed >= 0, "--seed must be >= 0")
    min_length = simulate.MIN_LENGTH_PER_ORDER * model.p
    _require(args.length >= min_length, f"--length must be >= {min_length} for a p = {model.p} model")
    sweep = [_validate_one_delta(model, d) for d in deltas]
    rows = [row for checks, _ in sweep for row in checks]

    # Monte Carlo on one path (the first child seed) vs the sweep's exact gamma_MA at the largest delta.
    d0, exact = deltas[0], sweep[0][1]
    res = simulate.simulate_gaussian_exact(model, d0, args.length, simulate.spawn_seeds(args.seed, 1)[0])
    emp = simulate.empirical_filtered_acvf(res, lags=model.p - 1)
    for lag in range(model.p):
        dev = abs(emp.values[lag] - exact[lag]) / emp.stderr[lag]
        status = "PASS" if dev <= 4.0 else "FAIL"
        rows.append([f"mc_acvf_lag{lag}", d0, repr(float(dev)), "<= 4 SE", status])

    rows.sort(key=lambda r: (float(r[1]), r[0]))
    meta = {"delta_sweep": deltas, "seed": args.seed, "length": args.length}
    return meta, ["check", "delta", "measured", "tolerance", "status"], rows


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="carmahf", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("model", help="JSON model specification file")
        sp.add_argument("--format", choices=["csv", "json"], default="csv")
        sp.add_argument("--output", default="-", help="output file, '-' for stdout")
        sp.add_argument("--no-timestamp", action="store_true")

    sp = sub.add_parser("acvf", help="filtered-sequence autocovariances")
    common(sp)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--lags", type=int, default=0, help="maximum lag")
    sp.add_argument("--mode", choices=["exact", "asymptotic"], default="exact")
    sp.set_defaults(func=cmd_acvf)

    sp = sub.add_parser("spectrum", help="spectral densities on a uniform grid")
    common(sp)
    sp.add_argument("--delta", type=float, default=0.1)
    sp.add_argument("--which", choices=["continuous", "sampled", "filtered", "asymptotic"], required=True)
    sp.add_argument("--grid-points", type=int, default=1001)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("sampled-arma", help="ARMA representation of the sampled process")
    common(sp)
    sp.add_argument("--delta", type=float, required=True)
    sp.set_defaults(func=cmd_sampled_arma)

    sp = sub.add_parser("validate", help="exact/asymptotic/Monte Carlo cross-checks")
    common(sp)
    sp.add_argument("--delta-sweep", type=float, nargs="+", default=[0.01, 0.005, 0.0025, 0.00125], metavar="DELTA",
                    help="grid sizes to check; the Monte Carlo runs at the largest")
    sp.add_argument("--seed", type=int, default=20260824)
    sp.add_argument("--length", type=int, default=100000)
    sp.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    """Load the model, check each delta, run one ``cmd_*`` for its rows, emit; map typed errors to exit codes."""
    args = build_parser().parse_args(argv)
    # _require_finite turns every non-finite result into exit 3, so numpy's
    # float warnings are noise; the others print one line each once the rows are written.
    try:
        with warnings.catch_warnings(record=True) as caught, np.errstate(all="ignore"):
            model = load_model(args.model)
            flag, deltas = ("--delta-sweep", args.delta_sweep) if "delta_sweep" in args else ("--delta", [args.delta])
            _require(all(0 < d < np.inf for d in deltas), f"{flag} must be finite and > 0")
            meta, columns, rows = args.func(args, model)
            _emit(args, {"model": _model_echo(model), **meta}, columns, rows)
    except CliError as exc:
        code, message = exc.code, str(exc)
    except OSError as exc:  # _emit maps its own, so this is load_model's read
        code, message = EXIT_IO, f"cannot read model file {args.model}: {exc}"
    except json.JSONDecodeError as exc:
        code, message = EXIT_IO, f"model file {args.model} is not valid JSON: {exc}"
    except ModelError as exc:
        code, message = EXIT_VALIDATION, f"invalid model ({exc.reason}): {exc}"
    except FactorizationError as exc:
        code, message = EXIT_NUMERIC, f"factorization failed ({exc.reason}): {exc}"
    except np.linalg.LinAlgError as exc:  # a covariance that is not numerically positive definite
        code, message = EXIT_NUMERIC, f"linear algebra failed: {exc}"
    else:
        for w in caught:
            print(f"carmahf: warning: {w.message}", file=sys.stderr)
        failed = columns[-1] == "status" and any(r[-1] == "FAIL" for r in rows)  # a failed validate check
        return EXIT_NUMERIC if failed else 0
    print(f"carmahf: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
