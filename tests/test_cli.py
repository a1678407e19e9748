import csv
import json
import os
import subprocess
import sys
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from carmahf import cli, core

from conftest import FOURFOLD_PAIR_A, child_env


def write_model(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def model_file(tmp_path):
    return write_model(tmp_path, {"a": [3.0, 2.0], "b": [1.5, 1.0], "sigma2": 1.0, "label": "demo"})


MODELS = Path(__file__).resolve().parents[1] / "demos" / "models"


def run_cli(args):
    return cli.main(args)


def parse_csv(text):
    meta = {}
    data_lines = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition(": ")
            meta[key] = json.loads(val)
        elif line.strip():
            data_lines.append(line)
    rows = list(csv.reader(data_lines))
    return meta, rows[0], rows[1:]


class TestModelLoading:
    def test_missing_file(self, tmp_path, capsys):
        assert run_cli(["acvf", str(tmp_path / "nope.json"), "--delta", "0.1"]) == cli.EXIT_IO
        assert "cannot read" in capsys.readouterr().err

    def test_bad_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run_cli(["acvf", str(path), "--delta", "0.1"]) == cli.EXIT_IO

    def test_unknown_key(self, tmp_path, capsys):
        path = write_model(tmp_path, {"a": [1.0], "b": [1.0], "sigma2": 1.0, "extra": 1})
        assert run_cli(["acvf", path, "--delta", "0.1"]) == cli.EXIT_VALIDATION
        assert "unknown model keys" in capsys.readouterr().err

    def test_non_object_model(self, tmp_path, capsys):
        path = write_model(tmp_path, [[1.0], [1.0], 1.0])
        assert run_cli(["acvf", path, "--delta", "0.1"]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == "carmahf: model file must contain a JSON object\n"

    def test_missing_key(self, tmp_path):
        path = write_model(tmp_path, {"a": [1.0], "sigma2": 1.0})
        assert run_cli(["acvf", path, "--delta", "0.1"]) == cli.EXIT_VALIDATION

    def test_invalid_model(self, tmp_path, capsys):
        path = write_model(tmp_path, {"a": [-1.0], "b": [1.0], "sigma2": 1.0})
        assert run_cli(["acvf", path, "--delta", "0.1"]) == cli.EXIT_VALIDATION
        assert "unstable_ar" in capsys.readouterr().err
        # only JSON arrays of numbers and a JSON number: a string is not read per
        # character, nor true as 1.0
        for doc, key in [
            ({"a": "32", "b": [1.0], "sigma2": 1.0}, "a"),
            ({"a": [3.0, 2.0], "b": "1", "sigma2": 1.0}, "b"),
            ({"a": [3.0, 2.0], "b": [1.0], "sigma2": True}, "sigma2"),
            ({"a": [3.0, 2.0], "b": [1.0], "sigma2": "1e0"}, "sigma2"),
            ({"a": [3.0, True], "b": [1.0], "sigma2": 1.0}, "a"),
            ({"a": [3.0, 2.0], "b": [None], "sigma2": 1.0}, "b"),
            ({"a": "32", "b": "1", "sigma2": True}, "a"),
        ]:
            path = write_model(tmp_path, doc)
            assert run_cli(["sampled-arma", path, "--delta", "0.1"]) == cli.EXIT_VALIDATION
            err = capsys.readouterr().err
            assert err.startswith(f"carmahf: invalid model: {key} must be a JSON ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "doc",
        [
            {"a": [float("nan")], "b": [1.0], "sigma2": 1.0},
            {"a": [1.0], "b": [1.0], "sigma2": float("inf")},
            {"a": [3.0, float("-inf")], "b": [1.0], "sigma2": 1.0},
        ],
        ids=["nan-coefficient", "infinite-sigma2", "infinite-coefficient"],
    )
    def test_non_finite_model(self, tmp_path, capsys, doc):
        # Python's json reads the NaN and Infinity literals that json.dumps writes
        path = write_model(tmp_path, doc)
        assert "NaN" in Path(path).read_text() or "Infinity" in Path(path).read_text()
        assert run_cli(["acvf", path, "--delta", "0.1"]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("carmahf: invalid model (non_finite)") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("label", [5, [1, 2], {"x": [1, 2]}], ids=["number", "list", "object"])
    def test_non_string_label(self, tmp_path, capsys, label):
        # read as is, a label would come back rewritten: integers as floats
        path = write_model(tmp_path, {"a": [3.0, 2.0], "b": [1.0], "sigma2": 1.0, "label": label})
        assert run_cli(["acvf", path, "--delta", "0.1"]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("carmahf: invalid model: label must be a JSON string")
        assert len(captured.err.splitlines()) == 1

    def test_non_coprime_rejected(self, tmp_path, capsys):
        path = write_model(tmp_path, {"a": [3.0, 2.0], "b": [1.0, 1.0], "sigma2": 1.0})
        assert run_cli(["acvf", path, "--delta", "0.1"]) == cli.EXIT_VALIDATION
        assert "common_zeros" in capsys.readouterr().err


class TestAcvf:
    def test_csv_output(self, model_file, capsys):
        assert run_cli(["acvf", model_file, "--delta", "0.01", "--lags", "1", "--no-timestamp"]) == 0
        meta, header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["lag", "gamma", "mode"]
        assert meta["model"]["label"] == "demo"
        assert "timestamp" not in meta
        assert len(rows) == 2
        import carmahf as chf

        m = chf.CarmaModel([3.0, 2.0], [1.5, 1.0], 1.0)
        assert float(rows[0][1]) == pytest.approx(chf.acvf_filtered_sequence(m, 0.01).values[0], rel=1e-12)

    def test_version_and_timestamp_meta(self, model_file, capsys):
        assert run_cli(["acvf", model_file, "--delta", "0.01"]) == 0
        meta, _, _ = parse_csv(capsys.readouterr().out)
        assert list(meta) == ["model", "delta", "mode", "version", "timestamp"]
        assert meta["version"] == cli.__version__
        assert datetime.fromisoformat(meta["timestamp"]).tzinfo is not None

    def test_json_output(self, model_file, capsys):
        assert run_cli(
            ["acvf", model_file, "--delta", "0.01", "--format", "json", "--no-timestamp"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["columns"] == ["lag", "gamma", "mode"]
        assert doc["meta"]["delta"] == 0.01

    def test_output_file(self, model_file, tmp_path):
        out = tmp_path / "acvf.csv"
        assert run_cli(
            ["acvf", model_file, "--delta", "0.01", "--output", str(out), "--no-timestamp"]
        ) == 0
        meta, header, rows = parse_csv(out.read_text())
        assert header == ["lag", "gamma", "mode"]

    def test_asymptotic_mode(self, model_file, capsys):
        assert run_cli(
            ["acvf", model_file, "--delta", "0.001", "--mode", "asymptotic", "--no-timestamp"]
        ) == 0
        _, _, rows = parse_csv(capsys.readouterr().out)
        assert rows[0][2] == "asymptotic"


class TestSpectrum:
    @pytest.mark.parametrize("which", ["continuous", "sampled", "filtered"])
    def test_variants(self, model_file, capsys, which):
        assert run_cli(
            ["spectrum", model_file, "--which", which, "--delta", "0.05",
             "--grid-points", "11", "--no-timestamp"]
        ) == 0
        _, header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["omega", "f"]
        assert len(rows) == 11
        assert all(np.isfinite(float(r[1])) for r in rows)

    def test_asymptotic_origin_row(self, capsys):
        # omega = 0 reads the limit value: 0.0 under the (1 - B)^q factor of q >= 1, positive for q = 0
        origin = {}
        for name in ("carma21", "carma20"):
            assert run_cli(
                ["spectrum", str(MODELS / f"{name}.json"), "--which", "asymptotic", "--delta", "0.01",
                 "--grid-points", "11", "--no-timestamp"]
            ) == 0
            _, _, rows = parse_csv(capsys.readouterr().out)
            by_omega = {float(r[0]): float(r[1]) for r in rows}
            assert all(np.isfinite(v) and v > 0.0 for w, v in by_omega.items() if w != 0.0)
            origin[name] = by_omega[0.0]
        assert origin["carma21"] == 0.0
        assert origin["carma20"] > 0.0

    def test_no_window_option(self, model_file):
        # the continuous window is the Nyquist band of --delta
        with pytest.raises(SystemExit) as exc:
            run_cli(["spectrum", model_file, "--which", "continuous", "--omega-max", "5"])
        assert exc.value.code == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("args, delta", [([], 0.1), (["--delta", "0.02"], 0.02)], ids=["default", "0.02"])
    def test_continuous_window_is_the_nyquist_band(self, model_file, capsys, args, delta):
        assert run_cli(["spectrum", model_file, "--which", "continuous", *args, "--no-timestamp"]) == 0
        _, _, rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 1001
        assert -float(rows[0][0]) == float(rows[-1][0]) == np.pi / delta

    @pytest.mark.parametrize("name", ["car1", "carma20", "carma21", "carma30"])
    def test_continuous_window_shows_the_spectrum(self, capsys, name):
        # at least a tenth of the points lie where f_Y is above 1% of f_Y(0)
        path = str(MODELS / f"{name}.json")
        assert run_cli(["spectrum", path, "--which", "continuous", "--no-timestamp"]) == 0
        _, _, rows = parse_csv(capsys.readouterr().out)
        f0 = core.spectral_density_continuous(cli.load_model(path), 0.0)
        assert np.mean([float(f) >= 1e-2 * f0 for _, f in rows]) >= 0.1

    def test_bad_grid(self, model_file):
        assert run_cli(
            ["spectrum", model_file, "--which", "continuous", "--grid-points", "1"]
        ) == cli.EXIT_VALIDATION


class TestSampledArma:
    def test_small_delta_csv(self, model_file, capsys):
        assert run_cli(["sampled-arma", model_file, "--delta", "0.001", "--no-timestamp"]) == 0
        _, header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["quantity", "index", "value"]
        vals = {(r[0], r[1]): r[2] for r in rows}
        assert float(vals[("phi", "0")]) == 1.0
        # d = p - q = 1 here: theta_1 -> -1 and tau2 -> sigma2 * delta
        assert float(vals[("theta", "1")]) == pytest.approx(-1.0, abs=0.01)
        assert float(vals[("tau2", "")]) == pytest.approx(0.001, rel=0.01)
        assert float(vals[("reconstruction_residual", "")]) < 1e-9

    def test_boundary_warning(self, tmp_path):
        # p5q4 (AR roots -1..-5, MA zeros -1.5..-4.5) at delta = 1e-3: theta's zeros near z = 1
        # are not resolved, so the rows come with the boundary warning
        path = write_model(tmp_path, {"a": [15.0, 85.0, 225.0, 274.0, 120.0],
                                      "b": [59.0625, 93.0, 51.5, 12.0, 1.0], "sigma2": 1.0})
        proc = subprocess.run(
            [sys.executable, "-m", "carmahf.cli", "sampled-arma", path, "--delta", "0.001", "--no-timestamp"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("carmahf: warning: unit-circle spectral roots") and "boundary" in proc.stderr


CARMA30 = str(MODELS / "carma30.json")


@pytest.mark.parametrize(
    "args",
    [
        ["sampled-arma", CARMA30, "--delta", "1e200"],
        ["acvf", CARMA30, "--delta", "1e200", "--lags", "2"],
        ["spectrum", CARMA30, "--delta", "1e200", "--which", "sampled", "--grid-points", "5"],
        ["spectrum", CARMA30, "--delta", "1e200", "--which", "filtered", "--grid-points", "5"],
        ["acvf", CARMA30, "--delta", "1e100", "--mode", "asymptotic"],
        ["spectrum", CARMA30, "--delta", "1e200", "--which", "asymptotic", "--grid-points", "5"],
        ["spectrum", CARMA30, "--delta", "5e-324", "--which", "continuous", "--grid-points", "5"],  # pi / delta
    ],
    ids=["sampled-arma", "acvf", "spectrum-sampled", "spectrum-filtered", "acvf-asymptotic", "spectrum-asymptotic",
         "spectrum-continuous"],
)
def test_overflowing_delta_is_a_numeric_failure(args, capsys):
    assert run_cli(args) == cli.EXIT_NUMERIC
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("carmahf: ") and "not finite" in err


@pytest.mark.parametrize(
    "args, code, prefix",
    [
        (["acvf", CARMA30, "--delta", "1e200", "--lags", "2"], cli.EXIT_NUMERIC,
         "carmahf: the autocovariance is not finite"),
        (["acvf", CARMA30, "--delta", "5", "--lags", "2"], 0, "carmahf: warning: delta=5.0 is coarse"),
        # carma30 fails its ratio checks; the Monte Carlo at delta = 0.5 still reports its warning
        (["validate", CARMA30, "--delta-sweep", "0.5", "0.01", "--length", "2000"], cli.EXIT_NUMERIC,
         "carmahf: warning: delta=0.5 is coarse"),
    ],
    ids=["overflow", "coarse", "validate-fail"],
)
def test_stderr_is_one_line(args, code, prefix):
    # A child process, because in process pytest captures the warnings that used to reach stderr.
    proc = subprocess.run(
        [sys.executable, "-m", "carmahf.cli", *args, "--no-timestamp"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == code
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(prefix)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_write_closes_the_output_file():
    # enough rows that writes fail before the close; -X dev reports an unclosed file
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "carmahf.cli", "spectrum", CARMA30, "--which", "sampled",
         "--grid-points", "200001", "--output", "/dev/full"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == cli.EXIT_IO
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("carmahf: cannot write output")
    assert "ResourceWarning" not in proc.stderr


def test_coarse_delta_theta_is_finite(capsys):
    # at delta = 400 the root w of S is about -1e174, and (w - 2)(w + 2) overflows
    assert run_cli(["sampled-arma", str(MODELS / "carma20.json"), "--delta", "400", "--no-timestamp"]) == 0
    _, _, rows = parse_csv(capsys.readouterr().out)
    assert [r[0] for r in rows] == ["phi", "phi", "phi", "theta", "tau2", "reconstruction_residual"]
    assert np.isfinite([float(r[2]) for r in rows]).all()


def test_coarse_delta_is_exact(capsys):
    # gamma_MA(0) -> gamma_Y(0) = 1/120 once the samples decorrelate
    assert run_cli(["acvf", CARMA30, "--delta", "50", "--no-timestamp"]) == 0
    _, _, rows = parse_csv(capsys.readouterr().out)
    assert float(rows[0][1]) == pytest.approx(1 / 120, abs=1e-9)


class TestValidate:
    def test_sweep_parsing_error(self, model_file, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["validate", model_file, "--delta-sweep", "0.01", "bogus"])
        assert exc.value.code == cli.EXIT_VALIDATION
        assert "error: argument --delta-sweep: invalid float value: 'bogus'" in capsys.readouterr().err

    def test_full_run_passes(self, model_file, capsys):
        assert run_cli(
            ["validate", model_file, "--delta-sweep", "0.004", "0.002", "0.001",
             "--length", "120000", "--seed", "42", "--no-timestamp"]
        ) == 0
        _, header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["check", "delta", "measured", "tolerance", "status"]
        assert all(r[4] in ("PASS", "WARN") for r in rows)
        assert any(r[0].startswith("mc_acvf") for r in rows)

    def test_fourfold_pair_writes_every_monte_carlo_row(self, tmp_path, capsys):
        # the fourfold pair's correctly rounded Sigma fails plain Cholesky; the
        # simulator draws from its exact factor, so no linear algebra fails.  At
        # Delta = 0.01, gamma_MA(0) / gamma_Y(0) = 9.2e-45 is below a float path's
        # rounding, so a FAIL row, and with it exit 3, is the judge's verdict
        path = write_model(tmp_path, {"a": FOURFOLD_PAIR_A.tolist(), "b": [1.0], "sigma2": 1.0})
        code = run_cli(["validate", path, "--delta-sweep", "0.01", "--length", "800", "--no-timestamp"])
        out, err = capsys.readouterr()
        assert "linear algebra failed" not in err
        _, _, rows = parse_csv(out)
        assert [r[0] for r in rows if r[0].startswith("mc_")] == [f"mc_acvf_lag{k}" for k in range(8)]
        assert code == (cli.EXIT_NUMERIC if any(r[4] == "FAIL" for r in rows) else 0)

    def test_oscillatory_model_is_coarse_past_nyquist(self, tmp_path, capsys):
        # roots -1 and -0.1 +- 100i: Delta |lambda| = 10 and 1.00005 at Delta = 0.1
        # and 0.01, so those ratio rows are WARN; Delta * max|Re lambda| read 0.1 and FAIL
        path = write_model(tmp_path, {"a": [1.2, 10000.21, 10000.01], "b": [1.0], "sigma2": 1.0})
        assert run_cli(["validate", path, "--delta-sweep", "0.1", "0.01", "0.001", "--no-timestamp"]) == 0
        out = capsys.readouterr().out
        _, _, rows = parse_csv(out)
        # the rows carry the values typed, and the Monte Carlo runs at the largest
        assert {r[1] for r in rows} == {"0.1", "0.01", "0.001"}
        assert {r[1] for r in rows if r[0].startswith("mc_")} == {"0.1"}
        ratio_rows = [(float(r[1]), r[4]) for r in rows if not r[0].startswith("mc_")]
        assert [s for d, s in ratio_rows if d > 0.005] == ["WARN"] * 12
        assert {s for d, s in ratio_rows if d < 0.005} == {"PASS"}
        assert {r[4] for r in rows if r[0].startswith("mc_")} == {"PASS"}
        # the order typed does not matter
        assert run_cli(["validate", path, "--delta-sweep", "0.001", "0.1", "0.01", "--no-timestamp"]) == 0
        assert capsys.readouterr().out == out


@pytest.mark.parametrize(
    "args, message",
    [
        (["acvf", "--delta", "0"], "--delta must be finite and > 0"),
        (["acvf", "--delta", "inf"], "--delta must be finite and > 0"),
        (["acvf", "--delta", "0.01", "--lags", "-1"], "--lags must be >= 0"),
        (["spectrum", "--which", "filtered", "--delta", "-0.1"], "--delta must be finite and > 0"),
        (["spectrum", "--which", "sampled", "--delta", "nan"], "--delta must be finite and > 0"),
        (["sampled-arma", "--delta", "0"], "--delta must be finite and > 0"),
        (["validate", "--length", "0"], "--length must be >= 200"),
        (["validate", "--length", "50"], "--length must be >= 200"),
        (["validate", "--seed", "-1"], "--seed must be >= 0"),
        (["validate", "--delta-sweep", "0.01", "0"], "--delta-sweep must be finite and > 0"),
        (["validate", "--delta-sweep", "inf", "0.001"], "--delta-sweep must be finite and > 0"),
        (["validate", "--delta-sweep", "0.01", "nan", "0.001"], "--delta-sweep must be finite and > 0"),
    ],
    ids=[
        "acvf-delta-0", "acvf-delta-inf", "acvf-lags", "spectrum-delta-neg", "spectrum-delta-nan",
        "sampled-arma-delta", "length-0", "length-50", "seed-neg", "sweep-0", "sweep-inf", "sweep-nan",
    ],
)
def test_bad_numeric_argument_rejected(model_file, capsys, args, message):
    assert run_cli([args[0], model_file, *args[1:]]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("carmahf: ") and message in err
    assert len(err.strip().splitlines()) == 1


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr[-2000:]


class TestEntryPoint:
    def test_console_script(self, model_file):
        proc = subprocess.run(
            [sys.executable, "-m", "carmahf.cli", "acvf", model_file, "--delta", "0.01",
             "--no-timestamp"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert "lag,gamma,mode" in proc.stdout

    def test_import_skips_unused_scipy_subpackages(self, model_file):
        # No scipy module is loaded, neither by the import nor by validate,
        # which also runs the simulator; nor is numpy.polynomial, unless
        # numpy's own import loads it (numpy < 2 does), nor fractions or
        # decimal: the asymptotic coefficients are divided as integers.
        # asymptotics and simulate are loaded by the first subcommand that
        # runs them.
        runs = [
            ["acvf", model_file, "--delta", "0.01", "--lags", "2"],
            ["sampled-arma", model_file, "--delta", "0.01"],
            ["spectrum", model_file, "--which", "filtered", "--grid-points", "5"],
            ["acvf", model_file, "--delta", "0.01", "--lags", "1", "--mode", "asymptotic"],
            ["validate", model_file, "--delta-sweep", "0.004", "0.002", "0.001", "--length", "120000", "--seed", "42"],
        ]
        code = (
            "import sys, numpy\n"
            "eager = {'numpy.polynomial'} & set(sys.modules)\n"
            "import carmahf, carmahf.cli\n"
            "def loaded(): return sorted(m for m in sys.modules\n"
            "    if m.split('.')[0] == 'scipy' or m == 'numpy.polynomial' and not eager\n"
            "    or m in ('carmahf.asymptotics', 'carmahf.simulate', 'fractions', 'decimal'))\n"
            "print(loaded())\n"
            f"for argv in {runs!r}:\n"
            "    print(argv[0], carmahf.cli.main([*argv, '--no-timestamp', '--output', sys.argv[1]]), loaded())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, os.devnull],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "[]",
            "acvf 0 []",
            "sampled-arma 0 []",
            "spectrum 0 []",
            "acvf 0 ['carmahf.asymptotics']",
            "validate 0 ['carmahf.asymptotics', 'carmahf.simulate']",
        ]

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
