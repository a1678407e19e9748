import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from carmahf import cli


def write_model(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def model_file(tmp_path):
    return write_model(tmp_path, {"a": [3.0, 2.0], "b": [1.5, 1.0], "sigma2": 1.0, "label": "demo"})


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

    def test_missing_key(self, tmp_path):
        path = write_model(tmp_path, {"a": [1.0], "sigma2": 1.0})
        assert run_cli(["acvf", path, "--delta", "0.1"]) == cli.EXIT_VALIDATION

    def test_invalid_model(self, tmp_path, capsys):
        path = write_model(tmp_path, {"a": [-1.0], "b": [1.0], "sigma2": 1.0})
        assert run_cli(["acvf", path, "--delta", "0.1"]) == cli.EXIT_VALIDATION
        assert "unstable_ar" in capsys.readouterr().err

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
        assert float(rows[0][1]) == pytest.approx(chf.acvf_filtered(m, 0.01, 0), rel=1e-12)

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

    def test_asymptotic_masks_origin(self, model_file, capsys):
        assert run_cli(
            ["spectrum", model_file, "--which", "asymptotic", "--delta", "0.01",
             "--grid-points", "11", "--no-timestamp"]
        ) == 0
        _, _, rows = parse_csv(capsys.readouterr().out)
        by_omega = {float(r[0]): float(r[1]) for r in rows}
        assert np.isnan(by_omega[0.0])
        finite = [v for w, v in by_omega.items() if w != 0.0]
        assert all(np.isfinite(v) for v in finite)

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


CARMA30 = str(Path(__file__).resolve().parents[1] / "demos" / "models" / "carma30.json")


@pytest.mark.parametrize(
    "args",
    [
        ["sampled-arma", CARMA30, "--delta", "1e200"],
        ["acvf", CARMA30, "--delta", "1e200", "--lags", "2"],
        ["spectrum", CARMA30, "--delta", "1e200", "--which", "sampled", "--grid-points", "5"],
        ["spectrum", CARMA30, "--delta", "1e200", "--which", "filtered", "--grid-points", "5"],
        ["acvf", CARMA30, "--delta", "1e100", "--mode", "asymptotic"],
        ["spectrum", CARMA30, "--delta", "1e200", "--which", "asymptotic", "--grid-points", "5"],
    ],
    ids=["sampled-arma", "acvf", "spectrum-sampled", "spectrum-filtered", "acvf-asymptotic", "spectrum-asymptotic"],
)
def test_overflowing_delta_is_a_numeric_failure(args, capsys):
    assert run_cli(args) == cli.EXIT_NUMERIC
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("carmahf: ") and "not finite" in err


def test_coarse_delta_is_exact(capsys):
    # gamma_MA(0) -> gamma_Y(0) = 1/120 once the samples decorrelate
    assert run_cli(["acvf", CARMA30, "--delta", "50", "--no-timestamp"]) == 0
    _, _, rows = parse_csv(capsys.readouterr().out)
    assert float(rows[0][1]) == pytest.approx(1 / 120, abs=1e-9)


class TestValidate:
    def test_sweep_parsing_error(self, model_file):
        assert run_cli(["validate", model_file, "--delta-sweep", "bogus"]) == cli.EXIT_VALIDATION
        assert run_cli(["validate", model_file, "--delta-sweep", "0.1:0.01:2"]) == cli.EXIT_VALIDATION

    def test_full_run_passes(self, model_file, capsys):
        assert run_cli(
            ["validate", model_file, "--delta-sweep", "0.004:0.001:0.5",
             "--length", "120000", "--seed", "42", "--no-timestamp"]
        ) == 0
        _, header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["check", "delta", "measured", "tolerance", "status"]
        assert all(r[4] in ("PASS", "WARN") for r in rows)
        assert any(r[0].startswith("mc_acvf") for r in rows)


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
        (["validate", "--paths", "0"], "--paths must be >= 1"),
        (["validate", "--paths", "-1"], "--paths must be >= 1"),
        (["validate", "--seed", "-1"], "--seed must be >= 0"),
        (["validate", "--delta-sweep", "0.001:0.01:0.5"], "--delta-sweep requires finite start >= stop"),
        (["validate", "--delta-sweep", "inf:0.001:0.5"], "--delta-sweep requires finite start >= stop"),
        (["validate", "--delta-sweep", "nan:0.001:0.5"], "--delta-sweep requires finite start >= stop"),
        (["spectrum", "--which", "continuous", "--omega-max", "nan"], "--omega-max must be finite and >= 0"),
        (["spectrum", "--which", "continuous", "--omega-max", "inf"], "--omega-max must be finite and >= 0"),
        (["spectrum", "--which", "continuous", "--omega-max", "-1"], "--omega-max must be finite and >= 0"),
    ],
    ids=[
        "acvf-delta-0", "acvf-delta-inf", "acvf-lags", "spectrum-delta-neg", "spectrum-delta-nan",
        "sampled-arma-delta", "length-0", "length-50", "paths-0", "paths-neg", "seed-neg",
        "sweep-rising", "sweep-inf", "sweep-nan", "omega-max-nan", "omega-max-inf", "omega-max-neg",
    ],
)
def test_bad_numeric_argument_rejected(model_file, capsys, args, message):
    assert run_cli([args[0], model_file, *args[1:]]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("carmahf: ") and message in err
    assert len(err.strip().splitlines()) == 1


def _child_env():
    """The environment of a child that imports the same package as this process,
    also when pytest put it on sys.path rather than PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr[-2000:]


class TestEntryPoint:
    def test_console_script(self, model_file):
        proc = subprocess.run(
            [sys.executable, "-m", "carmahf.cli", "acvf", model_file, "--delta", "0.01",
             "--no-timestamp"],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0
        assert "lag,gamma,mode" in proc.stdout

    def test_import_skips_unused_scipy_subpackages(self, model_file):
        # A fresh import loads no scipy module: only the simulators use scipy,
        # and they import it when they run, as validate does here.
        code = (
            "import sys, carmahf, carmahf.cli\n"
            "def loaded(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(loaded())\n"
            f"code = carmahf.cli.main(['validate', {model_file!r}, '--delta-sweep', '0.004:0.001:0.5', "
            "'--length', '120000', '--seed', '42', '--no-timestamp', '--output', sys.argv[1]])\n"
            "print(code, 'scipy.linalg' in loaded())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, os.devnull],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "0 True"]

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
