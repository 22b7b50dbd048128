import json
import math
import subprocess
import sys
import warnings

import pytest

from quasiloc import cli, many_body
from quasiloc.cli import main
from quasiloc.diophantine import GOLDEN_MEAN
from quasiloc.single_particle import ModelParams


def run_cli(args, capsys):
    status = main(args)
    out, err = capsys.readouterr()
    return status, out, err


def test_help_lists_subcommands():
    proc = subprocess.run(
        [sys.executable, "-m", "quasiloc", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("dioph", "spectrum", "lyapunov", "correlate", "density",
                 "counterterm", "scales", "chain", "decay", "scan"):
        assert name in proc.stdout


def test_dioph_json(capsys):
    status, out, _ = run_cli(
        ["dioph", "--omega", "golden", "--tau", "1.5", "--qmax", "10000"],
        capsys)
    assert status == 0
    doc = json.loads(out)
    assert doc["config"]["subcommand"] == "dioph"
    assert doc["results"]["c0_freq"] > 0.0
    assert doc["results"]["convergents"][0] == [1, 1]


def test_dioph_rejects_tau_before_scanning(capsys, monkeypatch):
    def scan(*args, **kwargs):
        raise RuntimeError("scanned before checking tau")

    monkeypatch.setattr(cli, "frequency_diophantine_constant", scan)
    monkeypatch.setattr(cli, "phase_diophantine_constant", scan)
    status, _, err = run_cli(
        ["dioph", "--tau", "0.5", "--qmax", "100000000"], capsys)
    assert status == 2
    assert "tau must exceed 1" in err


def test_spectrum_csv(capsys):
    status, out, _ = run_cli(
        ["spectrum", "--L", "8", "--eps", "0.1"], capsys)
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# config: ")
    cfg = json.loads(lines[0][len("# config: "):])
    assert cfg["parameters"]["L"] == 8
    assert lines[1] == "energy,xi,ipr"
    assert len(lines) == 2 + 9


@pytest.mark.parametrize("args", [
    # x_hat = 2 lies outside the three sites of L = 2
    ["--L", "2"],
    # sin 2 pi (omega + theta) vanishes, so mu could not sit at x_hat = 1
    ["--L", "2", "--theta", repr(-GOLDEN_MEAN)],
])
def test_spectrum_reads_no_chemical_potential(args, capsys):
    # spectrum never reads x_hat, so no value of it can reject a chain
    status, out, _ = run_cli(["spectrum", *args], capsys)
    assert status == 0
    assert len(out.strip().splitlines()) == 2 + 3


@pytest.mark.parametrize("args", [
    ["counterterm", "--L", "4", "--beta", "2", "--nu", "0.3"],
    ["chain", "--alphas", "1", "--beta", "3"],
    ["chain", "--alphas", "1", "--eps", "0.3"],
    ["chain", "--alphas", "1", "--U", "0.5"],
    ["spectrum", "--nu", "0.3"],
    ["spectrum", "--xhat", "3"],
])
def test_flags_a_subcommand_does_not_read_exit_2(args, capsys, tmp_path):
    # the subcommand does not read these flags, so setting one would change
    # nothing; argparse refuses it instead
    status, out, err = run_cli(args, capsys)
    assert status == 2 and out == ""
    assert "unrecognized arguments: " + " ".join(args[-2:]) in err
    # and a config file may not set it either
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({args[-2].lstrip("-"): float(args[-1])}))
    status, out, err = run_cli(["--config", str(cfg), *args[:-2]], capsys)
    assert status == 2 and out == "" and "unknown keys" in err


def test_correlate_rejects_zero_theta(capsys):
    status, _, err = run_cli(
        ["correlate", "--L", "8", "--theta", "0"], capsys)
    assert status == 2
    assert "non-vanishing" in err


def test_correlate_rejects_odd_L(capsys):
    status, _, err = run_cli(["correlate", "--L", "7"], capsys)
    assert status == 2


def test_correlate_output(capsys):
    status, out, _ = run_cli(
        ["correlate", "--L", "4", "--beta", "4", "--eps", "0.1",
         "--times", "0.0,1.0"], capsys)
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[1] == "x,y,t,value"
    assert len(lines) == 2 + 2 * 5 * 5


def test_decay_reports_discarded_weight(capsys):
    status, out, _ = run_cli(
        ["decay", "--L", "8", "--beta", "24", "--eps", "0.1", "--U", "0.1",
         "--window", "1:4"], capsys)
    assert status == 0
    results = json.loads(out)["results"]
    weight = results["discarded_weight"]
    # thermal slabs drop weight at this temperature, and at most 1e-16 per
    # branch and sector pair
    assert 0.0 < weight <= 2 * 2 * 9 * 1e-16
    assert results["tail_certified"] is True


def test_decay_reports_uncertified_tail(monkeypatch, capsys):
    # L = 12 keeps Lanczos blocks; with no sector under the size cap of the
    # sparse LDL^T that counts their eigenvalues, the output says so
    monkeypatch.setattr(many_body, "_COUNT_MAX", 0)
    status, out, _ = run_cli(
        ["decay", "--L", "12", "--beta", "24", "--eps", "0.1", "--U", "0.1",
         "--window", "2:8"], capsys)
    assert status == 0
    assert json.loads(out)["results"]["tail_certified"] is False


def test_density_output(capsys):
    status, out, _ = run_cli(
        ["density", "--L", "4", "--beta", "6"], capsys)
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("mean,")


def test_counterterm_single_point(capsys):
    status, out, _ = run_cli(
        ["counterterm", "--L", "6", "--beta", "6", "--eps", "0.1",
         "--U", "0.1"], capsys)
    assert status == 0
    doc = json.loads(out)
    assert isinstance(doc["results"], list)
    assert doc["results"][0]["converged"]


def test_chain_output(capsys):
    status, out, _ = run_cli(
        ["chain", "--L", "8", "--alphas", "1,1,-1", "--x1", "0",
         "--k0", "0.2"], capsys)
    assert status == 0
    doc = json.loads(out)
    assert len(doc["results"]["divisor_magnitudes"]) == 3


def test_chain_zero_divisor_is_runtime_error(capsys):
    status, _, err = run_cli(
        ["chain", "--L", "8", "--alphas", "1,1", "--x1", "0",
         "--k0", "0.0"], capsys)
    assert status == 1
    assert "zero divisor" in err


def test_lyapunov_json(capsys):
    status, out, _ = run_cli(
        ["lyapunov", "--E", "0.0", "--eps", "0.2", "--steps", "20000"],
        capsys)
    assert status == 0
    doc = json.loads(out)
    assert doc["results"]["lyapunov"] == pytest.approx(0.916, abs=0.05)


def test_output_file_and_config_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "dioph.json"
    status, _, _ = run_cli(
        ["--output", str(out_path), "dioph", "--qmax", "1000"], capsys)
    assert status == 0
    doc = json.loads(out_path.read_text())
    # the embedded config re-runs to the identical result
    params = doc["config"]["parameters"]
    status2, out2, _ = run_cli(
        ["dioph", "--omega", str(params["omega"]), "--theta",
         str(params["theta"]), "--tau", str(params["tau"]),
         "--qmax", str(params["qmax"])], capsys)
    assert status2 == 0
    assert json.loads(out2)["results"] == doc["results"]


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"qmax": 500, "tau": 2.0}))
    status, out, _ = run_cli(
        ["--config", str(cfg), "dioph", "--tau", "1.5"], capsys)
    assert status == 0
    doc = json.loads(out)
    # config supplies qmax; the explicit flag wins for tau
    assert doc["config"]["parameters"]["qmax"] == 500
    assert doc["config"]["parameters"]["tau"] == 1.5


def test_config_run_leaves_the_shared_parser_at_its_defaults(tmp_path,
                                                             capsys):
    # main reuses one parser per process; a --config run sets its defaults
    # on a parser of its own, so the next run reads the built-in ones
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"qmax": 500, "tau": 2.0,
                               "output": str(tmp_path / "cfg.json")}))
    assert cli.build_parser() is cli.build_parser()
    status, _, _ = run_cli(["--config", str(cfg), "dioph"], capsys)
    assert status == 0
    assert json.loads((tmp_path / "cfg.json").read_text())["config"][
        "parameters"]["qmax"] == 500
    status, out, _ = run_cli(["dioph"], capsys)
    assert status == 0
    doc = json.loads(out)
    assert doc["config"]["output"] == "-"
    assert doc["config"]["parameters"]["qmax"] == 10 ** 5
    assert doc["config"]["parameters"]["tau"] == 1.5


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"not_a_flag": 1}))
    status, _, err = run_cli(["--config", str(cfg), "dioph"], capsys)
    assert status == 2
    assert "not_a_flag" in err


def test_config_keys_outside_the_subcommand_exit_2(tmp_path, capsys):
    # argparse's own dest and another subcommand's flag used to pass the
    # check and land in the embedded config's parameters
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"help": 1, "qmax": 5}))
    status, out, err = run_cli(
        ["--config", str(cfg), "scales", "--hmin", "-1"], capsys)
    assert status == 2 and out == ""
    assert "'help'" in err and "'qmax'" in err


def test_config_output_key_and_explicit_output(tmp_path, capsys):
    # output is a key of the run; an explicit -o still wins over it
    path, explicit = tmp_path / "cfg.json", tmp_path / "flag.json"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"output": str(path), "qmax": 500}))
    status, out, _ = run_cli(["--config", str(cfg), "dioph"], capsys)
    assert status == 0 and out == ""
    doc = json.loads(path.read_text())
    assert doc["config"]["output"] == str(path)
    assert doc["config"]["parameters"]["qmax"] == 500
    status, out, _ = run_cli(
        ["--config", str(cfg), "-o", str(explicit), "dioph"], capsys)
    assert status == 0 and out == ""
    assert json.loads(explicit.read_text())["config"]["output"] == str(explicit)


def test_parse_errors_and_help_return_their_code(capsys):
    # argparse exits; main returns the code instead, also for the first parse
    assert main(["lyapunov"]) == 2
    assert main(["dioph", "--qmax", "x"]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"])
def test_config_file_errors_exit_2(tmp_path, capsys, content):
    cfg = tmp_path / "run.json"
    if content is not None:
        cfg.write_text(content)
    status, out, err = run_cli(["--config", str(cfg), "dioph"], capsys)
    assert status == 2 and out == ""
    assert err.startswith("invalid config: ") and err.count("\n") == 1


@pytest.mark.parametrize("args", [
    ["density", "--L", "4", "--beta", "nan"],
    ["correlate", "--L", "4", "--beta", "inf"],
    ["correlate", "--L", "4", "--times", "nan"],
    ["correlate", "--L", "4", "--eps", "nan"],
    ["correlate", "--L", "4", "--nu", "inf"],
    ["counterterm", "--L", "4", "--beta", "2", "--tol", "-1"],
    ["counterterm", "--L", "4", "--beta", "2", "--grid", "0:0.1:2",
     "--tol", "nan"],
    ["scales", "--hmin", "3"],
    ["scales", "--gamma", "nan", "--hmin", "-1"],
    ["scales", "--tau", "nan", "--hmin", "-1"],
    ["lyapunov", "--E", "0", "--eps", "nan", "--steps", "1000"],
    ["chain", "--alphas", "1", "--k0", "nan"],
    ["dioph", "--tau", "nan", "--qmax", "100"],
    ["scan", "--beta", "nan", "--L-list", "20,40", "--eps-grid", "0:0.2:2",
     "--U-grid", "0:0.1:1"],
    ["scan", "--beta", "0", "--L-list", "20,40", "--eps-grid", "0:0.2:2",
     "--U-grid", "0:0.1:1"],
    ["scan", "--theta", "nan", "--L-list", "20", "--eps-grid", "0:0.2:2",
     "--U-grid", "0:0.1:1"],
    ["scan", "--omega", "nan", "--L-list", "20", "--eps-grid", "0:0.2:2",
     "--U-grid", "0:0.1:1"],
    ["scan", "--xhat", "0", "--L-list", "20", "--eps-grid", "0:0.2:2",
     "--U-grid", "0:0.1:1"],
    # every dense eigenvalue was NaN, and density printed mean,nan
    ["density", "--L", "4", "--beta", "6", "--eps", "1e308"],
    # an empty fit window raised FitError, which exits 1
    ["decay", "--L", "4", "--window", "8:2"],
    # a grid of 0 points printed an empty table and exited 0
    ["scan", "--eps-grid", "0:0.2:0", "--U-grid", "0:0.1:2", "--L-list", "40"],
    ["counterterm", "--L", "4", "--beta", "2", "--grid", "0:0.1:0"],
])
def test_non_finite_and_out_of_range_inputs_exit_2(args, capsys,
                                                   monkeypatch):
    # the tail loop never returns from a non-finite mu or exponent; here it
    # raises, which would exit 1
    resolve = many_body.SpectralDecomposition._resolve

    def finite_only(self, mu, b):
        if not (math.isfinite(mu) and math.isfinite(b)):
            raise RuntimeError("non-finite input reached the tail loop")
        return resolve(self, mu, b)

    monkeypatch.setattr(many_body.SpectralDecomposition, "_resolve",
                        finite_only)
    status, out, err = run_cli(args, capsys)
    assert status == 2 and out == ""
    assert err.startswith("invalid parameters: ")


def test_huge_nu_exits_2(capsys):
    # at nu = 1e308, mu N overflowed and the tail loop never returned, so the
    # params check comes first
    with pytest.raises(ValueError, match="finite"):
        ModelParams(L=4, beta=6.0, nu=1e308)
    for command in ("density", "correlate", "decay"):
        status, out, err = run_cli(
            [command, "--L", "4", "--beta", "6", "--nu", "1e308"], capsys)
        assert status == 2 and out == ""
        assert err.startswith("invalid parameters: ")


def test_decay_reads_its_window_before_diagonalizing(capsys, monkeypatch):
    def diagonalize(params):
        raise RuntimeError("diagonalized before reading the window")

    monkeypatch.setattr(cli, "diagonalize", diagonalize)
    status, _, err = run_cli(["decay", "--L", "4", "--window", "2-8"], capsys)
    assert status == 2 and err.startswith("invalid parameters: ")


@pytest.mark.parametrize("command, last", [
    (["density"], "mean,1"), (["correlate", "--times", "0,1"], "6,6,1,0")])
def test_huge_nu_writes_no_warning(command, last, capsys):
    # the product b K in e^(-b K) overflows to inf at nu = 1e307, and the
    # factor is 0, as it should be; no RuntimeWarning may reach stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status, out, err = run_cli(
            [*command, "--L", "12", "--beta", "24", "--eps", "0.1",
             "--nu", "1e307"], capsys)
    assert status == 0 and err == ""
    assert out.splitlines()[-1] == last


def test_csv_full_precision(capsys):
    status, out, _ = run_cli(["density", "--L", "4", "--beta", "6"], capsys)
    rows = out.strip().splitlines()[2:]
    val = rows[0].split(",")[1]
    assert float(val) == float(format(float(val), ".17g"))
    assert len(val.replace("-", "").replace(".", "").lstrip("0")) > 10
