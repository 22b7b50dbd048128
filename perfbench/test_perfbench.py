"""The benchmark's own checks: every gate can fail, the tracer's bookkeeping
is exact, and the workload generator is seeded.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import random
import shutil
import subprocess
import sys

import numpy as np
import pytest

import gates
import tracer
import workloads
from quasiloc import cli
from quasiloc.counterterm import fix_counterterm
from quasiloc.multiscale import scale_decay_constants
from quasiloc.diophantine import GOLDEN_MEAN
from quasiloc.single_particle import (ModelParams, lyapunov_exponent,
                                     single_particle_spectrum)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _cli_output(tmp_path, *argv):
    path = tmp_path / f"{argv[0]}.out"
    assert cli.main(["-o", str(path), *argv]) == 0
    return gates.read_output(path.read_text())


# ---- ed_l12 gates ------------------------------------------------------------

@pytest.fixture(scope="module")
def small_correlate(tmp_path_factory):
    """correlate at L = 6, beta = 4 and the counterterm nu: times 0, 1, 1 - beta."""
    model = dict(L=6, beta=4.0, eps=0.1, U=0.1, theta=0.2377)
    nu = fix_counterterm(ModelParams(**model)).nu
    config, table = _cli_output(
        tmp_path_factory.mktemp("ed"), "correlate", "--L", "6", "--beta", "4",
        "--eps", "0.1", "--U", "0.1", "--theta", "0.2377", "--nu", repr(nu),
        "--times", "0,1,-3")
    return config, gates.correlation_slices(config, table)


def _copy(slices):
    return {t: s.copy() for t, s in slices.items()}


def test_correlate_gates_pass_on_program_output(small_correlate):
    config, slices = small_correlate
    assert gates.check_correlate(config, slices) == []


def test_kms_gate_catches_sign_flip(small_correlate):
    config, slices = small_correlate
    bad = _copy(slices)
    bad[-3.0] = -bad[-3.0]
    assert any("KMS" in v for v in gates.check_correlate(config, bad))


def test_kms_gate_needs_a_pair(small_correlate):
    config, slices = small_correlate
    bad = _copy(slices)
    del bad[1.0]
    assert any("KMS pair" in v for v in gates.check_correlate(config, bad))


def test_symmetry_gate_catches_asymmetry(small_correlate):
    config, slices = small_correlate
    bad = _copy(slices)
    bad[0.0][0, 1] += 1e-10
    assert any("asymmetric" in v for v in gates.check_correlate(config, bad))


def test_filling_gate_catches_density_shift(small_correlate):
    config, slices = small_correlate
    bad = _copy(slices)
    bad[0.0] -= 1e-5 * np.eye(bad[0.0].shape[0])
    assert any("filling" in v for v in gates.check_correlate(config, bad))


def test_missing_entry_fails(small_correlate):
    config, slices = small_correlate
    bad = _copy(slices)
    bad[1.0][2, 3] = np.nan
    assert gates.check_correlate(config, bad)


@pytest.mark.parametrize("field, value", [("rate", 0.99),
                                          ("r_squared", 0.89),
                                          ("nu", float("nan"))])
def test_decay_gate(field, value):
    good = {"rate": 1.86, "r_squared": 0.988, "nu": 0.0}
    assert gates.check_decay({}, good) == []
    assert gates.check_decay({}, dict(good, **{field: value}))


# ---- scale_survey gates ------------------------------------------------------

SCALES_CONFIG = {"parameters": {"gamma": None, "tau": 1.5, "hmin": 0,
                                "xhat": 2, "theta": 0.2377,
                                "omega": "golden"}}


@pytest.fixture(scope="module")
def scales_table(tmp_path_factory):
    """The program's own scales output for h = 0."""
    config, table = _cli_output(tmp_path_factory.mktemp("scales"), "scales",
                                "--hmin", "0", "--theta", "0.2377")
    assert config["parameters"] == SCALES_CONFIG["parameters"]
    return table


@pytest.fixture(scope="module")
def propagator_samples():
    family = gates.scale_family(SCALES_CONFIG)
    samples = gates.propagator_samples(family, random.Random(7), 3)
    return gates.with_program_values(family, samples)


def test_scales_gates_pass_on_program_output(scales_table,
                                             propagator_samples):
    assert any(s["program"] != 0.0 for s in propagator_samples)
    assert gates.check_scales(SCALES_CONFIG, scales_table,
                              propagator_samples) == []


def test_quadrature_oracle_catches_1e5_offset(scales_table,
                                              propagator_samples):
    bad = [dict(s) for s in propagator_samples]
    bad[0]["program"] += 1e-5
    found = gates.check_scales(SCALES_CONFIG, scales_table, bad)
    assert len(found) == 1 and "oracle" in found[0]


@pytest.mark.parametrize("col, value", [(2, "nan"), (4, "-3.0"),
                                        (1, "inf"), (3, "1.0")])
def test_decay_constant_gate(scales_table, col, value):
    header, rows = scales_table
    bad = [list(r) for r in rows]
    bad[0][col] = value
    assert gates.check_scales(SCALES_CONFIG, (header, bad), [])


def test_row_gate_catches_a_smaller_sup(scales_table):
    """A sup |g| 1e-5 below the printed one, as a sampler that skips the
    maximising site would give, fails the row."""
    header, rows = scales_table
    bad = [list(r) for r in rows]
    bad[0][1] = repr(float(bad[0][1]) * (1.0 - 1e-5))
    found = gates.check_scales(SCALES_CONFIG, (header, bad), [])
    assert len(found) == 1 and "sup_g" in found[0]


def test_row_gate_catches_a_dropped_sample_time(scales_table):
    """The row the program prints without its latest sample time fails."""
    family = gates.scale_family(SCALES_CONFIG)
    sup_g, cn = scale_decay_constants(family, 0,
                                      t_multipliers=gates.T_MULTIPLIERS[:-1])
    header, _ = scales_table
    row = ["0", repr(sup_g), *(repr(cn[n]) for n in (1, 2, 3))]
    found = gates.check_scales(SCALES_CONFIG, (header, [row]), [])
    assert any("C_3" in f for f in found)


def test_scales_gate_needs_every_scale(scales_table):
    header, rows = scales_table
    assert gates.check_scales(SCALES_CONFIG, (header, rows[1:]), [])


# ---- phase_scan gates --------------------------------------------------------

SCAN_CONFIG = {"parameters": {"eps_grid": "0:0.4:2", "U_grid": "0:0.2:2"}}


def _scan_rows():
    rows = []
    for eps in (0.0, 0.4):
        for U in (0.0, 0.2):
            lyap = gates.aubry_andre_exponent(eps) if eps else float("inf")
            nu = 0.3 * max(eps, U) if U else 0.0
            rows.append([repr(eps), repr(U), repr(nu), "1.0", repr(lyap),
                         "localized"])
    return rows


@pytest.mark.parametrize("index, col, value", [
    (3, 5, "error"),           # an error verdict
    (2, 4, None),              # Lyapunov off by 1e-2
    (2, 2, "1e-9"),            # nu != 0 at U = 0
    (1, 2, "0.41"),            # |nu| > 2 max(eps, U)
])
def test_scan_gates(index, col, value):
    rows = _scan_rows()
    assert gates.check_scan(SCAN_CONFIG, (None, rows)) == []
    bad = [list(r) for r in rows]
    bad[index][col] = value if value is not None \
        else repr(float(bad[index][col]) + 1e-2)
    assert gates.check_scan(SCAN_CONFIG, (None, bad))


def test_lyapunov_gate_admits_the_start_up_transient():
    # seed 77246624: the mid-spectrum state sits at x = 89 of the orbit, so
    # the 20,000-step estimate falls short of Aubry-Andre by more than 1e-3
    theta = workloads.theta_for(77246624)
    for eps in (0.2, 0.4):
        p = ModelParams(L=400, beta=8.0, eps=eps, theta=theta, x_hat=2)
        energy = float(np.median(single_particle_spectrum(p)[0]))
        lam = lyapunov_exponent(energy, eps, 1.0, GOLDEN_MEAN, theta,
                                gates.LYAPUNOV_STEPS)
        dev = abs(lam - gates.aubry_andre_exponent(eps))
        assert 1e-3 < dev <= gates.LYAPUNOV_TOL


def test_scan_gate_needs_every_point():
    assert gates.check_scan(SCAN_CONFIG, (None, _scan_rows()[:-1]))


# ---- workload generator ------------------------------------------------------

def test_seed_zero_is_the_survey_point():
    assert workloads.theta_for(0) == 0.2377
    argv = workloads.plan("scale_survey", 0)[0]["argv"]
    assert argv[argv.index("--theta") + 1] == "0.2377"


def test_seeds_draw_theta_in_band_reproducibly():
    thetas = [workloads.theta_for(s) for s in range(1, 40)]
    assert all(0.2277 <= t <= 0.2477 for t in thetas)
    assert len(set(thetas)) == len(thetas)
    for w in workloads.WORKLOADS:
        assert workloads.plan(w, 5) == workloads.plan(w, 5)
    a = gates.propagator_samples(gates.scale_family(SCALES_CONFIG),
                                 workloads.oracle_rng(3), 4)
    b = gates.propagator_samples(gates.scale_family(SCALES_CONFIG),
                                 workloads.oracle_rng(3), 4)
    assert a == b


# ---- tracer ------------------------------------------------------------------

def test_self_time_subtracts_children():
    ticks = iter(range(100))
    tr = tracer.Tracer(clock=lambda: next(ticks))
    leaf = tr.wrap("m.leaf", lambda: None)
    outer = tr.wrap("m.outer", lambda: [leaf(), leaf()])
    outer()
    spans, _ = tr.by_label()
    # outer spans ticks 0..5, its leaves 1..2 and 3..4
    assert spans == {"m.leaf": (2, 2.0), "m.outer": (1, 3.0)}
    assert list(tr.arrays()["parent"]) == [-1, 0, 0]


def test_install_traces_bindings_and_uninstalls(tmp_path):
    from quasiloc import many_body
    from scipy.linalg import eigh

    tr = tracer.Tracer()
    tr.install()
    try:
        tr.run_id = 0
        assert cli.main(["-o", str(tmp_path / "c.json"), "counterterm",
                         "--L", "4", "--beta", "2", "--eps", "0.1",
                         "--U", "0.1"]) == 0
    finally:
        tr.uninstall()
    assert many_body.eigh is eigh
    values = tracer.layer_metrics(tr)
    assert values["many_body.diagonalize.calls"] == 1
    assert values["many_body.eigh.calls"] == 6
    assert values["many_body.dim_max"] == 10
    assert values["many_body.eigh.flops_computed"] == 9 * sum(
        d ** 3 for d in (1, 5, 10, 10, 5, 1))
    assert values["counterterm.fix_counterterm.calls"] == 1
    assert values["counterterm.objective_evals"] > values[
        "counterterm.iterations"] > 0
    assert values["multiscale.quad.calls"] == 0


def test_benchmark_names_are_all_produced():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    tr = tracer.Tracer()
    tr.install()
    tr.uninstall()
    produced = set(tracer.layer_metrics(tr))
    produced |= {f"cli.{c}.s" for c in workloads.commands()}
    produced |= {"cli.output_bytes", "trace.spans", "trace.wall_s",
                 "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} <= produced
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# ---- run.py without the program ----------------------------------------------

def test_run_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "phase_scan",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_failed_exit_and_unreadable_output_fail_the_operation(tmp_path):
    import run

    broken = tmp_path / "0-scan.out"
    broken.write_text("# config: {}\nnot,a,scan\n")
    found = run.check_ops(0, [
        {"command": "decay", "exit": 1, "output": str(tmp_path / "none")},
        {"command": "scan", "exit": 0, "output": str(broken)}])
    assert found[0] == ["exit code 1"] and len(found[1]) == 1
