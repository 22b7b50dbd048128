import numpy as np
import pytest

import quasiloc as q
from oracles import counterterm_flow_check


def test_zero_coupling_gives_zero_nu():
    p = q.ModelParams(L=6, beta=8.0)
    r = q.fix_counterterm(p)
    assert r.nu == 0.0
    assert r.converged
    assert r.iterations == 0


def test_free_hopping_self_consistency():
    # U = 0 with hopping: target is the model's own density, nu = 0
    for eps in (0.05, 0.2):
        p = q.ModelParams(L=6, beta=8.0, eps=eps)
        r = q.fix_counterterm(p)
        assert r.nu == 0.0
        assert abs(r.achieved_density - r.target_density) <= 1e-6


def test_interacting_point_matches_grid_scan_oracle():
    # locate the density crossing by a dense nu scan, independently of the
    # bisection, and compare
    p = q.ModelParams(L=6, beta=8.0, eps=0.15, U=0.25, theta=0.41, x_hat=1)
    r = q.fix_counterterm(p, tolerance=1e-9)
    spd = q.diagonalize(p)
    target = r.target_density
    nus = np.arange(-1.5, 1.5, 1e-4)
    dens = np.array([q.mean_particle_number(p.with_nu(nu), spd) / p.n_sites
                     for nu in nus])
    k = int(np.argmin(np.abs(dens - target)))
    assert abs(r.nu - nus[k]) < 2e-4
    assert abs(r.achieved_density - target) <= 1e-9


@pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf])
def test_tolerance_must_be_finite_and_positive(tol):
    with pytest.raises(ValueError, match="tolerance"):
        q.fix_counterterm(q.ModelParams(L=4, beta=2.0, eps=0.1), tolerance=tol)


def test_density_monotone_in_nu():
    p = q.ModelParams(L=6, beta=8.0, eps=0.1, U=0.2)
    spd = q.diagonalize(p)
    nus = np.linspace(-0.5, 0.5, 21)
    dens = [q.mean_particle_number(p.with_nu(nu), spd) for nu in nus]
    assert all(b >= a - 1e-12 for a, b in zip(dens, dens[1:]))


def test_result_records_inputs():
    p = q.ModelParams(L=6, beta=8.0, eps=0.1, U=0.1)
    r = q.fix_counterterm(p)
    assert (r.L, r.beta, r.eps, r.U) == (6, 8.0, 0.1, 0.1)
    assert len(r.bracket_history) >= 1
    d = r.to_dict()
    assert set(d) >= {"nu", "target_density", "achieved_density", "converged"}


def test_nu_bound_small_couplings():
    for eps, U in ((0.05, 0.05), (0.1, 0.05), (0.0, 0.1)):
        p = q.ModelParams(L=6, beta=8.0, eps=eps, U=U)
        r = q.fix_counterterm(p)
        assert r.converged
        assert abs(r.nu) <= 2.0 * max(abs(eps), abs(U))


def test_theta_period_invariance():
    p1 = q.ModelParams(L=6, beta=8.0, eps=0.1, U=0.2, theta=0.2377)
    p2 = q.ModelParams(L=6, beta=8.0, eps=0.1, U=0.2, theta=1.2377)
    r1 = q.fix_counterterm(p1)
    r2 = q.fix_counterterm(p2)
    assert r1.nu == pytest.approx(r2.nu, abs=1e-9)


def test_determinism():
    p = q.ModelParams(L=6, beta=8.0, eps=0.1, U=0.2)
    a = q.fix_counterterm(p).nu
    b = q.fix_counterterm(p).nu
    assert a == b


def test_grid_and_flow_check():
    results = q.counterterm_grid(6, 8.0, (0.0, 0.1), (0.0, 0.1))
    assert set(results) == {(0.0, 0.0), (0.0, 0.1), (0.1, 0.0), (0.1, 0.1)}
    report = counterterm_flow_check(results)
    assert report["zero_at_origin"] is True
    assert report["max_ratio"] <= 2.0
    assert report["ok"]


def test_flow_check_trivial_grid():
    results = q.counterterm_grid(6, 8.0, (0.0,), (0.0,))
    report = counterterm_flow_check(results)
    assert report["zero_at_origin"] is True
    assert report["ok"]
