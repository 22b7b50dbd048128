import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quasiloc as q
from oracles import counterterm_flow_check

# brentq's default relative tolerance, 4 machine epsilons
BRENTQ_RTOL = 4.0 * np.finfo(float).eps


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
    # root finder, and compare
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
    # the key order of the counterterm command's JSON
    assert list(d) == ["eps", "U", "nu", "target_density", "achieved_density",
                       "iterations", "converged", "L", "beta"]


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
    results = q.counterterm_grid(q.ModelParams(L=6, beta=8.0), (0.0, 0.1),
                                 (0.0, 0.1))
    assert set(results) == {(0.0, 0.0), (0.0, 0.1), (0.1, 0.0), (0.1, 0.1)}
    report = counterterm_flow_check(results)
    assert report["zero_at_origin"] is True
    assert report["max_ratio"] <= 2.0
    assert report["ok"]


def test_flow_check_trivial_grid():
    results = q.counterterm_grid(q.ModelParams(L=6, beta=8.0), (0.0,), (0.0,))
    report = counterterm_flow_check(results)
    assert report["zero_at_origin"] is True
    assert report["ok"]


def test_grid_takes_the_other_parameters_from_its_record():
    base = q.ModelParams(L=4, beta=3.0, theta=0.41, x_hat=1, nu=0.3)
    results = q.counterterm_grid(base, (0.1,), (0.2,))
    expect = q.fix_counterterm(q.ModelParams(L=4, beta=3.0, eps=0.1, U=0.2,
                                             theta=0.41, x_hat=1))
    assert results[(0.1, 0.2)].nu == expect.nu


@st.composite
def interacting_chains(draw):
    sign = draw(st.sampled_from([-1.0, 1.0]))
    return q.ModelParams(
        L=draw(st.sampled_from([4, 6])), beta=draw(st.floats(0.5, 12.0)),
        eps=draw(st.floats(-0.6, 0.6)), U=sign * draw(st.floats(0.01, 0.6)),
        theta=draw(st.floats(0.05, 0.95)),
        x_hat=draw(st.sampled_from([-1, 1])))


@settings(max_examples=25, deadline=None)
@given(interacting_chains())
def test_nu_brackets_the_root_within_tolerance_property(p):
    # the tolerance is on nu: the density objective changes sign across
    # [nu - t, nu + t], and no read strays far beyond the root
    spd = q.diagonalize(p)
    r = q.fix_counterterm(p, spectral=spd)
    t = 1e-10 + BRENTQ_RTOL * abs(r.nu)

    def objective(nu):
        return q.mean_particle_number(p.with_nu(nu), spd) / p.n_sites \
            - r.target_density

    assert r.converged
    assert objective(r.nu - t) <= 0.0 <= objective(r.nu + t)
    assert all(abs(nu) <= 4.0 * abs(r.nu) + t for nu, _ in r.bracket_history)


def test_resolves_nu_to_relative_precision():
    # L = 8, beta = 4, eps = U = 0.1: the root 3.14790e-3, resolved here to
    # 1e-10 relative; the density stop rule left it off by 1.5e-6
    p = q.ModelParams(L=8, beta=4.0, eps=0.1, U=0.1)
    root = 3.1478994363761e-3
    assert q.fix_counterterm(p, tolerance=1e-13).nu == pytest.approx(
        root, rel=1e-10, abs=0.0)
    # the default tolerance, 1e-10, is on nu too
    assert abs(q.fix_counterterm(p).nu - root) <= 1e-10


@settings(max_examples=10, deadline=None)
@given(st.floats(-0.6, 0.6))
def test_free_chain_gives_exactly_zero_nu(eps):
    r = q.fix_counterterm(q.ModelParams(L=4, beta=6.0, eps=eps))
    assert r.nu == 0.0
    assert r.iterations == 0 and r.converged


def test_unbracketed_root_raises_at_the_outermost_end(monkeypatch):
    # a density that never reaches the target: the bracket stops at
    # 64 max(|eps|, |U|, 1e-3) instead of reading further out
    from quasiloc import counterterm

    reads = []

    def flat(params, spectral):
        reads.append(params.nu)
        return 0.0

    monkeypatch.setattr(counterterm, "mean_particle_number", flat)
    p = q.ModelParams(L=4, beta=2.0, eps=0.1, U=0.05)
    with pytest.raises(q.BracketError):
        q.fix_counterterm(p)
    assert max(reads) == pytest.approx(6.4, rel=1e-12)
    assert min(reads) == 0.0
