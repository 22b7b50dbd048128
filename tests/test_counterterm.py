import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

import quasiloc as q
from quasiloc.counterterm import _BRENT_MAXITER, _brentq
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
    dens = np.array([q.mean_particle_number(spd, nu) / p.n_sites
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
    dens = [q.mean_particle_number(spd, nu) for nu in nus]
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
        return q.mean_particle_number(spd, nu) / p.n_sites \
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

    def flat(spectral, nu):
        reads.append(nu)
        return 0.0

    monkeypatch.setattr(counterterm, "mean_particle_number", flat)
    p = q.ModelParams(L=4, beta=2.0, eps=0.1, U=0.05)
    with pytest.raises(q.BracketError):
        q.fix_counterterm(p)
    assert max(reads) == pytest.approx(6.4, rel=1e-12)
    assert min(reads) == 0.0


def counted(f):
    """f, recording every argument it is called at in .calls."""
    def g(x):
        g.calls.append(x)
        return f(x)
    g.calls = []
    return g


def scipy_brentq(f, a, b, xtol):
    """(root, iterations, converged, objective calls) of scipy's brentq."""
    g = counted(f)
    root, info = brentq(g, a, b, xtol=xtol, full_output=True, disp=False)
    return root, info.iterations, info.converged, len(g.calls)


def own_brentq(f, a, b, xtol):
    """The same from _brentq, handed f(a) and f(b) as the growth loop does."""
    g = counted(f)
    root, iterations, converged = _brentq(g, a, b, f(a), f(b), xtol)
    return root, iterations, converged, len(g.calls)


@st.composite
def monotone_brackets(draw):
    """(f, a, b): a strictly monotone f with one root strictly inside the
    bracket, whose ends come in either order.  The bracket widths span 12
    decades, and the kinked shape makes the step fall back to bisection."""
    root = draw(st.floats(-2.0, 2.0))
    left = 10.0 ** draw(st.floats(-12.0, 0.5))
    right = 10.0 ** draw(st.floats(-12.0, 0.5))
    scale = draw(st.floats(1e-6, 1e3)) * draw(st.sampled_from([-1.0, 1.0]))
    shape = draw(st.sampled_from(["linear", "cubic", "tanh", "exp", "atan",
                                  "kinked"]))
    k = draw(st.floats(0.1, 50.0))
    kink = draw(st.floats(-1.0, 1.0))
    g = {"linear": lambda z: z,
         "cubic": lambda z: z * (1.0 + k * z * z),
         "tanh": lambda z: math.tanh(k * z),
         "exp": lambda z: math.expm1(k * z),
         "atan": lambda z: math.atan(k * z) + 0.3 * z,
         "kinked": lambda z: z + 0.9 * (abs(z - kink) - abs(kink))}[shape]
    a, b = root - left, root + right
    f = (lambda x: scale * g(x - root))
    if not (f(a) != 0.0 != f(b) and (f(a) < 0.0) != (f(b) < 0.0)):
        # the root must lie strictly inside in floating point too
        a, b = root - 1.0, root + 1.0
    return (f, b, a) if draw(st.booleans()) else (f, a, b)


def assert_same_as_brentq(f, a, b, xtol):
    root, iterations, converged, calls = scipy_brentq(f, a, b, xtol)
    got = own_brentq(f, a, b, xtol)
    assert got[0].hex() == root.hex()
    assert got[1:3] == (iterations, converged)
    assert got[3] == calls - 2


@settings(max_examples=300, deadline=None)
@given(monotone_brackets(), st.floats(-15.0, -1.0))
def test_brent_step_matches_scipy_brentq_property(case, log_xtol):
    f, a, b = case
    assert_same_as_brentq(f, a, b, 10.0 ** log_xtol)


def test_brent_cap_matches_scipy_brentq():
    # a step at 1e-300 bisected from [-1, 1] to xtol 5e-324 needs about 1000
    # halvings: both stop unconverged after the cap
    def step(x):
        return -1.0 if x < 1e-300 else 1.0

    root, iterations, converged, _ = scipy_brentq(step, -1.0, 1.0, 5e-324)
    assert (iterations, converged) == (_BRENT_MAXITER, False)
    assert_same_as_brentq(step, -1.0, 1.0, 5e-324)


@settings(max_examples=50, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(1e-6, 3.0),
       st.floats(0.1, 10.0) | st.floats(-10.0, -0.1), st.booleans())
def test_root_at_a_bracket_end_matches_scipy_brentq(a, width, slope, at_b):
    # scipy returns an exact-zero end without entering its loop and leaves
    # `iterations` unset there (it reads uninitialised memory), so only its
    # root bits and flag are compared; _brentq counts that as 1 iteration
    b = a + width
    end = b if at_b else a
    f = (lambda x: slope * (x - end))
    root, _, converged, calls = scipy_brentq(f, a, b, 1e-10)
    assert (root, converged, calls) == (end, True, 2)
    got = own_brentq(f, a, b, 1e-10)
    assert got[0].hex() == root.hex()
    assert got[1:] == (1, True, 0)


def test_objective_zero_at_both_ends_returns_the_first_end():
    root, _, converged, _ = scipy_brentq(lambda x: 0.0, 0.0, -1e-10, 1e-10)
    assert (root, converged) == (0.0, True)
    assert _brentq(None, 0.0, -1e-10, 0.0, 0.0, 1e-10) == (0.0, 1, True)


def test_brent_rejects_nan_and_unbracketed_ends():
    with pytest.raises(ValueError):
        _brentq(None, 0.0, 1.0, math.nan, 1.0, 1e-10)
    with pytest.raises(ValueError):
        _brentq(None, 0.0, 1.0, -1.0, -2.0, 1e-10)
    with pytest.raises(ValueError):
        _brentq(lambda x: math.nan, 0.0, 1.0, -1.0, 1.0, 1e-10)


@settings(max_examples=10, deadline=None)
@given(interacting_chains())
def test_nu_is_brentq_on_the_grown_bracket_property(p):
    # the solve starts from the bracket ends the growth loop read: the same
    # nu, iterations and flag as brentq on that bracket, two reads fewer
    spd = q.diagonalize(p)
    r = q.fix_counterterm(p, spectral=spd)
    (_, f0), *grown = r.bracket_history
    n_growth = next(i for i, (_, f) in enumerate(grown, 1) if f0 * f <= 0.0)
    end = r.bracket_history[n_growth][0]

    def objective(nu):
        return q.mean_particle_number(spd, nu) / p.n_sites \
            - r.target_density

    root, iterations, converged, calls = scipy_brentq(objective, 0.0, end,
                                                      1e-10)
    assert r.nu == root
    assert (r.iterations, r.converged) == (iterations, converged)
    assert len(r.bracket_history) == n_growth + 1 + calls - 2


def test_zero_temperature_plateau_returns_zero_nu_after_one_iteration():
    # at L = 12, beta = 24576 the density objective is exactly 0 at nu = 0
    # (a plateau of the zero-temperature filling): nu = 0.0 is returned after
    # reading f(0) and the first bracket end only.  The plateau leaves nu
    # undetermined, which the result does not say yet
    r = q.fix_counterterm(q.ModelParams(L=12, beta=24576.0, eps=0.1, U=0.1))
    assert r.bracket_history[0] == (0.0, 0.0)
    assert (r.nu, r.iterations, r.converged) == (0.0, 1, True)
    assert len(r.bracket_history) == 2
