import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import quasiloc as q
from quasiloc import multiscale
from quasiloc.multiscale import (ScaleConfigurationError,
                                 _annulus_candidates, telescoping_residual)


def family_of(params):
    """The default scale family of a chain's frequency, phase and x_hat."""
    return q.ScaleFamily.build(params.omega_value, params.theta, params.x_hat,
                               u=params.u, tau=params.omega.tau)


@pytest.fixture(scope="module")
def family():
    return family_of(q.ModelParams(L=8, beta=8.0))


def test_family_defaults(family):
    assert family.gamma == pytest.approx(2.0 ** 3.0)   # 2^(2 tau), tau = 1.5
    assert family.x_bar_plus == 2.0
    assert family.x_bar_minus == pytest.approx(
        -2.0 - 2.0 * 0.2377 / q.GOLDEN_MEAN)
    assert family.v0 == pytest.approx(
        abs(math.sin(2 * math.pi * (2 * q.GOLDEN_MEAN + 0.2377))))
    sep = family.v0 * q.torus_norm(
        family.omega * (family.x_bar_plus - family.x_bar_minus))
    assert family.a < 0.5 * sep


def test_family_invariants_enforced():
    with pytest.raises(ScaleConfigurationError):
        q.ScaleFamily.build(q.GOLDEN_MEAN, 0.2377, 2, gamma=1.5)  # gamma too small
    with pytest.raises(ScaleConfigurationError):
        q.ScaleFamily.build(q.GOLDEN_MEAN, 0.2377, 2, safety=5.0)  # a too large
    with pytest.raises(ValueError):
        q.ScaleFamily.build(q.GOLDEN_MEAN, 0.0, 2)


def test_chi_h_plateau_and_support(family):
    a, g = family.a, family.gamma
    for h in (0, -3, -7):
        assert q.chi_h(family, 0.0, 0.0, h) == 1.0
        assert q.chi_h(family, 0.0, a * g ** (h - 1) * 0.99, h) == 1.0
        assert q.chi_h(family, 0.0, a * g ** h * 1.01, h) == 0.0
    with pytest.raises(ValueError):
        q.chi_h(family, 0.0, 0.0, 1)


def test_chi_h_even(family):
    rng = np.random.default_rng(7)
    for _ in range(50):
        t = rng.uniform(-3, 3)
        k0 = rng.uniform(-0.01, 0.01)
        assert q.chi_h(family, t, k0, -2) == q.chi_h(family, -t, -k0, -2)


def test_f_h_nonnegative_annulus(family):
    a, g = family.a, family.gamma
    h = -3
    k_in = a * g ** (h - 2) * 0.99    # inside the plateau of chi_{h-1}
    assert q.f_h(family, 0.0, k_in, h) == 0.0
    k_mid = a * g ** (h - 1) * 2.0
    assert q.f_h(family, 0.0, k_mid, h) > 0.0
    k_out = a * g ** h * 1.5
    assert q.f_h(family, 0.0, k_out, h) == 0.0
    rng = np.random.default_rng(3)
    for _ in range(200):
        k0 = rng.uniform(0, a * g ** (h + 1))
        assert q.f_h(family, 0.0, k0, h) >= -1e-15


def test_partition_of_unity(family):
    xs = np.arange(-40, 41)
    k0s = np.linspace(-2.0, 2.0, 41)
    assert q.partition_of_unity_check(family, xs, k0s) < 1e-12


def loop_grid_checks(family, xs, k0s, ts, h_star):
    """Scalar-loop reference of the two grid checks: (partition residual or
    first overlapping (x, k0), telescoping residual)."""
    worst, overlap = 0.0, None
    for x in xs:
        for k0 in k0s:
            cp = q.chi_h(family, family.omega * (x - family.x_bar_plus), k0, 0)
            cm = q.chi_h(family, family.omega * (x - family.x_bar_minus), k0, 0)
            if cp > 0.0 and cm > 0.0 and overlap is None:
                overlap = (x, k0)
            c1 = q.chi_ultraviolet(family, family.omega * x, k0)
            worst = max(worst, abs(c1 + cp + cm - 1.0))
    tele = 0.0
    for t in ts:
        for k0 in k0s:
            total = sum(q.f_h(family, t, k0, h) for h in range(h_star + 1, 1))
            target = q.chi_h(family, t, k0, 0) - q.chi_h(family, t, k0, h_star)
            tele = max(tele, abs(total - target))
    return overlap or worst, tele


def test_grid_checks_match_loop_reference(family):
    xs = np.arange(-20.0, 21.0)
    k0s = np.linspace(-0.3, 0.3, 13)
    ts = np.linspace(-4, 4, 9)
    partition, tele = loop_grid_checks(family, xs, k0s, ts, -4)
    assert q.partition_of_unity_check(family, xs, k0s) == partition
    assert telescoping_residual(family, ts, k0s, -4) == tele
    # a support constant past the disjointness bound (set behind the
    # constructor's guard) must be caught, naming the first offending point
    wide = copy.copy(family)
    object.__setattr__(wide, "a", 4.0 * family.a)
    (x, k0), _ = loop_grid_checks(wide, xs, k0s, ts, -4)
    with pytest.raises(ScaleConfigurationError,
                       match=f"at x = {x}, k0 = {k0}$"):
        q.partition_of_unity_check(wide, xs, k0s)


def test_overlapping_supports_rejected():
    # nearly coincident singular points squeeze the disjointness bound below
    # any positive a; the family cannot even be constructed
    fam = family_of(q.ModelParams(L=8, beta=8.0))
    with pytest.raises(ScaleConfigurationError):
        q.ScaleFamily(omega=fam.omega, theta=fam.theta, x_hat=fam.x_hat,
                      u=fam.u, tau=fam.tau, gamma=fam.gamma,
                      a=fam.a, v0=fam.v0, h_min=fam.h_min,
                      x_bar_plus=fam.x_bar_plus,
                      x_bar_minus=fam.x_bar_plus + 1e-3)


def test_telescoping(family):
    ts = np.linspace(-4, 4, 17)
    k0s = np.linspace(-0.05, 0.05, 11)
    assert telescoping_residual(family, ts, k0s, -5) < 1e-12


def test_single_scale_zero_outside_support(family):
    # a site with ||omega x'|| far above the annulus gives exactly 0
    assert q.single_scale_propagator(family, 1, 1, 0.7, -3) == 0.0


def test_single_scale_real_and_bounded(family):
    vals = []
    for h in (0, -2, -4):
        for t in (0.0, 1.0, family.gamma ** (-h)):
            g = q.single_scale_propagator(family, 1, 0, t, h)
            assert isinstance(g, float)
            vals.append(abs(g))
    assert max(vals) < 50.0


def test_telescoped_propagator_sum(family):
    # sum of single scales equals the band-filtered propagator, at x' = 0
    # (d = 0) and at a site with a nonzero divisor inside the band; the
    # h_star = -5 band spans gamma^6 in radius, and its innermost scale is
    # where adaptive quadrature over the whole window went wrong
    x_prime, delta = next(c for c in _annulus_candidates(family, -1)
                          if c[0] != 0)
    for h_star in (-3, -5):
        for x, dlt in ((0, 0.0), (x_prime, delta)):
            for t in (0.0, 2.0, 7.5, 40.0):
                total = sum(q.single_scale_propagator(family, 1, x, t, h,
                                                      delta=dlt)
                            for h in range(h_star + 1, 1))
                band = q.filtered_propagator(family, 1, x, t, h_star,
                                             delta=dlt)
                assert total == pytest.approx(band, abs=1e-12)
    assert band != 0.0


def test_band_rejects_bad_scales(family):
    for h_low, h_high in ((-3, -3), (0, -3), (-3, 1)):
        with pytest.raises(ValueError):
            q.filtered_propagator(family, 1, 0, 1.0, h_low, h_high)


def split_band_reference(family, delta, t, h):
    """g^(h)_+ by scipy quad on each scale interval of the k0 window, at
    epsrel 1e-12: the single-scale integrand of the property oracle below."""
    qv = family.v0 * abs(delta)
    edges = sorted({math.sqrt(max((family.a * family.gamma ** j) ** 2
                                  - qv ** 2, 0.0)) for j in (h - 2, h - 1, h)})
    z = family.omega * family.x_hat + family.theta
    d = -2.0 * family.u * math.sin(math.pi * (2.0 * z + delta)) \
        * math.sin(math.pi * delta)

    def integrand(k):
        return 2.0 * q.f_h(family, delta, k, h) \
            * (d * math.cos(t * k) + k * math.sin(t * k)) / (k * k + d * d)
    return sum(quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-12,
                    limit=2000)[0] for lo, hi in zip(edges, edges[1:]))


def counting(fn, calls):
    def wrapped(*args, **kwargs):
        calls.append(args[1:3])
        return fn(*args, **kwargs)
    return wrapped


# quad flags roundoff on this band, whose value is below 1e-18
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_unconverged_band_raises(family, monkeypatch):
    # 10^6 times the natural time scale puts hundreds of oscillations in the
    # band's k0 window, past the fixed rule; quad with breakpoints resolves
    # them
    h = -2
    x_prime, delta = next(c for c in _annulus_candidates(family, h)
                          if c[0] != 0)
    t = 1e6 * family.gamma ** (-h)
    calls = []
    monkeypatch.setattr(multiscale, "quad", counting(multiscale.quad, calls))
    got = q.single_scale_propagator(family, 1, x_prime, t, h, delta=delta)
    assert len(calls) == 1
    assert got == pytest.approx(split_band_reference(family, delta, t, h),
                                abs=1e-12)
    # an escalation that misses the gate as well raises
    monkeypatch.setattr(multiscale, "quad", lambda f, a, b, **kw: (0.3, 1e-3))
    with pytest.raises(q.QuadratureError) as err:
        q.single_scale_propagator(family, 1, x_prime, t, h, delta=delta)
    assert err.value.residual == 1e-3
    with pytest.raises(q.QuadratureError):
        q.filtered_propagator(family, 1, x_prime, t, h - 2, h, delta=delta)


def test_resolved_band_skips_quad(family, monkeypatch):
    calls = []
    monkeypatch.setattr(multiscale, "quad", counting(multiscale.quad, calls))
    for h in (0, -3, -6):
        for x_prime, delta in _annulus_candidates(family, h):
            for m in (0.0, 1.0, 8.0):
                t = m * family.gamma ** (-h)
                q.single_scale_propagator(family, 1, x_prime, t, h,
                                          delta=delta)
                q.filtered_propagator(family, -1, x_prime, t, h - 3, h,
                                      delta=delta)
    assert calls == []


def test_linearized_mode_agrees_for_tiny_divisor(family):
    # at a convergent denominator the exact and linearized denominators agree
    cands = _annulus_candidates(family, -4)
    x_prime, delta = next(c for c in cands if c[0] != 0)
    ge = q.single_scale_propagator(family, 1, x_prime, 0.0, -4, delta=delta)
    gl = q.single_scale_propagator(family, 1, x_prime, 0.0, -4,
                                   linearized=True, delta=delta)
    # the 2 pi between the exact cosine difference and the paper's
    # linearization convention shows up here; only the scale must match
    assert gl != 0.0
    assert 0.05 < abs(ge / gl) < 20.0


def test_decay_constants_uniform(family):
    cs = {}
    for h in (0, -2, -4):
        _, cn = q.scale_decay_constants(family, h, powers=(1,),
                                        t_multipliers=(0.0, 1.0, 4.0))
        cs[h] = cn[1]
    vals = list(cs.values())
    assert max(vals) / min(vals) < 2.0


def gauss_legendre_propagator(family, rho, delta, t, h, linearized=False,
                              panels=64, order=16):
    """g^(h)_rho by fixed-node composite Gauss-Legendre over the scale-h k0 window.

    The divisor is u (cos 2 pi (z + rho delta) - cos 2 pi z) with
    z = omega x_hat + theta, written as a product of sines so that tiny delta
    keeps its relative precision; linearized, it is v0 rho delta.
    """
    qv = family.v0 * abs(delta)
    r_hi = family.a * family.gamma ** h
    r_lo = family.a * family.gamma ** (h - 2)
    if qv >= r_hi:
        return 0.0
    z = family.omega * family.x_hat + family.theta
    d = -2.0 * family.u * math.sin(math.pi * (2.0 * z + rho * delta)) \
        * math.sin(math.pi * rho * delta)
    if linearized:
        d = family.v0 * rho * delta
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(math.sqrt(max(r_lo ** 2 - qv ** 2, 0.0)),
                        math.sqrt(r_hi ** 2 - qv ** 2), panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    k = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * nodes
    g_k = (q.f_h(family, delta, k, h) / (-1j * k + d)
           * np.exp(-1j * k * t))
    # the k0 < 0 half of the line is the complex conjugate
    return float(2.0 * np.sum(half * weights * g_k).real)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_single_scale_matches_gauss_legendre_property(family, data):
    h = data.draw(st.integers(-6, 0))
    x_prime, delta = data.draw(st.sampled_from(_annulus_candidates(family, h)))
    rho = data.draw(st.sampled_from([1, -1]))
    linearized = data.draw(st.booleans())
    t = data.draw(st.floats(0.0, 8.0)) * family.gamma ** (-h)
    got = q.single_scale_propagator(family, rho, x_prime, t, h,
                                    linearized=linearized, delta=delta)
    ref = gauss_legendre_propagator(family, rho, delta, t, h, linearized)
    assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))


def test_chain_graph_empty_and_single():
    p = q.ModelParams(L=8, beta=8.0)
    v, mags = q.chain_graph_value(p, [], 0, 0.3)
    assert v == 1.0 and mags == []
    v1, mags1 = q.chain_graph_value(p, [1], 0, 0.3)
    phi = q.onsite_energy(p, 1)
    expect = 1.0 / complex(phi - p.mu, -0.3)
    assert v1 == pytest.approx(expect)
    assert mags1[0] == pytest.approx(abs(expect) ** -1)


def test_chain_graph_zero_divisor():
    p = q.ModelParams(L=8, beta=8.0)
    with pytest.raises(q.ZeroDivisorError) as err:
        q.chain_graph_value(p, [1, 1], 0, 0.0)  # lands on x_hat = 2 at k0 = 0
    assert err.value.site == 2


def test_chain_graph_leaves_lattice():
    p = q.ModelParams(L=4, beta=8.0)
    with pytest.raises(ValueError):
        q.chain_graph_value(p, [1, 1, 1], 0, 0.1)
    with pytest.raises(ValueError):
        q.chain_graph_value(p, [2], 0, 0.1)


def test_chain_graph_nu_insertion_repeats_site():
    p = q.ModelParams(L=8, beta=8.0)
    v, mags = q.chain_graph_value(p, [1, 0], 0, 0.2)
    assert mags[0] == pytest.approx(mags[1])
