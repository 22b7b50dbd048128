import copy
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import quasiloc as q
from quasiloc import multiscale
from quasiloc.diophantine import exact_convergent_denominators
from quasiloc.multiscale import (ScaleConfigurationError,
                                 _annulus_candidates, _denominator)
from oracles import (chi_ultraviolet, partition_of_unity_check,
                     telescoping_residual)


def family_of(params):
    """The default scale family of a chain's frequency, phase and x_hat."""
    return q.ScaleFamily.build(params.omega_value, params.theta, params.x_hat,
                               tau=params.omega.tau)


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


def test_family_invariants_enforced(family):
    with pytest.raises(ScaleConfigurationError):
        q.ScaleFamily.build(q.GOLDEN_MEAN, 0.2377, 2, gamma=1.5)  # gamma too small
    with pytest.raises(ScaleConfigurationError):
        replace(family, a=10.0 * family.a)  # a too large
    with pytest.raises(ValueError):
        q.ScaleFamily.build(q.GOLDEN_MEAN, 0.0, 2)
    with pytest.raises(ScaleConfigurationError, match="h <= 0"):
        q.ScaleFamily.build(q.GOLDEN_MEAN, 0.2377, 2, h_min=1)
    # NaN fails the gamma^(1/tau)/2 > 1 comparison silently
    for gamma, tau in ((math.nan, 1.5), (math.inf, 1.5), (None, math.nan)):
        with pytest.raises(ScaleConfigurationError, match="finite"):
            q.ScaleFamily.build(q.GOLDEN_MEAN, 0.2377, 2, tau=tau,
                                gamma=gamma)


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
    assert partition_of_unity_check(family, xs, k0s) < 1e-12


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
            c1 = chi_ultraviolet(family, family.omega * x, k0)
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
    assert partition_of_unity_check(family, xs, k0s) == partition
    assert telescoping_residual(family, ts, k0s, -4) == tele
    # a support constant past the disjointness bound (set behind the
    # constructor's guard) must be caught, naming the first offending point
    wide = copy.copy(family)
    object.__setattr__(wide, "a", 4.0 * family.a)
    (x, k0), _ = loop_grid_checks(wide, xs, k0s, ts, -4)
    with pytest.raises(ScaleConfigurationError,
                       match=f"at x = {x}, k0 = {k0}$"):
        partition_of_unity_check(wide, xs, k0s)


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
                band = q.filtered_propagator(family, 1, x, t, h_star, 0,
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


def escalating_sample(family):
    """(h, x', delta, t) of test_unconverged_band_raises: a time
    10^6 gamma^(-h) that the fixed rule cannot resolve."""
    h = -2
    x_prime, delta = next(c for c in _annulus_candidates(family, h)
                          if c[0] != 0)
    return h, x_prime, delta, 1e6 * family.gamma ** (-h)


# quad flags roundoff on this band, whose value is below 1e-18
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_unconverged_band_raises(family, monkeypatch):
    # 10^6 times the natural time scale puts hundreds of oscillations in the
    # band's k0 window, past the fixed rule; quad with breakpoints resolves
    # them
    h, x_prime, delta, t = escalating_sample(family)
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


def per_sample_band(family, rho, delta, t, h_low, h_high):
    """The band at one (x', t) by the fixed rule alone, with one node row
    per nonempty scale interval: the loop over samples that the shared node
    arrays replaced.  None where the rule misses its 1e-6 gate."""
    qv = family.v0 * abs(delta)
    if qv >= family.a * family.gamma ** h_high:
        return 0.0
    d = _denominator(family, rho, delta)
    radii = np.array([family.a * family.gamma ** j
                      for j in range(h_low - 1, h_high + 1)])
    edges = np.unique(np.sqrt(np.maximum(radii ** 2 - qv ** 2, 0.0)))
    nodes, weights = np.polynomial.legendre.leggauss(16)

    def rule(panels):
        cuts = edges[:-1, None] + np.diff(edges)[:, None] \
            * np.linspace(0.0, 1.0, panels + 1)
        lo, hi = cuts[:, :-1].ravel(), cuts[:, 1:].ravel()
        half = 0.5 * (hi - lo)[:, None]
        k0 = 0.5 * (lo + hi)[:, None] + half * nodes
        r = np.hypot(k0, qv)
        w = multiscale._chi_of_radius(family, r, h_high) \
            - multiscale._chi_of_radius(family, r, h_low)
        f = 2.0 * w * (d * np.cos(t * k0) + k0 * np.sin(t * k0)) \
            / (k0 * k0 + d * d)
        return float(np.sum(half * weights * f))

    coarse, total = rule(4), rule(8)
    if abs(total - coarse) > 1e-6 * max(1.0, abs(total)):
        return None
    return total


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_vector_sites_and_times_match_scalar_calls_property(family, data):
    # one band evaluation for many sites and times gives, entry by entry,
    # the very bits of a call per site and time; the sites mix the scale's
    # candidates with ones outside the band
    h = data.draw(st.integers(-6, 0))
    candidates = _annulus_candidates(family, h) + [(1, None), (3, None)]
    sites = data.draw(st.lists(st.sampled_from(candidates), min_size=1,
                               max_size=6))
    rho = data.draw(st.sampled_from([1, -1]))
    width = data.draw(st.integers(1, 3))
    times = np.array(data.draw(st.lists(st.floats(-8.0, 8.0), min_size=1,
                                        max_size=8))) * family.gamma ** (-h)
    x_primes = np.array([x for x, _ in sites])
    deltas = np.array([family.omega * x - round(family.omega * x)
                       if dlt is None else dlt for x, dlt in sites])
    got = q.filtered_propagator(family, rho, x_primes, times, h - width, h,
                                delta=deltas)
    assert got.shape == (len(sites), len(times))
    expect = [[q.filtered_propagator(family, rho, x, t, h - width, h,
                                     delta=dlt) for t in times.tolist()]
              for x, dlt in sites]
    assert got.tolist() == expect
    # and the bits of the per-sample loop, wherever its rule resolves
    for row, dlt in zip(got.tolist(), deltas.tolist()):
        for value, t in zip(row, times.tolist()):
            ref = per_sample_band(family, rho, dlt, t, h - width, h)
            assert ref is None or value == ref
    # the fractional parts the band works out itself, for sites and times
    # given as arrays or one at a time
    x, t = int(x_primes[-1]), float(times[-1])
    one = q.filtered_propagator(family, rho, x, t, h - width, h)
    assert q.filtered_propagator(family, rho, x_primes, t, h - width,
                                 h)[-1] == one
    assert q.filtered_propagator(family, rho, x, times, h - width,
                                 h)[-1] == one


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_vector_escalates_only_the_unresolved_time(family, monkeypatch):
    h, x_prime, delta, t_far = escalating_sample(family)
    times = np.array([0.0, 1.0, 1e6, 4.0]) * family.gamma ** (-h)
    assert times[2] == t_far
    calls = []
    monkeypatch.setattr(multiscale, "quad", counting(multiscale.quad, calls))
    got = q.filtered_propagator(family, 1, x_prime, times, h - 1, h,
                                delta=delta)
    assert len(calls) == 1
    assert got[2] == pytest.approx(
        split_band_reference(family, delta, t_far, h), abs=1e-12)
    for i in (0, 1, 3):
        assert got[i] == q.single_scale_propagator(family, 1, x_prime,
                                                   times[i], h, delta=delta)
    assert len(calls) == 1
    monkeypatch.setattr(multiscale, "quad", lambda f, a, b, **kw: (0.3, 1e-3))
    with pytest.raises(q.QuadratureError):
        q.filtered_propagator(family, 1, x_prime, times, h - 1, h,
                              delta=delta)


def test_band_returns_float_or_array_of_the_inputs_shape(family):
    # x' = 1 and x' = 3 lie far outside the scale -3 band: exact zeros
    times = np.array([0.7, 1.0, 2.0])
    got = q.filtered_propagator(family, 1, 1, times, -4, -3)
    assert got.shape == (3,) and not np.any(got)
    got = q.filtered_propagator(family, 1, np.array([1, 3]), times, -4, -3)
    assert got.shape == (2, 3) and not np.any(got)
    got = q.filtered_propagator(family, 1, np.array([1, 3]), 0.7, -4, -3)
    assert got.shape == (2,) and not np.any(got)
    assert type(q.filtered_propagator(family, 1, 1, 0.7, -4, -3)) is float
    assert type(q.filtered_propagator(family, 1, 0, 0.7, -4, -3)) is float
    assert type(q.filtered_propagator(family, 1, 0, np.float64(0.7),
                                      -4, -3)) is float


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
    # at the convergent denominators the exact divisor
    # u (cos 2 pi (z + rho delta) - cos 2 pi z), z = omega x_hat + theta, is
    # the paper's linearized v0 rho delta times -2 pi u sgn(sin 2 pi z), to
    # first order in delta: the relative deviation is at most
    # pi |delta| |cot 2 pi z| <= pi |delta| / v0, doubled for higher orders
    z = family.omega * family.x_hat + family.theta
    limit = -2.0 * math.pi * family.u * math.copysign(
        1.0, math.sin(2.0 * math.pi * z))
    deltas = [d for _, d in exact_convergent_denominators(family.omega,
                                                          10 ** 15)
              if 0.0 < abs(d) < 1e-2]
    assert min(abs(d) for d in deltas) < 1e-14
    for delta in deltas:
        for rho in (1, -1):
            ratio = _denominator(family, rho, delta) \
                / (family.v0 * rho * delta)
            assert ratio == pytest.approx(
                limit, rel=2.0 * math.pi * abs(delta) / family.v0)


def test_decay_constants_uniform(family):
    cs = {}
    for h in (0, -2, -4):
        _, cn = q.scale_decay_constants(family, h,
                                        t_multipliers=(0.0, 1.0, 4.0))
        cs[h] = cn[1]
    vals = list(cs.values())
    assert max(vals) / min(vals) < 2.0


def gauss_legendre_propagator(family, rho, delta, t, h, panels=64, order=16):
    """g^(h)_rho by fixed-node composite Gauss-Legendre over the scale-h k0 window.

    The divisor is u (cos 2 pi (z + rho delta) - cos 2 pi z) with
    z = omega x_hat + theta, written as a product of sines so that tiny delta
    keeps its relative precision.
    """
    qv = family.v0 * abs(delta)
    r_hi = family.a * family.gamma ** h
    r_lo = family.a * family.gamma ** (h - 2)
    if qv >= r_hi:
        return 0.0
    z = family.omega * family.x_hat + family.theta
    d = -2.0 * family.u * math.sin(math.pi * (2.0 * z + rho * delta)) \
        * math.sin(math.pi * rho * delta)
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
    t = data.draw(st.floats(0.0, 8.0)) * family.gamma ** (-h)
    got = q.single_scale_propagator(family, rho, x_prime, t, h, delta=delta)
    ref = gauss_legendre_propagator(family, rho, delta, t, h)
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
