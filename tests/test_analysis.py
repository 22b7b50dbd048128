import math

import numpy as np
import pytest

import quasiloc as q
from quasiloc.analysis import _SCAN_L, _log_correction


def _synthetic_corr(rate, with_log_factor=False):
    p = q.ModelParams(L=16, beta=1.0, eps=0.1)
    n = p.n_sites
    s = np.zeros((1, n, n))
    for i, x in enumerate(p.sites):
        for j, y in enumerate(p.sites):
            v = math.exp(-rate * abs(x - y))
            if with_log_factor:
                v *= _log_correction(x, y, p.omega.tau)
            s[0, i, j] = v
    return q.CorrelationFunction(times=np.array([0.0]), values=s,
                                 discarded=np.zeros(1), params=p)


def test_fit_exact_exponential():
    corr = _synthetic_corr(2.0, with_log_factor=True)
    fit = q.fit_spatial_decay(corr, window=(2, 8))
    assert fit.rate == pytest.approx(2.0, abs=1e-6)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.xi_fit == pytest.approx(0.5, abs=1e-6)
    assert fit.theorem_rate == pytest.approx(abs(math.log(0.1)))


def test_fit_divides_out_log_factor():
    corr = _synthetic_corr(1.3, with_log_factor=True)
    fit = q.fit_spatial_decay(corr, window=(2, 8))
    assert fit.rate == pytest.approx(1.3, abs=1e-6)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-10)


def test_fit_rejects_ultralocal():
    p = q.ModelParams(L=12, beta=6.0)
    spd = q.diagonalize(p)
    corr = q.compute_correlation(spd, p.nu, [0.0])
    with pytest.raises(q.FitError):
        q.fit_spatial_decay(corr, window=(2, 8))


def test_fit_window_too_narrow():
    corr = _synthetic_corr(1.0)
    with pytest.raises(q.FitError):
        q.fit_spatial_decay(corr, window=(2, 4))


def test_phase_scan_small_grid():
    grid = q.phase_scan([0.0, 0.2], [0.0], [60, 120], 6.0)
    assert set(grid) == {(0.0, 0.0), (0.2, 0.0)}
    origin = grid[(0.0, 0.0)]
    assert origin.decay_rate == math.inf
    assert origin.error is None
    loc = grid[(0.2, 0.0)]
    assert loc.verdict == "localized"
    assert loc.lyapunov > 0.5


def test_phase_scan_extended_side():
    grid = q.phase_scan([0.6], [0.0], [100, 200], 6.0)
    pt = grid[(0.6, 0.0)]
    assert pt.verdict == "extended"
    assert abs(pt.lyapunov) < 0.05


@pytest.mark.parametrize("beta, kwargs, match", [
    (-1.0, {}, "beta"),
    (math.nan, {}, "beta"),
    (6.0, {"theta": math.nan}, "theta"),
    (6.0, {"omega": math.nan}, "omega"),
    (6.0, {"x_hat": 0}, "x_hat"),
    (6.0, {"x_hat": 11}, "x_hat"),
])
def test_phase_scan_rejects_bad_shared_inputs(beta, kwargs, match,
                                              monkeypatch):
    # inputs every point shares are one ValueError, before any point runs
    from quasiloc import analysis

    def refuse(*args):
        raise AssertionError("a grid point ran")

    monkeypatch.setattr(analysis, "single_particle_spectrum", refuse)
    with pytest.raises(ValueError, match=match):
        q.phase_scan([0.1], [0.0], [20, 40], beta, **kwargs)


def test_phase_scan_captures_point_errors(monkeypatch):
    from quasiloc import analysis

    def fix(params, **kwargs):
        if (params.eps, params.U) == (0.2, 0.1):
            raise RuntimeError("injected")
        return q.fix_counterterm(params, **kwargs)

    monkeypatch.setattr(analysis, "fix_counterterm", fix)
    grid = q.phase_scan([0.2], [0.0, 0.1, 0.2], [40], 6.0)
    failed = grid.pop((0.2, 0.1))
    assert failed.verdict == "error"
    assert failed.error == "RuntimeError: injected"
    assert [pt.error for pt in grid.values()] == [None, None]


def test_phase_scan_rejects_empty_sizes():
    with pytest.raises(ValueError, match="L_list"):
        q.phase_scan([0.0, 0.2], [0.0, 0.1], [], 8.0)


def test_phase_scan_does_one_body_work_once_per_eps(monkeypatch):
    # the IPRs and the Lyapunov exponent are U-independent: one spectrum per
    # (eps, L) and one Lyapunov loop per nonzero eps, whatever the U grid
    from quasiloc import analysis

    spectra, loops = [], []

    def spectrum(params):
        spectra.append((params.eps, params.L))
        return q.single_particle_spectrum(params)

    def lyapunov(E, eps, *args):
        loops.append(eps)
        return q.lyapunov_exponent(E, eps, *args)

    monkeypatch.setattr(analysis, "single_particle_spectrum", spectrum)
    monkeypatch.setattr(analysis, "lyapunov_exponent", lyapunov)
    grid = q.phase_scan([0.0, 0.2], [0.0, 0.1, 0.2], [40, 80], 6.0)
    assert len(grid) == 6
    assert [pt.error for pt in grid.values()] == [None] * 6
    assert sorted(spectra) == [(0.0, 40), (0.0, 80), (0.2, 40), (0.2, 80)]
    assert loops == [0.2]


def test_phase_scan_one_body_error_marks_every_U_of_its_eps(monkeypatch):
    from quasiloc import analysis

    diagonalized = []

    def spectrum(params):
        if params.eps == 0.2:
            raise RuntimeError("injected")
        return q.single_particle_spectrum(params)

    def diagonalize(params):
        diagonalized.append(params.eps)
        return q.diagonalize(params)

    monkeypatch.setattr(analysis, "single_particle_spectrum", spectrum)
    monkeypatch.setattr(analysis, "diagonalize", diagonalize)
    grid = q.phase_scan([0.0, 0.2], [0.0, 0.1, 0.2], [40], 6.0)
    for U in (0.0, 0.1, 0.2):
        failed, clean = grid[(0.2, U)], grid[(0.0, U)]
        assert failed.verdict == "error"
        assert failed.error == "RuntimeError: injected"
        assert math.isnan(failed.decay_rate) and math.isnan(failed.lyapunov)
        assert clean.error is None and clean.verdict != "error"
    assert 0.2 not in diagonalized
    assert grid[(0.0, 0.1)].decay_rate == q.phase_scan(
        [0.0], [0.1], [40], 6.0)[(0.0, 0.1)].decay_rate


def test_phase_scan_certifies_once_and_fits_no_eigenvector(monkeypatch):
    # every size and coupling shares one certified frequency, and the scan's
    # IPRs come straight from the eigenvectors, without a per-state xi fit
    from quasiloc import analysis, diophantine, single_particle

    cls = diophantine.DiophantineFrequency
    certify = cls.__dict__["certify"].__func__
    calls = []

    def counted(owner, *args, **kwargs):
        calls.append(args)
        return certify(owner, *args, **kwargs)

    def refuse(eigvec):
        raise AssertionError("phase_scan fitted a localization length")

    monkeypatch.setattr(cls, "certify", classmethod(counted))
    monkeypatch.setattr(single_particle, "eigenstate_localization", refuse)
    # also where analysis would bind the name by importing it
    monkeypatch.setattr(analysis, "eigenstate_localization", refuse,
                        raising=False)
    q.certified_frequency.cache_clear()
    grid = q.phase_scan([0.0, 0.2], [0.0, 0.1], [40, 80], 6.0,
                        omega=q.SILVER_MEAN)
    assert [pt.error for pt in grid.values()] == [None] * 4
    assert calls == [(q.SILVER_MEAN,)]


def test_phase_scan_builds_each_stack_pair_once(monkeypatch):
    # each side of a pair's annihilators depends only on the sector pair,
    # so every read of a scan gets the same objects; the references held
    # here keep a rebuilt side from reusing a freed one's id
    from quasiloc import many_body

    seen = {}
    side_of = many_body._side

    def spy(sec, sec1, side):
        stack = side_of(sec, sec1, side)
        seen.setdefault((sec1.n_sites, sec.n_particles), {}).setdefault(
            side, []).append(stack)
        return stack

    monkeypatch.setattr(many_body, "_side", spy)
    grid = q.phase_scan([0.0, 0.2], [0.0, 0.1], [40, 80], 6.0)
    assert [pt.error for pt in grid.values()] == [None] * 4
    # three of the four points hop or interact, and each reads every pair
    # with terms (at beta = 6 the full sector's weight is below the slab)
    assert sorted(seen) == [(_SCAN_L + 1, n) for n in range(_SCAN_L)]
    for sides in seen.values():
        for stacks in sides.values():
            assert len(stacks) == 3
            assert all(s is stacks[0] for s in stacks)


def coarse_rate(s, sites, window):
    """Reference log-slope of |S| over a short distance window, all sites
    included: the many-body decay rate phase_scan reports."""
    by_d = {}
    for ix, x in enumerate(sites):
        for iy, y in enumerate(sites):
            d = abs(int(x) - int(y))
            if window[0] <= d <= window[1]:
                v = abs(float(s[ix, iy]))
                if v > 1e-14:
                    by_d.setdefault(d, []).append(v)
    if len(by_d) < 2:
        return math.inf
    d_arr = np.array(sorted(by_d), dtype=float)
    logv = np.array([np.mean(np.log(by_d[int(d)])) for d in d_arr])
    slope, _ = np.polyfit(d_arr, logv, 1)
    return -float(slope)


@pytest.mark.parametrize("eps, U", [(0.2, 0.1), (0.4, 0.0)])
def test_phase_scan_rate_matches_coarse_reference(eps, U):
    pt = q.phase_scan([eps], [U], [40], 6.0)[(eps, U)]
    assert pt.error is None
    mb = q.ModelParams(L=_SCAN_L, beta=6.0, eps=eps, U=U)
    spectral = q.diagonalize(mb)
    s = q.equal_time_matrix(spectral, pt.nu)
    ref = coarse_rate(s, mb.sites, (1, 3))
    assert math.isfinite(ref)
    assert pt.decay_rate == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_phase_scan_order_invariant():
    a = q.phase_scan([0.0, 0.2], [0.0], [60], 6.0)
    b = q.phase_scan([0.2, 0.0], [0.0], [60], 6.0)
    for key in a:
        assert a[key].decay_rate == b[key].decay_rate
        assert a[key].median_ipr == b[key].median_ipr
