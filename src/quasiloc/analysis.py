"""Decay-rate extraction and coarse phase diagnostics.

In the localized phase the equal-time two-point function decays exponentially
in |x - y| with a rate at least |log max(|eps|, |U|)| up to a power of a
logarithmic correction.  fit_spatial_decay extracts that rate from sampled
correlation data, and phase_scan combines one-body and many-body
indicators over a coupling grid.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .diophantine import GOLDEN_MEAN
from .single_particle import (ModelParams, lyapunov_exponent,
                              single_particle_spectrum)
from .many_body import diagonalize, equal_time_matrix
from .counterterm import fix_counterterm

# fit_spatial_decay drops pairs this close to either open end
_FIT_EXCLUSION = 2
# phase_scan's many-body indicator: the chain size, and the distances of its
# coarse decay rate, which must resolve at least 2 of them (fit_spatial_decay
# asks for 4)
_SCAN_L = 8
_SCAN_WINDOW = (1, 3)
# transfer matrices per Lyapunov exponent in phase_scan
_LYAPUNOV_STEPS = 20000


class FitError(RuntimeError):
    """Too little usable data for a meaningful decay fit."""


@dataclass
class DecayFit:
    """Least-squares exponential decay fit of the equal-time correlation."""
    rate: float
    xi_fit: float
    prefactor: float
    r_squared: float
    window: tuple
    theorem_rate: float
    n_points: int


def _log_correction(x, y, tau):
    """Divisor (log(1 + m))^tau with m = max(min(|x|, |y|), 1), never zero."""
    m = max(min(abs(x), abs(y)), 1)
    return math.log(1.0 + m) ** tau


def _log_profile(s, sites, window, exclusion, tau=None):
    """Mean log |S(x, y)| per distance |x - y| in the window.

    Pairs within `exclusion` sites of either open end are dropped.  With tau,
    each |S| is first divided by the log correction (log(1 + m))^tau.  Values
    at or below 1e-14 are left out.  Returns (distances, mean logs), both
    ascending in distance; a distance with no usable pair is absent.
    """
    half = (sites.size - 1) // 2
    by_distance = {}
    for ix, x in enumerate(sites):
        if abs(x) > half - exclusion:
            continue
        for iy, y in enumerate(sites):
            if abs(y) > half - exclusion:
                continue
            d = abs(int(x) - int(y))
            if not window[0] <= d <= window[1]:
                continue
            v = abs(float(s[ix, iy]))
            if tau is not None:
                v /= _log_correction(x, y, tau)
            if v > 1e-14:
                by_distance.setdefault(d, []).append(v)
    d_arr = np.array(sorted(by_distance), dtype=float)
    logv = np.array([np.mean(np.log(by_distance[int(d)])) for d in d_arr])
    return d_arr, logv


def fit_spatial_decay(corr, window=(2, 8)):
    """Fit log |S2(x, y; 0)| against |x - y| over the distance window.

    The logarithmic correction factor (log(1 + m))^tau, with tau the
    Diophantine exponent of corr.params.omega, is divided out before
    fitting.  Pairs within _FIT_EXCLUSION sites of either open end are
    dropped; values per distance are averaged in log.  theorem_rate is
    |log max(|eps|, |U|)| with the couplings of corr.params.  ValueError
    unless 0 <= window[0] <= window[1].
    """
    if not 0 <= window[0] <= window[1]:
        raise ValueError(f"fit window {tuple(window)} needs 0 <= lo <= hi")
    p = corr.params
    cmax = max(abs(p.eps), abs(p.U))
    theorem_rate = abs(math.log(cmax)) if 0.0 < cmax < 1.0 else math.inf

    d_arr, logv = _log_profile(corr.at_time(0.0), p.sites, window,
                               _FIT_EXCLUSION, p.omega.tau)
    if d_arr.size == 0:
        raise FitError("off-diagonal identically zero in the fit window")
    if d_arr.size < 4:
        raise FitError(
            f"only {d_arr.size} usable distances in window {window}")
    slope, intercept = np.polyfit(d_arr, logv, 1)
    pred = slope * d_arr + intercept
    ss_res = float(np.sum((logv - pred) ** 2))
    ss_tot = float(np.sum((logv - np.mean(logv)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 0.0
    rate = -float(slope)
    return DecayFit(rate=rate, xi_fit=1.0 / rate if rate > 0.0 else math.inf,
                    prefactor=float(np.exp(intercept)), r_squared=r2,
                    window=tuple(window), theorem_rate=theorem_rate,
                    n_points=int(d_arr.size))


@dataclass
class PhasePoint:
    """Diagnostics of one (eps, U) coupling point."""
    eps: float
    U: float
    median_ipr: dict          # L -> median inverse participation ratio
    lyapunov: float
    decay_rate: float
    nu: float
    verdict: str
    error: str = None


def _ipr_verdict(median_ipr):
    """IPR (L+1) growing with L means localized (IPR is L-independent);
    IPR (L+1) roughly constant means extended.  The geometric midpoint of the
    size ratio separates the two regimes; points within 15% of it are left
    unresolved."""
    sizes = sorted(median_ipr)
    if len(sizes) < 2:
        return "unresolved"
    small = median_ipr[sizes[0]] * (sizes[0] + 1)
    large = median_ipr[sizes[-1]] * (sizes[-1] + 1)
    growth = (sizes[-1] + 1) / (sizes[0] + 1)
    ratio = large / small
    mid = math.sqrt(growth)
    if ratio > 1.15 * mid:
        return "localized"
    if ratio < 0.85 * mid:
        return "extended"
    return "unresolved"


def phase_scan(eps_values, U_values, L_list, beta, *, omega=GOLDEN_MEAN,
               theta=0.2377, x_hat=2):
    """Coarse phase diagnostics over the (eps, U) grid.

    Per eps, the one-body indicators at U = 0: the single-particle median IPR
    at each L in L_list and the Lyapunov exponent at a mid-spectrum energy.
    Per (eps, U), the many-body indicator: the equal-time decay rate over
    distances _SCAN_WINDOW, all sites included, at size _SCAN_L with the
    counterterm fixed.  eps = 0 has no transfer matrix and U = eps = 0 has
    exactly zero off-diagonal correlations; both get infinite-rate
    sentinels, as does a decay rate with fewer than 2 resolved distances.
    Errors are captured in the records instead of aborting the scan: one
    at a point in its record, one in the one-body part of an eps in every
    record of that eps.  An empty L_list, or a shared input (beta, omega,
    theta, x_hat or a size of L_list) that ModelParams rejects, raises
    ValueError before any point is computed.
    """
    sizes = sorted(set(int(v) for v in L_list))
    if not sizes:
        raise ValueError("L_list must name at least one size")
    base = ModelParams(L=_SCAN_L, beta=beta, omega=omega, theta=theta,
                       x_hat=x_hat)
    for L in sizes:
        replace(base, L=L)  # x_hat must lie in every lattice of L_list too
    U_grid = sorted(set(float(u) for u in U_values))
    grid = {}
    for eps in sorted(set(float(e) for e in eps_values)):
        try:
            median_ipr, lam = _one_body_point(replace(base, eps=eps), sizes)
        except Exception as exc:  # keep scanning the other eps
            error = f"{type(exc).__name__}: {exc}"
            for U in U_grid:
                grid[(eps, U)] = _error_point(eps, U, error)
            continue
        for U in U_grid:
            try:
                grid[(eps, U)] = _scan_point(replace(base, eps=eps, U=U),
                                             median_ipr, lam)
            except Exception as exc:  # keep scanning the rest of the grid
                grid[(eps, U)] = _error_point(
                    eps, U, f"{type(exc).__name__}: {exc}")
    return grid


def _error_point(eps, U, error):
    return PhasePoint(eps=eps, U=U, median_ipr={}, lyapunov=math.nan,
                      decay_rate=math.nan, nu=math.nan, verdict="error",
                      error=error)


def _one_body_point(params, sizes):
    """Median IPR per size and the Lyapunov exponent of params.eps at U = 0.

    The IPR of an eigenvector is the sum of its entries to the fourth power,
    taken as two squarings in place: `evecs ** 4` goes through the C
    library's `pow` entry by entry, many times slower than a multiplication.
    """
    median_ipr = {}
    mid_energy = 0.0
    for L in sizes:
        evals, evecs = single_particle_spectrum(replace(params, L=L))
        sq = evecs * evecs
        np.multiply(sq, sq, out=sq)
        median_ipr[L] = float(np.median(np.sum(sq, axis=0)))
        mid_energy = float(np.median(evals))

    if params.eps == 0.0:
        return median_ipr, math.inf  # no hopping: every state is a single site
    # at a mid-spectrum eigenvalue: mu0 itself may sit in a gap of the
    # Cantor spectrum, where the exponent stays positive even in the
    # extended phase
    return median_ipr, lyapunov_exponent(mid_energy, params.eps, params.u,
                                         params.omega_value, params.theta,
                                         _LYAPUNOV_STEPS)


def _scan_point(mb, median_ipr, lam):
    """The (eps, U) record of mb: the many-body decay rate and nu, and the
    verdict from the one-body indicators of its eps."""
    eps, U = mb.eps, mb.U
    nu, rate = 0.0, math.inf
    if eps != 0.0 or U != 0.0:
        spectral = diagonalize(mb)
        nu = fix_counterterm(mb, spectral=spectral).nu
        s = equal_time_matrix(spectral, nu)
        d_arr, logv = _log_profile(s, mb.sites, _SCAN_WINDOW, 0)
        if d_arr.size >= 2:
            rate = -float(np.polyfit(d_arr, logv, 1)[0])

    verdict = _ipr_verdict(median_ipr)
    finite_size_gap = 2.0 * math.pi / (max(median_ipr) + 1)
    if eps > 0.0 and abs(lam) < finite_size_gap and verdict == "localized":
        verdict = "unresolved"  # exponent below the finite-size resolution
    return PhasePoint(eps=eps, U=U, median_ipr=dict(median_ipr), lyapunov=lam,
                      decay_rate=rate, nu=nu, verdict=verdict)
