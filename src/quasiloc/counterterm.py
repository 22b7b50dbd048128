"""Fixing the counterterm nu so the interacting chain keeps the free filling.

The interacting density at chemical potential mu0 + nu is matched to the
density of the eps = U = 0 reference at mu0.  Since the Hamiltonian commutes
with N, nu enters the grand-canonical weights only through mu, so one spectral
decomposition serves the whole root search: each trial nu reweights the
stored sector blocks, which grow where a trial nu needs more of them.
"""

import math
from dataclasses import dataclass, field, fields, replace

from .many_body import diagonalize, mean_particle_number
from .single_particle import free_density


class BracketError(RuntimeError):
    """The density objective could not be bracketed around zero."""


@dataclass
class CountertermResult:
    eps: float
    U: float
    nu: float
    target_density: float
    achieved_density: float
    iterations: int
    converged: bool
    L: int
    beta: float
    bracket_history: list = field(default_factory=list, repr=False)

    def to_dict(self):
        """Every field but bracket_history, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "bracket_history"}


def _reference_density(params):
    """Filling of the U = 0 chain (same eps) at mu0; the matching target."""
    return free_density(replace(params, U=0.0, nu=0.0))


# Brent's method as scipy.optimize.brentq runs it: relative tolerance and
# iteration cap of its defaults
_BRENT_RTOL = 4.0 * math.ulp(1.0)
_BRENT_MAXITER = 100


def _brentq(f, a, b, fa, fb, xtol):
    """Root of f in [a, b] from the values fa = f(a) and fb = f(b) already
    read: (root, iterations, converged).

    Step for step the Brent iteration of scipy.optimize.brentq (Brent 1973,
    ch. 4), so it returns the same root bits, iterations and convergence
    flag while calling f twice fewer.  An end where f is exactly zero is the
    root after 1 iteration.  Raises ValueError on a NaN value or on ends of
    one sign, as brentq does.
    """
    if math.isnan(fa) or math.isnan(fb):
        raise ValueError("the objective is NaN at a bracket end")
    if fa == 0.0:
        return a, 1, True
    if fb == 0.0:
        return b, 1, True
    if (fa < 0.0) == (fb < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xpre, xcur, fpre, fcur = a, b, fa, fb
    xblk = fblk = spre = scur = 0.0
    for iteration in range(1, _BRENT_MAXITER + 1):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, iteration, True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) \
                    / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
        if math.isnan(fcur):
            raise ValueError(f"the objective is NaN at {xcur}")
    return xcur, _BRENT_MAXITER, False


def fix_counterterm(params, tolerance=1e-10, spectral=None):
    """Solve density(mu0 + nu) = density_free(mu0) for nu to within
    `tolerance` on nu (the xtol of Brent's method).

    U = 0 returns nu = 0.0 without iterating: the free chain is its own
    reference.  Otherwise the density is monotone increasing in mu
    (grand-canonical compressibility is a variance), so the sign of the
    objective at nu = 0 says on which side the unique root lies.  The bracket
    [0, end] starts at |end| = tolerance and grows by factors of 4 until the
    objective changes sign, so every read lands within about 4 |nu| of mu0;
    BracketError once |end| reaches 64 max(|eps|, |U|, 1e-3).  A spectral
    decomposition passed in must be of params up to nu.  Returns a
    CountertermResult; params itself is never mutated.
    """
    if not 0.0 < tolerance < math.inf:
        raise ValueError("tolerance must be finite and positive")
    base = params.with_nu(0.0) if params.nu != 0.0 else params
    target = _reference_density(base)
    if spectral is None:
        spectral = diagonalize(base)
    elif spectral.params.with_nu(0.0) != base:
        raise ValueError("params differ from those of the spectral "
                         "decomposition")
    n_sites = base.n_sites
    history = []

    def objective(nu):
        f = mean_particle_number(spectral, nu) / n_sites - target
        history.append((nu, f))
        return f

    def result(nu, iterations, converged):
        # every nu returned here has been read
        return CountertermResult(
            eps=base.eps, U=base.U, nu=float(nu), target_density=target,
            achieved_density=target + dict(history)[nu],
            iterations=iterations, converged=converged, L=base.L,
            beta=base.beta, bracket_history=history)

    f0 = objective(0.0)
    if base.U == 0.0:
        return result(0.0, 0, True)

    limit = 64.0 * max(abs(base.eps), abs(base.U), 1e-3)
    end = math.copysign(tolerance, -f0)
    f_end = objective(end)
    while f0 * f_end > 0.0:
        if abs(end) >= limit:
            raise BracketError(
                f"no sign change of the density objective in [0, {end}]")
        end = math.copysign(min(4.0 * abs(end), limit), end)
        f_end = objective(end)
    return result(*_brentq(objective, 0.0, end, f0, f_end, tolerance))


def counterterm_grid(params, eps_values, U_values, tolerance=1e-10):
    """fix_counterterm at every (eps, U) of the product grid, the other
    parameters from params; one diagonalization each."""
    results = {}
    for eps in sorted(set(float(e) for e in eps_values)):
        for U in sorted(set(float(u) for u in U_values)):
            results[(eps, U)] = fix_counterterm(
                replace(params, eps=eps, U=U), tolerance=tolerance)
    return results
