"""Fixing the counterterm nu so the interacting chain keeps the free filling.

The interacting density at chemical potential mu0 + nu is matched to the
density of the eps = U = 0 reference at mu0.  Since the Hamiltonian commutes
with N, nu enters the grand-canonical weights only through mu, so one spectral
decomposition serves the whole root search: each trial nu reweights the
stored sector blocks, which grow where a trial nu needs more of them.
"""

import math
from dataclasses import dataclass, field, fields, replace

from scipy.optimize import brentq

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


def fix_counterterm(params, tolerance=1e-10, spectral=None):
    """Solve density(mu0 + nu) = density_free(mu0) for nu to within
    `tolerance` on nu (brentq's xtol).

    U = 0 returns nu = 0.0 without iterating: the free chain is its own
    reference.  Otherwise the density is monotone increasing in mu
    (grand-canonical compressibility is a variance), so the sign of the
    objective at nu = 0 says on which side the unique root lies.  The bracket
    [0, end] starts at |end| = tolerance and grows by factors of 4 until the
    objective changes sign, so every read lands within about 4 |nu| of mu0;
    BracketError once |end| reaches 64 max(|eps|, |U|, 1e-3).  Returns a
    CountertermResult; params itself is never mutated.
    """
    if not 0.0 < tolerance < math.inf:
        raise ValueError("tolerance must be finite and positive")
    base = params.with_nu(0.0) if params.nu != 0.0 else params
    target = _reference_density(base)
    if spectral is None:
        spectral = diagonalize(base)
    n_sites = base.n_sites
    history = []

    def objective(nu):
        f = mean_particle_number(base.with_nu(nu), spectral) / n_sites - target
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
    while f0 * objective(end) > 0.0:
        if abs(end) >= limit:
            raise BracketError(
                f"no sign change of the density objective in [0, {end}]")
        end = math.copysign(min(4.0 * abs(end), limit), end)
    nu, info = brentq(objective, 0.0, end, xtol=tolerance, full_output=True,
                      disp=False)
    return result(nu, info.iterations, info.converged)


def counterterm_grid(params, eps_values, U_values, tolerance=1e-10):
    """fix_counterterm at every (eps, U) of the product grid, the other
    parameters from params; one diagonalization each."""
    results = {}
    for eps in sorted(set(float(e) for e in eps_values)):
        for U in sorted(set(float(u) for u in U_values)):
            results[(eps, U)] = fix_counterterm(
                replace(params, eps=eps, U=U), tolerance=tolerance)
    return results
