"""Fixing the counterterm nu so the interacting chain keeps the free filling.

The interacting density at chemical potential mu0 + nu is matched to the
density of the eps = U = 0 reference at mu0.  Since the Hamiltonian commutes
with N, nu enters the grand-canonical weights only through mu, so one spectral
decomposition serves the whole root search: each trial nu reweights the
stored sector blocks, which grow where a trial nu needs more of them.
"""

import math
from dataclasses import dataclass, field, replace

from .many_body import diagonalize, mean_particle_number
from .single_particle import ModelParams, free_density


# bisection steps after the bracket is found; each halves it
_MAX_BISECTIONS = 200


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
        return {
            "eps": self.eps, "U": self.U, "nu": self.nu,
            "target_density": self.target_density,
            "achieved_density": self.achieved_density,
            "iterations": self.iterations, "converged": self.converged,
            "L": self.L, "beta": self.beta,
        }


def _reference_density(params):
    """Filling of the U = 0 chain (same eps) at mu0; the matching target."""
    return free_density(replace(params, U=0.0, nu=0.0))


def fix_counterterm(params, tolerance=1e-6, spectral=None):
    """Solve density(mu0 + nu) = density_free(mu0) for nu by bisection.

    The density is monotone increasing in mu (grand-canonical compressibility
    is a variance), so a sign change brackets the unique root.  The bracket
    starts at +-4 max(|eps|, |U|, 1e-3) and widens geometrically if needed.
    Returns a CountertermResult; params itself is never mutated.
    """
    if not 0.0 < tolerance < math.inf:
        raise ValueError("tolerance must be finite and positive")
    base = params.with_nu(0.0) if params.nu != 0.0 else params
    target = _reference_density(base)
    if spectral is None:
        spectral = diagonalize(base)
    n_sites = base.n_sites

    def objective(nu):
        return mean_particle_number(base.with_nu(nu), spectral) / n_sites \
            - target

    history = []
    f0 = objective(0.0)
    history.append((0.0, f0))
    if abs(f0) <= tolerance:
        # eps = U = 0 (or an accidental exact match): nu = 0 by construction
        return CountertermResult(
            eps=base.eps, U=base.U, nu=0.0, target_density=target,
            achieved_density=target + f0, iterations=0, converged=True,
            L=base.L, beta=base.beta, bracket_history=history)

    width = 4.0 * max(abs(base.eps), abs(base.U), 1e-3)
    lo, hi = -width, width
    flo, fhi = objective(lo), objective(hi)
    history.extend([(lo, flo), (hi, fhi)])
    widenings = 0
    while flo * fhi > 0.0 and widenings < 4:
        lo *= 2.0
        hi *= 2.0
        flo, fhi = objective(lo), objective(hi)
        history.extend([(lo, flo), (hi, fhi)])
        widenings += 1
    if flo * fhi > 0.0:
        raise BracketError(
            f"no sign change of the density objective in [{lo}, {hi}]")

    # density tolerance converted to a nu tolerance through bisection alone;
    # iterate until the objective itself is inside tolerance
    nu = 0.5 * (lo + hi)
    converged = False
    it = 0
    for it in range(1, _MAX_BISECTIONS + 1):
        nu = 0.5 * (lo + hi)
        f = objective(nu)
        history.append((nu, f))
        if abs(f) <= tolerance:
            converged = True
            break
        if flo * f < 0.0:
            hi, fhi = nu, f
        else:
            lo, flo = nu, f
        if hi - lo < 1e-15 * max(1.0, abs(nu)):
            break
    achieved = target + history[-1][1]
    return CountertermResult(
        eps=base.eps, U=base.U, nu=float(nu), target_density=target,
        achieved_density=achieved, iterations=it, converged=converged,
        L=base.L, beta=base.beta, bracket_history=history)


def counterterm_grid(L, beta, eps_values, U_values, tolerance=1e-6, **kwargs):
    """fix_counterterm over the (eps, U) product grid; one diagonalization each."""
    results = {}
    for eps in sorted(set(float(e) for e in eps_values)):
        for U in sorted(set(float(u) for u in U_values)):
            params = ModelParams(L=L, beta=beta, eps=eps, U=U, **kwargs)
            results[(eps, U)] = fix_counterterm(params, tolerance=tolerance)
    return results

