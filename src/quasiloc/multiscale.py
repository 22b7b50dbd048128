"""Scale decomposition of the propagator around the two singular momenta.

The free denominator -i k0 + phi_x - mu vanishes only near the pair of points
x_bar_+ = x_hat and x_bar_- = -x_hat - 2 theta / omega.  A family of smooth
cutoffs chi_h on r = sqrt(k0^2 + v0^2 ||omega x'||^2) slices the neighborhood
of each point into geometric annuli; the single-scale propagators obtained by
filtering with f_h = chi_h - chi_{h-1} decay on the time scale gamma^{-h}.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .cutoffs import smooth_cutoff
from .diophantine import DiophantineFrequency, torus_norm


class ScaleConfigurationError(ValueError):
    """Cutoff supports around the two singular points must stay disjoint."""


class QuadratureError(RuntimeError):
    def __init__(self, message, residual):
        super().__init__(f"{message} (residual estimate {residual:.3e})")
        self.residual = residual


class ZeroDivisorError(ZeroDivisionError):
    def __init__(self, site):
        super().__init__(f"exact zero divisor at site x = {site}")
        self.site = site


@dataclass(frozen=True)
class ScaleFamily:
    """Multiscale cutoff system: ratio gamma, support constant a, deepest scale h_min."""
    omega: float
    theta: float
    x_hat: int
    u: float
    tau: float
    gamma: float
    a: float
    v0: float
    h_min: int
    x_bar_plus: float
    x_bar_minus: float

    def __post_init__(self):
        if self.gamma ** (1.0 / self.tau) / 2.0 <= 1.0:
            raise ScaleConfigurationError(
                "need gamma^(1/tau)/2 > 1 for the scale/path-length tradeoff")
        sep = self.v0 * torus_norm(self.omega * (self.x_bar_plus - self.x_bar_minus))
        if not 0.0 < self.a < 0.5 * sep:
            raise ScaleConfigurationError(
                f"a = {self.a} violates support disjointness (need a < {0.5 * sep})")

    @classmethod
    def build(cls, omega, theta, x_hat, u=1.0, tau=1.5, gamma=None, h_min=-10,
              safety=0.5):
        """Derive v0, the singular pair and a disjointness-safe a from the model data.

        Default gamma = 2^(2 tau); a is the largest disjoint value times safety.
        """
        if isinstance(omega, DiophantineFrequency):
            if tau is None:
                tau = omega.tau
            omega = omega.omega
        if theta == 0.0 or x_hat == 0:
            raise ValueError("x_hat and theta must be non-vanishing")
        if gamma is None:
            gamma = 2.0 ** (2.0 * tau)
        v0 = math.sin(2.0 * math.pi * (omega * x_hat + theta))
        if v0 == 0.0:
            raise ValueError("v0 = sin 2 pi (omega x_hat + theta) vanishes")
        v0 = abs(v0)
        x_bar_plus = float(x_hat)
        x_bar_minus = -float(x_hat) - 2.0 * theta / omega
        sep = v0 * torus_norm(omega * (x_bar_plus - x_bar_minus))
        if sep == 0.0:
            raise ScaleConfigurationError(
                "singular points coincide on the torus (2 theta / omega integer)")
        return cls(omega=omega, theta=theta, x_hat=x_hat, u=u, tau=tau,
                   gamma=gamma, a=safety * 0.5 * sep, v0=v0, h_min=h_min,
                   x_bar_plus=x_bar_plus, x_bar_minus=x_bar_minus)

    @property
    def mu0(self):
        return self.u * math.cos(2.0 * math.pi * (self.omega * self.x_hat + self.theta))

    def x_bar(self, rho):
        return self.x_bar_plus if rho > 0 else self.x_bar_minus

    def radius(self, t, k0):
        return np.hypot(k0, self.v0 * torus_norm(t))


def chi_h(family, t, k0, h):
    """Smooth cutoff: 1 for r <= a gamma^(h-1), 0 for r >= a gamma^h, even in (t, k0)."""
    if h > 0:
        raise ValueError("chi_h is defined for h <= 0")
    return _chi_of_radius(family, family.radius(t, k0), h)


def _chi_of_radius(family, r, h):
    """chi_h at radius r = sqrt(k0^2 + v0^2 ||omega x'||^2)."""
    return smooth_cutoff(r / (family.a * family.gamma ** (h - 1)), family.gamma)


def f_h(family, t, k0, h):
    """Single-scale slice chi_h - chi_{h-1}, supported in the scale-h annulus."""
    return chi_h(family, t, k0, h) - chi_h(family, t, k0, h - 1)


def chi_ultraviolet(family, omega_x, k0):
    """chi^(1) = 1 - chi_0 around x_bar_+ - chi_0 around x_bar_-, for x on the lattice.

    omega_x is omega times the physical site x (not the shifted x').
    """
    cp = chi_h(family, omega_x - family.omega * family.x_bar_plus, k0, 0)
    cm = chi_h(family, omega_x - family.omega * family.x_bar_minus, k0, 0)
    return 1.0 - cp - cm


def partition_of_unity_check(family, x_values, k0_values):
    """Max residual of chi^(1) + chi_0(+) + chi_0(-) - 1 over the grid.

    Also verifies the two infrared supports never overlap; overlapping supports
    mean a is too large and raise ScaleConfigurationError.
    """
    x = np.asarray(x_values, dtype=float)[:, None]
    k0 = np.asarray(k0_values, dtype=float)[None, :]
    cp = chi_h(family, family.omega * (x - family.x_bar_plus), k0, 0)
    cm = chi_h(family, family.omega * (x - family.x_bar_minus), k0, 0)
    overlap = np.argwhere((cp > 0.0) & (cm > 0.0))
    if overlap.size:
        i, j = overlap[0]
        raise ScaleConfigurationError(
            f"chi_0 supports overlap at x = {x[i, 0]}, k0 = {k0[0, j]}")
    c1 = chi_ultraviolet(family, family.omega * x, k0)
    return float(np.max(np.abs(c1 + cp + cm - 1.0), initial=0.0))


def telescoping_residual(family, t_values, k0_values, h_star):
    """Max residual of sum_{h_star < h <= 0} f_h - (chi_0 - chi_{h_star})."""
    t = np.asarray(t_values, dtype=float)[:, None]
    k0 = np.asarray(k0_values, dtype=float)[None, :]
    total = sum(f_h(family, t, k0, h) for h in range(h_star + 1, 1))
    target = chi_h(family, t, k0, 0) - chi_h(family, t, k0, h_star)
    return float(np.max(np.abs(total - target), initial=0.0))


def _denominator(family, rho, delta, linearized):
    """phi at x' + x_bar_rho minus mu0; optionally the linearized small divisor.

    delta is the signed fractional part of omega x'; passing it exactly
    matters for very large x', where the float product has lost it.
    """
    if linearized:
        return family.v0 * (1.0 if rho > 0 else -1.0) * delta
    # cos A - cos B = -2 sin((A+B)/2) sin((A-B)/2), exact in the tiny delta
    z = family.omega * family.x_hat + family.theta
    if rho > 0:
        return -2.0 * family.u * math.sin(math.pi * (2.0 * z + delta)) \
            * math.sin(math.pi * delta)
    return 2.0 * family.u * math.sin(math.pi * (2.0 * z - delta)) \
        * math.sin(math.pi * delta)


# Gauss-Legendre sub-panels per scale interval and nodes per sub-panel.  The
# integrand is C-infinity in k0 and each scale holds a fixed number of its
# oscillations at the surveyed times gamma^(-h), so one rule serves every h.
_PANELS = 4
_ORDER = 16
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(_ORDER)


def _gauss_legendre(integrand, edges, panels):
    """Composite Gauss-Legendre with `panels` equal sub-panels per interval."""
    cuts = edges[:-1, None] + np.diff(edges)[:, None] \
        * np.linspace(0.0, 1.0, panels + 1)
    lo, hi = cuts[:, :-1].ravel(), cuts[:, 1:].ravel()
    half = 0.5 * (hi - lo)[:, None]
    k0 = 0.5 * (lo + hi)[:, None] + half * _NODES
    return float(np.sum(half * _WEIGHTS * integrand(k0)))


def _band(family, rho, x_prime, t, h_low, h_high, linearized, delta):
    """The chi_{h_high} - chi_{h_low} filtered inverse of -i k0 + (phi - mu0).

    Pairing k0 with -k0 leaves the real integrand
    2 (chi_{h_high} - chi_{h_low}) (d cos t k0 + k0 sin t k0) / (k0^2 + d^2)
    on the k0 window of the band, and 0 when omega x' lies outside the band.
    The window splits at the scale radii a gamma^j, j = h_low - 1 .. h_high,
    and each scale takes a fixed composite Gauss-Legendre rule; the same rule
    on twice the sub-panels estimates its error.  A band that misses the
    1e-6 gate (a time far beyond gamma^(-h)) goes to adaptive quad with the
    scale radii as breakpoints, and raises QuadratureError if that misses it
    too.
    """
    if delta is None:
        delta = family.omega * x_prime
        delta -= round(delta)
    q = family.v0 * abs(delta)
    if q >= family.a * family.gamma ** h_high:
        return 0.0
    d = _denominator(family, rho, delta, linearized)
    radii = np.array([family.a * family.gamma ** j
                      for j in range(h_low - 1, h_high + 1)])
    # radii inside q map to k0 = 0; unique drops the empty intervals
    edges = np.unique(np.sqrt(np.maximum(radii ** 2 - q ** 2, 0.0)))

    def integrand(k0):
        # |delta| <= 1/2, so q is v0 ||omega x'|| and r is family.radius
        r = np.hypot(k0, q)
        w = _chi_of_radius(family, r, h_high) \
            - _chi_of_radius(family, r, h_low)
        return 2.0 * w * (d * np.cos(t * k0) + k0 * np.sin(t * k0)) \
            / (k0 * k0 + d * d)

    coarse = _gauss_legendre(integrand, edges, _PANELS)
    total = _gauss_legendre(integrand, edges, 2 * _PANELS)
    err = abs(total - coarse)
    # |g| = O(1) uniformly in h, so an absolute gate is meaningful
    if err > 1e-6 * max(1.0, abs(total)):
        total, err = quad(integrand, edges[0], edges[-1], points=edges[1:-1],
                          epsabs=0.0, epsrel=1e-8, limit=400)
        if err > 1e-6 * max(1.0, abs(total)):
            raise QuadratureError("band quadrature did not converge", err)
    return total


def single_scale_propagator(family, rho, x_prime, t, h, linearized=False,
                            delta=None):
    """g^(h)_rho(x', t): the f_h-filtered inverse of -i k0 + (phi - mu0) at beta = infinity.

    The band (h - 1, h), since f_h = chi_h - chi_{h-1}.  Real by the joint
    (t, k0) -> (-t, -k0) evenness of f_h.  delta optionally supplies the
    exact signed fractional part of omega x_prime.
    """
    if h > 0:
        raise ValueError("single-scale propagators carry h <= 0")
    return _band(family, rho, x_prime, t, h - 1, h, linearized, delta)


def filtered_propagator(family, rho, x_prime, t, h_low, h_high=0,
                        linearized=False, delta=None):
    """Propagator filtered with chi_{h_high} - chi_{h_low} (telescoped band)."""
    if not h_low < h_high <= 0:
        raise ValueError("a band needs h_low < h_high <= 0")
    return _band(family, rho, x_prime, t, h_low, h_high, linearized, delta)


def _annulus_candidates(family, h, multiples=(1, 2, 3)):
    """(x', signed fractional part of omega x') samples for the scale-h annulus.

    x' = 0 always qualifies (its k0 window is never empty).  Nonzero
    candidates are small multiples of the exact convergent denominators of
    omega: the only integers reaching the tiny ||omega x'|| a deep scale
    needs, with the multiples filling the gaps between convergents.  The
    fractional parts come from integer arithmetic on the rational double, so
    they stay meaningful far beyond the float-product range.
    """
    from .diophantine import (exact_convergent_denominators,
                              exact_fractional_part)

    r_hi = family.a * family.gamma ** h
    r_floor = r_hi / family.gamma ** 3
    out = [(0, 0.0)]
    for q, delta in exact_convergent_denominators(family.omega, 10 ** 15):
        if family.v0 * abs(delta) >= r_hi:
            continue
        for m in multiples:
            d = m * delta if abs(m * delta) < 0.4 \
                else exact_fractional_part(family.omega, m * q)
            if r_floor <= family.v0 * abs(d) < r_hi:
                out.append((m * q, d))
        if family.v0 * abs(delta) < r_floor / family.gamma:
            break
    return out


# branch of the singular point scale_decay_constants surveys
_SURVEY_RHO = 1


def scale_decay_constants(family, h, powers=(1, 2, 3),
                          t_multipliers=(0.0, 0.5, 1.0, 2.0, 4.0, 8.0)):
    """Empirical C_N = sup over sampled (x', t) of |g^(h)| (1 + (gamma^h |t|)^N).

    Times scale as gamma^(-h) so the sampled decade tracks the natural time
    scale of the slice; the survey samples the rho = _SURVEY_RHO branch.
    Returns (sup |g|, {N: C_N}).
    """
    sup_g = 0.0
    cn = {int(n): 0.0 for n in powers}
    t_scale = family.gamma ** (-h)
    for x_prime, delta in _annulus_candidates(family, h):
        for m in t_multipliers:
            t = m * t_scale
            g = abs(single_scale_propagator(family, _SURVEY_RHO, x_prime, t, h,
                                            delta=delta))
            sup_g = max(sup_g, g)
            for n in powers:
                cn[int(n)] = max(cn[int(n)],
                                 g * (1.0 + (family.gamma ** h * t) ** n))
    return sup_g, cn


def chain_graph_value(params, alphas, x1, k0):
    """Value of one chain graph and its per-step divisor magnitudes.

    alphas are hops (+1/-1) and 0 for local insertions; the value is the
    product over the visited sites of 1 / (-i k0 + phi_x - mu) starting at
    x1 + alphas[0].  Returns (complex value, list of divisor magnitudes).
    """
    half = params.L // 2
    mu = params.mu
    value = complex(1.0, 0.0)
    magnitudes = []
    x = x1
    for a in alphas:
        if a not in (-1, 0, 1):
            raise ValueError("hops must be -1, 0 or +1")
        x += a
        if abs(x) > half:
            raise ValueError(f"chain leaves the lattice at x = {x}")
        phi = params.u * math.cos(
            2.0 * math.pi * (params.omega_value * x + params.theta))
        den = complex(phi - mu, -k0)
        if den == 0:
            raise ZeroDivisorError(x)
        magnitudes.append(abs(den))
        value /= den
    return value, magnitudes
