"""Scale decomposition of the propagator around the two singular momenta.

The free denominator -i k0 + phi_x - mu vanishes only near the pair of points
x_bar_+ = x_hat and x_bar_- = -x_hat - 2 theta / omega.  A family of smooth
cutoffs chi_h on r = sqrt(k0^2 + v0^2 ||omega x'||^2) slices the neighborhood
of each point into geometric annuli; the single-scale propagators obtained by
filtering with f_h = chi_h - chi_{h-1} decay on the time scale gamma^{-h}.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import diophantine
from .cutoffs import smooth_cutoff
from .diophantine import torus_norm


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
        if self.h_min > 0:
            raise ScaleConfigurationError("chi_h is defined only for h <= 0")
        if not (math.isfinite(self.gamma) and math.isfinite(self.tau)):
            raise ScaleConfigurationError("gamma and tau must be finite")
        if self.gamma ** (1.0 / self.tau) / 2.0 <= 1.0:
            raise ScaleConfigurationError(
                "need gamma^(1/tau)/2 > 1 for the scale/path-length tradeoff")
        sep = self.v0 * torus_norm(self.omega * (self.x_bar_plus - self.x_bar_minus))
        if not 0.0 < self.a < 0.5 * sep:
            raise ScaleConfigurationError(
                f"a = {self.a} violates support disjointness (need a < {0.5 * sep})")

    @classmethod
    def build(cls, omega, theta, x_hat, tau=1.5, gamma=None, h_min=-10):
        """Derive v0, the singular pair and a disjointness-safe a from the model data.

        The potential amplitude u is 1.  Default gamma = 2^(2 tau); a is half
        the largest disjoint value.
        """
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
        return cls(omega=omega, theta=theta, x_hat=x_hat, u=1.0, tau=tau,
                   gamma=gamma, a=0.25 * sep, v0=v0, h_min=h_min,
                   x_bar_plus=x_bar_plus, x_bar_minus=x_bar_minus)

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


def _denominator(family, rho, delta):
    """phi at x' + x_bar_rho minus mu0.

    delta is the signed fractional part of omega x'; passing it exactly
    matters for very large x', where the float product has lost it.
    """
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
    """Composite Gauss-Legendre with `panels` equal sub-panels per interval.

    edges holds one row of interval ends per site, shape (sites, ends).
    integrand takes the k0 nodes, shape (sites, nodes, _ORDER), and may put
    leading axes (the sample times) in front of them; the sum runs over the
    two node axes only, so the result has shape (..., sites).
    """
    cuts = edges[:, :-1, None] + np.diff(edges)[:, :, None] \
        * np.linspace(0.0, 1.0, panels + 1)
    lo = cuts[:, :, :-1].reshape(len(edges), -1)
    hi = cuts[:, :, 1:].reshape(len(edges), -1)
    half = 0.5 * (hi - lo)[:, :, None]
    k0 = 0.5 * (lo + hi)[:, :, None] + half * _NODES
    terms = half * _WEIGHTS * integrand(k0)
    return np.sum(terms.reshape(*terms.shape[:-2], -1), axis=-1)


def filtered_propagator(family, rho, x_prime, t, h_low, h_high, delta=None):
    """The chi_{h_high} - chi_{h_low} filtered inverse of -i k0 + (phi - mu0),
    for h_low < h_high <= 0, at each site x_prime and each time t.

    Pairing k0 with -k0 leaves the real integrand
    2 (chi_{h_high} - chi_{h_low}) (d cos t k0 + k0 sin t k0) / (k0^2 + d^2)
    on the k0 window of the band, and 0 when omega x' lies outside the band.
    The window splits at the scale radii a gamma^j, j = h_low - 1 .. h_high,
    and each scale takes a fixed composite Gauss-Legendre rule; the same rule
    on twice the sub-panels estimates its error.  The nodes, the divisor d
    and the cutoff weight depend only on the site, and only cos t k0 and
    sin t k0 on the time, so one node array serves all times and every site
    whose window splits at the same radii.  A value that misses the 1e-6
    gate (a time far beyond gamma^(-h)) goes to adaptive quad with the scale
    radii as breakpoints, one call per such (site, time), and raises
    QuadratureError if that misses it too.  x_prime and t are each a scalar
    or a 1-D array, and delta optionally supplies the exact signed
    fractional part of omega x_prime, with the shape of x_prime.  The result
    has shape x_prime.shape + t.shape, a float when both are scalars.
    """
    if not h_low < h_high <= 0:
        raise ValueError("a band needs h_low < h_high <= 0")
    times = np.asarray(t, dtype=float)
    if delta is None:
        delta = family.omega * np.asarray(x_prime, dtype=float)
        delta -= np.round(delta)
    deltas = np.broadcast_to(np.asarray(delta, dtype=float),
                             np.shape(x_prime)).reshape(-1)
    q = family.v0 * np.abs(deltas)
    out = np.zeros((deltas.size, times.size))
    inside = np.flatnonzero(q < family.a * family.gamma ** h_high)
    if inside.size:
        out[inside] = _band(family, rho, deltas[inside], times.reshape(-1),
                            h_low, h_high).T
    result = out.reshape(np.shape(x_prime) + times.shape)
    return float(result) if result.ndim == 0 else result


def _quad(*args, **kwargs):
    """scipy.integrate.quad, imported on the first escalation: no command
    that stays on the fixed rule loads scipy.integrate."""
    from scipy.integrate import quad as adaptive
    return adaptive(*args, **kwargs)


# _band's escalation; a module binding that tests and tracers can replace
quad = _quad


def _band(family, rho, deltas, times, h_low, h_high):
    """filtered_propagator at the times (n_times,) and the sites whose signed
    fractional parts are deltas (n_sites,), all inside the band: shape
    (n_times, n_sites)."""
    # |delta| <= 1/2, so q is v0 ||omega x'|| and r is family.radius
    q = family.v0 * np.abs(deltas)
    d = np.array([_denominator(family, rho, delta)
                  for delta in deltas.tolist()])
    radii = np.array([family.a * family.gamma ** j
                      for j in range(h_low - 1, h_high + 1)])
    # radii inside q map to k0 = 0 and merge there: a site keeps its ends
    # from the last such one on.  Sites that keep the same ends share one
    # node array, so each sums exactly the nodes it would sum alone.
    edges = np.sqrt(np.maximum(radii ** 2 - q[:, None] ** 2, 0.0))
    first = np.maximum(np.count_nonzero(edges == 0.0, axis=1) - 1, 0)

    def integrand(k0, t, q, d):
        r = np.hypot(k0, q)
        w = _chi_of_radius(family, r, h_high) \
            - _chi_of_radius(family, r, h_low)
        return 2.0 * w * (d * np.cos(t * k0) + k0 * np.sin(t * k0)) \
            / (k0 * k0 + d * d)

    coarse = np.empty((times.size, deltas.size))
    total = np.empty_like(coarse)
    for j in np.unique(first):
        rows = np.flatnonzero(first == j)

        def every_sample(k0):
            # the times on a leading axis, against the sites and node axes
            return integrand(k0, times[:, None, None, None],
                             q[rows, None, None], d[rows, None, None])

        coarse[:, rows] = _gauss_legendre(every_sample, edges[rows, j:],
                                          _PANELS)
        total[:, rows] = _gauss_legendre(every_sample, edges[rows, j:],
                                         2 * _PANELS)
    # |g| = O(1) uniformly in h, so an absolute gate is meaningful
    missed = np.abs(total - coarse) > 1e-6 * np.maximum(1.0, np.abs(total))
    for i, c in zip(*np.nonzero(missed)):
        ends = edges[c, first[c]:]
        value, err = quad(lambda k0: integrand(k0, times[i], q[c], d[c]),
                          ends[0], ends[-1], points=ends[1:-1],
                          epsabs=0.0, epsrel=1e-8, limit=400)
        if err > 1e-6 * max(1.0, abs(value)):
            raise QuadratureError("band quadrature did not converge", err)
        total[i, c] = value
    return total


def single_scale_propagator(family, rho, x_prime, t, h, delta=None):
    """g^(h)_rho(x', t): the f_h-filtered inverse of -i k0 + (phi - mu0) at beta = infinity.

    The band (h - 1, h), since f_h = chi_h - chi_{h-1}, so h <= 0.  Real by
    the joint (t, k0) -> (-t, -k0) evenness of f_h.
    """
    return filtered_propagator(family, rho, x_prime, t, h - 1, h, delta)


# the survey's multiples of each convergent denominator, its branch of the
# singular point and the powers N of its constants C_N
_MULTIPLES = (1, 2, 3)
_SURVEY_RHO = 1
_DECAY_POWERS = (1, 2, 3)


@functools.cache
def _convergents(omega):
    """The exact convergent denominators of omega up to 10^15, with their
    signed fractional parts, computed once per omega for every scale."""
    return tuple(diophantine.exact_convergent_denominators(omega, 10 ** 15))


def _annulus_candidates(family, h):
    """(x', signed fractional part of omega x') samples for the scale-h annulus.

    x' = 0 always qualifies (its k0 window is never empty).  Nonzero
    candidates are small multiples of the exact convergent denominators of
    omega: the only integers reaching the tiny ||omega x'|| a deep scale
    needs, with the multiples filling the gaps between convergents.  The
    fractional parts come from integer arithmetic on the rational double, so
    they stay meaningful far beyond the float-product range.
    """
    r_hi = family.a * family.gamma ** h
    r_floor = r_hi / family.gamma ** 3
    out = [(0, 0.0)]
    for q, delta in _convergents(family.omega):
        if family.v0 * abs(delta) >= r_hi:
            continue
        for m in _MULTIPLES:
            d = m * delta if abs(m * delta) < 0.4 \
                else diophantine.exact_fractional_part(family.omega, m * q)
            if r_floor <= family.v0 * abs(d) < r_hi:
                out.append((m * q, d))
        if family.v0 * abs(delta) < r_floor / family.gamma:
            break
    return out


def scale_decay_constants(family, h,
                          t_multipliers=(0.0, 0.5, 1.0, 2.0, 4.0, 8.0)):
    """Empirical C_N = sup over sampled (x', t) of |g^(h)| (1 + (gamma^h |t|)^N)
    for N in _DECAY_POWERS.

    Times scale as gamma^(-h) so the sampled decade tracks the natural time
    scale of the slice; the survey samples the rho = _SURVEY_RHO branch.
    One evaluation of the (h - 1, h) band serves every candidate x' and
    sample time.  Returns (sup |g|, {N: C_N}).
    """
    sup_g = 0.0
    cn = {n: 0.0 for n in _DECAY_POWERS}
    t_scale = family.gamma ** (-h)
    times = [m * t_scale for m in t_multipliers]
    sites, deltas = zip(*_annulus_candidates(family, h))
    values = filtered_propagator(family, _SURVEY_RHO, np.array(sites),
                                 np.array(times), h - 1, h, np.array(deltas))
    for row in values.tolist():
        for t, value in zip(times, row):
            g = abs(value)
            sup_g = max(sup_g, g)
            for n in _DECAY_POWERS:
                cn[n] = max(cn[n], g * (1.0 + (family.gamma ** h * t) ** n))
    return sup_g, cn


def chain_graph_value(params, alphas, x1, k0):
    """Value of one chain graph and its per-step divisor magnitudes.

    alphas are hops (+1/-1) and 0 for local insertions; the value is the
    product over the visited sites of 1 / (-i k0 + phi_x - mu) starting at
    x1 + alphas[0].  Returns (complex value, list of divisor magnitudes).
    """
    if not math.isfinite(k0):
        raise ValueError("k0 must be finite")
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
