"""Output gates: each one an identity or an independent oracle.

Every checker takes the parsed output of one CLI command and returns a list
of violations; an operation with any violation counts as failed.  The
oracles use only quasiloc's public functions plus numpy.
"""

import json
import math

import numpy as np

from quasiloc.diophantine import (GOLDEN_MEAN, SILVER_MEAN,
                                  exact_convergent_denominators,
                                  exact_fractional_part)
from quasiloc.multiscale import ScaleFamily, f_h, single_scale_propagator
from quasiloc.single_particle import ModelParams, free_density

KMS_TOL = 1e-9
SYMMETRY_TOL = 1e-12
FILLING_TOL = 1e-6          # the counterterm's default density tolerance
QUADRATURE_TOL = 1e-6       # the gate single_scale_propagator applies itself
# phase_scan's exponent is log ||T_(n-1) ... T_0 (1, 0)|| / n over its
# default LYAPUNOV_STEPS transfer matrices.  When the mid-spectrum state it is
# taken at sits at x_c > 0 on the orbit, that log norm falls short of n lambda
# by about 2 lambda x_c, and rounding caps the shortfall near ln(2^53) = 37; 50
# leaves room for the O(1) fluctuation of the log norm.
LYAPUNOV_STEPS = 20000
LYAPUNOV_TOL = 50.0 / LYAPUNOV_STEPS
# fixed Gauss-Legendre nodes of the quadrature oracle: panels x order
ORACLE_PANELS = 64
ORACLE_ORDER = 16
# sample times of a scale-h row, in units of gamma^(-h)
T_MULTIPLIERS = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)


def read_output(text):
    """(config, results) of a CLI output; CSV results come as (header, rows)."""
    if text.startswith("# config: "):
        first, _, rest = text.partition("\n")
        lines = rest.splitlines()
        return (json.loads(first[len("# config: "):]),
                (lines[0].split(","), [ln.split(",") for ln in lines[1:]]))
    doc = json.loads(text)
    return doc["config"], doc["results"]


def _omega(text):
    return {"golden": GOLDEN_MEAN, "silver": SILVER_MEAN}.get(text) \
        or float(text)


def check_decay(config, results):
    """The criterion-8 fit: rate >= 1 and r^2 >= 0.9, with a finite nu."""
    out = []
    if not results["rate"] >= 1.0:
        out.append(f"decay rate {results['rate']} < 1")
    if not results["r_squared"] >= 0.9:
        out.append(f"fit r^2 {results['r_squared']} < 0.9")
    if not math.isfinite(results["nu"]):
        out.append(f"counterterm nu {results['nu']} not finite")
    return out


def correlation_slices(config, table):
    """{t: S(., .; t)} from correlate's CSV rows; missing entries stay NaN."""
    n = config["parameters"]["L"] + 1
    half = n // 2
    slices = {}
    for x, y, t, value in table[1]:
        s = slices.setdefault(float(t), np.full((n, n), np.nan))
        s[int(x) + half, int(y) + half] = float(value)
    return slices


def check_correlate(config, slices):
    """KMS antiperiodicity, equal-time symmetry and the free-filling oracle."""
    p = config["parameters"]
    beta = p["beta"]
    out = []
    for t, s in slices.items():
        if not np.all(np.isfinite(s)):
            out.append(f"S(.,.;{t}) has missing or non-finite entries")
    pairs = [t for t in slices if t > 0.0 and (t - beta) in slices]
    if not pairs:
        out.append("no KMS pair (t, t - beta) sampled")
    for t in pairs:
        dev = float(np.max(np.abs(slices[t - beta] + slices[t])))
        if not dev <= KMS_TOL:
            out.append(f"KMS: max |S(t-beta) + S(t)| = {dev:.3e} at t = {t}")
    s0 = slices.get(0.0)
    if s0 is None:
        return out + ["t = 0 not sampled"]
    asym = float(np.max(np.abs(s0 - s0.T)))
    if not asym <= SYMMETRY_TOL:
        out.append(f"S(.,.;0) asymmetric by {asym:.3e}")
    # S(x, x; 0) = 1/2 - <n_x> in the mean-of-limits convention
    filling = 0.5 - float(np.mean(np.diag(s0)))
    free = ModelParams(L=p["L"], beta=beta, eps=p["eps"], u=p["u"], U=0.0,
                       omega=_omega(p["omega"]), theta=p["theta"],
                       x_hat=p["xhat"])
    dev = abs(filling - free_density(free))
    if not dev <= FILLING_TOL:
        out.append(f"filling off the U = 0 chain at mu0 by {dev:.3e}")
    return out


def scale_family(config):
    p = config["parameters"]
    return ScaleFamily.build(_omega(p["omega"]), p["theta"], p["xhat"],
                             tau=p["tau"], gamma=p["gamma"], h_min=p["hmin"])


def annulus_candidates(family, h):
    """(x', signed ||omega x'||) pairs the scale-h row of `scales` samples.

    x' = 0, and the multiples 1..3 of the exact convergent denominators of
    omega with a gamma^(h-3) <= v0 ||omega x'|| < a gamma^h.  The convergents
    stop once v0 ||omega q|| falls below a gamma^(h-4).  Written from the
    survey's definition, not from the program's sampler, so that a sampler
    which drops sites shows as a row the oracle does not reproduce.
    """
    r_hi = family.a * family.gamma ** h
    r_lo = r_hi / family.gamma ** 3
    out = [(0, 0.0)]
    for q, delta in exact_convergent_denominators(family.omega, 10 ** 15):
        if family.v0 * abs(delta) >= r_hi:
            continue
        for m in (1, 2, 3):
            d = exact_fractional_part(family.omega, m * q)
            if r_lo <= family.v0 * abs(d) < r_hi:
                out.append((m * q, d))
        if family.v0 * abs(delta) < r_lo / family.gamma:
            break
    return out


def propagator_samples(family, rng, count):
    """Seeded (h, x', delta, t) points of the survey: a scale h, one of its
    candidate sites and one of its sample times t = m gamma^(-h)."""
    out = []
    for _ in range(count):
        h = rng.randint(family.h_min, 0)
        x_prime, delta = rng.choice(annulus_candidates(family, h))
        t = rng.choice(T_MULTIPLIERS) * family.gamma ** (-h)
        out.append({"h": h, "x_prime": x_prime, "delta": delta, "t": t})
    return out


def with_program_values(family, samples):
    """The samples with the value single_scale_propagator gives at each."""
    return [dict(s, program=single_scale_propagator(
        family, 1, s["x_prime"], s["t"], s["h"], delta=s["delta"]))
        for s in samples]


def oracle_propagator(family, delta, t, h):
    """g^(h)_+(x', t) by composite Gauss-Legendre on the support of f_h.

    Same integrand as single_scale_propagator, 2 f_h (d cos tk + k sin tk) /
    (k^2 + d^2) over the k0 window of the slice, but on fixed nodes.
    """
    q = family.v0 * abs(delta)
    r_hi = family.a * family.gamma ** h
    r_lo = family.a * family.gamma ** (h - 2)
    if q >= r_hi:
        return 0.0
    k_hi = math.sqrt(r_hi ** 2 - q ** 2)
    k_lo = math.sqrt(max(r_lo ** 2 - q ** 2, 0.0))
    # phi(x' + x_hat) - mu0 written as a product, exact for tiny delta
    z = family.omega * family.x_hat + family.theta
    d = -2.0 * family.u * math.sin(math.pi * (2.0 * z + delta)) \
        * math.sin(math.pi * delta)
    nodes, weights = np.polynomial.legendre.leggauss(ORACLE_ORDER)
    edges = np.linspace(k_lo, k_hi, ORACLE_PANELS + 1)
    half = 0.5 * np.diff(edges)[:, None]
    k = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half * nodes
    integrand = 2.0 * f_h(family, delta, k, h) \
        * (d * np.cos(t * k) + k * np.sin(t * k)) / (k ** 2 + d * d)
    return float(np.sum(half * weights * integrand))


def oracle_row(family, h, powers):
    """(sup |g|, [C_N for N in powers]) of the scale-h row, from the oracle.

    With t = m gamma^(-h), the weight 1 + (gamma^h |t|)^N is 1 + m^N.
    """
    t_scale = family.gamma ** (-h)
    g = [(abs(oracle_propagator(family, d, m * t_scale, h)), m)
         for _, d in annulus_candidates(family, h) for m in T_MULTIPLIERS]
    return (max(v for v, _ in g),
            [max(v * (1.0 + m ** n) for v, m in g) for n in powers])


def check_scales(config, table, samples):
    """Every row reproduced by the oracle; sampled g^(h) match the oracle."""
    header, rows = table
    out = []
    hmin = config["parameters"]["hmin"]
    if [int(r[0]) for r in rows] != list(range(hmin, 1)):
        out.append(f"scales {[r[0] for r in rows]} != {hmin}..0")
    family = scale_family(config)
    powers = [int(name[2:]) for name in header[2:]]
    for row in rows:
        h = int(row[0])
        printed = [float(v) for v in row[1:]]
        if not all(math.isfinite(v) and v > 0.0 for v in printed):
            out.append(f"h = {h}: non-finite or non-positive entry {row[1:]}")
        sup_g, cn = oracle_row(family, h, powers)
        # each sampled |g| carries the program's own error bound, which
        # C_N multiplies by at most 1 + max(m)^N
        scale = QUADRATURE_TOL * max(1.0, sup_g)
        for name, value, ref, weight in zip(
                header[1:], printed, [sup_g, *cn],
                [1.0] + [1.0 + max(T_MULTIPLIERS) ** n for n in powers]):
            if not abs(value - ref) <= scale * weight:
                out.append(f"h = {h}: {name} = {value!r}, oracle {ref!r}")
    for s in samples:
        ref = oracle_propagator(family, s["delta"], s["t"], s["h"])
        dev = abs(s["program"] - ref)
        if not dev <= QUADRATURE_TOL * max(1.0, abs(ref)):
            out.append(f"g^({s['h']})(x' = {s['x_prime']}, t = {s['t']:.6g})"
                       f" = {s['program']!r}, oracle {ref!r}")
    return out


def aubry_andre_exponent(eps, u=1.0):
    """Lyapunov exponent on the spectrum of the almost-Mathieu chain."""
    return max(0.0, math.log(u / (2.0 * eps)))


def check_scan(config, table):
    """No error points; Aubry-Andre exponents; nu = 0 at U = 0 and |nu| small."""
    p = config["parameters"]
    _, rows = table
    out = []
    n_eps = int(p["eps_grid"].split(":")[2])
    n_u = int(p["U_grid"].split(":")[2])
    if len(rows) != n_eps * n_u:
        out.append(f"{len(rows)} grid points, expected {n_eps * n_u}")
    for eps_s, u_s, nu_s, _rate, lyap_s, verdict in rows:
        eps, U, nu, lyap = (float(v) for v in (eps_s, u_s, nu_s, lyap_s))
        where = f"(eps, U) = ({eps:.3g}, {U:.3g})"
        if verdict == "error":
            out.append(f"{where}: verdict error")
        if eps > 0.0:
            # phase_scan runs the chain at u = 1
            dev = abs(lyap - aubry_andre_exponent(eps))
            if not dev <= LYAPUNOV_TOL:
                out.append(f"{where}: Lyapunov {lyap} off Aubry-Andre by "
                           f"{dev:.3e}")
        if U == 0.0 and nu != 0.0:
            out.append(f"{where}: nu = {nu} at U = 0")
        if not abs(nu) <= 2.0 * max(eps, U):
            out.append(f"{where}: |nu| = {abs(nu)} > 2 max(eps, U)")
    return out
