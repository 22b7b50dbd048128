"""Continued-fraction arithmetic and empirical small-divisor constants.

The driving frequency omega must stay quantifiably far from rationals for the
quasi-periodic chain to localize.  This module expands omega in a continued
fraction, reconstructs its convergents, and evaluates, up to a chosen
denominator range, the constants

    c0_freq  = min_{0 < x <= q_max}  |x|^tau * ||omega x||
    c0_phase = min_{0 < x <= q_max, s = +-}  |x|^tau * ||omega x + 2 s theta||

with ||.|| the distance to the nearest integer: c0_freq at the convergent
denominators, where its minimum sits, and c0_phase by brute-force scan.  The
certification is empirical (finite q_max), not a number-theoretic proof.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

GOLDEN_MEAN = (math.sqrt(5.0) - 1.0) / 2.0
SILVER_MEAN = math.sqrt(2.0) - 1.0

# a partial quotient larger than this is indistinguishable from a rational
# frequency in double precision
MAX_PARTIAL_QUOTIENT = 10 ** 6

_SCAN_CHUNK = 1 << 20

# certify's exponent tau, scan range of c0_freq and continued-fraction depth
_TAU = 1.5
_Q_MAX = 10 ** 5
_DEPTH = 20


class RationalFrequencyError(ValueError):
    """The frequency is (numerically) rational; an irrational is required."""


def torus_norm(x):
    """Distance from x to the nearest integer (norm on the period-1 torus)."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("torus_norm: non-finite input")
    out = np.abs(x - np.round(x))
    if out.ndim == 0:
        return float(out)
    return out


def _partial_quotients(omega):
    """a1, a2, ... of the exact continued fraction of the double omega (its
    fractional part): the Euclidean algorithm on the numerator and
    denominator of the rational it is, which ends where the expansion does."""
    frac = Fraction(omega) % 1
    num, den = frac.denominator, frac.numerator
    while den:
        a = num // den
        yield a
        num, den = den, num - a * den


def continued_fraction(omega, depth):
    """Partial quotients [a1, ..., a_depth] of omega in (0, 1), from the exact
    expansion of its double.

    Raises RationalFrequencyError when the expansion ends within depth terms
    or a quotient above MAX_PARTIAL_QUOTIENT shows up, since both mean omega
    is rational at double precision.
    """
    if not 0.0 < omega < 1.0:
        raise ValueError("omega must lie in (0, 1)")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    quotients = list(itertools.islice(_partial_quotients(omega), depth))
    if len(quotients) < depth or max(quotients) > MAX_PARTIAL_QUOTIENT:
        raise RationalFrequencyError(
            f"rational frequency: partial quotients {quotients} end before "
            f"{depth} terms or exceed {MAX_PARTIAL_QUOTIENT}")
    return quotients


def convergents(partial_quotients):
    """Convergents p_k/q_k of [0; a1, a2, ...] as a list of (p, q) pairs."""
    out = []
    p_prev, q_prev = 1, 0
    p, q = 0, 1
    for a in partial_quotients:
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        out.append((p, q))
    return out


def _scan_min(values_of, q_max):
    """Minimum (and argmin) of values_of(x) over integer x in [1, q_max], chunked."""
    best = math.inf
    arg = 0
    for lo in range(1, q_max + 1, _SCAN_CHUNK):
        hi = min(lo + _SCAN_CHUNK - 1, q_max)
        x = np.arange(lo, hi + 1, dtype=float)
        vals = values_of(x)
        i = int(np.argmin(vals))
        if vals[i] < best:
            best = float(vals[i])
            arg = lo + i
    return best, arg


def frequency_diophantine_constant(omega, tau, q_max):
    """(min, argmin) over 0 < x <= q_max of |x|^tau * ||omega x||.

    By the symmetry ||omega(-x)|| = ||omega x|| only positive x count, and
    only x = 1 and the convergent denominators q_k need evaluating: by
    Lagrange's best-approximation theorem ||omega x|| >= ||omega q_k|| for
    every 0 < x < q_(k+1), so for tau >= 0 each x in [q_k, q_(k+1)) is at
    least the value at q_k, and each x < q_1 the value at 1.
    """
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    if not tau >= 0.0:  # false for NaN too
        raise ValueError("tau must be >= 0")
    qs = [1] + [q for q, _ in exact_convergent_denominators(omega, q_max)]
    x = np.array(qs, dtype=float)
    values = x ** tau * torus_norm(omega * x)
    i = int(np.argmin(values))
    return float(values[i]), qs[i]


def phase_diophantine_constant(omega, theta, tau, q_max):
    """(min, argmin) over 0 < |x| <= q_max, both signs, of
    |x|^tau * ||omega x +- 2 theta||.

    Returns (numerically) zero when 2 theta / omega is an integer within the
    scanned range: that is the spectral-gap case excluded by the localization
    statement, and callers are expected to treat a vanishing constant as such.
    """
    if q_max < 1:
        raise ValueError("q_max must be >= 1")

    def values(x):
        a = torus_norm(omega * x + 2.0 * theta)
        b = torus_norm(omega * x - 2.0 * theta)
        return x ** tau * np.minimum(a, b)

    return _scan_min(values, q_max)


@dataclass(frozen=True)
class DiophantineFrequency:
    """An irrational frequency with its continued-fraction prefix and certified constant.

    q_max is the integer range c0_freq was scanned over.
    """
    omega: float
    partial_quotients: list
    tau: float
    c0_freq: float
    q_max: int

    @classmethod
    def certify(cls, omega):
        quotients = continued_fraction(omega, _DEPTH)
        c0, _ = frequency_diophantine_constant(omega, _TAU, _Q_MAX)
        return cls(omega=float(omega), partial_quotients=quotients, tau=_TAU,
                   c0_freq=c0, q_max=_Q_MAX)


def exact_fractional_part(omega, x):
    """Signed fractional part of omega * x with omega treated as the exact
    rational its double-precision value is.

    Needed for very large x, where the float product omega * x has lost the
    fractional digits entirely.
    """
    f = Fraction(omega) * int(x)
    return float(f - round(f))


def exact_convergent_denominators(omega, q_max):
    """(q, signed ||omega q||) for the convergent denominators of the double omega.

    The expansion is the exact continued fraction of the rational double, so
    the returned fractional parts are meaningful down to arbitrarily small
    values (unlike the float scan, which bottoms out near q ~ 10^8).
    """
    return [(q, exact_fractional_part(omega, q))
            for _, q in convergents(_partial_quotients(omega)) if q <= q_max]


@functools.cache
def certified_frequency(omega):
    """DiophantineFrequency.certify(omega), scanned once per value.

    Every caller shares the returned instance, so it must not be mutated.
    """
    return DiophantineFrequency.certify(omega)
