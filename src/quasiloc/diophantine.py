"""Continued-fraction arithmetic and empirical small-divisor constants.

The driving frequency omega must stay quantifiably far from rationals for the
quasi-periodic chain to localize.  This module expands omega in a continued
fraction, reconstructs its convergents, and certifies, by brute-force scan up
to a chosen denominator range, the constants

    c0_freq  = min_{0 < x <= q_max}  |x|^tau * ||omega x||
    c0_phase = min_{0 < x <= q_max, s = +-}  |x|^tau * ||omega x + 2 s theta||

with ||.|| the distance to the nearest integer.  The certification is
empirical (finite q_max), not a number-theoretic proof.
"""

import functools
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


def continued_fraction(omega, depth):
    """Partial quotients [a1, ..., a_depth] of omega in (0, 1) by the Euclidean algorithm.

    Raises RationalFrequencyError when a zero remainder or an implausibly
    large quotient shows up, since both mean omega is rational at double
    precision.
    """
    if not 0.0 < omega < 1.0:
        raise ValueError("omega must lie in (0, 1)")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    quotients = []
    x = omega
    for _ in range(depth):
        if x <= 0.0:
            raise RationalFrequencyError(
                "rational frequency: zero remainder in continued fraction")
        x = 1.0 / x
        a = math.floor(x)
        if a > MAX_PARTIAL_QUOTIENT:
            raise RationalFrequencyError(
                f"rational frequency: partial quotient {a} exceeds "
                f"{MAX_PARTIAL_QUOTIENT}")
        quotients.append(a)
        x -= a
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

    By the symmetry ||omega(-x)|| = ||omega x|| only positive x are scanned.
    """
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    return _scan_min(lambda x: x ** tau * torus_norm(omega * x), q_max)


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
    frac = Fraction(omega)
    num, den = frac.numerator, frac.denominator
    out = []
    q_prev, q = 0, 1
    a = num // den
    num, den = den, num - a * den
    while den > 0:
        a = num // den
        q_prev, q = q, a * q + q_prev
        if q > q_max:
            break
        out.append((q, exact_fractional_part(omega, q)))
        num, den = den, num - a * den
    return out


@functools.cache
def certified_frequency(omega):
    """DiophantineFrequency.certify(omega), scanned once per value.

    Every caller shares the returned instance, so it must not be mutated.
    """
    return DiophantineFrequency.certify(omega)
