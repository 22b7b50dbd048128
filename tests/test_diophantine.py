import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import quasiloc as q
from quasiloc.diophantine import (exact_fractional_part,
                                  exact_convergent_denominators)
from oracles import frequency_constant_by_scan


def test_torus_norm_basic():
    assert q.torus_norm(0.3) == pytest.approx(0.3)
    assert q.torus_norm(0.7) == pytest.approx(0.3)
    assert q.torus_norm(-1.2) == pytest.approx(0.2)
    assert q.torus_norm(5.0) == 0.0
    np.testing.assert_allclose(q.torus_norm([0.25, 1.75]), [0.25, 0.25])


def test_torus_norm_rejects_non_finite():
    with pytest.raises(ValueError):
        q.torus_norm(float("nan"))
    with pytest.raises(ValueError):
        q.torus_norm(float("inf"))


def test_golden_continued_fraction_all_ones():
    pq = q.continued_fraction(q.GOLDEN_MEAN, 20)
    assert pq == [1] * 20


def test_silver_continued_fraction_all_twos():
    pq = q.continued_fraction(q.SILVER_MEAN, 15)
    assert pq == [2] * 15


def test_rational_frequency_detected():
    # the expansion of 0.5 ends after [2]; the double nearest 3/7 expands to
    # [2, 2, 1, 857828500451522, 3], a quotient no irrational shows at depth 4
    with pytest.raises(q.RationalFrequencyError, match=r"\[2\] end before"):
        q.continued_fraction(0.5, 10)
    with pytest.raises(q.RationalFrequencyError, match="857828500451522"):
        q.continued_fraction(3.0 / 7.0, 30)
    with pytest.raises(q.RationalFrequencyError, match="857828500451522"):
        q.continued_fraction(3.0 / 7.0, 4)
    assert q.continued_fraction(3.0 / 7.0, 3) == [2, 2, 1]


def test_continued_fraction_is_the_exact_expansion_of_the_double():
    # float Euclidean steps leave the expansion of the double 1/pi at its
    # 15th quotient (3, 3, 23 for 3, 1, 12); the convergents must be the
    # ones the scale survey reads from the exact expansion
    omega = 1.0 / math.pi
    pq = q.continued_fraction(omega, 20)
    assert pq == [3, 7, 15, 1, 292, 1, 1, 1, 2, 1, 3, 1, 14, 3, 1, 12, 3, 7,
                  1, 1]
    qs = [c[1] for c in q.convergents(pq)]
    assert [d for d, _ in exact_convergent_denominators(omega, qs[-1])] == qs


def test_convergents_are_fibonacci_for_golden():
    pq = q.continued_fraction(q.GOLDEN_MEAN, 10)
    cs = q.convergents(pq)
    qs = [c[1] for c in cs]
    assert qs == [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    # convergent property |omega - p/q| < 1/q^2
    for p, qd in cs:
        assert abs(q.GOLDEN_MEAN - p / qd) < 1.0 / qd ** 2


def test_frequency_constant_positive_and_stable():
    # enlarging the scan range can only decrease the minimum
    c_small, _ = q.frequency_diophantine_constant(q.GOLDEN_MEAN, 1.5, 10 ** 3)
    c_large, _ = q.frequency_diophantine_constant(q.GOLDEN_MEAN, 1.5, 10 ** 5)
    assert 0.0 < c_large <= c_small
    # tau = 1.5 > 1: golden minimum is attained at x = 1
    c, arg = q.frequency_diophantine_constant(q.GOLDEN_MEAN, 1.5, 10 ** 4)
    assert arg == 1
    assert c == pytest.approx(q.torus_norm(q.GOLDEN_MEAN), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(omega=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       tau=st.floats(0.0, 2.5), q_max=st.integers(1, 10 ** 5))
@example(omega=q.GOLDEN_MEAN, tau=1.5, q_max=10 ** 5)
@example(omega=q.SILVER_MEAN, tau=1.0, q_max=10 ** 5)
@example(omega=1.0 / math.pi, tau=1.2, q_max=10 ** 5)
@example(omega=0.739, tau=0.0, q_max=10 ** 5)
def test_frequency_constant_matches_brute_scan_property(omega, tau, q_max):
    """Only 1 and the convergent denominators are evaluated, yet value and
    argmin are the brute-force scan's, bit for bit."""
    assert q.frequency_diophantine_constant(omega, tau, q_max) \
        == frequency_constant_by_scan(omega, tau, q_max)


def test_frequency_constant_rejects_negative_or_nan_tau():
    # the best-approximation argument needs x^tau non-decreasing
    for tau in (-0.5, math.nan):
        with pytest.raises(ValueError, match="tau"):
            q.frequency_diophantine_constant(q.GOLDEN_MEAN, tau, 100)


def test_phase_constant_gap_case_vanishes():
    # 2 theta = 3 omega makes ||omega x - 2 theta|| hit zero at x = 3
    theta = 1.5 * q.GOLDEN_MEAN
    c, arg = q.phase_diophantine_constant(q.GOLDEN_MEAN, theta, 1.5, 100)
    assert c == pytest.approx(0.0, abs=1e-12)
    assert arg == 3


def test_phase_constant_generic_positive():
    c, _ = q.phase_diophantine_constant(q.GOLDEN_MEAN, 0.2377, 1.5, 10 ** 4)
    assert c > 0.0


def test_certify_roundtrip():
    freq = q.DiophantineFrequency.certify(q.GOLDEN_MEAN)
    # every stored convergent obeys |omega - p/q| < 1/q^2
    for p, qd in q.convergents(freq.partial_quotients):
        assert abs(freq.omega - p / qd) < 1.0 / qd ** 2
    assert freq.c0_freq > 0.0
    assert q.phase_diophantine_constant(freq.omega, 0.2377, freq.tau,
                                        freq.q_max)[0] > 0.0
    assert (freq.tau, freq.q_max, len(freq.partial_quotients)) \
        == (1.5, 10 ** 5, 20)


def test_exact_fractional_part_matches_float_for_small_x():
    for x in (1, 7, 144):
        expect = q.GOLDEN_MEAN * x
        expect -= round(expect)
        assert exact_fractional_part(q.GOLDEN_MEAN, x) == pytest.approx(
            expect, abs=1e-12)


def test_exact_convergent_denominators_reach_tiny_values():
    pairs = exact_convergent_denominators(q.GOLDEN_MEAN, 10 ** 12)
    qs = [p[0] for p in pairs]
    assert qs[:6] == [1, 2, 3, 5, 8, 13]
    # the fractional parts shrink below anything the float product resolves
    assert min(abs(p[1]) for p in pairs) < 1e-11
    # alternating signs of q*omega - p along the expansion
    signs = [math.copysign(1, p[1]) for p in pairs[:10]]
    assert signs == [(-1.0) ** (k + 1) for k in range(10)]
