import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import quasiloc as q
from quasiloc.cutoffs import smooth_cutoff
from quasiloc.single_particle import fermi_occupation
from oracles import free_propagator, one_body_correlation_matrix


def dense_single_particle_matrix(params):
    """Dense (L+1)x(L+1) one-body Hamiltonian: onsite energies on the
    diagonal, -eps on nearest neighbors, open ends."""
    off = -params.eps * np.ones(params.n_sites - 1)
    return np.diag(q.onsite_energy(params, params.sites)) \
        + np.diag(off, 1) + np.diag(off, -1)


def matsubara_propagator_sum(params, x, t, M, cutoff_gamma=1.5):
    """Truncated Matsubara sum for gbar(x, t) with a smooth frequency cutoff.

    (1/beta) sum over fermionic k0 with chi(gamma^-M |k0|) > 0 of
    exp(-i k0 t) / (-i k0 + delta); real by the k0 -> -k0 symmetry.
    """
    beta = params.beta
    delta = float(q.onsite_energy(params, x) - params.mu)
    k_max = cutoff_gamma ** (M + 1)
    n_max = int(math.floor(k_max * beta / (2.0 * math.pi) - 0.5))
    k0 = (2.0 * math.pi / beta) * (np.arange(0, n_max + 1) + 0.5)
    chi = smooth_cutoff(k0 / cutoff_gamma ** M, cutoff_gamma)
    terms = chi * (delta * np.cos(k0 * t) + k0 * np.sin(k0 * t)) \
        / (k0 ** 2 + delta ** 2)
    return (2.0 / beta) * float(np.sum(terms))


@pytest.fixture(scope="module")
def params():
    return q.ModelParams(L=8, beta=10.0, eps=0.1)


def test_default_frequency_certified_once():
    golden = q.ModelParams(L=4, beta=1.0).omega
    assert q.ModelParams(L=6, beta=2.0).omega is golden
    assert q.ModelParams(L=4, beta=1.0, omega=q.GOLDEN_MEAN).omega is golden
    # a float omega is certified once per value, like the default
    silver = q.ModelParams(L=4, beta=1.0, omega=q.SILVER_MEAN).omega
    assert q.ModelParams(L=8, beta=3.0, eps=0.2,
                         omega=q.SILVER_MEAN).omega is silver
    assert silver.omega == q.SILVER_MEAN and silver is not golden


def test_params_validation():
    with pytest.raises(ValueError):
        q.ModelParams(L=7, beta=1.0)          # odd L
    with pytest.raises(ValueError):
        q.ModelParams(L=8, beta=-1.0)
    with pytest.raises(ValueError):
        q.ModelParams(L=8, beta=1.0, theta=0.0)
    with pytest.raises(ValueError):
        q.ModelParams(L=8, beta=1.0, x_hat=0)
    with pytest.raises(ValueError):
        q.ModelParams(L=8, beta=1.0, x_hat=9)


@given(st.sampled_from(["beta", "eps", "u", "U", "theta", "nu"]),
       st.sampled_from([math.nan, math.inf, -math.inf]))
def test_params_reject_non_finite(field, value):
    # a NaN beta read as a Boltzmann exponent made the tail loop spin forever
    with pytest.raises(ValueError, match="finite"):
        q.ModelParams(**{"L": 4, "beta": 1.0, field: value})


def test_mu_derived_not_stored(params):
    assert params.mu == pytest.approx(params.mu0)
    shifted = params.with_nu(0.25)
    assert shifted.mu == pytest.approx(params.mu0 + 0.25)
    assert shifted.mu0 == pytest.approx(params.mu0)


def test_onsite_energy_matches_cosine(params):
    om = params.omega_value
    for x in (-4, 0, 3):
        expect = math.cos(2 * math.pi * (om * x + params.theta))
        assert q.onsite_energy(params, x) == pytest.approx(expect)
    with pytest.raises(ValueError):
        q.onsite_energy(params, 5)


def test_spectrum_matches_dense_matrix(params):
    h = dense_single_particle_matrix(params)
    evals, evecs = q.single_particle_spectrum(params)
    np.testing.assert_allclose(np.linalg.eigvalsh(h), evals, atol=1e-12)
    np.testing.assert_allclose(h @ evecs, evecs * evals, atol=1e-12)


def test_fermi_occupation_limits():
    assert fermi_occupation(0.0, 10.0) == pytest.approx(0.5)
    assert fermi_occupation(500.0, 10.0) == pytest.approx(0.0, abs=1e-300)
    assert fermi_occupation(-500.0, 10.0) == pytest.approx(1.0)
    # no overflow for huge arguments
    assert np.isfinite(fermi_occupation(1e6, 100.0))


def test_free_propagator_closed_form(params):
    beta = params.beta
    x = 1
    delta = q.onsite_energy(params, x) - params.mu
    n = fermi_occupation(delta, beta)
    assert free_propagator(params, x, 2.0) == pytest.approx(
        math.exp(-delta * 2.0) * (1.0 - n))
    assert free_propagator(params, x, -2.0) == pytest.approx(
        -math.exp(-delta * -2.0) * n)
    assert free_propagator(params, x, 0.0) == pytest.approx(0.5 * (1 - 2 * n))
    with pytest.raises(ValueError):
        free_propagator(params, x, beta)


def test_free_propagator_kms(params):
    beta = params.beta
    for x in (-2, 0, 2):
        for t in (1.0, 3.3, 7.0):
            a = free_propagator(params, x, t - beta)
            b = free_propagator(params, x, t)
            assert a + b == pytest.approx(0.0, abs=1e-14)


def test_free_propagator_stable_at_large_beta_delta():
    p = q.ModelParams(L=8, beta=5000.0)
    for x in p.sites:
        for t in (0.0, 2000.0, -2000.0):
            g = free_propagator(p, int(x), t)
            assert np.isfinite(g)
            assert abs(g) <= 1.0


def test_matsubara_sum_converges_to_closed_form():
    p = q.ModelParams(L=8, beta=4.0)
    for x, t in ((1, 0.7), (2, -1.1), (0, 1.9)):
        exact = free_propagator(p, x, t)
        approx = matsubara_propagator_sum(p, x, t, M=26)
        assert approx == pytest.approx(exact, abs=5e-4)


def test_matsubara_sum_pins_equal_time_convention():
    # the truncated frequency sum converges to the mean of the one-sided
    # limits at t = 0, the equal-time convention of the free propagator
    p = q.ModelParams(L=8, beta=4.0)
    for x in (0, 1, -3):
        exact = free_propagator(p, x, 0.0)
        approx = matsubara_propagator_sum(p, x, 0.0, M=26)
        assert approx == pytest.approx(exact, abs=5e-4)


def test_lyapunov_matches_transfer_product():
    # log ||T_(n-1) ... T_0 (1, 0)||_inf / n with the 2x2 matrices
    # T_x = [[(phi_x - E)/eps, -1], [1, 0]] multiplied out in full; at
    # eps = 0.4 the product over 1000 sites stays far from overflow
    E, eps, u, theta, n = 0.3, 0.4, 1.0, 0.2377, 1000
    psi = np.array([1.0, 0.0])
    for x in range(n):
        phi = u * math.cos(2.0 * math.pi * (q.GOLDEN_MEAN * x + theta))
        psi = np.array([[(phi - E) / eps, -1.0], [1.0, 0.0]]) @ psi
    expect = math.log(np.max(np.abs(psi))) / n
    assert q.lyapunov_exponent(E, eps, u, q.GOLDEN_MEAN, theta, n) == \
        pytest.approx(expect, rel=1e-10)


def test_lyapunov_localized_value():
    # localized regime: exponent = log(u / (2 eps)) at spectrum energies
    lam = q.lyapunov_exponent(0.0, 0.2, 1.0, q.GOLDEN_MEAN, 0.2377, 10 ** 5)
    assert lam == pytest.approx(math.log(1.0 / 0.4), rel=0.02)


def test_lyapunov_extended_value():
    lam = q.lyapunov_exponent(0.0, 0.6, 1.0, q.GOLDEN_MEAN, 0.2377, 10 ** 5)
    assert abs(lam) < 0.02


def test_lyapunov_input_checks():
    with pytest.raises(ValueError):
        q.lyapunov_exponent(0.0, 0.0, 1.0, q.GOLDEN_MEAN, 0.2377, 10 ** 4)
    with pytest.raises(ValueError):
        q.lyapunov_exponent(0.0, 0.2, 1.0, q.GOLDEN_MEAN, 0.2377, 10)


def test_eigenstate_localization_synthetic():
    x = np.arange(-40, 41)
    psi = np.exp(-np.abs(x) / 3.0)
    psi /= np.linalg.norm(psi)
    xi, ipr = q.eigenstate_localization(psi)
    assert xi == pytest.approx(3.0, rel=1e-6)
    assert 0.0 < ipr <= 1.0
    # uniform state: degenerate fit reported as infinite length
    flat = np.full(81, 1.0 / 9.0)
    xi_flat, ipr_flat = q.eigenstate_localization(flat)
    assert xi_flat == math.inf
    assert ipr_flat == pytest.approx(np.sum(flat ** 4))


def test_localization_table_shape(params):
    rows = q.localization_table(params)
    assert len(rows) == params.n_sites
    energies = [r[0] for r in rows]
    assert energies == sorted(energies)


def test_one_body_two_point_reduces_to_free_at_eps_zero():
    p = q.ModelParams(L=8, beta=6.0)
    half = p.L // 2
    for t in (0.0, 1.3, -2.1):
        m = one_body_correlation_matrix(p, t)
        for x in (-2, 0, 3):
            assert m[x + half, x + half] == pytest.approx(
                free_propagator(p, x, t), abs=1e-12)
            # no hopping: strictly diagonal in space
            assert m[x + half, x + 1 + half] == pytest.approx(0.0, abs=1e-12)


def test_free_density_monotone_in_mu(params):
    dens = [q.free_density(params.with_nu(nu))
            for nu in np.linspace(-1.0, 1.0, 9)]
    assert all(b >= a for a, b in zip(dens, dens[1:]))
    assert 0.0 <= dens[0] <= dens[-1] <= 1.0
