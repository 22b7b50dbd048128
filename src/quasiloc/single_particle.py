"""Non-interacting layer: almost-Mathieu diagnostics and the free imaginary-time propagator.

The chain lives on sites x in {-L/2, ..., L/2} with open (Dirichlet) ends,
on-site potential phi_x = u cos 2 pi (omega x + theta) and hopping -eps.  The
free propagator gbar(x, t) in closed form, the U = 0 two-point function from
the one-body eigenpairs, truncated Matsubara sums, the dense one-body matrix
and explicit transfer-matrix products are independent cross-checks that live
in the tests.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .diophantine import (GOLDEN_MEAN, DiophantineFrequency,
                          certified_frequency)

# steps between renormalizations of the transfer-matrix iterate
_RENORM_EVERY = 16
# steps whose coefficients (phi_x - E)/eps are evaluated as one array; the
# loop reads them as Python floats (`tolist`), so this also caps the floats
# alive at once: 4,096 (about 130 KB) rather than a whole 20,000-step
# phase_scan orbit (about 640 KB), which raised the scan's peak memory, while
# the numpy calls per chunk stay negligible against the Python loop
_ORBIT_CHUNK = 1 << 12
# eigenvector amplitudes at or below this are left out of the xi fit
_AMPLITUDE_FLOOR = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Full parameter record of the interacting chain.

    The chemical potential mu = u cos 2 pi (omega x_hat + theta) + nu is always
    derived from (x_hat, nu), never stored, so the two cannot drift apart.
    A float omega is replaced by its certified_frequency, shared by every
    record with the same value.
    """
    L: int
    beta: float
    eps: float = 0.0
    u: float = 1.0
    U: float = 0.0
    omega: DiophantineFrequency = GOLDEN_MEAN
    theta: float = 0.2377
    x_hat: int = 2
    nu: float = 0.0

    def __post_init__(self):
        if not isinstance(self.omega, DiophantineFrequency):
            object.__setattr__(self, "omega",
                               certified_frequency(float(self.omega)))
        if self.L <= 0 or self.L % 2 != 0:
            raise ValueError("L must be a positive even integer")
        if not 0.0 < self.beta < math.inf:
            raise ValueError("beta must be positive and finite")
        if not all(map(math.isfinite,
                       (self.eps, self.u, self.U, self.theta, self.nu))):
            raise ValueError("eps, u, U, theta and nu must be finite")
        if self.theta == 0.0:
            raise ValueError("theta must be non-vanishing")
        if self.x_hat == 0:
            raise ValueError("x_hat must be non-vanishing")
        if abs(self.x_hat) > self.L // 2:
            raise ValueError("x_hat must lie in the lattice")
        if self.v0 == 0.0:
            raise ValueError("sin 2 pi (omega x_hat + theta) must not vanish")
        if not math.isfinite(self.mu * self.n_sites):
            # mu N of a full chain enters every Boltzmann exponent
            raise ValueError("mu (L + 1) must be finite")

    @property
    def n_sites(self):
        return self.L + 1

    @property
    def sites(self):
        return np.arange(-self.L // 2, self.L // 2 + 1)

    @property
    def omega_value(self):
        return self.omega.omega

    @property
    def mu0(self):
        """Chemical potential of the free reference, u cos 2 pi (omega x_hat + theta)."""
        return self.u * math.cos(2.0 * math.pi *
                                 (self.omega_value * self.x_hat + self.theta))

    @property
    def mu(self):
        return self.mu0 + self.nu

    @property
    def v0(self):
        return math.sin(2.0 * math.pi *
                        (self.omega_value * self.x_hat + self.theta))

    def with_nu(self, nu):
        return replace(self, nu=nu)


def _site_index(L, x):
    """Array index x + L/2 of site x; ValueError outside {-L/2, ..., L/2}."""
    half = L // 2
    if np.any(np.abs(x) > half):
        raise ValueError("site outside lattice")
    return x + half


def onsite_energy(params, x):
    """phi_x = u cos 2 pi (omega x + theta) at the lattice site(s) x."""
    _site_index(params.L, np.asarray(x))
    return params.u * np.cos(2.0 * math.pi * (
        params.omega_value * np.asarray(x, dtype=float) + params.theta))


def single_particle_spectrum(params):
    """Eigenvalues (ascending) and orthonormal eigenvectors of the open chain."""
    diag = np.asarray(onsite_energy(params, params.sites), dtype=float)
    off = -params.eps * np.ones(params.n_sites - 1)
    return eigh_tridiagonal(diag, off)


def fermi_occupation(delta, beta):
    """1 / (exp(beta * delta) + 1), evaluated stably for large |beta * delta|."""
    return 0.5 * (1.0 - np.tanh(0.5 * beta * np.asarray(delta, dtype=float)))


def lyapunov_exponent(E, eps, u, omega, theta, n_steps):
    """Growth rate of the transfer-matrix cocycle along the orbit x = 0, 1, 2, ...

    Iterates psi_(x+1) = ((phi_x - E)/eps) psi_x - psi_(x-1) from (1, 0), the
    product of the matrices [[(phi_x - E)/eps, -1], [1, 0]].  The running
    vector is renormalized every _RENORM_EVERY steps to avoid overflow; the
    accumulated log norms divided by n_steps estimate the exponent.
    """
    if not all(map(math.isfinite, (E, eps, u, omega, theta))):
        raise ValueError("E, eps, u, omega and theta must be finite")
    if eps == 0.0:
        raise ValueError("transfer matrix undefined at eps = 0")
    if n_steps < 10 ** 3:
        raise ValueError("n_steps must be >= 1000")
    inv_eps = 1.0 / eps
    two_pi_omega = 2.0 * math.pi * omega
    two_pi_theta = 2.0 * math.pi * theta
    psi_cur, psi_old = 1.0, 0.0
    log_sum = 0.0
    for start in range(0, n_steps, _ORBIT_CHUNK):
        x = np.arange(start, min(start + _ORBIT_CHUNK, n_steps))
        coefficients = inv_eps * (u * np.cos(two_pi_omega * x + two_pi_theta)
                                  - E)
        for step, a in enumerate(coefficients.tolist(), start + 1):
            psi_cur, psi_old = a * psi_cur - psi_old, psi_cur
            if step % _RENORM_EVERY == 0:
                scale = max(abs(psi_cur), abs(psi_old))
                if scale > 0.0:
                    log_sum += math.log(scale)
                    psi_cur /= scale
                    psi_old /= scale
    scale = max(abs(psi_cur), abs(psi_old))
    if scale > 0.0:
        log_sum += math.log(scale)
    return log_sum / n_steps


def eigenstate_localization(eigvec):
    """Localization length xi and inverse participation ratio of a normalized state.

    xi = -1/slope of the least-squares line of log|psi| against the distance
    from the peak, restricted to amplitudes above _AMPLITUDE_FLOOR.  Fewer
    than 4 usable sites (or 2 distinct distances) means the fit is degenerate
    and xi is reported as 0.
    """
    psi = np.abs(np.asarray(eigvec, dtype=float))
    ipr = float(np.sum(psi ** 4))
    peak = int(np.argmax(psi))
    mask = psi > _AMPLITUDE_FLOOR
    if int(np.sum(mask)) < 4:
        return 0.0, ipr
    d = np.abs(np.arange(psi.size) - peak)[mask].astype(float)
    if np.unique(d).size < 2:
        return 0.0, ipr
    slope, _ = np.polyfit(d, np.log(psi[mask]), 1)
    if slope >= 0.0:
        return math.inf, ipr
    return -1.0 / slope, ipr


def localization_table(params):
    """Per-eigenstate (energy, xi, ipr) for the open chain."""
    evals, evecs = single_particle_spectrum(params)
    rows = []
    for k in range(evals.size):
        xi, ipr = eigenstate_localization(evecs[:, k])
        rows.append((float(evals[k]), xi, ipr))
    return rows


def free_density(params):
    """Mean filling of the U = 0 chain at chemical potential params.mu."""
    evals, _ = single_particle_spectrum(params)
    return float(np.mean(fermi_occupation(evals - params.mu, params.beta)))
