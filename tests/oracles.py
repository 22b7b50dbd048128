"""Reference routes that several test files compare the package against.

The free propagator in closed form and the U = 0 two-point matrix from the
one-body eigenpairs (oracles of the Lehmann kernel), the Fock structure
built from scratch for every call (oracles of the per-sector structure the
package builds once: a sector's masks by an enumeration of the whole space,
the Hamiltonian and the stacked annihilators by COO conversion on those
masks, their signs by a cumulative sum of the occupations), the Gram step of
the Lehmann kernel by batched products (oracle of its sliced BLAS calls),
the brute-force scan of the frequency Diophantine constant
(oracle of its evaluation at the convergent denominators), the dense inertia
count (oracle of the sparse one that certifies thermal blocks), the
partition-of-unity and telescoping residuals of the scale decomposition, and
the smallness and continuity report of a counterterm grid.  None of them has a caller in the
package.
"""

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dsytrf, dsytrf_lwork

from quasiloc.diophantine import torus_norm
from quasiloc.multiscale import ScaleConfigurationError, chi_h, f_h
from quasiloc.single_particle import onsite_energy, single_particle_spectrum


def propagator_kernel(delta, beta, t):
    """Time kernel of a single fermionic level at energy delta above mu.

    exp(-delta t)(1 - n) for t > 0, -exp(-delta t) n for t < 0, and the mean of
    the one-sided limits (1 - 2n)/2 at t = 0.  Written through logaddexp so no
    intermediate exponential overflows.
    """
    delta = np.asarray(delta, dtype=float)
    if t > 0.0:
        return np.exp(-np.logaddexp(delta * t, -delta * (beta - t)))
    if t < 0.0:
        return -np.exp(-np.logaddexp(delta * (beta + t), delta * t))
    return 0.5 * np.tanh(0.5 * beta * delta)


def free_propagator(params, x, t):
    """gbar(x, t) of the eps = U = 0 chain for |t| < beta.

    The full two-point function carries an additional delta_{x,y}; the caller
    is responsible for the off-diagonal zero.
    """
    if abs(t) >= params.beta:
        raise ValueError("time difference must satisfy |t| < beta")
    delta = onsite_energy(params, x) - params.mu
    return propagator_kernel(delta, params.beta, t)


def one_body_correlation_matrix(params, t):
    """Free-fermion S(x, y; t) for all pairs, from the one-body eigenpairs only.

    Independent of the many-body machinery and exact at U = 0 for any eps;
    entry [x + L/2, y + L/2] is the pair (x, y).
    """
    if abs(t) >= params.beta:
        raise ValueError("time difference must satisfy |t| < beta")
    evals, evecs = single_particle_spectrum(params)
    kern = propagator_kernel(evals - params.mu, params.beta, t)
    return (evecs * kern) @ evecs.T


def sector_from_scratch(L, n_particles):
    """The ascending int64 masks of the n_particles sector of the L + 1
    sites, from an enumeration of all 2^(L+1) masks."""
    masks = np.arange(1 << (L + 1), dtype=np.int64)
    return masks[np.bitwise_count(masks) == n_particles]


def occupancy_from_scratch(states, n_sites):
    """(dim, n_sites) int64 0/1 array of the bit occupations of masks."""
    bits = np.arange(n_sites)
    return (states[:, None] >> bits[None, :]) & 1


def hamiltonian_from_scratch(params, sector):
    """The sector Hamiltonian of many_body.build_hamiltonian, assembled as
    COO triplets on the sector's masks from scratch and converted to CSR.
    Every hopping entry is stored, as -0.0 at eps = 0."""
    states = sector_from_scratch(sector.n_sites - 1, sector.n_particles)
    occ = occupancy_from_scratch(states, sector.n_sites)
    phi = np.asarray(onsite_energy(params, params.sites), dtype=float)
    diag = occ @ phi
    if params.U != 0.0:
        diag = diag + 2.0 * params.U * np.sum(occ[:, :-1] * occ[:, 1:], axis=1)

    dim = states.size
    i, b = np.nonzero(occ[:, :-1] != occ[:, 1:])
    rows = np.concatenate([np.arange(dim), i])
    cols = np.concatenate([np.arange(dim),
                           np.searchsorted(states, states[i] ^ (0b11 << b))])
    vals = np.concatenate([diag, np.full(i.size, -params.eps)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))


def annihilator_triplets(sector_n, sector_np1, side):
    """COO triplets (rows, cols, signs) of one side of many_body._side from
    the masks of both sectors from scratch: side 0 is up = vstack_x a_x^T,
    side 1 is down = vstack_x a_x, row j S + x holding row j of a_x^T (or
    a_x).  The sign rule: removing the particle at bit x of an (N+1)-mask
    carries (-1)^(occupied bits below x), read off a cumulative sum of its
    occupations."""
    n_sites = sector_np1.n_sites
    states = sector_from_scratch(n_sites - 1, sector_n.n_particles)
    states1 = sector_from_scratch(n_sites - 1, sector_np1.n_particles)
    occ = occupancy_from_scratch(states1, n_sites)
    j1, x = np.nonzero(occ)
    below = np.cumsum(occ, axis=1) - occ
    signs = 1.0 - 2.0 * (below[j1, x] & 1)
    j0 = np.searchsorted(states, states1[j1] ^ (1 << x))
    if side == 0:
        return j1 * n_sites + x, j0, signs
    return j0 * n_sites + x, j1, signs


def annihilators_from_scratch(sector_n, sector_np1):
    """(up, down) of many_body._side, assembled from annihilator_triplets and
    converted to CSC."""
    dims = (len(sector_n), len(sector_np1))
    sides = []
    for side in (0, 1):
        rows, cols, signs = annihilator_triplets(sector_n, sector_np1, side)
        shape = (dims[1 - side] * sector_n.n_sites, dims[side])
        sides.append(sp.csc_matrix((signs, (rows, cols)), shape=shape))
    return tuple(sides)


def gram_by_batched_products(part, w):
    """sum_(j, i) w_i part[j, :, i] part[j, :, i]^T for a stack part
    (d, sites, r): one batched (sites, sites) product per j, summed after,
    through a (d, sites, sites) temporary."""
    return np.matmul(part * w, part.transpose(0, 2, 1)).sum(axis=0)


def frequency_constant_by_scan(omega, tau, q_max):
    """(min, argmin) of x^tau ||omega x|| over every integer 0 < x <= q_max,
    the smallest x on a tie."""
    x = np.arange(1, q_max + 1, dtype=float)
    values = x ** tau * torus_norm(omega * x)
    i = int(np.argmin(values))
    return float(values[i]), i + 1


def dense_count_below(h, sigma):
    """Number of eigenvalues of a sparse symmetric h below sigma.

    Sylvester's law of inertia: h - sigma has as many negative eigenvalues as
    the block-diagonal factor D of its Bunch-Kaufman factorization L D L^T.
    A 1 x 1 block counts when negative.  Bunch-Kaufman takes a 2 x 2 block
    only where its determinant is negative, so each has exactly one negative
    eigenvalue; LAPACK marks both of its rows with a negative pivot index.
    """
    d = h.shape[0]
    a = h.toarray()
    a[np.diag_indices(d)] -= sigma
    lwork, _ = dsytrf_lwork(d, lower=1)
    # a is symmetric: its transpose is the same matrix in Fortran order
    ldu, ipiv, _ = dsytrf(a.T, lower=1, lwork=int(lwork), overwrite_a=1)
    single = ipiv > 0
    return (int(np.count_nonzero(np.diag(ldu)[single] < 0.0))
            + int(np.count_nonzero(~single)) // 2)


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


def counterterm_flow_check(results, ratio_bound=2.0, continuity_factor=0.5):
    """Sanity report on a grid of CountertermResult values.

    Checks that nu vanishes at (0, 0), that sup |nu| / max(|eps|, |U|) stays
    below ratio_bound, and that nu moves by at most continuity_factor times
    the larger coupling step between adjacent grid points.
    """
    report = {"zero_at_origin": None, "max_ratio": 0.0,
              "ratio_ok": True, "continuity_ok": True,
              "worst_jump": 0.0, "ratio_bound": ratio_bound}
    eps_vals = sorted(set(k[0] for k in results))
    u_vals = sorted(set(k[1] for k in results))
    if (0.0, 0.0) in results:
        report["zero_at_origin"] = results[(0.0, 0.0)].nu == 0.0
    for (eps, U), res in results.items():
        denom = max(abs(eps), abs(U))
        if denom > 0.0:
            ratio = abs(res.nu) / denom
            report["max_ratio"] = max(report["max_ratio"], ratio)
            if ratio > ratio_bound:
                report["ratio_ok"] = False
    for i, eps in enumerate(eps_vals):
        for j, U in enumerate(u_vals):
            here = results[(eps, U)].nu
            if i + 1 < len(eps_vals):
                step = eps_vals[i + 1] - eps
                jump = abs(results[(eps_vals[i + 1], U)].nu - here)
                report["worst_jump"] = max(report["worst_jump"], jump)
                if jump > continuity_factor * step:
                    report["continuity_ok"] = False
            if j + 1 < len(u_vals):
                step = u_vals[j + 1] - U
                jump = abs(results[(eps, u_vals[j + 1])].nu - here)
                report["worst_jump"] = max(report["worst_jump"], jump)
                if jump > continuity_factor * step:
                    report["continuity_ok"] = False
    report["ok"] = bool(report["zero_at_origin"] and report["ratio_ok"]
                        and report["continuity_ok"])
    return report
