"""Exact grand-canonical layer: Fock basis, Hamiltonian, Lehmann two-point function.

Sites map to bits (site x <-> bit x + L/2); sectors of fixed particle number
are diagonalized densely so Lehmann sums run over complete spectra.  Energies
entering any exponential are shifted by the global ground value of E - mu N,
which leaves all observables invariant and keeps every weight in (0, 1].
"""

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh

from .single_particle import _site_index, onsite_energy


class IncompleteSpectralDataError(RuntimeError):
    """Lehmann sums need every particle-number sector."""


@dataclass(frozen=True)
class FockSector:
    """Ordered occupation-mask basis of a fixed particle number."""
    n_particles: int
    n_sites: int
    states: np.ndarray

    def __len__(self):
        return self.states.size


def enumerate_sector(L, n_particles):
    n_sites = L + 1
    if not 0 <= n_particles <= n_sites:
        raise ValueError("n_particles outside [0, L+1]")
    masks = np.arange(1 << n_sites, dtype=np.int64)
    return FockSector(n_particles=n_particles, n_sites=n_sites,
                      states=masks[np.bitwise_count(masks) == n_particles])


def _occupancy(sector):
    """(dim, n_sites) 0/1 array of bit occupations."""
    bits = np.arange(sector.n_sites)
    return (sector.states[:, None] >> bits[None, :]) & 1


def build_hamiltonian(params, sector):
    """Sparse symmetric Hamiltonian block of one particle-number sector.

    Diagonal: sum_x phi_x n_x plus the two-sided-delta pair term, which counts
    every bond twice (coefficient 2U per bond).  Hopping -eps between
    neighbors, open ends.  The counterterm nu enters only through mu.
    """
    occ = _occupancy(sector)
    phi = np.asarray(onsite_energy(params, params.sites), dtype=float)
    diag = occ @ phi
    if params.U != 0.0:
        diag = diag + 2.0 * params.U * np.sum(occ[:, :-1] * occ[:, 1:], axis=1)

    dim = len(sector)
    rows, cols, vals = [np.arange(dim)], [np.arange(dim)], [diag]
    if params.eps != 0.0:
        # exactly one of the two neighboring sites occupied; an adjacent hop
        # crosses no occupied site, so its sign is +1
        i, b = np.nonzero(occ[:, :-1] != occ[:, 1:])
        states = sector.states
        rows.append(i)
        cols.append(np.searchsorted(states, states[i] ^ (0b11 << b)))
        vals.append(np.full(i.size, -params.eps))
    return sp.csr_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(dim, dim))


def annihilation_matrix(sector_n, sector_np1, x_bit):
    """Matrix of a_x from the (N+1)-sector to the N-sector, occupation basis.

    Convention: removing (or adding) a particle at bit b carries the sign
    (-1)^(number of occupied bits below b).
    """
    bit = 1 << x_bit
    cols = np.flatnonzero(sector_np1.states & bit)
    occupied = sector_np1.states[cols]
    signs = 1.0 - 2.0 * (np.bitwise_count(occupied & (bit - 1)) & 1)
    rows = np.searchsorted(sector_n.states, occupied ^ bit)
    return sp.csr_matrix((signs, (rows, cols)),
                         shape=(len(sector_n), len(sector_np1)))


@dataclass
class SpectralDecomposition:
    """Complete per-sector eigen-decomposition of the many-body Hamiltonian.

    Eigenvalues are stored raw (no chemical potential); everything
    mu-dependent is assembled on demand so the counterterm search can reweight
    one decomposition instead of rediagonalizing.
    """
    params: object
    sectors: list
    energies: list
    vectors: list

    @property
    def n_sectors(self):
        return len(self.sectors)

    def _require_compatible(self, params):
        """Complete, and computed at params up to nu (which only shifts mu)."""
        if self.n_sectors != self.params.n_sites + 1:
            raise IncompleteSpectralDataError(
                f"need {self.params.n_sites + 1} sectors, have {self.n_sectors}")
        if replace(params, nu=0.0) != replace(self.params, nu=0.0):
            raise ValueError("params differ from those of the spectral "
                             "decomposition")

    def grand_energies(self, mu):
        return [e - mu * s.n_particles
                for e, s in zip(self.energies, self.sectors)]

    def ground_shift(self, mu):
        """Global minimum of E - mu N, subtracted before any exponential."""
        return min(float(np.min(k)) for k in self.grand_energies(mu))

    def shifted_energies(self, mu):
        k0 = self.ground_shift(mu)
        return [k - k0 for k in self.grand_energies(mu)]

    def sector_weights(self, mu):
        beta = self.params.beta
        return [np.exp(-beta * k) for k in self.shifted_energies(mu)]

    def partition_function(self, mu):
        return sum(float(np.sum(w)) for w in self.sector_weights(mu))


def diagonalize(params):
    """Dense eigh of every particle-number sector."""
    sectors, energies, vectors = [], [], []
    for n in range(params.n_sites + 1):
        sec = enumerate_sector(params.L, n)
        h = build_hamiltonian(params, sec).toarray()
        e, v = eigh(h, driver="evd")
        sectors.append(sec)
        energies.append(e)
        vectors.append(v)
    return SpectralDecomposition(params=params, sectors=sectors,
                                 energies=energies, vectors=vectors)


_BLOCK_ELEMENTS = 1 << 16  # entries of one weighted column block (512 kB)
_TAIL = 1e-16  # largest summed Boltzmann factor one side of a slab may drop


def _slab(w):
    """Kept length and dropped weight of one side of a thermal slab.

    Eigenvalues ascend within a sector, so |w| does not increase along w:
    dropping its smallest entries while their sum stays <= _TAIL keeps a
    leading block w[:keep].
    """
    suffix = np.cumsum(np.abs(w)[::-1])[::-1]
    keep = int(np.count_nonzero(suffix > _TAIL))
    return keep, float(suffix[keep]) if keep < w.size else 0.0


def _rotation_plan(slabs):
    """Slabs (r, c) to rotate so that each requested slab is a leading block
    of one of them.

    A slab inside a larger one is cut from it.  When the rest would cost
    more than their enclosing slab, that slab alone is rotated, so the stacks
    of one pair never outgrow the full d_n x d_{n+1} stack.
    """
    plan = []
    for r, c in sorted(set(slabs), key=lambda rc: rc[0] * rc[1], reverse=True):
        if not any(r <= r1 and c <= c1 for r1, c1 in plan):
            plan.append((r, c))
    box = (max(r for r, _ in plan), max(c for _, c in plan))
    if sum(r * c for r, c in plan) > box[0] * box[1]:
        return [box]
    return plan


def _rotated_annihilators(spectral, n, slabs):
    """Per slab (r, c) the stack A[x] = V_n[:, :r]^T a_x V_{n+1}[:, :c] over
    all sites, shape (n_sites, r, c)."""
    sec, sec1 = spectral.sectors[n], spectral.sectors[n + 1]
    vn, vn1 = spectral.vectors[n], spectral.vectors[n + 1]
    stacks = [np.empty((sec.n_sites, r, c)) for r, c in slabs]
    for x_bit in range(sec.n_sites):
        a = annihilation_matrix(sec, sec1, x_bit).tocoo()
        # one signed entry per touched row: rotate only the rows a_x reaches
        for (r, c), stack in zip(slabs, stacks):
            np.matmul(vn[a.row, :r].T, a.data[:, None] * vn1[a.col, :c],
                      out=stack[x_bit])
    return stacks


def _lehmann_factors(beta, t, k_row, k_col):
    """Pairs (w_row, w_col) whose outer products sum to the weight W_t.

    t > 0 is the a a+ ordering, t < 0 minus the a+ a ordering.  At t = 0 both
    one-sided limits enter with weight 1/2.
    """
    pairs = []
    if t >= 0.0:
        pairs.append((np.exp(-(beta - t) * k_row), np.exp(-t * k_col)))
    if t <= 0.0:
        pairs.append((-np.exp(t * k_row), np.exp(-(beta + t) * k_col)))
    if t == 0.0:
        pairs = [(0.5 * w_row, w_col) for w_row, w_col in pairs]
    return pairs


def _contract(s_t, stack, w_row, w_col):
    """s_t += sum_ij w_row[i] w_col[j] A[x, i, j] A[y, i, j].

    The stack is contracted in blocks of whole rows i, so that neither the
    weighted stack nor a full weight matrix is ever formed.
    """
    n_sites, d_row, d_col = stack.shape
    rows = max(1, _BLOCK_ELEMENTS // (n_sites * d_col))
    for i0 in range(0, d_row, rows):
        block = stack[:, i0:i0 + rows].reshape(n_sites, -1)
        w = np.outer(w_row[i0:i0 + rows], w_col)
        s_t += (block * w.ravel()) @ block.T


def _add_sector_pair(s, bound, spectral, n, k_row, k_col, beta, times):
    """Add the (n, n+1) sector pair's Lehmann terms into s[t], and the weight
    they leave out into bound[t].

    Each branch of each time is rotated and contracted only on its thermal
    slab, the leading rows and columns left by `_slab` on either side.  Every
    row and column of V_n^T a_x V_{n+1} has norm <= ||a_x|| = 1, so the
    entries the slab leaves out change no S2(x, y; t) by more than the
    dropped row plus column weight.  The slabs depend on the weights only, so
    t and t - beta get the same ones.  The stacks die with this call.
    """
    terms = []
    for it, t in enumerate(times):
        for w_row, w_col in _lehmann_factors(beta, t, k_row, k_col):
            r, dropped_row = _slab(w_row)
            c, dropped_col = _slab(w_col)
            bound[it] += dropped_row + dropped_col
            if r and c:
                terms.append((it, w_row[:r], w_col[:c]))
    if not terms:
        return
    plan = _rotation_plan([(w_row.size, w_col.size)
                           for _, w_row, w_col in terms])
    stacks = _rotated_annihilators(spectral, n, plan)
    for it, w_row, w_col in terms:
        r, c = w_row.size, w_col.size
        stack = next(a for a in stacks if r <= a.shape[1] and c <= a.shape[2])
        _contract(s[it], stack[:, :r, :c], w_row, w_col)


def _lehmann(params, spectral, times, mu=None):
    """S2(x, y; t) for all site pairs, shape (n_times, n_sites, n_sites), and
    per time a bound on the part the thermal slabs leave out.

    The one Lehmann sum of the package.  Per sector pair (n, n+1) the
    annihilators are rotated to the eigenbases once per distinct slab and
    every time slice is a weighted contraction of its stack, divided by Z at
    the end.  t = 0 means the mean of the one-sided limits.
    """
    times = [float(t) for t in times]
    if any(abs(t) >= params.beta for t in times):
        raise ValueError("time difference must satisfy |t| < beta")
    spectral._require_compatible(params)
    if mu is None:
        mu = params.mu
    shifted = spectral.shifted_energies(mu)
    s = np.zeros((len(times), params.n_sites, params.n_sites))
    bound = np.zeros(len(times))
    for n in range(spectral.n_sectors - 1):
        _add_sector_pair(s, bound, spectral, n, shifted[n], shifted[n + 1],
                         params.beta, times)
    z = spectral.partition_function(mu)
    return s / z, bound / z


def two_point_function(params, spectral, x, y, t, mu=None):
    """Imaginary-time-ordered two-point function S2(x, y; t), Lehmann form.

    At t = 0 the mean of the two one-sided limits is returned, matching the
    regularized equal-time convention of the free propagator.
    """
    ix, iy = _site_index(params.L, x), _site_index(params.L, y)
    s, _ = _lehmann(params, spectral, [t], mu)
    return float(s[0, ix, iy])


def equal_time_matrix(params, spectral, mu=None):
    """All-pairs S2(x, y; 0) in the mean-of-limits convention."""
    s, _ = _lehmann(params, spectral, [0.0], mu)
    return s[0]


def correlation_matrix(params, spectral, t, mu=None):
    """All-pairs S2(x, y; t) for one time difference."""
    s, _ = _lehmann(params, spectral, [t], mu)
    return s[0]


def occupations(params, spectral, mu=None):
    """Equal-time occupations <n_x> = sum_k w_k sum_m v_k(m)^2 n_x(m) / Z.

    Every term is non-negative, so occupations far below 1e-16 keep their
    relative precision; 1/2 - S2(x, x; 0) would cancel them to rounding noise.
    """
    spectral._require_compatible(params)
    if mu is None:
        mu = params.mu
    weights = spectral.sector_weights(mu)
    z = sum(float(np.sum(w)) for w in weights)
    occ = np.zeros(params.n_sites)
    for w, v, sec in zip(weights, spectral.vectors, spectral.sectors):
        occ += ((v ** 2) @ w) @ _occupancy(sec)
    return occ / z


def density(params, spectral, mu=None):
    """Mean filling <N> / (L+1), the quantity the counterterm search matches."""
    return mean_particle_number(params, spectral, mu) / params.n_sites


def mean_particle_number(params, spectral, mu=None):
    """<N> from sector weights alone; cheap objective for the counterterm search."""
    spectral._require_compatible(params)
    if mu is None:
        mu = params.mu
    weights = spectral.sector_weights(mu)
    z = sum(float(np.sum(w)) for w in weights)
    return sum(s.n_particles * float(np.sum(w))
               for s, w in zip(spectral.sectors, weights)) / z


@dataclass
class CorrelationFunction:
    """Sampled S2 values on a (time, x, y) grid with the generating parameters."""
    times: np.ndarray
    sites: np.ndarray
    values: np.ndarray          # shape (n_times, n_sites, n_sites)
    meta: dict
    convention: str = "equal-time mean of one-sided limits"
    # per time, a bound on |values - exact| from the discarded Boltzmann
    # weight; None for values that did not come from the Lehmann kernel
    discarded: np.ndarray = None

    def at_time(self, t):
        idx = int(np.argmin(np.abs(self.times - t)))
        if not math.isclose(float(self.times[idx]), t, abs_tol=1e-12):
            raise KeyError(f"time {t} not sampled")
        return self.values[idx]

    def value(self, x, y, t):
        L = self.sites.size - 1
        return float(self.at_time(t)[_site_index(L, x), _site_index(L, y)])


def compute_correlation(params, spectral, times, mu=None):
    """Sample the two-point function on a grid of time differences."""
    times = np.asarray(sorted(set(float(t) for t in times)))
    values, discarded = _lehmann(params, spectral, times, mu)
    return CorrelationFunction(times=times, sites=params.sites, values=values,
                               meta=params.to_dict(), discarded=discarded)
