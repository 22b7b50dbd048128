"""Exact grand-canonical layer: Fock basis, Hamiltonian, Lehmann two-point function.

Sites map to bits (site x <-> bit x + L/2); sectors of fixed particle number
are diagonalized densely so Lehmann sums run over complete spectra.  Energies
entering any exponential are shifted by the global ground value of E - mu N,
which leaves all observables invariant and keeps every weight in (0, 1].
"""

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh

from .single_particle import onsite_energy, tadpole_counterterm


class IncompleteSpectralDataError(RuntimeError):
    """Lehmann sums need every particle-number sector."""


@dataclass(frozen=True)
class FockSector:
    """Ordered occupation-mask basis of a fixed particle number."""
    n_particles: int
    n_sites: int
    states: np.ndarray
    index_of: dict = field(repr=False)

    def __len__(self):
        return self.states.size


def enumerate_sector(L, n_particles):
    n_sites = L + 1
    if not 0 <= n_particles <= n_sites:
        raise ValueError("n_particles outside [0, L+1]")
    masks = sorted(
        sum(1 << b for b in combo)
        for combo in itertools.combinations(range(n_sites), n_particles))
    states = np.array(masks, dtype=np.int64)
    return FockSector(n_particles=n_particles, n_sites=n_sites, states=states,
                      index_of={m: i for i, m in enumerate(masks)})


def _occupancy(sector):
    """(dim, n_sites) 0/1 array of bit occupations."""
    bits = np.arange(sector.n_sites)
    return (sector.states[:, None] >> bits[None, :]) & 1


def build_hamiltonian(params, sector, include_counterterms=False):
    """Sparse symmetric Hamiltonian block of one particle-number sector.

    Diagonal: sum_x phi_x n_x plus the two-sided-delta pair term, which counts
    every bond twice (coefficient 2U per bond).  Hopping -eps between
    neighbors, open ends.  With include_counterterms the one-body nu + nu_C(x)
    term joins the diagonal.
    """
    occ = _occupancy(sector)
    phi = np.asarray(onsite_energy(params, params.sites), dtype=float)
    if include_counterterms:
        phi = phi + params.nu + np.array(
            [tadpole_counterterm(params, x) for x in params.sites])
    diag = occ @ phi
    if params.U != 0.0:
        diag = diag + 2.0 * params.U * np.sum(occ[:, :-1] * occ[:, 1:], axis=1)

    rows, cols, vals = [], [], []
    dim = len(sector)
    rows.extend(range(dim))
    cols.extend(range(dim))
    vals.extend(diag.tolist())
    if params.eps != 0.0:
        index_of = sector.index_of
        for i, mask in enumerate(sector.states.tolist()):
            for b in range(sector.n_sites - 1):
                pair = 0b11 << b
                # exactly one of the two neighboring sites occupied
                if bin(mask & pair).count("1") == 1:
                    j = index_of[mask ^ pair]
                    if j > i:
                        # adjacent hop: no occupied sites in between, sign +1
                        rows.extend((i, j))
                        cols.extend((j, i))
                        vals.extend((-params.eps, -params.eps))
    return sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))


def annihilation_matrix(sector_n, sector_np1, x_bit):
    """Matrix of a_x from the (N+1)-sector to the N-sector, occupation basis.

    Convention: removing (or adding) a particle at bit b carries the sign
    (-1)^(number of occupied bits below b).
    """
    bit = 1 << x_bit
    below = bit - 1
    rows, cols, vals = [], [], []
    index_of = sector_n.index_of
    for j, mask in enumerate(sector_np1.states.tolist()):
        if mask & bit:
            sign = -1.0 if bin(mask & below).count("1") % 2 else 1.0
            rows.append(index_of[mask ^ bit])
            cols.append(j)
            vals.append(sign)
    return sp.csr_matrix((vals, (rows, cols)),
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
    include_counterterms: bool = False

    @property
    def n_sectors(self):
        return len(self.sectors)

    def _require_compatible(self, params):
        """Complete, and computed at params up to nu (which only shifts mu
        unless the counterterms are part of H)."""
        if self.n_sectors != self.params.n_sites + 1:
            raise IncompleteSpectralDataError(
                f"need {self.params.n_sites + 1} sectors, have {self.n_sectors}")
        free_nu = {} if self.include_counterterms else {"nu": 0.0}
        if replace(params, **free_nu) != replace(self.params, **free_nu):
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

    def sector_probabilities(self, mu=None):
        if mu is None:
            mu = self.params.mu
        w = self.sector_weights(mu)
        z = sum(float(np.sum(wi)) for wi in w)
        return np.array([float(np.sum(wi)) / z for wi in w])

    def residual_norm(self, n):
        """max_k ||H v_k - E_k v_k|| / ||H|| for sector n (diagnostic)."""
        h = build_hamiltonian(self.params, self.sectors[n],
                              self.include_counterterms).toarray()
        r = h @ self.vectors[n] - self.vectors[n] * self.energies[n]
        hnorm = max(np.linalg.norm(h, 2), 1e-300)
        return float(np.max(np.linalg.norm(r, axis=0))) / hnorm


def diagonalize(params, include_counterterms=False):
    """Dense eigh of every particle-number sector."""
    sectors, energies, vectors = [], [], []
    for n in range(params.n_sites + 1):
        sec = enumerate_sector(params.L, n)
        h = build_hamiltonian(params, sec, include_counterterms).toarray()
        e, v = eigh(h)
        sectors.append(sec)
        energies.append(e)
        vectors.append(v)
    return SpectralDecomposition(params=params, sectors=sectors,
                                 energies=energies, vectors=vectors,
                                 include_counterterms=include_counterterms)


_BLOCK_ELEMENTS = 1 << 16  # entries of one weighted column block (512 kB)


def _rotated_annihilators(spectral, n):
    """Stack A[x] = V_n^T a_x V_{n+1} over all sites, shape (n_sites, d_n, d_{n+1})."""
    sec, sec1 = spectral.sectors[n], spectral.sectors[n + 1]
    vn, vn1 = spectral.vectors[n], spectral.vectors[n + 1]
    stack = np.empty((sec.n_sites, len(sec), len(sec1)))
    for x_bit in range(sec.n_sites):
        a = annihilation_matrix(sec, sec1, x_bit).tocoo()
        # one signed entry per touched row: rotate only the rows a_x reaches
        np.matmul(vn[a.row].T, a.data[:, None] * vn1[a.col], out=stack[x_bit])
    return stack


def _lehmann_factors(beta, t, k_row, k_col, left_limit):
    """Pairs (w_row, w_col) whose outer products sum to the weight W_t.

    t > 0 is the a a+ ordering, t < 0 minus the a+ a ordering.  At t = 0 both
    one-sided limits enter with weight 1/2, or t -> 0- alone with left_limit.
    """
    pairs = []
    if t > 0.0 or (t == 0.0 and not left_limit):
        pairs.append((np.exp(-(beta - t) * k_row), np.exp(-t * k_col)))
    if t <= 0.0:
        pairs.append((-np.exp(t * k_row), np.exp(-(beta + t) * k_col)))
    if t == 0.0 and not left_limit:
        pairs = [(0.5 * w_row, w_col) for w_row, w_col in pairs]
    return pairs


def _add_sector_pair(s, spectral, n, k_row, k_col, beta, times, left_limit):
    """Add sum_ij W_t[i, j] A[x, i, j] A[y, i, j] into s[t] for every t.

    The stack is contracted in blocks of whole rows i, so that neither the
    weighted stack nor a full W_t is ever formed.  The stack dies with this
    call, so only one sector pair's stack is alive at a time.
    """
    factors = [_lehmann_factors(beta, t, k_row, k_col, left_limit)
               for t in times]
    a = _rotated_annihilators(spectral, n).reshape(s.shape[1], -1)
    d_col = k_col.size
    rows = max(1, _BLOCK_ELEMENTS // (a.shape[0] * d_col))
    for i0 in range(0, k_row.size, rows):
        i1 = i0 + rows
        block = a[:, i0 * d_col:i1 * d_col]
        for s_t, pairs in zip(s, factors):
            w = sum(np.outer(w_row[i0:i1], w_col) for w_row, w_col in pairs)
            s_t += (block * w.ravel()) @ block.T


def _lehmann(params, spectral, times, mu=None, left_limit=False):
    """S2(x, y; t) for all site pairs, shape (n_times, n_sites, n_sites).

    The one Lehmann sum of the package.  Per sector pair (n, n+1) the
    annihilators are rotated to the eigenbases once and every time slice is
    a weighted contraction of that stack, divided by Z at the end.  t = 0
    means the mean of the one-sided limits unless left_limit asks for t -> 0-.
    """
    times = [float(t) for t in times]
    if any(abs(t) >= params.beta for t in times):
        raise ValueError("time difference must satisfy |t| < beta")
    spectral._require_compatible(params)
    if mu is None:
        mu = params.mu
    shifted = spectral.shifted_energies(mu)
    s = np.zeros((len(times), params.n_sites, params.n_sites))
    for n in range(spectral.n_sectors - 1):
        _add_sector_pair(s, spectral, n, shifted[n], shifted[n + 1],
                         params.beta, times, left_limit)
    return s / spectral.partition_function(mu)


def two_point_function(params, spectral, x, y, t, mu=None):
    """Imaginary-time-ordered two-point function S2(x, y; t), Lehmann form.

    At t = 0 the mean of the two one-sided limits is returned, matching the
    regularized equal-time convention of the free propagator.
    """
    half = params.L // 2
    return float(_lehmann(params, spectral, [t], mu)[0, x + half, y + half])


def equal_time_matrix(params, spectral, mu=None):
    """All-pairs S2(x, y; 0) in the mean-of-limits convention."""
    return _lehmann(params, spectral, [0.0], mu)[0]


def correlation_matrix(params, spectral, t, mu=None):
    """All-pairs S2(x, y; t) for one time difference."""
    return _lehmann(params, spectral, [t], mu)[0]


def occupations(params, spectral, mu=None):
    """Equal-time occupations <n_x> = -S2(x, x; 0-).

    The one-sided limit keeps occupations far below 1e-16 to relative
    precision; 1/2 - S2(x, x; 0) would cancel them to rounding noise.
    """
    return -np.diagonal(_lehmann(params, spectral, [0.0], mu,
                                 left_limit=True)[0])


def density(params, spectral, mu=None):
    """Mean filling (1/(L+1)) sum_x <n_x> from the correlation route."""
    return float(np.mean(occupations(params, spectral, mu)))


def occupations_expectation(params, spectral, mu=None):
    """Independent route: <n_x> as a thermal expectation over eigenvectors."""
    spectral._require_compatible(params)
    if mu is None:
        mu = params.mu
    weights = spectral.sector_weights(mu)
    z = spectral.partition_function(mu)
    occ = np.zeros(params.n_sites)
    for w, v, sec in zip(weights, spectral.vectors, spectral.sectors):
        occ += w @ ((v ** 2).T @ _occupancy(sec)) / z
    return occ


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

    def at_time(self, t):
        idx = int(np.argmin(np.abs(self.times - t)))
        if not math.isclose(float(self.times[idx]), t, abs_tol=1e-12):
            raise KeyError(f"time {t} not sampled")
        return self.values[idx]

    def value(self, x, y, t):
        half = (self.sites.size - 1) // 2
        return float(self.at_time(t)[x + half, y + half])


def compute_correlation(params, spectral, times, mu=None):
    """Sample the two-point function on a grid of time differences."""
    times = np.asarray(sorted(set(float(t) for t in times)))
    return CorrelationFunction(times=times, sites=params.sites,
                               values=_lehmann(params, spectral, times, mu),
                               meta=params.to_dict())
