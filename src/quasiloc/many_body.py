"""Exact grand-canonical layer: Fock basis, Hamiltonian, Lehmann two-point function.

Sites map to bits (site x <-> bit x + L/2).  Each sector of fixed particle
number keeps a thermal block: its lowest eigenpairs, below a floor that
bounds every eigenvalue it leaves out.  Sectors of at most _DENSE_MAX states
are diagonalized densely and kept whole.  Larger ones start empty below a
one-body lower bound and take a Lanczos (eigsh) block where that floor is
too low; an inertia count of the LDL^T factors of H - floor certifies that
no eigenvalue below the new floor was missed.  The states a block
leaves out weigh at most (d - k) e^(-b (floor - mu n - K0)) at exponent b; a
read whose summed bound exceeds _TAIL first extends the blocks it needs, so
no read answers from an unresolved spectrum.  The Lehmann kernel needs only
thermal eigenstates: completeness at t = 0, and otherwise KMS to bring t into
|t| <= beta/2 and expm_multiply for the non-thermal side.  Energies entering
any exponential are shifted by the global ground value K0 of E - mu N, which
leaves all observables invariant and keeps every weight in (0, 1].
"""

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.linalg.lapack import dsytrf, dsytrf_lwork
from scipy.sparse.linalg import eigsh, expm_multiply

from .single_particle import (_site_index, onsite_energy,
                              single_particle_spectrum)


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


_DENSE_MAX = 500  # largest sector diagonalized densely and kept whole
_K_START = 8  # Ritz pairs of a large sector's first Lanczos block
_LANCZOS_FRACTION = 0.05  # a block needing more of its sector goes dense
_LDL_MAX = 10_000  # largest sector whose inertia a dense LDL^T counts (800 MB)
_GAP = 1e-8  # smallest spacing of Ritz values a floor may sit in
_TAIL = 1e-16  # largest summed Boltzmann factor a read may leave out
_SEED = 5065  # of the Lanczos start vectors
_STACK_ELEMENTS = 1 << 22  # entries of one propagated stack chunk (32 MB)


def _lowest_block(h, k, cut):
    """Lowest eigenpairs of a sparse sector Hamiltonian h and a floor of at
    least `cut` below every eigenvalue they leave out, as (energies, vectors,
    floor).

    Lanczos (eigsh) finds k Ritz pairs from a seeded start vector, and k
    doubles until the block clears the cut.  The block keeps the pairs below
    the highest spacing of at least _GAP between consecutive Ritz values, and
    the floor is the midpoint of that spacing.  That no eigenvalue below the
    floor was missed is for _count_below to certify.  Where k would pass
    _LANCZOS_FRACTION of the sector, the whole spectrum is returned with
    floor +inf.  At the low end of a many-body spectrum the count of
    eigenvalues grows faster than linearly in energy, so the straight line
    through the first and last Ritz values underestimates the count below
    the cut; a block that line already sends past the fraction goes dense at
    once.
    """
    d = h.shape[0]
    while k <= _LANCZOS_FRACTION * d:
        v0 = np.random.default_rng(_SEED).standard_normal(d)
        e, v = eigsh(h, k=k, which="SA", v0=v0)
        order = np.argsort(e)
        e, v = e[order], v[:, order]
        gaps = np.flatnonzero(np.diff(e) >= _GAP)
        if gaps.size:
            keep = int(gaps[-1]) + 1
            floor = 0.5 * float(e[keep - 1] + e[keep])
            if floor >= cut:
                return e[:keep], v[:, :keep], floor
        if cut > e[-1]:
            slope = (k - 1) / max(float(e[-1] - e[0]), _GAP)
            k = max(2 * k, math.ceil(1 + slope * (cut - e[0])))
        else:
            k *= 2
    e, v = eigh(h.toarray(), driver="evd")
    return e, v, math.inf


def _count_below(h, sigma):
    """Number of eigenvalues of h below sigma; None above _LDL_MAX states.

    Sylvester's law of inertia: h - sigma has as many negative eigenvalues as
    the block-diagonal factor D of its Bunch-Kaufman factorization L D L^T.
    A 1 x 1 block counts when negative.  Bunch-Kaufman takes a 2 x 2 block
    only where its determinant is negative, so each has exactly one negative
    eigenvalue; LAPACK marks both of its rows with a negative pivot index.
    """
    d = h.shape[0]
    if d > _LDL_MAX:
        return None
    a = h.toarray()
    a[np.diag_indices(d)] -= sigma
    lwork, _ = dsytrf_lwork(d, lower=1)
    # a is symmetric: its transpose is the same matrix in Fortran order
    ldu, ipiv, _ = dsytrf(a.T, lower=1, lwork=int(lwork), overwrite_a=1)
    single = ipiv > 0
    return (int(np.count_nonzero(np.diag(ldu)[single] < 0.0))
            + int(np.count_nonzero(~single)) // 2)


@dataclass
class SpectralDecomposition:
    """Per-sector thermal blocks of the many-body Hamiltonian.

    energies[n] (ascending) and vectors[n] (d x k) are the k lowest
    eigenpairs of sector n, and hamiltonians[n] is its sparse Hamiltonian.
    Every eigenvalue the block leaves out is at least floors[n] (+inf when
    the block is the whole sector).  certified[n] is True when the block is
    whole, empty below the one-body bound of _ground_floor, or confirmed by
    an inertia count; False when the sector is too large to count; and None
    until it is counted.  Eigenvalues are stored raw (no chemical potential);
    everything mu-dependent is assembled on demand so the counterterm search
    can reweight one decomposition instead of rediagonalizing, and blocks
    grow when a read needs more of them.
    """
    params: object
    sectors: list
    energies: list
    vectors: list
    hamiltonians: list
    floors: list = None
    certified: list = None

    def __post_init__(self):
        if self.floors is None:
            self.floors = [math.inf] * len(self.sectors)
        if self.certified is None:
            self.certified = [True] * len(self.sectors)

    @property
    def n_sectors(self):
        return len(self.sectors)

    @property
    def tail_certified(self):
        """Whether every floor, so every reported tail bound, is certified."""
        return all(c is True for c in self.certified)

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
        return min(float(k[0]) for k in self.grand_energies(mu) if k.size)

    def shifted_energies(self, mu):
        k0 = self.ground_shift(mu)
        return [k - k0 for k in self.grand_energies(mu)]

    def sector_weights(self, mu):
        """Boltzmann factors of the kept states, once the tail at (mu, beta)
        is resolved."""
        beta = self.params.beta
        self._resolve(mu, beta)
        return [np.exp(-beta * k) for k in self.shifted_energies(mu)]

    def partition_function(self, mu):
        return sum(float(np.sum(w)) for w in self.sector_weights(mu))

    def tail_bound(self, mu, b):
        """Bound on the summed e^(-b (K - K0)) of the states no block holds."""
        return sum(self._tail_terms(mu, b))

    def _tail_terms(self, mu, b):
        k0 = self.ground_shift(mu)
        terms = []
        for s, e, f in zip(self.sectors, self.energies, self.floors):
            # a floor far below K0 leaves the tail unbounded, not overflowing
            x = -b * (f - mu * s.n_particles - k0)
            terms.append((len(s) - e.size) * math.exp(x) if x < 700.0
                         else math.inf)
        return terms

    def _resolve(self, mu, b):
        """Extend blocks until tail_bound(mu, b) <= _TAIL, then certify every
        block not yet counted."""
        terms = self._tail_terms(mu, b)
        while sum(terms) > _TAIL:
            target = _TAIL / len(terms)
            for n, term in enumerate(terms):
                if term > target:
                    self._extend(n, mu, b, target)
            terms = self._tail_terms(mu, b)
        for n, checked in enumerate(self.certified):
            if checked is None:
                self._certify(n)

    def _extend(self, n, mu, b, target):
        """Grow block n until the states it leaves out weigh at most target."""
        sec = self.sectors[n]
        # (d - k) e^(-b (floor - offset)) <= target once floor >= cut
        cut = (mu * sec.n_particles + self.ground_shift(mu)
               + math.log(len(sec) / target) / b)
        k = max(2 * self.energies[n].size, _K_START)
        self._set_block(n, *_lowest_block(self.hamiltonians[n], k, cut))

    def _set_block(self, n, energies, vectors, floor):
        self.energies[n], self.vectors[n], self.floors[n] = (energies, vectors,
                                                             floor)
        self.certified[n] = True if math.isinf(floor) else None

    def _certify(self, n):
        """Count the eigenvalues below the floor of block n.  Any other count
        than the block's size means Lanczos missed one, and the sector is
        diagonalized densely instead."""
        h = self.hamiltonians[n]
        count = _count_below(h, self.floors[n])
        if count is None:
            self.certified[n] = False
        elif count == self.energies[n].size:
            self.certified[n] = True
        else:
            self._set_block(n, *eigh(h.toarray(), driver="evd"), math.inf)


def _ground_floor(params, levels, n):
    """Lower bound on the lowest eigenvalue of sector n.

    Weyl's inequality: hopping plus onsite energy has the n lowest one-body
    levels as its sector-n ground energy, and the pair term 2U n_x n_{x+1}
    over at most n - 1 occupied bonds is at least 2 min(U, 0) (n - 1).
    _GAP keeps the bound below the rounding of the levels.
    """
    pair = 2.0 * min(params.U, 0.0) * max(n - 1, 0)
    return float(np.sum(levels[:n])) + pair - _GAP


def diagonalize(params):
    """Thermal blocks of every particle-number sector at (params.mu, beta).

    Sectors of at most _DENSE_MAX states are diagonalized densely and kept
    whole.  Larger ones start empty, their floor the one-body bound of
    _ground_floor, and take Lanczos blocks where the states they leave out
    weigh more than _TAIL in all; each Lanczos block is then certified by an
    inertia count.
    """
    levels = single_particle_spectrum(params)[0]
    sectors, hamiltonians, blocks = [], [], []
    for n in range(params.n_sites + 1):
        sec = enumerate_sector(params.L, n)
        h = build_hamiltonian(params, sec)
        if len(sec) <= _DENSE_MAX:
            blocks.append((*eigh(h.toarray(), driver="evd"), math.inf))
        else:
            blocks.append((np.empty(0), np.empty((len(sec), 0)),
                           _ground_floor(params, levels, n)))
        sectors.append(sec)
        hamiltonians.append(h)
    energies, vectors, floors = (list(x) for x in zip(*blocks))
    spectral = SpectralDecomposition(
        params=params, sectors=sectors, energies=energies, vectors=vectors,
        hamiltonians=hamiltonians, floors=floors)
    spectral._resolve(params.mu, params.beta)
    return spectral


def _slab(w):
    """Kept length and dropped weight of the thermal side of a Lehmann branch.

    Eigenvalues ascend within a sector, so |w| does not increase along w:
    dropping its smallest entries while their sum stays <= _TAIL keeps a
    leading block w[:keep].
    """
    suffix = np.cumsum(np.abs(w)[::-1])[::-1]
    keep = int(np.count_nonzero(suffix > _TAIL))
    return keep, float(suffix[keep]) if keep < w.size else 0.0


def _kms_reduce(t, beta):
    """(tau, sign) with S2(t) = sign S2(tau) and -beta/2 < tau <= beta/2,
    from KMS antiperiodicity S2(t - beta) = -S2(t).  The interval is half
    open so that t and t - beta always share their tau."""
    if t > 0.5 * beta:
        return t - beta, -1.0
    if t <= -0.5 * beta:
        return t + beta, -1.0
    return t, 1.0


def _propagate(h, offset, tau, stack):
    """e^(-tau (h - offset)) applied to every column of stack (d, sites, r)."""
    k = h - offset * sp.identity(h.shape[0], format="csr")
    d = stack.shape[0]
    # its norm estimates draw from numpy's global random state; restoring it
    # leaves a caller's np.random stream where the read found it
    state = np.random.get_state()
    try:
        return expm_multiply(-tau * k, stack.reshape(d, -1)).reshape(
            stack.shape)
    finally:
        np.random.set_state(state)


def _add_sector_pair(s, bound, spectral, n, shifted, k0, mu, beta):
    """Add the (n, n+1) sector pair's Lehmann terms into s[tau], and the
    weight their thermal slabs leave out into bound[tau].

    Branch tau >= 0 sums w_i <i| a_x e^(-tau K) a_y+ |i> over the thermal
    states i of sector n, w = e^(-(beta - tau) K); branch tau <= 0 sums
    -w_j <j| a_y+ e^(-|tau| K) a_x |j> over those of sector n+1.  No
    eigenbasis of the other sector enters: at tau = 0, where each branch
    carries 1/2, completeness removes e^(-|tau| K), and otherwise
    expm_multiply applies e^(-|tau| K / 2) to either side, so each term is a
    weighted Gram entry, symmetric in x and y, at half the propagation.  The
    thermal side is cut to the slab `_slab` leaves.  Every dropped term is
    at most its weight, since ||a_x|| = 1 and ||e^(-|tau| K / 2)|| <= 1 for
    K >= 0.  One stack of a_y+ |i> (or a_x |j>) over all sites serves every
    time of a branch; it is built and propagated in chunks of thermal states
    of at most _STACK_ELEMENTS entries.
    """
    sec, sec1 = spectral.sectors[n], spectral.sectors[n + 1]
    ann = [annihilation_matrix(sec, sec1, x) for x in range(sec.n_sites)]
    for sign, thermal, other in ((1.0, n, n + 1), (-1.0, n + 1, n)):
        terms = []
        for tau in s:
            if sign * tau < 0.0:
                continue
            w = np.exp(-(beta - abs(tau)) * shifted[thermal])
            if tau == 0.0:
                w *= 0.5
            keep, dropped = _slab(w)
            bound[tau] += dropped
            if keep:
                terms.append((tau, w[:keep]))
        if not terms:
            continue
        h = spectral.hamiltonians[other]
        offset = mu * spectral.sectors[other].n_particles + k0
        rows = max(w.size for _, w in terms)
        chunk = max(1, _STACK_ELEMENTS // (h.shape[0] * sec.n_sites))
        for i0 in range(0, rows, chunk):
            v = spectral.vectors[thermal][:, i0:i0 + chunk]
            # stack[:, x, i] is a_x+ |i> in sector n+1, or a_x |i> in sector n
            stack = np.stack([a.T @ v if sign > 0.0 else a @ v for a in ann],
                             axis=1)
            for tau, w in terms:
                if w.size <= i0:
                    continue
                part = stack[:, :, :w.size - i0]
                if tau != 0.0:
                    part = _propagate(h, offset, 0.5 * abs(tau), part)
                s[tau] += sign * np.tensordot(part * w[i0:i0 + chunk], part,
                                              axes=([0, 2], [0, 2]))


def _lehmann(params, spectral, times, mu=None):
    """S2(x, y; t) for all site pairs, shape (n_times, n_sites, n_sites), and
    per time a bound on what the thermal blocks and slabs leave out.

    The one Lehmann sum of the package.  KMS maps t and t - beta to the same
    tau with |tau| <= beta/2, so they share one propagation; the blocks are
    first extended until their tail at exponent beta - max |tau| is
    resolved.  The bound adds the dropped slab weight, the tail at
    beta - |tau| and the tail of Z, divided by Z.  t = 0 means the mean of
    the one-sided limits.
    """
    times = [float(t) for t in times]
    if any(abs(t) >= params.beta for t in times):
        raise ValueError("time difference must satisfy |t| < beta")
    spectral._require_compatible(params)
    if mu is None:
        mu = params.mu
    beta = params.beta
    reduced = [_kms_reduce(t, beta) for t in times]
    taus = sorted({tau for tau, _ in reduced})
    spectral._resolve(mu, beta - max(abs(tau) for tau in taus))
    s = {tau: np.zeros((params.n_sites, params.n_sites)) for tau in taus}
    bound = {tau: spectral.tail_bound(mu, beta - abs(tau))
             + spectral.tail_bound(mu, beta) for tau in taus}
    shifted = spectral.shifted_energies(mu)
    k0 = spectral.ground_shift(mu)
    for n in range(spectral.n_sectors - 1):
        _add_sector_pair(s, bound, spectral, n, shifted, k0, mu, beta)
    z = spectral.partition_function(mu)
    values = np.array([sign * s[tau] for tau, sign in reduced]) / z
    return values, np.array([bound[tau] for tau, _ in reduced]) / z


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

    Every term is non-negative, so where every sector is whole, occupations
    far below 1e-16 keep their relative precision; 1/2 - S2(x, x; 0) would
    cancel them to rounding noise.  Where a sector is truncated to its thermal
    block, the states left out shift an occupation by at most
    tail_bound(mu, beta) / Z <= _TAIL, an absolute bound.
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
