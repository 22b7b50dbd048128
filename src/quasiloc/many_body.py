"""Exact grand-canonical layer: Fock basis, Hamiltonian, Lehmann two-point function.

Sites map to bits (site x <-> bit x + L/2).  Each sector of fixed particle
number keeps a thermal block: its lowest eigenpairs, below a floor that
bounds every eigenvalue it leaves out.  Sectors of at most _DENSE_MAX states
are diagonalized densely and kept whole.  Larger ones start empty below a
one-body lower bound and take a Lanczos (eigsh) block where that floor is
too low; the inertia of sparse LDL^T factors of H - floor, counted at two
shifts and guarded against pivoting and tiny pivots, certifies that no
eigenvalue below the new floor was missed.  The states a block leaves out
weigh at most (d - k) e^(-b (floor - mu n - K0)) at exponent b; a read whose
summed bound exceeds _TAIL first extends the blocks it needs, so no read
answers from an unresolved spectrum.  The Lehmann kernel needs only thermal
eigenstates: completeness at t = 0, and otherwise KMS to bring t into
|t| <= beta/2 and a Chebyshev series of e^(-tau K) for the non-thermal side,
cut where its left-out coefficients bound the error below _TAIL.  Energies
entering any exponential are shifted by the global ground value K0 of
E - mu N, which leaves all observables invariant and keeps every weight in
(0, 1].
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.sparse.linalg import eigsh, splu
from scipy.special import ive

from .single_particle import onsite_energy, single_particle_spectrum


class IncompleteSpectralDataError(RuntimeError):
    """Lehmann sums need every particle-number sector."""


@dataclass(frozen=True)
class FockSector:
    """Ordered occupation-mask basis of a fixed particle number."""
    n_particles: int
    n_sites: int

    def __len__(self):
        return math.comb(self.n_sites, self.n_particles)

    @property
    def states(self):
        """The masks, int64 and read-only, built when first read and shared."""
        return _masks(self.n_sites, self.n_particles)


def enumerate_sector(L, n_particles):
    """The sector of n_particles particles on the L + 1 sites: every
    occupation mask with that many bits set, in ascending order."""
    n_sites = L + 1
    if not 0 <= n_particles <= n_sites:
        raise ValueError("n_particles outside [0, L+1]")
    return FockSector(n_particles=n_particles, n_sites=n_sites)


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)


@functools.cache
def _masks(n_sites, n):
    """The masks of n_sites bits with n set, ascending, by Pascal's rule:
    those without the top bit, then those with it."""
    if n in (0, n_sites):
        masks = np.array([(1 << n) - 1], dtype=np.int64)
    else:
        top = 1 << (n_sites - 1)
        masks = np.concatenate([_masks(n_sites - 1, n),
                                _masks(n_sites - 1, n - 1) | top])
    _read_only(masks)
    return masks


@dataclass(frozen=True)
class _Structure:
    """What a sector's Hamiltonian and annihilators take from the basis
    alone, shared by every ModelParams at its size.  All arrays read-only.

    occ: (dim, n_sites) int8 bit occupations; bonds: occupied bonds per
    state; indices and indptr: the CSR pattern of H with hopping, each row's
    columns ascending, as COO -> CSR conversion leaves them; diagonal: where
    the diagonal entries sit in its data; eye: 0..dim, the pattern of the
    diagonal-only H as (eye[:-1], eye).
    """
    occ: np.ndarray
    bonds: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    diagonal: np.ndarray
    eye: np.ndarray


@functools.cache
def _structure(sector):
    """The _Structure of a FockSector."""
    states = sector.states
    dim = states.size
    occ = ((states[:, None] >> np.arange(sector.n_sites)) & 1).astype(np.int8)
    bonds = np.sum(occ[:, :-1] & occ[:, 1:], axis=1, dtype=np.int8)
    # exactly one of the two neighboring sites occupied; an adjacent hop
    # crosses no occupied site, so its sign is +1
    i, b = np.nonzero(occ[:, :-1] != occ[:, 1:])
    eye = np.arange(dim + 1, dtype=np.int32)
    rows = np.concatenate([eye[:-1], i])
    cols = np.concatenate([eye[:-1],
                           np.searchsorted(states, states[i] ^ (0b11 << b))])
    order = np.lexsort((cols, rows))
    indices = cols[order].astype(np.int32)
    indptr = np.zeros(dim + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=dim), out=indptr[1:])
    diagonal = np.flatnonzero(order < dim).astype(np.int32)
    _read_only(occ, bonds, indices, indptr, diagonal, eye)
    return _Structure(occ=occ, bonds=bonds, indices=indices, indptr=indptr,
                      diagonal=diagonal, eye=eye)


def build_hamiltonian(params, sector):
    """Sparse symmetric Hamiltonian block of one particle-number sector.

    Diagonal: sum_x phi_x n_x plus the two-sided-delta pair term, which counts
    every bond twice (coefficient 2U per bond).  Hopping -eps between
    neighbors, open ends; at eps = 0 the matrix holds the diagonal alone.
    The counterterm nu enters only through mu.  Only the values depend on
    params: the returned matrix has its own data, but its indices and indptr
    are the sector's shared, read-only pattern.
    """
    st = _structure(sector)
    phi = np.asarray(onsite_energy(params, params.sites), dtype=float)
    diag = st.occ @ phi
    if params.U != 0.0:
        diag = diag + 2.0 * params.U * st.bonds
    dim = len(sector)
    if params.eps == 0.0:
        return sp.csr_matrix((diag, st.eye[:-1], st.eye), shape=(dim, dim))
    data = np.full(st.indices.size, -params.eps)
    data[st.diagonal] = diag
    return sp.csr_matrix((data, st.indices, st.indptr), shape=(dim, dim))


def _stack(occ, hits, source, target):
    """CSR stack whose row j S + x holds, for each (j, x) in hits, the sign
    of flipping bit x of source[j] in the column of the flipped mask in
    target; other rows are empty."""
    j, x = np.nonzero(hits)
    below = np.cumsum(occ, axis=1) - occ
    data = 1.0 - 2.0 * (below[j, x] & 1)
    indices = np.searchsorted(target, source[j] ^ (1 << x)).astype(np.int32)
    indptr = np.zeros(hits.size + 1, dtype=np.int32)
    np.cumsum(hits.ravel(), out=indptr[1:])
    _read_only(data, indices, indptr)
    return sp.csr_matrix((data, indices, indptr),
                         shape=(hits.size, target.size))


@functools.cache
def _stacks(sector_n, sector_np1):
    """Every a_x from the (N+1)-sector to the N-sector, stacked site-minor.

    Returns (up, down): up = vstack_x a_x^T of shape (d_{N+1} S, d_N) and
    down = vstack_x a_x of shape (d_N S, d_{N+1}), S = n_sites, with row
    j S + x holding row j of a_x^T (or a_x).  So up @ v reshaped to
    (d_{N+1}, S, r) holds a_x+ v[:, i] at [:, x, i], and the rows x::S of
    down are a_x: a_x^T has an entry where x is occupied in the (N+1)-state,
    a_x where it is empty in the N-state.  Each a_x has at most one entry,
    +1 or -1, per row and per column, so products with either stack are
    exact.  The pair depends only on the sectors, so it is built once per
    process and shared, read-only.

    Convention: removing (or adding) a particle at bit b carries the sign
    (-1)^(number of occupied bits below b).
    """
    occ, occ1 = _structure(sector_n).occ, _structure(sector_np1).occ
    return (_stack(occ1, occ1 == 1, sector_np1.states, sector_n.states),
            _stack(occ, occ == 0, sector_n.states, sector_np1.states))


_DENSE_MAX = 500  # largest sector diagonalized densely and kept whole
_K_START = 8  # Ritz pairs of a large sector's first Lanczos block
_LANCZOS_FRACTION = 0.05  # a block needing more of its sector goes dense
# largest sector whose inertia a sparse LDL^T counts: the factors fill as
# about d^2, 27M entries and 0.8 GB peak at 19,448 states (L = 16)
_COUNT_MAX = 25_000
_PIVOT_FRACTION = 1e-3  # smallest |pivot| of a trusted count, per Ritz spacing
_GAP = 1e-8  # smallest spacing of Ritz values a floor may sit in
_TAIL = 1e-16  # largest summed Boltzmann factor a read may leave out
_SEED = 5065  # of the Lanczos start vectors
_STACK_ELEMENTS = 1 << 22  # entries of one propagated stack chunk (32 MB)


def _whole(h):
    """The whole spectrum of a sector Hamiltonian h as a block with floor +inf."""
    return (*eigh(h.toarray(), driver="evd"), math.inf)


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
    return _whole(h)


def _inertia(h, sigma):
    """(number of negative pivots, smallest |pivot|) of a symmetric LDL^T
    factorization of h - sigma, or None where it pivoted off the diagonal or
    found h - sigma singular.

    SuperLU in symmetric mode with no threshold pivoting factors
    P^T (h - sigma) P = L U with U = D L^T when perm_r equals perm_c, so by
    Sylvester's law of inertia the negative diagonal entries of U count the
    eigenvalues of h below sigma.
    """
    a = (h - sigma * sp.identity(h.shape[0], format="csr")).tocsc()
    try:
        lu = splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError:  # "Factor is exactly singular"
        return None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    pivots = lu.U.diagonal()
    return int(np.count_nonzero(pivots < 0.0)), float(np.min(np.abs(pivots)))


def _count_below(h, sigma, spacing):
    """Number of eigenvalues of h below sigma, the midpoint of a spacing
    between Ritz values; None where no count can be trusted.

    Without pivoting the factorization of an indefinite matrix is not
    backward stable, and a tiny pivot can flip a sign.  So the count is
    trusted only when the sector has at most _COUNT_MAX states, both
    factorizations keep their pivots on the diagonal, no pivot is smaller
    than _PIVOT_FRACTION of the spacing, and a second count at
    sigma - spacing / 4, inside the same spacing, agrees.
    """
    if h.shape[0] > _COUNT_MAX:
        return None
    counts = set()
    for shift in (sigma, sigma - 0.25 * spacing):
        inertia = _inertia(h, shift)
        if inertia is None or inertia[1] < _PIVOT_FRACTION * spacing:
            return None
        counts.add(inertia[0])
    return counts.pop() if len(counts) == 1 else None


@dataclass
class SpectralDecomposition:
    """Per-sector thermal blocks of the many-body Hamiltonian.

    energies[n] (ascending) and vectors[n] (d x k) are the k lowest
    eigenpairs of sector n.  Every eigenvalue the block leaves out is at
    least floors[n] (+inf when the block is the whole sector).  certified[n]
    is True when the block is whole, empty below the one-body bound of
    _ground_floor, or confirmed by an inertia count; False when no count can
    be trusted (see _count_below); and None until it is counted.
    Eigenvalues are stored raw (no chemical potential); everything
    mu-dependent is assembled on demand so the counterterm search can
    reweight one decomposition instead of rediagonalizing, and blocks grow
    when a read needs more of them.  No Hamiltonian is kept: a block that
    grows or is counted, and a sector a read propagates into, builds its H
    from params (it does not depend on nu).
    """
    params: object
    sectors: list
    energies: list
    vectors: list
    floors: list
    certified: list

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

    def ground_shift(self, mu):
        """Global minimum of E - mu N, subtracted before any exponential."""
        return min(float(e[0]) - mu * s.n_particles
                   for e, s in zip(self.energies, self.sectors) if e.size)

    def shifted_energies(self, mu):
        """Kept E - mu N less the ground shift, per sector."""
        k0 = self.ground_shift(mu)
        return [e - mu * s.n_particles - k0
                for e, s in zip(self.energies, self.sectors)]

    def thermal_weights(self, params):
        """(Boltzmann factors of the kept states per sector, Z) at
        (params.mu, params.beta), once the tail there is resolved."""
        self._require_compatible(params)
        mu, beta = params.mu, params.beta
        self._resolve(mu, beta)
        weights = [np.exp(-beta * k) for k in self.shifted_energies(mu)]
        return weights, sum(float(np.sum(w)) for w in weights)

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
        h = build_hamiltonian(self.params, sec)
        self._set_block(n, *_lowest_block(h, k, cut))

    def _set_block(self, n, energies, vectors, floor):
        self.energies[n], self.vectors[n], self.floors[n] = (energies, vectors,
                                                             floor)
        self.certified[n] = True if math.isinf(floor) else None

    def _certify(self, n):
        """Count the eigenvalues below the floor of block n.  Any other count
        than the block's size means Lanczos missed one, and the sector is
        diagonalized densely instead."""
        h = build_hamiltonian(self.params, self.sectors[n])
        floor = self.floors[n]
        # the floor is the midpoint of the spacing above the highest kept value
        count = _count_below(h, floor, 2.0 * (floor - self.energies[n][-1]))
        if count is None:
            self.certified[n] = False
        elif count == self.energies[n].size:
            self.certified[n] = True
        else:
            self._set_block(n, *_whole(h))


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
    sectors, blocks = [], []
    for n in range(params.n_sites + 1):
        sec = enumerate_sector(params.L, n)
        if len(sec) <= _DENSE_MAX:
            blocks.append(_whole(build_hamiltonian(params, sec)))
        else:
            blocks.append((np.empty(0), np.empty((len(sec), 0)),
                           _ground_floor(params, levels, n)))
        sectors.append(sec)
    energies, vectors, floors = (list(x) for x in zip(*blocks))
    spectral = SpectralDecomposition(
        params=params, sectors=sectors, energies=energies, vectors=vectors,
        floors=floors, certified=[True] * len(sectors))
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


def _chebyshev(tau, lo, hi, tol):
    """Chebyshev series of e^(-tau x) on [lo, hi], as (coefficients, bound).

    With x = c + r y, c = (lo + hi) / 2 and r = (hi - lo) / 2,
    e^(-tau x) = sum_k c_k T_k(y), c_k = e^(-tau lo) 2 (-1)^k ive(k, tau r)
    and half that at k = 0.  |T_k| <= 1 on the interval, so the coefficients
    a series leaves out bound its error there.  The power series of I_k gives
    I_(k+1)(z) <= z / (2 (k + 1)) I_k(z) term by term, so beyond degree m,
    once m + 2 > z / 2, they sum to at most |c_(m+1)| / (1 - z / (2 (m + 2))).
    The series is cut at the first degree where that bound is at most tol.
    With lo >= 0 the coefficients sum to at most 1 in magnitude, so rounding
    in the recurrence is not amplified either.
    """
    scale = math.exp(-tau * lo)
    z = 0.5 * tau * max(hi - lo, 0.0)
    size = math.ceil(z + 10.0 * math.sqrt(z) + 32.0)
    while True:
        k = np.arange(size)
        c = 2.0 * scale * ive(k, z)
        c[0] *= 0.5
        c[1::2] *= -1.0
        ratio = z / (2.0 * (k[:-1] + 2.0))
        rest = np.divide(np.abs(c[1:]), 1.0 - ratio,
                         out=np.full(ratio.shape, math.inf),
                         where=ratio < 1.0)
        fits = np.flatnonzero(rest <= tol)
        if fits.size:
            m = int(fits[0])
            return c[:m + 1], float(rest[m])
        size *= 2


def _propagate(y2, coefficients, stack):
    """sum_k coefficients[k] T_k(y) applied to every column of stack
    (d, sites, r), for y2 = 2 y.

    Clenshaw's recurrence b_k = c_k x + 2 y b_(k+1) - b_(k+2), down from the
    highest degree, with the sum c_0 x + y b_1 - b_2: four blocks of the
    stack's size are live at a time.
    """
    x = stack.reshape(stack.shape[0], -1)
    if coefficients.size == 1:
        return (coefficients[0] * x).reshape(stack.shape)
    b1, b2 = coefficients[-1] * x, np.zeros_like(x)
    for c in coefficients[-2:0:-1]:
        b0 = y2 @ b1
        b0 -= b2
        np.multiply(x, c, out=b2)
        b0 += b2
        b1, b2 = b0, b1
    out = y2 @ b1
    out *= 0.5
    out -= b2
    np.multiply(x, coefficients[0], out=b2)
    out += b2
    return out.reshape(stack.shape)


def _gershgorin_top(h):
    """Upper end of the Gershgorin discs of a sparse symmetric h."""
    diag = h.diagonal()
    return float(np.max(abs(h).sum(axis=1).A1 - np.abs(diag) + diag))


def _add_sector_pair(s, bound, spectral, n, shifted, k0, mu, beta):
    """Add the (n, n+1) sector pair's Lehmann terms into s[tau], and a bound
    on what they leave out or get wrong into bound[tau].

    Branch tau >= 0 sums w_i <i| a_x e^(-tau K) a_y+ |i> over the thermal
    states i of sector n, w = e^(-(beta - tau) K); branch tau <= 0 sums
    -w_j <j| a_y+ e^(-|tau| K) a_x |j> over those of sector n+1.  No
    eigenbasis of the other sector enters: at tau = 0, where each branch
    carries 1/2, completeness removes e^(-|tau| K), and otherwise a
    polynomial p(K) approximates e^(-|tau| K / 2) on either side, so each
    term is a weighted Gram entry, symmetric in x and y, at half the
    propagation.  p is the Chebyshev series of _chebyshev on [lo, hi]: lo
    is the other sector's lowest eigenvalue (its lowest kept value, or its
    floor when it keeps none) less the offset, at least 0 since K0 is the
    global ground value, and hi the Gershgorin upper end of K.  Its error
    delta bounds ||p(K) - e^(-|tau| K / 2)||, so ||p(K)|| <= 1 + delta and
    each kept term is off by at most w (2 delta + delta^2), since
    ||a_x|| = 1; the series is cut where that sums to at most _TAIL over the
    slab.  The thermal side is cut to the slab `_slab` leaves, and every
    dropped term is at most its weight.  One stack of a_y+ |i> (or a_x |j>)
    over all sites serves every time of a branch; it is one sparse product
    with the pair's stacked annihilators, built and propagated in chunks of
    thermal states of at most _STACK_ELEMENTS entries.
    """
    sec, sec1 = spectral.sectors[n], spectral.sectors[n + 1]
    stacks = None  # (up, down), built once a branch keeps a term
    for sign, thermal, other, side in ((1.0, n, n + 1, 0),
                                       (-1.0, n + 1, n, 1)):
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
        if stacks is None:
            stacks = _stacks(sec, sec1)
        ann = stacks[side]
        target = spectral.sectors[other]
        dim = len(target)
        series = {}
        if any(tau != 0.0 for tau, _ in terms):
            h = build_hamiltonian(spectral.params, target)
            offset = mu * target.n_particles + k0
            kept = spectral.energies[other]
            lowest = kept[0] if kept.size else spectral.floors[other]
            lo = max(float(lowest) - offset, 0.0)
            r = 0.5 * max(_gershgorin_top(h) - offset - lo, 0.0)
            # 2 y, where y = (K - lo - r) / r maps [lo, lo + 2 r] onto [-1, 1]
            y2 = (h - (offset + lo + r) * sp.identity(dim, format="csr")
                  ) * (2.0 / r) if r > 0.0 else None
            for tau, w in terms:
                if tau != 0.0:
                    total = float(np.sum(w))
                    series[tau], delta = _chebyshev(
                        0.5 * abs(tau), lo, lo + 2.0 * r, _TAIL / (3.0 * total))
                    bound[tau] += (2.0 + delta) * delta * total
        rows = max(w.size for _, w in terms)
        chunk = max(1, _STACK_ELEMENTS // (dim * sec.n_sites))
        for i0 in range(0, rows, chunk):
            v = spectral.vectors[thermal][:, i0:min(i0 + chunk, rows)]
            # stack[:, x, i] is a_x+ |i> in sector n+1, or a_x |i> in sector n
            stack = (ann @ v).reshape(dim, sec.n_sites, -1)
            for tau, w in terms:
                if w.size <= i0:
                    continue
                part = stack[:, :, :w.size - i0]
                if tau in series:
                    part = _propagate(y2, series[tau], part)
                # batched Gram products over the other sector's states: no
                # transposed copy of the chunk, unlike one tensordot
                s[tau] += sign * np.matmul(part * w[i0:i0 + chunk],
                                           part.transpose(0, 2, 1)).sum(axis=0)


def _lehmann(params, spectral, times):
    """S2(x, y; t) for all site pairs, shape (n_times, n_sites, n_sites), and
    per time a bound on what the thermal blocks and slabs leave out.

    The one Lehmann sum of the package.  KMS maps t and t - beta to the same
    tau with |tau| <= beta/2, so they share one propagation; the blocks are
    first extended until their tail at exponent beta - max |tau| is
    resolved, which also resolves the tail of Z at beta.  The bound adds the
    dropped slab weight, the error of the Chebyshev propagation, the tail at
    beta - |tau| and the tail of Z, divided by Z.  t = 0 means the mean of
    the one-sided limits.
    """
    times = [float(t) for t in times]
    if not all(abs(t) < params.beta for t in times):  # false for NaN too
        raise ValueError("time difference must satisfy |t| < beta")
    spectral._require_compatible(params)  # before any block is extended
    mu, beta = params.mu, params.beta
    reduced = [_kms_reduce(t, beta) for t in times]
    taus = sorted({tau for tau, _ in reduced})
    spectral._resolve(mu, beta - max(abs(tau) for tau in taus))
    _, z = spectral.thermal_weights(params)
    z_tail = spectral.tail_bound(mu, beta)
    s = {tau: np.zeros((params.n_sites, params.n_sites)) for tau in taus}
    bound = {tau: spectral.tail_bound(mu, beta - abs(tau)) + z_tail
             for tau in taus}
    shifted = spectral.shifted_energies(mu)
    k0 = spectral.ground_shift(mu)
    for n in range(spectral.n_sectors - 1):
        _add_sector_pair(s, bound, spectral, n, shifted, k0, mu, beta)
    values = np.array([sign * s[tau] for tau, sign in reduced]) / z
    return values, np.array([bound[tau] for tau, _ in reduced]) / z


def equal_time_matrix(params, spectral):
    """All-pairs S2(x, y; 0) in the mean-of-limits convention."""
    s, _ = _lehmann(params, spectral, [0.0])
    return s[0]


def correlation_matrix(params, spectral, t):
    """All-pairs S2(x, y; t) for one time difference; entry [x + L/2, y + L/2]
    is the pair (x, y)."""
    s, _ = _lehmann(params, spectral, [t])
    return s[0]


def occupations(params, spectral):
    """Equal-time occupations <n_x> = sum_k w_k sum_m v_k(m)^2 n_x(m) / Z.

    Every term is non-negative, so where every sector is whole, occupations
    far below 1e-16 keep their relative precision; 1/2 - S2(x, x; 0) would
    cancel them to rounding noise.  Where a sector is truncated to its thermal
    block, the states left out shift an occupation by at most
    tail_bound(mu, beta) / Z <= _TAIL, an absolute bound.
    """
    weights, z = spectral.thermal_weights(params)
    occ = np.zeros(params.n_sites)
    for w, v, sec in zip(weights, spectral.vectors, spectral.sectors):
        if w.size:
            occ += ((v ** 2) @ w) @ _structure(sec).occ
    return occ / z


def density(params, spectral):
    """Mean filling <N> / (L+1), the quantity the counterterm search matches."""
    return mean_particle_number(params, spectral) / params.n_sites


def mean_particle_number(params, spectral):
    """<N> from sector weights alone; cheap objective for the counterterm search."""
    weights, z = spectral.thermal_weights(params)
    return sum(s.n_particles * float(np.sum(w))
               for s, w in zip(spectral.sectors, weights)) / z


@dataclass
class CorrelationFunction:
    """Sampled S2 values on a (time, x, y) grid with the generating parameters."""
    times: np.ndarray
    values: np.ndarray          # shape (n_times, n_sites, n_sites)
    # per time, a bound on |values - exact| from the discarded weight
    discarded: np.ndarray
    params: object              # the ModelParams the values were computed at

    def at_time(self, t):
        idx = int(np.argmin(np.abs(self.times - t)))
        if not math.isclose(float(self.times[idx]), t, abs_tol=1e-12):
            raise KeyError(f"time {t} not sampled")
        return self.values[idx]


def compute_correlation(params, spectral, times):
    """Sample the two-point function on a grid of time differences."""
    times = np.asarray(sorted(set(float(t) for t in times)))
    values, discarded = _lehmann(params, spectral, times)
    return CorrelationFunction(times=times, values=values, discarded=discarded,
                               params=params)
