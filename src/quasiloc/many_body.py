"""Exact grand-canonical layer: Fock basis, Hamiltonian, Lehmann two-point function.

Sites map to bits (site x <-> bit x + L/2).  Each sector of fixed particle
number keeps a thermal block: its lowest eigenpairs, below a floor that
bounds every eigenvalue it leaves out.  Sectors of at most _DENSE_MAX states
are diagonalized densely and kept whole.  Larger ones start empty below a
Weyl bound (sums of one-body levels plus the least value of the pair term).
A read that finds one of them over its share of the tail first takes its
Weyl profile: the i-th smallest of those sums bounds the i-th eigenvalue, so
the tail is summed eigenvalue by eigenvalue.  Only a sector still over its
share takes a Lanczos (eigsh) block, with as many Ritz pairs as the same
profile allows below the cut.  One build of the sector's H serves both the
block and its certificate.  Kahan's theorem on the block's residual, with
the profile above it, certifies the leading Ritz pairs without any
factorization where it can; otherwise the inertia of sparse LDL^T factors of
H - floor in reverse Cuthill-McKee order, counted at two shifts and guarded
against pivoting and tiny pivots, shows that no eigenvalue below the new
floor was missed.  The states a block leaves out weigh at most
sum_(i >= k) e^(-b (max(floor, w_i) - mu n - K0)) at exponent b, or
(d - k) e^(-b (floor - mu n - K0)) without a profile; a read whose summed
bound exceeds _TAIL first resolves the sectors it needs, one step at a
time and the lowest floor of E - mu N first, so the sector that holds the
ground fixes K0 before the others are sized against it, and no read answers
from an unresolved spectrum.  Every read takes a decomposition and
the counterterm nu, which only shifts mu = mu0 + nu, so one decomposition
serves every nu.  The Lehmann kernel needs only thermal
eigenstates: completeness at t = 0, and otherwise KMS to bring t into
|t| <= beta/2 and a Chebyshev series of e^(-tau K) for the non-thermal side.
Each thermal state has an equal share of the error: a state too light to
matter at that tau is dropped with its bound, and the others take the series
only to the degree their own weight needs.  Every term is a weighted Gram
entry.  Each term forms its own stacks, a block of thermal states at a time
through one side of the pair's annihilators, and sums each one in
cache-sized slices with no copy, so a read holds one stack and its
propagation at a time and no (states, sites, sites) product.  The Fock layer
builds only what a read uses: a sector's occupations from its masks, H's
hopping pattern when H is first built, and each side of a sector pair's
annihilators from the masks of its source sector when a branch with terms
first needs it.  Energies entering any exponential are shifted by the
global ground value K0 of E - mu N, which leaves all observables invariant
and keeps every weight in (0, 1].
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.linalg.blas import dgemm
from scipy.sparse.linalg import eigsh, splu
from scipy.special import ive

from .single_particle import onsite_energy, single_particle_spectrum


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


@functools.cache
def _occupations(sector):
    """(dim, n_sites) int8 bit occupations of a FockSector's masks, shared
    and read-only; filled one site column at a time, so no (dim, n_sites)
    temporary wider than the result is formed."""
    states = sector.states
    occ = np.empty((states.size, sector.n_sites), dtype=np.int8)
    for x in range(sector.n_sites):
        np.bitwise_and(states >> x, 1, out=occ[:, x], casting="unsafe")
    _read_only(occ)
    return occ


@dataclass(frozen=True)
class _Pattern:
    """What a sector's Hamiltonian takes from the basis beyond its
    occupations, shared by every ModelParams at its size.  All arrays
    read-only.

    bonds: occupied bonds per state; indices and indptr: the CSR pattern of
    H with hopping, each row's columns ascending, as COO -> CSR conversion
    leaves them; diagonal: where the diagonal entries sit in its data.
    """
    bonds: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    diagonal: np.ndarray


@functools.cache
def _pattern(sector):
    """The _Pattern of a FockSector, built when its H is first built."""
    states, occ = sector.states, _occupations(sector)
    dim = states.size
    bonds = np.sum(occ[:, :-1] & occ[:, 1:], axis=1, dtype=np.int8)
    # exactly one of the two neighboring sites occupied; an adjacent hop
    # crosses no occupied site, so its sign is +1
    i, b = np.nonzero(occ[:, :-1] != occ[:, 1:])
    eye = np.arange(dim)
    rows = np.concatenate([eye, i])
    cols = np.concatenate([eye,
                           np.searchsorted(states, states[i] ^ (0b11 << b))])
    order = np.lexsort((cols, rows))
    indices = cols[order].astype(np.int32)
    indptr = np.zeros(dim + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=dim), out=indptr[1:])
    diagonal = np.flatnonzero(order < dim).astype(np.int32)
    _read_only(bonds, indices, indptr, diagonal)
    return _Pattern(bonds=bonds, indices=indices, indptr=indptr,
                    diagonal=diagonal)


def build_hamiltonian(params, sector):
    """Sparse symmetric Hamiltonian block of one particle-number sector.

    Diagonal: sum_x phi_x n_x plus the two-sided-delta pair term, which counts
    every bond twice (coefficient 2U per bond).  Hopping -eps between
    neighbors, open ends, stored even at eps = 0.  The counterterm nu enters
    only through mu.  Only the values depend on params: the returned matrix
    has its own data, but its indices and indptr are the sector's shared,
    read-only pattern.
    """
    pattern = _pattern(sector)
    phi = np.asarray(onsite_energy(params, params.sites), dtype=float)
    diag = _occupations(sector) @ phi
    if params.U != 0.0:
        diag = diag + 2.0 * params.U * pattern.bonds
    dim = len(sector)
    data = np.full(pattern.indices.size, -params.eps)
    data[pattern.diagonal] = diag
    return sp.csr_matrix((data, pattern.indices, pattern.indptr),
                         shape=(dim, dim))


@functools.cache
def _side(sector_n, sector_np1, side):
    """One side of the pair's stacked annihilators, shared and read-only.

    side 0 is up = vstack_x a_x^T, (d_{N+1} S, d_N), and side 1 is
    down = vstack_x a_x, (d_N S, d_{N+1}), S = n_sites, with row j S + x
    holding row j of a_x^T (or a_x).  So up @ v reshaped to (d_{N+1}, S, r)
    holds a_x+ v[:, i] at [:, x, i], and the rows x::S of down are a_x.
    Each a_x has at most one entry, +1 or -1, per row and per column, so
    products with either side are exact.  Each side is built from the masks
    and occupations of its source sector alone (the N-sector for up, the
    (N+1)-sector for down), one site column at a time, and stored CSC: a
    source state has the same number of entries in every column (its empty
    sites for up, its occupied ones for down), so no row pointer of length
    d S exists.  Within a column the rows ascend: along x for up, against
    it for down, where a higher bit removed leaves a lower mask.

    Convention: removing (or adding) a particle at bit x of a mask carries
    the sign (-1)^(number of occupied bits below x).
    """
    n, n_sites = sector_n.n_particles, sector_n.n_sites
    source, target = ((sector_n, sector_np1) if side == 0
                      else (sector_np1, sector_n))
    masks, occ = source.states, _occupations(source)
    per = n_sites - n if side == 0 else n + 1  # entries per column
    data = np.empty(masks.size * per)
    indices = np.empty(masks.size * per, dtype=np.int32)
    for x in range(n_sites):
        # up adds a particle where x is empty (0), down removes one where
        # it is occupied (1)
        j = np.flatnonzero(occ[:, x] == side)
        m = masks[j]
        below = np.bitwise_count(m & ((1 << x) - 1))
        # rank of x among the column's entries, in ascending row order
        at = j * per + (x - below if side == 0 else n - below)
        flipped = np.searchsorted(target.states, m ^ (1 << x))
        indices[at] = flipped * n_sites + x
        data[at] = 1.0 - 2.0 * (below & 1)
    indptr = np.arange(0, masks.size * per + 1, per, dtype=np.int32)
    _read_only(data, indices, indptr)
    return sp.csc_matrix((data, indices, indptr),
                         shape=(len(target) * n_sites, masks.size))


_DENSE_MAX = 500  # largest sector diagonalized densely and kept whole
_K_START = 8  # fewest Ritz pairs of a large sector's first Lanczos block
_LANCZOS_FRACTION = 0.05  # a block needing more of its sector goes dense
# largest sector whose inertia a sparse LDL^T counts: the factors fill as
# about d^2, L and U 4.4M entries each at 12,376 states and 10.6M at 19,448
# (L = 16, where `decay` at beta = 24 peaks at 0.63 GB)
_COUNT_MAX = 25_000
_PIVOT_FRACTION = 1e-3  # smallest |pivot| of a trusted count, per Ritz spacing
_GAP = 1e-8  # smallest spacing of Ritz values a floor may sit in
_TAIL = 1e-16  # largest summed Boltzmann factor a read may leave out
_SEED = 5065  # of the Lanczos start vectors
_STACK_ELEMENTS = 1 << 22  # entries of one stack block (32 MB)
_GRAM_ELEMENTS = 8192  # entries of one site-major Gram slice (64 KB)


def _whole(h):
    """The whole spectrum of a sector Hamiltonian h as a block with floor
    +inf; ValueError where an eigenvalue is not finite (couplings near the
    float range)."""
    energies, vectors = eigh(h.toarray(), driver="evd")
    if not np.all(np.isfinite(energies)):
        raise ValueError("non-finite eigenvalues: couplings out of range")
    return energies, vectors, math.inf


def _lowest_block(h, k, cut):
    """Lowest eigenpairs of a sparse sector Hamiltonian h and a floor of at
    least `cut` below every eigenvalue they leave out, as (energies, vectors,
    floor).

    Lanczos (eigsh) finds k Ritz pairs from a seeded start vector, and k
    doubles until the block clears the cut.  The block keeps the pairs below
    the highest spacing of at least _GAP between consecutive Ritz values, and
    the floor is the midpoint of that spacing.  That no eigenvalue below the
    floor was missed is for _weyl_kahan or _count_below to certify.  Where k
    would pass _LANCZOS_FRACTION of the sector, the whole spectrum is
    returned with floor +inf.  The caller sizes the first k from the Weyl
    count of _weyl_count, so doubling is only the fallback.
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
        k *= 2
    return _whole(h)


def _inertia(a, sigma):
    """(number of negative pivots, smallest |pivot|) of a symmetric LDL^T
    factorization of a - sigma in a's own order, or None where it pivoted off
    the diagonal or found a - sigma singular.

    SuperLU in symmetric mode, in natural order and with no threshold
    pivoting, factors a - sigma = L U with U = D L^T when perm_r equals
    perm_c, so by Sylvester's law of inertia the negative diagonal entries of
    U count the eigenvalues of a below sigma.
    """
    shifted = (a - sigma * sp.identity(a.shape[0], format="csc")).tocsc()
    try:
        lu = splu(shifted, permc_spec="NATURAL", diag_pivot_thresh=0.0,
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
    backward stable, and a tiny pivot can flip a sign; the reverse
    Cuthill-McKee order of _inertia bounds the fill, not that.  So the count
    is trusted only when the sector has at most _COUNT_MAX states, both
    factorizations keep their pivots on the diagonal, no pivot is smaller
    than _PIVOT_FRACTION of the spacing, and a second count at
    sigma - spacing / 4, inside the same spacing, agrees.  Both shifts factor
    h in one reverse Cuthill-McKee order, found once: it keeps the factors
    inside a narrow profile, and as a symmetric permutation it keeps the
    inertia.
    """
    if h.shape[0] > _COUNT_MAX:
        return None
    # imported on the first count: commands that count nothing never load it
    from scipy.sparse.csgraph import reverse_cuthill_mckee
    order = reverse_cuthill_mckee(h, symmetric_mode=True)
    a = h[order][:, order].tocsc()
    counts = set()
    for shift in (sigma, sigma - 0.25 * spacing):
        inertia = _inertia(a, shift)
        if inertia is None or inertia[1] < _PIVOT_FRACTION * spacing:
            return None
        counts.add(inertia[0])
    return counts.pop() if len(counts) == 1 else None


def _weyl_kahan(h, theta, v, profile, cut):
    """Number j of leading Ritz pairs (theta, v) of h that are certified to
    be the j lowest eigenpairs, with every other eigenvalue at least
    profile[j] >= cut; 0 where no j > 0 is.

    Let V_j be the first j columns of v, R_j = h V_j - V_j diag(theta_1..j)
    and eta = ||V^T V - I||_F < 1, so G = V_j^T V_j has its eigenvalues in
    [1 - eta, 1 + eta].  Q = V_j G^(-1/2) has orthonormal columns, and
    E = Q - V_j = V_j (G^(-1/2) - I) has
    ||E|| <= sqrt(1 + eta) (1 / sqrt(1 - eta) - 1) <= eta / (1 - eta).  So
    h Q - Q diag(theta) = R_j + h E - E diag(theta) has 2-norm at most
    rho_j = ||R_j||_F + (||h|| + max |theta|) eta / (1 - eta), with ||h|| at
    most its largest absolute row sum (Gershgorin).  By Kahan's theorem
    (Parlett, The Symmetric Eigenvalue Problem, 11.5) there are j distinct
    eigenvalues within rho_j of theta_1..theta_j, so all at most
    theta_j + rho_j.  Where that is below profile[j], which bounds the
    (j+1)-th eigenvalue from below (Weyl), those j are the j lowest, and
    every eigenvalue left out is at least profile[j].  A Lanczos run that
    missed an eigenvalue below it cannot pass.  The _GAP the profile sits
    below the Weyl sums covers the rounding of R and eta.  The Gram matrix
    is summed by einsum, not BLAS: in fresh processes with two BLAS threads,
    a GEMM here made a whole L = 12, beta = 24 read about 40% slower than
    this einsum (with one BLAS thread it did not).
    """
    r = h @ v - v * theta
    residual = np.sqrt(np.cumsum(np.einsum("ij,ij->j", r, r)))
    gram = np.einsum("ij,ik->jk", v, v) - np.eye(theta.size)
    eta = math.sqrt(np.einsum("ij,ij->", gram, gram))
    if not eta < 1.0:
        return 0
    norm = float(abs(h).sum(axis=1).max())
    slack = (norm + float(np.max(np.abs(theta)))) * eta / (1.0 - eta)
    above = profile[1:theta.size + 1]  # the (j+1)-th entry for each j
    passed = np.flatnonzero((theta + residual + slack < above)
                            & (above >= cut))
    return int(passed[-1]) + 1 if passed.size else 0


@dataclass
class SpectralDecomposition:
    """Per-sector thermal blocks of the many-body Hamiltonian.

    energies[n] (ascending) and vectors[n] (d x k) are the k lowest
    eigenpairs of sector n.  Every eigenvalue the block leaves out is at
    least floors[n] (+inf when the block is the whole sector), and where
    profiles holds sector n's Weyl profile w (see _weyl_profile), the i-th
    lowest eigenvalue is also at least w[i].  certified[n] says whether that
    floor is proven, and _extend stores it with the block.  It is True in four
    ways: the block is whole; it is empty below the Weyl bound of
    _ground_floor; Weyl's profile and Kahan's theorem certify a Lanczos block
    (_weyl_kahan); or an inertia count confirms one (_count_below).  It is
    False when neither certificate applies and no count can be trusted.
    Eigenvalues are stored raw (no chemical potential); everything
    mu-dependent is assembled on demand at the nu a read takes, from
    params.with_nu(nu), which rejects a bad nu before any block grows.  No
    Hamiltonian is kept: a block that grows, and a sector a read propagates
    into, builds its H from params (it does not depend on nu).
    """
    params: object
    sectors: list
    energies: list
    vectors: list
    floors: list
    certified: list
    profiles: dict = field(default_factory=dict)

    @property
    def n_sectors(self):
        return len(self.sectors)

    @property
    def tail_certified(self):
        """Whether every floor, so every reported tail bound, is certified."""
        return all(self.certified)

    def ground_shift(self, mu):
        """Global minimum of E - mu N, subtracted before any exponential."""
        return min(float(e[0]) - mu * s.n_particles
                   for e, s in zip(self.energies, self.sectors) if e.size)

    def shifted_energies(self, mu):
        """Kept E - mu N less the ground shift, per sector."""
        k0 = self.ground_shift(mu)
        return [e - mu * s.n_particles - k0
                for e, s in zip(self.energies, self.sectors)]

    def thermal_weights(self, nu):
        """(Boltzmann factors of the kept states per sector, Z) at
        mu = mu0 + nu and beta, once the tail there is resolved."""
        mu, beta = self.params.with_nu(nu).mu, self.params.beta
        self._resolve(mu, beta)
        weights = _boltzmann(self.shifted_energies(mu), beta)
        return weights, sum(float(np.sum(w)) for w in weights)

    def tail_bound(self, mu, b):
        """Bound on the summed e^(-b (K - K0)) of the states no block holds."""
        return sum(self._tail_terms(mu, b))

    def _tail_terms(self, mu, b):
        """Per sector, a bound on the summed e^(-b (K - K0)) of the states
        its block leaves out.  The i-th of them is at least the floor and,
        with a profile w, at least w[i]: the term is
        sum_(i >= k) e^(-b (max(floor, w_i) - mu n - K0)), and without one
        (d - k) e^(-b (floor - mu n - K0)), for a block of k of d states."""
        k0 = self.ground_shift(mu)
        terms = []
        for n, (s, e, f) in enumerate(zip(self.sectors, self.energies,
                                          self.floors)):
            left = len(s) - e.size
            if not left:  # 0.0 for a whole block, even at a NaN exponent
                terms.append(0.0)
                continue
            w = self.profiles.get(n)
            x = -b * ((f if w is None else np.maximum(w[e.size:], f))
                      - mu * s.n_particles - k0)
            # a floor far below K0 leaves the tail unbounded, not overflowing
            if not np.max(x) < 700.0:
                terms.append(math.inf)
            else:
                terms.append(left * math.exp(x) if w is None
                             else float(np.sum(np.exp(x))))
        return terms

    def _resolve(self, mu, b):
        """Resolve sectors until tail_bound(mu, b) <= _TAIL, one step at a
        time.  Of the sectors whose term exceeds its share, the one with the
        lowest floor of E - mu N goes first: it is the one that may hold the
        ground and so move K0, which every other term is measured from.  Its
        first step stores its Weyl profile, which often brings the term
        within its share; only a sector still over it grows a block."""
        terms = self._tail_terms(mu, b)
        target = _TAIL / len(terms)
        while sum(terms) > _TAIL:
            n = min((n for n, term in enumerate(terms) if term > target),
                    key=lambda n: (self.floors[n]
                                   - mu * self.sectors[n].n_particles))
            if n in self.profiles:
                self._extend(n, mu, b, target)
            else:
                levels = single_particle_spectrum(self.params)[0]
                self.profiles[n] = _weyl_profile(self.params, levels,
                                                 self.sectors[n])
            terms = self._tail_terms(mu, b)

    def _extend(self, n, mu, b, target):
        """Grow block n until the states it leaves out weigh at most target,
        and certify it on the same H.  Where _weyl_kahan certifies leading
        Ritz pairs, the block keeps them with the profile value above them as
        its floor, and nothing is factorized.  Otherwise an inertia count
        below the block's floor decides: any other count than the block's
        size means Lanczos missed one, and the sector is diagonalized densely
        instead; no count leaves it uncertified.

        The weight is measured from the lowest K0 can be once the block holds
        its states: the ground shift or this sector's own floor of E - mu N.
        The first Lanczos block takes one Ritz pair more than the Weyl count
        of the sector's profile allows below the cut.
        """
        sec, profile = self.sectors[n], self.profiles[n]
        k0 = min(self.ground_shift(mu), self.floors[n] - mu * sec.n_particles)
        # (d - k) e^(-b (floor - offset)) <= target once floor >= cut
        cut = mu * sec.n_particles + k0 + math.log(len(sec) / target) / b
        k = max(2 * self.energies[n].size, _K_START,
                min(_weyl_count(profile, cut) + 1,
                    math.floor(_LANCZOS_FRACTION * len(sec))))
        h = build_hamiltonian(self.params, sec)
        energies, vectors, floor = _lowest_block(h, k, cut)
        certified = True
        if not math.isinf(floor):
            j = _weyl_kahan(h, energies, vectors, profile, cut)
            if j:
                energies, vectors = energies[:j], vectors[:, :j]
                floor = float(profile[j])
            else:
                # floor: the midpoint of the spacing above the highest value
                count = _count_below(h, floor, 2.0 * (floor - energies[-1]))
                if count is not None and count != energies.size:
                    energies, vectors, floor = _whole(h)
                certified = count is not None
        self.energies[n], self.vectors[n] = energies, vectors
        self.floors[n], self.certified[n] = floor, certified


def _boltzmann(shifted, b):
    """e^(-b K) per sector, from shifted energies K >= 0.  A huge nu puts
    b K past the float range; the product then overflows to inf, and 0 is
    the right factor."""
    with np.errstate(over="ignore"):
        return [np.exp(-b * k) for k in shifted]


def _pair_shift(U, n, n_sites):
    """Least value of the pair term 2U sum_x n_x n_(x+1) in sector n.

    The term is diagonal in the Fock basis, 2U per occupied bond.  n
    particles in k runs occupy n - k bonds, with 1 <= k <= n and, since runs
    are apart, k <= n_sites - n + 1.  So at U < 0 at most n - 1 bonds count,
    and at U >= 0 at least max(0, 2n - n_sites - 1) do.
    """
    if U < 0.0:
        return 2.0 * U * max(n - 1, 0)
    return 2.0 * U * max(0, 2 * n - n_sites - 1)


def _ground_floor(params, levels, n):
    """Lower bound on the lowest eigenvalue of sector n.

    Weyl's inequality: hopping plus onsite energy has the n lowest one-body
    levels as its sector-n ground energy, and the pair term adds at least
    _pair_shift.  _GAP keeps the bound below the rounding of the levels.
    """
    shift = _pair_shift(params.U, n, params.n_sites)
    return float(np.sum(levels[:n])) + shift - _GAP


def _weyl_profile(params, levels, sector):
    """Lower bounds on the sector's eigenvalues one by one, ascending: the
    i-th is at most the i-th eigenvalue of the sector's H.

    The rows of the sector's occupations are all n-subsets of the sites, so
    occ @ levels lists every eigenvalue of hopping plus onsite energy in the
    sector.  The pair term is diagonal and at least _pair_shift, so by Weyl's
    inequality the i-th eigenvalue of H is at least the i-th of those plus
    _pair_shift.  _GAP keeps the bound below the rounding of the sums.
    """
    free = np.sort(_occupations(sector) @ levels)
    return free + _pair_shift(params.U, sector.n_particles,
                              params.n_sites) - _GAP


def _weyl_count(profile, cut):
    """Upper bound on the number of eigenvalues below cut of the sector
    whose _weyl_profile is profile: the number of its entries below cut."""
    return int(np.searchsorted(profile, cut))


def diagonalize(params):
    """Thermal blocks of every particle-number sector at (params.mu, beta).

    Sectors of at most _DENSE_MAX states are diagonalized densely and kept
    whole.  Larger ones start empty, their floor the Weyl bound of
    _ground_floor, and take Lanczos blocks where the states they leave out
    weigh more than _TAIL in all; each Lanczos block is counted as it is
    stored (see SpectralDecomposition._extend).
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
    """Chebyshev series of e^(-tau x) on [lo, hi], as (coefficients, rest):
    the series of degree m, coefficients[:m + 1], is within rest[m] of
    e^(-tau x) there, and rest[-1] <= tol.

    With x = c + r y, c = (lo + hi) / 2 and r = (hi - lo) / 2,
    e^(-tau x) = sum_k c_k T_k(y), c_k = e^(-tau lo) 2 (-1)^k ive(k, tau r)
    and half that at k = 0.  |T_k| <= 1 on the interval, so the coefficients
    a series leaves out bound its error there, and two bounds on them are
    taken at each degree m, whichever is smaller.  The power series of I_k
    gives I_(k+1)(z) <= z / (2 (k + 1)) I_k(z) term by term, so once
    m + 2 > z / 2 they sum to at most |c_(m+1)| / (1 - z / (2 (m + 2))).
    And since sum_(k in Z) I_k(z) = e^z, they sum to exactly
    e^(-tau lo) (1 - ive(0, z) - 2 sum_(k=1..m) ive(k, z)) at every degree;
    that difference is taken with a margin of e^(-tau lo) ((m + 4) eps +
    2^-40), eps the machine epsilon, for the rounding of m partial sums of
    at most 1 and the relative error of ive (below 5e-13 against 40-digit
    values for z up to 5000).  A bound at degree m also bounds every later
    tail, so rest is the running minimum of the two, non-increasing, and a
    state whose tolerance is at least rest[m] needs no degree above m.  The
    series is cut at the first degree where rest is at most tol.  With
    lo >= 0 the coefficients sum to at most 1 in magnitude, so rounding in
    the recurrence is not amplified either.
    """
    scale = math.exp(-tau * lo)
    z = 0.5 * tau * max(hi - lo, 0.0)
    size = math.ceil(z + 10.0 * math.sqrt(z) + 32.0)
    while True:
        k = np.arange(size)
        a = ive(k, z)
        c = 2.0 * scale * a
        c[0] *= 0.5
        c[1::2] *= -1.0
        m = k[:-1]
        ratio = z / (2.0 * (m + 2.0))
        rest = np.divide(np.abs(c[1:]), 1.0 - ratio,
                         out=np.full(ratio.shape, math.inf),
                         where=ratio < 1.0)
        # a_0 + 2 (a_1 + ... + a_m) = 2 cumsum - a_0
        left = 1.0 - (2.0 * np.cumsum(a[:-1]) - a[0])
        margin = (m + 4.0) * np.finfo(float).eps + 2.0 ** -40
        rest = np.minimum.accumulate(np.minimum(rest, scale * (left + margin)))
        fits = np.flatnonzero(rest <= tol)
        if fits.size:
            cut = int(fits[0])
            return c[:cut + 1], rest[:cut + 1]
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


def _add_gram(out, sign, part):
    """out += sign sum_(j, i) part[j, :, i] part[j, :, i]^T for a stack part
    (d, sites, r), as q q^T with q the stack laid out site-major,
    (sites, d r).  For r = 1 that q is a transposed view of part, and the
    sum is one BLAS call.  Otherwise the rows j are taken in fixed slices,
    as many as fit _GRAM_ELEMENTS entries (at least one): each slice is
    copied site-major into one cache-sized buffer and summed by one general
    GEMM, which at a few sites is faster than the syrk that q @ q.T
    dispatches to.  Neither a (d, sites, sites) product nor a copy of part
    is formed."""
    d, sites, r = part.shape
    if r == 1:
        q = part.reshape(d, sites).T
        out += sign * (q @ q.T)
        return
    rows = min(d, max(1, _GRAM_ELEMENTS // (sites * r)))
    buffer = np.empty(sites * rows * r)
    for j0 in range(0, d, rows):
        m = min(rows, d - j0)
        q = buffer[:sites * m * r].reshape(sites, m, r)
        np.copyto(q, part[j0:j0 + m].transpose(1, 0, 2))
        # q^T in Fortran order, as BLAS reads it without a copy
        qt = q.reshape(sites, m * r).T
        out += sign * dgemm(1.0, qt, qt, trans_a=True)


def _add_sector_pair(s, bound, spectral, n, weights, k0, mu):
    """Add the (n, n+1) sector pair's Lehmann terms into s[tau], and a bound
    on what they leave out or get wrong into bound[tau].

    Branch tau >= 0 sums w_i <i| a_x e^(-tau K) a_y+ |i> over the thermal
    states i of sector n, w = e^(-(beta - tau) K) from weights[tau], which
    holds e^(-(beta - |tau|) K) per sector; branch tau <= 0 sums
    -w_j <j| a_y+ e^(-|tau| K) a_x |j> over those of sector n+1.  No
    eigenbasis of the other sector enters: at tau = 0, where each branch
    carries 1/2, completeness removes e^(-|tau| K), and otherwise a
    polynomial p(K) approximates e^(-|tau| K / 2) on either side, so each
    term is a weighted Gram entry, symmetric in x and y, at half the
    propagation.  The thermal side is cut to the slab `_slab` leaves, and
    every dropped term is at most its weight.

    p is the Chebyshev series of _chebyshev on [lo, hi]: lo is the other
    sector's lowest eigenvalue (its lowest kept value, or its floor when it
    keeps none) less the offset, at least 0 since K0 is the global ground
    value, and hi the Gershgorin upper end of K.  Each of the k states of a
    slab has an equal share _TAIL / (3 k) of the error, so state i has the
    tolerance delta_i = _TAIL / (3 k w_i).  Every entry of its term is at
    most w_i e^(-|tau| lo), since ||a_x|| = 1: where e^(-|tau| lo) <= delta_i
    that amount is added to the bound and the state is not propagated, and a
    branch with no state left builds no H, annihilators or series.  The
    others share one series per time, cut at the smallest delta_i; state i
    takes it to the first degree whose rest rho_i is at most delta_i, so
    ||p_i(K)|| <= 1 + rho_i and its term is off by at most
    w_i (2 rho_i + rho_i^2).  w does not increase along the slab, so the
    degrees do not either, and states of one degree are contiguous.

    Each (branch, tau) term forms its own stacks of sqrt(w_i) a_y+ |i> (or
    sqrt(w_j) a_x |j>) over all sites, one sparse product with the branch's
    side of the pair's annihilators (_side) per run of equal degree, or per
    block of the slab at tau = 0, each of at most _STACK_ELEMENTS entries.
    A stack is propagated, added into s[tau] by _add_gram and released
    before the next is formed, so a read holds one stack and its
    propagation at a time; the products a time repeats cost far less than
    its propagation.
    """
    sec, sec1 = spectral.sectors[n], spectral.sectors[n + 1]
    sites = sec.n_sites
    for sign, thermal, other, side in ((1.0, n, n + 1, 0),
                                       (-1.0, n + 1, n, 1)):
        target = spectral.sectors[other]
        offset = mu * target.n_particles + k0
        kept = spectral.energies[other]
        lowest = kept[0] if kept.size else spectral.floors[other]
        lo = max(float(lowest) - offset, 0.0)
        terms = []  # (tau, w, delta); delta None at tau = 0
        for tau in s:
            if sign * tau < 0.0:
                continue
            w = weights[tau][thermal]
            if tau == 0.0:
                w = 0.5 * w  # a copy: weights[tau] serves every pair
            keep, dropped = _slab(w)
            bound[tau] += dropped
            w, delta = w[:keep], None
            if tau != 0.0 and keep:
                # every entry of state i's term is at most w_i e^(-|tau| lo)
                share, most = _TAIL / (3.0 * keep), math.exp(-abs(tau) * lo)
                keep = int(np.count_nonzero(w * most > share))
                bound[tau] += most * float(np.sum(w[keep:]))
                w = w[:keep]
                delta = share / w
            if keep:
                terms.append((tau, w, delta))
        if not terms:
            continue
        ann = _side(sec, sec1, side)
        dim = len(target)
        if any(delta is not None for _, _, delta in terms):
            h = build_hamiltonian(spectral.params, target)
            r = 0.5 * max(_gershgorin_top(h) - offset - lo, 0.0)
            # 2 y, where y = (K - lo - r) / r maps [lo, lo + 2 r] onto [-1, 1]
            y2 = (h - (offset + lo + r) * sp.identity(dim, format="csr")
                  ) * (2.0 / r) if r > 0.0 else None
        vectors = spectral.vectors[thermal]
        chunk = max(1, _STACK_ELEMENTS // (dim * sites))
        for tau, w, delta in terms:
            c = None
            starts = [0, w.size]
            if delta is not None:
                c, rest = _chebyshev(0.5 * abs(tau), lo, lo + 2.0 * r,
                                     delta[0])
                # rest does not increase: the first degree within delta_i
                degrees = np.searchsorted(-rest, -delta)
                rho = rest[degrees]
                bound[tau] += float(np.sum(w * (2.0 + rho) * rho))
                starts = [0, *(np.flatnonzero(np.diff(degrees)) + 1), w.size]
            for a, b in zip(starts[:-1], starts[1:]):
                for i0 in range(a, b, chunk):
                    i1 = min(i0 + chunk, b)
                    # stack[:, x, i] is sqrt(w_i) a_x+ |i> in sector n+1,
                    # or sqrt(w_i) a_x |i> in sector n
                    v = vectors[:, i0:i1] * np.sqrt(w[i0:i1])
                    stack = (ann @ v).reshape(dim, sites, -1)
                    if c is not None:
                        stack = _propagate(y2, c[:degrees[i0] + 1], stack)
                    _add_gram(s[tau], sign, stack)
                    del stack  # before the next product is formed


def _lehmann(spectral, nu, times):
    """S2(x, y; t) at mu = mu0 + nu for all site pairs, shape
    (n_times, n_sites, n_sites), and per time a bound on what the thermal
    blocks and slabs leave out.

    The one Lehmann sum of the package.  KMS maps t and t - beta to the same
    tau with |tau| <= beta/2, so they share one propagation; the blocks are
    first extended until their tail at exponent beta - max |tau| is
    resolved, which leaves every floor above K0 + mu n and so also resolves
    the tail of Z at beta.  The bound adds the dropped slab weight, the
    terms of states too light to propagate, the error of the Chebyshev
    propagation, the tail at beta - |tau| and the tail of Z, divided by Z.
    t = 0 means the mean of the one-sided limits.
    """
    times = [float(t) for t in times]
    beta, n_sites = spectral.params.beta, spectral.params.n_sites
    if not all(abs(t) < beta for t in times):  # false for NaN too
        raise ValueError("time difference must satisfy |t| < beta")
    mu = spectral.params.with_nu(nu).mu  # before any block is extended
    reduced = [_kms_reduce(t, beta) for t in times]
    taus = sorted({tau for tau, _ in reduced})
    spectral._resolve(mu, beta - max(abs(tau) for tau in taus))
    shifted = spectral.shifted_energies(mu)
    z = sum(float(np.sum(w)) for w in _boltzmann(shifted, beta))
    z_tail = spectral.tail_bound(mu, beta)
    s = {tau: np.zeros((n_sites, n_sites)) for tau in taus}
    bound = {tau: spectral.tail_bound(mu, beta - abs(tau)) + z_tail
             for tau in taus}
    weights = {tau: _boltzmann(shifted, beta - abs(tau)) for tau in taus}
    k0 = spectral.ground_shift(mu)
    for n in range(spectral.n_sectors - 1):
        _add_sector_pair(s, bound, spectral, n, weights, k0, mu)
    values = np.array([sign * s[tau] for tau, sign in reduced]) / z
    return values, np.array([bound[tau] for tau, _ in reduced]) / z


def equal_time_matrix(spectral, nu):
    """All-pairs S2(x, y; 0) in the mean-of-limits convention."""
    s, _ = _lehmann(spectral, nu, [0.0])
    return s[0]


def correlation_matrix(spectral, nu, t):
    """All-pairs S2(x, y; t) for one time difference; entry [x + L/2, y + L/2]
    is the pair (x, y)."""
    s, _ = _lehmann(spectral, nu, [t])
    return s[0]


def occupations(spectral, nu):
    """Equal-time occupations <n_x> = sum_k w_k sum_m v_k(m)^2 n_x(m) / Z.

    Every term is non-negative, so where every sector is whole, occupations
    far below 1e-16 keep their relative precision; 1/2 - S2(x, x; 0) would
    cancel them to rounding noise.  Where a sector is truncated to its thermal
    block, the states left out shift an occupation by at most
    tail_bound(mu, beta) / Z <= _TAIL, an absolute bound.
    """
    weights, z = spectral.thermal_weights(nu)
    occ = np.zeros(spectral.params.n_sites)
    for w, v, sec in zip(weights, spectral.vectors, spectral.sectors):
        if w.size:
            occ += ((v ** 2) @ w) @ _occupations(sec)
    return occ / z


def mean_particle_number(spectral, nu):
    """<N> from sector weights alone; cheap objective for the counterterm search."""
    weights, z = spectral.thermal_weights(nu)
    return sum(s.n_particles * float(np.sum(w))
               for s, w in zip(spectral.sectors, weights)) / z


@dataclass
class CorrelationFunction:
    """Sampled S2 values on a (time, x, y) grid with the generating parameters."""
    times: np.ndarray
    values: np.ndarray          # shape (n_times, n_sites, n_sites)
    # per time, a bound on |values - exact| from the discarded weight
    discarded: np.ndarray
    params: object              # spectral.params.with_nu(nu) of the read

    def at_time(self, t):
        idx = int(np.argmin(np.abs(self.times - t)))
        if not math.isclose(float(self.times[idx]), t, abs_tol=1e-12):
            raise KeyError(f"time {t} not sampled")
        return self.values[idx]


def compute_correlation(spectral, nu, times):
    """Sample the two-point function at mu = mu0 + nu on a grid of time
    differences."""
    times = np.asarray(sorted(set(float(t) for t in times)))
    values, discarded = _lehmann(spectral, nu, times)
    return CorrelationFunction(times=times, values=values, discarded=discarded,
                               params=spectral.params.with_nu(nu))
