import math
import tracemalloc
from dataclasses import replace
from functools import reduce
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.special import ive
from hypothesis import assume, example, given, settings, strategies as st

import quasiloc as q
from quasiloc import many_body
from quasiloc.many_body import enumerate_sector
from oracles import (annihilator_triplets, annihilators_from_scratch,
                     dense_count_below, gram_by_batched_products,
                     hamiltonian_from_scratch, one_body_correlation_matrix,
                     sector_from_scratch)


def dense_diagonalize(params):
    """Reference: dense eigh of every particle-number sector, every
    eigenpair kept, so no floor and nothing to certify."""
    sectors, energies, vectors = [], [], []
    for n in range(params.n_sites + 1):
        sec = enumerate_sector(params.L, n)
        h = q.build_hamiltonian(params, sec)
        e, v = eigh(h.toarray(), driver="evd")
        sectors.append(sec)
        energies.append(e)
        vectors.append(v)
    return q.SpectralDecomposition(params=params, sectors=sectors,
                                   energies=energies, vectors=vectors,
                                   floors=[math.inf] * len(sectors),
                                   certified=[True] * len(sectors))


def index_of(sector):
    """Reference: mask -> basis index of a sector, as a dict."""
    return {m: i for i, m in enumerate(sector.states.tolist())}


def hamiltonian_loop(params, sector):
    """Reference: the mask-by-mask loop build_hamiltonian used to run."""
    occ = many_body._occupations(sector)
    phi = np.asarray(q.onsite_energy(params, params.sites), dtype=float)
    diag = occ @ phi
    if params.U != 0.0:
        diag = diag + 2.0 * params.U * np.sum(occ[:, :-1] * occ[:, 1:], axis=1)
    dim = len(sector)
    rows, cols, vals = list(range(dim)), list(range(dim)), diag.tolist()
    if params.eps != 0.0:
        index = index_of(sector)
        for i, mask in enumerate(sector.states.tolist()):
            for b in range(sector.n_sites - 1):
                pair = 0b11 << b
                if bin(mask & pair).count("1") == 1:
                    j = index[mask ^ pair]
                    if j > i:
                        rows.extend((i, j))
                        cols.extend((j, i))
                        vals.extend((-params.eps, -params.eps))
    return sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))


def annihilation_matrix(sector_n, sector_np1, x_bit):
    """a_x from the (N+1)-sector to the N-sector: the rows x_bit::S of the
    kernel's stacked annihilators."""
    down = many_body._side(sector_n, sector_np1, 1)
    return down[x_bit::sector_n.n_sites]


def annihilation_loop(sector_n, sector_np1, x_bit):
    """Reference: a_x built mask by mask in a Python loop."""
    bit = 1 << x_bit
    index = index_of(sector_n)
    rows, cols, vals = [], [], []
    for j, mask in enumerate(sector_np1.states.tolist()):
        if mask & bit:
            rows.append(index[mask ^ bit])
            cols.append(j)
            vals.append(-1.0 if bin(mask & (bit - 1)).count("1") % 2 else 1.0)
    return sp.csr_matrix((vals, (rows, cols)),
                         shape=(len(sector_n), len(sector_np1)))


def fock_system(p):
    """Full 2^(L+1) Fock space: annihilators, number operators and the
    eigenpairs of H - mu N, energies shifted to a zero ground value.

    Jordan-Wigner annihilators from np.kron: bit b of the basis index is site
    b - L/2, sign (-1)^(occupied bits below b).  H - mu N is diagonalized
    block by block in the particle number N: one eigh over all of Fock space
    would mix nearly degenerate levels of different N, and the traces would
    lose ~1e-13 to it.
    """
    ns = p.n_sites
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])   # |0><1|
    z_sign, eye = np.diag([1.0, -1.0]), np.eye(2)
    # np.kron puts its first factor on the most significant bit
    c = [reduce(np.kron, [lower if k == b else z_sign if k < b else eye
                          for k in reversed(range(ns))]) for b in range(ns)]
    n_op = [ci.T @ ci for ci in c]
    phi = q.onsite_energy(p, p.sites)
    h = sum(phi[b] * n_op[b] for b in range(ns))
    h = h + sum(2.0 * p.U * n_op[b] @ n_op[b + 1]
                - p.eps * (c[b].T @ c[b + 1] + c[b + 1].T @ c[b])
                for b in range(ns - 1))
    count = np.rint(np.diag(sum(n_op))).astype(int)
    e, v = np.zeros(count.size), np.zeros_like(h)
    for n in range(ns + 1):
        block = np.flatnonzero(count == n)
        energies, v[np.ix_(block, block)] = np.linalg.eigh(
            h[np.ix_(block, block)])
        e[block] = energies - p.mu * n
    return c, n_op, e - e.min(), v


def fock_occupations(p):
    """Brute-force <n_x> = sum_k e^(-beta E_k) <k|n_x|k> / Z; every term is
    non-negative, so tiny occupations keep their relative precision."""
    _, n_op, e, v = fock_system(p)
    w = np.exp(-p.beta * e)
    return np.array([(np.diag(n) @ v ** 2) @ w for n in n_op]) / np.sum(w)


def fock_correlation(p, times):
    """Brute-force S2(x, y; t) over the full Fock space from the trace
    formula; t = 0 is the mean of the two one-sided limits."""
    ns = p.n_sites
    c, _, e, v = fock_system(p)

    def boltz(s):
        return (v * np.exp(-s * e)) @ v.T

    z = np.sum(np.exp(-p.beta * e))

    def plus(t, x, y):
        return np.trace(boltz(p.beta - t) @ c[x] @ boltz(t) @ c[y].T) / z

    def minus(t, x, y):
        return -np.trace(boltz(p.beta + t) @ c[y].T @ boltz(-t) @ c[x]) / z

    out = np.zeros((len(times), ns, ns))
    for it, t in enumerate(times):
        for x in range(ns):
            for y in range(ns):
                if t > 0.0:
                    out[it, x, y] = plus(t, x, y)
                elif t < 0.0:
                    out[it, x, y] = minus(t, x, y)
                else:
                    out[it, x, y] = 0.5 * (plus(0.0, x, y) + minus(0.0, x, y))
    return out


@pytest.fixture(scope="module")
def small():
    p = q.ModelParams(L=6, beta=5.0, eps=0.15, U=0.1)
    return p, q.diagonalize(p)


@pytest.fixture(scope="module")
def l12():
    """Criterion 8's point, where the large sectors keep Lanczos blocks, and
    its dense-ED oracle."""
    p = q.ModelParams(L=12, beta=24.0, eps=0.1, U=0.1, theta=0.2377)
    return p, dense_diagonalize(p)


def test_sector_sizes():
    for L in (2, 4, 6, 8):
        secs = [enumerate_sector(L, n) for n in range(L + 2)]
        for n, sec in enumerate(secs):
            masks = sec.states.tolist()
            assert len(sec) == len(masks) == math.comb(L + 1, n)
            assert masks == sorted(masks)
            assert all(bin(m).count("1") == n for m in masks)
        # the sectors partition the Fock space
        every = sorted(m for sec in secs for m in sec.states.tolist())
        assert every == list(range(2 ** (L + 1)))
        with pytest.raises(ValueError):
            enumerate_sector(L, L + 2)
        with pytest.raises(ValueError):
            enumerate_sector(L, -1)


def test_sectors_built_without_the_whole_fock_space():
    # 2^41 masks would not fit in memory: a sector's size is a binomial and
    # its masks are built from the smaller sectors alone
    states = enumerate_sector(40, 1).states
    assert states.tolist() == [1 << i for i in range(41)]
    assert states.dtype == np.int64 and not states.flags.writeable
    assert len(enumerate_sector(40, 20)) == math.comb(41, 20)


def test_zero_temperature_reach_at_l28():
    # only sectors 0-2 and 27-29 (at most 406 states) keep a state; sector 3
    # and up stay empty below their one-body floors, so nothing enumerates
    # the 2^29 masks of the chain
    p = q.ModelParams(L=28, beta=24576.0, eps=0.1, U=0.1, theta=0.2377)
    spd = q.diagonalize(p)
    assert spd.tail_certified
    assert q.mean_particle_number(spd, p.nu) == pytest.approx(2.0, abs=1e-12)
    # the t = 0 read holds a few stack-sized blocks (the 3,654-state sector 3
    # times 29 sites, 0.8 MB each), never a (d, sites, sites) product (25 MB)
    tracemalloc.start()
    try:
        q.equal_time_matrix(spd, p.nu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_zero_temperature_reach_gate_at_l36():
    # sector 3 (7,770 states) keeps the ground block and sector 4 (66,045)
    # keeps none.  A cold t = 0 read takes only the up side of pair (3, 4),
    # built from sector 3's masks with about 2.3M entries in CSC, and one
    # stack of 2.4M entries per thermal state, summed with no copy: no
    # hopping pattern of sector 4, no down side, no row pointer of 2.4M
    # entries and no int64 (state, site) temporary
    p = q.ModelParams(L=36, beta=24576.0, eps=0.1, U=0.1, theta=0.2377)
    spd = q.diagonalize(p)
    assert spd.tail_certified
    assert [n for n, e in enumerate(spd.energies) if e.size] == [0, 1, 3, 36,
                                                                 37]
    many_body._side.cache_clear()
    tracemalloc.start()
    try:
        q.equal_time_matrix(spd, p.nu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20


def test_occupancy_counts():
    sec = enumerate_sector(4, 2)
    occ = many_body._occupations(sec)
    np.testing.assert_array_equal(occ.sum(axis=1), 2)


def test_occupations_filled_without_a_wide_temporary():
    # one site column at a time: the 52,360 x 35 int8 occupations (1.8 MB)
    # take one mask-sized int64 column (0.4 MB) at a time, never an int64
    # (state, site) array (14.7 MB)
    sec = enumerate_sector(34, 4)
    states = sec.states  # the masks themselves are not counted
    many_body._occupations.cache_clear()
    tracemalloc.start()
    try:
        occ = many_body._occupations(sec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert occ.dtype == np.int8 and occ.shape == (len(sec), 35)
    np.testing.assert_array_equal(occ, (states[:, None] >> np.arange(35)) & 1)
    assert peak < 2 * occ.nbytes


@pytest.mark.parametrize("L", [2, 4, 6, 8])
def test_fock_operators_match_loop_reference(L):
    p = q.ModelParams(L=L, beta=5.0, eps=0.2, U=0.3, x_hat=1)
    secs = [enumerate_sector(L, n) for n in range(L + 2)]
    for sec in secs:
        h = q.build_hamiltonian(p, sec)
        assert abs(h - hamiltonian_loop(p, sec)).max() == 0.0
    for sec, sec1 in zip(secs, secs[1:]):
        up, down = (many_body._side(sec, sec1, side) for side in (0, 1))
        assert up.shape == (len(sec1) * (L + 1), len(sec))
        assert down.shape == (len(sec) * (L + 1), len(sec1))
        for x_bit in range(L + 1):
            ref = annihilation_loop(sec, sec1, x_bit)
            # rows x_bit::S of each stack are a_x^T and a_x
            for a in (down[x_bit::L + 1], up[x_bit::L + 1].T):
                assert a.nnz == ref.nnz and abs(a - ref).max() == 0.0


def assert_same_sparse(a, b):
    """Bit for bit: format, shape, and indptr, indices and data with their
    dtypes."""
    assert a.format == b.format and a.shape == b.shape
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


@settings(max_examples=40, deadline=None)
@given(L=st.integers(2, 10),
       eps=st.sampled_from([0.0, None]), U=st.sampled_from([0.0, None]),
       draws=st.tuples(*[st.floats(-2.0, 2.0)] * 2),
       theta=st.floats(0.01, 0.99))
def test_fock_structure_matches_from_scratch_oracles_property(L, eps, U, draws,
                                                              theta):
    """The shared per-size structure gives, for any couplings, the bits the
    from-scratch oracles give: the sectors, the Hamiltonian (at even L, the
    sizes ModelParams takes) and both annihilator stacks."""
    secs = [enumerate_sector(L, n) for n in range(L + 2)]
    for n, sec in enumerate(secs):
        ref = sector_from_scratch(L, n)
        assert (sec.n_particles, sec.n_sites, len(sec)) == (n, L + 1, ref.size)
        assert sec.states.dtype == ref.dtype
        assert np.array_equal(sec.states, ref)
        assert not sec.states.flags.writeable
    if L % 2 == 0:
        p = q.ModelParams(L=L, beta=1.0, eps=draws[0] if eps is None else eps,
                          U=draws[1] if U is None else U, theta=theta, x_hat=1)
        for sec in secs:
            assert_same_sparse(q.build_hamiltonian(p, sec),
                            hamiltonian_from_scratch(p, sec))
    for sec, sec1 in zip(secs, secs[1:]):
        for stack, ref in zip((many_body._side(sec, sec1, side)
                               for side in (0, 1)),
                              annihilators_from_scratch(sec, sec1)):
            assert_same_sparse(stack, ref)


@settings(max_examples=40, deadline=None)
@given(L=st.integers(2, 10), side=st.sampled_from([0, 1]), data=st.data(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_annihilator_sides_match_sign_rule_oracle_property(L, side, data,
                                                           seed):
    """Each side built from the masks holds exactly the oracle's COO
    triplets, and its products with random vectors match the oracle's
    bit for bit: every row has at most one entry, +1 or -1."""
    n = data.draw(st.integers(0, L))
    sec, sec1 = enumerate_sector(L, n), enumerate_sector(L, n + 1)
    ann = many_body._side(sec, sec1, side)
    rows, cols, signs = annihilator_triplets(sec, sec1, side)
    coo = ann.tocoo()
    assert (sorted(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))
            == sorted(zip(rows.tolist(), cols.tolist(), signs.tolist())))
    ref = sp.coo_matrix((signs, (rows, cols)), shape=ann.shape).tocsr()
    v = np.random.default_rng(seed).standard_normal((ann.shape[1], 3))
    assert np.array_equal(ann @ v, ref @ v)
    assert np.array_equal(ann @ v[:, 0], ref @ v[:, 0])


def test_shared_fock_structure_is_read_only():
    p = q.ModelParams(L=4, beta=1.0, eps=0.2, U=0.3)
    secs = [enumerate_sector(p.L, n) for n in range(p.n_sites + 1)]
    arrays = []
    for sec in secs:
        pattern = many_body._pattern(sec)
        arrays += [sec.states, many_body._occupations(sec), pattern.bonds,
                   pattern.indices, pattern.indptr, pattern.diagonal]
        for params in (p, replace(p, eps=0.0)):
            h = q.build_hamiltonian(params, sec)
            assert h.data.flags.writeable
            arrays += [h.indices, h.indptr]
    for sec, sec1 in zip(secs, secs[1:]):
        for side in (0, 1):
            stack = many_body._side(sec, sec1, side)
            arrays += [stack.data, stack.indices, stack.indptr]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_hamiltonians_share_their_pattern_not_their_values():
    p = q.ModelParams(L=6, beta=1.0, eps=0.1, U=0.2)
    sec = enumerate_sector(p.L, 3)
    h1 = q.build_hamiltonian(p, sec)
    before = h1.copy()
    h2 = q.build_hamiltonian(replace(p, eps=0.3), sec)
    assert np.shares_memory(h1.indices, h2.indices)
    assert np.shares_memory(h1.indptr, h2.indptr)
    assert not np.shares_memory(h1.data, h2.data)
    assert_same_sparse(h1, before)
    assert abs(h2 - h1).max() > 0.0


def test_hamiltonian_hermitian_and_number_conserving():
    p = q.ModelParams(L=6, beta=5.0, eps=0.2, U=0.3)
    for n in (0, 1, 3, 7):
        sec = enumerate_sector(p.L, n)
        h = q.build_hamiltonian(p, sec)
        assert (h != h.T).nnz == 0


def test_hamiltonian_diagonal_terms():
    # two-sided delta pair potential counts each bond twice
    p = q.ModelParams(L=4, beta=5.0, eps=0.0, U=0.25)
    sec = enumerate_sector(p.L, 2)
    h = q.build_hamiltonian(p, sec).toarray()
    phi = q.onsite_energy(p, p.sites)
    index = index_of(sec)
    # state with sites -2, -1 occupied (bits 0, 1)
    i = index[0b00011]
    assert h[i, i] == pytest.approx(phi[0] + phi[1] + 2 * 0.25)
    # non-adjacent pair: no interaction
    j = index[0b00101]
    assert h[j, j] == pytest.approx(phi[0] + phi[2])


def test_annihilation_algebra():
    # {a_x, a+_y} = delta_xy checked blockwise on a small lattice
    L = 4
    secs = [enumerate_sector(L, n) for n in range(L + 2)]
    n = 2
    for x in range(L + 1):
        for y in range(L + 1):
            ax_n = annihilation_matrix(secs[n], secs[n + 1], x)
            ay_n = annihilation_matrix(secs[n], secs[n + 1], y)
            ax_dn = annihilation_matrix(secs[n - 1], secs[n], x)
            ay_dn = annihilation_matrix(secs[n - 1], secs[n], y)
            anti = ax_n @ ay_n.T + ay_dn.T @ ax_dn
            expect = sp.identity(len(secs[n])) if x == y else 0 * anti
            assert abs(anti - expect).max() < 1e-14


def test_fermionic_sign_adjacent_hop():
    # a hop between adjacent sites crosses no occupied site, sign +1
    p = q.ModelParams(L=4, beta=5.0, eps=0.3, U=0.0)
    sec = enumerate_sector(p.L, 2)
    h = q.build_hamiltonian(p, sec).toarray()
    index = index_of(sec)
    i, j = index[0b00011], index[0b00101]
    assert h[i, j] == pytest.approx(-0.3)


def test_partition_function_and_weights(small):
    p, spd = small
    weights, z = spd.thermal_weights(p.nu)
    assert z >= 1.0  # the shifted ground state contributes exactly 1
    probs = np.array([float(np.sum(w)) / z for w in weights])
    assert probs.sum() == pytest.approx(1.0)
    assert np.all(probs >= 0.0)


def residual_norm(spd, n):
    """max_k ||H v_k - E_k v_k|| / ||H|| for sector n of a decomposition."""
    h = q.build_hamiltonian(spd.params, spd.sectors[n]).toarray()
    r = h @ spd.vectors[n] - spd.vectors[n] * spd.energies[n]
    hnorm = max(np.linalg.norm(h, 2), 1e-300)
    return float(np.max(np.linalg.norm(r, axis=0))) / hnorm


def test_residual_norms(small):
    p, spd = small
    for n in (0, 2, 5):
        assert residual_norm(spd, n) < 1e-12
    big = q.diagonalize(q.ModelParams(L=10, beta=5.0, eps=0.15, U=0.1))
    n = max(range(big.n_sectors), key=lambda k: len(big.sectors[k]))
    v = big.vectors[n]
    assert len(big.sectors[n]) == 462
    assert residual_norm(big, n) < 1e-12
    assert np.max(np.abs(v.T @ v - np.eye(v.shape[1]))) < 1e-13
    # the largest L = 12 sector that keeps a Lanczos block
    spd12 = q.diagonalize(q.ModelParams(L=12, beta=24.0, eps=0.1, U=0.1,
                                        theta=0.2377))
    n = max(lanczos_blocks(spd12), key=lambda k: len(spd12.sectors[k]))
    v = spd12.vectors[n]
    assert len(spd12.sectors[n]) == 1287 and 0 < v.shape[1] < 1287
    assert residual_norm(spd12, n) < 1e-12
    assert np.max(np.abs(v.T @ v - np.eye(v.shape[1]))) < 1e-13


def test_mismatched_params_rejected():
    # a read takes only nu, so the counterterm solve is the one place where
    # params can disagree with the decomposition handed in
    p = q.ModelParams(L=4, beta=5.0, eps=0.2, U=0.1)
    spd = q.diagonalize(p)
    for other in (replace(p, beta=6.0), replace(p, eps=0.3)):
        with pytest.raises(ValueError, match="spectral decomposition"):
            q.fix_counterterm(other, spectral=spd)
    assert q.fix_counterterm(p.with_nu(0.3), spectral=spd).converged
    # nu only shifts mu, so one decomposition serves every nu
    assert q.mean_particle_number(spd, 0.05) > q.mean_particle_number(spd, 0.0)


def test_two_point_free_oracle():
    p = q.ModelParams(L=6, beta=6.0, eps=0.2, U=0.0)
    spd = q.diagonalize(p)
    for t in (0.0, 1.1, -2.3, 4.0):
        mb = q.correlation_matrix(spd, p.nu, t)
        ob = one_body_correlation_matrix(p, t)
        np.testing.assert_allclose(mb, ob, atol=1e-12)


def test_two_point_kms(small):
    p, spd = small
    for t in (0.5, 1.7, 3.2, 4.9):
        a = q.correlation_matrix(spd, p.nu, t - p.beta)
        b = q.correlation_matrix(spd, p.nu, t)
        np.testing.assert_allclose(a + b, 0.0, atol=1e-12)


def test_two_point_time_domain(small):
    p, spd = small
    with pytest.raises(ValueError):
        q.correlation_matrix(spd, p.nu, p.beta)
    with pytest.raises(ValueError):
        q.correlation_matrix(spd, p.nu, -p.beta)


def test_non_finite_time_rejected_before_the_tail_loop(small, monkeypatch):
    # a NaN time made the kernel's block extension loop forever
    p, spd = small

    def spin(*args):
        raise AssertionError("reached the tail loop")

    monkeypatch.setattr(q.SpectralDecomposition, "_resolve", spin)
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="beta"):
            q.compute_correlation(spd, p.nu, [0.0, t])


@pytest.mark.parametrize("nu", [math.nan, math.inf, -math.inf, 1e308])
def test_reads_reject_bad_nu_before_the_tail_loop(small, monkeypatch, nu):
    # mu N overflowed at nu = 1e308, and the NaN tail term it left made the
    # block extension loop forever
    p, spd = small
    # a whole block leaves no state out, whatever mu is
    assert spd.tail_bound(1e308, p.beta) == 0.0

    def spin(*args):
        raise AssertionError("reached the tail loop")

    monkeypatch.setattr(q.SpectralDecomposition, "_resolve", spin)
    reads = (lambda: spd.thermal_weights(nu),
             lambda: q.mean_particle_number(spd, nu),
             lambda: q.occupations(spd, nu),
             lambda: q.equal_time_matrix(spd, nu),
             lambda: q.correlation_matrix(spd, nu, 1.0),
             lambda: q.compute_correlation(spd, nu, [0.0, 1.0]))
    for read in reads:
        with pytest.raises(ValueError, match="finite"):
            read()


@settings(max_examples=40, deadline=None)
@given(L=st.sampled_from([4, 6, 8]), eps=st.floats(0.0, 0.5),
       U=st.floats(-0.5, 0.5), theta=st.floats(0.01, 0.99),
       beta=st.floats(0.1, 50.0), nu=st.floats(-1.0, 1.0),
       fraction=st.floats(-0.99, 0.99))
def test_one_decomposition_serves_every_nu_property(L, eps, U, theta, beta,
                                                    nu, fraction):
    """Where every sector is whole, reading diagonalize(p) at nu gives the
    bits of reading diagonalize(p.with_nu(nu)) there: nu only shifts mu."""
    p = q.ModelParams(L=L, beta=beta, eps=eps, U=U, theta=theta)
    spd, at_nu = q.diagonalize(p), q.diagonalize(p.with_nu(nu))
    assert np.array_equal(q.occupations(spd, nu), q.occupations(at_nu, nu))
    assert q.mean_particle_number(spd, nu) == q.mean_particle_number(at_nu, nu)
    times = [0.0, fraction * beta]
    assert np.array_equal(q.compute_correlation(spd, nu, times).values,
                          q.compute_correlation(at_nu, nu, times).values)


def test_one_decomposition_serves_another_nu_at_l12():
    # the blocks of diagonalize(p) are resolved at mu0 and grow where a read
    # at mu0 + nu needs more of them
    p = q.ModelParams(L=12, beta=24.0, eps=0.1, U=0.1, theta=0.2377)
    nu, times = 0.05, [0.0, 1.0, -23.0]
    a = q.compute_correlation(q.diagonalize(p), nu, times)
    b = q.compute_correlation(q.diagonalize(p.with_nu(nu)), nu, times)
    err = np.max(np.abs(a.values - b.values), axis=(1, 2))
    assert np.all(err <= a.discarded + b.discarded)


def test_equal_time_matrix_consistency(small):
    p, spd = small
    em = q.equal_time_matrix(spd, p.nu)
    np.testing.assert_allclose(em, fock_correlation(p, [0.0])[0], atol=1e-12)
    np.testing.assert_allclose(em, em.T, atol=1e-12)


def test_annihilators_built_only_for_pairs_with_terms(monkeypatch):
    # at beta = 1e4 the slabs of all but the sectors around the ground state
    # are empty, so most sector pairs keep no term and need no stacks
    p = q.ModelParams(L=8, beta=1e4)
    spd = q.diagonalize(p)
    calls = []

    def counted(sector_n, sector_np1, side):
        calls.append(sector_n.n_particles)
        return annihilators(sector_n, sector_np1, side)

    annihilators = many_body._side
    monkeypatch.setattr(many_body, "_side", counted)
    em = q.equal_time_matrix(spd, p.nu)
    assert 0 < len(calls) < spd.n_sectors - 1
    np.testing.assert_allclose(em, fock_correlation(p, [0.0])[0], atol=1e-12)


def test_empty_sectors_build_no_hamiltonian_until_propagated(monkeypatch):
    # at beta = 24576 every sector above _DENSE_MAX states stays empty below
    # its one-body floor; no step may build its H or read its occupations,
    # and diagonalize does not even build its masks, except a t != 0 read,
    # which propagates into the neighbors of the sectors that keep states.
    # A t = 0 read builds neither the hopping pattern of an empty sector nor
    # a down side (a_x, read from the (N+1)-sector) out of one
    p = q.ModelParams(L=16, beta=24576.0, eps=0.1, U=0.0, theta=0.2377)
    built, read, patterns, downs = [], [], [], []

    def counted_build(params, sector):
        built.append(sector.n_particles)
        return build(params, sector)

    def counted_occupations(sector):
        read.append(sector.n_particles)
        return occupations(sector)

    def counted_pattern(sector):
        patterns.append(sector.n_particles)
        return pattern(sector)

    def counted_side(sector_n, sector_np1, side):
        if side == 1:
            downs.append(sector_np1.n_particles)
        return annihilators(sector_n, sector_np1, side)

    build, occupations = many_body.build_hamiltonian, many_body._occupations
    pattern, annihilators = many_body._pattern, many_body._side
    monkeypatch.setattr(many_body, "build_hamiltonian", counted_build)
    monkeypatch.setattr(many_body, "_occupations", counted_occupations)
    monkeypatch.setattr(many_body, "_pattern", counted_pattern)
    monkeypatch.setattr(many_body, "_side", counted_side)
    spd = q.diagonalize(p)
    empty = {n for n, (s, e) in enumerate(zip(spd.sectors, spd.energies))
             if len(s) > many_body._DENSE_MAX and not e.size}
    kept = [n for n, e in enumerate(spd.energies) if e.size]
    assert len(empty) == spd.n_sectors - len(kept) > 0 and spd.tail_certified
    assert built and not empty & set(built)
    assert read and not empty & set(read)

    built.clear()
    patterns.clear()
    corr = q.compute_correlation(spd, p.nu, [0.0])
    assert not empty & set(built)
    assert downs and not empty & set(downs) and not empty & set(patterns)
    read.clear()
    occ = q.occupations(spd, p.nu)
    assert not empty & set(built)
    assert read and not empty & set(read)
    s0 = corr.values[0]
    np.testing.assert_allclose(s0, one_body_correlation_matrix(p, 0.0),
                               rtol=0.0, atol=corr.discarded[0] + 1e-12)
    np.testing.assert_allclose(occ, 0.5 - np.diag(s0), atol=1e-11)

    built.clear()
    sizes = [e.size for e in spd.energies]
    corr = q.compute_correlation(spd, p.nu, [-1.0, 1.0])
    assert [e.size for e in spd.energies] == sizes  # no block grew
    targets = {m for n in kept for m in (n - 1, n + 1)}
    assert empty & set(built) and set(built) <= targets
    for t, values, bound in zip(corr.times, corr.values, corr.discarded):
        np.testing.assert_allclose(values, one_body_correlation_matrix(p, t),
                                   rtol=0.0, atol=bound + 1e-12)


@pytest.mark.parametrize("L", [2, 4, 6])
def test_correlation_matrix_matches_fock_oracle(L):
    p = q.ModelParams(L=L, beta=4.0, eps=0.3, U=0.25, theta=0.31, x_hat=1)
    spd = q.diagonalize(p)
    times = (0.0, 0.7, 2.9, -0.4, -3.6)
    fock = fock_correlation(p, times)
    for t, expect in zip(times, fock):
        np.testing.assert_allclose(q.correlation_matrix(spd, p.nu, t), expect,
                                   atol=1e-12)
    assert np.max(np.abs(fock[0] - np.diag(np.diag(fock[0])))) > 1e-3


def test_mean_particle_number_consistent(small):
    p, spd = small
    n_weights = q.mean_particle_number(spd, p.nu)
    n_occ = float(np.sum(q.occupations(spd, p.nu)))
    assert n_weights == pytest.approx(n_occ, abs=1e-10)


def test_occupation_routes_agree(small):
    # the sector-weight sum against the full Fock-space trace
    p, spd = small
    occ = q.occupations(spd, p.nu)
    np.testing.assert_allclose(occ, fock_occupations(p), atol=1e-12)
    assert np.all(occ >= 0.0)
    assert np.all(occ <= 1.0)


def test_occupation_equal_time_relation(small):
    # <n_x> = -S2(x, x; 0-) limit = 1/2 - S2(x, x; 0) in the mean convention:
    # the sector-weight route against the Lehmann kernel
    p, spd = small
    em = q.equal_time_matrix(spd, p.nu)
    np.testing.assert_allclose(q.occupations(spd, p.nu), 0.5 - np.diag(em),
                               atol=1e-11)


def test_occupations_keep_relative_precision():
    # far above the Fermi level <n_x> ~ e^(-beta gap) lies below rounding of
    # 1/2; the occupation route must resolve it to relative precision
    p = q.ModelParams(L=8, beta=40.0, theta=0.31)
    spd = q.diagonalize(p)
    occ = q.occupations(spd, p.nu)
    assert np.min(occ) < 1e-20
    np.testing.assert_allclose(occ, fock_occupations(p), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("x", [-4, 4])
def test_site_outside_lattice_rejected(small, x):
    # L = 6 has sites -3..3; -4 must not wrap around to site 3
    p, spd = small
    corr = q.compute_correlation(spd, p.nu, [0.0])
    with pytest.raises(ValueError, match="site outside lattice"):
        q.onsite_energy(corr.params, x)


def test_compute_correlation_container(small):
    p, spd = small
    corr = q.compute_correlation(spd, p.nu, [0.0, 1.0, -1.0, 1.0])
    assert corr.times.tolist() == [-1.0, 0.0, 1.0]
    assert corr.values.shape == (3, p.n_sites, p.n_sites)
    assert corr.discarded.shape == (3,) and np.all(corr.discarded >= 0.0)
    half = p.L // 2
    assert corr.at_time(1.0)[half, half + 1] == pytest.approx(
        q.correlation_matrix(spd, p.nu, 1.0)[half, half + 1], abs=1e-12)
    with pytest.raises(KeyError):
        corr.at_time(0.37)


# ---- identities over random parameters -------------------------------------

@st.composite
def chains(draw, U=None, sizes=(2, 4, 6), betas=(0.5, 12.0)):
    L = draw(st.sampled_from(sizes))
    p = q.ModelParams(
        L=L, beta=draw(st.floats(*betas)),
        eps=draw(st.floats(-0.6, 0.6)),
        U=draw(st.floats(-0.6, 0.6)) if U is None else U,
        theta=draw(st.floats(0.05, 0.95)),
        x_hat=draw(st.sampled_from([-1, 1])))
    return p, q.diagonalize(p)


PROPERTY = settings(max_examples=25, deadline=None)


@PROPERTY
@given(chains(), st.floats(0.01, 0.99))
def test_kms_antiperiodicity_property(chain, frac):
    p, spd = chain
    t = frac * p.beta
    np.testing.assert_allclose(q.correlation_matrix(spd, p.nu, t - p.beta),
                               -q.correlation_matrix(spd, p.nu, t), atol=1e-12)


@PROPERTY
@given(chains())
def test_equal_time_matrix_symmetric_property(chain):
    p, spd = chain
    em = q.equal_time_matrix(spd, p.nu)
    np.testing.assert_allclose(em, em.T, atol=1e-12)


@PROPERTY
@given(chains(betas=(0.5, 80.0)))
def test_occupations_sum_rule_property(chain):
    p, spd = chain
    occ = q.occupations(spd, p.nu)
    assert float(np.sum(occ)) == pytest.approx(
        q.mean_particle_number(spd, p.nu), abs=1e-11)
    # eigenvector entries carry ~1e-16 absolute error, so an occupation b is
    # known to ~sqrt(b) 1e-16: relative 1e-9 down to b ~ 1e-14, then 1e-20
    np.testing.assert_allclose(occ, fock_occupations(p), rtol=1e-9, atol=1e-20)


@PROPERTY
@given(chains(U=0.0), st.floats(-0.99, 0.99))
def test_free_fermion_oracle_property(chain, frac):
    p, spd = chain
    for t in (0.0, frac * p.beta):
        np.testing.assert_allclose(q.correlation_matrix(spd, p.nu, t),
                                   one_body_correlation_matrix(p, t),
                                   atol=1e-12)


@pytest.mark.parametrize("tail", [1e-4, 1e-2])
@pytest.mark.parametrize("beta", [6.0, 20.0])
def test_slab_bound_holds_at_coarse_tails(monkeypatch, tail, beta):
    # with a coarse tail the cut is far above rounding, so the reported
    # bound is tested against errors it must actually cover
    monkeypatch.setattr(many_body, "_TAIL", tail)
    p = q.ModelParams(L=6, beta=beta, eps=0.3, U=0.25, theta=0.31, x_hat=1)
    spd = q.diagonalize(p)
    corr = q.compute_correlation(spd, p.nu, [0.0, 3.0, 3.0 - beta])
    fock = fock_correlation(p, corr.times)
    err = np.max(np.abs(corr.values - fock), axis=(1, 2))
    assert np.all(err > 1e-7)
    assert np.all(err <= corr.discarded)


# near-degenerate ground states of N = 4 and 5 (0.0077 apart) that an eigh
# over all of Fock space mixed, putting the oracle 1e-13 off at t = 0
SLAB_DRAW = q.ModelParams(L=6, beta=61.0, eps=0.044003459853854454, U=0.001,
                          theta=0.7443148765376097, x_hat=-1)


@PROPERTY
@given(chains(sizes=(4, 6), betas=(20.0, 80.0)), st.floats(0.01, 0.99),
       st.sampled_from([-1.0, 1.0]))
@example((SLAB_DRAW, q.diagonalize(SLAB_DRAW)), 0.5, -1.0)
def test_thermal_slabs_bound_their_error_property(chain, frac, sign):
    # at low temperature the slabs drop weight; the reported bound must
    # cover the difference from the Fock oracle, t = 0 included
    p, spd = chain
    t = sign * frac * p.beta
    partner = t - sign * p.beta
    corr = q.compute_correlation(spd, p.nu, [0.0, t, partner])
    fock = fock_correlation(p, corr.times)
    np.testing.assert_allclose(corr.values, fock, atol=1e-12)
    err = np.max(np.abs(corr.values - fock), axis=(1, 2))
    assert np.all(err <= corr.discarded + 1e-13)
    assert np.max(corr.discarded) > 0.0
    # each branch of each sector pair drops at most 1e-16; Z >= 1
    assert np.all(corr.discarded <= 2 * 2 * p.n_sites * 1e-16)
    # KMS: t and t -/+ beta are cut to the same slabs
    np.testing.assert_allclose(corr.at_time(partner), -corr.at_time(t),
                               atol=1e-12)


# ---- thermal blocks against the dense-ED oracle ----------------------------

def truncated(spd):
    """Sectors whose block leaves states out."""
    return [n for n in range(spd.n_sectors)
            if spd.energies[n].size < len(spd.sectors[n])]


@pytest.mark.parametrize("L, beta", [(8, 24.0), (10, 24.0), (12, 24.0),
                                     (8, 6.0)])
def test_thermal_blocks_match_dense_oracle(L, beta):
    p = q.ModelParams(L=L, beta=beta, eps=0.1, U=0.1, theta=0.2377)
    spd, ref = q.diagonalize(p), dense_diagonalize(p)
    assert spd.tail_certified
    assert bool(truncated(spd)) == (L == 12)
    for n in truncated(spd):
        assert np.all(ref.energies[n][spd.energies[n].size:] >= spd.floors[n])
    # mu + 0.5 draws sectors the blocks at mu leave out into the thermal
    # range, and a time near beta/2 needs more of every block
    if L == 12:
        assert spd.tail_bound(p.mu + 0.5, beta) > many_body._TAIL
        assert spd.tail_bound(p.mu, 0.55 * beta) > many_body._TAIL
    for nu in (p.nu, -0.5, 0.5):
        z = spd.thermal_weights(nu)[1]
        assert z == pytest.approx(ref.thermal_weights(nu)[1], rel=1e-12,
                                  abs=0.0)
        assert q.mean_particle_number(spd, nu) == pytest.approx(
            q.mean_particle_number(ref, nu), rel=1e-12, abs=0.0)
        bound = spd.tail_bound(p.with_nu(nu).mu, beta) / z
        np.testing.assert_allclose(q.occupations(spd, nu),
                                   q.occupations(ref, nu), rtol=0.0,
                                   atol=bound + 1e-12)
    times = [0.0, 1.0, 1.0 - beta, 0.45 * beta]
    corr = q.compute_correlation(spd, p.nu, times)
    assert spd.tail_bound(p.mu, 0.55 * beta) <= many_body._TAIL
    assert spd.tail_certified
    expect = q.compute_correlation(ref, p.nu, times).values
    err = np.max(np.abs(corr.values - expect), axis=(1, 2))
    assert np.all(err <= corr.discarded + 1e-12)


def test_high_temperature_sectors_go_dense():
    # at beta = 6 the thermal blocks would hold most of every sector, so the
    # large sectors are diagonalized whole instead
    p = q.ModelParams(L=12, beta=6.0, eps=0.1, U=0.1, theta=0.2377)
    spd, ref = q.diagonalize(p), dense_diagonalize(p)
    assert spd.tail_certified
    assert len(truncated(spd)) < len(truncated(q.diagonalize(
        replace(p, beta=24.0))))
    z = spd.thermal_weights(p.nu)[1]
    assert z == pytest.approx(ref.thermal_weights(p.nu)[1], rel=1e-12, abs=0.0)
    assert q.mean_particle_number(spd, p.nu) == pytest.approx(
        q.mean_particle_number(ref, p.nu), rel=1e-12, abs=0.0)
    bound = spd.tail_bound(p.mu, p.beta) / z
    np.testing.assert_allclose(q.occupations(spd, p.nu),
                               q.occupations(ref, p.nu),
                               rtol=0.0, atol=bound + 1e-12)


def test_stack_chunks_sum_to_the_whole(monkeypatch):
    # at beta = 20 the slabs of these times differ in length (4 to 20 states
    # in the larger sectors), and stack blocks hold 4 to 20 thermal states.
    # Each term splits its own slab (t = 0) or runs of equal degree into
    # blocks; a slab or run is often no multiple of the block (18 states in
    # blocks of 4), so its last block ends inside it, at the slab's or the
    # run's end
    p = q.ModelParams(L=6, beta=20.0, eps=0.15, U=0.1)
    spd = q.diagonalize(p)
    times = [0.0, 0.3, -1.2, 2.4, 9.0]
    whole = q.compute_correlation(spd, p.nu, times)
    for elements in (1000, 2000):
        monkeypatch.setattr(many_body, "_STACK_ELEMENTS", elements)
        chunked = q.compute_correlation(spd, p.nu, times)
        np.testing.assert_allclose(chunked.values, whole.values, rtol=0.0,
                                   atol=1e-14)
        np.testing.assert_array_equal(chunked.discarded, whole.discarded)


def test_kernel_reads_leave_global_random_state():
    # a read draws from no global random stream: the Lanczos start vectors
    # come from a seeded generator of their own, and neither the Chebyshev
    # propagation nor the inertia counts draw at all
    p = q.ModelParams(L=8, beta=8.0, eps=0.1, U=0.1)
    spd = q.diagonalize(p)
    np.random.seed(0)
    expected = np.random.random()
    np.random.seed(0)
    q.correlation_matrix(spd, p.nu, 3.0)
    assert np.random.random() == expected


def test_free_fermion_oracle_with_thermal_blocks():
    p = q.ModelParams(L=12, beta=24.0, eps=0.1, U=0.0, theta=0.2377)
    spd = q.diagonalize(p)
    assert truncated(spd) and spd.tail_certified
    corr = q.compute_correlation(spd, p.nu, [0.0, 1.0, -23.0])
    for t, values, bound in zip(corr.times, corr.values, corr.discarded):
        np.testing.assert_allclose(values, one_body_correlation_matrix(p, t),
                                   rtol=0.0, atol=bound + 1e-12)


def test_counterterm_matches_dense_route():
    # the thermal blocks and dense ED give the root search the same reads
    p = q.ModelParams(L=12, beta=24.0, eps=0.2, U=0.2, theta=0.2377)
    got = q.fix_counterterm(p)
    expect = q.fix_counterterm(p, spectral=dense_diagonalize(p))
    assert got.iterations == expect.iterations > 0
    assert got.nu == pytest.approx(expect.nu, rel=0.0, abs=1e-12)
    # every density the search read, brackets included
    np.testing.assert_allclose(got.bracket_history, expect.bracket_history,
                               rtol=0.0, atol=1e-12)


def lossy_eigsh(monkeypatch):
    """Make every Lanczos call miss the second-lowest eigenpair."""
    real = many_body.eigsh

    def eigsh(h, k, **kwargs):
        e, v = real(h, k=k, **kwargs)
        keep = np.delete(np.argsort(e), 1)
        return e[keep], v[:, keep]

    monkeypatch.setattr(many_body, "eigsh", eigsh)


def lanczos_blocks(spd):
    """Sectors that keep some but not all of their eigenpairs."""
    return [n for n in truncated(spd) if spd.energies[n].size]


def without_weyl_kahan(monkeypatch):
    """Leave every Lanczos block to its inertia count."""
    monkeypatch.setattr(many_body, "_weyl_kahan", lambda *args: 0)


def test_missed_eigenvalue_is_caught(monkeypatch, l12):
    # the inertia count finds one eigenvalue more below every Lanczos floor
    # than the block holds; each such sector is diagonalized whole instead
    p, ref = l12
    assert lanczos_blocks(q.diagonalize(p))
    without_weyl_kahan(monkeypatch)
    lossy_eigsh(monkeypatch)
    spd = q.diagonalize(p)
    assert not lanczos_blocks(spd) and spd.tail_certified
    for n in range(spd.n_sectors):
        if spd.energies[n].size:
            np.testing.assert_allclose(spd.energies[n], ref.energies[n],
                                       rtol=0.0, atol=1e-12)
    assert spd.thermal_weights(p.nu)[1] == pytest.approx(
        ref.thermal_weights(p.nu)[1], rel=1e-12, abs=0.0)
    corr = q.compute_correlation(spd, p.nu, [0.0, 1.0])
    expect = q.compute_correlation(ref, p.nu, [0.0, 1.0]).values
    np.testing.assert_allclose(corr.values, expect, rtol=0.0, atol=1e-12)


def test_missed_eigenvalue_is_caught_with_weyl_kahan_on(monkeypatch, l12):
    # with the Weyl + Kahan step on, a block that lacks the second-lowest
    # eigenvalue certifies at most its lowest pair, below the profile value
    # above it, or goes to its count; either way the reads match dense ED
    p, ref = l12
    lossy_eigsh(monkeypatch)
    spd = q.diagonalize(p)
    assert spd.tail_certified
    for n in range(spd.n_sectors):
        k = spd.energies[n].size
        np.testing.assert_allclose(spd.energies[n], ref.energies[n][:k],
                                   rtol=0.0, atol=1e-12)
        assert np.all(ref.energies[n][k:] >= spd.floors[n])
    for nu in (p.nu, 0.5):
        assert spd.thermal_weights(nu)[1] == pytest.approx(
            ref.thermal_weights(nu)[1], rel=1e-12, abs=0.0)
    corr = q.compute_correlation(spd, p.nu, [0.0, 1.0])
    expect = q.compute_correlation(ref, p.nu, [0.0, 1.0]).values
    err = np.max(np.abs(corr.values - expect), axis=(1, 2))
    assert np.all(err <= corr.discarded + 1e-12)


def count_calls(monkeypatch, names):
    """Count the calls of the named many_body functions into a dict."""
    calls = {}

    def counted(name):
        real = getattr(many_body, name)

        def call(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        monkeypatch.setattr(many_body, name, call)

    for name in names:
        counted(name)
    return calls


def test_block_grows_and_is_counted_on_one_hamiltonian(monkeypatch, l12):
    # one H per dense sector and one per Lanczos growth, which serves the
    # block's certificate and any dense fallback too; each Lanczos block is
    # sized once from its Weyl count, so no eigsh run is thrown away.  The
    # 1,716-state sector's Weyl profile bounds its tail, so it keeps no
    # block; of the two blocks, Weyl + Kahan certifies one and the other is
    # counted.  Each certificate is a bool
    p, _ = l12
    calls = count_calls(monkeypatch, ("build_hamiltonian", "eigsh",
                                      "_count_below", "_whole"))
    spd = q.diagonalize(p)
    assert calls == {"build_hamiltonian": 10, "eigsh": 2, "_count_below": 1,
                     "_whole": 8}
    assert all(type(c) is bool for c in spd.certified) and spd.tail_certified


def test_ground_sector_is_resolved_first(monkeypatch):
    # at high filling the dense sectors' K0 sits far above the true ground
    # (sector 10 here); resolving the lowest floor first, from the lowest K0
    # can be, blocks only the two sectors near the ground
    p = q.ModelParams(L=14, beta=24576.0, eps=0.1, U=0.1, theta=0.2377,
                      x_hat=-7)
    calls = count_calls(monkeypatch, ("eigsh", "_count_below"))
    spd = q.diagonalize(p)
    assert spd.tail_certified
    assert calls.get("eigsh", 0) <= 2 and calls.get("_count_below", 0) <= 2


def test_uncounted_blocks_are_not_certified(monkeypatch, l12):
    # above the size cap of the sparse LDL^T no block is counted; a block
    # that missed an eigenvalue is then reported, never certified
    p, _ = l12
    without_weyl_kahan(monkeypatch)
    monkeypatch.setattr(many_body, "_COUNT_MAX", 0)
    spd = q.diagonalize(p)
    assert lanczos_blocks(spd) and not spd.tail_certified
    assert all(spd.certified[n] is False for n in lanczos_blocks(spd))
    lossy_eigsh(monkeypatch)
    assert not q.diagonalize(p).tail_certified


@pytest.mark.parametrize("n", [3, 4, 5])
def test_inertia_count_matches_spectrum(n):
    # h - sigma is indefinite, so the count depends on the signs of pivots
    # taken without pivoting; every guard must pass at these spacings
    p = q.ModelParams(L=8, beta=5.0, eps=0.3, U=0.2, theta=0.31)
    h = q.build_hamiltonian(p, enumerate_sector(p.L, n))
    e = np.linalg.eigvalsh(h.toarray())
    for j in range(1, e.size, 7):
        sigma = 0.5 * (e[j - 1] + e[j])
        if e[j] - e[j - 1] > 1e-8:
            assert many_body._count_below(h, sigma, e[j] - e[j - 1]) == j
            assert dense_count_below(h, sigma) == j


@st.composite
def sector_gaps(draw):
    """A random sector Hamiltonian at L <= 12, its spectrum, and the indices
    j of the spacings e[j - 1] < e[j] of at least 1e-6."""
    L = draw(st.sampled_from([4, 6, 8, 10, 12]))
    n = draw(st.integers(1, L))
    p = q.ModelParams(L=L, beta=1.0, eps=draw(st.floats(-0.6, 0.6)),
                      U=draw(st.floats(-0.6, 0.6)),
                      theta=draw(st.floats(0.05, 0.95)))
    h = q.build_hamiltonian(p, enumerate_sector(L, n))
    e = np.linalg.eigvalsh(h.toarray())
    wide = np.flatnonzero(np.diff(e) >= 1e-6) + 1
    assume(wide.size)
    return h, e, wide, draw(st.integers(0, wide.size - 1))


@settings(max_examples=40, deadline=None)
@given(sector_gaps(), st.floats(0.05, 0.95), st.floats(0.05, 0.95))
def test_sparse_inertia_matches_dense_oracle_property(gap, below, above):
    # one shift inside the spacing e[j - 1] < e[j] and one past e[j], inside
    # the next such spacing or above the spectrum: the sparse LDL^T count
    # equals the dense Bunch-Kaufman oracle on both sides
    h, e, wide, i = gap
    j = wide[i]
    inside = e[j - 1] + below * (e[j] - e[j - 1])
    if i + 1 < wide.size:
        k = wide[i + 1]
        past = e[k - 1] + above * (e[k] - e[k - 1])
    else:
        past = e[-1] + above
    for sigma in (inside, past):
        count = dense_count_below(h, sigma)
        assert count == np.count_nonzero(e < sigma)
        inertia = many_body._inertia(h, sigma)
        assert inertia is not None and inertia[0] == count
    # the guarded count at the midpoint is the oracle's, or no count at all
    mid = 0.5 * (e[j - 1] + e[j])
    assert many_body._count_below(h, mid, e[j] - e[j - 1]) in (j, None)


def test_count_guards_reject_an_untrusted_factorization(monkeypatch):
    # each guard alone turns a count that would agree into no count
    p = q.ModelParams(L=8, beta=5.0, eps=0.3, U=0.2, theta=0.31)
    h = q.build_hamiltonian(p, enumerate_sector(p.L, 4))
    e = np.linalg.eigvalsh(h.toarray())
    j = int(np.argmax(np.diff(e[:20]))) + 1
    sigma, spacing = 0.5 * (e[j - 1] + e[j]), e[j] - e[j - 1]
    assert many_body._count_below(h, sigma, spacing) == j
    # a count past the size cap
    monkeypatch.setattr(many_body, "_COUNT_MAX", h.shape[0] - 1)
    assert many_body._count_below(h, sigma, spacing) is None
    monkeypatch.undo()
    # a pivot below the stated fraction of the spacing
    monkeypatch.setattr(many_body, "_PIVOT_FRACTION", 1e6)
    assert many_body._count_below(h, sigma, spacing) is None
    monkeypatch.undo()
    # SuperLU leaves the diagonal at a zero pivot; U_ii = 1, 1 would count
    # no eigenvalue below 0 where there is one
    swap = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert many_body._inertia(swap, 0.0) is None
    # and gives up where no pivot is left: a shift onto an eigenvalue
    assert many_body._inertia(sp.csr_matrix(np.diag([1.0, 2.0])), 2.0) is None
    # a factorization that left the diagonal
    real = many_body._inertia
    monkeypatch.setattr(many_body, "_inertia", lambda h, s: None)
    assert many_body._count_below(h, sigma, spacing) is None
    # a second count that disagrees: the shift sigma - spacing / 4 is then
    # moved below e[j - 1]
    monkeypatch.setattr(many_body, "_inertia",
                        lambda h, s: real(h, s if s == sigma else e[j - 1]
                                          - 0.25 * spacing))
    assert many_body._count_below(h, sigma, spacing) is None


def test_failed_count_guard_leaves_block_uncertified(monkeypatch, l12):
    # a guard that fails reports the block, never certifies it
    p, _ = l12
    without_weyl_kahan(monkeypatch)
    monkeypatch.setattr(many_body, "_PIVOT_FRACTION", 1e6)
    spd = q.diagonalize(p)
    assert lanczos_blocks(spd) and not spd.tail_certified
    assert all(spd.certified[n] is False for n in lanczos_blocks(spd))


# ---- Chebyshev propagation --------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 60), st.integers(1, 12), st.integers(1, 9),
       st.integers(0, 2 ** 32 - 1), st.sampled_from([-1.0, 1.0]),
       st.sampled_from([1, 40, 8192]))
def test_gram_step_matches_batched_oracle_property(d, sites, r, seed, sign,
                                                   elements):
    # the sliced BLAS calls sum in another order than the batched products;
    # each entry is a dot product of d r terms, off by at most about d r eps
    # times the same sum of absolute values.  Slices of 1 or 40 entries
    # take one row or a few at a time, and the last slice is often shorter
    rng = np.random.default_rng(seed)
    part = rng.standard_normal((d, sites, r))
    w = np.sort(rng.random(r))[::-1]
    start = rng.standard_normal((sites, sites))
    out = start.copy()
    with mock.patch.object(many_body, "_GRAM_ELEMENTS", elements):
        many_body._add_gram(out, sign, part * np.sqrt(w))
    expect = start + sign * gram_by_batched_products(part, w)
    size = gram_by_batched_products(np.abs(part), w)
    assert np.all(np.abs(out - expect)
                  <= 2.0 * (d * r + 2) * np.finfo(float).eps
                  * (size + np.abs(start)))


def chebyshev_values(coefficients, lo, hi, x):
    """sum_k c_k T_k(y(x)) in closed form, T_k(y) = cos(k arccos y)."""
    if coefficients.size == 1:
        return np.full_like(x, coefficients[0])
    y = np.clip((2.0 * x - lo - hi) / (hi - lo), -1.0, 1.0)
    k = np.arange(coefficients.size)
    return np.cos(np.outer(np.arccos(y), k)) @ coefficients


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 40.0), st.floats(0.0, 3.0), st.floats(0.0, 30.0),
       st.sampled_from([1e-2, 1e-8, 1e-16, 1e-20]))
def test_chebyshev_series_bounds_its_error_property(tau, lo, width, tol):
    hi = lo + width
    c, rest = many_body._chebyshev(tau, lo, hi, tol)
    delta = rest[-1]
    assert 0.0 <= delta <= tol
    # lo >= 0: the coefficients sum to at most e^(-tau lo) <= 1, so rounding
    # in the recurrence is not amplified
    assert np.sum(np.abs(c)) <= math.exp(-tau * lo) * (1.0 + 1e-12)
    x = np.linspace(lo, hi, 201)
    err = np.abs(chebyshev_values(c, lo, hi, x) - np.exp(-tau * x))
    assert np.all(err <= delta + 1e-14)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 400.0), st.floats(0.0, 0.2), st.floats(0.0, 30.0),
       st.sampled_from([1e-2, 1e-8, 1e-16, 1e-20]))
@example(200.0, 0.1, 20.0, 1e-16)  # z = 2000, cut at degree 244 < z / 2
@example(80.0, 0.0, 25.0, 1e-16)  # z = 1000, where 1 - ive(0) - ... rounds
def test_chebyshev_rest_bounds_every_left_out_tail_property(tau, lo, width,
                                                            tol):
    # at every degree a state may be cut at, m < z / 2 included, the rest
    # covers the coefficients left out, summed from ive out to underflow
    hi = lo + width
    c, rest = many_body._chebyshev(tau, lo, hi, tol)
    assert c.size == rest.size and rest[-1] <= tol
    assert np.all(np.diff(rest) <= 0.0)
    z, size = 0.5 * tau * (hi - lo), 64
    while True:
        a = ive(np.arange(size), z)
        if a[-1] == 0.0:
            break
        size *= 2
    left_out = 2.0 * math.exp(-tau * lo) * np.cumsum(a[::-1])[::-1]
    # at tiny z the ratio bound is tight, so the two sums, each rounded, are
    # compared to 8 ulps; a missing rounding margin under-reports far more
    ulps = 1.0 - 8.0 * np.finfo(float).eps
    assert np.all(rest >= ulps * left_out[1:c.size + 1])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_chebyshev_skips_degrees_past_the_tail_bound_silently():
    # z = tau (hi - lo) / 2 = 4 gives z / (2 (k + 2)) exactly 1 at k = 0,
    # where the tail bound does not hold; that degree must be passed over
    # without dividing by zero, and the cut stays where it was
    c, rest = many_body._chebyshev(4.0, 0.0, 2.0, 1e-16)
    delta = rest[-1]
    k = np.arange(c.size + 1)
    ref = 2.0 * ive(k, 4.0) * (-1.0) ** k
    ref[0] *= 0.5
    np.testing.assert_array_equal(c, ref[:-1])
    m = c.size - 1
    assert delta == abs(ref[m + 1]) / (1.0 - 4.0 / (2.0 * (m + 2)))
    assert (c.size, delta) == (23, 1.531014409352565e-17)


def test_one_state_interval_is_exact():
    # a 1-state sector has hi = lo, so r = 0: the series is the constant
    # e^(-tau lo) with no error, and _propagate applies no operator (the
    # kernel builds none, as it would divide by r)
    c, rest = many_body._chebyshev(3.0, 0.25, 0.25, 1e-16)
    assert c.tolist() == [math.exp(-0.75)] and rest.tolist() == [0.0]
    stack = np.arange(6.0).reshape(2, 3, 1)
    np.testing.assert_array_equal(many_body._propagate(None, c, stack),
                                  math.exp(-0.75) * stack)


def test_propagation_interval_starts_at_the_lower_bound_of_K():
    # the Gershgorin discs of K reach below 0 here; a series on them would
    # sum coefficients of size e^(tau |lo|) and lose 2e-7 to rounding at
    # tau = 0.49 beta, where the series on [lower bound of K >= 0, top] keeps
    # the Fock oracle's 1e-12
    p = q.ModelParams(L=4, beta=80.0, eps=0.6, U=0.3, theta=0.1, x_hat=-1)
    spd = q.diagonalize(p)
    t = 0.49 * p.beta
    corr = q.compute_correlation(spd, p.nu, [-t, t])
    np.testing.assert_allclose(corr.values, fock_correlation(p, corr.times),
                               rtol=0.0, atol=1e-12)


# at tau = 0.28 beta the ground state (sector 1) is dropped from the branch
# into sector 2: its term there, 4e-8, is covered only by what the drop adds
# to the bound
DROP_DRAW = q.ModelParams(L=2, beta=57.601974535376115,
                          eps=-0.03331307421173202, U=0.5764737010567073,
                          theta=0.5139704021956438, x_hat=-1)

# at beta = 1 the states of a slab weigh about alike and runs of them share
# a degree: the error reaches 0.72 of the bound, whose propagation part sums
# each state's own weight, not its run's smallest
RUN_DRAW = q.ModelParams(L=2, beta=1.0, eps=0.0, U=0.0, theta=0.5, x_hat=-1)


@settings(max_examples=25, deadline=None)
@given(chains(sizes=(2, 4, 6, 8), betas=(0.5, 60.0)), st.floats(0.01, 0.5),
       st.sampled_from([-1.0, 1.0]), st.sampled_from([1e-3, 1e-6, 1e-10]))
@example((DROP_DRAW, q.diagonalize(DROP_DRAW)), 0.2845247580618008, 1.0, 1e-6)
@example((RUN_DRAW, q.diagonalize(RUN_DRAW)), 0.25, -1.0, 1e-3)
def test_propagation_bound_covers_its_error_property(chain, frac, sign, tail):
    # at a coarse tail the series is cut far above rounding, so the bound
    # the kernel reports is tested against errors it must actually cover:
    # at large beta and |tau| the states of a slab take different degrees,
    # and the lightest are dropped with their weight times e^(-|tau| lo)
    p, spd = chain
    times = [sign * frac * p.beta]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(many_body, "_TAIL", tail)
        corr = q.compute_correlation(spd, p.nu, times)
    err = np.max(np.abs(corr.values - fock_correlation(p, corr.times)))
    assert err <= corr.discarded[0] + 1e-13


@PROPERTY
@given(chains(sizes=(2, 4, 6, 8, 10)))
def test_one_body_floor_bounds_every_sector_property(chain):
    # the floor an empty block starts from lies below the sector's spectrum,
    # and at U = 0 it is the free ground energy itself
    p, spd = chain
    levels = q.single_particle_spectrum(p)[0]
    for n in range(spd.n_sectors):
        floor = many_body._ground_floor(p, levels, n)
        assert floor <= spd.energies[n][0]
    free = replace(p, U=0.0)
    ground = q.diagonalize(free).energies
    for n in range(spd.n_sectors):
        assert many_body._ground_floor(free, levels, n) == pytest.approx(
            ground[n][0], abs=1e-7)


@PROPERTY
@given(st.sampled_from([4, 6, 8, 10]), st.floats(-0.6, 0.6),
       st.floats(-0.6, 0.6), st.floats(0.05, 0.95), st.floats(0.0, 1.0),
       st.data())
def test_weyl_count_bounds_the_dense_count_property(L, eps, U, theta, frac,
                                                   data):
    # the one-body sums shifted by the pair term's least value bound the
    # spectrum from below one by one, so no more eigenvalues than free sums
    # lie below any cut
    p = q.ModelParams(L=L, beta=1.0, eps=eps, U=U, theta=theta)
    levels = q.single_particle_spectrum(p)[0]
    sec = enumerate_sector(L, data.draw(st.integers(0, p.n_sites)))
    e = np.linalg.eigvalsh(q.build_hamiltonian(p, sec).toarray())
    cut = e[0] - 0.1 + frac * (e[-1] - e[0] + 0.2)
    profile = many_body._weyl_profile(p, levels, sec)
    assert np.count_nonzero(e < cut) <= many_body._weyl_count(profile, cut)


@st.composite
def weyl_sectors(draw):
    """A random sector of at least L + 1 states at L <= 10: its
    Hamiltonian, dense eigenpairs and a profile of lower bounds on its
    eigenvalues one by one, from the Weyl profile up to the spectrum itself
    less _GAP."""
    L = draw(st.sampled_from([4, 6, 8, 10]))
    p = q.ModelParams(L=L, beta=1.0, eps=draw(st.floats(-0.6, 0.6)),
                      U=draw(st.floats(-0.6, 0.6)),
                      theta=draw(st.floats(0.05, 0.95)))
    sec = enumerate_sector(L, draw(st.integers(1, L)))
    h = q.build_hamiltonian(p, sec)
    e, x = eigh(h.toarray())
    weyl = many_body._weyl_profile(p, q.single_particle_spectrum(p)[0], sec)
    assert np.all(weyl <= e - 0.5 * many_body._GAP)
    tight = draw(st.floats(0.0, 1.0))
    return p, sec, h, e, x, weyl + tight * (e - many_body._GAP - weyl)


@settings(max_examples=40, deadline=None)
@given(weyl_sectors(), st.floats(-1.0, 1.0), st.floats(0.05, 20.0),
       st.floats(0.0, 1.0), st.data())
def test_profile_tail_bounds_the_left_out_weight_property(sector, mu, b, frac,
                                                          data):
    # a block of the k lowest eigenpairs with a floor at most the (k+1)-th
    # eigenvalue: the profile's term is at least the exact weight of the
    # eigenvalues it leaves out, with K0 from it and a one-state sector
    p, sec, _, e, x, profile = sector
    k = data.draw(st.integers(0, e.size - 1))
    floor = profile[0] + frac * (e[k] - profile[0])
    empty = enumerate_sector(p.L, 0)
    spd = q.SpectralDecomposition(
        params=p, sectors=[empty, sec], energies=[np.zeros(1), e[:k]],
        vectors=[np.ones((1, 1)), x[:, :k]], floors=[math.inf, floor],
        certified=[True, True], profiles={1: profile})
    offset = mu * sec.n_particles + spd.ground_shift(mu)
    with np.errstate(over="ignore"):
        exact = float(np.sum(np.exp(-b * (e[k:] - offset))))
    term = spd._tail_terms(mu, b)[1]
    assert term >= exact
    # and no looser than the floor alone, the term without a profile
    if -b * (floor - offset) < 700.0:
        alone = (e.size - k) * math.exp(-b * (floor - offset))
        assert term <= alone * (1.0 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(weyl_sectors(), st.floats(0.0, 0.1), st.floats(0.95, 1.0),
       st.floats(-0.5, 1.0), st.data())
def test_weyl_kahan_keeps_every_eigenvalue_below_its_floor_property(
        sector, shift, scale, frac, data):
    # a block of m eigenvectors, one of the m + 1 lowest perhaps left out,
    # with Ritz values shifted down and columns shortened, so that the
    # residual and the orthonormality defect are what hide the gap: every
    # eigenvalue below the certified floor must be one the block holds
    p, sec, h, e, x, profile = sector
    m = data.draw(st.integers(1, min(e.size - 1, 12)))
    skip = data.draw(st.none() | st.integers(0, m - 1))
    held = [i for i in range(m + 1) if i != skip][:m]
    cut = e[0] + frac * (e[m] - e[0])
    j = many_body._weyl_kahan(h, e[held] - shift, x[:, held] * scale,
                              profile, cut)
    assert 0 <= j <= m
    if j:
        assert profile[j] >= cut
        assert set(np.flatnonzero(e < profile[j])) <= set(held[:j])
    # against the spectrum less _GAP, the exact block is certified up to its
    # last spacing wider than 2 _GAP whose profile value clears the cut
    exact = e - many_body._GAP
    j = many_body._weyl_kahan(h, e[:m], x[:, :m], exact, cut)
    wide = [i for i in range(1, m + 1)
            if e[i] - e[i - 1] > 2.0 * many_body._GAP and exact[i] >= cut]
    assert j >= max(wide, default=0)
    # and a block without the lowest eigenvector certifies no pair: Ritz
    # values 1e-3 low leave only the residual to show the gap, and columns
    # 1e-3 short, whose residual is short too, only the orthonormality term
    for short in (0.0, 1e-3):
        assert many_body._weyl_kahan(h, e[1:m + 1] - 1e-3,
                                     x[:, 1:m + 1] * (1.0 - short), exact,
                                     -math.inf) == 0
