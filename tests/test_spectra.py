"""Spectral kernels: counting, exact arithmetic, catalogs, mirror states."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perclab import (AlgebraicNumber, Configuration, LatticeRegion,
                     PotentialDistribution, adjacency_kernel,
                     algebraic_constant, assemble, bernoulli_distribution,
                     charpoly_exact, cluster_spectrum_catalog, count_below,
                     eigs_dense, enumerate_connected_subgraphs,
                     kernel_dim_exact, luck_bound, mirror_embed,
                     sample_configuration, validate_kernel)
from perclab.errors import PreconditionError, ResourceGuardError
from perclab.spectra import CLUSTER_TOL, DENSE_BLOCK_MAX, BlockSpectra, bareiss_rank

INF = float("inf")


def _matrix(active_values, halfwidth, dim=1, kernel=None):
    kernel = kernel or adjacency_kernel(dim)
    reg = LatticeRegion.box(dim, halfwidth, kernel.hop_range)
    vals = np.full(len(reg), np.inf)
    index = reg.site_index()
    for s, v in active_values.items():
        vals[index[s]] = v
    return assemble(Configuration(reg, vals), kernel)


def dimer():
    return _matrix({(0,): 0.0, (1,): 0.0}, 2)


def path3():
    return _matrix({(-1,): 0.0, (0,): 0.0, (1,): 0.0}, 2)


def four_cycle():
    return _matrix({(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 0.0}, 2, dim=2)


# ---------------------------------------------------------------------------
# counting


def test_count_below_dimer():
    m = dimer()
    assert count_below(m, 0.0) == 1
    assert count_below(m, 1.0) == 1
    assert count_below(m, 1.0, inclusive=True) == 2


def test_count_below_4_cycle():
    m = four_cycle()
    assert count_below(m, 0.0) == 1  # eigenvalues -2, 0, 0, 2
    assert count_below(m, 0.0, inclusive=True) == 3
    assert count_below(m, 2.5) == 4


def test_count_matches_dense_on_random_percolation_ensemble():
    # the full-scale ensemble: 100 Hamiltonians at L=12, 20 random shifts each
    k = adjacency_kernel(2)
    d = bernoulli_distribution(0.6)
    reg = LatticeRegion.box(2, 12, 2)
    rng = np.random.default_rng(0)
    for i in range(100):
        c = sample_configuration(d, reg, 77, i)
        m = assemble(c, k)
        if m.dim == 0:
            continue
        w = np.sort(np.concatenate([np.linalg.eigvalsh(m.submatrix(b).to_dense())
                                    for b in m.blocks()]))
        for e in rng.uniform(-4.2, 4.2, 20):
            expect = int((w < e - 1e-9).sum())
            assert count_below(m, float(e)) == expect


def test_count_below_at_exact_eigenvalue_uses_fallback():
    m = path3()  # eigenvalues -sqrt2, 0, sqrt2
    assert count_below(m, 0.0) == 1
    assert count_below(m, 0.0, inclusive=True) == 2


def test_block_spectra_agrees_with_count_below():
    # both routes against the dense snap oracle #{lambda < E - tau}; count_below
    # delegates to BlockSpectra, so comparing them with each other shows nothing
    k = adjacency_kernel(2)
    d = bernoulli_distribution(0.55)
    reg = LatticeRegion.box(2, 8, 2)
    c = sample_configuration(d, reg, 5, 0)
    m = assemble(c, k)
    engine = BlockSpectra(m)
    grid = np.linspace(-4, 4, 17)
    w = np.sort(np.linalg.eigvalsh(m.to_dense()))
    expect = np.searchsorted(w, grid - CLUSTER_TOL, side="left").tolist()
    got = engine.counts_below(grid)
    assert got.tolist() == expect
    assert [count_below(m, float(e)) for e in grid] == expect
    assert np.all(np.diff(got) >= 0)


# One counting semantics on every route: N(E) = #{lambda < E - tau} and
# N<=(E) = #{lambda <= E + tau}, tau = CLUSTER_TOL, probed within and just
# outside tau of an eigenvalue.  The cases sit on both sides of DENSE_BLOCK_MAX:
# dense spectra below it, Sturm (chains) and sparse LU (boxes) above it.

SNAP_OFFSETS = np.array([-2.0, -0.5, 0.0, 0.5, 2.0]) * CLUSTER_TOL


def _free_box(dim, halfwidth):
    reg = LatticeRegion.box(dim, halfwidth, 1)
    vals = np.full(len(reg), INF)
    vals[reg.core_indices] = 0.0
    line = 2 * np.cos(np.arange(1, 2 * halfwidth + 2) * np.pi / (2 * halfwidth + 2))
    w = line if dim == 1 else np.add.outer(line, line).ravel()
    return assemble(Configuration(reg, vals), adjacency_kernel(dim)), np.sort(w)


def _percolation_box():
    c = sample_configuration(bernoulli_distribution(0.75), LatticeRegion.box(2, 30, 1), 0, 0)
    m = assemble(c, adjacency_kernel(2))
    w = np.concatenate([np.linalg.eigvalsh(m.submatrix(b).to_dense()) for b in m.blocks()])
    return m, np.sort(w)


COUNT_CASES = {  # name -> (builder, largest block beyond DENSE_BLOCK_MAX)
    "chain_1001": (lambda: _free_box(1, 500), False),
    "chain_3001": (lambda: _free_box(1, 1500), True),
    "box_31x31": (lambda: _free_box(2, 15), False),
    "box_47x47": (lambda: _free_box(2, 23), True),
    "percolation_p075_L30": (_percolation_box, True),
}


@functools.lru_cache(maxsize=None)
def _count_case(name):
    build, large = COUNT_CASES[name]
    m, w = build()
    assert (max(len(b) for b in m.blocks()) > DENSE_BLOCK_MAX) == large
    return m, w, BlockSpectra(m)


@pytest.mark.parametrize("name", sorted(COUNT_CASES))
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_counting_route_returns_the_dense_snap_count(name, data):
    m, w, engine = _count_case(name)
    k = data.draw(st.integers(0, len(w) - 1), label="k")
    energies = w[k] + SNAP_OFFSETS
    strict = np.searchsorted(w, energies - CLUSTER_TOL, side="left")
    inclusive = np.searchsorted(w, energies + CLUSTER_TOL, side="right")

    assert engine.counts_below(energies).tolist() == strict.tolist()
    assert engine.counts_below(energies, inclusive=True).tolist() == inclusive.tolist()
    for e, lo, hi in zip(energies, strict, inclusive):
        assert engine.count_in_closed(e, e) == hi - lo
    assert engine.count_in_closed(energies[0], energies[-1]) == inclusive[-1] - strict[0]

    # count_below builds a fresh engine, so it factorizes from scratch
    j = data.draw(st.integers(0, len(SNAP_OFFSETS) - 1), label="offset")
    assert count_below(m, energies[j]) == strict[j]
    assert count_below(m, energies[j], inclusive=True) == inclusive[j]


# Identical blocks are grouped into classes and solved once.  Every count and
# kernel dimension must still equal the sum of per-block oracles, on a law
# with many repeated blocks (two atoms), one with none (a continuous law) and
# a kernel whose mirror-image clusters differ in their edge values.

GROUPING_CASES = {  # name -> (law, kernel, halfwidth)
    "two_atoms": (PotentialDistribution(atoms=((0.0, 0.25), (1.0, 0.25)), inactive_weight=0.5),
                  adjacency_kernel(2), 8),
    "continuous": (PotentialDistribution(pieces=((-1.0, 1.0, 0.5),), inactive_weight=0.5),
                   adjacency_kernel(2), 8),
    "anisotropic": (bernoulli_distribution(0.35),
                    validate_kernel({(1, 0): 1, (-1, 0): 1, (0, 1): 2, (0, -1): 2,
                                     (1, 1): -1, (-1, -1): -1}), 6),
}


def _class_sizes(engine):
    return sorted(k for _, _, mult in engine._classes for k in mult.tolist())


@pytest.mark.parametrize("name", sorted(GROUPING_CASES))
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 16))
def test_class_grouping_matches_per_block_oracles(name, seed):
    law, kernel, halfwidth = GROUPING_CASES[name]
    region = LatticeRegion.box(2, halfwidth, kernel.hop_range)
    m = assemble(sample_configuration(law, region, seed, 0), kernel)
    engine = BlockSpectra(m)
    subs = [m.submatrix(b) for b in m.blocks()]
    assert sum(_class_sizes(engine)) == len(subs)

    # every eigenvalue lambda_k, probed at lambda_k + {-2 tau, 0, 2 tau}
    w = np.sort(np.concatenate([np.linalg.eigvalsh(sub.to_dense()) for sub in subs]))
    energies = (w[:, None] + np.array([-2.0, 0.0, 2.0]) * CLUSTER_TOL).ravel()
    strict = np.searchsorted(w, energies - CLUSTER_TOL, side="left")
    inclusive = np.searchsorted(w, energies + CLUSTER_TOL, side="right")
    assert engine.counts_below(energies).tolist() == strict.tolist()
    assert engine.counts_below(energies, inclusive=True).tolist() == inclusive.tolist()

    if not m.exact:
        return
    for e in map(Fraction, (-2, -1, 0, 1, 2, 3, Fraction(1, 2))):
        expect = 0
        for sub in subs:
            shifted = [[e.denominator * x - (e.numerator if i == j else 0)
                        for j, x in enumerate(row)] for i, row in enumerate(sub.to_dense_int())]
            expect += sub.dim - bareiss_rank(shifted)
        assert engine.kernel_dim(e) == expect


@pytest.mark.parametrize("name", sorted(GROUPING_CASES))
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 16))
def test_projector_diagonal_equals_the_per_block_loop_bitwise(name, seed):
    # reference: every block diagonalized on its own, shares added block by block
    law, kernel, halfwidth = GROUPING_CASES[name]
    region = LatticeRegion.box(2, halfwidth, kernel.hop_range)
    m = assemble(sample_configuration(law, region, seed, 0), kernel)
    mask = np.random.default_rng(seed).random(m.dim) < 0.7
    grid = np.linspace(-5, 5, 23)
    expect = np.zeros(len(grid))
    for rows in m.blocks():
        w, v = np.linalg.eigh(m.submatrix(rows).to_dense())
        take = mask[rows]
        if take.any():
            cum = np.cumsum(v[take] ** 2, axis=1)
            for col, k in enumerate(np.searchsorted(w, grid - CLUSTER_TOL)):
                if k > 0:
                    expect[col] += cum[:, k - 1].sum()
    got = BlockSpectra(m).projector_diagonal(grid, mask)
    assert got.tobytes() == expect.tobytes()


def test_blocks_differing_in_one_diagonal_entry_are_different_classes():
    # four dimers; the third differs from the others in one diagonal entry only
    m = _matrix({(-5,): 0.0, (-4,): 0.0, (-2,): 0.0, (-1,): 0.0,
                 (1,): 0.0, (2,): 1e-12, (4,): 0.0, (5,): 0.0}, 5)
    engine = BlockSpectra(m)
    assert _class_sizes(engine) == [1, 3]
    w = np.sort(np.concatenate([np.linalg.eigvalsh(m.submatrix(b).to_dense())
                                for b in m.blocks()]))
    assert np.allclose(engine.small_eigs, w, rtol=0, atol=1e-15)


@pytest.mark.parametrize("dim", [1, 2])
def test_empty_and_single_site_boxes(dim):
    grid = np.array([0.0, 1.0, 2.0])
    closed = _matrix({}, 3, dim=dim)
    engine = BlockSpectra(closed)
    assert engine.counts_below(grid).tolist() == [0, 0, 0]
    assert engine.counts_below(grid, inclusive=True).tolist() == [0, 0, 0]
    assert engine.kernel_dim(0) == 0
    assert kernel_dim_exact(closed, 0) == 0

    single = _matrix({(0,) * dim: 1.0}, 0, dim=dim)
    engine = BlockSpectra(single)
    assert engine.counts_below(grid).tolist() == [0, 0, 1]
    assert engine.counts_below(grid, inclusive=True).tolist() == [0, 1, 1]
    assert engine.kernel_dim(0) == 0 and engine.kernel_dim(1) == 1
    assert kernel_dim_exact(single, 1) == 1


def test_eigs_dense_path3_and_scalar():
    s = eigs_dense(path3())
    expect = np.sort(np.roots([1, 0, -2, 0]))  # roots of t^3 - 2t
    assert np.allclose(s.values, expect, atol=1e-12)
    m1 = _matrix({(0,): 7.0}, 1)
    assert eigs_dense(m1).values.tolist() == [7.0]


def test_eigs_dense_path5_closed_form():
    m = _matrix({(x,): 0.0 for x in range(-2, 3)}, 3)
    expect = np.sort([2 * math.cos(k * math.pi / 6) for k in range(1, 6)])
    assert np.allclose(eigs_dense(m).values, expect, atol=1e-12)


def test_eigs_dense_vectors_residual():
    s = eigs_dense(four_cycle(), vectors=True)
    assert s.residual is not None and s.residual < 1e-12


# ---------------------------------------------------------------------------
# exact arithmetic


def test_kernel_dim_exact_examples():
    assert kernel_dim_exact(four_cycle(), 0) == 2
    assert kernel_dim_exact(path3(), 0) == 1
    assert kernel_dim_exact(dimer(), 1) == 1
    assert kernel_dim_exact(dimer(), Fraction(1, 2)) == 0


def test_kernel_dim_requires_exact():
    m = _matrix({(0,): 0.5, (1,): 0.0}, 2)
    with pytest.raises(TypeError):
        kernel_dim_exact(m, 0)


def _charpoly_oracle(rows):
    """Cofactor expansion of det(t I - A) over integer polynomials."""
    n = len(rows)

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def poly_add(a, b):
        out = [0] * max(len(a), len(b))
        for i, x in enumerate(a):
            out[i] += x
        for i, x in enumerate(b):
            out[i] += x
        return out

    def det(mat):
        if len(mat) == 1:
            return mat[0][0]
        out = [0]
        for col in range(len(mat)):
            minor = [r[:col] + r[col + 1:] for r in mat[1:]]
            term = poly_mul(mat[0][col], det(minor))
            if col % 2:
                term = [-x for x in term]
            out = poly_add(out, term)
        return out

    char = [[[-rows[i][j]] if i != j else [-rows[i][j], 1] for j in range(n)]
            for i in range(n)]
    d = det(char)
    return tuple(d + [0] * (n + 1 - len(d)))


def test_charpoly_examples_and_oracle():
    assert charpoly_exact([[3]]) == (-3, 1)
    assert charpoly_exact(dimer()) == (-1, 0, 1)
    assert charpoly_exact(path3()) == (0, -2, 0, 1)
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        a = rng.integers(-3, 4, (n, n))
        a = (a + a.T).tolist()
        assert charpoly_exact(a) == _charpoly_oracle(a)


def test_charpoly_guard():
    with pytest.raises(ResourceGuardError):
        charpoly_exact(np.zeros((65, 65), dtype=int))


def test_luck_bound_path3():
    b, lhs = luck_bound(path3(), 0, 0.1)
    expect = (math.log(0.5) + 3 * math.log(2.0)) / math.log(10.0)
    assert b == pytest.approx(expect)
    assert lhs == 0


def test_luck_bound_scalar_zero():
    b, lhs = luck_bound([[0]], 0, 0.5)
    assert lhs == 0
    assert b >= 0.0


def test_luck_bound_random_suite():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(1, 16))
        a = rng.integers(-2, 3, (n, n))
        a = (a + a.T).tolist()
        for e in (-1, 0, 1):
            for eps in (0.1, 0.01):
                bound, lhs = luck_bound(a, e, eps)  # raises if the theorem fails
                assert lhs <= bound


def test_luck_bound_eps_domain():
    with pytest.raises(PreconditionError):
        luck_bound(dimer(), 0, 1.5)


# ---------------------------------------------------------------------------
# algebraic numbers


def test_algebraic_number_sqrt2():
    e = AlgebraicNumber((-2, 0, 1), approx=1.4142)
    assert e.degree == 2 and e.denominator == 1
    assert e.value == pytest.approx(math.sqrt(2), abs=1e-12)
    assert e.root_bound == 3.0
    c = algebraic_constant(e, 4.0)
    assert c == pytest.approx(7.6835, abs=5e-4)


def test_algebraic_constant_degree_one():
    assert algebraic_constant(AlgebraicNumber.from_rational(0), 5.0) == pytest.approx(math.log(5))
    e = AlgebraicNumber.from_rational(Fraction(1, 2))
    assert algebraic_constant(e, 4.0) == pytest.approx(math.log(2) + math.log(4))


def test_algebraic_constant_monotonicity():
    e = AlgebraicNumber((-2, 0, 1), approx=1.4142)
    base = algebraic_constant(e, 4.0)
    assert algebraic_constant(e, 8.0) > base
    bigger_bound = AlgebraicNumber((-7, 0, 1), approx=math.sqrt(7))
    assert algebraic_constant(bigger_bound, 4.0) > base
    deg3 = AlgebraicNumber((-2, 0, 0, 1), approx=2 ** (1 / 3))
    assert algebraic_constant(deg3, 4.0) > base
    denom = AlgebraicNumber((-2, 0, 1), denominator=3, approx=math.sqrt(2) / 3)
    assert algebraic_constant(denom, 4.0) > base


def test_algebraic_number_rejects_non_squarefree():
    with pytest.raises(PreconditionError):
        AlgebraicNumber((1, 2, 1), approx=-1.0)  # (t+1)^2


def test_algebraic_number_needs_root_choice():
    with pytest.raises(PreconditionError):
        AlgebraicNumber((-2, 0, 1))


# ---------------------------------------------------------------------------
# spectrum catalog


def test_catalog_d1_maxsize3():
    cat = enumerate_connected_subgraphs(adjacency_kernel(1), 3)
    spec = cluster_spectrum_catalog(cat, (0.0,))
    expect = [-math.sqrt(2), -1.0, 0.0, 1.0, math.sqrt(2)]
    assert np.allclose(spec.energies, expect, atol=1e-9)
    for entry in spec.entries:
        # reproduce each energy from its witness subgraph
        sites = entry.witness_sites
        n = len(sites)
        a = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i != j and abs(sites[i][0] - sites[j][0]) == 1:
                    a[i, j] = 1
        w = np.linalg.eigvalsh(a)
        assert np.abs(w - entry.energy).min() < 1e-9


def test_catalog_single_site_atom():
    cat = enumerate_connected_subgraphs(adjacency_kernel(2), 1)
    spec = cluster_spectrum_catalog(cat, (7.0,))
    assert spec.energies.tolist() == [7.0]


def test_catalog_d2_contains_expected_energies():
    cat = enumerate_connected_subgraphs(adjacency_kernel(2), 4)
    spec = cluster_spectrum_catalog(cat, (0.0,))
    for target in (2.0, -2.0, 0.0):
        assert np.abs(spec.energies - target).min() < 1e-9
    # witness sizes are minimal: 0 comes from the single site
    entry, dist = spec.nearest(0.0)
    assert dist < 1e-12 and entry.witness_size == 1


def test_catalog_min_gap_positive():
    cat = enumerate_connected_subgraphs(adjacency_kernel(2), 4)
    spec = cluster_spectrum_catalog(cat, (0.0,))
    assert spec.min_gap() > 1e-6


# ---------------------------------------------------------------------------
# mirror embedding


def test_mirror_dimer_state():
    q = {(-1,): INF, (0,): 0.0, (1,): 0.0, (2,): INF}
    f = {(0,): 1 / math.sqrt(2), (1,): 1 / math.sqrt(2)}
    region, config, g = mirror_embed([(0,), (1,)], q, f, 1.0)
    m = assemble(config, adjacency_kernel(1), region.core_indices)
    by_site = {tuple(s): v for s, v in zip(m.sites.tolist(), g.tolist())}
    r = 1 / math.sqrt(2)
    assert by_site[(0,)] == pytest.approx(r)
    assert by_site[(1,)] == pytest.approx(r)
    assert by_site[(-2,)] == pytest.approx(-r)
    assert by_site[(-3,)] == pytest.approx(-r)
    assert by_site[(-1,)] == 0.0
    assert np.linalg.norm(m.to_sparse() @ g - 1.0 * g) <= 1e-12 * 2
    assert g @ g == pytest.approx(2 * (f[(0,)] ** 2 + f[(1,)] ** 2))


def test_mirror_delta_state():
    region, config, g = mirror_embed([(0,)], {(-1,): INF, (0,): 0.0, (1,): INF},
                                     {(0,): 1.0}, 0.0)
    m = assemble(config, adjacency_kernel(1), region.core_indices)
    by_site = {tuple(s): v for s, v in zip(m.sites.tolist(), g.tolist())}
    assert by_site[(0,)] == 1.0 and by_site[(-2,)] == -1.0
    # the axis site is active with finite potential
    axis = config.values[region.index_of((-1,))]
    assert math.isfinite(axis)


def test_mirror_rejects_non_eigenvector():
    q = {(-1,): INF, (0,): 0.0, (1,): 0.0, (2,): INF}
    with pytest.raises(PreconditionError):
        mirror_embed([(0,), (1,)], q, {(0,): 1.0, (1,): 0.0}, 1.0)


def test_mirror_rejects_active_site_with_coupling():
    q = {(-1,): INF, (0,): 0.0, (1,): 0.0, (2,): 0.0}  # site 2 active but coupled
    f = {(0,): 1 / math.sqrt(2), (1,): 1 / math.sqrt(2)}
    with pytest.raises(PreconditionError):
        mirror_embed([(0,), (1,)], q, f, 1.0)
