"""Hamiltonian assembly."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perclab import (Configuration, LatticeRegion, adjacency_kernel, assemble,
                     bernoulli_distribution, sample_configuration, validate_kernel)
from perclab.errors import PreconditionError, ResourceGuardError

from oracles import coo_csr, submatrix


def _config(region, values_by_site):
    vals = np.full(len(region), np.inf)
    index = region.site_index()
    for s, v in values_by_site.items():
        vals[index[s]] = v
    return Configuration(region, vals)


def test_dimer():
    reg = LatticeRegion.box(1, 2, 1)
    c = _config(reg, {(0,): 0.0, (1,): 0.0})
    m = assemble(c, adjacency_kernel(1))
    assert m.dim == 2
    assert m.to_dense().tolist() == [[0.0, 1.0], [1.0, 0.0]]
    assert m.exact


def test_2x2_block_is_4_cycle():
    reg = LatticeRegion.box(2, 2, 1)
    c = _config(reg, {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 0.0})
    m = assemble(c, adjacency_kernel(2))
    dense = m.to_dense()
    assert m.dim == 4
    assert np.array_equal(dense, dense.T)
    # each site couples to exactly two neighbors inside the block
    assert np.all(dense.sum(axis=0) == 2)
    assert np.all(np.diag(dense) == 0)


def test_closed_site_drops_row():
    reg = LatticeRegion.box(1, 2, 1)
    c = _config(reg, {(0,): 1.5, (1,): np.inf, (2,): -0.5})
    m = assemble(c, adjacency_kernel(1), reg.core_indices)
    assert m.dim == 2
    assert np.array_equal(np.diag(m.to_dense()), [1.5, -0.5])
    assert len(m.off_v) == 0  # sites 0 and 2 are not adjacent
    assert not m.exact  # non-integer potential values


def test_restriction_consistency():
    # assembling on a set then deleting one site == assembling on set minus site
    reg = LatticeRegion.box(2, 2, 1)
    rng = np.random.default_rng(5)
    vals = np.where(rng.random(len(reg)) < 0.7, rng.integers(0, 3, len(reg)).astype(float), np.inf)
    c = Configuration(reg, vals)
    k = adjacency_kernel(2)
    full = assemble(c, k, reg.core_indices)
    if full.dim < 2:
        pytest.skip("degenerate draw")
    drop_row = full.dim // 2
    kept_rows = np.array([i for i in range(full.dim) if i != drop_row])
    sub = submatrix(full, kept_rows)
    dropped_region_idx = reg.index_of(tuple(full.sites[drop_row]))
    site_set = np.array([i for i in reg.core_indices if i != dropped_region_idx])
    direct = assemble(c, k, site_set)
    assert np.array_equal(sub.to_dense(), direct.to_dense())
    assert np.array_equal(sub.sites, direct.sites)


def test_path_spectrum_closed_form():
    # p=1, q=0, d=1: eigenvalues are exactly 2cos(k pi / (n+1))
    n_sites = 9
    reg = LatticeRegion.box(1, (n_sites - 1) // 2, 1)
    c = _config(reg, {(x,): 0.0 for x in range(-(n_sites // 2), n_sites // 2 + 1)})
    m = assemble(c, adjacency_kernel(1))
    w = np.linalg.eigvalsh(m.to_dense())
    expect = np.sort([2 * math.cos(k * math.pi / (n_sites + 1))
                      for k in range(1, n_sites + 1)])
    assert np.allclose(w, expect, atol=1e-12)


def test_empty_active_set_is_legal():
    reg = LatticeRegion.box(1, 1, 1)
    c = Configuration(reg, np.full(len(reg), np.inf))
    m = assemble(c, adjacency_kernel(1))
    assert m.dim == 0
    assert m.blocks() == []
    _check_layout(m)


def test_site_outside_region_errors():
    reg = LatticeRegion.box(1, 1, 1)
    c = Configuration(reg, np.zeros(len(reg)))
    with pytest.raises(PreconditionError):
        assemble(c, adjacency_kernel(1), np.array([999]))


def test_repeated_site_indices_are_refused():
    # the free 5-site chain: region indices 2 and 3 are the sites 0 and 1, so
    # [2, 2, 3] would give site 0 two rows and the spectrum {-sqrt 2, 0, sqrt 2}
    c = Configuration(LatticeRegion.box(1, 2), np.zeros(5))
    assert np.allclose(np.linalg.eigvalsh(assemble(c, adjacency_kernel(1), [2, 3]).to_dense()),
                       [-1.0, 1.0])
    with pytest.raises(PreconditionError, match="repeat"):
        assemble(c, adjacency_kernel(1), np.array([2, 2, 3]))


def test_kernel_of_another_dimension_errors():
    # refused before the empty-input shortcut, so an inactive box is refused too
    reg = LatticeRegion.box(2, 2, 1)
    for vals in (np.zeros(len(reg)), np.full(len(reg), np.inf)):
        with pytest.raises(PreconditionError, match="dimension 2"):
            assemble(Configuration(reg, vals), adjacency_kernel(3))


def test_exact_flag_and_norm_bound():
    reg = LatticeRegion.box(1, 2, 1)
    c = _config(reg, {(0,): 2.0, (1,): -3.0})
    m = assemble(c, adjacency_kernel(1))
    assert m.exact
    assert m.norm_bound == 2.0 + 3.0
    w = np.linalg.eigvalsh(m.to_dense())
    assert np.abs(w).max() <= m.norm_bound + 1e-12


def test_diagonal_stencil_term():
    k = validate_kernel({(0,): 2.0, (1,): 1.0, (-1,): 1.0})
    reg = LatticeRegion.box(1, 1, 1)
    c = _config(reg, {(0,): 1.0, (1,): 1.0})
    m = assemble(c, k)
    assert np.array_equal(np.diag(m.to_dense()), [3.0, 3.0])


def _range_2_kernel(dim):
    """Unit hops, a double hop along axis 0, a diagonal hop and a diagonal term,
    each with its own coefficient."""
    unit = [tuple(int(k == a) for k in range(dim)) for a in range(dim)]
    coeffs = {v: 1.0 + a for a, v in enumerate(unit)}
    coeffs[(2,) + (0,) * (dim - 1)] = 0.25
    if dim > 1:
        coeffs[(1, -1) + (0,) * (dim - 2)] = -0.75
    offsets = {(0,) * dim: 0.125}
    for v, c in coeffs.items():
        offsets[v] = offsets[tuple(-x for x in v)] = c
    return validate_kernel(offsets)


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 3), L=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1),
       ranged=st.booleans())
def test_edges_are_the_sorted_upper_triangle_for_any_site_order(dim, L, seed, ranged):
    """assemble takes its edges from LatticeRegion.edges unsorted: for any order and
    choice of site_indices, collar sites included, they are the pairs of rows one
    stencil offset apart, row < column, sorted by (row, column)."""
    rng = np.random.default_rng(seed)
    k = _range_2_kernel(dim) if ranged else adjacency_kernel(dim)
    reg = LatticeRegion.box(dim, L, k.hop_range)
    vals = np.where(rng.random(len(reg)) < 0.7, 0.0, np.inf)
    chosen = rng.permutation(len(reg))[:rng.integers(0, len(reg) + 1)]
    m = assemble(Configuration(reg, vals), k, chosen)
    sites = [tuple(s) for s in m.sites.tolist()]
    assert sites == sorted(sites)
    row = {s: r for r, s in enumerate(sites)}
    want = sorted((row[s], row[t], c) for s in sites for v, c in k.offsets if any(v)
                  for t in [tuple(np.add(s, v).tolist())] if row.get(t, -1) > row[s])
    assert [(int(i), int(j), float(c)) for i, j, c in zip(m.off_i, m.off_j, m.off_v)] == want
    assert m.off_i.dtype == m.off_j.dtype == np.int64 and m.off_v.dtype == np.float64


def test_dense_guard():
    reg = LatticeRegion.box(1, 5000, 1)
    c = Configuration(reg, np.zeros(len(reg)))
    m = assemble(c, adjacency_kernel(1))
    with pytest.raises(ResourceGuardError):
        m.to_dense()


def _check_layout(m):
    """block_layout() against its contract, and blocks() against the layout."""
    order, starts, labels = m.block_layout()
    assert np.array_equal(np.sort(order), np.arange(m.dim))  # a permutation
    assert starts[0] == 0 and starts[-1] == m.dim and np.all(np.diff(starts) > 0)
    groups = [order[s:e] for s, e in zip(starts[:-1], starts[1:])]
    assert all(np.all(np.diff(g) > 0) for g in groups)  # ascending within a group
    firsts = [int(g[0]) for g in groups]
    assert firsts == sorted(firsts)  # groups ordered by their smallest row
    for b, g in enumerate(groups):
        assert np.all(labels[g] == b)
    assert np.array_equal(labels[m.off_i], labels[m.off_j])  # no edge leaves its block
    blocks = m.blocks()
    assert len(blocks) == len(groups)
    assert all(np.array_equal(x, g) for x, g in zip(blocks, groups))
    return blocks


def test_blocks_partition_rows():
    reg = LatticeRegion.box(1, 6, 1)
    c = _config(reg, {(-6,): 0.0, (-5,): 0.0, (0,): 0.0, (3,): 0.0, (4,): 0.0, (5,): 0.0})
    m = assemble(c, adjacency_kernel(1))
    blocks = _check_layout(m)
    assert [len(b) for b in blocks] == [2, 1, 3]
    got = np.sort(np.concatenate(blocks))
    assert np.array_equal(got, np.arange(m.dim))


def test_block_layout_without_edges_and_with_interleaved_blocks():
    reg = LatticeRegion.box(1, 6, 1)
    isolated = assemble(_config(reg, {(-4,): 0.0, (-1,): 1.0, (2,): 0.0, (6,): 0.0}),
                        adjacency_kernel(1))
    assert [b.tolist() for b in _check_layout(isolated)] == [[0], [1], [2], [3]]
    # in a 2-d box the rows of different clusters interleave in row order
    reg = LatticeRegion.box(2, 6, 1)
    for seed in range(4):
        config = sample_configuration(bernoulli_distribution(0.5), reg, seed, 0)
        blocks = _check_layout(assemble(config, adjacency_kernel(2)))
        assert any(b[-1] > c[0] for b, c in zip(blocks, blocks[1:]))


@settings(max_examples=60, deadline=None)
@example(dim=2, L=2, closed=1.0, checkerboard=False, seed=0, permuted=False)  # empty
@example(dim=3, L=0, closed=0.0, checkerboard=False, seed=0, permuted=True)  # one site
@example(dim=2, L=3, closed=0.0, checkerboard=True, seed=0, permuted=True)  # no edges
@given(dim=st.integers(1, 3), L=st.integers(0, 3), closed=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
       checkerboard=st.booleans(), seed=st.integers(0, 2 ** 32 - 1), permuted=st.booleans())
def test_to_sparse_matches_scipy_coo(dim, L, closed, checkerboard, seed, permuted):
    """to_sparse() gives scipy's canonical arrays, dtypes included, and the diagonal
    slots, zero diagonal entries included, with and without a permutation."""
    rng = np.random.default_rng(seed)
    reg = LatticeRegion.box(dim, L, 1)
    vals = rng.choice([0.0, 1.0, -2.5], len(reg))
    vals[rng.random(len(reg)) < closed] = np.inf
    if checkerboard:
        vals[reg.sites.sum(axis=1) % 2 == 1] = np.inf
    m = assemble(Configuration(reg, vals), adjacency_kernel(dim))
    perm = rng.permutation(m.dim) if permuted else None
    (got, slots), (want, want_slots) = m.to_sparse(perm), coo_csr(m, perm)
    for x, y in ((got.indptr, want.indptr), (got.indices, want.indices),
                 (got.data, want.data), (slots, want_slots)):
        assert x.dtype == y.dtype and np.array_equal(x, y)
