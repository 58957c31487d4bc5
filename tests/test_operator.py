"""Hamiltonian assembly."""

import math

import numpy as np
import pytest

from perclab import (Configuration, LatticeRegion, adjacency_kernel, assemble,
                     bernoulli_distribution, sample_configuration, validate_kernel)
from perclab.errors import PreconditionError, ResourceGuardError


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
    assert m.box_size == 5


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
    sub = full.submatrix(kept_rows)
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


def test_dense_guard():
    reg = LatticeRegion.box(1, 5000, 1)
    c = Configuration(reg, np.zeros(len(reg)))
    m = assemble(c, adjacency_kernel(1))
    with pytest.raises(ResourceGuardError):
        m.to_dense()


def test_coordinate_export_roundtrip():
    reg = LatticeRegion.box(1, 1, 1)
    c = _config(reg, {(-1,): 1.0, (0,): 2.0, (1,): 3.0})
    m = assemble(c, adjacency_kernel(1))
    text = m.to_coordinate_text()
    lines = text.strip().split("\n")
    assert lines[0] == f"{m.dim} {m.box_size}"
    triples = [tuple(line.split()) for line in lines[1:]]
    rebuilt = np.zeros((m.dim, m.dim))
    for i, j, v in triples:
        rebuilt[int(i), int(j)] = float(v)
        rebuilt[int(j), int(i)] = float(v)
    assert np.array_equal(rebuilt, m.to_dense())


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
