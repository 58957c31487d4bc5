"""Spectral kernels: counting, exact arithmetic, catalogs, mirror states."""

import collections
import functools
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import QQ, ZZ, Poly, Symbol
from sympy.polys.matrices import DomainMatrix

from perclab import (AlgebraicNumber, Configuration, ExperimentParams, LatticeRegion,
                     PotentialDistribution, adjacency_kernel,
                     algebraic_constant, assemble, bernoulli_distribution,
                     charpoly_exact, cluster_spectrum_catalog,
                     eigs_dense, enumerate_connected_subgraphs, ids_jump,
                     kernel_dim_exact, luck_bound, mirror_embed,
                     sample_configuration, validate_kernel)
from perclab import spectra
from perclab.cli import run
from perclab.errors import PreconditionError, ResourceGuardError
from perclab.model import stencil_halo
from perclab.operator import SymmetricOperatorMatrix
from perclab.spectra import (CLUSTER_TOL, DENSE_BLOCK_MAX, EXACT_DIM_GUARD, BlockSpectra,
                             _exact_groups, _group_heads)

from oracles import submatrix

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


def _count_below(m, e, inclusive=False) -> int:
    """One energy counted by an engine of its own, which factorizes from scratch."""
    return int(BlockSpectra(m).counts_below([e], inclusive)[0])


def test_count_below_dimer():
    m = dimer()
    assert _count_below(m, 0.0) == 1
    assert _count_below(m, 1.0) == 1
    assert _count_below(m, 1.0, inclusive=True) == 2


def test_count_below_4_cycle():
    m = four_cycle()
    assert _count_below(m, 0.0) == 1  # eigenvalues -2, 0, 0, 2
    assert _count_below(m, 0.0, inclusive=True) == 3
    assert _count_below(m, 2.5) == 4


def test_count_matches_dense_on_random_percolation_ensemble():
    # the full-scale ensemble: 100 Hamiltonians at L=12, 20 random shifts each,
    # all counted by one engine per matrix; _count_below, which builds an
    # engine of its own, checks the first shift
    k = adjacency_kernel(2)
    d = bernoulli_distribution(0.6)
    reg = LatticeRegion.box(2, 12, 2)
    rng = np.random.default_rng(0)
    for i in range(100):
        c = sample_configuration(d, reg, 77, i)
        m = assemble(c, k)
        if m.dim == 0:
            continue
        w = np.sort(np.concatenate([np.linalg.eigvalsh(submatrix(m, b).to_dense())
                                    for b in m.blocks()]))
        shifts = rng.uniform(-4.2, 4.2, 20)
        expect = [int((w < e - 1e-9).sum()) for e in shifts]
        assert BlockSpectra(m).counts_below(shifts).tolist() == expect
        assert _count_below(m, float(shifts[0])) == expect[0]


def test_count_below_at_exact_eigenvalue_uses_fallback():
    m = path3()  # eigenvalues -sqrt2, 0, sqrt2
    assert _count_below(m, 0.0) == 1
    assert _count_below(m, 0.0, inclusive=True) == 2


def test_counts_below_rejects_nan_on_every_route():
    # a NaN energy used to count every eigenvalue of a small block and none of
    # a chain on the Sturm route; infinite energies count none or all
    small = BlockSpectra(path3())
    chain = BlockSpectra(_matrix({(i,): 0.0 for i in range(-3000, 3001)}, 3000))
    assert not small.large and len(chain.large) == 1
    for engine in (small, chain):
        for inclusive in (False, True):
            with pytest.raises(PreconditionError, match="energies must not be NaN"):
                engine.counts_below([0.0, math.nan], inclusive)
            assert engine.counts_below([-INF, INF], inclusive).tolist() == [0, engine.matrix.dim]


def test_block_spectra_agrees_with_count_below():
    # the batched call and one fresh engine per energy, each against the dense
    # snap oracle #{lambda < E - tau}: comparing them with each other shows nothing
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
    assert [_count_below(m, float(e)) for e in grid] == expect
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
    w = functools.reduce(np.add.outer, [line] * dim).ravel()
    return assemble(Configuration(reg, vals), adjacency_kernel(dim)), np.sort(w)


def _per_block_eigs(m):
    return np.sort(np.concatenate([np.linalg.eigvalsh(submatrix(m, b).to_dense())
                                   for b in m.blocks()]))


def _percolation_box(law=bernoulli_distribution(0.75), kernel=adjacency_kernel(2), halfwidth=30):
    c = sample_configuration(law, LatticeRegion.box(2, halfwidth, kernel.hop_range), 0, 0)
    m = assemble(c, kernel)
    return m, _per_block_eigs(m)


# dense blocks take c -/+ singular values only when bipartite with a constant
# diagonal c; these three giants test c != 0, a mixed diagonal and an odd cycle
ATOM_HALF = PotentialDistribution(atoms=((0.5, 0.75),), inactive_weight=0.25)
TWO_ATOMS = PotentialDistribution(atoms=((0.0, 0.375), (1.0, 0.375)), inactive_weight=0.25)
DIAGONAL_HOP = validate_kernel({(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1,
                                (1, 1): 1, (-1, -1): 1})

COUNT_CASES = {  # name -> (builder, largest block beyond DENSE_BLOCK_MAX)
    "chain_1001": (lambda: _free_box(1, 500), False),
    "chain_3001": (lambda: _free_box(1, 1500), True),
    "box_31x31": (lambda: _free_box(2, 15), False),
    "box_47x47": (lambda: _free_box(2, 23), True),
    "percolation_p075_L30": (_percolation_box, True),
    "percolation_atom_half_L15": (lambda: _percolation_box(ATOM_HALF, halfwidth=15), False),
    "percolation_two_atoms_L15": (lambda: _percolation_box(TWO_ATOMS, halfwidth=15), False),
    "percolation_diagonal_hop_L15": (
        lambda: _percolation_box(bernoulli_distribution(0.75), DIAGONAL_HOP, 15), False),
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
    # the eigenvalues in [E, E'], widened by tau, are N<=(E') - N(E)
    for e, lo, hi in zip(energies, strict, inclusive):
        assert engine.counts_below([e], True)[0] - engine.counts_below([e])[0] == hi - lo
    assert (engine.counts_below([energies[-1]], True)[0] - engine.counts_below([energies[0]])[0]
            == inclusive[-1] - strict[0])

    j = data.draw(st.integers(0, len(SNAP_OFFSETS) - 1), label="offset")
    assert _count_below(m, energies[j]) == strict[j]
    assert _count_below(m, energies[j], inclusive=True) == inclusive[j]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: sparse LU counts carry no backward-error "
                                       "certificate, and on the 47 x 47 free box some are wrong")
def test_sparse_lu_counts_on_the_free_box_match_the_closed_form():
    # today: 679 and 1122 strict, 1087 and 1812 inclusive
    m, w = _free_box(2, 23)
    engine = BlockSpectra(m)
    strict, inclusive = np.array([-1.0, 0.0]), np.array([0.0, 2.0])
    expect = (np.searchsorted(w, strict - CLUSTER_TOL, side="left").tolist(),
              np.searchsorted(w, inclusive + CLUSTER_TOL, side="right").tolist())
    assert expect == ([678, 1081], [1128, 1812])
    assert (engine.counts_below(strict).tolist(),
            engine.counts_below(inclusive, inclusive=True).tolist()) == expect


# Large blocks on the sparse LU route: the first factorization of a block
# chooses its fill-reducing order, every later shift is written into the
# diagonal in place and factored in that order; shifts beyond the norm bound
# and blocks that have fallen back to their dense spectrum factor nothing.


@pytest.fixture
def splu_calls(monkeypatch):
    import perclab.spectra as spectra
    calls, splu = [], spectra.spla.splu

    def recording(a, permc_spec=None, **kwargs):
        calls.append(permc_spec)
        return splu(a, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(spectra.spla, "splu", recording)
    return calls


def _four_free_boxes():
    """The 95 x 95 box with its middle row and column closed: four 47 x 47 blocks."""
    reg = LatticeRegion.box(2, 47, 1)
    core = reg.sites[reg.core_indices]
    vals = np.full(len(reg), INF)
    vals[reg.core_indices[(core != 0).all(axis=1)]] = 0.0
    return assemble(Configuration(reg, vals), adjacency_kernel(2)), np.repeat(_free_box(2, 23)[1], 4)


def test_large_blocks_are_ordered_once_and_refactored_in_place(splu_calls):
    # the four identical boxes are one class: its representative is factored
    # once per energy and counted four times
    m, w = _four_free_boxes()
    engine = BlockSpectra(m)
    assert [(lb.sub.dim, lb.mult) for lb in engine.large] == [(2209, 4)]
    grid = np.linspace(-4.25, 4.25, 18)  # the ends lie beyond the norm bound 4,
    inside = int((np.abs(grid) < m.norm_bound).sum())  # where nothing is factored
    assert engine.counts_below(grid).tolist() == \
        np.searchsorted(w, grid - CLUSTER_TOL, side="left").tolist()
    assert splu_calls == ["MMD_AT_PLUS_A"] + ["NATURAL"] * (inside - 1)
    splu_calls.clear()
    assert engine.counts_below(grid, inclusive=True).tolist() == \
        np.searchsorted(w, grid + CLUSTER_TOL, side="right").tolist()
    assert splu_calls == ["NATURAL"] * inside
    for lb in engine.large:  # one slot per diagonal entry, though every entry is 0
        a, slots, _ = lb._csc
        assert len(slots) == lb.sub.dim
        assert np.array_equal(a.indices[slots], np.arange(lb.sub.dim))


def test_pivot_tolerance_is_set_per_energy(monkeypatch):
    # 100.0 lies beyond the norm bound and is never factored, so it must not
    # widen the tolerance of the energy that is
    tols = []
    for name in ("_splu_negcount", "_sturm_negcount_multi"):
        def recording(*args, real=getattr(spectra, name)):
            tols.append(np.atleast_1d(args[-1]).tolist())
            return real(*args)

        monkeypatch.setattr(spectra, name, recording)
    for m in (_free_box(2, 23)[0], _free_box(1, 1500)[0]):  # sparse LU, then Sturm
        seen = []
        for energies in ([0.5], [0.5, 100.0]):
            tols.clear()
            BlockSpectra(m).counts_below(energies)
            seen.append(tols[:])
        assert seen[0] == seen[1] == [[spectra.PIVOT_RTOL * (m.norm_bound + 0.5)]]


def test_identical_chains_take_the_sturm_route_as_one_class(splu_calls, monkeypatch):
    # two 3,001-site chains split by the closed site 0: one Sturm recurrence
    # per call, on the class representative, counted twice
    m = _matrix({(i,): 0.0 for i in range(-3001, 3002) if i}, 3001)
    engine = BlockSpectra(m)
    assert [(lb.sub.dim, lb.mult) for lb in engine.large] == [(3001, 2)]
    sturm, recurrences = spectra._sturm_negcount_multi, []

    def recording(*args):
        recurrences.append(len(args[2]))
        return sturm(*args)

    monkeypatch.setattr(spectra, "_sturm_negcount_multi", recording)
    w = np.repeat(np.linalg.eigvalsh(engine.large[0].sub.to_dense()), 2)
    b = m.norm_bound
    energies = np.concatenate([[-b, b], np.array([-2, -1, 0, 1, 2]) * CLUSTER_TOL])
    assert engine.counts_below(energies).tolist() == \
        np.searchsorted(w, energies - CLUSTER_TOL, side="left").tolist()
    assert engine.counts_below(energies, inclusive=True).tolist() == \
        np.searchsorted(w, energies + CLUSTER_TOL, side="right").tolist()
    # E = tau puts the strict shift on the eigenvalue 0: the class falls back to
    # its dense spectrum, which then answers the inclusive call
    assert recurrences == [6] and splu_calls == []


@pytest.mark.parametrize("name", ["box_47x47", "chain_3001"])
def test_counts_at_and_beyond_the_norm_bound_match_the_dense_snap(name):
    m, w, _ = _count_case(name)
    b = m.norm_bound
    edges = np.array([-4, -2, -1, 0, 1, 2, 4]) * CLUSTER_TOL
    energies = np.concatenate([-b + edges, [-b - 1e-6, b + 1e-6], b + edges])
    engine = BlockSpectra(m)  # fresh: nothing factored or diagonalized yet
    assert engine.counts_below(energies).tolist() == \
        np.searchsorted(w, energies - CLUSTER_TOL, side="left").tolist()
    assert engine.counts_below(energies, inclusive=True).tolist() == \
        np.searchsorted(w, energies + CLUSTER_TOL, side="right").tolist()


def test_large_block_with_a_varied_diagonal_matches_the_dense_snap(splu_calls):
    # potentials 0 and 1 on a 47 x 47 box: the diagonal must follow the rows
    # into the factor order
    law = PotentialDistribution(atoms=((0.0, 0.5), (1.0, 0.5)))
    m = assemble(sample_configuration(law, LatticeRegion.box(2, 23, 1), 3, 0), adjacency_kernel(2))
    w = np.linalg.eigvalsh(m.to_dense())
    grid = np.linspace(-4.3, 5.3, 25)
    engine = BlockSpectra(m)
    assert engine.counts_below(grid).tolist() == \
        np.searchsorted(w, grid - CLUSTER_TOL, side="left").tolist()
    assert engine.counts_below(grid, inclusive=True).tolist() == \
        np.searchsorted(w, grid + CLUSTER_TOL, side="right").tolist()
    assert splu_calls.count("MMD_AT_PLUS_A") == 1 and len(splu_calls) > 40


def test_zero_diagonal_block_keeps_its_slots_when_the_shift_zeroes_them(splu_calls):
    # the free box has an all-zero diagonal; at E = tau the shift is exactly 0,
    # so every slot holds an explicit 0, the bipartite block is singular and the
    # count falls back to the dense spectrum, which then answers every energy
    m, _ = _free_box(2, 23)
    w = np.linalg.eigvalsh(m.to_dense())
    energies = np.array([-2.1, CLUSTER_TOL, 0.7, 1.9])
    assert energies[1] - CLUSTER_TOL == 0.0
    engine = BlockSpectra(m)
    expect = np.searchsorted(w, energies - CLUSTER_TOL, side="left").tolist()
    assert engine.counts_below(energies).tolist() == expect
    assert splu_calls == ["MMD_AT_PLUS_A", "NATURAL"]
    a, slots, _ = engine.large[0]._csc
    assert len(slots) == m.dim and not a.data[slots].any()
    assert engine.counts_below(energies).tolist() == expect
    assert (engine.counts_below([0.5], True)[0] - engine.counts_below([-0.5])[0]
            == int(((w >= -0.5 - CLUSTER_TOL) & (w <= 0.5 + CLUSTER_TOL)).sum()))
    assert splu_calls == ["MMD_AT_PLUS_A", "NATURAL"]


@pytest.mark.parametrize("energy, symmetric", [(CLUSTER_TOL + 1e-13, False),
                                               (1 + CLUSTER_TOL + 1e-13, True)])
def test_sparse_lu_aborts_that_raise_nothing_fall_back_to_the_dense_snap(energy, symmetric,
                                                                         monkeypatch):
    # shifts 1e-13 above the eigenvalues 0 and 1 of the free box: at 0 SuperLU
    # pivots off the diagonal (perm_r != perm_c), at 1 it keeps the diagonal but
    # a pivot of about 2e-13 lies within tolerance; neither raises
    m, w = _free_box(2, 23)
    factors, splu = [], spectra.spla.splu

    def recording(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(spectra.spla, "splu", recording)
    engine = BlockSpectra(m)
    assert engine.counts_below([energy]).tolist() == \
        [np.searchsorted(w, energy - CLUSTER_TOL, side="left")]
    assert len(factors) == 1  # splu returned: no RuntimeError
    lu, tol = factors[0], spectra.PIVOT_RTOL * (m.norm_bound + energy)
    assert np.array_equal(lu.perm_r, lu.perm_c) == symmetric
    assert not symmetric or np.abs(lu.U.diagonal()).min() <= tol  # the pivot-tolerance return
    assert engine.large[0]._eigs is not None  # the block answers from its dense spectrum


# Panel width:a class's first factorization runs at scipy's default panel
# width, and its fill (entries stored in L and U) sets the width of every later
# refactor: 1 below spectra._FILL_PER_ROW entries per row, else the default.
# The percolation giant stores about 10 per row, the free 19 x 19 x 19 box
# about 198.

WIDTH_CASES = [("percolation_p075_L30", 1), ("free_box_19x19x19", None)]


@functools.lru_cache(maxsize=None)
def _width_case(name):
    """(matrix, sorted spectrum, energies at least 1e-3 from every eigenvalue)."""
    m, w = _count_case(name)[:2] if name in COUNT_CASES else _free_box(3, 9)
    grid = np.linspace(-5.5, 5.5, 12) + 0.0137
    energies = grid[np.abs(grid[:, None] - w).min(axis=1) >= 1e-3]
    assert len(energies) >= 8
    return m, w, energies


@pytest.mark.parametrize("name, width", WIDTH_CASES)
def test_panel_width_follows_the_fill_and_both_widths_count_exactly(name, width, monkeypatch):
    m, w, energies = _width_case(name)
    expect = (np.searchsorted(w, energies - CLUSTER_TOL, side="left").tolist(),
              np.searchsorted(w, energies + CLUSTER_TOL, side="right").tolist())
    # the rule's width, then the other one, forced by moving the threshold
    forced = (0, None) if width == 1 else (math.inf, 1)
    for threshold, panel in ((spectra._FILL_PER_ROW, width), forced):
        monkeypatch.setattr(spectra, "_FILL_PER_ROW", threshold)
        engine = BlockSpectra(m)
        assert (engine.counts_below(energies).tolist(),
                engine.counts_below(energies, inclusive=True).tolist()) == expect
        assert [lb._panel for lb in engine.large] == [panel]


@pytest.fixture
def splu_widths(monkeypatch):
    calls, splu = [], spectra.spla.splu

    def recording(a, permc_spec=None, panel_size=None, **kwargs):
        calls.append((a.shape[0], permc_spec, panel_size))
        return splu(a, permc_spec=permc_spec, panel_size=panel_size, **kwargs)

    monkeypatch.setattr(spectra.spla, "splu", recording)
    return calls


@pytest.mark.parametrize("name, width", WIDTH_CASES + [("four_free_boxes", 1)])
def test_each_class_is_ordered_at_the_default_width_and_refactored_at_its_own(name, width,
                                                                              splu_widths):
    m = _four_free_boxes()[0] if name == "four_free_boxes" else _width_case(name)[0]
    engine = BlockSpectra(m)
    grid = np.linspace(-3.3, 3.3, 4) + 0.0137
    engine.counts_below(grid)
    engine.counts_below(grid, inclusive=True)
    assert [lb._panel for lb in engine.large] == [width] * len(engine.large)
    for lb in engine.large:
        calls = [c[1:] for c in splu_widths if c[0] == lb.sub.dim]
        assert calls == [("MMD_AT_PLUS_A", None)] + [("NATURAL", width)] * 7


def test_both_panel_widths_leave_the_heap_intact():
    # glibc's malloc checks (MALLOC_CHECK_=3, with libc_malloc_debug preloaded
    # from glibc 2.34 on) abort a process whose heap a factorization corrupted,
    # as SuperLU at panel width 32 does under scipy 1.17.1; the child, not
    # pytest, takes the abort
    import os
    import subprocess
    import sys
    code = """if True:
        import numpy as np
        from perclab import (Configuration, LatticeRegion, adjacency_kernel, assemble,
                             bernoulli_distribution, sample_configuration)
        from perclab.spectra import BlockSpectra
        c = sample_configuration(bernoulli_distribution(0.75), LatticeRegion.box(2, 30, 1), 0, 0)
        reg = LatticeRegion.box(3, 9, 1)
        vals = np.full(len(reg), np.inf)
        vals[reg.core_indices] = 0.0
        for m in (assemble(c, adjacency_kernel(2)),
                  assemble(Configuration(reg, vals), adjacency_kernel(3))):
            engine = BlockSpectra(m)
            engine.counts_below(np.linspace(-3.3, 3.3, 4) + 0.0137)
            print([lb._panel for lb in engine.large])
    """
    env = dict(os.environ, MALLOC_CHECK_="3", LD_PRELOAD="libc_malloc_debug.so.0")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[1]", "[None]"]


# Dense blocks: a bipartite block (every edge joins sites of opposite
# coordinate-sum parity) with one diagonal value c has the spectrum c -/+ the
# singular values of its off-diagonal block, plus |n1 - n2| copies of c, and
# is diagonalized at half size; every other block goes to eigvalsh.


@pytest.fixture
def dense_calls(monkeypatch):
    """Shapes of the stacks handed to np.linalg.svd and np.linalg.eigvalsh."""
    calls = {"svd": [], "eigvalsh": []}
    for name, seen in calls.items():
        def recording(a, *args, _real=getattr(np.linalg, name), _seen=seen, **kwargs):
            _seen.append(np.shape(a))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recording)
    return calls


def _largest(m):
    return max(len(b) for b in m.blocks())


def test_bipartite_blocks_with_a_constant_diagonal_take_the_svd(dense_calls):
    # criterion 13's L=20 volume, a 0.5-diagonal box, and a d=1 box of
    # chains, dimers and single sites: only singular values are computed
    c = sample_configuration(bernoulli_distribution(0.7), LatticeRegion.box(2, 20, 1), 13, 0)
    giant = assemble(c, adjacency_kernel(2))
    chains = assemble(sample_configuration(bernoulli_distribution(0.5),
                                           LatticeRegion.box(1, 300, 1), 1, 0), adjacency_kernel(1))
    half, _, _ = _count_case("percolation_atom_half_L15")
    assert _largest(giant) > 1000
    for m in (giant, half, chains):
        w = _per_block_eigs(m)
        dense_calls["svd"].clear()
        dense_calls["eigvalsh"].clear()
        got = BlockSpectra(m).small_eigs
        assert np.abs(got - w).max() < 1e-12
        assert dense_calls["eigvalsh"] == []
        # B has the larger colour class as rows
        assert all(rows >= cols for _, rows, cols in dense_calls["svd"])
        sizes = {rows + cols for _, rows, cols in dense_calls["svd"]}
        assert _largest(m) in sizes
    assert {1, 2, 3} <= sizes  # the chains box: singles, dimers, chains


@pytest.mark.parametrize("name", ["percolation_two_atoms_L15", "percolation_diagonal_hop_L15"])
def test_mixed_diagonals_and_odd_cycles_take_eigvalsh(name, dense_calls):
    m, w, _ = _count_case(name)
    dense_calls["svd"].clear()
    dense_calls["eigvalsh"].clear()
    got = BlockSpectra(m).small_eigs
    assert np.abs(got - w).max() < 1e-12
    n = _largest(m)
    assert any(s[1:] == (n, n) for s in dense_calls["eigvalsh"])
    assert not any(s[1] + s[2] == n for s in dense_calls["svd"])


def test_half_size_spectra_edge_cases(dense_calls):
    # single sites (one empty B each, one svd call) and dimers: c, and c -/+ 1
    singles = BlockSpectra(_matrix({(0,): 0.5, (3,): -2.0}, 4))
    assert singles.small_eigs.tolist() == [-2.0, 0.5] and dense_calls["svd"] == [(2, 1, 0)]
    dimers = BlockSpectra(_matrix({(-4,): 0.25, (-3,): 0.25, (1,): 0.0, (2,): 0.0}, 4))
    assert dimers.small_eigs.tolist() == [-1.0, -0.75, 1.0, 1.25]
    # an empty matrix has no blocks
    empty = BlockSpectra(_matrix({}, 3, dim=2))
    assert empty.small_eigs.shape == (0,) and empty.counts_below([0.0, 5.0]).tolist() == [0, 0]
    assert dense_calls["eigvalsh"] == []

    # a -0.0 diagonal equals 0.0: same spectrum, same counts
    m = path3()
    signed = _rebuilt(m, [-0.0, 0.0, -0.0])
    engine = BlockSpectra(signed)
    assert np.abs(engine.small_eigs - np.array([-2 ** 0.5, 0.0, 2 ** 0.5])).max() < 1e-15
    assert engine.counts_below([0.0]).tolist() == [1]
    assert engine.counts_below([0.0], inclusive=True).tolist() == [2]
    assert dense_calls["eigvalsh"] == []

    # one (size, edge count) bucket with colour classes 2 + 2 (a path) and
    # 1 + 3 (a star): one svd per smaller-class size
    m = _matrix({(-4, 0): 0.0, (-3, 0): 0.0, (-2, 0): 0.0, (-1, 0): 0.0,
                 (2, 0): 0.0, (3, 0): 0.0, (4, 0): 0.0, (3, 1): 0.0}, 4, dim=2)
    engine = BlockSpectra(m)
    assert [(size, len(reps)) for size, reps, _ in engine._classes] == [(4, 2)]
    dense_calls["svd"].clear()
    path = 2 * np.cos(np.arange(1, 5) * np.pi / 5)
    star = np.array([-3 ** 0.5, 0.0, 0.0, 3 ** 0.5])
    assert np.abs(engine.small_eigs - np.sort(np.concatenate([path, star]))).max() < 1e-14
    assert sorted(dense_calls["svd"]) == [(1, 2, 2), (1, 3, 1)]
    assert dense_calls["eigvalsh"] == []


def test_large_bipartite_block_falls_back_to_the_closed_form_spectrum():
    m, w = _free_box(2, 23)
    engine = BlockSpectra(m)
    assert [lb.sub.dim for lb in engine.large] == [2209]
    assert np.abs(engine.large[0].eigs() - w).max() < 1e-12


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


def _nullity_oracle(rows, e: Fraction) -> int:
    """dim ker(A - E) of a dense integer matrix by sympy's rank over QQ."""
    if not rows:
        return 0
    shifted = [[e.denominator * x - (e.numerator if i == j else 0) for j, x in enumerate(row)]
               for i, row in enumerate(rows)]
    return len(rows) - DomainMatrix.from_list(shifted, ZZ).convert_to(QQ).rank()


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
    subs = [submatrix(m, b) for b in m.blocks()]
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
        expect = sum(_nullity_oracle(sub.to_dense().astype(int).tolist(), e) for sub in subs)
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
        w, v = np.linalg.eigh(submatrix(m, rows).to_dense())
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
    w = np.sort(np.concatenate([np.linalg.eigvalsh(submatrix(m, b).to_dense())
                                for b in m.blocks()]))
    assert np.allclose(engine.small_eigs, w, rtol=0, atol=1e-15)


# Classes are found by one 64-bit key per block record, checked against the
# records themselves; np.unique over whole rows is the oracle and the fallback.

def _unique_rows(records):
    _, first, inverse, counts = np.unique(records, axis=0, return_index=True,
                                          return_inverse=True, return_counts=True)
    return first, inverse.reshape(-1), counts


@pytest.fixture
def row_sorts(monkeypatch):
    """Row counts of every np.unique(..., axis=0) call, i.e. of every fallback."""
    calls, unique = [], np.unique

    def recording(a, *args, axis=None, **kwargs):
        if axis is not None:
            calls.append(len(a))
        return unique(a, *args, axis=axis, **kwargs)

    monkeypatch.setattr(np, "unique", recording)
    return calls


# few values, among them float bit patterns and words that differ in one bit
_WORDS = [0, 1, -1, 2 ** 32, 2 ** 31, -2 ** 63, 2 ** 63 - 1,
          *np.array([0.0, -0.0, 1.5, -1.5, 2.5, -2.5]).view(np.int64).tolist()]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6).flatmap(lambda w: st.lists(
    st.lists(st.sampled_from(_WORDS), min_size=w, max_size=w), min_size=1, max_size=30)))
def test_exact_groups_equal_the_row_sort(rows):
    records = np.array(rows, dtype=np.int64)
    first, inverse, counts = _exact_groups(records)
    o_first, o_inverse, o_counts = _unique_rows(records)
    # the same partition, each row with the same representative and multiplicity
    assert sorted(first.tolist()) == sorted(o_first.tolist())
    assert first[inverse].tolist() == o_first[o_inverse].tolist()
    assert counts[inverse].tolist() == o_counts[o_inverse].tolist()


def _rebuilt(m, diag):
    return SymmetricOperatorMatrix(m.sites, np.array(diag), m.off_i, m.off_j, m.off_v,
                                   m.exact, m.norm_bound)


def test_blocks_differing_in_the_sign_of_zeros_are_different_classes(row_sorts):
    # three dimers: (0, 0), (-0.0, -0.0) and (0, 0); -0.0 == 0.0 as floats, but
    # a class holds blocks equal bit for bit.  Two flipped sign bits must not
    # cancel in the key either, so no fallback runs.
    m = _matrix({(-5,): 0.0, (-4,): 0.0, (-1,): 0.0, (0,): 0.0, (4,): 0.0, (5,): 0.0}, 5)
    engine = BlockSpectra(_rebuilt(m, [0.0, 0.0, -0.0, -0.0, 0.0, 0.0]))
    assert _class_sizes(engine) == [1, 2]
    assert engine.counts_below([0.0, 1.0, 1.5]).tolist() == [3, 3, 6]
    assert row_sorts == []


def _grouping_results(m, grid, mask):
    engine = BlockSpectra(m)
    reps = np.concatenate([reps for _, reps, _ in engine._classes])
    kdims = [engine.kernel_dim(e) for e in (-1, 0, 1, Fraction(1, 2))] if m.exact else []
    return (reps[engine._class_of].tolist(), _class_sizes(engine),
            engine.counts_below(grid).tobytes(), engine.counts_below(grid, True).tobytes(),
            kdims, engine.projector_diagonal(grid, mask).tobytes())


@pytest.mark.parametrize("name", sorted(GROUPING_CASES))
def test_a_key_collision_falls_back_to_the_row_sort(name, row_sorts, monkeypatch):
    import perclab.spectra as spectra
    law, kernel, halfwidth = GROUPING_CASES[name]
    m = assemble(sample_configuration(law, LatticeRegion.box(2, halfwidth, kernel.hop_range),
                                      11, 0), kernel)
    mask = np.random.default_rng(11).random(m.dim) < 0.7
    grid = np.linspace(-5, 5, 23)
    keyed = _grouping_results(m, grid, mask)
    assert row_sorts == []
    # every key 0: each bucket with two distinct records takes the fallback
    monkeypatch.setattr(spectra, "_multipliers", lambda n: np.zeros(n, dtype=np.uint64))
    assert _grouping_results(m, grid, mask) == keyed
    assert row_sorts


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


# The exact path against an independent oracle, sympy's rank over QQ: the
# engine's block-by-block elimination and kernel_dim_exact on assembled
# matrices and on plain integer arrays, which need not be symmetric.

EXACT_ENERGIES = tuple(map(Fraction, (-2, -1, 0, 1, 2, Fraction(1, 2), Fraction(-3, 2),
                                      Fraction(1, 3), Fraction(7, 4))))


def _lattice_tree(rng, dim=2, size=40):
    """Active sites whose induced lattice graph is a tree, grown from the origin."""
    sites, frontier = {(0,) * dim}, [(0,) * dim]
    moves = [tuple(d if k == a else 0 for k in range(dim)) for a in range(dim) for d in (-1, 1)]
    while frontier and len(sites) < size:
        s = frontier.pop(int(rng.integers(len(frontier))))
        for v in moves:
            t = tuple(x + y for x, y in zip(s, v))
            nbrs = sum(tuple(x + y for x, y in zip(t, w)) in sites for w in moves)
            if t not in sites and nbrs == 1 and max(map(abs, t)) <= 6 and rng.random() < 0.6:
                sites.add(t)
                frontier.append(t)
    return _matrix({s: 0.0 for s in sites}, 6, dim=dim)


def _tree_array(rng, n):
    """Adjacency of a star or, half the time, a random recursive tree on n vertices."""
    star = rng.random() < 0.5
    a = np.zeros((n, n), dtype=np.int64)
    for k in range(1, n):
        parent = 0 if star else int(rng.integers(k))
        a[k, parent] = a[parent, k] = 1
    return a


def _assembled(rng, law, kernel, halfwidth):
    region = LatticeRegion.box(2, halfwidth, kernel.hop_range)
    return assemble(sample_configuration(law, region, int(rng.integers(2 ** 16)), 0), kernel)


EXACT_CASES = {  # name -> rng -> assembled matrix or square integer array
    "two_atoms": lambda rng: _assembled(
        rng, PotentialDistribution(atoms=((0.0, 0.3), (1.0, 0.3)), inactive_weight=0.4),
        adjacency_kernel(2), 5),
    "anisotropic": lambda rng: _assembled(rng, bernoulli_distribution(0.5),
                                          GROUPING_CASES["anisotropic"][1], 4),
    "lattice_tree": _lattice_tree,
    "tree_or_star_array": lambda rng: _tree_array(rng, int(rng.integers(1, 60))),
    # A = U V + c Id has a kernel of dimension >= n - k at E = c
    "non_symmetric_array": lambda rng: (
        lambda n, k: rng.integers(-3, 4, (n, k)) @ rng.integers(-3, 4, (k, n))
        + int(rng.integers(-2, 3)) * np.eye(n, dtype=np.int64))(
            int(rng.integers(1, 25)), int(rng.integers(0, 6))),
}


@pytest.mark.parametrize("name", sorted(EXACT_CASES))
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 16))
def test_exact_kernel_dim_matches_sympy_oracle(name, seed):
    a = EXACT_CASES[name](np.random.default_rng(seed))
    if isinstance(a, np.ndarray):
        for e in EXACT_ENERGIES:
            assert kernel_dim_exact(a, e) == _nullity_oracle(a.tolist(), e)
        return
    engine = BlockSpectra(a)
    subs = [submatrix(a, b) for b in a.blocks()]
    for e in EXACT_ENERGIES:
        expect = sum(_nullity_oracle(sub.to_dense().astype(int).tolist(), e) for sub in subs)
        assert engine.kernel_dim(e) == expect
        assert kernel_dim_exact(a, e) == expect
        assert kernel_dim_exact(a.to_dense(), e) == expect


def test_exact_kernel_dim_on_empty_single_and_guarded_inputs():
    for e in EXACT_ENERGIES:
        assert kernel_dim_exact(np.zeros((0, 0), dtype=np.int64), e) == 0
        assert kernel_dim_exact([[3]], e) == int(e == 3)
        assert kernel_dim_exact([[0, 1], [0, 0]], e) == int(e == 0)  # one Jordan block
    path = np.eye(EXACT_DIM_GUARD, k=1, dtype=np.int8)  # int8 keeps the arrays at 16 MB
    assert kernel_dim_exact(path + path.T, 0) == 0  # even path: 0 is no eigenvalue
    bigger = np.zeros((EXACT_DIM_GUARD + 1,) * 2, dtype=np.int8)
    tracemalloc.start()
    try:
        # no integer matrix has 1/2 as eigenvalue
        assert kernel_dim_exact(bigger, Fraction(1, 2)) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bigger.nbytes  # an integer array is not checked for integrality
    with pytest.raises(ResourceGuardError):
        kernel_dim_exact(bigger, 0)


# BlockSpectra.kernel_dim eliminates a class only when its computed spectrum
# comes within KERNEL_FILTER_RTOL * max(1, norm bound) of E, and nothing beyond
# the norm bound.  Adversarial energies for that filter, judged by the
# unfiltered elimination (margin inf) and by sympy: exact eigenvalues, a
# rational whose float is an eigenvalue, rationals within 1e-9 of irrational
# eigenvalues (sqrt 2 and the golden ratio from paths of 3 and 4 sites),
# rationals just inside and just outside the margin, and integer atoms near
# 1000, where the margin grows with the norm bound.

BIG_ATOMS = PotentialDistribution(atoms=((1000.0, 0.3), (1001.0, 0.3)), inactive_weight=0.4)
TINY = Fraction(1, 10 ** 400)  # its float is 0.0

FILTER_CASES = {  # name -> rng -> assembled matrix or square integer array
    **{f"grouping_{name}": lambda rng, name=name: _assembled(rng, *GROUPING_CASES[name])
       for name in ("two_atoms", "anisotropic")},  # the continuous law is not exact
    **{f"exact_{name}": EXACT_CASES[name] for name in EXACT_CASES},
    "big_atoms": lambda rng: _assembled(rng, BIG_ATOMS, adjacency_kernel(2), 4),
    "paths_3_and_4": lambda rng: _matrix({(x,): 0.0 for x in (0, 1, 2, 4, 5, 6, 7)}, 8),
}


def _adversarial_energies(w, bound, rng):
    """Rationals that probe the filter around the eigenvalues w of a matrix whose
    norm bound is bound."""
    w = np.unique(w)
    margin = Fraction(spectra.KERNEL_FILTER_RTOL) * max(1, Fraction(bound))
    ints = sorted({round(x) for x in w.tolist() if abs(x - round(x)) < 1e-9})
    irrational = [x for x in w.tolist() if abs(x - round(x)) > 1e-6]
    chosen = rng.permutation(irrational)[:6].tolist()
    near = [Fraction(x).limit_denominator(10 ** 9) for x in chosen]
    assert all(abs(float(q) - x) <= 1e-9 for q, x in zip(near, chosen))
    out = [TINY, -TINY, Fraction(bound), Fraction(bound) + TINY, -Fraction(bound) - TINY]
    for lam in rng.permutation(ints)[:3].tolist():
        out += [Fraction(lam)] + [lam + sign * margin * f for sign in (-1, 1)
                                  for f in (Fraction(999, 1000), Fraction(1001, 1000))]
    return out + near


@pytest.mark.parametrize("name", sorted(FILTER_CASES))
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 16))
def test_filtered_kernel_dim_matches_unfiltered_elimination_and_sympy(name, seed):
    rng = np.random.default_rng(seed)
    a = FILTER_CASES[name](rng)
    if isinstance(a, np.ndarray):
        # arrays are eliminated whole: a margin of 0 would miss their eigenvalues
        w = np.real(np.linalg.eigvals(a)) if len(a) else np.zeros(0)
        energies = sorted({Fraction(round(x)) for x in w.tolist() if abs(x - round(x)) < 1e-9})
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectra, "KERNEL_FILTER_RTOL", 0.0)
            for e in energies:
                assert kernel_dim_exact(a, e) == _nullity_oracle(a.tolist(), e)
        return
    subs = [submatrix(a, b) for b in a.blocks()]
    w = np.concatenate([np.linalg.eigvalsh(sub.to_dense()) for sub in subs] + [np.zeros(0)])
    energies = _adversarial_energies(w, a.norm_bound, rng)
    reached, rank = [], spectra._sparse_rank  # the probes that reach an elimination
    filtered = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "_sparse_rank", lambda rows: reached.append(e) or rank(rows))
        for e in energies:
            filtered.append(BlockSpectra(a).kernel_dim(e))
    assert all(e.denominator == 1 for e in reached)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "KERNEL_FILTER_RTOL", math.inf)
        engine = BlockSpectra(a)
        assert [engine.kernel_dim(e) for e in energies] == filtered
    if max(map(len, a.blocks()), default=0) <= 30:
        blocks = collections.Counter(tuple(map(tuple, sub.to_dense().astype(int).tolist()))
                                     for sub in subs)
        assert filtered == [sum(k * _nullity_oracle(rows, e) for rows, k in blocks.items())
                            for e in energies]
    # an exact eigenvalue keeps its full multiplicity; every other probe is 0
    for e, k in zip(energies, filtered):
        assert k == (int((np.abs(w - float(e)) < 1e-8).sum()) if e.denominator == 1 else 0)


@pytest.fixture
def eliminations(monkeypatch):
    """Every _sparse_rank call, by the dimension of the block it eliminated."""
    calls, rank = [], spectra._sparse_rank

    def counting(rows):
        calls.append(len(rows))
        return rank(rows)

    monkeypatch.setattr(spectra, "_sparse_rank", counting)
    return calls


def test_the_filter_fires_on_the_d2_exact_shape(eliminations, monkeypatch):
    # d=2, L=8, p=0.8 at E = -2..2: every class is eliminated unless the filter
    # clears it, so a dead filter would make one call per (class, energy)
    region = LatticeRegion.box(2, 8, 2)
    engines = [BlockSpectra(assemble(sample_configuration(bernoulli_distribution(0.8), region,
                                                          1000, r), adjacency_kernel(2)))
               for r in range(3)]
    energies = [Fraction(e) for e in range(-2, 3)]
    filtered = [[engine.kernel_dim(e) for e in energies] for engine in engines]
    pairs = sum(len(reps) for engine in engines for _, reps, _ in engine._classes) * len(energies)
    assert 0 < len(eliminations) < pairs
    del eliminations[:]
    monkeypatch.setattr(spectra, "KERNEL_FILTER_RTOL", math.inf)
    assert [[engine.kernel_dim(e) for e in energies] for engine in engines] == filtered
    assert len(eliminations) == pairs


def test_the_margin_decides_which_classes_are_eliminated(eliminations, monkeypatch):
    engine = BlockSpectra(dimer())  # eigenvalues -1 and 1, norm bound 2
    margin = Fraction(spectra.KERNEL_FILTER_RTOL) * 2
    # an integer E is eliminated when a computed eigenvalue lies within the margin;
    # any other rational never is, however near an eigenvalue it lies
    for e, calls in ((1, 1), (-1, 1), (1 + margin * Fraction(999, 1000), 0),
                     (1 + margin * Fraction(1001, 1000), 0), (-1 - margin / 2, 0),
                     (Fraction(1, 2), 0), (TINY, 0)):
        del eliminations[:]
        assert engine.kernel_dim(e) == int(abs(e) == 1)
        assert len(eliminations) == calls, e
    # at E = 0 the eigenvalues lie 1 away: a margin of 0.999 clears the dimer, 1.001 does not
    for rtol, calls in ((0.5 * 0.999, 0), (0.5 * 1.001, 1)):
        monkeypatch.setattr(spectra, "KERNEL_FILTER_RTOL", rtol)
        del eliminations[:]
        assert engine.kernel_dim(0) == 0
        assert len(eliminations) == calls, rtol


def test_no_block_is_eliminated_beyond_the_norm_bound(monkeypatch):
    def refuse(rows):
        raise AssertionError(f"eliminated a block of dimension {len(rows)}")

    monkeypatch.setattr(spectra, "_sparse_rank", refuse)
    m, _ = _free_box(2, 23)  # one 2,209-site block beyond DENSE_BLOCK_MAX, norm bound 4
    engine = BlockSpectra(m)
    assert len(engine.large) == 1 and m.norm_bound == 4
    for e in (Fraction(4) + TINY, -Fraction(4) - TINY, Fraction(9, 2), Fraction(-5)):
        assert engine.kernel_dim(e) == 0


def test_no_block_is_eliminated_at_a_non_integer_energy(monkeypatch):
    def refuse(rows):
        raise AssertionError(f"eliminated a block of dimension {len(rows)}")

    m, _ = _free_box(2, 40)  # one 6,561-site block, beyond EXACT_DIM_GUARD
    engine = BlockSpectra(m)
    assert len(engine.large) == 1 and m.dim == 6561
    with monkeypatch.context() as mp:
        mp.setattr(spectra, "_sparse_rank", refuse)
        for e in (Fraction(1, 2), Fraction(7, 3), 1 + TINY):
            assert engine.kernel_dim(e) == 0
    with pytest.raises(ResourceGuardError, match="exact elimination"):
        engine.kernel_dim(2)


def test_import_perclab_leaves_sympy_out():
    # sympy is a test-side oracle only; importing it would add to every start-up
    import subprocess
    import sys
    code = "import sys, perclab; print('sympy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "False"


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


def test_charpoly_guard_trips_before_any_entry_is_read(monkeypatch):
    def refuse(*args):
        raise AssertionError("read the matrix before checking its dimension")

    monkeypatch.setattr(SymmetricOperatorMatrix, "to_dense", refuse)
    monkeypatch.setattr(spectra, "_int_array", refuse)
    box = _free_box(2, 40)[0]
    assert box.dim == 6561
    for matrix in (box, np.zeros((65, 65), dtype=int)):
        with pytest.raises(ResourceGuardError, match="charpoly guard"):
            charpoly_exact(matrix)
        with pytest.raises(ResourceGuardError, match="charpoly guard"):
            luck_bound(matrix, 0, 0.1)


def test_luck_bound_reads_its_rows_once(monkeypatch):
    reads, read = [], spectra._dense_int_rows

    def recording(matrix):
        reads.append(matrix)
        return read(matrix)

    monkeypatch.setattr(spectra, "_dense_int_rows", recording)
    assert luck_bound(path3(), 0, 0.1)[1] == 0
    assert len(reads) == 1


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


def test_luck_bound_refuses_an_energy_beyond_the_float_range():
    with pytest.raises(PreconditionError, match="float range"):
        luck_bound([[0]], 10 ** 400, 0.1)


@pytest.mark.parametrize("call", [lambda e: luck_bound([[0]], e, 0.1),
                                  lambda e: kernel_dim_exact([[0]], e)])
def test_exact_routines_name_the_energies_they_take(call):
    with pytest.raises(PreconditionError) as info:
        call(0.5)
    assert str(info.value) == "energy must be a numbers.Rational or integer float, not 0.5"


# ---------------------------------------------------------------------------
# algebraic numbers


def test_algebraic_number_sqrt2():
    e = AlgebraicNumber((-2, 0, 1), approx=1.4142)
    assert e.degree == 2 and e.denominator == 1
    assert e.value == pytest.approx(math.sqrt(2), abs=1e-12)
    assert AlgebraicNumber((-2, 0, 1), approx=0.71).value == e.value  # sqrt(2)/2 < 0.71
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


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


_monic = st.lists(st.integers(-3, 3), min_size=1, max_size=6).map(lambda c: c + [1])
_DEGREE_64 = np.random.default_rng(64).integers(-3, 4, 64).tolist() + [1]
_G16 = np.random.default_rng(16).integers(-3, 4, 16).tolist() + [1]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(f=_monic, g=st.none() | _monic)
@example(f=[5, 1], g=None)
@example(f=[-7, 1], g=[-7, 1])
@example(f=_DEGREE_64, g=None)
@example(f=_DEGREE_64[:32] + [1], g=_G16)
def test_squarefree_check_agrees_with_sympy(f, g):
    # monic integer polynomials f, and f * g^2, which is never squarefree
    coeffs = f if g is None else _poly_mul(f, _poly_mul(g, g))
    t = Symbol("t")
    try:
        AlgebraicNumber(coeffs, approx=0.0)
        refused = False
    except PreconditionError as exc:  # a complex root nearest 0 is refused too
        refused = "not squarefree" in str(exc)
    assert refused == (not Poly(coeffs[::-1], t).is_sqf)


def test_minimal_polynomial_degree_is_guarded_before_any_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("worked on a polynomial beyond the guard")

    monkeypatch.setattr(np, "roots", refuse)
    monkeypatch.setattr(spectra, "_sparse_rank", refuse)
    with pytest.raises(ResourceGuardError, match="degree 65"):
        AlgebraicNumber([-2] + [0] * 64 + [1], approx=1.0)


@pytest.mark.parametrize("kwargs", [
    dict(min_poly=(10 ** 400, 1)),
    dict(min_poly=(-2, 10 ** 400, 1), approx=1.0),
    dict(min_poly=(-2, 0, 1), denominator=10 ** 400, approx=1e-400),
    dict(min_poly=(float("inf"), 1)),
])
def test_algebraic_number_refuses_values_beyond_the_float_range(kwargs):
    with pytest.raises(PreconditionError, match="float range"):
        AlgebraicNumber(**kwargs)


@pytest.mark.parametrize("approx, denominator", [(1e308, 1), (1e300, 10 ** 10), (0.0, 1),
                                                  (0.70, 1)])
def test_algebraic_number_refuses_an_approx_that_singles_out_no_root(approx, denominator):
    # 1e308 lies nearer +sqrt 2, but both distances round to 1e308; 0.70 lies below
    # sqrt(2)/2, so not within a quarter of the root distance of +sqrt 2
    with pytest.raises(PreconditionError, match="single out"):
        AlgebraicNumber((-2, 0, 1), denominator, approx)


@pytest.mark.parametrize("denominator", [2.7, 1.5, math.nan, math.inf])
def test_algebraic_number_refuses_a_denominator_that_is_no_finite_integer(denominator):
    # 2.7 used to store b = 2 with value 1/2.7, and 1.5 to pick sqrt 2 at approx * 1.5
    # and then record b = 1; nan and inf fell through to a bare ValueError or OverflowError
    with pytest.raises(PreconditionError, match="positive integer"):
        AlgebraicNumber((-1, 1), denominator)
    with pytest.raises(PreconditionError, match="positive integer"):
        AlgebraicNumber((-2, 0, 1), denominator, approx=0.9428)
    e = AlgebraicNumber((-2, 0, 1), 3.0, approx=math.sqrt(2) / 3)
    assert e.denominator == 3 and math.isclose(e.value, math.sqrt(2) / 3)


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


def test_group_heads_cluster_relative_to_the_head():
    # 1.2e-9 is within CLUSTER_TOL of its neighbour but not of the head 0
    w = np.array([[0.0, 0.6e-9, 1.2e-9, 1.5e-9, 5.0], [1.0, 1.0, 1.0, 1.0, 1.0]])
    assert _group_heads(w).tolist() == [[True, False, True, False, True],
                                        [True, False, False, False, False]]


def _oracle_subgraphs(kernel, max_size):
    """Translation classes grown as tuples of site tuples, one set at a time."""
    def canonical(sites):
        ordered = sorted(sites)
        return tuple(tuple(x - b for x, b in zip(s, ordered[0])) for s in ordered)

    moves = [v for v, _ in kernel.offsets if any(v)]
    current = {((0,) * kernel.dim,)}
    levels = [tuple(sorted(current))]
    for _ in range(1, max_size):
        grown = set()
        for cls in current:
            for s in cls:
                for v in moves:
                    t = tuple(a + b for a, b in zip(s, v))
                    if t not in cls:
                        grown.add(canonical(cls + (t,)))
        current = grown
        levels.append(tuple(sorted(current)))
    return tuple(levels)


def _oracle_catalog(by_size, kernel, atom_values):
    """Catalog entries built one matrix and one candidate at a time."""
    candidates = []  # (energy, size, order, sites, multiplicity)
    order = 0
    for size, classes in enumerate(by_size, 1):
        for sites in classes:
            base = np.zeros((size, size))
            for i in range(size):
                for j in range(i + 1, size):
                    c = kernel.coefficient(tuple(b - a for a, b in zip(sites[i], sites[j])))
                    if c:
                        base[i, j] = base[j, i] = c
            for assignment in itertools.product(atom_values, repeat=size):
                a = base.copy()
                a[np.arange(size), np.arange(size)] = np.array(assignment) + kernel.diagonal_shift()
                w = np.linalg.eigvalsh(a)
                k = 0
                while k < size:
                    j = k
                    while j + 1 < size and w[j + 1] - w[k] <= CLUSTER_TOL:
                        j += 1
                    candidates.append((float(w[k]), size, order, sites, j - k + 1))
                    k = j + 1
                order += 1
    candidates.sort(key=lambda t: t[0])
    entries = []
    i = 0
    while i < len(candidates):
        j = i
        while j + 1 < len(candidates) and candidates[j + 1][0] - candidates[j][0] <= CLUSTER_TOL:
            j += 1
        best = min(candidates[i:j + 1], key=lambda t: (t[1], t[2]))
        entries.append((best[0].hex(), best[3], best[1], best[4]))
        i = j + 1
    return entries


@st.composite
def _drawn_kernels(draw):
    """Stencils of range <= 2 in d = 1..3, anisotropic, some with a diagonal."""
    dim = draw(st.integers(1, 3))
    half = [v for v in itertools.product(range(-2, 3), repeat=dim)
            if v > (0,) * dim and sum(map(abs, v)) <= 2]
    coefficient = st.sampled_from((1, 2, -1, 0.5, -0.75, 0.3))
    offsets = []
    for v in draw(st.lists(st.sampled_from(half), min_size=1, max_size=3, unique=True)):
        c = draw(coefficient)
        offsets += [(v, c), (tuple(-x for x in v), c)]
    if draw(st.booleans()):
        offsets.append(((0,) * dim, draw(coefficient)))
    return validate_kernel(offsets)


@st.composite
def _symmetric_kernels(draw):
    """The adjacency kernel in d = 1..3, alone, plus one pair of diagonal hops,
    or plus every diagonal hop, the diagonals with one coefficient: full or
    partial symmetry, which a drawn stencil rarely has."""
    dim = draw(st.integers(1, 3))
    diagonals = [v for v in itertools.product((-1, 0, 1), repeat=dim) if sum(map(abs, v)) == 2]
    pair = [(1, 1) + (0,) * (dim - 2), (-1, -1) + (0,) * (dim - 2)] if dim > 1 else []
    c = draw(st.sampled_from((1, 0.5, -0.75)))
    hops = draw(st.sampled_from(([], pair, diagonals)))
    return validate_kernel(list(adjacency_kernel(dim).offsets) + [(v, c) for v in hops])


def small_kernels():
    return st.one_of(_drawn_kernels(), _symmetric_kernels())


def _largest_size(kernel, max_size, cost):
    """The largest size up to max_size whose catalog costs at most 4000 by
    cost(size, number of classes), at least 1."""
    size = 1
    while size < max_size:
        counts = enumerate_connected_subgraphs(kernel, size + 1).counts()
        if sum(cost(s, n) for s, n in enumerate(counts, 1)) > 4000:
            break
        size += 1
    return size


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kernel=small_kernels(), max_size=st.integers(4, 9),
       atoms=st.lists(st.sampled_from((0.0, -0.0, 1.0, 0.5, -1.0, 2.5)), min_size=1, max_size=3))
def test_catalog_matches_the_one_set_and_one_matrix_at_a_time_oracles(kernel, max_size, atoms):
    size = _largest_size(kernel, max_size, lambda s, n: n)
    assert enumerate_connected_subgraphs(kernel, size).by_size == _oracle_subgraphs(kernel, size)
    # repeated atom values go to both: the oracle diagonalizes every repeat,
    # the catalog each distinct value once, and both keep the same entries
    size = _largest_size(kernel, size, lambda s, n: n * len(atoms) ** s)
    shapes = enumerate_connected_subgraphs(kernel, size)
    spec = cluster_spectrum_catalog(shapes, atoms)
    got = [(e.energy.hex(), e.witness_sites, e.witness_size, e.multiplicity)
           for e in spec.entries]
    assert got == _oracle_catalog(shapes.by_size, kernel, atoms)
    assert spec.atom_values == tuple(dict.fromkeys(atoms))


def _solved_per_size(monkeypatch, kernel, max_size, atoms=(0.0,)):
    """The catalog of kernel up to max_size and the number of matrices it hands
    to eigvalsh, per size."""
    eigvalsh, solved = np.linalg.eigvalsh, collections.Counter()

    def counting(a):
        solved[a.shape[-1]] += len(a)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    spec = cluster_spectrum_catalog(enumerate_connected_subgraphs(kernel, max_size), atoms)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    return spec, [solved[s] for s in range(1, max_size + 1)]


@pytest.mark.parametrize("dim, free", [
    (2, [1, 1, 2, 5, 12, 35, 108, 369]),   # free polyominoes, OEIS A000105
    (3, [1, 1, 2, 7, 23, 112, 607]),       # free polycubes, mirror images identified, A038119
])
def test_catalog_diagonalizes_one_class_per_orbit(dim, free, monkeypatch):
    assert _solved_per_size(monkeypatch, adjacency_kernel(dim), len(free))[1] == free


def _kernel(hops):
    """The kernel with coefficient c on +-v for each (v, c)."""
    return validate_kernel({w: c for v, c in hops for w in (v, tuple(-x for x in v))})


@pytest.mark.parametrize("kernel, order", [
    (adjacency_kernel(1), 2), (adjacency_kernel(2), 8), (adjacency_kernel(3), 48),
    (adjacency_kernel(4), 384),
    (adjacency_kernel(5), 1),  # searched only up to d = 4
    # ANISOTROPIC_RANGE_2 of the CLI tests: only -I keeps its offsets
    (_kernel([((1, 0), 1), ((0, 1), 0.5), ((2, 0), 0.25), ((1, 1), -0.75), ((0, 0), 0.125)]), 2),
    # the diagonal-hop kernel: {+-I, +-swap}
    (_kernel([((1, 0), 1), ((0, 1), 1), ((1, 1), 0.5)]), 4),
    # the swap keeps the support but not the coefficients: sign flips only
    (_kernel([((1, 0), 1), ((0, 1), 0.5)]), 4),
])
def test_symmetry_group_order(kernel, order):
    assert len(spectra._symmetry_group(kernel)) == order


def test_catalog_keeps_every_class_where_codes_would_overflow(monkeypatch):
    # hops of range 10**6 along z put base**3 beyond 2**63 from size 3 on, so
    # those sizes diagonalize every translation class
    far = _kernel([((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 10 ** 6), 1)])
    spec, solved = _solved_per_size(monkeypatch, far, 4, (0.0, 1.0))
    shapes = enumerate_connected_subgraphs(far, 4)
    assert solved[2:] == [len(shapes.classes(s)) * 2 ** s for s in (3, 4)]
    got = [(e.energy.hex(), e.witness_sites, e.witness_size, e.multiplicity)
           for e in spec.entries]
    assert got == _oracle_catalog(shapes.by_size, far, (0.0, 1.0))


# ---------------------------------------------------------------------------
# mirror embedding


def test_mirror_dimer_state():
    # the bonding state at E = 1 and the antibonding one at E = -1, one per column
    q = {(-1,): INF, (0,): 0.0, (1,): 0.0, (2,): INF}
    r = 1 / math.sqrt(2)
    f = np.array([[r, r], [r, -r]])
    region, config, g, resid = mirror_embed([(0,), (1,)], q, f, [1.0, -1.0])
    m = assemble(config, adjacency_kernel(1), region.core_indices)
    assert g.shape == (m.dim, 2) and resid.shape == (2,)
    for k, (energy, sign) in enumerate(((1.0, 1.0), (-1.0, -1.0))):
        by_site = {tuple(s): v for s, v in zip(m.sites.tolist(), g[:, k].tolist())}
        assert by_site[(0,)] == pytest.approx(r)
        assert by_site[(1,)] == pytest.approx(sign * r)
        assert by_site[(-2,)] == pytest.approx(-r)
        assert by_site[(-3,)] == pytest.approx(-sign * r)
        assert by_site[(-1,)] == 0.0
        h = m.to_sparse()[0]
        assert np.linalg.norm(h @ g[:, k] - energy * g[:, k]) == resid[k] <= 1e-12 * 2
        assert g[:, k] @ g[:, k] == pytest.approx(2 * (f[0, k] ** 2 + f[1, k] ** 2))


def test_mirror_delta_state():
    region, config, g, resid = mirror_embed([(0,)], {(-1,): INF, (0,): 0.0, (1,): INF},
                                            [[1.0]], [0.0])
    m = assemble(config, adjacency_kernel(1), region.core_indices)
    by_site = {tuple(s): v for s, v in zip(m.sites.tolist(), g[:, 0].tolist())}
    assert by_site[(0,)] == 1.0 and by_site[(-2,)] == -1.0
    assert resid.tolist() == [0.0]
    # the axis site is active with finite potential
    axis = config.values[region.index_of((-1,))]
    assert math.isfinite(axis)


def test_mirror_rejects_non_eigenvector():
    # both sites fail; the first one reported is the first in the given order,
    # in the first failing column, whose energy is named
    q = {(-1,): INF, (0,): 0.0, (1,): 0.0, (2,): INF}
    r = 1 / math.sqrt(2)
    for f, energies, energy in (([[1.0], [0.0]], [1.0], 1.0),
                                ([[r, 1.0], [r, 0.0]], [1.0, 0.5], 0.5)):
        for support in ([(0,), (1,)], [(1,), (0,)]):
            with pytest.raises(PreconditionError) as info:
                mirror_embed(support, q, f, energies)
            assert str(info.value) == (f"f is not an eigenvector at energy {energy}: "
                                       f"residual at {support[0]}")


def test_mirror_rejects_active_site_with_coupling():
    # site 2, and site -1 when open, are active but coupled; halo sites are
    # reported in sorted order
    f = np.full((2, 1), 1 / math.sqrt(2))
    for left, first in ((INF, (2,)), (0.0, (-1,))):
        q = {(-1,): left, (0,): 0.0, (1,): 0.0, (2,): 0.0}
        with pytest.raises(PreconditionError) as info:
            mirror_embed([(1,), (0,)], q, f, [1.0])
        assert str(info.value) == (f"nonzero coupling residual at active site {first} "
                                   "outside the support")


DIMER_Q = {(-1,): INF, (0,): 0.0, (1,): 0.0, (2,): INF}
DIMER_F = np.full((2, 1), 1 / math.sqrt(2))


@pytest.mark.parametrize("q, f, energies, message", [
    (DIMER_Q, DIMER_F, [float("nan")], "energies and f must be finite"),
    (DIMER_Q, DIMER_F, [INF], "energies and f must be finite"),
    (DIMER_Q, DIMER_F, [-INF], "energies and f must be finite"),
    (DIMER_Q, [[1 / math.sqrt(2)], [float("nan")]], [1.0], "energies and f must be finite"),
    (DIMER_Q, [[INF], [INF]], [1.0], "energies and f must be finite"),
    ({**DIMER_Q, (0,): float("nan")}, DIMER_F, [1.0], r"potential at \(0,\) is NaN"),
    ({**DIMER_Q, (2,): float("nan")}, DIMER_F, [1.0], r"potential at \(2,\) is NaN"),
    ({**DIMER_Q, (5,): float("nan")}, DIMER_F, [1.0], r"potential at \(5,\) is NaN"),
])
def test_mirror_rejects_non_finite_input(q, f, energies, message):
    # every residual comparison is False against NaN, so these must be refused
    # up front: a NaN on the support is not "closed", nor one on the halo open
    with pytest.raises(PreconditionError, match=message):
        mirror_embed([(0,), (1,)], q, f, energies)


@pytest.mark.parametrize("f, energies", [
    (DIMER_F[:, 0], [1.0]),                     # one state as a vector
    (np.hstack([DIMER_F, DIMER_F]), [1.0]),     # more states than energies
    (np.zeros((2, 0)), [1.0]),                  # no state for the one energy
    (DIMER_F[:1], [1.0]),                       # fewer rows than support sites
    (np.vstack([DIMER_F, DIMER_F]), [1.0]),     # more rows than support sites
    (DIMER_F, 1.0),                             # a scalar energy
    (DIMER_F, [[1.0]]),                         # energies not 1-d
    ([[0.5], [0.5, 0.5]], [1.0]),               # ragged
    ({(0,): 0.5, (1,): 0.5, (7,): 0.5}, [1.0]),  # the old {site: value} form
])
def test_mirror_refuses_misshaped_states(f, energies):
    with pytest.raises(PreconditionError):
        mirror_embed([(0,), (1,)], DIMER_Q, f, energies)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: spectra._int_array(np.zeros((2, 3), dtype=np.int64)), PreconditionError,
                 "expected a square matrix", id="int_array_not_square"),
    pytest.param(lambda: spectra._int_array([[0.5]]), TypeError, "not exact integers",
                 id="int_array_not_integer"),
    pytest.param(lambda: mirror_embed([], DIMER_Q, np.zeros((0, 1)), [1.0]), PreconditionError,
                 "empty support", id="mirror_empty_support"),
    pytest.param(lambda: mirror_embed([(0,), (1,)], DIMER_Q, DIMER_F, [1.0],
                                      validate_kernel({(2,): 1, (-2,): 1})),
                 PreconditionError, "range-1 kernel", id="mirror_range_2_kernel"),
    pytest.param(lambda: mirror_embed([(0,), (1,)], DIMER_Q, DIMER_F, [1.0], adjacency_kernel(2)),
                 PreconditionError, "kernel dimension does not match",
                 id="mirror_kernel_dimension"),
    pytest.param(lambda: mirror_embed([(0,), (1,)], {(-1,): INF, (0,): 0.0, (1,): 0.0},
                                      DIMER_F, [1.0]),
                 PreconditionError, r"potential not provided on \(2,\)",
                 id="mirror_missing_potential"),
    pytest.param(lambda: mirror_embed([(0,), (1,)], {**DIMER_Q, (0,): INF}, DIMER_F, [1.0]),
                 PreconditionError, r"support site \(0,\) is closed", id="mirror_closed_support"),
    pytest.param(lambda: AlgebraicNumber((1, 2), approx=-0.5), PreconditionError, "monic",
                 id="algebraic_not_monic"),
    pytest.param(lambda: AlgebraicNumber((0.5, 1), approx=-0.5), PreconditionError,
                 "integer coefficients", id="algebraic_not_integer"),
])
def test_spectra_refuses_bad_input(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_projector_refuses_a_block_beyond_the_dense_guard_with_exit_4(tmp_path, capsys):
    # the free 91 x 91 box is one block of 8,281 sites, beyond DENSE_GUARD
    assert run(["ids", "--dim", "2", "--L", "45", "--p", "1", "--estimator", "projector_diag",
                "--realizations", "1", "--out", str(tmp_path)]) == 4
    assert "block of size 8281 exceeds guard 8192" in capsys.readouterr().err


def test_an_integer_float_energy_gets_the_exact_column_of_its_integer():
    # 1.0 reaches kernel_dim through _integer_energy's float branch
    params = ExperimentParams(2, adjacency_kernel(2), bernoulli_distribution(0.6), 4,
                              realizations=3, seed=2)
    (as_float,), (as_int,) = (ids_jump(params, [e], (1e-6,)) for e in (1.0, 1))
    assert as_float.exact_jump is not None and as_float.exact_jump > 0
    assert as_float.to_csv_rows() == as_int.to_csv_rows()


def test_mirror_with_no_states_returns_an_empty_block():
    # a repeated support site is one row of f
    region, config, g, resid = mirror_embed([(1,), (0,), (1,)], DIMER_Q, np.zeros((2, 0)), [])
    m = assemble(config, adjacency_kernel(1), region.core_indices)
    assert g.shape == (m.dim, 0) and resid.shape == (0,)


def _shape_states(sites, kernel):
    region = LatticeRegion.explicit(sites, collar=0)
    config = Configuration(region, np.zeros(len(region)))
    sample = eigs_dense(assemble(config, kernel, region.core_indices), vectors=True)
    q = {s: 0.0 for s in sites}
    q.update((t, INF) for t in stencil_halo(sites, kernel))
    return q, sample


def test_mirror_assembles_twice_per_shape(monkeypatch):
    k2 = adjacency_kernel(2)
    sites = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 1)]
    q, sample = _shape_states(sites, k2)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return assemble(*args, **kwargs)

    monkeypatch.setattr(spectra, "assemble", counting)
    _, _, g, resid = mirror_embed(sites, q, sample.vectors, sample.values, k2)
    assert g.shape[1] == len(resid) == len(sites) >= 2
    assert len(calls) == 2


def test_mirror_columns_equal_one_state_at_a_time():
    # the block embedding gives each state the bits it gets on its own
    k2 = adjacency_kernel(2)
    sites = [(0, 0), (0, 1), (1, 1), (2, 1), (2, 2), (3, 1)]
    q, sample = _shape_states(sites, k2)
    _, _, g, resid = mirror_embed(sites, q, sample.vectors, sample.values, k2)
    assert g.flags.f_contiguous
    for k in range(len(sites)):
        _, _, gk, rk = mirror_embed(sites, q, sample.vectors[:, [k]], sample.values[[k]], k2)
        assert gk[:, 0].tobytes() == g[:, k].tobytes()
        assert rk[0].tobytes() == resid[k].tobytes()
        assert (gk[:, 0] @ gk[:, 0]).tobytes() == (g[:, k] @ g[:, k]).tobytes()
