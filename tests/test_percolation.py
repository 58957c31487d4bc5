"""Cluster labeling, boundary-connected regions, subgraph enumeration."""

import itertools

import numpy as np
import pytest

from perclab import (Configuration, LatticeRegion, adjacency_kernel,
                     bernoulli_distribution, connected_region,
                     enumerate_connected_subgraphs, finite_cluster_profile,
                     label_clusters, sample_configuration)
from perclab.errors import PreconditionError, ResourceGuardError
from perclab.model import validate_kernel
from perclab.percolation import boundary_cluster_fraction


def _config(region, active_sites, value=0.0):
    vals = np.full(len(region), np.inf)
    index = region.site_index()
    for s in active_sites:
        vals[index[tuple(s)]] = value
    return Configuration(region, vals)


def test_full_lattice_single_cluster():
    reg = LatticeRegion.box(2, 2, 1)
    c = Configuration(reg, np.zeros(len(reg)))
    lab = label_clusters(c, adjacency_kernel(2))
    assert len(lab.cluster_sizes) == 1
    assert lab.cluster_sizes[0] == len(reg)
    assert lab.touches_outer[0]


def test_single_site_cluster():
    reg = LatticeRegion.box(2, 2, 1)
    c = _config(reg, [(0, 0)])
    lab = label_clusters(c, adjacency_kernel(2))
    assert len(lab.cluster_sizes) == 1
    assert lab.cluster_sizes[0] == 1
    assert not lab.touches_outer[0]


def test_gap_disconnects_in_d1():
    reg = LatticeRegion.box(1, 4, 1)
    c = _config(reg, [(0,), (1,), (3,)])
    lab = label_clusters(c, adjacency_kernel(1))
    idx = reg.site_index()
    l0 = lab.positions[idx[(0,)]]
    l1 = lab.positions[idx[(1,)]]
    l3 = lab.positions[idx[(3,)]]
    assert l0 == l1 != l3
    assert lab.positions[idx[(2,)]] == -1


def test_collar_requirement():
    reg = LatticeRegion.box(1, 3, 0)
    c = _config(reg, [(0,)])
    with pytest.raises(PreconditionError):
        label_clusters(c, adjacency_kernel(1))


def test_label_clusters_refuses_a_kernel_of_another_dimension():
    # refused before the empty-input shortcut, so an inactive box is refused too
    reg = LatticeRegion.box(2, 2, 1)
    for vals in (np.zeros(len(reg)), np.full(len(reg), np.inf)):
        with pytest.raises(PreconditionError, match="dimension 2"):
            label_clusters(Configuration(reg, vals), adjacency_kernel(3))


def test_connected_region_full_and_empty():
    reg = LatticeRegion.box(2, 2, 2)
    k = adjacency_kernel(2)
    full = Configuration(reg, np.zeros(len(reg)))
    assert len(connected_region(full, k)) == reg.n_core
    lone = _config(reg, [(0, 0)])
    assert len(connected_region(lone, k)) == 0


def test_connected_region_column_matches_bfs_oracle():
    # a single active column spanning box and collar
    reg = LatticeRegion.box(2, 3, 2)
    k = adjacency_kernel(2)
    column = [(x, 1) for x in range(-5, 6)]
    c = _config(reg, column)
    got = {tuple(reg.sites[i]) for i in connected_region(c, k)}

    # oracle: BFS through active sites from the outer 1-ring
    index = reg.site_index()
    active = {tuple(s) for s in column if tuple(s) in index}
    ring = {tuple(s) for s, sh in zip(reg.sites.tolist(), reg.shell.tolist())
            if 1 <= sh <= 1}
    seen = set()
    frontier = [s for s in active if s in ring]
    seen.update(frontier)
    while frontier:
        nxt = []
        for s in frontier:
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                t = (s[0] + dx, s[1] + dy)
                if t in active and t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    core = {tuple(s) for s in reg.sites[: reg.n_core].tolist()}
    assert got == (seen & core)
    assert got == {(x, 1) for x in range(-3, 4)}


def test_finite_cluster_fraction_examples():
    k = adjacency_kernel(1)
    reg = LatticeRegion.box(1, 4, 1)

    full = Configuration(reg, np.zeros(len(reg)))
    lab = label_clusters(full, k)
    assert finite_cluster_profile(lab, 5).tolist() == [0.0] * 5
    assert boundary_cluster_fraction(lab) == 1.0

    lone = _config(reg, [(0,)])
    lab = label_clusters(lone, k)
    assert finite_cluster_profile(lab, 2).tolist() == [1 / 9, 0.0]
    with pytest.raises(PreconditionError):
        finite_cluster_profile(lab, 0)


def test_finite_classification_grows_with_box():
    # shared counter-based values couple nested boxes: once a site sits in a
    # fully visible finite cluster, a larger window keeps it there
    k = adjacency_kernel(2)
    d = bernoulli_distribution(0.45)
    small = LatticeRegion.box(2, 6, 2)
    big = LatticeRegion.box(2, 10, 2)
    for i in range(5):
        cs = sample_configuration(d, small, 13, i)
        cb = sample_configuration(d, big, 13, i)
        ls = label_clusters(cs, k)
        lb = label_clusters(cb, k)
        big_index = big.site_index()
        for idx in range(small.n_core):
            ps = ls.positions[idx]
            if ps < 0 or ls.touches_outer[ps]:
                continue
            pb = lb.positions[big_index[tuple(small.sites[idx])]]
            assert pb >= 0
            assert not lb.touches_outer[pb]
            assert lb.cluster_sizes[pb] == ls.cluster_sizes[ps]


def test_fraction_monotone_in_n():
    k = adjacency_kernel(2)
    reg = LatticeRegion.box(2, 10, 2)
    d = bernoulli_distribution(0.45)
    for i in range(5):
        lab = label_clusters(sample_configuration(d, reg, 31, i), k)
        fr = finite_cluster_profile(lab, 11).tolist()
        assert all(a >= b for a, b in zip(fr, fr[1:]))


def _bfs_labeling(config, kernel):
    """Oracle: breadth-first search from each unlabelled active site in index
    order.  labels[i] is the site the search of i's cluster started from, or
    -1; sizes and touches map that site to its cluster's size and whether the
    cluster reaches the outer ring."""
    region = config.region
    index = region.site_index()
    sites = [tuple(s) for s in region.sites.tolist()]
    active = config.active.tolist()
    moves = [v for v, _ in kernel.offsets if any(v)]
    labels = [-1] * len(sites)
    sizes, touches = {}, {}
    for start in range(len(sites)):
        if not active[start] or labels[start] >= 0:
            continue
        labels[start] = start
        members = [start]
        for i in members:  # the list grows while it is read: breadth-first
            for v in moves:
                j = index.get(tuple(a + b for a, b in zip(sites[i], v)))
                if j is not None and active[j] and labels[j] < 0:
                    labels[j] = start
                    members.append(j)
        sizes[start] = len(members)
        touches[start] = any(1 <= region.shell[i] <= kernel.hop_range for i in members)
    return labels, sizes, touches


RANGE2_KERNEL = validate_kernel({(1, 0): 1, (-1, 0): 1, (0, 2): 1, (0, -2): 1,
                                 (1, 1): 1, (-1, -1): 1})


@pytest.mark.parametrize("kernel, halfwidth, p", [
    (adjacency_kernel(1), 60, 0.7),
    (adjacency_kernel(2), 10, 0.55),
    (adjacency_kernel(3), 4, 0.3),
    (RANGE2_KERNEL, 8, 0.35),
    (adjacency_kernel(2), 4, 0.0),
    (adjacency_kernel(2), 4, 1.0),
    (adjacency_kernel(2), 0, 0.5),
])
def test_label_clusters_matches_bfs_oracle(kernel, halfwidth, p):
    # the drivers sample a collar of 2R; only the ring 1..R counts as outer
    for collar, i in itertools.product((kernel.hop_range, 2 * kernel.hop_range), range(4)):
        reg = LatticeRegion.box(kernel.dim, halfwidth, collar)
        c = sample_configuration(bernoulli_distribution(p), reg, 17, i)
        lab = label_clusters(c, kernel)
        labels, sizes, touches = _bfs_labeling(c, kernel)
        # the BFS partition up to renumbering: numbers and labels pair one to one
        pos = lab.positions.tolist()
        pairs = set(zip(pos, labels))
        assert len(pairs) == len({x for x, _ in pairs}) == len({y for _, y in pairs})
        assert all((x < 0) == (y < 0) for x, y in pairs)
        assert sorted({x for x in pos if x >= 0}) == list(range(len(sizes)))
        assert len(lab.cluster_sizes) == len(lab.touches_outer) == len(sizes)
        assert [lab.cluster_sizes[x] if x >= 0 else 0 for x in pos] == \
            [sizes.get(y, 0) for y in labels]
        assert [bool(lab.touches_outer[x]) if x >= 0 else None for x in pos] == \
            [touches.get(y) for y in labels]

        core = labels[: reg.n_core]
        n_max = max(sizes.values(), default=0) + 1
        expect = [sum(y >= 0 and not touches[y] and sizes[y] >= n for y in core) / reg.n_core
                  for n in range(1, n_max + 1)]
        assert finite_cluster_profile(lab, n_max).tolist() == expect
        outer = [j for j, y in enumerate(core) if y >= 0 and touches[y]]
        assert boundary_cluster_fraction(lab) == len(outer) / reg.n_core
        assert connected_region(c, kernel).tolist() == outer


# ---------------------------------------------------------------------------
# subgraph enumeration


def brute_force_polyomino_count(size):
    """Classes of connected size-`size` subsets of Z^2 inside a window,
    deduplicated by translation only."""
    window = list(itertools.product(range(size), repeat=2))
    seen = set()
    for combo in itertools.combinations(window, size):
        cells = set(combo)
        start = next(iter(cells))
        stack, comp = [start], {start}
        while stack:
            x, y = stack.pop()
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                t = (x + dx, y + dy)
                if t in cells and t not in comp:
                    comp.add(t)
                    stack.append(t)
        if comp != cells:
            continue
        mn = min(cells)
        seen.add(tuple(sorted((x - mn[0], y - mn[1]) for x, y in cells)))
    return len(seen)


def test_d2_counts_match_brute_force_window():
    cat = enumerate_connected_subgraphs(adjacency_kernel(2), 4)
    assert cat.counts() == [brute_force_polyomino_count(s) for s in (1, 2, 3, 4)]
    assert cat.counts() == [1, 2, 6, 19]


def test_d1_paths_only():
    cat = enumerate_connected_subgraphs(adjacency_kernel(1), 5)
    assert cat.counts() == [1, 1, 1, 1, 1]


def test_singleton():
    cat = enumerate_connected_subgraphs(adjacency_kernel(3), 1)
    assert cat.counts() == [1]
    assert cat.classes(1) == (((0, 0, 0),),)


def test_catalog_classes_are_canonical_and_connected():
    cat = enumerate_connected_subgraphs(adjacency_kernel(2), 4)
    for cls in cat.all_classes():
        assert min(cls) == (0, 0)
        cells = set(cls)
        start = cls[0]
        stack, comp = [start], {start}
        while stack:
            x, y = stack.pop()
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                t = (x + dx, y + dy)
                if t in cells and t not in comp:
                    comp.add(t)
                    stack.append(t)
        assert comp == cells


def test_enumeration_guard(monkeypatch):
    import perclab.percolation as perc
    monkeypatch.setattr(perc, "SUBGRAPH_GUARD", 100)
    tried, canonical = [], perc._canonical_plus
    monkeypatch.setattr(perc, "_canonical_plus",
                        lambda cls, t: tried.append(1) or canonical(cls, t))
    with pytest.raises(ResourceGuardError) as err:
        enumerate_connected_subgraphs(adjacency_kernel(2), 6)
    # the guard predicts before growing: 1 + 2 + 6 + 19 classes so far, and
    # the 19 classes of size 4 would try up to 19 * 4 * 4 sets
    assert err.value.reached == 28 + 19 * 4 * 4
    assert len(tried) <= 100  # growing size 4 to 5 would have tried up to 304 more
    assert enumerate_connected_subgraphs(adjacency_kernel(2), 4).counts() == [1, 2, 6, 19]


@pytest.mark.parametrize("max_size", [0, -1])
def test_enumeration_refuses_a_size_below_one(max_size):
    with pytest.raises(PreconditionError, match="max_size must be >= 1"):
        enumerate_connected_subgraphs(adjacency_kernel(2), max_size)
