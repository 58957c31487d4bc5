"""Cluster structure of the active set.

Two active sites belong to the same cluster when they are joined by a path
of active sites stepping only along stencil offsets with nonzero
coefficient.  Clusters that reach the outer boundary ring of a box stand in
for "possibly infinite": their true size is not visible in the window, so
density estimators classify them as not-finite.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from .errors import PreconditionError, ResourceGuardError
from .model import Configuration, HoppingKernel

SUBGRAPH_GUARD = 10 ** 7


@dataclass
class ClusterLabeling:
    """Deterministic labeling of active sites over core + collar.

    positions[i] is the number of site i's cluster, or -1 for an inactive
    site; cluster_sizes and touches_outer are indexed by that number.  Sizes
    count active sites over the whole sampled window, and touches_outer marks
    the clusters that reach the outer R-ring.
    """

    config: Configuration
    positions: np.ndarray
    cluster_sizes: np.ndarray
    touches_outer: np.ndarray

    def core_clusters(self) -> np.ndarray:
        """Cluster number of each active core site, in site order."""
        pos = self.positions[: self.config.region.n_core]
        return pos[pos >= 0]


def label_clusters(config: Configuration, kernel: HoppingKernel) -> ClusterLabeling:
    """Connected components of the active sites of core + collar."""
    region = config.region
    if region.collar < kernel.hop_range:
        raise PreconditionError(
            f"collar {region.collar} < hopping range {kernel.hop_range}: "
            "boundary connectedness is undecidable"
        )
    n = len(region)
    idx = np.flatnonzero(config.active)
    i, j, _ = region.edges(idx, [v for v, _ in kernel.half_offsets()])
    count, component = components(len(idx), i, j)
    positions = np.full(n, -1, dtype=np.int64)
    positions[idx] = component
    shell = region.shell[idx]
    touching = np.zeros(count, dtype=bool)
    touching[component[(shell >= 1) & (shell <= kernel.hop_range)]] = True
    return ClusterLabeling(config, positions, np.bincount(component, minlength=count), touching)


def components(n: int, i: np.ndarray, j: np.ndarray) -> tuple:
    """(count, labels) of the connected components of the graph on 0..n-1 with
    undirected edges (i[e], j[e]); i must be ascending, as LatticeRegion.edges
    returns it."""
    indptr = np.concatenate(([0], np.cumsum(np.bincount(i, minlength=n))))
    graph = sp.csr_matrix((np.ones(len(i)), j, indptr), shape=(n, n))
    return csgraph.connected_components(graph, directed=False)


def connected_region(config: Configuration, kernel: HoppingKernel) -> np.ndarray:
    """Core indices of active sites whose cluster reaches the outer R-ring.

    This depends only on values in the box and its outer R-boundary, which is
    why it serves as the local stand-in for the infinite-cluster restriction.
    """
    labeling = label_clusters(config, kernel)
    pos = labeling.positions[: config.region.n_core]
    return np.flatnonzero(np.append(labeling.touches_outer, False)[pos])


def finite_cluster_profile(labeling: ClusterLabeling, n_max: int) -> np.ndarray:
    """G(n) for n = 1..n_max: the fraction of core sites in finite clusters of size >= n.

    Normalized by the full box size, inactive sites included.  A cluster that
    reaches the outer ring is not finite for this purpose; any other cluster
    containing a core site lies entirely inside the window, so its size is
    exact.
    """
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    pos = labeling.core_clusters()
    sizes = labeling.cluster_sizes[pos[~labeling.touches_outer[pos]]]
    hist = np.bincount(np.minimum(sizes, n_max + 1), minlength=n_max + 2)
    return np.cumsum(hist[::-1])[::-1][1:n_max + 1] / labeling.config.region.n_core


def boundary_cluster_fraction(labeling: ClusterLabeling) -> float:
    """Fraction of core sites in clusters that reach the outer ring."""
    pos = labeling.core_clusters()
    return float(labeling.touches_outer[pos].sum()) / labeling.config.region.n_core


# ---------------------------------------------------------------------------
# abstract connected subgraphs


@dataclass(frozen=True)
class SubgraphCatalog:
    """Translation classes of connected site sets under a stencil adjacency.

    Each stored set is translated so its lexicographically smallest site is
    the origin; no rotation or reflection quotient is taken, since general
    stencils are not isotropic.
    """

    kernel: HoppingKernel
    max_size: int
    by_size: tuple  # tuple over sizes 1..max_size of tuples of site tuples

    def classes(self, size: int):
        return self.by_size[size - 1]

    def counts(self):
        return [len(c) for c in self.by_size]

    def all_classes(self):
        for classes in self.by_size:
            yield from classes

    def to_json(self) -> str:
        import json
        return json.dumps(list(self.all_classes()))  # tuples print as JSON arrays


def _canonical_plus(cls: tuple, t: int) -> tuple:
    """The class of the packed sites cls (sorted, smallest 0) plus the site t:
    the sorted tuple minus its smallest element."""
    if t > 0:
        return tuple(sorted(cls + (t,)))
    return (0,) + tuple([x - t for x in cls])


def _decoder(dim: int, base: int):
    """Site tuples of packed sites, each decoded once and then shared."""
    half = base // 2

    def decode(code: int) -> tuple:
        digits = []
        for _ in range(dim):
            r = (code + half) % base - half
            digits.append(r)
            code = (code - r) // base
        return tuple(reversed(digits))

    sites = {}

    def decode_level(level) -> tuple:
        for code in set().union(*level).difference(sites):
            sites[code] = decode(code)
        return tuple(tuple(map(sites.__getitem__, cls)) for cls in level)

    return decode_level


def enumerate_connected_subgraphs(kernel: HoppingKernel, max_size: int) -> SubgraphCatalog:
    """All translation classes of connected sets of size <= max_size.

    Growth enumeration: every class of size s+1 is some class of size s plus
    one adjacent site, so breadth-first growth with canonical deduplication
    is exhaustive.  Growing a level of classes of size s tries at most
    len(level) * s * len(moves) sets, so the guard trips on that bound before
    the level is grown, not after it has been stored.

    A site x is packed into the one integer sum_i x_i * base**(dim-1-i) with
    balanced digits |x_i| <= max_size * hop_range < base / 2.  No coordinate
    of a class or of a grown set leaves that range, so packing keeps the
    lexicographic order and turns translation into integer addition.  A level
    is decoded to site tuples once the next one has grown.
    """
    if max_size < 1:
        raise PreconditionError("max_size must be >= 1")
    base = 2 * max_size * kernel.hop_range + 1
    moves = [functools.reduce(lambda code, x: code * base + x, v, 0)
             for v, _ in kernel.offsets if any(v)]
    decode_level = _decoder(kernel.dim, base)
    current = [(0,)]
    levels = []
    visited = 1
    for size in range(1, max_size):
        bound = visited + len(current) * size * len(moves)
        if bound > SUBGRAPH_GUARD:
            raise ResourceGuardError(
                f"subgraph enumeration would exceed guard ({SUBGRAPH_GUARD})", reached=bound)
        grown = set()
        for cls in current:
            for t in {s + v for s in cls for v in moves}.difference(cls):
                grown.add(_canonical_plus(cls, t))
        visited += len(grown)
        levels.append(decode_level(current))
        current = sorted(grown)
    levels.append(decode_level(current))
    return SubgraphCatalog(kernel, max_size, tuple(levels))
