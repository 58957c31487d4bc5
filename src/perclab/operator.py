"""Finite-volume Hamiltonian matrices.

A restriction of the random Hamiltonian to a site set keeps a row only for
active sites (a site with potential +inf is outside the operator domain).
Truncation is plain restriction: no boundary correction of any kind.  The
matrix carries the full box size of its originating region as metadata,
because counting functions normalize by the box size, inactive sites
included, not by the matrix dimension.
"""

from __future__ import annotations

import io
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from .errors import PreconditionError, ResourceGuardError
from .model import Configuration, HoppingKernel

DENSE_GUARD = 8192


class SymmetricOperatorMatrix:
    """Sparse symmetric matrix indexed by lattice sites.

    Off-diagonal entries are stored once per unordered pair (upper triangle,
    row < col).  entries are exact integers when the kernel is integer valued
    and every potential value on the rows is an integer; exact matrices are
    accepted by the exact-arithmetic spectral routines.
    """

    def __init__(self, sites, diag, off_i, off_j, off_v, box_size, exact, norm_bound):
        self.sites = sites
        self.diag = diag
        self.off_i = off_i
        self.off_j = off_j
        self.off_v = off_v
        self.box_size = int(box_size)
        self.exact = bool(exact)
        self.norm_bound = float(norm_bound)
        self._layout = None

    @property
    def dim(self) -> int:
        return len(self.diag)

    def to_sparse(self) -> sp.csr_matrix:
        n = self.dim
        i = np.concatenate([self.off_i, self.off_j, np.arange(n)])
        j = np.concatenate([self.off_j, self.off_i, np.arange(n)])
        v = np.concatenate([self.off_v, self.off_v, self.diag])
        return sp.csr_matrix((v, (i, j)), shape=(n, n))

    def to_dense(self) -> np.ndarray:
        if self.dim > DENSE_GUARD:
            raise ResourceGuardError(
                f"dense conversion of dimension {self.dim} exceeds guard {DENSE_GUARD}"
            )
        a = np.zeros((self.dim, self.dim))
        a[np.arange(self.dim), np.arange(self.dim)] = self.diag
        a[self.off_i, self.off_j] = self.off_v
        a[self.off_j, self.off_i] = self.off_v
        return a

    def block_layout(self) -> tuple:
        """Connected components as arrays (order, starts, labels), computed once.

        labels[r] is the block of row r, blocks numbered by their smallest row;
        block b holds the rows order[starts[b]:starts[b + 1]], ascending.
        """
        if self._layout is None:
            g = sp.csr_matrix((np.ones(len(self.off_i), dtype=np.int8), (self.off_i, self.off_j)),
                              shape=(self.dim, self.dim))
            nb, labels = csgraph.connected_components(g, directed=False)
            starts = np.concatenate(([0], np.cumsum(np.bincount(labels, minlength=nb))))
            # stable sort keeps row indices ascending within each label
            self._layout = np.argsort(labels, kind="stable"), starts, labels
        return self._layout

    def blocks(self) -> list:
        """Row index arrays of the connected components: slices of block_layout()."""
        order, starts, _ = self.block_layout()
        bounds = starts.tolist()
        return [order[s:e] for s, e in zip(bounds, bounds[1:])]

    def submatrix(self, rows: np.ndarray) -> "SymmetricOperatorMatrix":
        """Restriction to a subset of rows (rows given in ascending order)."""
        rows = np.asarray(rows)
        pos = np.full(self.dim, -1, dtype=np.int64)
        pos[rows] = np.arange(len(rows))
        keep = (pos[self.off_i] >= 0) & (pos[self.off_j] >= 0)
        return SymmetricOperatorMatrix(
            self.sites[rows],
            self.diag[rows],
            pos[self.off_i[keep]],
            pos[self.off_j[keep]],
            self.off_v[keep],
            self.box_size,
            self.exact,
            self.norm_bound,
        )

    def to_coordinate_text(self) -> str:
        """Symmetric coordinate export: header 'dim box_size', then i j value."""
        buf = io.StringIO()
        buf.write(f"{self.dim} {self.box_size}\n")
        for k in range(self.dim):
            buf.write(f"{k} {k} {self.diag[k]:.17g}\n")
        for i, j, v in zip(self.off_i.tolist(), self.off_j.tolist(), self.off_v.tolist()):
            buf.write(f"{i} {j} {v:.17g}\n")
        return buf.getvalue()


def assemble(config: Configuration, kernel: HoppingKernel,
             site_indices: Optional[np.ndarray] = None) -> SymmetricOperatorMatrix:
    """Hamiltonian restriction to the active sites of a chosen site set.

    site_indices index into the configuration's region (default: the whole
    core).  The diagonal holds the finite potential values plus any constant
    stencil term; the (i, j) entry is the stencil coefficient of the
    displacement site_j - site_i whenever both sites are active and chosen.
    """
    region = config.region
    if site_indices is None:
        site_indices = region.core_indices
    site_indices = np.asarray(site_indices, dtype=np.int64)
    if site_indices.size and (site_indices.min() < 0 or site_indices.max() >= len(region)):
        raise PreconditionError("site index outside the sampled region")

    q = config.values[site_indices]
    rows_region = site_indices[np.isfinite(q)]
    # global lexicographic row order regardless of how indices were passed
    if len(rows_region):
        chosen = region.sites[rows_region]
        order = np.lexsort(chosen.T[::-1])
        rows_region = rows_region[order]
    n = len(rows_region)

    row_of = np.full(len(region) + 1, -1, dtype=np.int64)  # last entry: shift_indices' -1
    row_of[rows_region] = np.arange(n)

    diag = config.values[rows_region] + kernel.diagonal_shift()
    pieces_i, pieces_j, pieces_v = [], [], []
    for v, c in kernel.half_offsets():
        j = row_of[region.shift_indices(rows_region, v)]
        i = np.flatnonzero(j >= 0)
        j = j[i]
        pieces_i.append(np.minimum(i, j))
        pieces_j.append(np.maximum(i, j))
        pieces_v.append(np.full(len(i), c))
    if pieces_i:
        off_i = np.concatenate(pieces_i)
        off_j = np.concatenate(pieces_j)
        off_v = np.concatenate(pieces_v)
        order = np.lexsort((off_j, off_i))
        off_i, off_j, off_v = off_i[order], off_j[order], off_v[order]
    else:
        off_i = off_j = np.zeros(0, dtype=np.int64)
        off_v = np.zeros(0)

    exact = kernel.integer_valued and bool(
        np.all(diag == np.floor(diag)) if n else True
    )
    max_q = float(np.max(np.abs(diag))) if n else 0.0
    norm_bound = kernel.norm_bound + max_q
    sites = region.sites[rows_region] if n else region.sites[:0]
    return SymmetricOperatorMatrix(sites, diag, off_i, off_j, off_v,
                                   region.n_core, exact, norm_bound)
