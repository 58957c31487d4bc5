"""Finite-volume Hamiltonian matrices.

A restriction of the random Hamiltonian to a site set keeps a row only for
active sites (a site with potential +inf is outside the operator domain).
Truncation is plain restriction: no boundary correction of any kind.  The
drivers normalize counts by the full box size of the region (its n_core),
inactive sites included, not by the matrix dimension.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import PreconditionError, ResourceGuardError
from .model import Configuration, HoppingKernel
from .percolation import components

DENSE_GUARD = 8192


class SymmetricOperatorMatrix:
    """Sparse symmetric matrix indexed by lattice sites.

    Off-diagonal entries are stored once per unordered pair (upper triangle,
    row < col), sorted by (row, col).  entries are exact integers when the
    kernel is integer valued and every potential value on the rows is an
    integer; exact matrices are accepted by the exact-arithmetic spectral
    routines.
    """

    def __init__(self, sites, diag, off_i, off_j, off_v, exact, norm_bound):
        self.sites = sites
        self.diag = diag
        self.off_i = off_i
        self.off_j = off_j
        self.off_v = off_v
        self.exact = bool(exact)
        self.norm_bound = float(norm_bound)
        self._layout = None

    @property
    def dim(self) -> int:
        return len(self.diag)

    def to_sparse(self, perm: Optional[np.ndarray] = None) -> tuple:
        """(CSR matrix, diagonal slots): columns ascending in each row, a slot for every diagonal
        entry, zeros included; symmetric, so also the CSC.  perm moves row/column k to perm[k]."""
        n, i, j, v, diag = self.dim, self.off_i, self.off_j, self.off_v, self.diag
        if perm is not None:  # only a permuted copy sorts its edges again
            perm = perm.astype(np.int64)
            i, j = np.minimum(perm[i], perm[j]), np.maximum(perm[i], perm[j])
            order = np.argsort(i * n + j)
            i, j, v, diag = i[order], j[order], v[order], diag[np.argsort(perm)]
        lo, up = np.bincount(j, minlength=n), np.bincount(i, minlength=n)
        indptr = np.concatenate(([0], np.cumsum(lo + up + 1))).astype(np.int32)
        # the e-th upper entry follows the lower and diagonal ones of rows up to its own, and
        # the e-th lower one, by (j, i), the diagonal and upper ones of the rows before its own
        lower, e, slots = np.argsort(j * n + i), np.arange(len(i)), indptr[:-1] + lo
        indices = np.empty(indptr[-1], dtype=np.int32)
        data = np.empty(indptr[-1], dtype=np.result_type(v, diag))
        for at, cols, vals in ((slots, np.arange(n), diag), (e + np.cumsum(lo + 1)[i], j, v),
                               (e + (np.cumsum(up + 1) - up - 1)[j[lower]], i[lower], v[lower])):
            indices[at], data[at] = cols, vals
        return sp.csr_matrix((data, indices, indptr), shape=(n, n)), slots

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
            nb, labels = components(self.dim, self.off_i, self.off_j)
            starts = np.concatenate(([0], np.cumsum(np.bincount(labels, minlength=nb))))
            # stable sort keeps row indices ascending within each label
            self._layout = np.argsort(labels, kind="stable"), starts, labels
        return self._layout

    def blocks(self) -> list:
        """Row index arrays of the connected components: slices of block_layout()."""
        order, starts, _ = self.block_layout()
        bounds = starts.tolist()
        return [order[s:e] for s, e in zip(bounds, bounds[1:])]


def assemble(config: Configuration, kernel: HoppingKernel,
             site_indices: Optional[np.ndarray] = None) -> SymmetricOperatorMatrix:
    """Hamiltonian restriction to the active sites of a chosen site set.

    site_indices index into the configuration's region (default: the whole
    core), each active site at most once.  The diagonal holds the finite
    potential values plus any constant stencil term; the (i, j) entry is the
    stencil coefficient of the displacement site_j - site_i whenever both
    sites are active and chosen.
    Rows are sorted lexicographically by site, so LatticeRegion.edges over the
    kernel's half offsets returns the (i, j)-sorted upper triangle as it is.
    """
    region = config.region
    if site_indices is None:
        site_indices = region.core_indices
    site_indices = np.asarray(site_indices, dtype=np.int64)
    if site_indices.size and (site_indices.min() < 0 or site_indices.max() >= len(region)):
        raise PreconditionError("site index outside the sampled region")

    q = config.values[site_indices]
    rows_region = site_indices[np.isfinite(q)]
    # lexicographic row order, however site_indices are ordered: edges() relies on it
    if len(rows_region):
        chosen = region.sites[rows_region]
        order = np.lexsort(chosen.T[::-1])
        rows_region = rows_region[order]
        # a repeated index would give its site two rows; sorted, repeats are neighbours
        if (rows_region[1:] == rows_region[:-1]).any():
            raise PreconditionError("site_indices repeat an active site")
    n = len(rows_region)

    diag = config.values[rows_region] + kernel.diagonal_shift()
    half = kernel.half_offsets()
    off_i, off_j, col = region.edges(rows_region, [v for v, _ in half])
    off_v = np.array([c for _, c in half], dtype=np.float64)[col]

    exact = kernel.integer_valued and bool(
        np.all(diag == np.floor(diag)) if n else True
    )
    max_q = float(np.max(np.abs(diag))) if n else 0.0
    norm_bound = kernel.norm_bound + max_q
    sites = region.sites[rows_region] if n else region.sites[:0]
    return SymmetricOperatorMatrix(sites, diag, off_i, off_j, off_v, exact, norm_bound)
