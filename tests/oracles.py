"""Reference implementations that tests compare perclab against."""

import numpy as np
import scipy.sparse as sp

from perclab.operator import SymmetricOperatorMatrix


def submatrix(m: SymmetricOperatorMatrix, rows) -> SymmetricOperatorMatrix:
    """Restriction of m to a subset of rows (rows given in ascending order)."""
    rows = np.asarray(rows)
    pos = np.full(m.dim, -1, dtype=np.int64)
    pos[rows] = np.arange(len(rows))
    keep = (pos[m.off_i] >= 0) & (pos[m.off_j] >= 0)
    return SymmetricOperatorMatrix(m.sites[rows], m.diag[rows], pos[m.off_i[keep]],
                                   pos[m.off_j[keep]], m.off_v[keep], m.exact, m.norm_bound)


def coo_csr(m: SymmetricOperatorMatrix, perm=None):
    """(csr, diagonal slots) of m through scipy's COO conversion, with row and
    column k moved to perm[k]."""
    n = m.dim
    perm = np.arange(n) if perm is None else perm
    i = perm[np.concatenate([m.off_i, m.off_j, np.arange(n)])]
    j = perm[np.concatenate([m.off_j, m.off_i, np.arange(n)])]
    v = np.concatenate([m.off_v, m.off_v, m.diag])
    a = sp.csr_matrix((v, (i, j)), shape=(n, n))
    row = np.repeat(np.arange(n), np.diff(a.indptr))
    return a, np.flatnonzero(a.indices == row)
