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


def quantile(dist, u):
    """PotentialDistribution.quantile as two masked branches, atoms then pieces:
    values >= the total finite mass map to +inf."""
    u = np.asarray(u, dtype=np.float64)
    ws = [w for _, w in dist.atoms] + [w for *_, w in dist.pieces]
    bounds = np.cumsum(ws) if ws else np.array([])
    idx = np.searchsorted(bounds, u, side="right")
    out = np.full(u.shape, np.inf)
    n_atoms = len(dist.atoms)
    if n_atoms:
        m = idx < n_atoms
        if m.any():
            vals = np.array([v for v, _ in dist.atoms])
            out[m] = vals[idx[m]]
    n_seg = n_atoms + len(dist.pieces)
    m = (idx >= n_atoms) & (idx < n_seg)
    if m.any():
        los = np.array([lo for lo, _, _ in dist.pieces])
        spans = np.array([hi - lo for lo, hi, _ in dist.pieces])
        ws = np.array([w for _, _, w in dist.pieces])
        starts = np.concatenate([[0.0 if n_atoms == 0 else bounds[n_atoms - 1]],
                                 bounds[n_atoms:n_seg - 1]]) if n_seg > n_atoms else np.array([])
        k = idx[m] - n_atoms
        out[m] = los[k] + (u[m] - starts[k]) / ws[k] * spans[k]
    return out
