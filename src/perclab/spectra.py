"""Spectral kernels.

Counting has one entry point, BlockSpectra.counts_below, which states the one
definition every route computes.  Blocks up to DENSE_BLOCK_MAX are
diagonalized (a bipartite block with one diagonal value c as c -/+ the
singular values of its off-diagonal block) and counted against the shifted
energy.  Larger blocks read the count off the inertia of a symmetric
factorization (Sturm recurrence or sparse LU) of A - (E -/+ tau)*Id, with a
fall back to eigvalsh whenever a pivot lands within tolerance of zero; the
block is counted from that spectrum from then on.
Sparse LU orders a block once, at its first energy, and writes each later
shift into the diagonal of the ordered copy in place, at panel width 1 when
that first factor stores under _FILL_PER_ROW entries per row (about 10 for
d = 2 clusters): wide panels pay only on large dense supernodes.  Shifts
beyond the norm bound are not factored at all.
Where floating point cannot decide, exact integer routines take over, over the
integers alone: a rational eigenvalue of an integer matrix is an integer, so
any other rational E has kernel dimension 0.  Every rank over Q is decided by
one sparse fraction-free elimination, _sparse_rank: jump multiplicities at an
integer E on the edge lists of the classes with an eigenvalue near E
(BlockSpectra.kernel_dim), and the squarefreeness of a minimal polynomial as
the rank of its Sylvester matrix with its derivative.  Characteristic
polynomials for log-Holder come from one guarded integer read of the matrix.

A realization has many cluster blocks but few distinct ones, so BlockSpectra
groups identical blocks, by a 64-bit key per block checked against the
block's bits, and solves one representative per class on every route (dense,
Sturm, sparse LU, exact, projector), weighting it by the class size.  No
block result is cached across calls or realizations.

The finite-cluster catalog builds the hopping matrices of all subgraph
classes of one size at once from their pair offsets and diagonalizes them in
stacks of bounded size; candidate energies are clustered and deduplicated
with array sorts.
"""

from __future__ import annotations

import bisect
import collections
import functools
import heapq
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InternalCheckError, PreconditionError, ResourceGuardError
from .model import (Configuration, HoppingKernel, LatticeRegion, _mix64, adjacency_kernel,
                    stencil_halo)
from .operator import DENSE_GUARD, SymmetricOperatorMatrix, assemble
from .percolation import SubgraphCatalog

PIVOT_RTOL = 1e-12        # relative pivot tolerance before aborting to dense
CLUSTER_TOL = 1e-9        # eigenvalue clustering snap: tau in N(E) and N<=(E)
VECTOR_RESIDUAL_RTOL = 1e-10
DENSE_BLOCK_MAX = 2048    # counting engine: full spectra up to this size
CHARPOLY_GUARD = 64
EXACT_DIM_GUARD = 4096
KERNEL_FILTER_RTOL = 1e-6  # kernel_dim's margin, times max(1, norm bound)
ASSIGNMENT_GUARD = 10 ** 6
WITNESS_SITE_GUARD = 10 ** 8  # most witness sites a catalog's entries may list
_CATALOG_STACK = 1 << 16  # matrix entries per batched eigvalsh in the catalog
_FILL_PER_ROW = 128       # below this fill per row a large block refactors at panel width 1


# ---------------------------------------------------------------------------
# dense spectra


@dataclass
class SpectrumSample:
    """Full spectrum of a finite restriction, ascending with multiplicity."""

    values: np.ndarray
    vectors: Optional[np.ndarray] = None
    residual: Optional[float] = None


def eigs_dense(matrix: SymmetricOperatorMatrix, vectors: bool = False) -> SpectrumSample:
    """Dense full diagonalization, guarded by the dense size limit."""
    a = matrix.to_dense()
    if not vectors:
        return SpectrumSample(np.linalg.eigvalsh(a) if matrix.dim else np.zeros(0))
    if matrix.dim == 0:
        return SpectrumSample(np.zeros(0), np.zeros((0, 0)), 0.0)
    w, v = np.linalg.eigh(a)
    resid = float(np.abs(a @ v - v * w).max())
    limit = VECTOR_RESIDUAL_RTOL * (1.0 + matrix.norm_bound)
    if resid > limit:
        raise InternalCheckError(f"eigenpair residual {resid:.3e} exceeds {limit:.3e}")
    return SpectrumSample(w, v, resid)


def _counts_from_eigs(eigs: np.ndarray, energies: np.ndarray, inclusive: bool) -> np.ndarray:
    if inclusive:
        return np.searchsorted(eigs, np.asarray(energies) + CLUSTER_TOL, side="right")
    return np.searchsorted(eigs, np.asarray(energies) - CLUSTER_TOL, side="left")


# ---------------------------------------------------------------------------
# factorization-based counting primitives (None means: pivot within tolerance)


def _sturm_negcount_multi(diag, sub, energies, tol):
    """Pivot signs of the LDL recurrence of a tridiagonal matrix, per energy.

    tol holds one pivot tolerance per energy.  Returns (negcounts, aborted):
    lanes flagged aborted hit a pivot within their tolerance of zero and must
    be recounted from a dense spectrum.
    """
    e = np.asarray(energies, dtype=np.float64)
    neg = np.zeros(e.shape, dtype=np.int64)
    aborted = np.zeros(e.shape, dtype=bool)
    d = np.full(e.shape, diag[0]) - e
    aborted |= np.abs(d) <= tol
    neg += (d < 0) & ~aborted
    d = np.where(aborted, 1.0, d)
    b2 = np.asarray(sub) ** 2
    for k in range(1, len(diag)):
        d = (diag[k] - e) - b2[k - 1] / d
        aborted |= np.abs(d) <= tol
        neg += (d < 0) & ~aborted
        d = np.where(np.abs(d) <= tol, 1.0, d)
    return neg, aborted


def _splu_negcount(shifted_csc, permc_spec: str, panel_size: Optional[int], tol: float):
    """(negative-pivot count, column order, entries stored in L and U) of a symmetric-mode
    sparse LU at a panel width (None: scipy's); (None, None, None) if a pivot is within tol."""
    try:
        lu = spla.splu(shifted_csc, permc_spec=permc_spec, diag_pivot_thresh=0.0,
                       panel_size=panel_size, options=dict(SymmetricMode=True))
    except RuntimeError:
        return None, None, None  # exactly singular
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None, None, None  # off-diagonal pivoting broke symmetry
    d = lu.U.diagonal()
    if np.abs(d).min() <= tol:
        return None, None, None
    return int((d < 0).sum()), lu.perm_c.copy(), lu.nnz  # a view would keep the factor alive


def _tridiagonal_form(sub: SymmetricOperatorMatrix):
    """(diag, subdiagonal) if the block is tridiagonal in row order, else None."""
    n = sub.dim
    if len(sub.off_i) != n - 1 or n < 2:
        return None
    if np.all(sub.off_j - sub.off_i == 1) and np.array_equal(sub.off_i, np.arange(n - 1)):
        return sub.diag, sub.off_v
    return None


# ---------------------------------------------------------------------------
# per-configuration counting engine


class _LargeBlock:
    """A block beyond DENSE_BLOCK_MAX, counted by the inertia of A - s*Id.

    The sparse LU route keeps one CSC copy of A and writes diag - s into its
    diagonal slots in place.  The first factorization picks the fill-reducing
    order (MMD on A + A^T); the copy is then permuted into that order once, and
    every later shift is factored in its natural order: at panel width 1 if the
    first factor stored under _FILL_PER_ROW entries per row (width 1 won at 9
    and 116, lost at 140 and 263), else at scipy's default.  Once a pivot has
    aborted to the dense spectrum, the block is counted from that spectrum.
    It stands for the mult identical blocks of its class.
    """

    def __init__(self, sub: SymmetricOperatorMatrix, mult: int):
        self.sub = sub
        self.mult = mult
        self._eigs = None
        self._tri = _tridiagonal_form(sub)
        self._csc = None  # (matrix, diagonal slots, diagonal values) in factor order
        self._ordered = False
        self._panel = None  # SuperLU panel width of the refactors; None is scipy's default

    def eigs(self) -> np.ndarray:
        """The dense spectrum, by eigvalsh.  It answers the shift that aborted, which
        lies within tolerance of an eigenvalue, where the count follows the rounding
        of the spectrum; the fallback tests pin eigvalsh's rounding there."""
        if self._eigs is None:
            if self.sub.dim > DENSE_GUARD:
                raise InternalCheckError(
                    f"factorization breakdown on a block of dimension {self.sub.dim}, "
                    f"beyond the dense guard {DENSE_GUARD}")
            if self._tri is not None:
                self._eigs = scipy.linalg.eigvalsh_tridiagonal(*self._tri)
            else:
                self._eigs = np.linalg.eigvalsh(self.sub.to_dense())
        return self._eigs

    def _negcount(self, shift: float, tol: float) -> Optional[int]:
        """#{lambda < shift} by sparse LU, or None when a pivot aborts."""
        if self._csc is None:
            a, slots = self.sub.to_sparse()
            self._csc = a.T, slots, self.sub.diag.copy()  # the same arrays, read as CSC
        a, slots, diag = self._csc
        a.data[slots] = diag - shift
        if self._ordered:
            return _splu_negcount(a, "NATURAL", self._panel, tol)[0]
        neg, perm, fill = _splu_negcount(a, "MMD_AT_PLUS_A", None, tol)
        if neg is not None:
            self._panel = 1 if fill < _FILL_PER_ROW * self.sub.dim else None
            # permute into the chosen order within the copy's own arrays: arrays
            # first allocated now, above a freed factorization, would fragment
            # the heap and raise the peak memory of every later factorization
            b, b_slots = self.sub.to_sparse(perm)
            for old, new in ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data),
                             (slots, b_slots), (diag, b.data[b_slots])):
                old[:] = new
            self._ordered = True
        return neg

    def counts(self, energies: np.ndarray, inclusive: bool) -> np.ndarray:
        energies = np.asarray(energies, dtype=np.float64)
        # inertia at a shift s counts lambda < s: N(E) at s = E - tau, and
        # N<=(E) at s = E + tau unless an eigenvalue sits on s, where a pivot
        # lands within tolerance and the block falls back to the dense snap
        shifts = energies + (CLUSTER_TOL if inclusive else -CLUSTER_TOL)
        # beyond the Gershgorin bound every eigenvalue lies on one side of s
        bound = self.sub.norm_bound
        out = np.where(shifts > bound, self.sub.dim, 0).astype(np.int64)
        todo = np.flatnonzero(np.abs(shifts) <= bound)
        tol = PIVOT_RTOL * np.maximum(1.0, bound + np.abs(energies))  # one per energy
        if self._eigs is None and self._tri is not None:
            neg, aborted = _sturm_negcount_multi(self._tri[0], self._tri[1], shifts[todo],
                                                 tol[todo])
            out[todo] = neg
            todo = todo[aborted]
        elif self._eigs is None:
            for done, k in enumerate(todo):
                neg = self._negcount(float(shifts[k]), float(tol[k]))
                if neg is None:
                    todo = todo[done:]
                    break
                out[k] = neg
            else:
                todo = todo[:0]
        if len(todo):
            out[todo] = _counts_from_eigs(self.eigs(), energies[todo], inclusive)
        return out


def _projector_share(w, v, take, energies) -> np.ndarray:
    """One block's projector diagonal on {lambda < E - tau}, summed over the rows in take."""
    cum = np.cumsum(v[take] ** 2, axis=1)
    return np.array([cum[:, k - 1].sum() if k else 0.0
                     for k in _counts_from_eigs(w, energies, inclusive=False).tolist()])


@functools.lru_cache
def _multipliers(width: int) -> np.ndarray:
    return _mix64(np.arange(width, dtype=np.uint64)) | np.uint64(1)


def _exact_groups(records: np.ndarray):
    """(first, inverse, counts) of the distinct rows of a 2-d int64 array, as
    np.unique(records, axis=0) gives them but in key order.  A row's key sums
    its entries, each xored with its high half (or two flipped sign bits could
    cancel), times odd multipliers mod 2^64; a collision falls back to the row sort."""
    folded = records.view(np.uint64) >> np.uint64(32)
    folded ^= records.view(np.uint64)
    keys = folded @ _multipliers(1 << (records.shape[1] - 1).bit_length())[:records.shape[1]]
    _, first, inverse, counts = np.unique(keys, return_index=True, return_inverse=True,
                                          return_counts=True)
    if not np.array_equal(records, records[first[inverse]]):
        _, first, inverse, counts = np.unique(records, axis=0, return_index=True,
                                              return_inverse=True, return_counts=True)
    return first, inverse.reshape(-1), counts


class BlockSpectra:
    """Counting service for one assembled matrix, organized by cluster block.

    Blocks of identical content (the same sites relative to their first site,
    the same diagonal and the same edges) form one class, which is solved once
    and weighted by its multiplicity.
    """

    def __init__(self, matrix: SymmetricOperatorMatrix):
        self.matrix = matrix
        order, starts, labels = matrix.block_layout()
        n, lens = matrix.dim, np.diff(starts)

        # regroup rows and edges contiguously by block, in the layout's order;
        # per-block data are then plain slices, which is what makes 10^5-block
        # sweeps cheap
        loc_of = np.empty(n, dtype=np.int64)
        loc_of[order] = np.arange(n) - np.repeat(starts[:-1], lens)
        eb = labels[matrix.off_i]
        eorder = np.argsort(eb, kind="stable")
        ecount = np.bincount(eb, minlength=len(lens))
        self._order, self._starts = order, starts
        self._edge_starts = np.concatenate(([0], np.cumsum(ecount)))
        self._diag_g = matrix.diag[order]
        self._sites_g = matrix.sites[order]
        self._ei_g = loc_of[matrix.off_i[eorder]]
        self._ej_g = loc_of[matrix.off_j[eorder]]
        self._ev_g = matrix.off_v[eorder]

        self._classes, self._class_of = self._group(lens, ecount)
        self.large = [_LargeBlock(SymmetricOperatorMatrix(
            *self._parts(b), matrix.exact, matrix.norm_bound), k)
            for size, reps, mult in self._classes if size > DENSE_BLOCK_MAX
            for b, k in zip(reps.tolist(), mult.tolist())]

    @functools.cached_property
    def block_rows(self) -> list:
        """Row index arrays of the blocks, in block order."""
        return self.matrix.blocks()

    def _group(self, lens, ecount):
        """Classes of identical blocks: [(size, representatives, multiplicities)]
        and the class of every block, numbered in list order.

        Blocks are bucketed by (size, edge count).  Within a bucket every block
        is one fixed-width int64 record (relative sites, diagonal, local edge
        ends, edge values; floats by bit pattern); _exact_groups makes a class of
        equal records, in key order, represented by its first block.
        """
        class_of = np.zeros(len(lens), dtype=np.int64)
        classes, ncls = [], 0
        if not len(lens):
            return classes, class_of
        order = np.lexsort((ecount, lens))
        breaks = np.flatnonzero(np.diff(lens[order]) | np.diff(ecount[order])) + 1
        for members in np.split(order, breaks):
            size = int(lens[members[0]])
            reps, inverse, mult = members, 0, np.ones(1, dtype=np.int64)
            if len(members) > 1:
                rows, ei, ej, ev = self._bucket(size, members)
                sites = self._sites_g[rows]
                records = np.concatenate([
                    (sites - sites[:, :1]).reshape(len(members), -1),
                    self._diag_g[rows].view(np.int64), ei, ej, ev.view(np.int64)], axis=1)
                first, inverse, mult = _exact_groups(records)
                reps = members[first]
            class_of[members] = ncls + inverse
            classes.append((size, reps, mult))
            ncls += len(reps)
        return classes, class_of

    def _parts(self, b):
        r0, r1 = self._starts[b], self._starts[b + 1]
        e0, e1 = self._edge_starts[b], self._edge_starts[b + 1]
        return (self._sites_g[r0:r1], self._diag_g[r0:r1],
                self._ei_g[e0:e1], self._ej_g[e0:e1], self._ev_g[e0:e1])

    def _bucket(self, size, members):
        """Rows (k, size) and local edges (k, m) of blocks sharing a size and edge count m."""
        rows = self._starts[members, None] + np.arange(size)
        m = self._edge_starts[members[0] + 1] - self._edge_starts[members[0]]
        edges = self._edge_starts[members, None] + np.arange(m)
        return rows, self._ei_g[edges], self._ej_g[edges], self._ev_g[edges]

    def _dense_stack(self, size, members) -> np.ndarray:
        """Dense matrices of blocks that share a size and an edge count."""
        rows, ei, ej, ev = self._bucket(size, members)
        x = np.arange(len(members))[:, None]
        dense = np.zeros((len(members), size, size))
        dense[x, np.arange(size), np.arange(size)] = self._diag_g[rows]
        dense[x, ei, ej] = ev
        dense[x, ej, ei] = ev
        return dense

    def _eigvals(self, size, reps) -> np.ndarray:
        """Ascending spectra, (k, size), of k blocks that share a size and an edge count.

        A block whose diagonal is one value c and whose every edge joins sites of
        opposite coordinate-sum parity is c*Id + [[0, B], [B^T, 0]] in its two
        colour classes, so its spectrum is c -/+ the singular values of B plus
        |n1 - n2| copies of c (Golub & Van Loan, Matrix Computations, 8.6).  B has
        the larger class as rows; blocks with equal smaller classes share one SVD
        call.  Every other block goes to eigvalsh.
        """
        rows, ei, ej, ev = self._bucket(size, reps)
        diag, odd = self._diag_g[rows], self._sites_g[rows].sum(axis=2) % 2 == 1
        x = np.arange(len(reps))[:, None]
        minor = odd ^ (2 * odd.sum(axis=1, keepdims=True) > size)  # the smaller colour class
        flip = minor[x, ei]  # edges listed from their smaller-class end
        certified = (diag == diag[:, :1]).all(axis=1) & (flip != minor[x, ej]).all(axis=1)
        place = np.where(minor, minor.cumsum(axis=1), (~minor).cumsum(axis=1)) - 1  # in its class
        i, j = place[x, np.where(flip, ej, ei)], place[x, np.where(flip, ei, ej)]
        out, m = np.empty((len(reps), size)), minor.sum(axis=1)
        for k in sorted(set(m[certified].tolist())):
            g = np.flatnonzero(certified & (m == k))
            b = np.zeros((len(g), size - k, k))
            b[x[:len(g)], i[g], j[g]] = ev[g]
            s, c = np.linalg.svd(b, compute_uv=False), diag[g, :1]  # s descending
            out[g] = np.hstack([c - s, np.repeat(c, size - 2 * k, axis=1), c + s[:, ::-1]])
        if not certified.all():
            out[~certified] = np.linalg.eigvalsh(self._dense_stack(size, reps[~certified]))
        return out

    @functools.cached_property
    def _spectra(self) -> list:
        """Per entry of _classes, its _eigvals, or None beyond DENSE_BLOCK_MAX."""
        return [self._eigvals(size, reps) if size <= DENSE_BLOCK_MAX else None
                for size, reps, _ in self._classes]

    @functools.cached_property
    def small_eigs(self) -> np.ndarray:
        """Ascending eigenvalues, with multiplicity, of every block up to DENSE_BLOCK_MAX."""
        parts = [np.repeat(w, mult, axis=0).ravel()
                 for w, (_, _, mult) in zip(self._spectra, self._classes) if w is not None]
        return np.sort(np.concatenate(parts)) if parts else np.zeros(0)

    # -- counting -----------------------------------------------------------

    def counts_below(self, energies, inclusive: bool = False) -> np.ndarray:
        """Per energy E, N(E) = #{lambda < E - tau}, or N<=(E) = #{lambda <= E + tau}
        when inclusive, with tau = CLUSTER_TOL on every route: eigenvalues within
        tau of E count as at E.  The eigenvalues in [lo, hi], widened by tau on
        both sides, are N<=(hi) - N(lo)."""
        energies = np.asarray(energies, dtype=np.float64)
        if np.isnan(energies).any():
            raise PreconditionError("energies must not be NaN")
        out = _counts_from_eigs(self.small_eigs, energies, inclusive).astype(np.int64)
        for lb in self.large:
            out += lb.mult * lb.counts(energies, inclusive)
        return out

    # -- exact multiplicities -----------------------------------------------

    def kernel_dim(self, energy) -> int:
        """Exact dim ker(A - E) for rational E on an exact-integer matrix.

        0 at a non-integer E (_integer_energy) and beyond the Gershgorin norm bound,
        compared exactly, before any elimination.  A class up to DENSE_BLOCK_MAX is
        eliminated only with an _eigvals value within KERNEL_FILTER_RTOL * max(1, bound)
        of E: 10^6 times the error, n eps |A| <= 5e-13 |A|, of backward stable eigvalsh/SVD.
        """
        e = _integer_energy(energy)
        if not self.matrix.exact:
            raise TypeError("exact kernel dimension requires an exact-integer matrix")
        if e is None or abs(e) > self.matrix.norm_bound:
            return 0
        margin, total = KERNEL_FILTER_RTOL * max(1.0, self.matrix.norm_bound), 0
        for (_, reps, mult), w in zip(self._classes, self._spectra):
            near = slice(None) if w is None else (np.abs(w - e) <= margin).any(axis=1)
            for b, k in zip(reps[near].tolist(), mult[near].tolist()):
                _, diag, ei, ej, ev = self._parts(b)
                rows = [{i: int(d) - e} for i, d in enumerate(diag.tolist())]
                for i, j, v in zip(ei.tolist(), ej.tolist(), ev.tolist()):
                    rows[i][j] = rows[j][i] = int(v)
                total += k * (len(rows) - _sparse_rank(rows))
        return total

    # -- spectral projector (projector estimator) ----------------------------

    def projector_diagonal(self, energies, mask) -> np.ndarray:
        """Per energy E, the sum over the rows where mask holds of the diagonal of
        the spectral projector on {lambda < E - tau}.

        Each class is diagonalized once, with eigenvectors.  A block's share
        depends only on its class and on which of its rows are masked, so it is
        computed once per (class, mask pattern); the shares are then added one
        after another in block order, as a loop over the blocks would add them.
        """
        energies = np.asarray(energies, dtype=np.float64)
        take = np.asarray(mask, dtype=bool)[self._order]
        by_class, done = np.argsort(self._class_of, kind="stable"), 0
        shares, share_of = [], np.full(len(self._class_of), -1)
        for size, reps, mult in self._classes:
            if size > DENSE_GUARD:
                raise ResourceGuardError(f"projector estimator needs dense spectra; block of "
                                         f"size {size} exceeds guard {DENSE_GUARD}")
            w, v = np.linalg.eigh(self._dense_stack(size, reps))
            blocks, done = by_class[done:done + mult.sum()], done + mult.sum()
            rows = take[self._starts[blocks, None] + np.arange(size)]
            live = rows.any(axis=1)
            rep = self._class_of[blocks[live]] - self._class_of[blocks[0]]  # index into w, v
            keys = np.column_stack((rep, rows[live]))
            first, which, _ = _exact_groups(keys)
            share_of[blocks[live]] = len(shares) + which
            shares += [_projector_share(w[k[0]], v[k[0]], k[1:] > 0, energies) for k in keys[first]]
        total = np.zeros(len(energies))
        for k in share_of[share_of >= 0].tolist():
            total += shares[k]
        return total


# ---------------------------------------------------------------------------
# exact integer linear algebra


def _integer_energy(energy) -> Optional[int]:
    """A rational energy as an int, or None when it is not an integer.  A rational
    eigenvalue of an integer matrix is an integer (rational-root theorem on its monic
    characteristic polynomial), so None means a kernel dimension of 0."""
    if isinstance(energy, Rational):
        return int(energy) if energy.denominator == 1 else None
    if isinstance(energy, float) and energy.is_integer():
        return int(energy)
    raise PreconditionError(f"energy must be a numbers.Rational or integer float, not {energy!r}")


def _int_array(matrix) -> np.ndarray:
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise PreconditionError("expected a square matrix")
    if a.dtype.kind not in "biu" and not np.all(a == np.floor(a)):
        raise TypeError("matrix entries are not exact integers")
    return a


def _dense_int_rows(matrix) -> list:
    """The integer rows of the charpoly path, read only once the dimension has
    passed CHARPOLY_GUARD."""
    n = matrix.dim if isinstance(matrix, SymmetricOperatorMatrix) else len(matrix)
    if n > CHARPOLY_GUARD:
        raise ResourceGuardError(f"dimension {n} exceeds charpoly guard {CHARPOLY_GUARD}")
    a = matrix.to_dense() if isinstance(matrix, SymmetricOperatorMatrix) else matrix
    return [[int(x) for x in row] for row in _int_array(a)]


def _sparse_rank(rows) -> int:
    """Rank over Q, exactly, of the integer matrix with sparse rows {col: value}.

    Fraction-free elimination over Z.  The pivot is the row with the fewest
    entries, then its column with the fewest rows (Markowitz order).  Each
    update is row <- pv*row - a*pivot_row, both factors divided by
    gcd(pv, a), and the row is then divided by its content.
    """
    if len(rows) > EXACT_DIM_GUARD:
        raise ResourceGuardError(f"exact elimination on a block of dimension {len(rows)} "
                                 f"exceeds guard {EXACT_DIM_GUARD}")
    live = {i: {c: v for c, v in row.items() if v} for i, row in enumerate(rows)}
    rows_of = collections.defaultdict(set)  # column -> live rows with an entry there
    for i, row in live.items():
        for c in row:
            rows_of[c].add(i)
    heap = [(len(row), i) for i, row in live.items() if row]
    heapq.heapify(heap)
    rank = 0
    while heap:
        length, p = heapq.heappop(heap)
        if len(live.get(p, ())) != length:
            continue  # eliminated, or pushed again since with another length
        prow = live.pop(p)
        for c in prow:
            rows_of[c].discard(p)
        col = min(prow, key=lambda c: len(rows_of[c]))
        pv = prow.pop(col)
        rank += 1
        for i in rows_of.pop(col):
            row = live[i]
            a = row.pop(col)
            g = math.gcd(pv, a)
            fp, fa = pv // g, a // g
            for c in row:
                row[c] *= fp
            for c, v in prow.items():
                x = row.get(c, 0) - fa * v
                if x:
                    rows_of[c].add(i)
                    row[c] = x
                elif c in row:
                    del row[c]
                    rows_of[c].discard(i)
            g = math.gcd(*row.values())
            for c in row:
                row[c] //= g
            if row:
                heapq.heappush(heap, (len(row), i))
    return rank


def kernel_dim_exact(matrix, energy) -> int:
    """dim ker(A - E) over the rationals, exactly, for rational E.

    0 at a non-integer E, which no integer matrix has as an eigenvalue;
    otherwise n minus the rank of A - E*Id: block by block for an assembled
    matrix (BlockSpectra.kernel_dim, filtered), as one unfiltered block for a
    square integer array, which need not be symmetric.
    """
    if isinstance(matrix, SymmetricOperatorMatrix):
        return BlockSpectra(matrix).kernel_dim(energy)
    e, a = _integer_energy(energy), _int_array(matrix)
    if e is None:
        return 0
    rows = [{k: -e} for k in range(len(a))]
    for i, j in zip(*(x.tolist() for x in np.nonzero(a))):
        rows[i][j] = int(a[i, j]) - e * (i == j)
    return len(rows) - _sparse_rank(rows)


def charpoly_exact(matrix) -> tuple:
    """Integer coefficients of det(t*Id - A), ascending; leading term 1.

    Faddeev-LeVerrier with exact big-integer arithmetic; every division in
    the recurrence is exact.
    """
    return _charpoly(tuple(map(tuple, _dense_int_rows(matrix))))


@functools.lru_cache
def _charpoly(rows: tuple) -> tuple:
    n = len(rows)
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    desc = []  # coefficients of t^{n-1}, ..., t^0
    for k in range(1, n + 1):
        am = [[sum(rows[i][l] * m[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
        tr = sum(am[i][i] for i in range(n))
        if tr % k:
            raise InternalCheckError("non-exact division in the charpoly recurrence")
        ck = -tr // k
        desc.append(ck)
        for i in range(n):
            am[i][i] += ck
        m = am
    return tuple(reversed(desc)) + (1,)


def _shift_poly(coeffs, shift: int) -> tuple:
    """Coefficients (ascending) of p(t + shift) for integer shift."""
    n = len(coeffs) - 1
    out = [0] * (n + 1)
    for m_deg, c in enumerate(coeffs):
        if c == 0:
            continue
        for j in range(m_deg + 1):
            out[j] += c * math.comb(m_deg, j) * shift ** (m_deg - j)
    return tuple(out)


def luck_bound(matrix, energy: int, eps: float):
    """Eigenvalue-count increment bound from the characteristic polynomial.

    Shifts the exact characteristic polynomial to the integer energy, strips
    the power of t, and bounds the inclusive count increment
    N(A, E+eps) - N(A, E) by (log 1/C + D log K)/log(1/eps) with
    C = |q(0)| >= 1 and K = max(1, bound on |A - E|).  Returns (bound, lhs);
    lhs <= bound is a theorem, so a violation raises.
    """
    if not 0 < eps < 1:
        raise PreconditionError("eps must lie in (0, 1)")
    energy = _integer_energy(energy)
    if energy is None or abs(energy) > sys.float_info.max:  # E + eps is counted as a float
        raise PreconditionError("luck_bound needs an integer energy within the float range")
    rows = _dense_int_rows(matrix)
    n = len(rows)
    shifted = _shift_poly(_charpoly(tuple(map(tuple, rows))), energy)
    k = next((i for i, c in enumerate(shifted) if c != 0), None)
    if k is None:
        raise InternalCheckError("shifted characteristic polynomial vanished")
    c_const = abs(shifted[k])
    inf_norm = max((sum(map(abs, row)) - abs(row[i]) + abs(row[i] - energy)
                    for i, row in enumerate(rows)), default=0)
    bound = (-math.log(c_const) + n * math.log(max(1, inf_norm))) / math.log(1.0 / eps)
    eigs = np.linalg.eigvalsh(np.array(rows, dtype=np.float64)) if n else np.zeros(0)
    upper, lower = _counts_from_eigs(eigs, np.array([energy + eps, energy]), True)
    lhs = int(upper - lower)
    if lhs > bound:
        raise InternalCheckError(
            f"count increment {lhs} exceeds its theorem bound {bound:.6g}")
    return bound, lhs


# ---------------------------------------------------------------------------
# algebraic numbers and the log-Holder constant


class AlgebraicNumber:
    """E = alpha / b with alpha an algebraic integer given by a monic polynomial.

    The certified root bound covers every conjugate of alpha (Cauchy bound:
    1 + max |coefficient|), which is all the log-Holder constant needs; it is
    never required to be tight.  Squarefreeness of the polynomial m of degree
    n is checked (gcd(m, m') = 1, i.e. the Sylvester matrix of m and m' has
    full rank 2n - 1); irreducibility is not (a reducible input only loosens
    the constant).  Degrees above CHARPOLY_GUARD are refused.
    """

    def __init__(self, min_poly, denominator: int = 1, approx: Optional[float] = None):
        try:  # np.roots and the root pick read the coefficients and denominator as floats
            coeffs = tuple(int(c) for c in min_poly)
            floats = [float(c) for c in coeffs]
            b = float(denominator)
        except OverflowError:
            raise PreconditionError(
                "min_poly coefficients and denominator must lie within the float range") from None
        if len(coeffs) < 2 or coeffs[-1] != 1:
            raise PreconditionError("min_poly must be monic of degree >= 1")
        if any(c != int(c) for c in min_poly):
            raise PreconditionError("min_poly must have integer coefficients")
        if not (b.is_integer() and b >= 1):  # before int(), so 2.7, nan and inf are refused
            raise PreconditionError("denominator must be a positive integer")
        if approx is not None and not math.isfinite(approx):
            raise PreconditionError("approx must be finite")
        n = len(coeffs) - 1
        if n > CHARPOLY_GUARD:
            raise ResourceGuardError(
                f"min_poly degree {n} exceeds charpoly guard {CHARPOLY_GUARD}")
        deriv = [k * c for k, c in enumerate(coeffs)][1:]
        sylvester = ([{i + k: c for k, c in enumerate(coeffs)} for i in range(n - 1)]
                     + [{i + k: c for k, c in enumerate(deriv)} for i in range(n)])
        if _sparse_rank(sylvester) < 2 * n - 1:
            raise PreconditionError("min_poly is not squarefree")
        self.denominator = int(denominator)
        self.degree = n

        roots = np.roots(floats[::-1])
        if self.degree == 1:
            alpha = float(-coeffs[0])
        else:
            if approx is None:
                raise PreconditionError("degree > 1 needs an approximate value to pick the root")
            target = approx * denominator
            dist = np.abs(roots - target)
            k = int(np.argmin(dist))
            # every other root must lie farther from the target by half its distance to root k
            if not math.isfinite(target) or (dist - dist[k] < np.abs(roots - roots[k]) / 2).any():
                raise PreconditionError("approx does not single out one root of min_poly")
            if abs(roots[k].imag) > 1e-8 * (1 + abs(roots[k])):
                raise PreconditionError("selected root is not real")
            alpha = float(roots[k].real)
        scale = max(1.0, max(map(abs, floats)))
        if abs(np.polyval(floats[::-1], alpha)) > 1e-6 * scale * max(1.0, abs(alpha)) ** self.degree:
            raise PreconditionError("numeric value does not satisfy the minimal polynomial")
        self.value = alpha / denominator
        self.root_bound = 1.0 + max(map(abs, floats[:-1]))
        if len(roots) and np.abs(roots).max() > self.root_bound + 1e-9:
            raise InternalCheckError("certified root bound below a numeric root")

    @staticmethod
    def from_rational(value) -> "AlgebraicNumber":
        f = Fraction(value)
        return AlgebraicNumber((-f.numerator, 1), f.denominator)

    def __repr__(self):
        return (f"AlgebraicNumber(value={self.value!r}, degree={self.degree}, "
                f"denominator={self.denominator})")


# Supremum over matrix dimensions D >= 1 of log(4 D^3)/D, attained at D = 2.
_SUP_LOG4D3_OVER_D = math.log(32.0) / 2.0


def algebraic_constant(energy: AlgebraicNumber, big_k: float) -> float:
    """Volume-independent constant C_E with
    N(E + eps) - N(E) <= C_E / log(1/eps) for integer-entry restrictions of
    norm at most big_k.

    The dimension-dependent term is removed by taking its supremum over the
    dimension, so the same constant works for every finite volume.
    """
    if big_k < 1.0:
        raise PreconditionError("K must be at least 1")
    if energy.root_bound < 1.0:
        raise PreconditionError("degenerate certified root bound below 1")
    n = energy.degree
    b = energy.denominator
    out = math.log(b) + math.log(big_k)
    if n > 1:
        out += (n - 1) * (
            _SUP_LOG4D3_OVER_D + math.log(8.0 * energy.root_bound * b) + math.log(big_k)
        )
    return out


# ---------------------------------------------------------------------------
# finite-cluster spectrum catalog


@dataclass(frozen=True)
class CatalogEntry:
    energy: float
    witness_sites: tuple
    witness_size: int
    multiplicity: int


@dataclass
class FiniteSpectrumCatalog:
    """Deduplicated energies arising from finite clusters up to a given size."""

    entries: list
    max_size: int
    atom_values: tuple

    @property
    def energies(self) -> np.ndarray:
        return np.array([e.energy for e in self.entries])

    def min_gap(self) -> float:
        e = self.energies
        return float(np.diff(e).min()) if len(e) > 1 else math.inf

    def nearest(self, energy: float):
        e = self.energies
        k = int(np.argmin(np.abs(e - energy)))
        return self.entries[k], abs(float(e[k]) - energy)

    def to_csv_rows(self):
        rows = [("energy", "multiplicity", "witness_size", "witness_sites")]
        text = {}  # entries share their class's witness tuple: format it once
        for ent in self.entries:
            key = id(ent.witness_sites)
            if key not in text:
                text[key] = ";".join(" ".join(str(x) for x in s) for s in ent.witness_sites)
            rows.append((f"{ent.energy:.17g}", str(ent.multiplicity),
                         str(ent.witness_size), text[key]))
        return rows


def _class_adjacency(classes, kernel: HoppingKernel) -> np.ndarray:
    """Hopping matrices of equal-size site classes, stacked; zero diagonal."""
    k, size = len(classes), len(classes[0])
    sites = np.fromiter(itertools.chain.from_iterable(itertools.chain.from_iterable(classes)),
                        dtype=np.int64, count=k * size * kernel.dim).reshape(k, size, kernel.dim)
    i, j = np.triu_indices(size, 1)
    steps = sites[:, j] - sites[:, i]
    hops = np.zeros(steps.shape[:2])
    for v, c in kernel.offsets:
        if any(v):
            hops[(steps == v).all(axis=2)] = c
    out = np.zeros((k, size, size))
    out[:, i, j] = out[:, j, i] = hops
    return out


def _group_heads(w: np.ndarray) -> np.ndarray:
    """Per row of ascending eigenvalues, where each group within CLUSTER_TOL
    of its first value (the head) starts."""
    heads = np.ones(w.shape, dtype=bool)
    head = w[:, 0]
    for j in range(1, w.shape[1]):
        heads[:, j] = w[:, j] - head > CLUSTER_TOL
        head = np.where(heads[:, j], w[:, j], head)
    return heads


def cluster_spectrum_catalog(catalog: SubgraphCatalog, atom_values=(0.0,)) -> FiniteSpectrumCatalog:
    """Union of spectra of all cataloged subgraphs over all atom assignments.

    Energies are deduplicated within 1e-9; each retained energy records the
    smallest subgraph that produces it and its multiplicity there.

    Matrices are numbered by (size, class, assignment), the assignments in
    itertools.product order of the atom values, each value counted once.
    Within a matrix, eigenvalues within CLUSTER_TOL of a group head join its
    group, which gives one candidate: the head and the group's size.  All
    candidates, sorted by energy, are chained while consecutive energies lie
    within CLUSTER_TOL; each chain keeps its candidate from the
    lowest-numbered matrix, the lowest energy among that matrix's.  The
    matrices are diagonalized in stacks of at most _CATALOG_STACK entries.
    """
    atom_values = tuple(dict.fromkeys(float(v) for v in atom_values))
    if not atom_values or not all(map(math.isfinite, atom_values)):
        raise PreconditionError(f"need at least one atom value, all finite, got {atom_values}")
    sizes = range(1, catalog.max_size + 1)
    matrices = [len(catalog.classes(s)) * len(atom_values) ** s for s in sizes]
    total = sum(matrices)
    if total > ASSIGNMENT_GUARD:
        raise ResourceGuardError(
            f"{total} subgraph/potential assignments exceed guard {ASSIGNMENT_GUARD}",
            reached=total)
    # each eigenvalue of a size-s matrix may become an entry listing s sites
    listed = sum(m * s * s for m, s in zip(matrices, sizes))
    if listed > WITNESS_SITE_GUARD:
        raise ResourceGuardError(f"catalog entries could list {listed} witness sites, "
                                 f"beyond guard {WITNESS_SITE_GUARD}", reached=listed)
    kernel = catalog.kernel
    atoms = np.array(atom_values)
    shift = kernel.diagonal_shift()
    firsts = []                   # number of each size's first matrix
    energy, matrix, mult = [], [], []
    numbered = 0
    for size in range(1, catalog.max_size + 1):
        classes = catalog.classes(size)
        n_assign = len(atoms) ** size
        firsts.append(numbered)
        place = len(atoms) ** np.arange(size - 1, -1, -1)
        diag = np.arange(size)
        step = max(1, _CATALOG_STACK // size ** 2)
        for lo in range(0, len(classes) * n_assign, step):
            m = np.arange(lo, min(lo + step, len(classes) * n_assign))
            cls, assignment = np.divmod(m, n_assign)
            a = _class_adjacency(classes[cls[0]:cls[-1] + 1], kernel)[cls - cls[0]]
            a[:, diag, diag] = atoms[assignment[:, None] // place % len(atoms)] + shift
            w = np.linalg.eigvalsh(a)
            heads = np.flatnonzero(_group_heads(w))
            energy.append(w.ravel()[heads])
            matrix.append(numbered + lo + heads // size)
            mult.append(np.diff(heads, append=w.size))
        numbered += len(classes) * n_assign
    energy, matrix, mult = (np.concatenate(x) for x in (energy, matrix, mult))
    by_energy = np.argsort(energy)
    energy, matrix, mult = energy[by_energy], matrix[by_energy], mult[by_energy]
    chain = np.concatenate(([0], np.cumsum(np.diff(energy) > CLUSTER_TOL)))
    best = np.lexsort((matrix, chain))
    best = best[np.flatnonzero(np.diff(chain[best], prepend=-1))]
    entries = []
    for e, number, count in zip(energy[best].tolist(), matrix[best].tolist(),
                                mult[best].tolist()):
        size = bisect.bisect_right(firsts, number)
        sites = catalog.classes(size)[(number - firsts[size - 1]) // len(atoms) ** size]
        entries.append(CatalogEntry(e, sites, size, count))
    return FiniteSpectrumCatalog(entries, catalog.max_size, atom_values)


# ---------------------------------------------------------------------------
# mirror-charge embedding


def mirror_embed(support, q_on_splus, f, energies, kernel: Optional[HoppingKernel] = None):
    """Embed every finitely supported eigenstate of one support into a doubled
    configuration, with one assembly of the support + halo and one of the result.

    Column j of the (n, k) array f is a state with energy energies[j], over the
    n distinct support sites in sorted order (eigs_dense's row order).
    q_on_splus must give the potential on the support and on its stencil halo
    (model.stencil_halo).  Each column is checked first, in order: with f_j zero
    off the support, H f_j = E_j f_j within 1e-12 (1 + |E_j|) max(1, max|f_j|)
    on each support site in the given order, then each active halo site sorted.

    Reflects the potential across the empty column x1 = a - 1 (a the minimal
    first coordinate of the support) and extends each state antisymmetrically,
    with value 0 on the reflection axis.  The result is verified: H g_j = E_j g_j
    on every active site of the assembled restriction and ||g_j||^2 doubles.
    Returns (region, configuration, g, residuals): g is (m, k) in the row order
    of assemble(configuration, kernel, all region sites), one contiguous column
    per state, and residuals[j] is the 2-norm of H g_j - E_j g_j.
    """
    support = [tuple(int(x) for x in s) for s in support]
    if not support:
        raise PreconditionError("empty support")
    dim = len(support[0])
    if kernel is None:
        kernel = adjacency_kernel(dim)
    if kernel.hop_range != 1:
        raise PreconditionError("mirror embedding requires a range-1 kernel")
    if kernel.dim != dim:
        raise PreconditionError("kernel dimension does not match the support")
    sites = sorted(set(support))
    try:
        energies = np.asarray(energies, dtype=np.float64)
        f = np.asarray(f, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise PreconditionError(f"f and energies must be numeric arrays: {exc}") from None
    if energies.ndim != 1 or f.shape != (len(sites), len(energies)):
        raise PreconditionError(f"f must be shaped (support sites, energies) = "
                                f"({len(sites)}, {energies.size}), got {f.shape}")
    if not (np.all(np.isfinite(energies)) and np.all(np.isfinite(f))):
        raise PreconditionError("energies and f must be finite")
    q = {tuple(int(x) for x in k): float(v) for k, v in q_on_splus.items()}
    nan = [k for k, v in q.items() if math.isnan(v)]
    if nan:
        raise PreconditionError(f"potential at {nan[0]} is NaN")
    tol = 1e-12 * (1.0 + np.abs(energies)) * np.maximum(1.0, np.abs(f).max(axis=0))

    halo = stencil_halo(support, kernel)
    missing = [s for s in support + halo if s not in q]
    if missing:
        raise PreconditionError(f"potential not provided on {missing[0]} (support + outer boundary)")
    for s in support:
        if not math.isfinite(q[s]):
            raise PreconditionError(f"support site {s} is closed")

    # H f - E f with f zero off the support; closed halo sites have no row
    patch = LatticeRegion.explicit(support + halo)
    values = np.array([q[tuple(s)] for s in patch.sites.tolist()])
    local = assemble(Configuration(patch, values), kernel)
    row_of = {tuple(s): i for i, s in enumerate(local.sites.tolist())}
    fvec = np.zeros((local.dim, len(energies)))
    fvec[[row_of[s] for s in sites]] = f
    bad = ~(np.abs(local.to_sparse()[0] @ fvec - fvec * energies) <= tol)
    for j in np.flatnonzero(bad.any(axis=0))[:1]:  # the first failing column
        for s in support:
            if bad[row_of[s], j]:
                raise PreconditionError(
                    f"f is not an eigenvector at energy {energies[j]}: residual at {s}")
        for t in halo:
            if t in row_of and bad[row_of[t], j]:
                raise PreconditionError(
                    f"nonzero coupling residual at active site {t} outside the support")

    a = min(s[0] for s in support)

    def reflect(site):
        return (2 * (a - 1) - site[0],) + site[1:]

    s_plus = {k: v for k, v in q.items() if k[0] >= a}
    assignments = {**s_plus, **{reflect(k): v for k, v in s_plus.items()}}
    pts = np.array(list(assignments), dtype=np.int64)
    lo, hi = pts.min(axis=0) - 1, pts.max(axis=0) + 1
    grid = np.indices(hi - lo + 1).reshape(dim, -1).T + lo
    region = LatticeRegion.explicit(grid.tolist(), collar=0)
    values = np.zeros(len(region))
    values[[region.index_of(k) for k in assignments]] = list(assignments.values())
    values.setflags(write=False)
    config = Configuration(region, values)

    matrix = assemble(config, kernel, region.core_indices)
    row_of = {tuple(s): i for i, s in enumerate(matrix.sites.tolist())}
    # one contiguous column per state, so g[:, j] @ g[:, j] rounds as for a vector
    g = np.zeros((matrix.dim, len(energies)), order="F")
    g[[row_of[s] for s in sites]] = f
    g[[row_of[reflect(s)] for s in sites]] = -f
    hg = matrix.to_sparse()[0] @ g
    # one norm per column: a norm along an axis may round differently
    residuals = np.array([np.linalg.norm(hg[:, j] - e * g[:, j])
                          for j, e in enumerate(energies.tolist())])
    for j, rnorm in enumerate(residuals.tolist()):
        if not rnorm <= tol[j]:
            raise InternalCheckError(f"mirror construction residual {rnorm:.3e}")
        f2 = float(f[:, j] @ f[:, j])
        if abs(float(g[:, j] @ g[:, j]) - 2.0 * f2) > 1e-12 * max(1.0, 2.0 * f2):
            raise InternalCheckError("mirrored state norm is not doubled")
    return region, config, g, residuals
