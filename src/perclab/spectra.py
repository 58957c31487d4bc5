"""Spectral kernels.

Counting has one definition on every route, with tau = CLUSTER_TOL:
N(E) = #{lambda < E - tau} and, inclusive, N<=(E) = #{lambda <= E + tau}.
Blocks up to DENSE_BLOCK_MAX are diagonalized and counted against the shifted
energy.  Larger blocks read the count off the inertia of a symmetric
factorization (Sturm recurrence or sparse LU) of A - (E -/+ tau)*Id, with a
fall back to dense diagonalization whenever a pivot lands within tolerance
of zero.  Exact integer routines (fraction-free rank, characteristic
polynomials) serve jump multiplicities and the log-Holder machinery, where
floating point is not good enough.

A realization has many cluster blocks but few distinct ones, so BlockSpectra
groups identical blocks and solves one representative per class, weighting
it by the class size.  No block result is cached across calls or realizations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from numbers import Rational
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InternalCheckError, PreconditionError, ResourceGuardError
from .model import Configuration, HoppingKernel, LatticeRegion, adjacency_kernel
from .operator import DENSE_GUARD, SymmetricOperatorMatrix, assemble
from .percolation import SubgraphCatalog

PIVOT_RTOL = 1e-12        # relative pivot tolerance before aborting to dense
CLUSTER_TOL = 1e-9        # eigenvalue clustering snap: tau in N(E) and N<=(E)
VECTOR_RESIDUAL_RTOL = 1e-10
DENSE_BLOCK_MAX = 2048    # counting engine: full spectra up to this size
CHARPOLY_GUARD = 64
EXACT_DIM_GUARD = 4096
ASSIGNMENT_GUARD = 10 ** 6


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

    Returns (negcounts, aborted): lanes flagged aborted hit a pivot within
    tolerance of zero and must be recounted from a dense spectrum.
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


def _splu_negcount(shifted_csc, tol: float) -> Optional[int]:
    """Negative-pivot count from a symmetric-mode sparse LU factorization."""
    try:
        lu = spla.splu(
            shifted_csc,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )
    except RuntimeError:
        return None  # exactly singular
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None  # off-diagonal pivoting broke symmetry
    d = lu.U.diagonal()
    if np.abs(d).min() <= tol:
        return None
    return int((d < 0).sum())


def _tridiagonal_form(sub: SymmetricOperatorMatrix):
    """(diag, subdiagonal) if the block is tridiagonal in row order, else None."""
    n = sub.dim
    if len(sub.off_i) != n - 1 or n < 2:
        return None
    if np.all(sub.off_j - sub.off_i == 1) and np.array_equal(sub.off_i, np.arange(n - 1)):
        return sub.diag, sub.off_v
    return None


def _dense_eigs_for_block(sub: SymmetricOperatorMatrix) -> np.ndarray:
    if sub.dim > DENSE_GUARD:
        raise InternalCheckError(
            f"factorization breakdown on a block of dimension {sub.dim}, "
            f"beyond the dense guard {DENSE_GUARD}"
        )
    tri = _tridiagonal_form(sub)
    if tri is not None:
        return scipy.linalg.eigvalsh_tridiagonal(tri[0], tri[1])
    return np.linalg.eigvalsh(sub.to_dense())


def count_below(matrix: SymmetricOperatorMatrix, energy: float, inclusive: bool = False) -> int:
    """N(E) = #{lambda < E - tau}, or N<=(E) = #{lambda <= E + tau} when inclusive.

    tau = CLUSTER_TOL, so eigenvalues within tau of E count as at E whichever
    route a block takes; see BlockSpectra.
    """
    if not np.isfinite(energy):
        raise PreconditionError("energy must be finite")
    return BlockSpectra(matrix).count_below(float(energy), inclusive)


# ---------------------------------------------------------------------------
# per-configuration counting engine

# The experiments sweep many energies over the same realization, so the
# engine diagonalizes each class of identical small blocks once per
# realization, and keeps factorization counting only for blocks too large to
# diagonalize.


class _LargeBlock:
    def __init__(self, sub: SymmetricOperatorMatrix, rows: np.ndarray):
        self.sub = sub
        self.rows = rows
        self._csr = None
        self._eigs = None
        self._tri = _tridiagonal_form(sub)

    def eigs(self) -> np.ndarray:
        if self._eigs is None:
            self._eigs = _dense_eigs_for_block(self.sub)
        return self._eigs

    def counts(self, energies: np.ndarray, inclusive: bool) -> np.ndarray:
        if self._eigs is not None:
            return _counts_from_eigs(self._eigs, energies, inclusive)
        energies = np.asarray(energies, dtype=np.float64)
        tol = PIVOT_RTOL * max(1.0, self.sub.norm_bound + np.abs(energies).max())
        # inertia at a shift s counts lambda < s: N(E) at s = E - tau, and
        # N<=(E) at s = E + tau unless an eigenvalue sits on s, where a pivot
        # lands within tolerance and the block falls back to the dense snap
        shifts = energies + (CLUSTER_TOL if inclusive else -CLUSTER_TOL)
        if self._tri is not None:
            neg, aborted = _sturm_negcount_multi(self._tri[0], self._tri[1], shifts, tol)
            if aborted.any():
                neg[aborted] = _counts_from_eigs(self.eigs(), energies[aborted], inclusive)
            return neg.astype(np.int64)
        if self._csr is None:
            self._csr = self.sub.to_sparse()
        out = np.zeros(len(energies), dtype=np.int64)
        eye = sp.identity(self.sub.dim, format="csr")
        for k, e in enumerate(shifts):
            c = _splu_negcount((self._csr - float(e) * eye).tocsc(), tol)
            out[k] = _counts_from_eigs(self.eigs(), energies[k], inclusive) if c is None else c
        return out


class BlockSpectra:
    """Counting service for one assembled matrix, organized by cluster block.

    Blocks of identical content (the same sites relative to their first site,
    the same diagonal and the same edges) form one class, which is solved once
    and weighted by its multiplicity.
    """

    def __init__(self, matrix: SymmetricOperatorMatrix):
        self.matrix = matrix
        self.box_size = matrix.box_size
        blocks = matrix.blocks()
        n = matrix.dim
        self.block_rows = blocks
        self.large = []
        self._classes = []

        if n == 0:
            return

        # regroup rows and edges contiguously by block; per-block data are
        # then plain slices, which is what makes 10^5-block sweeps cheap
        lens = np.fromiter((len(b) for b in blocks), dtype=np.int64, count=len(blocks))
        perm = np.concatenate(blocks)
        bounds = np.cumsum(lens)
        starts = bounds - lens
        loc_of = np.empty(n, dtype=np.int64)
        loc_of[perm] = np.arange(n) - np.repeat(starts, lens)
        block_of = np.empty(n, dtype=np.int64)
        block_of[perm] = np.repeat(np.arange(len(blocks)), lens)
        self._row_starts = starts
        self._row_ends = bounds
        self._diag_g = matrix.diag[perm]
        self._sites_g = matrix.sites[perm]
        if len(matrix.off_i):
            eb = block_of[matrix.off_i]
            eorder = np.argsort(eb, kind="stable")
            self._ei_g = loc_of[matrix.off_i[eorder]]
            self._ej_g = loc_of[matrix.off_j[eorder]]
            self._ev_g = matrix.off_v[eorder]
            ecount = np.bincount(eb, minlength=len(blocks))
        else:
            self._ei_g = self._ej_g = np.zeros(0, dtype=np.int64)
            self._ev_g = np.zeros(0)
            ecount = np.zeros(len(blocks), dtype=np.int64)
        ebounds = np.cumsum(ecount)
        self._edge_starts = ebounds - ecount
        self._edge_ends = ebounds

        for b in np.flatnonzero(lens > DENSE_BLOCK_MAX):
            self.large.append(_LargeBlock(matrix.submatrix(blocks[b]), blocks[b]))
        self._classes = self._group(lens, ecount)

    def _group(self, lens, ecount):
        """Classes of identical blocks: (size, representatives, multiplicities).

        Blocks are bucketed by (size, edge count).  Within a bucket every block
        is one fixed-width int64 record (relative sites, diagonal, local edge
        ends, edge values; floats by bit pattern), so np.unique over the
        records is exact and distinct blocks never merge.
        """
        order = np.lexsort((ecount, lens))
        breaks = np.flatnonzero(np.diff(lens[order]) | np.diff(ecount[order])) + 1
        classes = []
        for members in np.split(order, breaks):
            size, m = int(lens[members[0]]), int(ecount[members[0]])
            mult = np.ones(1, dtype=np.int64)
            if len(members) > 1:
                rows = self._row_starts[members, None] + np.arange(size)
                edges = self._edge_starts[members, None] + np.arange(m)
                sites = self._sites_g[rows]
                records = np.concatenate([
                    (sites - sites[:, :1]).reshape(len(members), -1),
                    self._diag_g[rows].view(np.int64),
                    self._ei_g[edges], self._ej_g[edges],
                    self._ev_g[edges].view(np.int64)], axis=1)
                _, first, mult = np.unique(records, axis=0, return_index=True,
                                           return_counts=True)
                members = members[first]
            classes.append((size, members, mult))
        return classes

    def _parts(self, b):
        r0, r1 = self._row_starts[b], self._row_ends[b]
        e0, e1 = self._edge_starts[b], self._edge_ends[b]
        return (self._diag_g[r0:r1], self._sites_g[r0:r1],
                self._ei_g[e0:e1], self._ej_g[e0:e1], self._ev_g[e0:e1])

    def _diagonalize_batch(self, size, members):
        m = len(members)
        if size == 1:
            return self._diag_g[self._row_starts[members]].reshape(m, 1)
        dense = np.zeros((m, size, size))
        rng = np.arange(size)
        for x, b in enumerate(members):
            diag, _, ei, ej, ev = self._parts(b)
            dense[x, rng, rng] = diag
            dense[x, ei, ej] = ev
            dense[x, ej, ei] = ev
        return np.linalg.eigvalsh(dense)

    @functools.cached_property
    def small_eigs(self) -> np.ndarray:
        """Ascending eigenvalues, with multiplicity, of every block up to DENSE_BLOCK_MAX."""
        parts = [np.repeat(self._diagonalize_batch(size, reps), mult, axis=0).ravel()
                 for size, reps, mult in self._classes if size <= DENSE_BLOCK_MAX]
        return np.sort(np.concatenate(parts)) if parts else np.zeros(0)

    # -- counting -----------------------------------------------------------

    def counts_below(self, energies, inclusive: bool = False) -> np.ndarray:
        energies = np.asarray(energies, dtype=np.float64)
        out = _counts_from_eigs(self.small_eigs, energies, inclusive).astype(np.int64)
        for lb in self.large:
            out += lb.counts(energies, inclusive)
        return out

    def count_below(self, energy: float, inclusive: bool = False) -> int:
        return int(self.counts_below(np.array([energy]), inclusive)[0])

    def count_in_closed(self, lo: float, hi: float) -> int:
        """Eigenvalues in the closed interval [lo, hi], widened by tau on both sides."""
        return self.count_below(hi, inclusive=True) - self.count_below(lo, inclusive=False)

    @property
    def total_dim(self) -> int:
        return self.matrix.dim

    # -- exact multiplicities -----------------------------------------------

    def kernel_dim(self, energy) -> int:
        """Exact dim ker(A - E) for rational E on an exact-integer matrix."""
        r, s = _as_rational(energy)
        if not self.matrix.exact:
            raise TypeError("exact kernel dimension requires an exact-integer matrix")
        return sum(k * _kernel_dim_from_parts(*self._parts(b), r, s)
                   for _, reps, mult in self._classes
                   for b, k in zip(reps.tolist(), mult.tolist()))

    # -- spectra with vectors (projector estimator) --------------------------

    def dense_blocks_with_vectors(self):
        """Yield (global rows, eigenvalues, eigenvectors) per block."""
        for b, rows in enumerate(self.block_rows):
            diag, sites, ei, ej, ev = self._parts(b)
            n = len(diag)
            if n > DENSE_GUARD:
                raise ResourceGuardError(
                    f"projector estimator needs dense spectra; block of size {n} "
                    f"exceeds guard {DENSE_GUARD}"
                )
            a = np.zeros((n, n))
            a[np.arange(n), np.arange(n)] = diag
            a[ei, ej] = ev
            a[ej, ei] = ev
            w, v = np.linalg.eigh(a)
            yield rows, w, v


# ---------------------------------------------------------------------------
# exact integer linear algebra


def _as_rational(energy):
    if isinstance(energy, Rational):
        f = Fraction(energy)
        return f.numerator, f.denominator
    if isinstance(energy, float) and energy.is_integer():
        return int(energy), 1
    raise PreconditionError(f"exact routines need a rational energy, got {energy!r}")


def bareiss_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free elimination (exact)."""
    m = [list(map(int, r)) for r in rows]
    nr = len(m)
    if nr == 0:
        return 0
    nc = len(m[0])
    prev = 1
    row = 0
    for col in range(nc):
        piv_row = None
        for i in range(row, nr):
            if m[i][col]:
                piv_row = i
                break
        if piv_row is None:
            continue
        if piv_row != row:
            m[row], m[piv_row] = m[piv_row], m[row]
        pv = m[row][col]
        mr = m[row]
        for i in range(row + 1, nr):
            mi = m[i]
            mic = mi[col]
            if mic:
                for j in range(col + 1, nc):
                    mi[j] = (mi[j] * pv - mic * mr[j]) // prev
                mi[col] = 0
            elif pv != prev:
                for j in range(col + 1, nc):
                    mi[j] = (mi[j] * pv) // prev
        prev = pv
        row += 1
        if row == nr:
            break
    return row


def _dense_int_rows(matrix) -> list:
    if isinstance(matrix, SymmetricOperatorMatrix):
        return matrix.to_dense_int()
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise PreconditionError("expected a square matrix")
    if not np.all(a == np.floor(a)):
        raise TypeError("matrix entries are not exact integers")
    return [[int(x) for x in row] for row in a]


def _kernel_dim_from_parts(diag, sites, ei, ej, ev, r, s) -> int:
    n = len(diag)
    if n == 0:
        return 0
    if n > EXACT_DIM_GUARD:
        raise ResourceGuardError(
            f"exact elimination on a block of dimension {n} exceeds guard {EXACT_DIM_GUARD}"
        )
    rows = [[0] * n for _ in range(n)]
    for k in range(n):
        rows[k][k] = s * int(diag[k]) - r
    for i, j, v in zip(ei.tolist(), ej.tolist(), ev.tolist()):
        rows[i][j] = rows[j][i] = s * int(v)
    return n - bareiss_rank(rows)


def kernel_dim_exact(matrix, energy) -> int:
    """dim ker(A - E) over the rationals, exactly, for rational E.

    Computed as dimension minus the rank of s*A - r*Id under fraction-free
    integer elimination, block by block.
    """
    r, s = _as_rational(energy)
    if isinstance(matrix, SymmetricOperatorMatrix):
        if not matrix.exact:
            raise TypeError("kernel_dim_exact requires an exact-integer matrix")
        return BlockSpectra(matrix).kernel_dim(Fraction(r, s))
    rows = _dense_int_rows(matrix)
    n = len(rows)
    if n > EXACT_DIM_GUARD:
        raise ResourceGuardError(f"dimension {n} exceeds exact guard {EXACT_DIM_GUARD}")
    b = [[s * rows[i][j] - (r if i == j else 0) for j in range(n)] for i in range(n)]
    return n - bareiss_rank(b)


def charpoly_exact(matrix) -> tuple:
    """Integer coefficients of det(t*Id - A), ascending; leading term 1.

    Faddeev-LeVerrier with exact big-integer arithmetic; every division in
    the recurrence is exact.
    """
    rows = _dense_int_rows(matrix)
    n = len(rows)
    if n > CHARPOLY_GUARD:
        raise ResourceGuardError(f"dimension {n} exceeds charpoly guard {CHARPOLY_GUARD}")
    return _charpoly(tuple(tuple(r) for r in rows))


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
    if not float(energy).is_integer():
        raise PreconditionError("luck_bound needs an integer energy")
    energy = int(energy)
    rows = _dense_int_rows(matrix)
    n = len(rows)
    coeffs = charpoly_exact(rows)
    shifted = _shift_poly(coeffs, energy)
    k = next((i for i, c in enumerate(shifted) if c != 0), None)
    if k is None:
        raise InternalCheckError("shifted characteristic polynomial vanished")
    c_const = abs(shifted[k])
    inf_norm = max(
        (sum(abs(rows[i][j]) for j in range(n) if j != i) + abs(rows[i][i] - energy)
         for i in range(n)),
        default=0,
    )
    big_k = max(1.0, float(inf_norm))
    bound = (-math.log(c_const) + n * math.log(big_k)) / math.log(1.0 / eps)
    eigs = np.linalg.eigvalsh(np.array(rows, dtype=np.float64)) if n else np.zeros(0)
    upper, lower = _counts_from_eigs(eigs, np.array([energy + eps, energy]), True)
    lhs = int(upper - lower)
    if lhs > bound:
        raise InternalCheckError(
            f"count increment {lhs} exceeds its theorem bound {bound:.6g}"
        )
    return bound, lhs


# ---------------------------------------------------------------------------
# algebraic numbers and the log-Holder constant


def _trim_poly(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mod(a, b):
    """Remainder of a divided by b over the rationals (ascending coefficients)."""
    r = a[:]
    while len(r) >= len(b):
        factor = r[-1] / b[-1]
        shift = len(r) - len(b)
        for i, c in enumerate(b):
            r[i + shift] -= factor * c
        r.pop()
        _trim_poly(r)
    return r


def _poly_gcd_is_constant(coeffs) -> bool:
    """True when gcd(m, m') is constant, i.e. m is squarefree."""
    a = _trim_poly([Fraction(c) for c in coeffs])
    b = _trim_poly([Fraction(i * c) for i, c in enumerate(coeffs)][1:])
    while b:
        a, b = b, _poly_mod(a, b)
    return len(a) <= 1


class AlgebraicNumber:
    """E = alpha / b with alpha an algebraic integer given by a monic polynomial.

    The certified root bound covers every conjugate of alpha (Cauchy bound:
    1 + max |coefficient|), which is all the log-Holder constant needs; it is
    never required to be tight.  Squarefreeness of the polynomial is checked;
    irreducibility is not (a reducible input only loosens the constant).
    """

    def __init__(self, min_poly, denominator: int = 1, approx: Optional[float] = None):
        coeffs = tuple(int(c) for c in min_poly)
        if len(coeffs) < 2 or coeffs[-1] != 1:
            raise PreconditionError("min_poly must be monic of degree >= 1")
        if any(float(c) != int(c) for c in min_poly):
            raise PreconditionError("min_poly must have integer coefficients")
        if denominator < 1:
            raise PreconditionError("denominator must be a positive integer")
        if approx is not None and not math.isfinite(approx):
            raise PreconditionError("approx must be finite")
        if not _poly_gcd_is_constant(coeffs):
            raise PreconditionError("min_poly is not squarefree")
        self.min_poly = coeffs
        self.denominator = int(denominator)
        self.degree = len(coeffs) - 1

        roots = np.roots(list(reversed(coeffs)))
        if self.degree == 1:
            alpha = float(-coeffs[0])
        else:
            if approx is None:
                raise PreconditionError("degree > 1 needs an approximate value to pick the root")
            target = approx * denominator
            alpha_c = roots[np.argmin(np.abs(roots - target))]
            if abs(alpha_c.imag) > 1e-8 * (1 + abs(alpha_c)):
                raise PreconditionError("selected root is not real")
            alpha = float(alpha_c.real)
        scale = max(1.0, max(abs(float(c)) for c in coeffs))
        if abs(_eval_poly(coeffs, alpha)) > 1e-6 * scale * max(1.0, abs(alpha)) ** self.degree:
            raise PreconditionError("numeric value does not satisfy the minimal polynomial")
        self.alpha = alpha
        self.value = alpha / denominator
        self.root_bound = 1.0 + max(abs(float(c)) for c in coeffs[:-1])
        if len(roots) and np.abs(roots).max() > self.root_bound + 1e-9:
            raise InternalCheckError("certified root bound below a numeric root")

    @staticmethod
    def from_rational(value) -> "AlgebraicNumber":
        f = Fraction(value)
        return AlgebraicNumber((-f.numerator, 1), f.denominator)

    def __repr__(self):
        return (f"AlgebraicNumber(value={self.value!r}, degree={self.degree}, "
                f"denominator={self.denominator})")


def _eval_poly(coeffs, x: float) -> float:
    out = 0.0
    for c in reversed(coeffs):
        out = out * x + c
    return out


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
        for ent in self.entries:
            sites = ";".join(" ".join(str(x) for x in s) for s in ent.witness_sites)
            rows.append((f"{ent.energy:.17g}", str(ent.multiplicity),
                         str(ent.witness_size), sites))
        return rows


def cluster_spectrum_catalog(catalog: SubgraphCatalog, atom_values=(0.0,)) -> FiniteSpectrumCatalog:
    """Union of spectra of all cataloged subgraphs over all atom assignments.

    Energies are deduplicated within 1e-9; each retained energy records the
    smallest subgraph that produces it and its multiplicity there.
    """
    atom_values = tuple(float(v) for v in atom_values)
    if not atom_values:
        raise PreconditionError("need at least one finite atom value")
    total = sum(len(catalog.classes(s)) * len(atom_values) ** s
                for s in range(1, catalog.max_size + 1))
    if total > ASSIGNMENT_GUARD:
        raise ResourceGuardError(
            f"{total} subgraph/potential assignments exceed guard {ASSIGNMENT_GUARD}",
            reached=total,
        )
    kernel = catalog.kernel
    candidates = []  # (energy, size, order, sites, multiplicity)
    order = 0
    for size in range(1, catalog.max_size + 1):
        for sites in catalog.classes(size):
            base = np.zeros((size, size))
            for i in range(size):
                for j in range(i + 1, size):
                    v = tuple(b - a for a, b in zip(sites[i], sites[j]))
                    c = kernel.coefficient(v)
                    if c:
                        base[i, j] = base[j, i] = c
            shift = kernel.diagonal_shift()
            for assignment in product(atom_values, repeat=size):
                a = base.copy()
                a[np.arange(size), np.arange(size)] = np.array(assignment) + shift
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
        entries.append(CatalogEntry(best[0], best[3], best[1], best[4]))
        i = j + 1
    return FiniteSpectrumCatalog(entries, catalog.max_size, atom_values)


# ---------------------------------------------------------------------------
# mirror-charge embedding


def mirror_embed(support, q_on_splus, f, energy, kernel: Optional[HoppingKernel] = None):
    """Embed a finitely supported eigenstate into a doubled configuration.

    Reflects the potential across the empty column x1 = a - 1 (a the minimal
    first coordinate of the support) and extends the state antisymmetrically,
    with value 0 on the reflection axis.  The result is verified: the
    assembled restriction satisfies H g = E g on every active site and
    ||g||^2 doubles.

    Returns (region, configuration, g) with g aligned to the row order of
    assemble(configuration, kernel, all region sites).
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
    sset = set(support)
    q = {tuple(int(x) for x in k): float(v) for k, v in q_on_splus.items()}
    fval = {tuple(int(x) for x in k): float(v) for k, v in f.items()}
    energy = float(energy)
    fmax = max((abs(v) for v in fval.values()), default=0.0)
    tol = 1e-12 * (1.0 + abs(energy)) * max(1.0, fmax)

    moves = [v for v, _ in kernel.offsets if any(v)]
    halo = set()
    for s in support:
        for v in moves:
            t = tuple(a + b for a, b in zip(s, v))
            if t not in sset:
                halo.add(t)
    missing = [s for s in support if s not in q] + [t for t in sorted(halo) if t not in q]
    if missing:
        raise PreconditionError(f"potential not provided on {missing[0]} (support + outer boundary)")
    for s in support:
        if not math.isfinite(q[s]):
            raise PreconditionError(f"support site {s} is closed")

    def stencil_sum(k):
        total = 0.0
        for v, c in kernel.offsets:
            if not any(v):
                continue
            j = tuple(a + b for a, b in zip(k, v))
            if j in sset:
                total += c * fval.get(j, 0.0)
        return total

    shift = kernel.diagonal_shift()
    for s in support:
        lhs = (q[s] + shift) * fval.get(s, 0.0) + stencil_sum(s)
        if abs(lhs - energy * fval.get(s, 0.0)) > tol:
            raise PreconditionError(
                f"f is not an eigenvector at energy {energy}: residual at {s}"
            )
    for t in sorted(halo):
        if math.isfinite(q[t]) and abs(stencil_sum(t)) > tol:
            raise PreconditionError(
                f"nonzero coupling residual at active site {t} outside the support"
            )

    a = min(s[0] for s in support)
    axis = a - 1

    def reflect(site):
        return (2 * axis - site[0],) + site[1:]

    s_plus = {k: v for k, v in q.items() if k[0] >= a}
    assignments = dict(s_plus)
    for k, v in s_plus.items():
        assignments[reflect(k)] = v

    pts = np.array(sorted(assignments), dtype=np.int64)
    lo = pts.min(axis=0) - 1
    hi = pts.max(axis=0) + 1
    axes = [np.arange(lo[k], hi[k] + 1, dtype=np.int64) for k in range(dim)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    region = LatticeRegion.explicit([tuple(s) for s in grid.tolist()], collar=0)

    values = np.zeros(len(region))
    index = region.site_index()
    for k, v in assignments.items():
        values[index[k]] = v
    values.setflags(write=False)
    config = Configuration(region, values)

    matrix = assemble(config, kernel, region.core_indices)
    g = np.zeros(matrix.dim)
    row_of = {tuple(s): i for i, s in enumerate(matrix.sites.tolist())}
    for s in support:
        v = fval.get(s, 0.0)
        g[row_of[s]] = v
        g[row_of[reflect(s)]] = -v

    resid = matrix.to_sparse() @ g - energy * g
    rnorm = float(np.linalg.norm(resid))
    if rnorm > 1e-12 * (1.0 + abs(energy)) * max(1.0, fmax):
        raise InternalCheckError(f"mirror construction residual {rnorm:.3e}")
    f2 = sum(v * v for v in fval.values())
    g2 = float(g @ g)
    if abs(g2 - 2.0 * f2) > 1e-12 * max(1.0, 2.0 * f2):
        raise InternalCheckError("mirrored state norm is not doubled")
    return region, config, g
