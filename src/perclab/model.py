"""Lattice geometry, hopping kernels, site-potential laws, and sampling.

The model is a random Hamiltonian on Z^d: a translation-invariant symmetric
hopping stencil plus an iid random potential that takes values in
R union {+inf}.  A site with potential +inf is *closed* (removed from the
operator's domain); finite sites are *active*.

Randomness is counter-based: the potential at a site is a pure function of
(seed, realization index, site coordinates), so sampling is reproducible and
independent of traversal order and of any parallel scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Mapping

import numpy as np

from .errors import PreconditionError, ResourceGuardError

_MASK64 = (1 << 64) - 1
_U = np.uint64
BOX_SITE_MAX = 10 ** 7  # most sites a box, collar included, may hold


def _mix64(h):
    """splitmix64 finalizer; works on uint64 scalars and arrays."""
    h = (h ^ (h >> _U(30))) * _U(0xBF58476D1CE4E5B9)
    h = (h ^ (h >> _U(27))) * _U(0x94D049BB133111EB)
    return h ^ (h >> _U(31))


def site_uniforms(seed: int, realization_index: int, sites: np.ndarray) -> np.ndarray:
    """Uniform [0,1) variate per site, keyed by (seed, realization, coordinates).

    Counter-based: no generator state, so the value at a site does not depend
    on how many or in which order other sites are evaluated.
    """
    with np.errstate(over="ignore"):  # uint64 wraparound is the point
        h = _mix64(_U((seed ^ 0x9E3779B97F4A7C15) & _MASK64))
        h = _mix64(h ^ _U(realization_index & _MASK64))
        cols = np.asarray(sites, dtype=np.int64).reshape(len(sites), -1)
        out = np.full(len(cols), h, dtype=np.uint64)
        for k in range(cols.shape[1]):
            out = _mix64(out ^ cols[:, k].astype(np.uint64))
        return (out >> _U(11)).astype(np.float64) * (2.0 ** -53)


# ---------------------------------------------------------------------------
# hopping kernels


@dataclass(frozen=True)
class HoppingKernel:
    """Finite-range translation-invariant symmetric hopping stencil.

    offsets maps displacement vectors to real coefficients; the coefficient
    of -v always equals the one of v. hop_range is the largest l1 norm of a
    displacement with nonzero coefficient and norm_bound = sum |c(v)| bounds
    the operator norm of the stencil and of every restriction of it.
    """

    dim: int
    offsets: tuple  # ((vector tuple, coefficient), ...) sorted by vector
    hop_range: int
    norm_bound: float
    integer_valued: bool

    def coefficient(self, v) -> float:
        for w, c in self.offsets:
            if w == tuple(v):
                return c
        return 0.0

    def half_offsets(self):
        """One representative per {v, -v} pair, zero vector excluded."""
        zero = (0,) * self.dim
        return [(v, c) for v, c in self.offsets if v > zero]

    def diagonal_shift(self) -> float:
        return self.coefficient((0,) * self.dim)

    def to_json_dict(self) -> dict:
        return {"offsets": [[list(v), c] for v, c in self.offsets]}

    @staticmethod
    def from_json_dict(data: Mapping) -> "HoppingKernel":
        try:
            offsets = [(tuple(v), c) for v, c in data["offsets"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise PreconditionError(f"malformed kernel: {exc!r}") from None
        return validate_kernel(offsets)


def adjacency_kernel(dim: int) -> HoppingKernel:
    """Coefficient 1 on the 2*dim unit offsets."""
    offsets = []
    for k in range(dim):
        for s in (-1, 1):
            v = [0] * dim
            v[k] = s
            offsets.append((tuple(v), 1))
    return validate_kernel(offsets)


def validate_kernel(offsets) -> HoppingKernel:
    """Check symmetry of a stencil and derive range, norm bound, integrality.

    Accepts an iterable of (vector, coefficient) pairs or a mapping.  Offsets
    with coefficient zero are dropped.  Idempotent: validating a kernel's own
    offsets reproduces it.
    """
    if isinstance(offsets, Mapping):
        items = [(tuple(v), c) for v, c in offsets.items()]
    else:
        items = [(tuple(v), c) for v, c in offsets]
    table = {}
    for v, c in items:
        if not all(isinstance(x, Real) and float(x).is_integer() for x in v):
            raise PreconditionError(f"offset {v} must have integer components")
        if not (isinstance(c, Real) and math.isfinite(c)):
            raise PreconditionError(f"coefficient {c!r} of offset {v} must be a finite number")
        v = tuple(int(x) for x in v)
        if v in table and table[v] != c:
            raise PreconditionError(f"offset {v} listed twice with different coefficients")
        table[v] = c
    table = {v: c for v, c in table.items() if c != 0}
    if not table:
        raise PreconditionError("empty hopping stencil")
    dims = {len(v) for v in table}
    if len(dims) != 1:
        raise PreconditionError("offset vectors of mixed dimension")
    dim = dims.pop()
    if dim == 0:
        raise PreconditionError("offset vectors need at least one component")
    for v, c in table.items():
        neg = tuple(-x for x in v)
        if neg not in table or table[neg] != c:
            raise PreconditionError(
                f"symmetry violation: c({v})={c} but c({neg})={table.get(neg)}"
            )
    hop_range = max((sum(abs(x) for x in v) for v in table), default=0)
    hop_range = max(hop_range, 1)
    norm_bound = float(sum(abs(c) for c in table.values()))
    integer_valued = all(float(c).is_integer() for c in table.values())
    ordered = tuple(sorted((v, float(c)) for v, c in table.items()))
    return HoppingKernel(dim, ordered, hop_range, norm_bound, integer_valued)


# ---------------------------------------------------------------------------
# potential distributions


@dataclass(frozen=True)
class PotentialDistribution:
    """Single-site law: finite atoms + piecewise-uniform density + mass at +inf.

    The quantile function walks one segment table in a fixed order (atoms as
    listed, then pieces as listed, then +inf), which pins the exact mapping
    from a uniform variate to a value and hence the sampling determinism
    contract.  An atom's value is returned as stored, never computed, so a
    -0.0 or +inf atom samples those very bits.
    """

    atoms: tuple = ()    # ((value, weight), ...)
    pieces: tuple = ()   # ((lo, hi, weight), ...)
    inactive_weight: float = 0.0

    def __post_init__(self):
        weights = [w for _, w in self.atoms] + [w for *_, w in self.pieces]
        weights.append(self.inactive_weight)
        if any(not w >= 0 for w in weights):
            raise PreconditionError("negative or NaN weight in distribution")
        if any(not (math.isfinite(v) or v == math.inf) for v, _ in self.atoms):
            raise PreconditionError("atom values must be finite or +inf")
        total = sum(weights)
        if abs(total - 1.0) > 1e-12:
            raise PreconditionError(f"weights sum to {total!r}, expected 1")
        for lo, hi, _ in self.pieces:
            # a finite width also rules out infinite ends, which would sample NaN
            if not (lo < hi and math.isfinite(hi - lo)):
                raise PreconditionError(f"piece [{lo}, {hi}] needs finite lo < hi")
        spans = sorted((lo, hi) for lo, hi, _ in self.pieces)
        for (alo, ahi), (blo, bhi) in zip(spans, spans[1:]):
            if blo < ahi:
                raise PreconditionError("pieces have overlapping interiors")

    @property
    def finite_atoms(self) -> tuple:
        """((value, weight), ...) of the atoms with positive weight at finite values;
        an atom at +inf is closed sites, like the inactive weight."""
        return tuple((v, w) for v, w in self.atoms if w > 0 and math.isfinite(v))

    @property
    def atomless_on_reals(self) -> bool:
        return not self.finite_atoms

    def mass_in(self, lo: float, hi: float) -> float:
        """Mass of the open interval ]lo, hi[ (atoms on the boundary excluded)."""
        m = sum(w for v, w in self.atoms if lo < v < hi)
        for plo, phi, w in self.pieces:
            overlap = min(hi, phi) - max(lo, plo)
            if overlap > 0:
                m += w * overlap / (phi - plo)
        return m

    def atoms_in(self, lo: float, hi: float):
        return [(v, w) for v, w in self.finite_atoms if lo < v < hi]

    def density_sup_in(self, lo: float, hi: float) -> float:
        sups = [
            w / (phi - plo)
            for plo, phi, w in self.pieces
            if w > 0 and min(hi, phi) > max(lo, plo)
        ]
        return max(sups, default=0.0)

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """Inverse CDF, vectorized, over one table of (lo, span, weight) segments.

        Atoms are (value, 0, w), pieces (lo, hi - lo, w), and +inf closes the
        table as (inf, 0, 1); a variate at or past the total finite mass lands
        on it.  A piece adds (u - start) / w * span to its lo; an atom is never
        added to, so -0.0 and +inf atoms keep their bits.
        """
        shape, u = np.shape(u), np.asarray(u, dtype=np.float64).ravel()
        segments = ([(v, 0.0, w) for v, w in self.atoms]
                    + [(lo, hi - lo, w) for lo, hi, w in self.pieces] + [(math.inf, 0.0, 1.0)])
        lo, span, w = np.array(segments, dtype=np.float64).T
        start = np.concatenate(([0.0], np.cumsum(w)))
        # search the ends of the finite segments only: u past the last one, even
        # u >= 1 or NaN, lands on the sentinel
        k = np.searchsorted(start[1:-1], u, side="right")
        out = lo[k]
        m = span[k] > 0
        k = k[m]
        out[m] += (u[m] - start[k]) / w[k] * span[k]
        return out.reshape(shape)

    def to_json_dict(self) -> dict:
        return {
            "atoms": [[v, w] for v, w in self.atoms],
            "pieces": [[lo, hi, w] for lo, hi, w in self.pieces],
            "inactive": self.inactive_weight,
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> "PotentialDistribution":
        try:
            atoms = tuple((float(v), float(w)) for v, w in data.get("atoms", []))
            pieces = tuple((float(lo), float(hi), float(w)) for lo, hi, w in data.get("pieces", []))
            inactive = float(data.get("inactive", 0.0))
        except (AttributeError, TypeError, ValueError) as exc:
            raise PreconditionError(f"malformed distribution: {exc}") from None
        return PotentialDistribution(atoms=atoms, pieces=pieces, inactive_weight=inactive)


def bernoulli_distribution(p: float) -> PotentialDistribution:
    """Site open with potential 0 (probability p), closed otherwise."""
    if not 0.0 <= p <= 1.0:
        raise PreconditionError(f"p={p} outside [0,1]")
    return PotentialDistribution(atoms=((0.0, p),), inactive_weight=1.0 - p)


# ---------------------------------------------------------------------------
# lattice regions


class LatticeRegion:
    """A finite set of core sites plus a collar of extra sampled sites.

    Core sites of a box [-L, L]^d are enumerated in lexicographic order and
    indexed 0..(2L+1)^d - 1; collar sites (graph distance <= collar from the
    core) follow, also in lexicographic order.  The collar exists so that
    boundary-connectedness and outer-boundary conditions can be decided from
    sampled data alone.

    shift_indices reads one index table over the bounding box, built on
    first use; more than BOX_SITE_MAX cells are refused before allocation.
    """

    def __init__(self, dim, sites, n_core, shell, collar=0):
        self.dim = dim
        self.sites = sites
        self.n_core = n_core
        self.shell = shell  # l1 graph distance to the core, 0 on the core
        self.collar = collar
        self._index = None
        self._table = None

    @staticmethod
    def box(dim: int, halfwidth: int, collar: int = 0) -> "LatticeRegion":
        if dim < 1 or halfwidth < 0 or collar < 0:
            raise PreconditionError("box parameters must be nonnegative (dim >= 1)")
        n = (2 * (int(halfwidth) + int(collar)) + 1) ** int(dim)
        if n > BOX_SITE_MAX:
            raise ResourceGuardError(f"box of {n} sites exceeds guard {BOX_SITE_MAX}", reached=n)
        lo, hi = -halfwidth - collar, halfwidth + collar
        axes = [np.arange(lo, hi + 1, dtype=np.int64)] * dim
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
        excess = np.maximum(np.abs(grid) - halfwidth, 0).sum(axis=1)
        core = grid[excess == 0]
        ring = grid[(excess >= 1) & (excess <= collar)]
        sites = np.vstack([core, ring])
        shell = np.concatenate([np.zeros(len(core), np.int64),
                                excess[(excess >= 1) & (excess <= collar)]])
        return LatticeRegion(dim, sites, len(core), shell, collar)

    @staticmethod
    def explicit(core_sites, collar: int = 0) -> "LatticeRegion":
        core = sorted({tuple(int(x) for x in s) for s in core_sites})
        if not core:
            raise PreconditionError("explicit region needs at least one site")
        dim = len(core[0])
        if any(len(s) != dim for s in core):
            raise PreconditionError("sites of mixed dimension")
        dist = {s: 0 for s in core}
        frontier = list(core)
        for step in range(1, collar + 1):
            nxt = []
            for s in frontier:
                for k in range(dim):
                    for d in (-1, 1):
                        t = s[:k] + (s[k] + d,) + s[k + 1:]
                        if t not in dist:
                            dist[t] = step
                            nxt.append(t)
            frontier = nxt
        ring = sorted(s for s, v in dist.items() if v > 0)
        sites = np.array(core + ring, dtype=np.int64).reshape(len(dist), dim)
        shell = np.array([0] * len(core) + [dist[s] for s in ring], dtype=np.int64)
        return LatticeRegion(dim, sites, len(core), shell, collar)

    def __len__(self):
        return len(self.sites)

    @property
    def core_indices(self) -> np.ndarray:
        return np.arange(self.n_core)

    def site_index(self) -> dict:
        if self._index is None:
            self._index = {tuple(s): i for i, s in enumerate(self.sites.tolist())}
        return self._index

    def index_of(self, site) -> int:
        try:
            return self.site_index()[tuple(site)]
        except KeyError:
            raise PreconditionError(f"site {tuple(site)} not in region") from None

    def _lookup(self):
        """(codes, strides, lo, hi, table): site i lies in cell codes[i] of the
        bounding box [lo, hi]; table[cell] is its site's index, or -1."""
        if self._table is None:
            lo, hi = self.sites.min(axis=0), self.sites.max(axis=0)
            cells = math.prod(int(b) - int(a) + 1 for a, b in zip(lo, hi))
            if cells > BOX_SITE_MAX:
                raise ResourceGuardError(
                    f"bounding box of {cells} cells exceeds guard {BOX_SITE_MAX}", reached=cells)
            strides = np.ones(self.dim, dtype=np.int64)
            for k in range(self.dim - 2, -1, -1):
                strides[k] = strides[k + 1] * (hi[k + 1] - lo[k + 1] + 1)
            codes = (self.sites - lo) @ strides
            table = np.full(cells, -1, dtype=np.int64)
            table[codes] = np.arange(len(self.sites))
            self._table = (codes, strides, lo, hi, table)
        return self._table

    def shift_indices(self, indices: np.ndarray, offset) -> np.ndarray:
        """Indices of sites[indices] + offset within the region, -1 if absent."""
        if len(offset) != self.dim:
            raise PreconditionError(
                f"offset {tuple(offset)} does not have the region's dimension {self.dim}")
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            return indices.copy()
        codes, strides, lo, hi, table = self._lookup()
        v = np.asarray(offset, dtype=np.int64)
        target = codes[indices] + v @ strides
        # codes wrap across the box's faces, so a target must stay inside the
        # box along every axis the offset moves
        inside = np.ones(len(indices), dtype=bool)
        for k in np.flatnonzero(v):
            x = self.sites[indices, k] + v[k]
            inside &= (x >= lo[k]) & (x <= hi[k])
        return np.where(inside, table[np.where(inside, target, 0)], -1)

    def edges(self, indices, offsets) -> tuple:
        """The lattice graph on sites[indices]: arrays (i, j, c), one entry per
        pair with sites[indices[j]] = sites[indices[i]] + offsets[c].

        Entries come row by row, and within a row in the order of offsets.  For
        indices in lexicographic site order and the ascending, lexicographically
        positive offsets of HoppingKernel.half_offsets(), that is the upper
        triangle sorted by (i, j): s + v > s puts j after i, and s + v1 < s + v2
        when v1 < v2 keeps each row's columns ascending.
        """
        indices = np.asarray(indices, dtype=np.int64)
        rank = np.full(len(self) + 1, -1, dtype=np.int64)  # last entry: shift_indices' -1
        rank[indices] = np.arange(len(indices))
        table = np.empty((len(indices), len(offsets)), dtype=np.int64)
        for c, v in enumerate(offsets):
            table[:, c] = rank[self.shift_indices(indices, v)]
        table = table.ravel()
        at = np.flatnonzero(table >= 0)
        i, c = np.divmod(at, len(offsets))
        return i, table[at], c


# ---------------------------------------------------------------------------
# boundaries


_SideInner = "inner"
_SideOuter = "outer"


def boundary(region: LatticeRegion, subset, l: int, side: str) -> list:
    """Inner/outer l-boundary of a site set, in the adjacency graph metric.

    outer: complement sites within graph distance l of the subset, the
    collar of LatticeRegion.explicit(subset, l).  inner: subset sites within
    distance l of its complement in Z^d.  A shortest path to the complement
    first leaves the subset at an outer 1-boundary site, so these are the
    subset sites within distance l (not l - 1) of that ring.  Output is
    sorted and deterministic.
    """
    if side not in (_SideInner, _SideOuter):
        raise PreconditionError(f"side must be inner or outer, got {side!r}")
    if l < 0:
        raise PreconditionError("l must be nonnegative")
    sub = {tuple(int(x) for x in s) for s in subset}
    if not sub:
        return []
    idx = region.site_index()
    for s in sub:
        if s not in idx:
            raise PreconditionError(f"subset site {s} not contained in region")
    if l == 0:
        return []
    walk = LatticeRegion.explicit(sub, collar=l if side == _SideOuter else 1)
    ring = [tuple(s) for s in walk.sites[walk.n_core:].tolist()]  # sorted
    if side == _SideOuter:
        return ring
    near = LatticeRegion.explicit(ring, collar=l).site_index()
    return sorted(s for s in sub if s in near)


def stencil_halo(sites, kernel: HoppingKernel) -> list:
    """Sites one nonzero stencil offset away from a site set and outside it,
    sorted: the sites the stencil couples the set to.  For the adjacency
    kernel this is the outer 1-boundary."""
    inside = {tuple(int(x) for x in s) for s in sites}
    moves = [v for v, _ in kernel.offsets if any(v)]
    halo = {tuple(a + b for a, b in zip(s, v)) for s in inside for v in moves}
    return sorted(halo - inside)


# ---------------------------------------------------------------------------
# configurations


@dataclass(frozen=True)
class Configuration:
    """One sampled realization on a region: per-site potential in R or +inf."""

    region: LatticeRegion
    values: np.ndarray

    @property
    def active(self) -> np.ndarray:
        return np.isfinite(self.values)

    @property
    def active_fraction(self) -> float:
        """Fraction of *core* sites that are active."""
        return float(np.isfinite(self.values[: self.region.n_core]).mean())


def sample_configuration(dist: PotentialDistribution, region: LatticeRegion,
                         seed: int, realization_index: int) -> Configuration:
    """Draw iid site potentials; deterministic in (dist, region, seed, index)."""
    if realization_index < 0:
        raise PreconditionError("realization index must be nonnegative")
    u = site_uniforms(seed, realization_index, region.sites)
    values = dist.quantile(u)
    values.setflags(write=False)
    return Configuration(region, values)
