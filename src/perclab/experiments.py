"""Monte Carlo drivers.

Every experiment maps independent realizations (counter-based seeding makes
realization i reproducible in isolation) and reduces in fixed realization
order, so results are bit-identical for any worker count.  Counting
functions are always normalized by the full box size, inactive sites
included; with that normalization the estimate tops out at the active-site
density rather than at 1.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from numbers import Rational
from typing import Optional, Sequence

import numpy as np

from .errors import HypothesisViolationError, PreconditionError
from .model import (HoppingKernel, LatticeRegion, PotentialDistribution,
                    sample_configuration)
from .operator import assemble
from .percolation import (boundary_cluster_fraction, connected_region,
                          finite_cluster_profile, label_clusters)
from .spectra import (AlgebraicNumber, BlockSpectra, FiniteSpectrumCatalog,
                      algebraic_constant)

RESTRICTIONS = ("box", "con")


@dataclass(frozen=True)
class Defaults:
    """One place for grid/window/realization defaults, recorded in manifests."""

    grid_lo: float = -4.5
    grid_hi: float = 4.5
    grid_steps: int = 61
    realizations: int = 20
    windows: tuple = (1e-2, 1e-3, 1e-6)
    eps: tuple = (1e-2, 1e-4, 1e-8)
    catalog_max_size: int = 8
    seed: int = 0
    workers: int = 1


DEFAULTS = Defaults()


def _fmt(x) -> str:
    return format(float(x), ".17g")


@dataclass
class ExperimentParams:
    dim: int
    kernel: HoppingKernel
    dist: PotentialDistribution
    halfwidth: int
    grid: np.ndarray = field(default_factory=lambda: np.linspace(
        DEFAULTS.grid_lo, DEFAULTS.grid_hi, DEFAULTS.grid_steps))
    realizations: int = DEFAULTS.realizations
    seed: int = DEFAULTS.seed
    restriction: str = "box"
    workers: int = DEFAULTS.workers

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=np.float64)
        if self.grid.ndim != 1 or len(self.grid) == 0:
            raise PreconditionError("energy grid must be a nonempty 1-d array")
        if not np.all(np.isfinite(self.grid)):
            raise PreconditionError("energy grid must be finite")
        if len(self.grid) > 1 and not np.all(np.diff(self.grid) > 0):
            raise PreconditionError("energy grid must be strictly increasing")
        if self.realizations < 1:
            raise PreconditionError("realizations must be >= 1")
        if self.workers < 1:
            raise PreconditionError("workers must be >= 1")
        if self.restriction not in RESTRICTIONS:
            raise PreconditionError(f"restriction must be one of {RESTRICTIONS}")
        if self.kernel.dim != self.dim:
            raise PreconditionError("kernel dimension does not match dim")

    def region(self) -> LatticeRegion:
        return _box_region(self.dim, self.halfwidth, 2 * self.kernel.hop_range)

    def describe(self) -> dict:
        return {
            "dim": self.dim,
            "kernel": self.kernel.to_json_dict(),
            "dist": self.dist.to_json_dict(),
            "L": self.halfwidth,
            "grid": [float(self.grid[0]), float(self.grid[-1]), len(self.grid)],
            "realizations": self.realizations,
            "seed": self.seed,
            "restriction": self.restriction,
        }


@functools.lru_cache
def _box_region(dim: int, L: int, collar: int) -> LatticeRegion:
    return LatticeRegion.box(dim, L, collar)


def _map_realizations(fn, m: int, workers: int):
    workers = min(workers, m, os.cpu_count() or 1)  # no more threads than tasks or CPUs
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, range(m)))
    return [fn(i) for i in range(m)]


def _mean_stderr(rows: np.ndarray):
    mean, m = rows.mean(axis=0), rows.shape[0]
    return mean, rows.std(axis=0, ddof=1) / math.sqrt(m) if m > 1 else np.zeros_like(mean)


def _realization(params: ExperimentParams, index: int) -> BlockSpectra:
    region = params.region()
    config = sample_configuration(params.dist, region, params.seed, index)
    if params.restriction == "box":
        site_idx = region.core_indices
    else:
        site_idx = connected_region(config, params.kernel)
    return BlockSpectra(assemble(config, params.kernel, site_idx))


def _engine_rows(params: ExperimentParams, row) -> list:
    """row(engine) for every realization, in realization order: one engine each."""
    return _map_realizations(lambda i: row(_realization(params, i)),
                             params.realizations, params.workers)


def _window_jumps(engine: BlockSpectra, energies, windows, box_size: int) -> np.ndarray:
    """Normalized counts in [E - w, E + w[ per (energy, window), one count call."""
    centers = np.asarray(energies, dtype=np.float64)[:, None]
    widths = np.asarray(windows, dtype=np.float64)[None, :]
    c = engine.counts_below(np.concatenate([(centers + widths).ravel(),
                                            (centers - widths).ravel()]))
    k = len(c) // 2
    return (c[:k] - c[k:]).reshape(len(energies), len(windows)) / box_size


# ---------------------------------------------------------------------------
# integrated density of states


@dataclass
class EmpiricalIDS:
    grid: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    realizations: int
    halfwidth: int
    restriction: str

    def to_csv_rows(self):
        rows = [("E", "mean", "stderr", "M", "L", "restriction")]
        for e, m, s in zip(self.grid, self.mean, self.stderr):
            rows.append((_fmt(e), _fmt(m), _fmt(s), str(self.realizations),
                         str(self.halfwidth), self.restriction))
        return rows


def estimate_ids(params: ExperimentParams, estimator: str = "counting") -> EmpiricalIDS:
    """IDS estimate on the energy grid.

    counting: normalized eigenvalue counting per realization.
    projector_diag: diagonal of the spectral projector averaged over interior
    sites, which realizes the trace formula at fixed finite volume.
    """
    if estimator not in ("counting", "projector_diag"):
        raise PreconditionError(f"unknown estimator {estimator!r}")
    grid = params.grid
    region = params.region()
    box_size = region.n_core

    if estimator == "counting":
        def row(engine):
            return engine.counts_below(grid) / box_size
    else:
        inner = params.halfwidth - params.kernel.hop_range
        if inner < 0:
            raise PreconditionError("box too small for an interior layer")
        n_interior = (2 * inner + 1) ** params.dim

        def row(engine):
            interior = np.abs(engine.matrix.sites).max(axis=1) <= inner
            return engine.projector_diagonal(grid, interior) / n_interior

    samples = np.stack(_engine_rows(params, row))
    mean, stderr = _mean_stderr(samples)
    return EmpiricalIDS(grid, mean, stderr, params.realizations, params.halfwidth,
                        params.restriction)


# ---------------------------------------------------------------------------
# jumps


@dataclass
class JumpEstimate:
    energy: float
    windows: tuple
    jumps: np.ndarray
    jump_stderrs: np.ndarray
    exact_jump: Optional[float]
    exact_stderr: Optional[float]
    catalog_energy: Optional[float]

    def to_csv_rows(self):
        rows = [("E", "window", "jump", "stderr", "exact", "catalog_match")]
        match = "" if self.catalog_energy is None else _fmt(self.catalog_energy)
        exact = "" if self.exact_jump is None else _fmt(self.exact_jump)
        for w, j, s in zip(self.windows, self.jumps, self.jump_stderrs):
            rows.append((_fmt(self.energy), _fmt(w), _fmt(j), _fmt(s), exact, match))
        return rows


def jump_window_for_catalog(catalog: FiniteSpectrumCatalog) -> float:
    """Largest power of ten whose two-sided window separates catalog energies.

    Irrational spectral points cannot use the exact path, so their window is
    derived from the minimal gap between distinct catalog energies rather
    than guessed.
    """
    gap = catalog.min_gap()
    if not math.isfinite(gap):
        return DEFAULTS.windows[-1]
    return 10.0 ** math.floor(math.log10(gap / 2.0) - 1e-12)


def ids_jump(params: ExperimentParams, energies: Sequence, windows: Sequence[float],
             catalog: Optional[FiniteSpectrumCatalog] = None) -> list:
    """Jump-density estimates at several energies via shrinking two-sided windows.

    One pass over the realizations serves every energy.  When the assembled
    matrices are exact-integer and an energy is rational, its eigenspace
    dimension is also computed exactly per realization; that variant does not
    depend on the window at all.  Returns one JumpEstimate per energy.
    """
    windows = tuple(float(w) for w in windows)
    if not len(energies) or not windows or any(not 0 < w < math.inf for w in windows):
        raise PreconditionError("need energies and positive finite windows")
    floats = [float(e) for e in energies]
    rationals = [e if isinstance(e, Rational) or (isinstance(e, float) and e.is_integer())
                 else None for e in energies]
    box_size = params.region().n_core

    def row(engine):
        exact = [math.nan if q is None or not engine.matrix.exact
                 else engine.kernel_dim(q) / box_size for q in rationals]
        return _window_jumps(engine, floats, windows, box_size), exact

    out = _engine_rows(params, row)
    estimates = []
    for j, e_float in enumerate(floats):
        jumps, stderrs = _mean_stderr(np.stack([numeric[j] for numeric, _ in out]))
        exacts = np.array([[exact[j]] for _, exact in out])
        if np.isnan(exacts).any():
            exact_jump = exact_stderr = None
        else:
            em, es = _mean_stderr(exacts)
            exact_jump, exact_stderr = float(em[0]), float(es[0])
        catalog_energy = None
        if catalog is not None and len(catalog.entries):
            entry, dist = catalog.nearest(e_float)
            if dist <= 1e-6:
                catalog_energy = float(entry.energy)
        estimates.append(JumpEstimate(e_float, windows, jumps, stderrs, exact_jump,
                                      exact_stderr, catalog_energy))
    return estimates


# ---------------------------------------------------------------------------
# cluster densities


@dataclass
class ClusterDensityProfile:
    ns: np.ndarray
    g_mean: np.ndarray
    g_stderr: np.ndarray
    g_infinity_proxy: float
    g_infinity_stderr: float

    def to_csv_rows(self):
        rows = [("n", "G", "stderr")]
        for n, g, s in zip(self.ns, self.g_mean, self.g_stderr):
            rows.append((str(int(n)), _fmt(g), _fmt(s)))
        rows.append(("inf", _fmt(self.g_infinity_proxy), _fmt(self.g_infinity_stderr)))
        return rows


def cluster_density_profile(params: ExperimentParams, n_max: int) -> ClusterDensityProfile:
    """Mean fraction of box sites in finite clusters of size >= n, n = 1..n_max.

    The infinite-cluster proxy is the mean fraction of box sites in clusters
    that reach the outer boundary ring.
    """
    if n_max < 1:  # refused before any realization is sampled
        raise PreconditionError("n_max must be >= 1")
    region = params.region()

    def one(i):
        config = sample_configuration(params.dist, region, params.seed, i)
        labeling = label_clusters(config, params.kernel)
        return finite_cluster_profile(labeling, n_max), boundary_cluster_fraction(labeling)

    out = _map_realizations(one, params.realizations, params.workers)
    profiles = np.stack([p for p, _ in out])
    g_mean, g_stderr = _mean_stderr(profiles)
    binf = np.array([[b] for _, b in out])
    bm, bs = _mean_stderr(binf)
    return ClusterDensityProfile(np.arange(1, n_max + 1), g_mean, g_stderr,
                                 float(bm[0]), float(bs[0]))


# ---------------------------------------------------------------------------
# Wegner estimate


@dataclass
class WegnerReport:
    interval: tuple
    delta: float
    s_minus: float
    s_plus: float
    constant: float
    lhs_mean: float
    lhs_stderr: float
    ratio: float

    def to_csv_rows(self):
        return [
            ("lo", "hi", "delta", "C", "lhs", "ratio"),
            (_fmt(self.interval[0]), _fmt(self.interval[1]), _fmt(self.delta),
             _fmt(self.constant), _fmt(self.lhs_mean), _fmt(self.ratio)),
        ]


def wegner_experiment(params: ExperimentParams, intervals: Sequence, a: float,
                      b: float) -> list:
    """Expected eigenvalue count in each interval against the explicit constant.

    Requires the potential law to be absolutely continuous on the spectrum-
    widened window ]a + s-, b + s+[ and every interval to sit at distance
    delta > 0 inside ]a, b[.  The constant is evaluated exactly from the law;
    the left side is a Monte Carlo eigenvalue count.  One pass over the
    realizations serves every interval; returns one WegnerReport each.
    """
    intervals = [(float(lo), float(hi)) for lo, hi in intervals]
    if not all(map(math.isfinite, [a, b] + [x for ends in intervals for x in ends])):
        raise PreconditionError("a, b and every interval end must be finite")
    if not intervals or any(not lo < hi for lo, hi in intervals):
        raise PreconditionError("need intervals of positive length")
    s_plus = params.kernel.norm_bound
    s_minus = -s_plus
    wlo, whi = a + s_minus, b + s_plus
    atoms = params.dist.atoms_in(wlo, whi)
    if atoms:
        raise HypothesisViolationError(
            f"atom at {atoms[0][0]} inside the absolute-continuity window "
            f"]{wlo}, {whi}[")
    deltas = [min(lo - a, b - hi) for lo, hi in intervals]
    if any(not d > 0 for d in deltas):
        raise HypothesisViolationError("interval is not strictly inside ]a, b[")
    mu_window = params.dist.mass_in(wlo, whi)
    if mu_window <= 0:
        raise HypothesisViolationError("the law puts no mass on the window")
    f_sup = params.dist.density_sup_in(wlo, whi)
    box_size = params.region().n_core

    # eigenvalues in [lo, hi] widened by tau: one count call per end, all intervals at once
    los, his = np.array(intervals).T
    out = _engine_rows(params, lambda engine: (engine.counts_below(his, inclusive=True)
                                               - engine.counts_below(los)).astype(float).tolist())
    reports = []
    for j, ((lo, hi), delta) in enumerate(zip(intervals, deltas)):
        constant = (2 ** (params.dim + 2)
                    * ((b - a + s_plus - s_minus + 1.0) / delta) ** 2
                    * f_sup / mu_window)
        mean, stderr = _mean_stderr(np.array([[counts[j]] for counts in out]))
        lhs = float(mean[0])
        ratio = lhs / ((hi - lo) * box_size)
        reports.append(WegnerReport((lo, hi), delta, s_minus, s_plus, constant, lhs,
                                    float(stderr[0]), ratio))
    return reports


# ---------------------------------------------------------------------------
# continuity probe (atomless laws vs Bernoulli)


@dataclass
class ContinuityReport:
    energies: tuple
    windows: tuple
    jumps: np.ndarray         # shape (n_energies, n_windows)
    stderrs: np.ndarray

    def final_jump(self, energy: float) -> float:
        """Jump estimate at the finest window for one probed energy."""
        k = self.energies.index(energy)
        return float(self.jumps[k, -1])

    def to_csv_rows(self):
        rows = [("E", "window", "jump", "stderr")]
        for i, e in enumerate(self.energies):
            for j, w in enumerate(self.windows):
                rows.append((_fmt(e), _fmt(w), _fmt(self.jumps[i, j]),
                             _fmt(self.stderrs[i, j])))
        return rows


def continuity_probe(params: ExperimentParams, energies: Sequence[float],
                     windows: Sequence[float]) -> ContinuityReport:
    """Shrinking-window jump estimates for laws without finite atoms."""
    if not params.dist.atomless_on_reals:
        raise HypothesisViolationError("the potential law has atoms at finite values")
    energies = tuple(float(e) for e in energies)
    windows = tuple(sorted((float(w) for w in windows), reverse=True))
    if not energies or not windows or any(not 0 < w < math.inf for w in windows):
        raise PreconditionError("need energies and positive finite windows")
    box_size = params.region().n_core
    samples = np.stack(_engine_rows(
        params, lambda engine: _window_jumps(engine, energies, windows, box_size)))
    mean, stderr = _mean_stderr(samples)
    return ContinuityReport(energies, windows, mean, stderr)


# ---------------------------------------------------------------------------
# log-Holder verification


@dataclass
class LogHoelderReport:
    energy_value: float
    constant: float
    eps: tuple
    bounds: np.ndarray
    lhs_max: np.ndarray       # worst single-realization increment per eps
    violations: int

    def to_csv_rows(self):
        rows = [("E", "eps", "lhs_max", "bound")]
        for e, l, b in zip(self.eps, self.lhs_max, self.bounds):
            rows.append((_fmt(self.energy_value), _fmt(e), _fmt(l), _fmt(b)))
        return rows


def log_hoelder_check(params: ExperimentParams, energy: AlgebraicNumber,
                      eps_list: Sequence[float]) -> LogHoelderReport:
    """Per-realization right-continuity increments against C_E / log(1/eps).

    The increment is the normalized count of eigenvalues in ]E, E + eps],
    i.e. the right-continuous counting difference: the eigenspace exactly at
    E is the jump itself and is not bounded by any modulus of continuity.
    The theorem is per-configuration, so the check is too: every single
    realization must satisfy the bound for every epsilon.
    """
    if not params.kernel.integer_valued:
        raise HypothesisViolationError("kernel coefficients must be integers")
    if params.dist.pieces:
        raise HypothesisViolationError("potential law must be purely atomic (plus mass at infinity)")
    vals = [v for v, _ in params.dist.finite_atoms]
    if any(v < 0 or v != int(v) for v in vals):
        raise HypothesisViolationError("finite atoms must sit in {0, ..., n}")
    eps = tuple(float(x) for x in eps_list)
    if any(not 0 < x < 1 for x in eps):
        raise PreconditionError("eps values must lie in (0, 1)")
    n_top = int(max(vals)) if vals else 0
    big_k = params.kernel.norm_bound + n_top
    c_e = algebraic_constant(energy, max(1.0, big_k))
    bounds = np.array([c_e / math.log(1.0 / x) for x in eps])
    e0 = energy.value
    box_size = params.region().n_core
    edges = np.array([e0] + [e0 + x for x in eps])

    def row(engine):
        c = engine.counts_below(edges, inclusive=True)
        return (c[1:] - c[0]) / box_size

    samples = np.stack(_engine_rows(params, row))
    lhs_max = samples.max(axis=0)
    violations = int((samples > bounds[None, :]).sum())
    return LogHoelderReport(e0, c_e, eps, bounds, lhs_max, violations)


# ---------------------------------------------------------------------------
# convergence study


@dataclass
class ConvergenceReport:
    grid: np.ndarray
    ids: dict                     # (L, restriction) -> EmpiricalIDS
    cauchy: list                  # (L_small, L_big, restriction, sup_diff)
    box_vs_con: list              # (L, sup_diff)

    def to_csv_rows(self):
        rows = [("kind", "L_a", "L_b", "restriction", "sup_diff")]
        for la, lb, r, d in self.cauchy:
            rows.append(("cauchy", str(la), str(lb), r, _fmt(d)))
        for l, d in self.box_vs_con:
            rows.append(("box_vs_con", str(l), str(l), "both", _fmt(d)))
        return rows


def convergence_study(params: ExperimentParams, halfwidths: Sequence[int]) -> ConvergenceReport:
    """Cauchy differences across volumes and box-vs-connected differences.

    Shared counter-based randomness couples the volumes: nested boxes see the
    same potential on their overlap, which sharpens the Cauchy contrast.
    """
    halfwidths = tuple(int(x) for x in halfwidths)
    if len(halfwidths) < 2 or list(halfwidths) != sorted(set(halfwidths)):
        raise PreconditionError("need at least two increasing box sizes")
    ids = {}
    for L in halfwidths:
        for restriction in RESTRICTIONS:
            ids[(L, restriction)] = estimate_ids(
                replace(params, halfwidth=L, restriction=restriction))
    cauchy = []
    for restriction in RESTRICTIONS:
        for la, lb in zip(halfwidths, halfwidths[1:]):
            d = float(np.abs(ids[(lb, restriction)].mean - ids[(la, restriction)].mean).max())
            cauchy.append((la, lb, restriction, d))
    box_vs_con = []
    for L in halfwidths:
        d = float(np.abs(ids[(L, "box")].mean - ids[(L, "con")].mean).max())
        box_vs_con.append((L, d))
    return ConvergenceReport(params.grid, ids, cauchy, box_vs_con)
