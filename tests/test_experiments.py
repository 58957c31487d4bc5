"""Monte Carlo drivers: estimators, bounds, hypothesis checks."""

import math
from fractions import Fraction

import numpy as np
import pytest

from perclab import (ExperimentParams, PotentialDistribution, adjacency_kernel,
                     bernoulli_distribution, cluster_density_profile,
                     continuity_probe, convergence_study, estimate_ids,
                     ids_jump, log_hoelder_check, wegner_experiment)
from perclab.errors import HypothesisViolationError, PreconditionError
from perclab.experiments import _realization
from perclab.spectra import AlgebraicNumber

K1 = adjacency_kernel(1)
K2 = adjacency_kernel(2)


def bernoulli_params(dim, p, L, grid=None, m=4, seed=0, restriction="box"):
    return ExperimentParams(dim, adjacency_kernel(dim), bernoulli_distribution(p),
                            L, grid=(grid if grid is not None else np.linspace(-3, 3, 13)),
                            realizations=m, seed=seed, restriction=restriction)


# ---------------------------------------------------------------------------
# IDS


def test_ids_empty_lattice():
    est = estimate_ids(bernoulli_params(1, 0.0, 50, m=2))
    assert np.all(est.mean == 0)


def test_ids_ceiling_is_active_fraction():
    grid = np.array([-10.0, 10.0])
    est = estimate_ids(bernoulli_params(2, 0.6, 10, grid=grid, m=10))
    # above the norm bound every active site contributes one eigenvalue
    assert est.mean[-1] == pytest.approx(0.6, abs=5 * math.sqrt(0.6 * 0.4 / (21 ** 2 * 10)))
    assert est.mean[0] == 0.0


def test_ids_monotone_and_bounded():
    est = estimate_ids(bernoulli_params(2, 0.55, 8, m=5))
    assert np.all(np.diff(est.mean) >= -1e-15)
    assert np.all((est.mean >= 0) & (est.mean <= 1))


def test_ids_free_chain_at_zero():
    # d=1 full chain: half the 2cos(k pi/(n+1)) spectrum sits below 0
    params = bernoulli_params(1, 1.0, 200, grid=np.array([0.0]), m=1)
    est = estimate_ids(params)
    n = 401
    expect = sum(1 for k in range(1, n + 1) if 2 * math.cos(k * math.pi / (n + 1)) < 0) / n
    assert est.mean[0] == pytest.approx(expect)


def test_ids_grid_validation():
    with pytest.raises(PreconditionError):
        bernoulli_params(1, 0.5, 10, grid=np.array([1.0, 0.5]))


def test_counting_and_projector_agree_within_boundary_layer():
    grid = np.linspace(-4, 4, 9)
    params = bernoulli_params(2, 0.6, 7, grid=grid, m=8, seed=3)
    counting = estimate_ids(params, "counting")
    projector = estimate_ids(params, "projector_diag")
    L, d, reach = 7, 2, 1
    layer = (2 * reach * (2 * L + 1) ** (d - 1) * 2 * d) / (2 * L + 1) ** d
    slack = layer + 4 * (counting.stderr + projector.stderr)
    assert np.all(np.abs(counting.mean - projector.mean) <= slack)


def test_projector_solves_one_block_per_class(monkeypatch):
    # the projector diagonalizes one representative per class of identical
    # blocks, not every block
    params = bernoulli_params(1, 0.5, 2000, m=2, seed=4)
    engines = [_realization(params, i) for i in range(params.realizations)]
    classes = sum(len(reps) for engine in engines for _, reps, _ in engine._classes)
    blocks = sum(len(engine.matrix.blocks()) for engine in engines)
    solved = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        solved.append(a.shape[0] if a.ndim == 3 else 1)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    estimate_ids(params, "projector_diag")
    assert sum(solved) == classes < blocks


def test_restriction_con_below_box():
    grid = np.linspace(-4, 4, 9)
    box = estimate_ids(bernoulli_params(2, 0.55, 8, grid=grid, m=6))
    con = estimate_ids(bernoulli_params(2, 0.55, 8, grid=grid, m=6, restriction="con"))
    # the connected restriction counts a subset of the active sites
    assert np.all(con.mean <= box.mean + 1e-12)


def test_workers_bit_identical():
    grid = np.linspace(-3, 3, 7)
    a = estimate_ids(bernoulli_params(2, 0.5, 8, grid=grid, m=6))
    p2 = bernoulli_params(2, 0.5, 8, grid=grid, m=6)
    p2.workers = 4
    b = estimate_ids(p2)
    assert np.array_equal(a.mean, b.mean) and np.array_equal(a.stderr, b.stderr)

    # the d=1 exact jump: numeric and exact columns
    p1 = bernoulli_params(1, 0.5, 2000, grid=np.array([0.0]), m=8, seed=3)
    a, = ids_jump(p1, [0], (1e-6,))
    p1.workers = 4
    b, = ids_jump(p1, [0], (1e-6,))
    assert np.array_equal(a.jumps, b.jumps) and np.array_equal(a.jump_stderrs, b.jump_stderrs)
    assert a.exact_jump is not None
    assert (a.exact_jump, a.exact_stderr) == (b.exact_jump, b.exact_stderr)


def test_workers_validated_and_pool_capped_at_realizations(monkeypatch):
    import perclab.experiments as ex
    for bad in (0, -3):
        with pytest.raises(PreconditionError):
            ExperimentParams(1, K1, bernoulli_distribution(0.5), 10, workers=bad)
    seen = []
    pool = ex.ThreadPoolExecutor

    def recording(max_workers):
        seen.append(max_workers)
        return pool(max_workers=max_workers)

    monkeypatch.setattr(ex, "ThreadPoolExecutor", recording)
    params = bernoulli_params(1, 0.5, 10, m=3)
    serial = estimate_ids(params)
    assert seen == []
    params.workers = 64
    pooled = estimate_ids(params)
    assert seen == [3]
    assert np.array_equal(serial.mean, pooled.mean)


# ---------------------------------------------------------------------------
# jumps


def _path_jump_series(p, energy, n_top=25):
    """Sum of p^n (1-p)^2 over path lengths whose spectrum contains energy."""
    total = 0.0
    for n in range(1, n_top + 1):
        mult = sum(1 for k in range(1, n + 1)
                   if abs(2 * math.cos(k * math.pi / (n + 1)) - energy) < 1e-12)
        total += mult * p ** n * (1 - p) ** 2
    return total


def test_jump_series_oracle_matches_closed_forms():
    p = 0.5
    assert _path_jump_series(p, 0.0) == pytest.approx(p * (1 - p) / (1 + p), abs=1e-7)
    assert _path_jump_series(p, 1.0) == pytest.approx(
        (1 - p) ** 2 * p ** 2 / (1 - p ** 3), abs=1e-7)


def test_jump_estimate_d1_zero_small():
    params = bernoulli_params(1, 0.5, 4000, grid=np.array([0.0]), m=10, seed=1)
    est, = ids_jump(params, [0], (1e-6,))
    assert est.exact_jump is not None
    assert est.exact_jump == pytest.approx(1 / 6, abs=0.02)
    assert est.jumps[0] == pytest.approx(est.exact_jump, abs=1e-12)


def test_jump_at_generic_energy_vanishes():
    params = bernoulli_params(1, 0.5, 2000, grid=np.array([0.0]), m=5, seed=2)
    est, = ids_jump(params, [0.3], (1e-2, 1e-4, 1e-6))
    assert est.jumps[-1] == 0.0
    assert est.exact_jump is None  # 0.3 is not exactly rational in binary


def test_jump_window_validation():
    params = bernoulli_params(1, 0.5, 100, m=1)
    with pytest.raises(PreconditionError):
        ids_jump(params, [0], ())
    with pytest.raises(PreconditionError):
        ids_jump(params, [], (1e-6,))


def test_one_pass_equals_one_call_per_energy_or_interval():
    # the reduction layout per energy or interval is the one a lone call uses,
    # so every estimate is bit-identical to the single-item call
    params = bernoulli_params(2, 0.7, 6, grid=np.array([0.0]), m=12, seed=3)
    energies = [0, Fraction(1, 2), 1, 0.3]
    together = ids_jump(params, energies, (1e-2, 1e-4))
    for e, est in zip(energies, together):
        alone, = ids_jump(params, [e], (1e-2, 1e-4))
        assert est.energy == alone.energy
        assert np.array_equal(est.jumps, alone.jumps)
        assert np.array_equal(est.jump_stderrs, alone.jump_stderrs)
        assert (est.exact_jump, est.exact_stderr) == (alone.exact_jump, alone.exact_stderr)
    intervals = [(-0.5, 0.5), (-0.25, 0.25), (1.0, 2.5)]
    reports = wegner_experiment(_wegner_params(m=12), intervals, -6.0, 6.0)
    for iv, rep in zip(intervals, reports):
        alone, = wegner_experiment(_wegner_params(m=12), [iv], -6.0, 6.0)
        assert rep.to_csv_rows() == alone.to_csv_rows()
        assert (rep.lhs_stderr, rep.constant) == (alone.lhs_stderr, alone.constant)


# ---------------------------------------------------------------------------
# cluster densities


def test_profile_extremes():
    prof = cluster_density_profile(bernoulli_params(2, 1.0, 6, m=2), 4)
    assert np.all(prof.g_mean == 0)
    assert prof.g_infinity_proxy == 1.0
    prof0 = cluster_density_profile(bernoulli_params(2, 0.0, 6, m=2), 4)
    assert np.all(prof0.g_mean == 0) and prof0.g_infinity_proxy == 0.0


def test_profile_monotone_within_error():
    prof = cluster_density_profile(bernoulli_params(2, 0.35, 20, m=20, seed=4), 10)
    for a, b, sa, sb in zip(prof.g_mean, prof.g_mean[1:], prof.g_stderr, prof.g_stderr[1:]):
        assert a >= b - 2 * (sa + sb)


def _isolated_site_probability(p, dim=2):
    """Exhaustive 3x3 neighborhood enumeration of the isolated-center event."""
    import itertools
    total = 0.0
    cells = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
    neighbors = [(0, 1), (0, -1), (1, 0), (-1, 0)]
    for pattern in itertools.product((0, 1), repeat=9):
        state = dict(zip(cells, pattern))
        if not state[(0, 0)]:
            continue
        if any(state[v] for v in neighbors):
            continue
        weight = 1.0
        for cell in cells:
            weight *= p if state[cell] else (1 - p)
        total += weight
    return total


def test_isolated_site_oracle():
    assert _isolated_site_probability(0.3) == pytest.approx(0.3 * 0.7 ** 4, abs=1e-12)


def test_profile_decays_at_subcritical_density():
    # far below the percolation threshold, big finite clusters are rare
    prof = cluster_density_profile(bernoulli_params(2, 0.3, 40, m=20, seed=17), 30)
    assert prof.g_mean[29] < prof.g_mean[0] / 10


def test_jump_window_from_catalog_gap():
    from perclab import cluster_spectrum_catalog, enumerate_connected_subgraphs
    from perclab.experiments import jump_window_for_catalog
    cat = cluster_spectrum_catalog(enumerate_connected_subgraphs(K2, 4), (0.0,))
    w = jump_window_for_catalog(cat)
    assert 0 < 2 * w < cat.min_gap()
    assert math.log10(w) == round(math.log10(w))
    single = cluster_spectrum_catalog(enumerate_connected_subgraphs(K2, 1), (0.0,))
    assert jump_window_for_catalog(single) > 0


# ---------------------------------------------------------------------------
# Wegner


def _wegner_params(m=5, L=8):
    dist = PotentialDistribution(pieces=((-1.0, 1.0, 0.7),), inactive_weight=0.3)
    return ExperimentParams(2, K2, dist, L, grid=np.array([0.0]),
                            realizations=m, seed=6)


def test_wegner_constant_worked_example():
    rep, = wegner_experiment(_wegner_params(), [(-0.5, 0.5)], -6.0, 6.0)
    expect = 16 * (21 / 5.5) ** 2 * (0.35 / 0.7)
    assert rep.constant == pytest.approx(expect)
    assert rep.delta == pytest.approx(5.5)
    assert rep.s_plus == 4.0 and rep.s_minus == -4.0
    assert rep.ratio <= rep.constant


def test_wegner_atom_in_window_rejected():
    dist = PotentialDistribution(atoms=((0.0, 0.2),), pieces=((-1.0, 1.0, 0.5),),
                                 inactive_weight=0.3)
    params = ExperimentParams(2, K2, dist, 6, grid=np.array([0.0]),
                              realizations=2, seed=0)
    with pytest.raises(HypothesisViolationError):
        wegner_experiment(params, [(-0.5, 0.5)], -6.0, 6.0)


def test_wegner_interval_placement_rejected():
    with pytest.raises(HypothesisViolationError):
        wegner_experiment(_wegner_params(m=1), [(-7.0, 0.0)], -6.0, 6.0)
    # one misplaced interval rejects the whole list before any realization
    with pytest.raises(HypothesisViolationError):
        wegner_experiment(_wegner_params(m=1), [(-0.5, 0.5), (5.0, 6.5)], -6.0, 6.0)
    with pytest.raises(PreconditionError):
        wegner_experiment(_wegner_params(m=1), [(-0.5, 0.5), (0.5, 0.5)], -6.0, 6.0)


# ---------------------------------------------------------------------------
# continuity probe


def test_continuity_requires_atomless():
    params = bernoulli_params(1, 0.5, 100, m=2)
    with pytest.raises(HypothesisViolationError):
        continuity_probe(params, [0.0], [1e-2])


def test_continuity_probe_small():
    dist = PotentialDistribution(pieces=((0.0, 1.0, 0.7),), inactive_weight=0.3)
    params = ExperimentParams(1, K1, dist, 2000, grid=np.array([0.0]),
                              realizations=10, seed=8)
    rep = continuity_probe(params, [0.0, 0.5], [1e-1, 1e-2, 1e-3])
    # estimates shrink with the window (within twice the stderr)
    for i in range(2):
        for j in range(2):
            assert rep.jumps[i, j + 1] <= rep.jumps[i, j] + 2 * (
                rep.stderrs[i, j] + rep.stderrs[i, j + 1])
    assert rep.final_jump(0.0) < 0.05


# ---------------------------------------------------------------------------
# log-Holder


def test_log_hoelder_hypothesis_checks():
    e = AlgebraicNumber.from_rational(0)
    uniform = PotentialDistribution(pieces=((0.0, 1.0, 1.0),))
    params = ExperimentParams(1, K1, uniform, 50, grid=np.array([0.0]),
                              realizations=1, seed=0)
    with pytest.raises(HypothesisViolationError):
        log_hoelder_check(params, e, [0.1])
    negative = PotentialDistribution(atoms=((-1.0, 0.5),), inactive_weight=0.5)
    params2 = ExperimentParams(1, K1, negative, 50, grid=np.array([0.0]),
                               realizations=1, seed=0)
    with pytest.raises(HypothesisViolationError):
        log_hoelder_check(params2, e, [0.1])


def test_log_hoelder_small_run_passes():
    params = bernoulli_params(2, 0.5, 8, m=5, seed=9)
    rep = log_hoelder_check(params, AlgebraicNumber.from_rational(0), [0.5, 1e-2, 1e-8])
    assert rep.violations == 0
    assert np.all(rep.lhs_max <= rep.bounds)
    # eps = 0.5 gives a huge, vacuous bound
    assert rep.bounds[0] == pytest.approx(math.log(4) / math.log(2))


# ---------------------------------------------------------------------------
# convergence


def test_convergence_p1_box_equals_con():
    params = bernoulli_params(2, 1.0, 4, grid=np.linspace(-4, 4, 9), m=2)
    rep = convergence_study(params, [4, 8])
    for _, diff in rep.box_vs_con:
        assert diff == 0.0


def test_convergence_p0_all_zero():
    params = bernoulli_params(2, 0.0, 4, grid=np.linspace(-4, 4, 9), m=2)
    rep = convergence_study(params, [4, 8])
    for _, _, _, diff in rep.cauchy:
        assert diff == 0.0


def test_convergence_needs_two_sizes():
    params = bernoulli_params(2, 0.5, 4, m=1)
    with pytest.raises(PreconditionError):
        convergence_study(params, [4])


# ---------------------------------------------------------------------------
# eigenvalue anti-concentration (monotone-variable bound)


def test_stollmann_property_three_site_chain():
    # q ~ Uniform[0,1]^3 on a path; P(E_n in I) <= 3 |I| (+ sampling slack)
    rng = np.random.default_rng(12)
    m = 4000
    hop = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    qs = rng.random((m, 3))
    mats = np.zeros((m, 3, 3))
    mats[:] = hop
    mats[:, np.arange(3), np.arange(3)] = qs
    eigs = np.linalg.eigvalsh(mats)
    for n in range(3):
        center = np.median(eigs[:, n])
        for width in (0.05, 0.1):
            lo, hi = center - width / 2, center + width / 2
            hits = ((eigs[:, n] >= lo) & (eigs[:, n] <= hi)).mean()
            stderr = math.sqrt(max(hits * (1 - hits), 1e-12) / m)
            assert hits <= 3 * width + 4 * stderr
