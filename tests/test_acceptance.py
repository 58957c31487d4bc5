"""Acceptance criteria.

Each test prints one PASS line with the measured numbers (run pytest with -s
to see them).  Monte Carlo criteria allow one reseeded retry, as budgeted; a
second failure is a real failure.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from perclab import (ExperimentParams, PotentialDistribution, adjacency_kernel,
                     bernoulli_distribution, cluster_density_profile,
                     cluster_spectrum_catalog, continuity_probe,
                     convergence_study, enumerate_connected_subgraphs,
                     estimate_ids, ids_jump, kernel_dim_exact,
                     log_hoelder_check, luck_bound, mirror_embed,
                     sample_configuration, wegner_experiment)
from perclab.cli import run as cli_run
from perclab.model import Configuration, LatticeRegion, stencil_halo
from perclab.operator import assemble
from perclab.spectra import AlgebraicNumber, BlockSpectra, eigs_dense

from oracles import submatrix

K1 = adjacency_kernel(1)
K2 = adjacency_kernel(2)


def _pass(number, message):
    print(f"\nACCEPTANCE {number:>2} PASS: {message}")


def _path_jump_series(p, energy, n_top=25):
    """Independent oracle: sum over path clusters of length <= n_top."""
    total = 0.0
    for n in range(1, n_top + 1):
        mult = sum(1 for k in range(1, n + 1)
                   if abs(2 * math.cos(k * math.pi / (n + 1)) - energy) < 1e-12)
        total += mult * p ** n * (1 - p) ** 2
    return total


# ---------------------------------------------------------------------------
# criteria 1 + 2: d=1 jump densities at E = 0 and E = 1


@pytest.fixture(scope="module")
def d1_jump_run():
    # each seed runs once; criteria 01 and 02 read the same (j0, j1, elapsed)
    runs = {}

    def attempt(seed):
        if seed not in runs:
            params = ExperimentParams(1, K1, bernoulli_distribution(0.5), 100000,
                                      grid=np.array([0.0]), realizations=50, seed=seed)
            t0 = time.perf_counter()
            j0, j1 = ids_jump(params, [0, 1], (1e-6,))
            runs[seed] = j0, j1, time.perf_counter() - t0
        return runs[seed]
    return attempt


def test_criterion_01_zero_mode_jump(d1_jump_run):
    oracle = _path_jump_series(0.5, 0.0)
    assert abs(oracle - 1 / 6) < 1e-7  # closed form vs series
    for seed in (1, 102):
        j0, _, elapsed = d1_jump_run(seed)
        if abs(j0.jumps[0] - 1 / 6) <= 0.01:
            break
    assert abs(j0.jumps[0] - 1 / 6) <= 0.01
    assert j0.exact_jump == pytest.approx(j0.jumps[0], abs=1e-12)
    assert elapsed < 60.0
    _pass(1, f"jump(0) = {j0.jumps[0]:.5f} vs 1/6 = {1/6:.5f} "
             f"(exact path agrees; {elapsed:.0f}s)")


def test_criterion_02_unit_energy_jump(d1_jump_run):
    oracle = _path_jump_series(0.5, 1.0)
    assert abs(oracle - 1 / 14) < 1e-7
    for seed in (1, 102):
        _, j1, _ = d1_jump_run(seed)
        if abs(j1.jumps[0] - 1 / 14) <= 0.01:
            break
    assert abs(j1.jumps[0] - 1 / 14) <= 0.01
    _pass(2, f"jump(1) = {j1.jumps[0]:.5f} vs 1/14 = {1/14:.5f}")


def test_criterion_03_ids_ceiling_is_p():
    p = 0.6
    params = ExperimentParams(2, K2, bernoulli_distribution(p), 30,
                              grid=np.array([6.0]), realizations=20, seed=3)
    est = estimate_ids(params)
    assert abs(est.mean[0] - p) <= 0.01
    _pass(3, f"N(6.0) = {est.mean[0]:.4f} vs p = {p} (ceiling)")


def test_criterion_04_isolated_site_density():
    expect = 0.3 * 0.7 ** 4
    for seed in (4, 404):
        params = ExperimentParams(2, K2, bernoulli_distribution(0.3), 100,
                                  grid=np.array([0.0]), realizations=200, seed=seed)
        prof = cluster_density_profile(params, 2)
        got = prof.g_mean[0] - prof.g_mean[1]
        if abs(got - expect) <= 0.005:
            break
    assert abs(got - expect) <= 0.005
    _pass(4, f"G(1)-G(2) = {got:.5f} vs p(1-p)^4 = {expect:.5f}")


def test_criterion_05_free_chain_ids_at_zero():
    params = ExperimentParams(1, K1, bernoulli_distribution(1.0), 2000,
                              grid=np.array([0.0]), realizations=1, seed=7)
    est = estimate_ids(params)
    n = 4001
    oracle = sum(1 for k in range(1, n + 1)
                 if 2 * math.cos(k * math.pi / (n + 1)) < 0) / n
    assert est.mean[0] == pytest.approx(oracle, abs=1e-12)
    assert abs(est.mean[0] - 0.5) <= 0.002
    _pass(5, f"free-chain N(0) = {est.mean[0]:.5f} (exact {oracle:.5f})")


def test_criterion_06_luck_inequality_suite():
    rng = np.random.default_rng(6)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(100):
        n = int(rng.integers(1, 31))
        upper = rng.integers(-2, 3, (n, n))
        a = np.triu(upper) + np.triu(upper, 1).T
        rows = a.tolist()
        for e in (-1, 0, 1):
            for eps in (0.1, 0.01):
                bound, lhs = luck_bound(rows, e, eps)  # raises on violation
                assert lhs <= bound
                checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 600
    assert elapsed < 30.0
    _pass(6, f"{checked} bound checks, 0 violations, {elapsed:.1f}s")


def test_criterion_07_exact_matches_dense_multiplicity():
    k = K2
    d = bernoulli_distribution(0.6)
    reg = LatticeRegion.box(2, 12, 2)
    for i in range(100):
        c = sample_configuration(d, reg, 7000, i)
        m = assemble(c, k)
        if m.dim == 0:
            continue
        w = np.concatenate([eigs_dense(submatrix(m, rows)).values
                            for rows in m.blocks()])
        for e in (-2, -1, 0, 1, 2):
            dense_mult = int((np.abs(w - e) < 1e-8).sum())
            assert kernel_dim_exact(m, e) == dense_mult
    _pass(7, "kernel_dim_exact == dense multiplicity on 100 Hamiltonians x 5 energies")


def test_criterion_08_log_hoelder_at_sqrt2():
    energy = AlgebraicNumber((-2, 0, 1), approx=1.4142)
    params = ExperimentParams(2, K2, bernoulli_distribution(0.55), 40,
                              grid=np.array([0.0]), realizations=20, seed=8)
    rep = log_hoelder_check(params, energy, (1e-2, 1e-4, 1e-8))
    assert rep.constant == pytest.approx(7.6835, abs=5e-4)
    assert rep.violations == 0
    assert np.all(rep.lhs_max <= rep.bounds)
    _pass(8, f"C_E = {rep.constant:.4f}; worst lhs per eps {np.round(rep.lhs_max, 5).tolist()} "
             f"vs bounds {np.round(rep.bounds, 5).tolist()}")


def test_criterion_09_wegner_suite():
    dist = PotentialDistribution(pieces=((-1.0, 1.0, 0.7),), inactive_weight=0.3)
    params = ExperimentParams(2, K2, dist, 30, grid=np.array([0.0]),
                              realizations=100, seed=9)
    widths = (1.0, 0.5, 0.25, 0.125, 0.0625)
    reports = wegner_experiment(params, [(-w / 2, w / 2) for w in widths], -6.0, 6.0)
    ratios = []
    for rep in reports:
        assert rep.ratio <= rep.constant
        ratios.append(rep.ratio)
    first = reports[0]
    assert first.constant == pytest.approx(16 * (21 / 5.5) ** 2 * 0.5)
    assert max(ratios) <= 3 * min(ratios)
    _pass(9, f"ratios {np.round(ratios, 4).tolist()} all <= C = {first.constant:.1f}; "
             f"spread x{max(ratios)/min(ratios):.2f}")


def test_criterion_10_delyon_souillard_contrast():
    atomless = PotentialDistribution(pieces=((0.0, 1.0, 0.7),), inactive_weight=0.3)
    for seed in (10, 1010):
        params = ExperimentParams(1, K1, atomless, 10000, grid=np.array([0.0]),
                                  realizations=50, seed=seed)
        probe = continuity_probe(params, [0.0], [1e-1, 1e-2, 1e-3])
        smooth = probe.final_jump(0.0)
        control_params = ExperimentParams(1, K1, bernoulli_distribution(0.5), 10000,
                                          grid=np.array([0.0]), realizations=50,
                                          seed=seed)
        control = ids_jump(control_params, [0], (1e-3,))[0].jumps[0]
        if smooth < 0.01 and control > 0.15:
            break
    assert smooth < 0.01
    assert control > 0.15
    _pass(10, f"atomless jump(0) = {smooth:.5f} < 0.01; Bernoulli control = {control:.4f} > 0.15")


def test_criterion_11_jumps_match_catalog():
    shapes = enumerate_connected_subgraphs(K2, 8)
    catalog = cluster_spectrum_catalog(shapes, (0.0,))
    energies = catalog.energies

    params = ExperimentParams(2, K2, bernoulli_distribution(0.4), 60,
                              grid=np.array([0.0]), realizations=50, seed=11)
    scan = [Fraction(k, 4) for k in range(-8, 9)]
    floats = np.array([float(e) for e in scan])
    window = 1e-6
    edges = np.concatenate([floats + window, floats - window])
    region = params.region()

    samples = []
    for i in range(params.realizations):
        config = sample_configuration(params.dist, region, params.seed, i)
        engine = BlockSpectra(assemble(config, K2))
        counts = engine.counts_below(edges)
        samples.append((counts[:len(scan)] - counts[len(scan):]) / region.n_core)
    jumps = np.stack(samples).mean(axis=0)

    detected = {scan[k]: float(jumps[k]) for k in range(len(scan)) if jumps[k] >= 0.005}
    for e, j in detected.items():
        assert np.abs(energies - float(e)).min() <= 1e-6, f"jump at {e} not in catalog"
    for must in (Fraction(0), Fraction(1), Fraction(-1)):
        assert must in detected, f"expected a jump at {must}"

    # exact confirmation at the detected rational energies (first 10 realizations)
    for e in detected:
        dims = []
        for i in range(10):
            config = sample_configuration(params.dist, region, params.seed, i)
            engine = BlockSpectra(assemble(config, K2))
            dims.append(engine.kernel_dim(e) / region.n_core)
        assert np.mean(dims) == pytest.approx(detected[e], abs=0.01)
    _pass(11, "detected jumps " +
          ", ".join(f"{e}={j:.4f}" for e, j in sorted(detected.items())) +
          " all match catalog energies")


def test_criterion_12_mirror_charge_for_catalog_states():
    shapes = enumerate_connected_subgraphs(K2, 4)
    embedded = 0
    for size in range(1, 5):
        for sites in shapes.classes(size):
            q_plus = {s: 0.0 for s in sites}
            q_plus.update((t, float("inf")) for t in stencil_halo(sites, K2))
            region = LatticeRegion.explicit(sites, collar=0)
            sample = eigs_dense(assemble(Configuration(region, np.zeros(len(region))),
                                         K2, region.core_indices), vectors=True)
            mregion, mconfig, g, residuals = mirror_embed(sites, q_plus, sample.vectors,
                                                          sample.values, K2)
            h = assemble(mconfig, K2, mregion.core_indices).to_sparse()[0]
            for k, (energy, resid) in enumerate(zip(sample.values.tolist(), residuals)):
                assert np.linalg.norm(h @ g[:, k] - energy * g[:, k]) == resid
                assert resid <= 1e-12 * (1 + abs(energy))
                assert float(g[:, k] @ g[:, k]) == pytest.approx(2.0, abs=1e-12)
                embedded += 1
    assert embedded == sum(s * len(shapes.classes(s)) for s in range(1, 5))
    _pass(12, f"{embedded} eigenstates embedded; residuals <= 1e-12 (1+|E|), norms doubled")


def test_criterion_13_volume_convergence():
    grid = np.linspace(-4.25, 4.25, 18)  # avoids exact spectral points
    for seed in (13, 1313):
        params = ExperimentParams(2, K2, bernoulli_distribution(0.7), 20,
                                  grid=grid, realizations=50, seed=seed)
        rep = convergence_study(params, [20, 40, 80])
        cauchy_box = {(a, b): d for a, b, r, d in rep.cauchy if r == "box"}
        contraction = cauchy_box[(40, 80)] < cauchy_box[(20, 40)]
        box_con_80 = dict(rep.box_vs_con)[80]
        if contraction and box_con_80 < 0.02:
            break
    assert contraction
    assert box_con_80 < 0.02
    _pass(13, f"Cauchy sup-diffs {cauchy_box[(20, 40)]:.5f} -> {cauchy_box[(40, 80)]:.5f}; "
              f"box-vs-con at L=80: {box_con_80:.5f} < 0.02")


def test_criterion_14_cli_determinism(tmp_path):
    args = ["ids", "--dim", "2", "--L", "20", "--p", "0.6", "--grid", "-4:4:17",
            "--realizations", "10", "--seed", "14"]
    outs = [tmp_path / n for n in ("w1", "w2", "w4")]
    assert cli_run(args + ["--out", str(outs[0]), "--workers", "1"]) == 0
    manifest = json.loads((outs[0] / "run.json").read_text())
    argv = manifest["argv"]
    base = [t for t in argv if not t.startswith(str(outs[0]))]
    base = [t for i, t in enumerate(base)
            if not (t == "--out" or (i > 0 and base[i - 1] == "--out"))]
    base = [t for t in base if t not in ("--workers", "1")]
    assert cli_run(base + ["--out", str(outs[1]), "--workers", "2"]) == 0
    assert cli_run(base + ["--out", str(outs[2]), "--workers", "4"]) == 0
    blobs = [open(out / "ids.csv", "rb").read() for out in outs]
    assert blobs[0] == blobs[1] == blobs[2]
    _pass(14, "manifest rerun with workers 1/2/4 gives byte-identical CSV")
