"""The four fixed workloads.

Each workload is one batch invocation of perclab, as a user runs it.  The
harness runs it in a fresh interpreter, so process-global caches start cold,
exactly as they do for every CLI call.  Only the seed varies between
invocations; sizes, energies and realization counts are fixed here.

Why these four:

- d1_jumps stresses the small-block engine and the cached exact path on
  ~50k tiny, mostly repeated blocks per realization; large-block
  factorization and percolation stay idle.
- d2_exact runs pure-Python exact elimination on one giant block per
  realization, the opposite use of the exact layer to d1_jumps.  It is the
  criterion-07 exact/numeric ensemble on the CLI path, moved from p = 0.6,
  L = 12 (next to the percolation threshold, where the per-realization cost
  ranges over a factor of 50 and a run of a few dozen realizations cannot
  average it out) to the supercritical p = 0.8, L = 8, whose giant block
  (n ~ 205-245) costs about the same in every realization.
- d2_convergence is the criterion-13 volume study: sparse LU counting on the
  giant cluster at 18 energies, box and boundary-connected restrictions,
  two worker threads.  It is the only workload where large-block
  factorization leads and the only one with more than one thread.
- d2_gn is the cluster-density profile near the threshold: union-find
  labelling does almost all the work and spectra does none, so a spectra
  optimisation should predict no change here.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Optional

D2_GRID = (-4.25, 4.25, 18)       # avoids exact spectral points; top is above ||H||
D2_CONVERGENCE_L = (20, 40, 80)


@dataclass(frozen=True)
class Workload:
    name: str
    command: Optional[str]  # perclab subcommand; None for the library call
    dim: int
    L: int
    p: float
    realizations: int       # per invocation; per volume for the convergence study
    workers: int            # capped at nproc by the harness
    flags: tuple = ()

    @property
    def box_sites(self) -> int:
        return (2 * self.L + 1) ** self.dim

    def cli_argv(self, seed: int, out: str, workers: int) -> list:
        return [self.command, "--dim", str(self.dim), "--L", str(self.L),
                "--p", str(self.p), *self.flags,
                "--realizations", str(self.realizations), "--seed", str(seed),
                "--workers", str(workers), "--out", out]


WORKLOADS = {
    w.name: w for w in (
        Workload("d1_jumps", "jumps", 1, 100000, 0.5, 3, 1,
                 ("--E", "0", "--E", "1", "--windows", "1e-6")),
        Workload("d2_exact", "jumps", 2, 8, 0.8, 3, 1,
                 ("--E", "-2", "--E", "-1", "--E", "0", "--E", "1", "--E", "2",
                  "--windows", "1e-6")),
        Workload("d2_convergence", None, 2, D2_CONVERGENCE_L[0], 0.7, 2, 2),
        Workload("d2_gn", "gn", 2, 200, 0.59, 12, 1, ("--nmax", "30")),
    )
}


def run_invocation(workload: Workload, seed: int, out: str, workers: int):
    """The timed call: (exit code the CLI would give, library result or None)."""
    if workload.command is not None:
        from perclab.cli import run
        return run(workload.cli_argv(seed, out, workers)), None
    import numpy as np
    from perclab import (ExperimentParams, adjacency_kernel,
                         bernoulli_distribution, convergence_study)
    lo, hi, steps = D2_GRID
    params = ExperimentParams(2, adjacency_kernel(2), bernoulli_distribution(workload.p),
                              workload.L, grid=np.linspace(lo, hi, steps),
                              realizations=workload.realizations, seed=seed,
                              workers=workers)
    return 0, convergence_study(params, list(D2_CONVERGENCE_L))


def write_convergence(report, workload: Workload, seed: int, out: str) -> None:
    """Serialize the study with the active fractions its checks compare to.

    The active fractions are resampled here, after the timed call, from the
    same counter-based seeds the study used.
    """
    from perclab import bernoulli_distribution, sample_configuration
    from perclab.model import LatticeRegion

    def f(x):
        return format(float(x), ".17g")

    dist = bernoulli_distribution(workload.p)
    ids = []
    for (L, restriction), est in sorted(report.ids.items()):
        ids.append({"L": L, "restriction": restriction,
                    "mean": [f(x) for x in est.mean],
                    "stderr": [f(x) for x in est.stderr]})
    active = {}
    for L in D2_CONVERGENCE_L:
        region = LatticeRegion.box(2, L, 2)
        active[str(L)] = [f(sample_configuration(dist, region, seed, i).active_fraction)
                          for i in range(workload.realizations)]
    payload = {"p": workload.p, "grid": [f(x) for x in report.grid],
               "rows": [list(r) for r in report.to_csv_rows()],
               "ids": ids, "active_fraction": active}
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "convergence.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
