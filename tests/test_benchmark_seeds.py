"""The benchmark's CLI workloads pass their output checks on a sweep of seeds.

perfbench's own tests try two seeds per workload; a fault that shows only on
some invocation seeds needs more.  Each invocation runs in this process, as
perfbench's worker runs it, on the seeds 1000-1009 that `--seed 1` starts with.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import checks  # noqa: E402
from perfbench.workloads import WORKLOADS, run_invocation  # noqa: E402


@pytest.mark.parametrize("name", ["d1_jumps", "d2_exact"])
def test_workload_checks_pass_on_ten_invocation_seeds(name, tmp_path):
    workload = WORKLOADS[name]
    for seed in range(1000, 1010):
        out = tmp_path / str(seed)
        code, _ = run_invocation(workload, seed, str(out), workload.workers)
        files = {f: (out / f).read_bytes() for f in sorted(os.listdir(out))}
        assert (seed, code, checks.check_output(workload, files)) == (seed, 0, [])
