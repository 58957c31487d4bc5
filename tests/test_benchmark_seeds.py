"""The benchmark's CLI workloads pass their output checks on a sweep of seeds.

perfbench's own tests try two seeds per workload; a fault that shows only on
some invocation seeds needs more.  Each invocation runs in this process, as
perfbench's worker runs it, on the seeds 1000-1009 that `--seed 1` starts with,
and its jumps.csv must keep the bytes recorded for that seed.
"""

import hashlib
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import checks  # noqa: E402
from perfbench.workloads import WORKLOADS, run_invocation  # noqa: E402

# sha256 of jumps.csv per invocation seed 1000-1009, recorded before the
# catalog diagonalized one class per symmetry orbit
JUMPS_DIGESTS = {
    "d1_jumps": (
        "4cf915699706413403694ae45b0c4ac292149b035ff1def07de603c95acb223b",
        "5bb3b7d3e28d51f5b66ff298463889a4c09155025d2d1a3fecd53fa7a7cb5345",
        "e1e23d6eae2fd80845095b9ce1123efc15a75823526bae35fff7da44ac4fdacc",
        "75c084009a50f557e80d29342da43028e722eef9235e5577720ce182e85d81fc",
        "592a74e0207e25ccca7414c5723ff3b4c2aceb890072ca849e1194fff719e8fc",
        "6e81bbcc38c0b2039465cfa98a46f296787823179317f489b12a5b6d1a5ffd33",
        "062d6683b5932a6f7dde0384607a3c5dc1bf3411f8c4a1472df131860d2553fb",
        "da15cb52fb78e8599705b50f22225ef4395add0820c9bdaea28ea01ba730eb4c",
        "b437e531d44fa487501b9abd94d611071d08e43961d69fcf243952f0561a9b04",
        "c17ed55e53b0560ced61cff061b92b014cea4768ad2468ba2ef80960fb07bd4c",
    ),
    "d2_exact": (
        "e6a2a46d296448ef06b1ea7bb06f8413c27c3cc4e478345a11ace8fcd8d973a9",
        "aba446f116bc483e29defe5d0ca50bc51b445e85e09d325fa6c770bd974031b9",
        "563944043f63ac1c058f885076f0b2cb73a7beed18302c52f0874c116c51fda0",
        "d596db910afa2bc0ce5d9c5ad5d757d05cc5ccd1f4149d98ef6333b95bd3ee72",
        "0560098a6c88fcfc2bfa2ea82f5d2b4104daf21cdab3176a4ed6c37b4d4dd716",
        "04aa8d66b5b4ae901554b9ded71ba9bed6fcdc833fd982a2a5a576666b4306c9",
        "323bea6c48facf192b4469621be1cd66555c7ee62bc6f05af4e2fd629ef07a1a",
        "129108f896520220ab6976d4683a19c78d386041e426c1cfcd8d02159f5ba760",
        "405825b8acf5ed5ca2594c9ab62d6f136ae8a57e06fb4aa99c38d69774e6a1e7",
        "451624f89f2558cd93c2bc6295364425f86f515fabb84b67649862033f863378",
    ),
}


@pytest.mark.parametrize("name", ["d1_jumps", "d2_exact"])
def test_workload_checks_pass_on_ten_invocation_seeds(name, tmp_path):
    workload = WORKLOADS[name]
    for seed in range(1000, 1010):
        out = tmp_path / str(seed)
        code, _ = run_invocation(workload, seed, str(out), workload.workers)
        files = {f: (out / f).read_bytes() for f in sorted(os.listdir(out))}
        assert (seed, code, checks.check_output(workload, files)) == (seed, 0, [])
        assert (seed, hashlib.sha256(files["jumps.csv"]).hexdigest()) == \
            (seed, JUMPS_DIGESTS[name][seed - 1000])
