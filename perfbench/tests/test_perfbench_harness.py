"""End to end: each workload's checks pass on the default and a second seed."""

import json
import os

import pytest

from perfbench import harness
from perfbench.workloads import WORKLOADS


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER_UNITS


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_pass_on_a_real_invocation(name, seed, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "STATE", str(tmp_path))
    run = harness.Run(WORKLOADS[name], seed, seconds=1, traced=False)
    inv = run.invoke(0, traced=False)
    assert inv["problems"] == []
    assert inv["exit_code"] == 0 and inv["digest"]
