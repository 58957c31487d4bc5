"""Self-time arithmetic on synthetic span trees, and the live recorder."""

import threading

import pytest

from perfbench import trace


def _span(sid, name, start, end, parent, thread=1, pass_id=None):
    return (sid, name, start, end, parent, thread, pass_id)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, "cli.run", 0, 10, None),
        _span(1, trace.DRIVER, 1, 9, 0),
        _span(2, "model.sample", 1, 2, 1, pass_id=0),
        _span(3, "spectra.engine", 2, 5, 1, pass_id=0),
        _span(4, "operator.blocks", 3, 4, 3, pass_id=0),
        # a worker thread overlapping the engine span
        _span(5, "model.sample", 4, 5, 1, thread=2, pass_id=1),
        _span(6, "percolation.label", 5, 7, 1, thread=2, pass_id=1),
    ]
    own = trace.self_times(spans)
    assert own == {0: 2, 1: 2, 2: 1, 3: 2, 4: 1, 5: 1, 6: 2}

    split = trace.layer_split(spans, {0: (100, 0), 1: (100, 1)},
                              {"sample_calls": 2}, {}, workers=2)
    assert split["cli.self_s"] == 2 and split["cli.run_s"] == 10
    assert split["experiments.self_s"] == 2 and split["experiments.driver_s"] == 8
    assert split["spectra.engine_s"] == 2 and split["operator.blocks_s"] == 1
    assert split["model.sample_s"] == 2 and split["percolation.label_s"] == 2
    assert split["experiments.passes_per_realization"] == 1
    # pass 0 is busy over [1, 5], pass 1 over [4, 7]
    assert split["experiments.worker_busy_frac"] == pytest.approx(7 / (8 * 2))


def test_nested_drivers_count_once_inclusive_and_fully_as_self():
    spans = [_span(0, trace.DRIVER, 0, 10, None), _span(1, trace.DRIVER, 1, 4, 0)]
    split = trace.layer_split(spans, {}, {}, {}, workers=1)
    assert split["experiments.driver_s"] == 10
    assert split["experiments.self_s"] == 10
    assert split["experiments.passes_per_realization"] == 0


def test_children_outside_the_parent_interval_are_clipped():
    spans = [_span(0, "a", 2, 6, None), _span(1, "b", 0, 3, 0), _span(2, "c", 5, 9, 0)]
    assert trace.self_times(spans)[0] == 2


def test_live_recorder_tags_passes_and_restores_the_package():
    pytest.importorskip("perclab")
    import perclab.experiments as ex
    import perclab.spectra as sp
    from perclab import ExperimentParams, adjacency_kernel, bernoulli_distribution

    originals = (ex.sample_configuration, sp.BlockSpectra.__init__, ex.estimate_ids)
    rec = trace.Recorder()
    patches, missing = trace.install(rec)
    try:
        params = ExperimentParams(2, adjacency_kernel(2), bernoulli_distribution(0.6), 4,
                                  grid=[0.5, 4.5], realizations=3, seed=5, workers=2)
        ex.convergence_study(params, [4, 6])
    finally:
        trace.uninstall(patches)
    assert missing == []
    assert (ex.sample_configuration, sp.BlockSpectra.__init__, ex.estimate_ids) == originals

    split = trace.layer_split(rec.spans, rec.passes, rec.counters, rec.peaks, workers=2)
    assert split["model.sample_calls"] == 2 * 2 * 3        # box and con, 2 volumes
    assert split["experiments.passes_per_realization"] == 2
    assert split["percolation.label_calls"] == 2 * 3
    assert 0 < split["experiments.worker_busy_frac"] <= 1
    # spans run on worker threads still hang under the driver that dispatched them
    main = threading.get_ident()
    by_id = {s[trace.ID]: s for s in rec.spans}
    on_workers = [s for s in rec.spans if s[trace.THREAD] != main]
    assert on_workers
    for s in rec.spans:
        if s[trace.NAME] != trace.DRIVER:
            assert s[trace.PARENT] is not None
    for s in on_workers:
        parent = by_id[s[trace.PARENT]]
        assert parent[trace.NAME] == trace.DRIVER or parent[trace.THREAD] == s[trace.THREAD]
