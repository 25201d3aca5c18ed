"""Serial vs process-parallel sweeps must be bit-identical.

``run_sweep(jobs=N)`` farms cells out to worker processes and replays
their telemetry in the parent; nothing about the numbers, ordering, or
trace streams may depend on N.
"""

import io
import json
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.apps import build_synthetic
from repro.experiments import ExperimentConfig, run_sweep, runner
from repro.experiments.faultsweep import fault_inflation_sweep
from repro.experiments.runner import ObserveOptions
from repro.observe.events import EventLogWriter
from repro.observe.monitor import SweepMonitor


def small_wf(app_name="any"):
    return build_synthetic(n_tasks=24, width=8, cpu_seconds=5.0, seed=1)


def _cells(collect_traces=False):
    return [
        ExperimentConfig("synthetic", "local", 1,
                         collect_traces=collect_traces),
        ExperimentConfig("synthetic", "nfs", 2,
                         collect_traces=collect_traces),
        ExperimentConfig("synthetic", "s3", 2,
                         collect_traces=collect_traces),
        ExperimentConfig("synthetic", "glusterfs-distribute", 2,
                         collect_traces=collect_traces),
    ]


def test_parallel_sweep_matches_serial_bit_for_bit():
    serial = run_sweep(_cells(), workflow_factory=small_wf)
    parallel = run_sweep(_cells(), workflow_factory=small_wf, jobs=4)
    assert len(parallel) == len(serial) == 4
    for s, p in zip(serial, parallel):
        assert p.config.label == s.config.label
        assert repr(p.makespan) == repr(s.makespan)
        assert repr(p.cost.per_hour_total) == repr(s.cost.per_hour_total)
        assert p.summary_row() == s.summary_row()


def test_parallel_sweep_replays_traces_identically():
    serial = run_sweep(_cells(collect_traces=True),
                       workflow_factory=small_wf)
    parallel = run_sweep(_cells(collect_traces=True),
                         workflow_factory=small_wf, jobs=2)
    for s, p in zip(serial, parallel):
        assert s.trace is not None and p.trace is not None
        s_records = [(r.time, r.category, r.event, r.fields)
                     for r in s.trace.records]
        p_records = [(r.time, r.category, r.event, r.fields)
                     for r in p.trace.records]
        assert p_records == s_records


def test_parallel_sweep_preserves_submission_order():
    # More cells than workers: completion order may scramble, result
    # order may not.
    cells = [ExperimentConfig("synthetic", "nfs", n) for n in (1, 2, 3, 4)]
    results = run_sweep(cells, workflow_factory=small_wf, jobs=2)
    assert [r.config.n_workers for r in results] == [1, 2, 3, 4]


def test_parallel_fault_sweep_matches_serial():
    base = ExperimentConfig("synthetic", "nfs", 2, seed=3)
    serial = fault_inflation_sweep(base, error_rates=(0.01, 0.05),
                                   node_mtbfs=(4000.0,),
                                   workflow=small_wf())
    parallel = fault_inflation_sweep(base, error_rates=(0.01, 0.05),
                                     node_mtbfs=(4000.0,),
                                     workflow=small_wf(), jobs=3)
    assert [p.row() for p in parallel] == [s.row() for s in serial]


def test_parallel_fault_sweep_replays_full_telemetry():
    # Beyond the flat points: the underlying results (exposed via
    # results_sink) must carry bit-identical metrics snapshots and
    # trace streams regardless of worker count.
    base = ExperimentConfig("synthetic", "nfs", 2, seed=3,
                            collect_traces=True)
    serial_results, parallel_results = [], []
    serial = fault_inflation_sweep(base, error_rates=(0.02,),
                                   node_mtbfs=(4000.0,),
                                   workflow=small_wf(),
                                   results_sink=serial_results)
    parallel = fault_inflation_sweep(base, error_rates=(0.02,),
                                     node_mtbfs=(4000.0,),
                                     workflow=small_wf(), jobs=2,
                                     results_sink=parallel_results)
    assert [p.row() for p in parallel] == [s.row() for s in serial]
    assert len(parallel_results) == len(serial_results) == 3
    for s, p in zip(serial_results, parallel_results):
        assert p.config.label == s.config.label
        assert p.metrics is not None and s.metrics is not None
        assert p.metrics.to_json() == s.metrics.to_json()
        s_records = [(r.time, r.category, r.event, r.fields)
                     for r in s.trace.records]
        p_records = [(r.time, r.category, r.event, r.fields)
                     for r in p.trace.records]
        assert p_records == s_records


def test_jobs_validation():
    with pytest.raises(ValueError):
        run_sweep(_cells(), workflow_factory=small_wf, jobs=0)


def test_pool_dispatches_costliest_cell_first_but_reports_in_config_order():
    # With a factory the expected cost is the node count, so the 4-node
    # cell is dispatched first although it comes last in config order.
    cells = [ExperimentConfig("synthetic", "nfs", 2),
             ExperimentConfig("synthetic", "s3", 2),
             ExperimentConfig("synthetic", "nfs", 3),
             ExperimentConfig("synthetic", "nfs", 4)]
    log = io.StringIO()
    seen = []
    parallel = run_sweep(
        cells, workflow_factory=small_wf, jobs=2, progress=seen.append,
        observe=ObserveOptions(monitor=SweepMonitor(
            events=EventLogWriter(log))))
    serial = run_sweep(cells, workflow_factory=small_wf)
    events = [json.loads(line) for line in log.getvalue().splitlines()]
    scheduled = [e["index"] for e in events if e["kind"] == "cell_scheduled"]
    assert scheduled == [3, 2, 0, 1]
    assert [r.config for r in parallel] == cells
    assert [r.config for r in seen] == cells
    for s, p in zip(serial, parallel):
        assert repr(p.makespan) == repr(s.makespan)
        assert p.summary_row() == s.summary_row()


@pytest.mark.parametrize("observe", [None, ObserveOptions(flight=True,
                                                          keep_going=True)])
def test_serial_sweep_runs_each_cell_once_through_run_cell(monkeypatch,
                                                           observe):
    calls = []
    real = runner._run_cell

    def counting(payload, *source):
        calls.append(payload[0])
        return real(payload, *source)

    monkeypatch.setattr(runner, "_run_cell", counting)
    results = run_sweep(_cells(), workflow_factory=small_wf, observe=observe)
    monkeypatch.undo()
    plain = run_sweep(_cells(), workflow_factory=small_wf)
    assert calls == [0, 1, 2, 3]
    assert [r.summary_row() for r in results] == \
        [r.summary_row() for r in plain]


def test_pool_payloads_do_not_carry_the_workflow(monkeypatch):
    sent = []
    real_submit = ProcessPoolExecutor.submit

    def submit(self, fn, *args, **kwargs):
        sent.append(pickle.dumps(args))
        return real_submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
    wf = small_wf()
    marker = next(iter(wf.files)).encode()
    assert marker in pickle.dumps(wf)
    results = run_sweep(_cells(), workflow=wf, jobs=2)
    assert len(results) == len(sent) == 4
    assert not any(marker in blob for blob in sent)


@pytest.mark.parametrize("n_cells, workers", [(2, 2), (1, 1)])
def test_monitor_reports_the_workers_that_ran(n_cells, workers):
    monitor = SweepMonitor()
    run_sweep(_cells()[:n_cells], workflow_factory=small_wf, jobs=4,
              observe=ObserveOptions(monitor=monitor))
    assert monitor.summary()["jobs"] == workers


def test_pool_sweep_of_unknown_app_fails_per_cell():
    # Sizing the dispatch order must not raise for an app without a
    # template: the cells still fail one by one, in the workers.
    cells = [ExperimentConfig("nosuchapp", "nfs", 2),
             ExperimentConfig("nosuchapp", "s3", 2)]
    results = run_sweep(cells, jobs=2, observe=ObserveOptions(keep_going=True))
    assert results == [None, None]
