"""Storage fault injection: transient errors, outages, retry/backoff."""

import pytest

from repro.apps import build_synthetic
from repro.cloud import EC2Cloud
from repro.experiments import ExperimentConfig, run_experiment
from repro.faults import (
    FaultCoordinator,
    FaultSpec,
    OutageWindow,
    RetryPolicy,
    StorageUnavailableError,
)
from repro.simcore import Environment
from repro.storage import NFSStorage
from repro.workflow import PegasusWMS, WorkflowFailedError


def build_wms(spec, seed=0, retries=3, n_workers=2):
    env = Environment()
    cloud = EC2Cloud(env, seed=seed)
    workers = cloud.launch_many("c1.xlarge", n_workers)
    server = cloud.launch("m1.xlarge")
    fs = NFSStorage(env, server)
    fs.deploy(workers)
    faults = FaultCoordinator(env, spec, seed=seed)
    faults.attach_storage(fs)
    wms = PegasusWMS(env, workers, fs, seed=seed, retries=retries,
                     fault_coordinator=faults)
    return env, wms, faults


def run_cell(seed=0, **fault_kwargs):
    cfg = ExperimentConfig("montage", "nfs", 2, seed=seed, **fault_kwargs)
    return run_experiment(cfg, workflow=build_synthetic(30, width=6, seed=1))


def test_transient_errors_are_masked_by_retries():
    spec = FaultSpec(storage_error_rate=0.03)
    env, wms, faults = build_wms(spec, seed=4)
    run = wms.execute(build_synthetic(30, width=6, seed=1))
    report = faults.report()
    assert report.storage_transient_errors > 0
    assert report.storage_retries > 0
    assert report.storage_giveups == 0
    assert report.storage_recoveries > 0
    # Every job still completed despite the errors.
    assert len([r for r in run.records if not r.failed]) == 30


def test_storage_faults_are_deterministic_per_seed():
    results = [run_cell(seed=9, storage_error_rate=0.02) for _ in range(2)]
    assert results[0].makespan == results[1].makespan
    assert results[0].faults.as_dict() == results[1].faults.as_dict()
    assert results[0].faults.storage_transient_errors > 0


def test_different_seeds_draw_different_error_patterns():
    a = run_cell(seed=1, storage_error_rate=0.02)
    b = run_cell(seed=2, storage_error_rate=0.02)
    assert (a.makespan != b.makespan
            or a.faults.as_dict() != b.faults.as_dict())


def test_errors_inflate_makespan():
    clean = run_cell(seed=5)
    faulty = run_cell(seed=5, storage_error_rate=0.2, retries=10)
    assert clean.faults is None
    assert faulty.faults.storage_transient_errors > 5
    assert faulty.makespan > clean.makespan


def test_outage_window_stalls_and_recovers():
    # A 60 s outage early in the run: clients burn op_timeout attempts,
    # back off, and succeed once the window closes.
    spec = FaultSpec(
        storage_outages=[OutageWindow(30.0, 90.0)],
        retry=RetryPolicy(max_retries=10, op_timeout=10.0),
    )
    env, wms, faults = build_wms(spec, seed=0)
    run = wms.execute(build_synthetic(30, width=6, seed=1))
    report = faults.report()
    assert report.storage_outage_hits > 0
    assert report.outage_seconds == 60.0
    assert len([r for r in run.records if not r.failed]) == 30

    env2, wms2, _ = build_wms(FaultSpec(), seed=0)
    clean = wms2.execute(build_synthetic(30, width=6, seed=1))
    assert run.makespan > clean.makespan


def test_retry_exhaustion_fails_the_workflow():
    # An outage longer than the whole retry budget: every attempt times
    # out, StorageUnavailableError escapes as a task failure, and with
    # retries=0 DAGMan halts the workflow.
    spec = FaultSpec(
        storage_outages=[OutageWindow(0.0, 1e9)],
        retry=RetryPolicy(max_retries=1, op_timeout=5.0),
    )
    env, wms, faults = build_wms(spec, seed=0, retries=0)
    with pytest.raises(WorkflowFailedError):
        wms.execute(build_synthetic(6, width=3, seed=1))
    assert faults.report().storage_giveups > 0


def make_broken_nfs(max_retries=0):
    """An NFS deployment whose server is down for the whole run."""
    from repro.simcore import TraceCollector
    from repro.telemetry.spans import SpanBuilder

    spec = FaultSpec(
        storage_outages=[OutageWindow(0.0, 1e9)],
        retry=RetryPolicy(max_retries=max_retries, op_timeout=1.0),
    )
    env = Environment()
    cloud = EC2Cloud(env)
    workers = cloud.launch_many("c1.xlarge", 1)
    server = cloud.launch("m1.xlarge")
    fs = NFSStorage(env, server)
    fs.deploy(workers)
    faults = FaultCoordinator(env, spec, seed=0)
    faults.attach_storage(fs)
    spans = SpanBuilder(TraceCollector(), env)
    return env, workers, fs, spans


def test_storage_unavailable_error_is_typed():
    from repro.storage.files import FileMetadata, FileState

    env, workers, fs, spans = make_broken_nfs(max_retries=1)
    meta = FileMetadata("f", 1e6)
    fs.declare_output(meta)
    captured = {}

    def writer():
        try:
            yield from fs.io("write", workers[0], meta, spans)
        except StorageUnavailableError as exc:
            captured["exc"] = exc

    env.process(writer())
    env.run()
    assert isinstance(captured["exc"], StorageUnavailableError)
    assert "write" in str(captured["exc"])
    assert "2 attempts" in str(captured["exc"])
    # Both failed attempts closed their spans, and the write was
    # aborted, so a later attempt may produce the file afresh.
    begins = spans.trace.select("span", "begin")
    assert [r.get("span_category") for r in begins] == ["storage_fault"] * 2
    assert len(spans.trace.select("span", "end")) == 2
    assert fs.namespace.state("f") is FileState.PENDING


def test_failed_attempts_do_not_touch_backend_state():
    """Fail-fast model: the outage is detected before the RPC, so a
    timed-out write must not have moved any bytes."""
    from repro.storage.files import FileMetadata

    env, workers, fs, spans = make_broken_nfs(max_retries=0)
    meta = FileMetadata("f", 1e6)
    fs.declare_output(meta)
    caught = []

    def writer():
        try:
            yield from fs.io("write", workers[0], meta, spans)
        except StorageUnavailableError:
            caught.append(True)

    env.process(writer())
    env.run()
    assert caught == [True]
    assert fs.stats.writes == 0
    assert fs.stats.bytes_written == 0.0


def test_interrupted_write_closes_its_span_and_aborts_its_write():
    """A node crash mid-write (an Interrupt inside the backend hook)
    closes the ``storage_op`` span and returns the file to PENDING."""
    from repro.simcore import Interrupt, TraceCollector
    from repro.storage.files import FileMetadata, FileState
    from repro.telemetry.spans import SpanBuilder, spans_from_trace

    env = Environment()
    cloud = EC2Cloud(env)
    workers = cloud.launch_many("c1.xlarge", 1)
    fs = NFSStorage(env, cloud.launch("m1.xlarge"))
    fs.deploy(workers)
    trace = TraceCollector()
    spans = SpanBuilder(trace, env)
    meta = FileMetadata("f", 100e6)
    fs.declare_output(meta)
    caught = []

    def writer():
        try:
            yield from fs.io("write", workers[0], meta, spans)
        except Interrupt:
            caught.append(env.now)

    def killer(victim):
        yield env.timeout(0.5)
        victim.interrupt("node crash")

    env.process(killer(env.process(writer())))
    env.run()
    assert caught == [0.5]
    (span,) = spans_from_trace(trace)
    assert span.category == "storage_op" and span.end == 0.5
    assert fs.namespace.state("f") is FileState.PENDING


def test_zero_rate_spec_attaches_nothing():
    env = Environment()
    cloud = EC2Cloud(env)
    workers = cloud.launch_many("c1.xlarge", 1)
    server = cloud.launch("m1.xlarge")
    fs = NFSStorage(env, server)
    faults = FaultCoordinator(env, FaultSpec(node_mtbf=100.0), seed=0)
    faults.attach_storage(fs)
    assert fs._faults is None  # crash-only spec leaves storage untouched
