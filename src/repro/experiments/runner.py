"""End-to-end experiment execution.

:func:`run_experiment` stands up a fresh simulated world for one
configuration cell — cloud, virtual cluster, storage deployment,
workflow management system — executes the application, terminates the
cluster, and prices the run.  :func:`run_sweep` drives a list of cells
(one fresh world each; nothing leaks between cells).

A result's telemetry views — :attr:`ExperimentResult.spans` and
:attr:`ExperimentResult.metrics` — are derived on request from its
finished trace, so a result carries no live telemetry state: it pickles
across a process pool and round-trips through JSON as plain data.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..apps import APP_BUILDERS
from ..apps.templates import app_template
from ..cloud.cluster import ContextBroker
from ..cloud.ec2 import EC2Cloud
from ..cost.model import WorkflowCost, compute_cost
from ..faults import FaultCoordinator, FaultReport, RescueLog
from ..observe import hostclock
from ..observe.flight import (DEFAULT_RING_CAPACITY, FlightRecorder,
                              crash_bundle, write_crash_bundle)
from ..observe.monitor import SweepMonitor
from ..observe.profiles import capture_profile
from ..simcore.engine import Environment
from ..simcore.tracing import NULL_COLLECTOR, TraceCollector
from ..storage import make_storage
from ..telemetry.metrics import MetricsRegistry, metrics_from_trace
from ..telemetry.sampler import Timeline, UtilizationSampler, attach_cluster
from ..telemetry.spans import Span, SpanBuilder, spans_from_trace
from ..workflow.dag import Workflow
from ..workflow.wms import PegasusWMS, WorkflowRun
from .config import ExperimentConfig


class CellError(RuntimeError):
    """One or more sweep cells failed.

    Raised by :func:`run_sweep` (unless ``keep_going``) after the whole
    sweep has been driven and every failure recorded; ``failures``
    holds one dict per failed cell — ``index``, ``label``, ``digest``,
    the ``error`` record (type/message/traceback), and the crash
    ``bundle`` path when ``--crash-dir`` was active.  The exception
    message is a single line, suitable for a CLI exit summary; the full
    tracebacks live in the failure dicts and the bundles.
    """

    def __init__(self, failures: List[Dict[str, Any]]) -> None:
        self.failures = failures
        parts = [f"cell {f['index']} {f['label']} "
                 f"[{f['error']['type']}: {f['error']['message']}]"
                 for f in failures]
        noun = "cell" if len(failures) == 1 else "cells"
        super().__init__(f"{len(failures)} sweep {noun} failed: "
                         + "; ".join(parts))


@dataclass
class ObserveOptions:
    """Host-side observability configuration for :func:`run_sweep`.

    All features default off; a default-constructed instance makes
    ``run_sweep`` behave exactly as if no options were passed.  None of
    these options can alter simulation results — they only observe.
    """

    #: Receives every lifecycle transition (events/progress/summary).
    monitor: Optional[SweepMonitor] = None
    #: Directory for crash bundles of failed cells (created on demand).
    crash_dir: Optional[str] = None
    #: Keep a flight-recorder ring in every worker even without a
    #: crash dir (the ring is only *persisted* via ``crash_dir``).
    flight: bool = False
    flight_capacity: int = DEFAULT_RING_CAPACITY
    #: ``off`` or ``cprofile`` (host-CPU profile per cell).
    profile: str = "off"
    #: In-process re-runs of a failed cell before it counts as failed
    #: (guards against host-level transients; the sim is deterministic).
    cell_retries: int = 0
    #: Collect failures and return ``None`` placeholders instead of
    #: raising :class:`CellError` at the end of the sweep.
    keep_going: bool = False

    def flight_enabled(self) -> bool:
        """Ring buffers are on explicitly or implied by a crash dir."""
        return self.flight or self.crash_dir is not None


@dataclass
class ExperimentResult:
    """Everything measured for one experiment cell."""

    config: ExperimentConfig
    run: WorkflowRun
    cost: WorkflowCost
    trace: Optional[TraceCollector] = None
    #: Sampled utilization timelines (None when telemetry was disabled).
    timeline: Optional[Timeline] = None
    #: What the fault layer injected/recovered (None = faults off).
    faults: Optional[FaultReport] = None

    @property
    def makespan(self) -> float:
        """Workflow wall-clock time, seconds."""
        return self.run.makespan

    @property
    def label(self) -> str:
        """The cell label."""
        return self.config.label

    @property
    def spans(self) -> List[Span]:
        """The reconstructed span forest (empty without a trace)."""
        if self.trace is None:
            return []
        return spans_from_trace(self.trace)

    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        """The run's instrument registry, derived from the trace plus
        the summary gauges (None without a trace).  Built afresh on
        every access: bind it once when reading it repeatedly."""
        if self.trace is None:
            return None
        metrics = metrics_from_trace(self.trace)
        _set_summary_gauges(metrics, self.config, self.run, self.cost)
        return metrics

    def summary_row(self) -> Dict[str, object]:
        """Flat dict for result tables / CSV export."""
        return {
            "app": self.config.app,
            "storage": self.config.storage,
            "nodes": self.config.n_workers,
            "makespan_s": round(self.run.makespan, 1),
            "cost_per_hour": round(self.cost.per_hour_total, 4),
            "cost_per_second": round(self.cost.per_second_total, 4),
            "jobs": self.run.n_jobs,
            "s3_gets": self.run.storage_stats.get_requests,
            "s3_puts": self.run.storage_stats.put_requests,
            "cache_hits": self.run.storage_stats.cache_hits,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """Lossless, schema-versioned JSON (see
        :mod:`repro.experiments.serialize`)."""
        from .serialize import result_to_json
        return result_to_json(self, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        """Rebuild a result serialized by :meth:`to_json`."""
        from .serialize import result_from_json
        return result_from_json(text)


def run_experiment(config: ExperimentConfig,
                   workflow: Optional[Workflow] = None,
                   rescue: Optional[RescueLog] = None,
                   trace: Optional[TraceCollector] = None
                   ) -> ExperimentResult:
    """Execute one experiment cell in a fresh simulated world.

    ``workflow`` overrides the application's default (paper-sized)
    instance — used by tests and sweeps over workflow scale.
    ``rescue`` resumes from / checkpoints to a rescue-DAG log.
    ``trace`` supplies an external collector (the flight recorder's) so
    observers see kernel events even when ``collect_traces`` is off;
    the *result's* trace stays keyed to ``config.collect_traces``
    regardless, and an external collector only records — it cannot
    change the run.
    """
    ok, why = config.is_valid()
    if not ok:
        raise ValueError(f"invalid experiment {config.label}: {why}")

    telemetry_on = config.collect_traces
    if trace is None:
        trace = TraceCollector() if telemetry_on else NULL_COLLECTOR
    env = Environment()
    spans = SpanBuilder(trace, env)
    exp_span = spans.begin("experiment", config.label, app=config.app,
                           storage=config.storage, nodes=config.n_workers)
    cloud = EC2Cloud(env, seed=config.seed, trace=trace)
    broker = ContextBroker(cloud, trace=trace)

    needs_nfs = config.storage == "nfs"
    cluster = broker.provision_now(
        config.n_workers,
        worker_type=config.worker_type,
        service_type=config.nfs_server_type if needs_nfs else None,
        n_service=1 if needs_nfs else 0,
        initialized_disks=config.initialized_disks,
    )

    storage = make_storage(
        config.storage, env, cloud=cloud,
        nfs_server=cluster.service_nodes[0] if needs_nfs else None,
        trace=trace,
    )
    storage.deploy(cluster.workers)

    fault_spec = config.effective_fault_spec()
    faults: Optional[FaultCoordinator] = None
    if fault_spec is not None:
        faults = FaultCoordinator(env, fault_spec, seed=config.seed,
                                  trace=trace)
        faults.attach_storage(storage)

    if workflow is None:
        # Cached frozen template: the DAG is built and validated once
        # per process, then shared by every run of the same app.
        workflow = app_template(config.app).instantiate()

    sampler: Optional[UtilizationSampler] = None
    if telemetry_on:
        sampler = UtilizationSampler(env, interval=config.sample_interval)
        attach_cluster(sampler, cluster.all_nodes, storage=storage)
        sampler.start()

    wms = PegasusWMS(
        env, cluster.workers, storage,
        scheduler=config.scheduler,
        seed=config.seed,
        cpu_jitter_sigma=config.cpu_jitter_sigma,
        task_failure_rate=config.task_failure_rate,
        retries=config.retries,
        fault_coordinator=faults,
        halt_on_failure=config.halt_on_failure,
        trace=trace,
    )
    run = wms.execute(workflow, parent_span=exp_span if telemetry_on else None,
                      rescue=rescue)
    if sampler is not None:
        sampler.sample_now()  # final reading at workflow completion
        sampler.stop()
    cloud.terminate_all()
    spans.end(exp_span)

    stored_gb = sum(m.size for m in workflow.files.values()) / 1e9
    cost = compute_cost(
        cloud.billing, storage.stats, storage.name,
        makespan=run.makespan, stored_gb=stored_gb, at=env.now,
    )
    return ExperimentResult(
        config=config, run=run, cost=cost,
        trace=trace if telemetry_on else None,
        timeline=sampler.timeline if sampler is not None else None,
        faults=faults.report() if faults is not None else None,
    )


def _set_summary_gauges(metrics: MetricsRegistry, config: ExperimentConfig,
                        run: WorkflowRun, cost: WorkflowCost) -> None:
    """Publish the per-run summary gauges."""
    makespan_g = metrics.gauge(
        "experiment_makespan_seconds", "workflow wall-clock time")
    makespan_g.set(run.makespan, app=config.app,
                   storage=config.storage, nodes=config.n_workers)
    cost_g = metrics.gauge(
        "experiment_cost_usd", "run cost by billing model")
    cost_g.set(cost.per_hour_total, billing="hour")
    cost_g.set(cost.per_second_total, billing="second")


@dataclass
class _CellObserve:
    """Picklable per-cell observability switches shipped to workers."""

    flight: bool = False
    flight_capacity: int = DEFAULT_RING_CAPACITY
    profile: str = "off"


@dataclass
class _SweepEnvelope:
    """One attempt at one sweep cell: its result, host measurements, error.

    ``result`` is the :class:`ExperimentResult` itself, inline and from
    a pool worker alike: it holds plain data only, so it pickles as is.

    The host-side fields (``wall_*``, ``peak_rss``, ``profile_stats``,
    ``error``) feed the sweep monitor and flight recorder only; none of
    them ever reaches the deterministic result or its telemetry.
    """

    index: int
    config: ExperimentConfig
    #: None when the cell raised (``error`` holds its crash bundle).
    result: Optional[ExperimentResult]
    #: Host epoch seconds when the cell was picked up.
    wall_start: float = 0.0
    #: Host wall-clock duration of the cell, seconds.
    wall_seconds: float = 0.0
    #: Peak RSS in bytes at cell completion (process-wide high water
    #: mark — monotone within one worker process).
    peak_rss: int = 0
    #: pstats tables captured under ``--profile cprofile``.
    profile_stats: Optional[List[Dict[Any, Any]]] = None
    #: Crash bundle dict when the cell raised.
    error: Optional[Dict[str, Any]] = None


#: Where a sweep's cells get their workflow: ``(workflow, factory)``.
_Source = Tuple[Optional[Workflow], Optional[Callable[[str], Workflow]]]

#: A pool worker's workflow source, set by :func:`_init_worker`.
_WORKER_SOURCE: _Source = (None, None)


def _run_cell(payload, workflow: Optional[Workflow] = None,
              factory: Optional[Callable[[str], Workflow]] = None
              ) -> _SweepEnvelope:
    """Run one sweep cell — the one cell path of both sweep drivers.

    ``payload`` is ``(index, config, cell_obs)``.  Never raises: a
    failing cell comes back as an envelope whose ``error`` field is a
    ready-to-write crash bundle (traceback, scenario config + digest,
    flight-recorder ring, partial metrics), so the sweep keeps driving
    the remaining cells.
    """
    index, config, obs = payload
    wall_start = hostclock.wall_now()
    t0 = hostclock.monotonic()
    recorder = FlightRecorder(obs.flight_capacity) if obs.flight else None
    profile_sink: List[Dict[Any, Any]] = []
    result: Optional[ExperimentResult] = None
    error: Optional[Dict[str, Any]] = None
    try:
        if workflow is None and factory is not None:
            workflow = factory(config.app)
        with (capture_profile(profile_sink) if obs.profile == "cprofile"
              else nullcontext()):
            result = run_experiment(
                config, workflow=workflow,
                trace=recorder.trace if recorder is not None else None)
    # Catching everything here is the point: any cell failure (Interrupt
    # and deadlock included) must become an error envelope so the sweep
    # keeps driving the remaining cells, and the exception is preserved
    # verbatim inside the crash bundle.
    except Exception as exc:  # lint: ignore[SIM007]
        error = crash_bundle(config, index, exc, recorder)
    return _SweepEnvelope(
        index=index, config=config, result=result, wall_start=wall_start,
        wall_seconds=hostclock.monotonic() - t0,
        peak_rss=hostclock.peak_rss_bytes(),
        profile_stats=profile_sink or None, error=error)


def _init_worker(workflow: Optional[Workflow],
                 factory: Optional[Callable[[str], Workflow]]) -> None:
    """Pool initializer: take the workflow source once per worker, so
    payloads never carry it."""
    global _WORKER_SOURCE
    _WORKER_SOURCE = (workflow, factory)


def _pool_cell(payload) -> _SweepEnvelope:
    """Pool entry point: :func:`_run_cell` with the worker's workflow
    source (a module-level function, so the pool can pickle it)."""
    return _run_cell(payload, *_WORKER_SOURCE)


def _dispatch_order(configs: List[ExperimentConfig], misses: List[int],
                    workflow: Optional[Workflow],
                    factory: Optional[Callable[[str], Workflow]]
                    ) -> List[int]:
    """Pool dispatch order: longest-expected-first.

    A cell's expected cost is ``task_count × n_workers``; the stable
    sort keeps ties in config order.  The task count is the explicit
    workflow's, or the app template's — instantiated here, which also
    warms the template cache that fork-started workers inherit.  A
    factory is never called in the parent, so with one (or for an app
    without a template, whose cells fail in the worker) the count is 1.
    """
    def task_count(app: str) -> int:
        if workflow is not None:
            return len(workflow.tasks)
        if factory is not None or app not in APP_BUILDERS:
            return 1
        return len(app_template(app).instantiate().tasks)

    counts = {app: task_count(app)
              for app in dict.fromkeys(configs[i].app for i in misses)}
    return sorted(misses, key=lambda i: -counts[configs[i].app]
                  * configs[i].n_workers)


def run_sweep(configs: Iterable[ExperimentConfig],
              workflow_factory: Optional[Callable[[str], Workflow]] = None,
              progress: Optional[Callable[[ExperimentResult], None]] = None,
              jobs: int = 1,
              workflow: Optional[Workflow] = None,
              observe: Optional[ObserveOptions] = None,
              cache: Optional[Any] = None,
              ) -> List[Optional[ExperimentResult]]:
    """Run many cells; each gets its own fresh simulated world.

    ``workflow_factory(app_name)`` can supply down-scaled workflows for
    quick sweeps; ``workflow`` fixes one explicit workflow for every
    cell instead (mutually exclusive with the factory).  ``progress``
    is called once per completed cell, in config order.

    ``jobs > 1`` runs cells in up to that many worker processes, each
    handed the workflow source once at start-up.  Cells are dispatched
    longest-expected-first (see :func:`_dispatch_order`) so the costliest
    cell never starts last.  The returned list is always in config order
    and — because every cell is a fresh, fully deterministic world —
    bit-identical to a serial sweep, including the telemetry of each
    result (see :class:`_SweepEnvelope`).  With ``jobs > 1`` the factory
    must be picklable (a module-level function, not a lambda).

    ``observe`` switches on host-side observability (monitor/event log,
    flight recorder + crash bundles, profiling, retries); see
    :class:`ObserveOptions`.  Monitor ``cell_started``/``cell_finished``
    /``cell_failed`` events fire in completion order.  A cell that
    raises is recorded (bundle written, ``cell_failed`` event emitted)
    and — after the whole sweep has been driven — the first-failure
    behaviour is a single :class:`CellError` listing every failed cell
    in config order.  With ``keep_going`` the sweep instead returns
    ``None`` placeholders at failed indexes.

    ``cache`` is a content-addressed cell cache (anything with the
    :class:`repro.service.cache.CellCache` ``get(config)``/
    ``put(config, result)`` shape).  Every cell is looked up by its
    ``config.digest()`` before any world is built; hits are served
    without simulating (zero kernel events) and misses are stored
    after the run, so a repeated sweep is O(new cells).  The cache
    counts ``sweep_cache_hits_total`` / ``sweep_cache_misses_total``
    per lookup.  Caching only ever changes *whether* a cell is
    simulated, never its result: a hit is the losslessly round-tripped
    result of an earlier run of the same scenario, and serial vs
    parallel sweeps populate identical cache contents.  The cache is
    deliberately *not* used for cells that fail — only completed
    results are stored.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if workflow is not None and workflow_factory is not None:
        raise ValueError("pass workflow or workflow_factory, not both")
    configs = list(configs)
    opts = observe if observe is not None else ObserveOptions()
    if opts.profile not in ("off", "cprofile"):
        raise ValueError(f"unknown profile mode {opts.profile!r}")

    # Content-addressed lookup happens up front, in config order, so
    # hit/miss counters are deterministic and no worker process is ever
    # spawned for a cell the store can already answer.
    cached: Dict[int, ExperimentResult] = {}
    if cache is not None:
        for index, config in enumerate(configs):
            hit = cache.get(config)
            if hit is not None:
                cached[index] = hit
    misses = [i for i in range(len(configs)) if i not in cached]
    # Inline unless at least two misses can share a pool.
    workers = max(1, min(jobs, len(misses)))
    source: _Source = (workflow, workflow_factory)
    cell_obs = _CellObserve(flight=opts.flight_enabled(),
                            flight_capacity=opts.flight_capacity,
                            profile=opts.profile)
    monitor = opts.monitor
    results: List[Optional[ExperimentResult]] = [None] * len(configs)
    done = [False] * len(configs)
    failures: List[Dict[str, Any]] = []
    reported = 0

    def complete(index: int, result: Optional[ExperimentResult]) -> None:
        # Cells complete in any order; progress follows config order.
        nonlocal reported
        results[index] = result
        done[index] = True
        while reported < len(configs) and done[reported]:
            if progress is not None and results[reported] is not None:
                progress(results[reported])
            reported += 1

    def finish(envelope: _SweepEnvelope) -> None:
        # The simulation is deterministic, so an in-process retry only
        # helps against host-level transients (an OOM-killed worker, a
        # full tmpdir); each attempt is announced via ``cell_retried``.
        attempt = 0
        while envelope.error is not None and attempt < opts.cell_retries:
            attempt += 1
            if monitor is not None:
                monitor.cell_retried(envelope.index, envelope.config, attempt)
            envelope = _run_cell((envelope.index, envelope.config, cell_obs),
                                 *source)
        complete(envelope.index,
                 _consume_envelope(envelope, opts, failures, cache))

    if monitor is not None:
        monitor.sweep_started(len(configs), workers)
    try:
        for index, result in cached.items():
            if monitor is not None:
                # A hit costs no simulation: its lifecycle collapses to
                # an immediate pair with zero wall-clock attributed.
                monitor.cell_scheduled(index, configs[index])
                monitor.cell_started(index, configs[index])
                monitor.cell_finished(index, configs[index],
                                      wall_seconds=0.0, peak_rss=0)
            complete(index, result)
        order = misses if workers == 1 else _dispatch_order(
            configs, misses, workflow, workflow_factory)
        if monitor is not None:
            for index in order:
                monitor.cell_scheduled(index, configs[index])
        if workers == 1:
            for index in order:
                finish(_run_cell((index, configs[index], cell_obs), *source))
        else:
            from concurrent.futures import ProcessPoolExecutor, as_completed

            with ProcessPoolExecutor(max_workers=workers,
                                     initializer=_init_worker,
                                     initargs=source) as pool:
                futures = [pool.submit(_pool_cell,
                                       (index, configs[index], cell_obs))
                           for index in order]
                for future in as_completed(futures):
                    finish(future.result())
    finally:
        if monitor is not None:
            monitor.sweep_finished()
    if failures and not opts.keep_going:
        raise CellError(sorted(failures, key=lambda f: f["index"]))
    return results


def _consume_envelope(envelope: _SweepEnvelope, opts: ObserveOptions,
                      failures: List[Dict[str, Any]],
                      cache: Optional[Any] = None
                      ) -> Optional[ExperimentResult]:
    """Fold one envelope into monitor events, bundles, and a result.

    ``cell_started`` is emitted here — retrospectively, at completion —
    because a process pool gives the parent no signal when a worker
    actually picks a cell up; the event's host ordering is therefore
    completion-accurate, not start-accurate (the observed start time is
    preserved in ``wall_start``).
    """
    monitor = opts.monitor
    config = envelope.config
    if monitor is not None:
        monitor.cell_started(envelope.index, config)
        for table in envelope.profile_stats or []:
            monitor.add_profile_stats(table)
    if envelope.error is not None:
        bundle_path: Optional[str] = None
        if opts.crash_dir is not None:
            bundle_path = write_crash_bundle(opts.crash_dir, envelope.error)
        err = envelope.error["error"]
        failures.append({
            "index": envelope.index,
            "label": config.label,
            "digest": envelope.error["digest"],
            "error": err,
            "bundle": bundle_path,
        })
        if monitor is not None:
            monitor.cell_failed(
                envelope.index, config,
                error=f"{err['type']}: {err['message']}",
                wall_seconds=envelope.wall_seconds,
                peak_rss=envelope.peak_rss,
                bundle_path=bundle_path)
        return None
    result = envelope.result
    if cache is not None:
        cache.put(config, result)
    if monitor is not None:
        monitor.cell_finished(envelope.index, config,
                              wall_seconds=envelope.wall_seconds,
                              peak_rss=envelope.peak_rss)
    return result
