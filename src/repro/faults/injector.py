"""Runtime fault injection.

:class:`FaultCoordinator` turns a :class:`~repro.faults.spec.FaultSpec`
into live simulation behaviour: it schedules node-kill processes
against the Condor pool and hands the storage layer a
:class:`StorageFaultState` that decides, operation by operation,
whether the shared service is down or flaking.

Determinism: every random draw comes from a named substream of the
experiment seed —

* crash times: ``(seed, "fault", "crash", <node>)`` (one exponential
  draw per node, independent of execution order);
* transient storage errors: ``(seed, "fault", "storage-error")``
  (sequential draws; the simulation's own determinism fixes the order);
* backoff jitter: ``(seed, "fault", "backoff")``.

All fault events flow through the telemetry trace under the ``fault``
category, so the run metrics derive fault counters and retry-delay
histograms from the trace without any extra plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..simcore.rand import substream
from ..simcore.tracing import NULL_COLLECTOR, TraceCollector
from .spec import FaultSpec, OutageWindow

if TYPE_CHECKING:  # pragma: no cover
    from ..cloud.node import VMInstance
    from ..simcore.engine import Environment
    from ..storage.base import StorageSystem
    from ..workflow.condor import CondorPool


class StorageFaultState:
    """Per-run storage fault decisions and counters.

    Installed on a :class:`~repro.storage.base.StorageSystem` via
    ``attach_faults``; the retry loop in ``StorageSystem.io`` consults
    it before every operation that touches the shared service.
    """

    def __init__(self, env: "Environment", spec: FaultSpec,
                 seed: int = 0,
                 trace: TraceCollector = NULL_COLLECTOR) -> None:
        self.env = env
        self.spec = spec
        self.retry = spec.retry
        self.trace = trace
        self.outages: Tuple[OutageWindow, ...] = tuple(
            sorted(spec.storage_outages, key=lambda w: (w.start, w.end)))
        self._error_rng = substream(seed, "fault", "storage-error")
        #: Backoff-jitter stream, shared with the retry wrapper.
        self.backoff_rng = substream(seed, "fault", "backoff")
        # Counters (also mirrored into the trace for the run metrics).
        self.transient_errors = 0
        self.outage_hits = 0
        self.retries = 0
        self.giveups = 0
        self.recoveries = 0

    # -- decisions ----------------------------------------------------------

    def outage_at(self, t: float) -> bool:
        """Whether the shared service is down at time ``t``."""
        return any(w.covers(t) for w in self.outages)

    def roll_failure(self, op: str,
                     needs_service: bool) -> Optional[Tuple[str, float]]:
        """Decide the fate of one operation attempt.

        Returns ``None`` (attempt proceeds) or ``(kind, latency)`` where
        ``kind`` is ``"outage"`` or ``"transient"`` and ``latency`` is
        the simulated time the failed attempt costs the client.
        Purely node-local operations (``needs_service=False``) never
        fail: a page-cache or client-cache hit does not touch the
        server.
        """
        if not needs_service:
            return None
        if self.outage_at(self.env.now):
            return ("outage", self.retry.op_timeout)
        if self.spec.storage_error_rate > 0.0 \
                and float(self._error_rng.random()) < self.spec.storage_error_rate:
            return ("transient", self.retry.error_latency)
        return None

    # -- accounting ---------------------------------------------------------

    def note_error(self, op: str, kind: str, file: str) -> None:
        """Record one failed attempt."""
        if kind == "outage":
            self.outage_hits += 1
        else:
            self.transient_errors += 1
        self.trace.emit(self.env.now, "fault", "storage_error",
                        op=op, kind=kind, file=file)

    def note_retry(self, op: str, delay: float) -> None:
        """Record one backoff-and-retry decision."""
        self.retries += 1
        self.trace.emit(self.env.now, "fault", "storage_retry",
                        op=op, delay=delay)

    def note_giveup(self, op: str, file: str, attempts: int) -> None:
        """Record retry exhaustion (a StorageUnavailableError)."""
        self.giveups += 1
        self.trace.emit(self.env.now, "fault", "storage_giveup",
                        op=op, file=file, attempts=attempts)

    def note_recovered(self, op: str, attempts: int) -> None:
        """Record an operation that succeeded after >= 1 retry."""
        self.recoveries += 1
        self.trace.emit(self.env.now, "fault", "storage_recovered",
                        op=op, attempts=attempts)

    @property
    def errors(self) -> int:
        """All failed attempts (outage + transient)."""
        return self.transient_errors + self.outage_hits


@dataclass
class FaultReport:
    """What the fault layer actually did during one run."""

    #: Crash time per node that died, sim seconds.
    crash_times: Dict[str, float] = field(default_factory=dict)
    #: Jobs interrupted by node death and resubmitted.
    jobs_evicted: int = 0
    #: Failed storage attempts by cause.
    storage_transient_errors: int = 0
    storage_outage_hits: int = 0
    #: Backoff-and-retry decisions taken by storage clients.
    storage_retries: int = 0
    #: Operations that exhausted retries (became task failures).
    storage_giveups: int = 0
    #: Operations that succeeded after at least one retry.
    storage_recoveries: int = 0
    #: Total scheduled outage seconds.
    outage_seconds: float = 0.0

    @property
    def node_crashes(self) -> int:
        """Nodes that died."""
        return len(self.crash_times)

    def as_dict(self) -> Dict[str, object]:
        """Flat dict for result tables."""
        return {
            "node_crashes": self.node_crashes,
            "jobs_evicted": self.jobs_evicted,
            "storage_errors": (self.storage_transient_errors
                               + self.storage_outage_hits),
            "storage_retries": self.storage_retries,
            "storage_giveups": self.storage_giveups,
            "storage_recoveries": self.storage_recoveries,
            "outage_seconds": self.outage_seconds,
        }


class FaultCoordinator:
    """Arms one :class:`FaultSpec` against one experiment run."""

    def __init__(self, env: "Environment", spec: FaultSpec,
                 seed: int = 0,
                 trace: TraceCollector = NULL_COLLECTOR) -> None:
        self.env = env
        self.spec = spec
        self.seed = seed
        self.trace = trace
        self.storage_state: Optional[StorageFaultState] = None
        #: Planned crash time per node (filled by :meth:`arm`).
        self.crash_times: Dict[str, float] = {}
        self._pool: Optional["CondorPool"] = None

    # -- wiring -------------------------------------------------------------

    def attach_storage(self, storage: "StorageSystem") -> None:
        """Install the storage-side fault state (if the spec has any)."""
        if not self.spec.has_storage_faults:
            return
        self.storage_state = StorageFaultState(
            self.env, self.spec, seed=self.seed, trace=self.trace)
        storage.attach_faults(self.storage_state)

    def plan_crashes(self, workers: List["VMInstance"]) -> Dict[str, float]:
        """Deterministic crash schedule for ``workers``.

        Explicit :class:`NodeCrash` entries are honoured verbatim;
        stochastic (mtbf) crashes are capped so at least
        ``min_survivors`` workers stay alive.
        """
        names = {w.name for w in workers}
        times: Dict[str, float] = {}
        for crash in self.spec.node_crashes:
            if crash.node in names:
                prev = times.get(crash.node)
                times[crash.node] = crash.at if prev is None \
                    else min(prev, crash.at)
        if self.spec.node_mtbf > 0.0:
            drawn: List[Tuple[float, str]] = []
            for name in sorted(names - set(times)):
                rng = substream(self.seed, "fault", "crash", name)
                drawn.append((float(rng.exponential(self.spec.node_mtbf)),
                              name))
            budget = max(0, len(names) - self.spec.min_survivors
                         - len(times))
            for t, name in sorted(drawn)[:budget]:
                times[name] = t
        return times

    def arm(self, pool: "CondorPool",
            workers: List["VMInstance"]) -> None:
        """Start the crash and outage processes for this run."""
        self._pool = pool
        self.crash_times = self.plan_crashes(workers)
        by_name = {w.name: w for w in workers}
        for name in sorted(self.crash_times):
            self.env.process(
                self._crash_proc(pool, by_name[name],
                                 self.crash_times[name]),
                name=f"fault:crash:{name}")
        if self.storage_state is not None:
            for i, window in enumerate(self.storage_state.outages):
                self.env.process(self._outage_marker(window),
                                 name=f"fault:outage:{i}")

    # -- processes ----------------------------------------------------------

    def _crash_proc(self, pool: "CondorPool", node: "VMInstance",
                    at: float):
        yield self.env.timeout(max(0.0, at - self.env.now))
        if not node.is_alive:
            return
        pool.kill_node(node)
        node.crash()

    def _outage_marker(self, window: OutageWindow):
        # Trace-only bookends so outages appear as spans in the
        # timeline; the actual down-ness is decided by outage_at().
        yield self.env.timeout(max(0.0, window.start - self.env.now))
        self.trace.emit(self.env.now, "fault", "outage_begin",
                        start=window.start, end=window.end)
        yield self.env.timeout(max(0.0, window.end - self.env.now))
        self.trace.emit(self.env.now, "fault", "outage_end",
                        start=window.start, end=window.end,
                        duration=window.duration)

    # -- results ------------------------------------------------------------

    def report(self) -> FaultReport:
        """Summarise what was injected and recovered."""
        report = FaultReport(crash_times=dict(self.crash_times))
        if self._pool is not None:
            report.jobs_evicted = getattr(self._pool, "evictions", 0)
            # Only nodes that actually died before the run ended count.
            dead = getattr(self._pool, "_dead_nodes", set())
            report.crash_times = {n: t for n, t in self.crash_times.items()
                                  if n in dead}
        state = self.storage_state
        if state is not None:
            report.storage_transient_errors = state.transient_errors
            report.storage_outage_hits = state.outage_hits
            report.storage_retries = state.retries
            report.storage_giveups = state.giveups
            report.storage_recoveries = state.recoveries
            report.outage_seconds = sum(w.duration for w in state.outages)
        return report
