"""The common storage-system interface.

Each of the paper's data-sharing options implements this interface.
The executor moves data in exactly one way, :meth:`StorageSystem.io`:
``io("read", ...)`` makes a file's bytes flow to a program running on
a node, and ``io("write", ...)`` persists a program's freshly produced
file from a node.  ``io`` is the same for every system: it keeps the
write-once namespace bracket, runs the fault retry loop when faults
are attached, and opens the operation's ``storage_op`` span.  Inside
it, two backend hooks do the system-specific part:

* :meth:`StorageSystem.read` — deliver the bytes through whatever path
  the system implies: local disk, central server, peer node, stripes,
  or object store;
* :meth:`StorageSystem.write` — persist the bytes the same way.

Both hooks are generators run inside the executing task's process.  A
backend composes each from the completion events that the disk, network
and server-queue kernels return: it yields one event, or ``all_of`` /
``&`` of pipelined stages, and spawns no process of its own.  All
contention is therefore shared with everything else on the cluster.

Systems advertise an access ``mode``:

``"posix"``
    Mountable file system; programs read/write it directly
    (NFS, GlusterFS, PVFS, XtreemFS, local disk).
``"object"``
    No POSIX interface; the workflow system must wrap each job with
    stage-in (GET) and stage-out (PUT) steps through the local disk
    (Amazon S3).  See §IV.A of the paper.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Generator, List, Optional, Tuple

from ..faults.spec import StorageUnavailableError
from ..simcore.events import Event
from ..simcore.tracing import NULL_COLLECTOR, TraceCollector
from .files import FileMetadata, Namespace

if TYPE_CHECKING:  # pragma: no cover
    from ..cloud.node import VMInstance
    from ..faults.injector import StorageFaultState
    from ..simcore.engine import Environment
    from ..telemetry.spans import SpanBuilder


@dataclass
class StorageStats:
    """Aggregate operation counters, filled in by every implementation."""

    reads: int = 0
    writes: int = 0
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    remote_reads: int = 0
    remote_writes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: S3-specific request counters (drive the fee model).
    get_requests: int = 0
    put_requests: int = 0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view for result tables."""
        return dict(self.__dict__)


class StorageSystem(abc.ABC):
    """Abstract data-sharing option."""

    #: Human-readable system name, e.g. ``"glusterfs-nufa"``.
    name: str = "abstract"
    #: ``"posix"`` or ``"object"`` (see module docstring).
    mode: str = "posix"
    #: Minimum worker count for a valid deployment (GlusterFS and PVFS
    #: need at least two nodes to construct a file system, §V).
    min_nodes: int = 1
    #: Maximum worker count (local disk works only on a single node).
    max_nodes: Optional[int] = None
    #: Whether programs read this file system through the Linux page
    #: cache (False for PVFS 2.6.3's direct-style client and for S3,
    #: whose caching client already keeps whole files on local disk).
    uses_page_cache: bool = True

    def __init__(self, env: "Environment",
                 trace: Optional[TraceCollector] = None) -> None:
        self.env = env
        self.trace = trace if trace is not None else NULL_COLLECTOR
        self.stats = StorageStats()
        self.namespace = Namespace()
        self._deployed = False
        #: Fault state installed by a FaultCoordinator (None = the
        #: fault-free default; the hot path then bypasses the retry
        #: wrapper entirely, preserving bit-identical behaviour).
        self._faults: Optional["StorageFaultState"] = None
        #: Downloads in flight, so concurrent readers on one node share
        #: one (see :meth:`_once`): (node, file) -> completion event.
        self._inflight: Dict[Tuple[str, str], Event] = {}

    # -- deployment --------------------------------------------------------

    def deploy(self, workers: List["VMInstance"]) -> None:
        """Wire the system to the cluster's worker nodes."""
        n = len(workers)
        if n < self.min_nodes:
            raise ValueError(
                f"{self.name} needs >= {self.min_nodes} nodes, got {n}")
        if self.max_nodes is not None and n > self.max_nodes:
            raise ValueError(
                f"{self.name} supports <= {self.max_nodes} nodes, got {n}")
        self.workers = list(workers)
        self._deployed = True
        if self.uses_page_cache:
            from .pagecache import NodePageCache
            self._page_caches = {w.name: NodePageCache(w) for w in workers}
        else:
            self._page_caches = None
        self._on_deploy()

    def _on_deploy(self) -> None:
        """Hook for subclass deployment work (placement maps, servers)."""

    def _require_deployed(self) -> None:
        if not self._deployed:
            raise RuntimeError(f"{self.name} used before deploy()")

    # -- data path -----------------------------------------------------------

    def stage_input(self, meta: FileMetadata) -> None:
        """Pre-stage an input file (before the clock starts, as in the
        paper: input transfer time is excluded from makespans)."""
        self._require_deployed()
        self.namespace.declare(meta, available=True)
        self._place_input(meta)

    def _place_input(self, meta: FileMetadata) -> None:
        """Hook: record where the pre-staged file physically lives."""

    def declare_output(self, meta: FileMetadata) -> None:
        """Declare a file the workflow will produce."""
        self._require_deployed()
        self.namespace.declare(meta, available=False)

    def restore_output(self, meta: FileMetadata) -> None:
        """Mark a previously produced output as already available.

        Used by rescue-DAG resume: outputs of jobs completed in the
        failed run are restored like pre-staged inputs, so only the
        unfinished remainder of the DAG re-executes.
        """
        self._require_deployed()
        self.namespace.declare(meta, available=True)
        self._place_input(meta)

    @abc.abstractmethod
    def read(self, node: "VMInstance", meta: FileMetadata) -> Generator:
        """Deliver ``meta``'s bytes to a program on ``node`` (generator)."""

    @abc.abstractmethod
    def write(self, node: "VMInstance", meta: FileMetadata) -> Generator:
        """Persist ``meta`` produced by a program on ``node`` (generator)."""

    # -- the entry point ------------------------------------------------------

    def io(self, op: str, node: "VMInstance", meta: FileMetadata,
           spans: "SpanBuilder") -> Generator:
        """Move ``meta`` for a program on ``node``; ``op`` is ``"read"``
        or ``"write"``.  The executor's only way to touch storage.

        In order: the write-once namespace bracket (``begin_read`` /
        ``end_read``, or ``begin_write`` then ``end_write``, or
        ``abort_write`` when the write dies, so a retry may produce the
        file afresh); the failed attempts the fault state decides on,
        when one is attached (:meth:`_fail_attempts`); one
        ``storage_op`` span, nested under the job's phase span and
        carrying ``attempt`` only in fault mode; and inside it the
        backend's :meth:`read` or :meth:`write` hook.
        """
        name = meta.name
        ns = self.namespace
        reading = op == "read"
        if reading:
            ns.begin_read(name)
        else:
            ns.begin_write(name)
        try:
            faults = self._faults
            if faults is None:
                sid = spans.begin("storage_op", f"{op} {name}", op=op,
                                  storage=self.name, node=node.name,
                                  file=name, nbytes=meta.size)
            else:
                attempt = yield from self._fail_attempts(op, node, meta,
                                                         spans)
                sid = spans.begin("storage_op", f"{op} {name}", op=op,
                                  storage=self.name, node=node.name,
                                  file=name, nbytes=meta.size,
                                  attempt=attempt)
            try:
                if reading:
                    yield from self.read(node, meta)
                else:
                    yield from self.write(node, meta)
            finally:
                spans.end(sid)
            if faults is not None and attempt > 0:
                faults.note_recovered(op, attempt)
        except BaseException:
            if not reading:
                ns.abort_write(name)
            raise
        finally:
            if reading:
                ns.end_read(name)
        if not reading:
            ns.end_write(name)

    def _fail_attempts(self, op: str, node: "VMInstance", meta: FileMetadata,
                       spans: "SpanBuilder") -> Generator:
        """Play out the failed attempts before the one that proceeds;
        returns that attempt's number.

        Failures manifest *before* the backend runs (the model is an
        unreachable/erroring server, detected at RPC time), so a failed
        attempt never mutates backend state.  Each failed attempt costs
        its detection latency (RPC timeout for outages); exhausting
        ``max_retries`` raises :class:`StorageUnavailableError`.
        """
        faults = self._faults
        policy = faults.retry
        attempt = 0
        while True:
            failure = faults.roll_failure(
                op, self._op_needs_service(op, node, meta))
            if failure is None:
                return attempt
            kind, latency = failure
            sid = spans.begin("storage_fault", f"{op} {meta.name}",
                              op=op, storage=self.name, node=node.name,
                              file=meta.name, fault=kind, attempt=attempt)
            try:
                if latency > 0:
                    yield self.env.timeout(latency)
            finally:
                spans.end(sid)
            faults.note_error(op, kind, meta.name)
            if attempt >= policy.max_retries:
                faults.note_giveup(op, meta.name, attempt + 1)
                raise StorageUnavailableError(
                    f"{op} {meta.name} on {self.name} from {node.name}: "
                    f"{attempt + 1} attempts failed (last: {kind})")
            delay = policy.backoff(attempt, faults.backoff_rng)
            faults.note_retry(op, delay)
            if delay > 0:
                yield self.env.timeout(delay)
            attempt += 1

    # -- fault injection ----------------------------------------------------

    def attach_faults(self, faults: "StorageFaultState") -> None:
        """Install outage/error decisions + retry policy on this system."""
        self._faults = faults

    def _op_needs_service(self, op: str, node: "VMInstance",
                          meta: FileMetadata) -> bool:
        """Whether this operation touches the shared storage service.

        Outages and transient errors only affect operations that leave
        the node; backends override this to exempt cache hits and
        node-local data (a client page-cache read survives a dead NFS
        server).  The default is conservative: everything is remote.
        """
        return True

    def telemetry_probes(self, clock: Callable[[], float]
                         ) -> List[Tuple[str, Callable[[], float]]]:
        """Backend-specific utilization probes for the sampler.

        Returns ``(series name, fn)`` pairs; ``clock`` supplies sim
        time for rate-style probes.  The base system has no server
        side, so the default is empty — NFS/S3 override this to expose
        their central bottlenecks (see ``docs/observability.md``).
        """
        return []

    # -- client page cache --------------------------------------------------------

    def _page_cache_hit(self, node: "VMInstance", meta: FileMetadata) -> bool:
        """Whether ``meta`` is fully resident in ``node``'s page cache."""
        if self._page_caches is None:
            return False
        return self._page_caches[node.name].lookup(meta.name)

    def _page_cache_insert(self, node: "VMInstance", meta: FileMetadata) -> None:
        """Record that ``meta``'s pages are now resident on ``node``."""
        if self._page_caches is not None:
            self._page_caches[node.name].insert(meta.name, meta.size)

    def page_cache_of(self, node: "VMInstance"):
        """The node's page cache (None when the system bypasses it)."""
        if self._page_caches is None:
            return None
        return self._page_caches[node.name]

    # -- per-node download dedup --------------------------------------------------

    def _once(self, node: "VMInstance", meta: FileMetadata,
              fetch: Callable[["VMInstance", FileMetadata], Generator]
              ) -> Generator:
        """Run ``fetch(node, meta)`` unless the same download to ``node``
        is already in flight; then wait for that one instead."""
        key = (node.name, meta.name)
        pending = self._inflight.get(key)
        if pending is not None:
            yield pending
            return
        done = Event(self.env)
        self._inflight[key] = done
        try:
            yield from fetch(node, meta)
        finally:
            del self._inflight[key]
            done.succeed()

    # -- common accounting ------------------------------------------------------

    def _count_read(self, meta: FileMetadata, remote: bool) -> None:
        self.stats.reads += 1
        self.stats.bytes_read += meta.size
        if remote:
            self.stats.remote_reads += 1
        self.trace.emit(self.env.now, "storage", "read", system=self.name,
                        file=meta.name, nbytes=meta.size, remote=remote)

    def _count_write(self, meta: FileMetadata, remote: bool) -> None:
        self.stats.writes += 1
        self.stats.bytes_written += meta.size
        if remote:
            self.stats.remote_writes += 1
        self.trace.emit(self.env.now, "storage", "write", system=self.name,
                        file=meta.name, nbytes=meta.size, remote=remote)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"
