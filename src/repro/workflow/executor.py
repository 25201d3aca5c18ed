"""Per-job execution on a worker node.

A job's lifetime on its slot is the sequential pipeline the paper's
task wrappers produce:

1. claim peak memory from the node (this gates Broadband's >1 GB
   tasks: a 7 GB c1.xlarge can hold only a few at once);
2. read every input through the storage system (for S3, this is the
   caching client's GET + the program's local read);
3. compute for ``cpu_seconds``;
4. write every output through the storage system (for S3: local write
   + PUT).

Every transfer goes through :meth:`StorageSystem.io
<repro.storage.base.StorageSystem.io>`, which brackets it in the
write-once namespace (and runs the storage fault retry loop), so any
scheduling or storage bug that would corrupt the data-flow fails the
simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

from ..faults.spec import StorageUnavailableError
from ..simcore.tracing import NULL_COLLECTOR, TraceCollector
from ..storage.files import FileState
from ..telemetry.spans import SpanBuilder

if TYPE_CHECKING:  # pragma: no cover
    from ..cloud.node import VMInstance
    from ..simcore.engine import Environment
    from ..storage.base import StorageSystem
    from .mapper import ExecutableJob


class JobTooLargeError(RuntimeError):
    """A task's memory demand exceeds the node's physical memory."""


class TaskFailedError(RuntimeError):
    """A task attempt crashed (transient failure injected by the
    failure model).  DAGMan decides whether to retry."""


@dataclass
class JobRecord:
    """Observed execution of one job (feeds the profiler and results)."""

    task_id: str
    transformation: str
    node: str
    submit_time: float
    start_time: float = 0.0
    end_time: float = 0.0
    read_seconds: float = 0.0
    cpu_seconds: float = 0.0
    write_seconds: float = 0.0
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    memory_bytes: float = 0.0
    #: Which attempt this record describes (1 = first try).
    attempt: int = 1
    #: True when this attempt crashed before producing its outputs.
    failed: bool = False
    #: True when the attempt died because its node crashed (the job is
    #: resubmitted without consuming a DAGMan retry).
    evicted: bool = False

    @property
    def duration(self) -> float:
        """Wall-clock runtime on the slot."""
        return self.end_time - self.start_time

    @property
    def io_seconds(self) -> float:
        """Time spent in storage operations."""
        return self.read_seconds + self.write_seconds

    @property
    def queue_delay(self) -> float:
        """Time between submission and slot start."""
        return self.start_time - self.submit_time


def execute_job(env: "Environment", job: "ExecutableJob",
                node: "VMInstance", storage: "StorageSystem",
                record: JobRecord,
                cpu_jitter_factor: float = 1.0,
                fail_this_attempt: bool = False,
                trace: TraceCollector = NULL_COLLECTOR,
                parent_span: Optional[int] = None) -> Generator:
    """Run one job on ``node`` (the caller holds the CPU slot).

    With ``fail_this_attempt`` the task crashes at the end of its
    compute phase — after consuming resources, before producing any
    output — modelling the transient failures DAGMan retries.

    ``parent_span`` links this job's span subtree under the enclosing
    workflow span (each job gets its own :class:`SpanBuilder`, so
    concurrently executing jobs cannot corrupt each other's nesting).
    """
    task = job.task
    ns = storage.namespace
    spans = SpanBuilder(trace, env, root_parent=parent_span)

    if task.memory_bytes > node.memory.capacity:
        raise JobTooLargeError(
            f"task {task.id} needs {task.memory_bytes / 1e9:.1f} GB but "
            f"{node.name} has {node.memory.capacity / 1e9:.1f} GB")

    # 1. memory gate ------------------------------------------------------
    if task.memory_bytes > 0:
        yield node.memory.get(task.memory_bytes)
    record.start_time = env.now
    record.memory_bytes = task.memory_bytes
    trace.emit(env.now, "task", "start", task=task.id, node=node.name,
               transformation=task.transformation)
    job_span = spans.begin("job", task.id, node=node.name,
                           transformation=task.transformation,
                           attempt=record.attempt)
    try:
        try:
            # 2. stage/read inputs ----------------------------------------
            t0 = env.now
            # Phase spans use explicit begin/end: three context-manager
            # entries per job attempt add up at 10^5 attempts per run.
            phase = spans.begin("phase", "read", node=node.name, task=task.id)
            try:
                for meta in job.inputs:
                    yield from storage.io("read", node, meta, spans)
                    record.bytes_read += meta.size
            finally:
                spans.end(phase)
            record.read_seconds = env.now - t0

            # 3. compute ----------------------------------------------------
            t0 = env.now
            phase = spans.begin("phase", "compute", node=node.name,
                                task=task.id)
            try:
                cpu = task.cpu_seconds * cpu_jitter_factor
                if cpu > 0:
                    yield env.timeout(cpu)
            finally:
                spans.end(phase)
            record.cpu_seconds = env.now - t0
            if fail_this_attempt:
                record.failed = True
                trace.emit(env.now, "task", "failed", task=task.id,
                           node=node.name, attempt=record.attempt)
                raise TaskFailedError(
                    f"task {task.id} crashed (attempt {record.attempt})")

            # 4. write outputs ------------------------------------------------
            t0 = env.now
            phase = spans.begin("phase", "write", node=node.name,
                                task=task.id)
            try:
                for meta in job.outputs:
                    if record.attempt > 1 \
                            and ns.state(meta.name) is FileState.AVAILABLE:
                        # A previous attempt of this job finished this
                        # output before dying (e.g. node crash between
                        # two writes); write-once forbids redoing it.
                        continue
                    yield from storage.io("write", node, meta, spans)
                    record.bytes_written += meta.size
            finally:
                spans.end(phase)
            record.write_seconds = env.now - t0
        except StorageUnavailableError as exc:
            # Storage retries are exhausted; surface as an ordinary
            # task failure so DAGMan's retry/rescue machinery decides.
            record.failed = True
            trace.emit(env.now, "task", "failed", task=task.id,
                       node=node.name, attempt=record.attempt,
                       reason="storage_unavailable")
            raise TaskFailedError(
                f"task {task.id} lost its storage: {exc}") from exc
    finally:
        if task.memory_bytes > 0:
            node.memory.put(task.memory_bytes)
        record.end_time = env.now
        spans.end(job_span, failed=record.failed)
        trace.emit(env.now, "task", "end", task=task.id, node=node.name,
                   transformation=task.transformation,
                   duration=record.end_time - record.start_time)
