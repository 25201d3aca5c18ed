"""Abstract workflow DAGs.

A workflow is a set of tasks linked by data-flow dependencies: each
task reads input files and produces output files, and a task may start
only when every one of its input files is available (pre-staged
workflow input, or produced by an earlier task).  This mirrors the
Pegasus abstract-workflow (DAX) model the paper plans with.

Dependencies are *derived from the files*: if task B reads a file task
A writes, B depends on A.  Explicit control-flow edges can be added for
the rare tasks ordered without a data exchange.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..storage.files import FileMetadata


class WorkflowValidationError(ValueError):
    """The workflow graph violates a structural requirement."""


@dataclass
class Task:
    """One computational step of a workflow.

    Attributes
    ----------
    id:
        Unique task id within the workflow.
    transformation:
        The executable's logical name (e.g. ``"mProjectPP"``); used by
        the profiler to aggregate per-transformation statistics.
    cpu_seconds:
        Pure computation time on one core (exclusive of all I/O).
    memory_bytes:
        Peak resident memory; the executor claims this from the node's
        memory container for the task's duration (this is what makes
        Broadband memory-limited).
    inputs / outputs:
        Logical file names read / written.
    """

    id: str
    transformation: str
    cpu_seconds: float
    memory_bytes: float = 0.0
    inputs: List[str] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.cpu_seconds < 0:
            raise ValueError(f"task {self.id}: cpu_seconds must be >= 0")
        if self.memory_bytes < 0:
            raise ValueError(f"task {self.id}: memory_bytes must be >= 0")


class Workflow:
    """An abstract (resource-independent) workflow."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.tasks: Dict[str, Task] = {}
        self.files: Dict[str, FileMetadata] = {}
        #: Names of pre-staged workflow inputs (no producer task).
        self.input_files: Set[str] = set()
        #: Temporary files: excluded from output accounting even when
        #: no task consumes them (the paper reports Montage's output
        #: "excluding temporary data").
        self.temp_files: Set[str] = set()
        #: Files that are final products even though some task also
        #: consumes them (e.g. Epigenome's merged map).
        self.final_files: Set[str] = set()
        #: Extra control-flow-only edges (parent_id, child_id).
        self.control_edges: Set[Tuple[str, str]] = set()
        self._producer: Dict[str, str] = {}
        # Set by freeze(): the graph is immutable and pre-validated,
        # with the parent map computed once (see freeze()).
        self._frozen = False
        self._cached_parents: Optional[Dict[str, Set[str]]] = None

    # -- construction ---------------------------------------------------------

    def add_file(self, name: str, size: float,
                 is_input: bool = False,
                 temporary: bool = False,
                 final: bool = False) -> FileMetadata:
        """Declare a logical file; inputs are pre-staged data.

        ``temporary`` excludes an unconsumed product from the output
        accounting; ``final`` forces a consumed product into it.
        """
        self._check_mutable()
        if is_input and (temporary or final):
            raise WorkflowValidationError(
                f"file {name!r}: inputs cannot be temporary or final")
        meta = FileMetadata(name, size)
        existing = self.files.get(name)
        if existing is not None and existing != meta:
            raise WorkflowValidationError(
                f"file {name!r} redefined with a different size")
        self.files[name] = meta
        if is_input:
            self.input_files.add(name)
        if temporary:
            self.temp_files.add(name)
        if final:
            self.final_files.add(name)
        return meta

    def add_task(self, task: Task) -> Task:
        """Add a task; its files must have been declared already."""
        self._check_mutable()
        if task.id in self.tasks:
            raise WorkflowValidationError(f"duplicate task id {task.id!r}")
        for name in list(task.inputs) + list(task.outputs):
            if name not in self.files:
                raise WorkflowValidationError(
                    f"task {task.id}: undeclared file {name!r}")
        for name in task.outputs:
            owner = self._producer.get(name)
            if owner is not None:
                raise WorkflowValidationError(
                    f"file {name!r} produced by both {owner!r} and {task.id!r}")
            if name in self.input_files:
                raise WorkflowValidationError(
                    f"task {task.id} writes workflow input {name!r}")
            self._producer[name] = task.id
        self.tasks[task.id] = task
        return task

    def add_control_edge(self, parent_id: str, child_id: str) -> None:
        """Order two tasks without a data dependency."""
        self._check_mutable()
        for tid in (parent_id, child_id):
            if tid not in self.tasks:
                raise WorkflowValidationError(f"unknown task {tid!r}")
        self.control_edges.add((parent_id, child_id))

    # -- freezing ----------------------------------------------------------------

    def _check_mutable(self) -> None:
        if self._frozen:
            raise WorkflowValidationError(
                f"workflow {self.name!r} is frozen; instantiate a fresh "
                f"copy to modify it")

    def freeze(self) -> "Workflow":
        """Seal the graph: validate once, precompute the parent map.

        A frozen workflow rejects further ``add_*`` calls, so it can be
        safely shared across many experiment runs (nothing in the
        execution path mutates a workflow — planning state lives in the
        plan, file state in the storage namespace).  :meth:`validate`
        and :meth:`parents` become O(1)-ish lookups, which is what
        makes cached app templates cheap to re-instantiate.
        Idempotent; returns ``self`` for chaining.
        """
        if self._frozen:
            return self
        self.validate()
        self._cached_parents = {tid: self.parents(tid) for tid in self.tasks}
        self._frozen = True
        return self

    # -- structure ----------------------------------------------------------------

    def producer_of(self, file_name: str) -> Optional[str]:
        """The task producing ``file_name`` (None for workflow inputs)."""
        return self._producer.get(file_name)

    def parents(self, task_id: str) -> Set[str]:
        """Ids of tasks that must finish before ``task_id`` can start."""
        cached = self._cached_parents
        if cached is not None:
            # Return a copy: callers (the mapper) hand these sets to
            # planning structures that must not alias template state.
            return set(cached[task_id])
        task = self.tasks[task_id]
        parents = {
            self._producer[f] for f in task.inputs if f in self._producer
        }
        # Iteration order cannot escape: the results land in a set.
        parents.update(
            p for p, c in self.control_edges if c == task_id  # lint: ignore[SIM003]
        )
        parents.discard(task_id)
        return parents

    def children(self, task_id: str) -> Set[str]:
        """Ids of tasks that depend on ``task_id``."""
        outs = set(self.tasks[task_id].outputs)
        kids = {
            t.id for t in self.tasks.values()
            if t.id != task_id and outs.intersection(t.inputs)
        }
        # Iteration order cannot escape: the results land in a set.
        kids.update(
            c for p, c in self.control_edges if p == task_id  # lint: ignore[SIM003]
        )
        return kids

    def validate(self) -> None:
        """Check structural soundness; raises on problems.

        * every non-input file has a producer or is a declared input;
        * the dependency graph is acyclic;
        * every task's inputs are reachable.

        A frozen workflow was validated when it was sealed and cannot
        have changed since, so re-validation is skipped.
        """
        if self._frozen:
            return
        for task in self.tasks.values():
            for name in task.inputs:
                if name not in self.input_files and name not in self._producer:
                    raise WorkflowValidationError(
                        f"task {task.id}: input {name!r} has no producer and "
                        f"is not a workflow input")
        self.topological_order()  # raises on cycles

    def topological_order(self) -> List[str]:
        """Task ids in a valid execution order (Kahn's algorithm)."""
        indeg = {tid: 0 for tid in self.tasks}
        children: Dict[str, List[str]] = {tid: [] for tid in self.tasks}
        for tid in self.tasks:
            for parent in self.parents(tid):
                indeg[tid] += 1
                children[parent].append(tid)
        ready = sorted(tid for tid, d in indeg.items() if d == 0)
        order: List[str] = []
        while ready:
            tid = ready.pop()
            order.append(tid)
            for child in children[tid]:
                indeg[child] -= 1
                if indeg[child] == 0:
                    ready.append(child)
        if len(order) != len(self.tasks):
            raise WorkflowValidationError(
                f"workflow {self.name!r} contains a dependency cycle")
        return order

    def levels(self) -> Dict[str, int]:
        """Each task's depth (longest path from any root)."""
        level: Dict[str, int] = {}
        for tid in self.topological_order():
            ps = self.parents(tid)
            level[tid] = 1 + max((level[p] for p in ps), default=-1)
        return level

    # -- summary stats ---------------------------------------------------------------

    @property
    def n_tasks(self) -> int:
        """Number of tasks."""
        return len(self.tasks)

    @property
    def n_files(self) -> int:
        """Number of logical files (inputs + intermediates + outputs)."""
        return len(self.files)

    def input_bytes(self) -> float:
        """Total pre-staged input data.

        Summed in sorted name order: float addition is not associative,
        so summing in set hash order would let the last ulp of this
        figure vary with ``PYTHONHASHSEED``.
        """
        return sum(self.files[n].size for n in sorted(self.input_files))

    def output_bytes(self) -> float:
        """Total bytes of workflow products.

        A file counts when it is marked ``final``, or when it is
        terminal (never consumed by any task) and neither a workflow
        input nor marked ``temporary``.
        """
        consumed: Set[str] = set()
        for t in self.tasks.values():
            consumed.update(t.inputs)
        return sum(
            meta.size for name, meta in self.files.items()
            if name in self.final_files
            or (name not in consumed
                and name not in self.input_files
                and name not in self.temp_files)
        )

    def intermediate_bytes(self) -> float:
        """Bytes of files both produced and consumed inside the workflow."""
        consumed: Set[str] = set()
        for t in self.tasks.values():
            consumed.update(t.inputs)
        return sum(
            meta.size for name, meta in self.files.items()
            if name in consumed and name in self._producer
        )

    def total_cpu_seconds(self) -> float:
        """Sum of task compute times."""
        return sum(t.cpu_seconds for t in self.tasks.values())

    def describe(self) -> str:
        """One-line summary used by the CLI and examples."""
        return (f"{self.name}: {self.n_tasks} tasks, {self.n_files} files, "
                f"{self.input_bytes() / 1e9:.1f} GB in, "
                f"{self.output_bytes() / 1e9:.1f} GB out")

    def __repr__(self) -> str:
        return f"<Workflow {self.describe()}>"
