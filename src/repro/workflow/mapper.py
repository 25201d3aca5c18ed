"""The Pegasus mapper: abstract workflow → executable plan.

Pegasus turns a resource-independent workflow description into a
concrete plan for the target site.  For this study the interesting
planning decisions are:

* resolving every logical file against the deployed storage system
  (inputs pre-staged, outputs declared — the paper stages input data
  before the clock starts and does not transfer outputs back);
* wrapping jobs with S3 GET/PUT steps when the storage system has no
  POSIX interface (§IV.A: "The workflow management system was modified
  to wrap each job with the necessary GET and PUT operations");
* precomputing the dependency adjacency so DAGMan's release loop is
  O(edges) over the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from ..storage.base import StorageSystem
from ..storage.files import FileMetadata
from .dag import Task, Workflow


@dataclass
class ExecutableJob:
    """A planned job: a task with resolved file metadata."""

    task: Task
    inputs: List[FileMetadata]
    outputs: List[FileMetadata]
    #: True when the job is wrapped with object-store GET/PUT steps.
    s3_wrapped: bool = False

    @property
    def id(self) -> str:
        """The underlying task id."""
        return self.task.id

    def input_bytes(self) -> float:
        """Total bytes this job reads."""
        return sum(m.size for m in self.inputs)

    def output_bytes(self) -> float:
        """Total bytes this job writes."""
        return sum(m.size for m in self.outputs)


@dataclass
class ExecutablePlan:
    """The mapper's output: jobs plus precomputed dependency structure."""

    workflow: Workflow
    storage: StorageSystem
    jobs: Dict[str, ExecutableJob]
    parents: Dict[str, Set[str]]
    children: Dict[str, Set[str]]

    @property
    def n_jobs(self) -> int:
        """Number of planned jobs."""
        return len(self.jobs)

    def roots(self) -> List[str]:
        """Jobs with no unfinished prerequisites at the start."""
        return [jid for jid, ps in self.parents.items() if not ps]


class PegasusMapper:
    """Plans abstract workflows onto a deployed storage system."""

    def plan(self, workflow: Workflow, storage: StorageSystem) -> ExecutablePlan:
        """Produce an executable plan.

        Validates the workflow, registers every file with the storage
        system (staging inputs, declaring outputs), and wraps jobs for
        object stores.
        """
        workflow.validate()

        # File registration: inputs are pre-staged (the paper excludes
        # input-transfer time from makespans), products are declared.
        for name, meta in workflow.files.items():
            if name in workflow.input_files:
                storage.stage_input(meta)
            else:
                storage.declare_output(meta)

        wrap = storage.mode == "object"
        jobs: Dict[str, ExecutableJob] = {}
        for task in workflow.tasks.values():
            jobs[task.id] = ExecutableJob(
                task=task,
                inputs=[workflow.files[n] for n in task.inputs],
                outputs=[workflow.files[n] for n in task.outputs],
                s3_wrapped=wrap,
            )

        parents = {tid: workflow.parents(tid) for tid in workflow.tasks}
        children: Dict[str, Set[str]] = {tid: set() for tid in workflow.tasks}
        for tid, ps in parents.items():
            for p in ps:
                children[p].add(tid)

        return ExecutablePlan(
            workflow=workflow,
            storage=storage,
            jobs=jobs,
            parents=parents,
            children=children,
        )
