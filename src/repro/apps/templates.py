"""Cached, immutable workflow templates.

Building a paper application is not free — Montage alone is a
10,429-task DAG whose construction, validation, and dependency
derivation cost a measurable slice of a simulated cell.  Sweeps
(``repro-ec2 figure``, fault sweeps, the benchmark suite) run dozens of
cells of the *same* application, and the obvious
``APP_BUILDERS[app]()`` call rebuilt the whole DAG for every one.

A :class:`WorkflowTemplate` builds the application once, freezes the
resulting :class:`~repro.workflow.dag.Workflow` (validated, parent map
precomputed, further mutation rejected), and hands the shared instance
to every run.  Sharing is sound because execution never mutates a
workflow: planning state lives in the
:class:`~repro.workflow.mapper.ExecutablePlan`, file lifecycle state in
the storage namespace, and :class:`~repro.storage.files.FileMetadata`
is a frozen dataclass.  The freeze makes the contract enforceable
rather than conventional — any future code that tries to mutate a
template-backed workflow fails loudly instead of corrupting later runs.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..workflow.dag import Workflow
from . import APP_BUILDERS


class WorkflowTemplate:
    """One application, built once, instantiable per run for free."""

    def __init__(self, build: Callable[[], Workflow],
                 name: Optional[str] = None) -> None:
        self._build = build
        self._name = name
        self._workflow: Optional[Workflow] = None

    @property
    def name(self) -> str:
        """Template label (the app name, or the workflow's own name)."""
        if self._name is not None:
            return self._name
        return self.instantiate().name

    def instantiate(self) -> Workflow:
        """The frozen workflow (built and sealed on first use)."""
        wf = self._workflow
        if wf is None:
            wf = self._workflow = self._build().freeze()
        return wf


#: Lazily populated app-name -> template cache (one per process).
_TEMPLATES: Dict[str, WorkflowTemplate] = {}


def app_template(name: str) -> WorkflowTemplate:
    """The cached template for a paper application.

    Raises ``ValueError`` for unknown names, mirroring
    :func:`repro.apps.build_app`.
    """
    tpl = _TEMPLATES.get(name)
    if tpl is None:
        try:
            builder = APP_BUILDERS[name]
        except KeyError:
            known = ", ".join(sorted(APP_BUILDERS))
            raise ValueError(
                f"unknown application {name!r}; known: {known}") from None
        tpl = _TEMPLATES[name] = WorkflowTemplate(builder, name=name)
    return tpl
