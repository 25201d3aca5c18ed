"""Rule registry and lint runner.

Rules are small AST checkers registered with :func:`register`; the
runner parses each file once, asks every applicable rule for findings,
applies inline suppressions and the optional baseline, and returns a
:class:`~repro.lint.findings.LintReport`.

The determinism contract this enforces is *scoped*: some rules apply
everywhere (mutable default arguments), others only to modules on the
event-ordering path (see :data:`SCHEDULING_PREFIXES`).  A rule declares
its scope by overriding :meth:`Rule.applies_to`.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Type

from .baseline import Baseline
from .findings import Finding, LintReport, Severity
from .suppressions import SuppressionMap

#: Canonical module prefixes that schedule events or order jobs: a
#: nondeterministic iteration here changes *when* things happen, which
#: corrupts every downstream makespan/cost figure.
SCHEDULING_PREFIXES = (
    "repro/simcore/",
    "repro/workflow/",
    "repro/storage/",
    "repro/faults/",
    "repro/cloud/",
)

#: The only modules allowed to touch the event heap directly: the
#: engine owns the queue and the events layer feeds it through
#: ``_queue_event``.
#: The NFS clean-LRU heap is a private min-heap whose entries carry an
#: explicit stamp tie-break, so it preserves the determinism contract
#: this rule protects.
EVENT_QUEUE_OWNERS = (
    "repro/simcore/engine.py",
    "repro/simcore/events.py",
    "repro/storage/nfs.py",
)

#: Packages sanctioned to read the host clock: host-side sweep
#: observability (progress lines, event-log timestamps, crash bundles)
#: and the job service (lease deadlines, submission timestamps, HTTP
#: polling).  SIM001 is switched off here; everywhere else wall-clock
#: reads are flagged, and inside the simulation kernel SIM009
#: additionally bans any reference to these packages.
HOST_OBSERVE_PREFIXES = ("repro/observe/", "repro/service/")

#: The simulation kernel proper: modules whose outputs feed the
#: deterministic telemetry hash-chain.  SIM009 guards this boundary —
#: no wall-clock reads and no ``repro.observe`` references here.
SIM_KERNEL_PREFIXES = (
    "repro/simcore/",
    "repro/storage/",
    "repro/workflow/",
)

#: Host-side packages whose code runs on more than one thread (the
#: ThreadingMixIn WSGI app, the worker/supervisor pair, the monitor
#: callbacks, shared metric instruments).  The SIM010–SIM014 thread-
#: safety rules apply here and only here: the simulation kernel is
#: single-threaded by contract, so lock discipline rules would be
#: noise there.
THREADED_PREFIXES = (
    "repro/service/",
    "repro/observe/",
    "repro/telemetry/",
)


class ModuleContext:
    """Everything a rule may inspect about one source file."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        #: Path as given (forward slashes).
        self.path = path.replace(os.sep, "/")
        self.source = source
        self.tree = tree
        self.suppressions = SuppressionMap(source)
        #: Path rebased at the ``repro/`` package root when present, so
        #: scope checks work for ``src/repro/...``, installed trees,
        #: and test fixtures alike.
        self.canonical = _canonical_path(self.path)

    def in_scheduling_module(self) -> bool:
        """Whether this file is on the event-ordering path."""
        return self.canonical.startswith(SCHEDULING_PREFIXES)

    def is_event_queue_owner(self) -> bool:
        """Whether this file may manipulate the event heap."""
        return self.canonical in EVENT_QUEUE_OWNERS

    def in_host_observe_module(self) -> bool:
        """Whether this file is sanctioned host-side observability."""
        return self.canonical.startswith(HOST_OBSERVE_PREFIXES)

    def in_sim_kernel_module(self) -> bool:
        """Whether this file is inside the simulation kernel proper."""
        return self.canonical.startswith(SIM_KERNEL_PREFIXES)

    def in_threaded_module(self) -> bool:
        """Whether this file runs on the multi-threaded host side."""
        return self.canonical.startswith(THREADED_PREFIXES)


def _canonical_path(path: str) -> str:
    parts = path.split("/")
    for i, part in enumerate(parts):
        if part == "repro":
            return "/".join(parts[i:])
    return path


class Rule:
    """Base class for one lint rule."""

    id: str = "SIM000"
    title: str = ""
    severity: Severity = Severity.ERROR

    def applies_to(self, ctx: ModuleContext) -> bool:
        """Whether this rule runs on ``ctx`` (default: every file)."""
        return True

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield findings for ``ctx``."""
        raise NotImplementedError

    def finding(self, ctx: ModuleContext, node: ast.AST,
                message: str) -> Finding:
        """A finding of this rule at ``node``."""
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=self.id,
            message=message,
            severity=self.severity,
        )


#: rule id -> rule instance, in registration (= numeric) order.
RULES: Dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if cls.id in RULES:
        raise ValueError(f"duplicate rule id {cls.id}")
    RULES[cls.id] = cls()
    return cls


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Expand files/directories into a sorted stream of ``.py`` paths."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if d not in ("__pycache__", ".git")
                    and not d.endswith(".egg-info"))
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        out.append(os.path.join(dirpath, name))
        else:
            out.append(path)
    return iter(sorted(dict.fromkeys(out)))


def lint_source(source: str, path: str = "<string>",
                select: Optional[Iterable[str]] = None) -> List[Finding]:
    """Lint one in-memory source (test/fixture entry point).

    Returns *all* findings, with :attr:`Finding.suppressed` set where an
    inline directive covers them; callers filter as needed.
    """
    tree = ast.parse(source, filename=path)
    ctx = ModuleContext(path, source, tree)
    wanted = set(select) if select is not None else None
    findings: List[Finding] = []
    for rule_id, rule in RULES.items():
        if wanted is not None and rule_id not in wanted:
            continue
        if not rule.applies_to(ctx):
            continue
        for finding in rule.check(ctx):
            if ctx.suppressions.covers(finding.line, finding.rule_id):
                finding = Finding(**{**finding.__dict__, "suppressed": True})
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings


def lint_paths(paths: Sequence[str],
               select: Optional[Iterable[str]] = None,
               baseline: Optional[Baseline] = None) -> LintReport:
    """Lint files/directories and assemble the report."""
    report = LintReport()
    live: List[Finding] = []
    for filepath in iter_python_files(paths):
        try:
            with open(filepath, encoding="utf-8") as fh:
                source = fh.read()
        except OSError as exc:
            report.parse_errors.append((filepath, str(exc)))
            continue
        report.n_files += 1
        try:
            findings = lint_source(source, path=filepath, select=select)
        except SyntaxError as exc:
            report.parse_errors.append((filepath, f"syntax error: {exc}"))
            continue
        for finding in findings:
            (report.suppressed if finding.suppressed else live).append(finding)
    if baseline is not None and baseline.fingerprints:
        new, known = baseline.partition(live)
        report.findings = new
        report.baselined = known
    else:
        report.findings = sorted(
            live, key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return report
