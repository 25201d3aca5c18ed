"""The simulation-invariant rules (SIM001–SIM009, SIM015).

Each rule guards one way a code change can silently break the
determinism contract the paper reproduction rests on: the simulator
must be a pure function of ``(scenario, seed)``.  See
``docs/static-analysis.md`` for the rationale, scope, and fix idiom of
every rule.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .engine import ModuleContext, Rule, register
from .findings import Finding, Severity

# --------------------------------------------------------------------------
# shared AST helpers


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to canonical dotted module paths.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from time import time`` -> ``{"time": "time.time"}``.
    Only module-level imports are tracked — function-local imports of
    the flagged modules are rare and equally caught because the alias
    walk scans every Import node in the file.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = \
                    alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module:
            for alias in node.names:
                aliases[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    return aliases


def _qualified(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Canonical dotted name of a Name/Attribute chain, or None."""
    parts: List[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    root = aliases.get(cur.id, cur.id)
    parts.append(root)
    return ".".join(reversed(parts))


class _ParentMap:
    """Child -> (parent, field-name) links for one tree."""

    def __init__(self, tree: ast.Module) -> None:
        self._parent: Dict[ast.AST, Tuple[ast.AST, str]] = {}
        for parent in ast.walk(tree):
            for field_name, value in ast.iter_fields(parent):
                if isinstance(value, ast.AST):
                    self._parent[value] = (parent, field_name)
                elif isinstance(value, list):
                    for item in value:
                        if isinstance(item, ast.AST):
                            self._parent[item] = (parent, field_name)

    def parent_of(self, node: ast.AST) -> Optional[Tuple[ast.AST, str]]:
        return self._parent.get(node)

    def in_finally(self, node: ast.AST) -> bool:
        """Whether ``node`` sits (transitively) inside a ``finally:``."""
        cur: Optional[ast.AST] = node
        while cur is not None:
            link = self._parent.get(cur)
            if link is None:
                return False
            parent, field_name = link
            if isinstance(parent, ast.Try) and field_name == "finalbody":
                return True
            cur = parent

    def enclosed_by_call_to(self, node: ast.AST, names: Set[str]) -> bool:
        """Whether the *immediate* consumer of ``node`` is a call to one
        of ``names`` (e.g. ``sorted(node)``)."""
        link = self._parent.get(node)
        if link is None:
            return False
        parent, field_name = link
        return (isinstance(parent, ast.Call)
                and field_name == "args"
                and isinstance(parent.func, ast.Name)
                and parent.func.id in names)


# --------------------------------------------------------------------------
# SIM001 — wall-clock access


#: Canonical callables that read the host clock.
_WALL_CLOCK = {
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}


@register
class WallClockRule(Rule):
    """SIM001: wall-clock reads make a run a function of the host.

    ``repro/observe/`` and ``repro/service/`` are exempt: they are the
    sanctioned homes for host-side orchestration telemetry (progress
    lines, event-log timestamps, crash bundles) and the job service
    (lease deadlines, submission timestamps), and SIM009 enforces that
    nothing in the simulation kernel reaches into them.
    """

    id = "SIM001"
    title = "wall-clock access inside the simulator"
    severity = Severity.ERROR

    def applies_to(self, ctx: ModuleContext) -> bool:
        return not ctx.in_host_observe_module()

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        aliases = _import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            if isinstance(node, ast.Name) \
                    and not isinstance(node.ctx, ast.Load):
                continue
            qual = _qualified(node, aliases)
            if qual in _WALL_CLOCK:
                yield self.finding(
                    ctx, node,
                    f"{qual} reads the host clock; simulation time is "
                    f"env.now — a run must be a pure function of "
                    f"(scenario, seed)")


# --------------------------------------------------------------------------
# SIM002 — unseeded randomness


#: numpy.random constructors that take an explicit seed — the only
#: sanctioned way to make a generator (see simcore.rand.substream).
_SEEDED_CONSTRUCTORS = {
    "default_rng", "Generator", "PCG64", "PCG64DXSM", "Philox", "SFC64",
    "SeedSequence", "BitGenerator",
}


@register
class UnseededRandomRule(Rule):
    """SIM002: global random streams break seed reproducibility."""

    id = "SIM002"
    title = "unseeded / global random stream"
    severity = Severity.ERROR

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        aliases = _import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            qual = _qualified(node, aliases)
            if qual is None:
                continue
            if qual.startswith("random."):
                yield self.finding(
                    ctx, node,
                    f"{qual} draws from the global random stream; use a "
                    f"named substream from simcore.rand.substream(seed, ...)")
            elif qual.startswith("numpy.random."):
                leaf = qual.rsplit(".", 1)[1]
                if leaf not in _SEEDED_CONSTRUCTORS:
                    yield self.finding(
                        ctx, node,
                        f"{qual} uses numpy's global random state; build "
                        f"an explicitly seeded generator via "
                        f"simcore.rand.substream(seed, ...)")


# --------------------------------------------------------------------------
# SIM003 — unordered-collection iteration on scheduling paths


_SET_TYPE_NAMES = {
    "set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet",
    "typing.Set", "typing.FrozenSet", "typing.AbstractSet",
    "typing.MutableSet",
}
#: Set methods that return sets (hash-ordered when iterated).
_SET_RETURNING_METHODS = {
    "intersection", "union", "difference", "symmetric_difference",
}


@register
class UnorderedIterationRule(Rule):
    """SIM003: hash-ordered iteration on an event-ordering path.

    Iterating a ``set``/``frozenset`` yields elements in hash order,
    which for strings depends on ``PYTHONHASHSEED``: any schedule
    derived from it differs between processes without failing a test.
    Wrap the iterable in ``sorted(...)`` with a deterministic key.

    Dict views are deliberately *not* flagged: dicts preserve insertion
    order on every supported Python, so a deterministic program inserts
    — and therefore iterates — deterministically.
    """

    id = "SIM003"
    title = "unordered set iteration on a scheduling path"
    severity = Severity.ERROR

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_scheduling_module()

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        parents = _ParentMap(ctx.tree)
        set_names, set_attrs = self._collect_set_symbols(ctx.tree)

        def is_set_expr(expr: ast.AST) -> bool:
            if isinstance(expr, (ast.Set, ast.SetComp)):
                return True
            if isinstance(expr, ast.Call):
                if isinstance(expr.func, ast.Name) \
                        and expr.func.id in ("set", "frozenset"):
                    return True
                if isinstance(expr.func, ast.Attribute) \
                        and expr.func.attr in _SET_RETURNING_METHODS:
                    return True
                return False
            if isinstance(expr, ast.BinOp) \
                    and isinstance(expr.op, (ast.BitAnd, ast.BitOr,
                                             ast.Sub, ast.BitXor)):
                return is_set_expr(expr.left) or is_set_expr(expr.right)
            if isinstance(expr, ast.Name):
                return expr.id in set_names
            if isinstance(expr, ast.Attribute):
                return expr.attr in set_attrs
            return False

        def flag(expr: ast.AST, how: str) -> Iterator[Finding]:
            if is_set_expr(expr):
                yield self.finding(
                    ctx, expr,
                    f"{how} iterates a set in hash order on a scheduling "
                    f"path; wrap it in sorted(...) with an explicit key "
                    f"so event order cannot depend on PYTHONHASHSEED")

        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield from flag(node.iter, "for loop")
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    yield from flag(gen.iter, "comprehension")
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name):
                name = node.func.id
                if name in ("min", "max") and node.args \
                        and any(kw.arg == "key" for kw in node.keywords):
                    # min/max over a set is order-free for a total
                    # order, but a key function ties break by
                    # iteration order.
                    yield from flag(
                        node.args[0], f"{name}() with a key function")
                elif name in ("list", "tuple", "enumerate") and node.args \
                        and not parents.enclosed_by_call_to(
                            node, {"sorted"}):
                    yield from flag(node.args[0], f"{name}()")

    @staticmethod
    def _collect_set_symbols(tree: ast.Module) -> Tuple[Set[str], Set[str]]:
        """Names / attribute names statically known to hold sets."""
        names: Set[str] = set()
        attrs: Set[str] = set()

        def annotation_is_set(ann: Optional[ast.AST]) -> bool:
            if ann is None:
                return False
            target = ann.value if isinstance(ann, ast.Subscript) else ann
            if isinstance(target, ast.Name):
                return target.id in _SET_TYPE_NAMES
            if isinstance(target, ast.Attribute):
                return f"{getattr(target.value, 'id', '?')}.{target.attr}" \
                    in _SET_TYPE_NAMES
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                head = ann.value.split("[", 1)[0].strip()
                return head in _SET_TYPE_NAMES
            return False

        def value_is_set(value: Optional[ast.AST]) -> bool:
            if isinstance(value, (ast.Set, ast.SetComp)):
                return True
            return (isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id in ("set", "frozenset"))

        for node in ast.walk(tree):
            if isinstance(node, ast.AnnAssign):
                if annotation_is_set(node.annotation):
                    if isinstance(node.target, ast.Name):
                        names.add(node.target.id)
                    elif isinstance(node.target, ast.Attribute):
                        attrs.add(node.target.attr)
            elif isinstance(node, ast.Assign) and value_is_set(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
                    elif isinstance(target, ast.Attribute):
                        attrs.add(target.attr)
            elif isinstance(node, ast.arg) \
                    and annotation_is_set(node.annotation):
                names.add(node.arg)
        return names, attrs


# --------------------------------------------------------------------------
# SIM004 — float equality on sim-time values


_TIME_WORDS = {"now", "makespan", "deadline", "at"}


def _is_timeish(node: ast.AST) -> bool:
    ident = None
    if isinstance(node, ast.Name):
        ident = node.id
    elif isinstance(node, ast.Attribute):
        ident = node.attr
    if ident is None:
        return False
    low = ident.lower()
    return "time" in low or low in _TIME_WORDS


def _is_zero_literal(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) \
        and isinstance(node.value, (int, float)) \
        and not isinstance(node.value, bool) and node.value == 0


@register
class FloatTimeEqualityRule(Rule):
    """SIM004: ``==`` on accumulated sim-time is numerically fragile.

    Simulation timestamps are sums of float intervals; two paths to the
    "same" instant can differ in the last ulp, so exact equality flips
    with arithmetic reassociation.  Compare against an explicit
    tolerance, or restructure to avoid the comparison.  Equality with
    literal ``0`` / ``0.0`` is allowed: a zero sentinel assigned exactly
    compares exactly.
    """

    id = "SIM004"
    title = "float equality on a sim-time value"
    severity = Severity.WARNING

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_zero_literal(left) or _is_zero_literal(right):
                    continue
                if _is_timeish(left) or _is_timeish(right):
                    sym = "==" if isinstance(op, ast.Eq) else "!="
                    yield self.finding(
                        ctx, node,
                        f"exact float {sym} on a sim-time value; "
                        f"timestamps are float sums — compare with a "
                        f"tolerance or restructure the check")


# --------------------------------------------------------------------------
# SIM005 — resource acquired without try/finally release


@register
class UnprotectedReleaseRule(Rule):
    """SIM005: a ``release()`` outside ``finally`` leaks on interrupt.

    Condor slots are interrupted by node crashes at any yield point; a
    ``request()`` whose ``release()`` is not in a ``finally:`` block
    leaks capacity when the interrupt lands between the two, deadlocking
    every later waiter.  Follow the idiom::

        req = resource.request()
        yield req
        try:
            ...
        finally:
            resource.release(req)
    """

    id = "SIM005"
    title = "resource release not protected by try/finally"
    severity = Severity.ERROR

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_scheduling_module()

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        parents = _ParentMap(ctx.tree)
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            requests: List[ast.Call] = []
            releases: List[ast.Call] = []
            for node in ast.walk(func):
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute):
                    if node.func.attr == "request":
                        requests.append(node)
                    elif node.func.attr == "release":
                        releases.append(node)
            if not requests or not releases:
                # No release at all usually means ownership moves
                # elsewhere (the request is returned/stored); that is a
                # design choice this rule cannot judge statically.
                continue
            for release in releases:
                if not parents.in_finally(release):
                    yield self.finding(
                        ctx, release,
                        "release() outside try/finally: an interrupt "
                        "between request() and release() leaks the "
                        "resource and deadlocks later waiters")


# --------------------------------------------------------------------------
# SIM006 — mutable default arguments


_MUTABLE_CALLS = {"list", "dict", "set", "bytearray"}


@register
class MutableDefaultRule(Rule):
    """SIM006: mutable defaults alias state across calls (and runs)."""

    id = "SIM006"
    title = "mutable default argument"
    severity = Severity.ERROR

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = list(func.args.defaults) \
                + [d for d in func.args.kw_defaults if d is not None]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        ctx, default,
                        "mutable default argument is shared across "
                        "calls; default to None and construct inside "
                        "the function")

    @staticmethod
    def _is_mutable(node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _MUTABLE_CALLS
                and not node.args and not node.keywords)


# --------------------------------------------------------------------------
# SIM007 — broad except that can swallow simulator control flow


@register
class BroadExceptRule(Rule):
    """SIM007: a broad handler can swallow ``simcore.errors``.

    ``Interrupt`` (node crash delivery) and ``SimulationDeadlock``
    derive from :class:`Exception`; a bare/broad ``except`` on a
    process path absorbs them and the crash semantics silently
    disappear.  Handlers that visibly propagate — a bare ``raise``, a
    ``raise ... from exc``, or failing an event with ``.fail(exc)`` —
    are allowed.
    """

    id = "SIM007"
    title = "bare/broad except can swallow simcore.errors"
    severity = Severity.WARNING

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = self._broad_name(node.type)
            if broad is None:
                continue
            if self._propagates(node):
                continue
            label = broad if node.type is not None else "bare except"
            yield self.finding(
                ctx, node,
                f"{label} can swallow simcore.errors (Interrupt, "
                f"SimulationDeadlock); catch specific exceptions, "
                f"re-raise, or fail the owning event")

    @staticmethod
    def _broad_name(type_node: Optional[ast.AST]) -> Optional[str]:
        if type_node is None:
            return "bare except"
        candidates = type_node.elts if isinstance(type_node, ast.Tuple) \
            else [type_node]
        for cand in candidates:
            name = cand.id if isinstance(cand, ast.Name) else \
                cand.attr if isinstance(cand, ast.Attribute) else None
            if name in ("Exception", "BaseException"):
                return f"except {name}"
        return None

    @staticmethod
    def _propagates(handler: ast.ExceptHandler) -> bool:
        bound = handler.name
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if bound is not None and isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "fail" \
                    and any(isinstance(a, ast.Name) and a.id == bound
                            for a in node.args):
                return True
        return False


# --------------------------------------------------------------------------
# SIM008 — event-queue manipulation outside the simcore kernel


@register
class EventQueueRule(Rule):
    """SIM008: only the simcore kernel may touch the event heap.

    The engine's ``(time, priority, seq, event)`` heap entries are the
    *entire* tie-break contract; pushing into it (or re-heapifying a
    waiter queue) anywhere else bypasses the sequence counter and makes
    same-timestamp ordering fall back to object identity — i.e. memory
    addresses.  Schedule through ``env.timeout`` / ``env.process`` /
    resource requests instead.
    """

    id = "SIM008"
    title = "event-queue manipulation outside simcore"
    severity = Severity.ERROR

    def applies_to(self, ctx: ModuleContext) -> bool:
        return not ctx.is_event_queue_owner()

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        aliases = _import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "heapq":
                        yield self.finding(
                            ctx, node,
                            "heapq outside the simcore kernel: direct "
                            "heap manipulation bypasses the engine's "
                            "deterministic (time, priority, seq) "
                            "tie-break")
            elif isinstance(node, ast.ImportFrom) and node.module == "heapq":
                yield self.finding(
                    ctx, node,
                    "heapq outside the simcore kernel: direct heap "
                    "manipulation bypasses the engine's deterministic "
                    "(time, priority, seq) tie-break")
            elif isinstance(node, ast.Attribute):
                if node.attr == "_queue_event":
                    yield self.finding(
                        ctx, node,
                        "_queue_event is the engine's private "
                        "scheduling API; use env.timeout/env.process "
                        "or an Event instead")
                elif node.attr == "_queue" and self._on_env(node.value):
                    yield self.finding(
                        ctx, node,
                        "direct access to the engine's event heap; "
                        "use the public Environment API")
                qual = _qualified(node, aliases)
                if qual is not None and qual.startswith("heapq."):
                    yield self.finding(
                        ctx, node,
                        f"{qual} outside the simcore kernel: direct "
                        f"heap manipulation bypasses the engine's "
                        f"deterministic tie-break")

    @staticmethod
    def _on_env(value: ast.AST) -> bool:
        if isinstance(value, ast.Name):
            return value.id == "env"
        if isinstance(value, ast.Attribute):
            return value.attr == "env"
        return False


# --------------------------------------------------------------------------
# SIM009 — host-side observability leaking into the simulation kernel

#: Top-level ``repro`` subpackages sanctioned to touch the host
#: (mirrors ``engine.HOST_OBSERVE_PREFIXES``): the kernel must not
#: reference any of them.
_HOST_SIDE_PACKAGES = frozenset({"observe", "service"})


@register
class HostObservabilityLeakRule(Rule):
    """SIM009: the simulation kernel must not see host-side telemetry.

    ``repro/observe/`` and ``repro/service/`` are where wall-clock
    reads legitimately live (sweep progress, event-log timestamps,
    crash bundles, job-lease deadlines) — but that sanction is
    one-directional.  Inside the kernel proper (``simcore/``,
    ``storage/``, ``workflow/``) any wall-clock read, or any reference
    to those host-side packages, is a channel through which host time
    could reach simulation state and silently break the telemetry
    hash-chain's bit-identity across machines.  Host measurements
    belong in the orchestration layer (``experiments/runner.py``),
    which observes workers from outside.
    """

    id = "SIM009"
    title = "host-side observability reference inside the sim kernel"
    severity = Severity.ERROR

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_sim_kernel_module()

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        aliases = _import_aliases(ctx.tree)
        parents = _ParentMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if self._is_observe_module(alias.name):
                        yield self._observe_finding(ctx, node, alias.name)
            elif isinstance(node, ast.ImportFrom):
                yield from self._check_import_from(ctx, node)
            elif isinstance(node, (ast.Attribute, ast.Name)):
                if isinstance(node, ast.Name) \
                        and not isinstance(node.ctx, ast.Load):
                    continue
                qual = _qualified(node, aliases)
                if qual is None:
                    continue
                if qual in _WALL_CLOCK:
                    yield self.finding(
                        ctx, node,
                        f"{qual} reads the host clock inside the sim "
                        f"kernel; host-side probes live in "
                        f"repro.observe and may only be used by the "
                        f"orchestration layer")
                elif self._is_observe_module(qual) \
                        and not self._inside_attribute(parents, node):
                    # Flag only the outermost node of a dotted chain so
                    # ``hostclock.wall_now()`` is one finding, not two.
                    yield self._observe_finding(ctx, node, qual)

    def _check_import_from(self, ctx: ModuleContext,
                           node: ast.ImportFrom) -> Iterator[Finding]:
        module = node.module or ""
        if node.level == 0:
            if self._is_observe_module(module):
                yield self._observe_finding(ctx, node, module)
            return
        # Relative import: ``from ..observe import ...`` or
        # ``from .. import observe`` (likewise ``service``).
        head = module.split(".", 1)[0]
        if head in _HOST_SIDE_PACKAGES:
            yield self._observe_finding(ctx, node,
                                        f"{'.' * node.level}{module}")
        elif not module:
            for alias in node.names:
                if alias.name in _HOST_SIDE_PACKAGES:
                    yield self._observe_finding(
                        ctx, node,
                        f"{'.' * node.level} import {alias.name}")

    @staticmethod
    def _is_observe_module(name: str) -> bool:
        return any(name == f"repro.{pkg}" or name.startswith(f"repro.{pkg}.")
                   for pkg in _HOST_SIDE_PACKAGES)

    @staticmethod
    def _inside_attribute(parents: _ParentMap, node: ast.AST) -> bool:
        link = parents.parent_of(node)
        return link is not None and isinstance(link[0], ast.Attribute) \
            and link[1] == "value"

    def _observe_finding(self, ctx: ModuleContext, node: ast.AST,
                         what: str) -> Finding:
        return self.finding(
            ctx, node,
            f"{what}: the sim kernel must not reference host-side "
            f"observability — wall-clock telemetry flows one way, from "
            f"the orchestration layer's monitor, never into the "
            f"deterministic kernel")


#: numpy constructors whose result is a fresh buffer; assigning one at
#: module or class scope creates scratch state shared by every kernel
#: instance in the process.
_NUMPY_ARRAY_FACTORIES = frozenset({
    "array", "arange", "empty", "empty_like", "frombuffer", "fromiter",
    "full", "full_like", "linspace", "ones", "ones_like", "zeros",
    "zeros_like",
})


@register
class Sim015NoSharedNumpyScratch(Rule):
    """SIM015: numpy scratch arrays must be owned per instance.

    A kernel that keeps numpy scratch buffers mutates them in place
    on every event.  A buffer allocated at module or
    class scope is *aliased across every* ``Environment`` in the
    process: a serial sweep's second cell would inherit the first
    cell's residues, and any concurrent use corrupts both — silently,
    since the numbers stay plausible.  Scratch arrays belong on the
    instance (allocated in ``__init__`` or a method), whose lifetime
    is tied to exactly one environment.
    """

    id = "SIM015"
    title = "shared numpy scratch array in the sim kernel"
    severity = Severity.ERROR

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_sim_kernel_module()

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        aliases = _import_aliases(ctx.tree)
        scopes: List[Tuple[str, List[ast.stmt]]] = \
            [("module scope", ctx.tree.body)]
        for node in ctx.tree.body:
            if isinstance(node, ast.ClassDef):
                scopes.append((f"class {node.name}", node.body))
        for where, body in scopes:
            for stmt in body:
                if isinstance(stmt, ast.Assign):
                    value = stmt.value
                elif isinstance(stmt, ast.AnnAssign) and stmt.value:
                    value = stmt.value
                else:
                    continue
                factory = self._array_factory(value, aliases)
                if factory is not None:
                    yield self.finding(
                        ctx, stmt,
                        f"{factory}(...) assigned at {where} is scratch "
                        f"state aliased across every Environment in the "
                        f"process; allocate the buffer per instance "
                        f"(e.g. in __init__) so each environment owns "
                        f"its own")

    @staticmethod
    def _array_factory(value: ast.AST,
                       aliases: Dict[str, str]) -> Optional[str]:
        if not isinstance(value, ast.Call):
            return None
        qual = _qualified(value.func, aliases)
        if qual is None or "." not in qual:
            return None
        head, _dot, leaf = qual.rpartition(".")
        if head == "numpy" and leaf in _NUMPY_ARRAY_FACTORIES:
            return qual
        return None
