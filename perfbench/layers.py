"""Fold a cProfile table into the simulator's layers.

A pstats table maps ``(filename, lineno, funcname)`` to
``(cc, nc, tt, ct, callers)``, where ``callers`` maps each calling
function to the ``(nc, cc, tt, ct)`` of that one call edge.  This module
turns such a table into per-layer self time and a handful of counts:

* A function defined in the ``repro`` package belongs to the layer of
  its module (:data:`MODULE_LAYERS`, longest prefix wins).
* Everything else -- C builtins such as ``heapq.heappush`` and list
  methods, the standard library, numpy -- is *foreign*.  Its self time
  is charged to the layers of its callers, split by the self time spent
  on each call edge and followed through foreign callers until a
  package function is reached.  Time with no caller to follow (a
  top-level foreign function, or an edge closing a cycle of foreign
  callers) is charged to ``other``.  So the layers' self times always
  sum to the table's total self time.
* A count is the number of calls of one named function, optionally only
  the calls made from some modules.  A count whose function can no longer
  be imported reports ``None``, never 0: 0 means the function exists
  but was not called.

Nothing here imports ``repro``; the tests run on synthetic tables.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

FuncKey = Tuple[str, int, str]
Table = Mapping[FuncKey, Tuple[Any, ...]]

#: Module path relative to the package directory -> layer.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("simcore/engine.py", "simcore.engine"),
    ("simcore/events.py", "simcore.events"),
    ("simcore/flownet", "simcore.flownet"),  # flownet.py, flownet_legacy.py
    ("simcore/pipes.py", "simcore.pipes"),
    ("simcore/resources.py", "simcore.resources"),
    ("simcore/tracing.py", "telemetry"),
    ("simcore/", "simcore.engine"),  # errors, rand
    ("storage/", "storage"),
    ("cloud/", "cloud"),
    ("cost/", "cloud"),
    ("workflow/", "workflow"),
    ("apps/", "workflow"),
    ("faults/", "workflow"),
    ("telemetry/", "telemetry"),
    ("experiments/", "experiments"),
    ("observe/", "experiments"),
)
OTHER = "other"
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    [layer for _, layer in MODULE_LAYERS] + [OTHER]))
_BY_LENGTH = sorted(MODULE_LAYERS, key=lambda item: -len(item[0]))


@dataclass(frozen=True)
class Count:
    """Calls of ``module.qualname``; with ``via``, only the calls made
    from functions defined in those package-relative module paths."""

    name: str
    module: str
    qualname: str
    via: Tuple[str, ...] = ()


#: Counts taken from the profile of one iteration.
COUNTS: Tuple[Count, ...] = (
    Count("simcore.engine.events", "heapq", "heappop",
          via=("simcore/engine.py",)),
    # Events schedule themselves (Event.succeed, Timeout.__init__).
    Count("simcore.engine.heap_pushes", "heapq", "heappush",
          via=("simcore/engine.py", "simcore/events.py")),
    Count("simcore.engine.deferred_flushes", "repro.simcore.engine",
          "Environment._run_deferred"),
    Count("simcore.events.resumes", "repro.simcore.events", "Process._resume"),
    Count("simcore.events.timeouts", "repro.simcore.events",
          "Timeout.__init__"),
    Count("simcore.flownet.transfers", "repro.simcore.flownet",
          "FlowNetwork.transfer"),
    Count("simcore.flownet.fills_scalar", "repro.simcore.flownet",
          "FlowNetwork._fill_scalar"),
    Count("simcore.flownet.fills_vector", "repro.simcore.flownet",
          "FlowNetwork._fill_vector"),
    Count("simcore.pipes.submits", "repro.simcore.pipes",
          "FairShareChannel.submit"),
)


def layer_of(filename: str, package_dir: str) -> Optional[str]:
    """The layer of a function defined in ``filename``; None if foreign."""
    prefix = package_dir.rstrip("/") + "/"
    path = filename.replace("\\", "/")
    if not path.startswith(prefix):
        return None
    rel = path[len(prefix):]
    for fragment, layer in _BY_LENGTH:
        if rel.startswith(fragment):
            return layer
    return OTHER


def _shares(func: FuncKey, table: Table, package_dir: str,
            memo: Dict[FuncKey, Dict[str, float]],
            visiting: set) -> Dict[str, float]:
    """How ``func``'s self time splits over layers (fractions sum to 1)."""
    own = layer_of(func[0], package_dir)
    if own is not None:
        return {own: 1.0}
    if func in memo:
        return memo[func]
    entry = table.get(func)
    edges = {caller: edge for caller, edge in (entry[4] if entry else {}).items()
             if caller != func}
    weights = {caller: edge[2] for caller, edge in edges.items()}
    if not any(weights.values()):
        weights = {caller: edge[0] for caller, edge in edges.items()}
    total = sum(weights.values())
    if not total:
        memo[func] = {OTHER: 1.0}
        return memo[func]
    visiting.add(func)
    shares: Dict[str, float] = {}
    for caller, weight in weights.items():
        if caller in visiting:
            parts = {OTHER: 1.0}
        else:
            parts = _shares(caller, table, package_dir, memo, visiting)
        for layer, frac in parts.items():
            shares[layer] = shares.get(layer, 0.0) + frac * weight / total
    visiting.discard(func)
    memo[func] = shares
    return shares


def fold_self_time(table: Table, package_dir: str) -> Dict[str, float]:
    """Self seconds per layer; the values sum to the table's total ``tt``."""
    totals = {layer: 0.0 for layer in LAYERS}
    memo: Dict[FuncKey, Dict[str, float]] = {}
    for func, entry in table.items():
        for layer, frac in _shares(func, table, package_dir, memo,
                                   set()).items():
            totals[layer] += entry[2] * frac
    return totals


def layer_metrics(table: Table, package_dir: str
                  ) -> Dict[str, Optional[float]]:
    """``<layer>.self_s``, ``<layer>.share`` and every :data:`COUNTS` entry."""
    self_s = fold_self_time(table, package_dir)
    total = sum(self_s.values())
    metrics: Dict[str, Optional[float]] = {}
    for layer, seconds in self_s.items():
        metrics[f"{layer}.self_s"] = seconds
        metrics[f"{layer}.share"] = seconds / total if total else 0.0
    for count in COUNTS:
        metrics[count.name] = count_calls(table, count, package_dir)
    return metrics


def func_key(module: str, qualname: str) -> Optional[FuncKey]:
    """The pstats key of ``module.qualname``; None if it does not exist."""
    try:
        obj: Any = importlib.import_module(module)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError):
        return None
    code = getattr(obj, "__code__", None)
    if code is not None:
        return (code.co_filename, code.co_firstlineno, code.co_name)
    return ("~", 0, f"<built-in method {obj.__module__}.{obj.__name__}>")


def count_calls(table: Table, count: Count, package_dir: str,
                key: Optional[FuncKey] = None) -> Optional[int]:
    """Calls counted by ``count``; None when its function is gone.

    ``key`` overrides the import lookup (tests pass synthetic keys).
    """
    if key is None:
        key = func_key(count.module, count.qualname)
        if key is None:
            return None
    entry = table.get(key)
    if entry is None:
        return 0
    if not count.via:
        return int(entry[1])
    sources = {package_dir.rstrip("/") + "/" + via for via in count.via}
    return int(sum(edge[0] for caller, edge in entry[4].items()
                   if caller[0].replace("\\", "/") in sources))
