"""Failure flight recorder: the cell's trace tail + crash bundles.

Every sweep worker can keep a :class:`FlightRecorder`, which records
the cell's whole trace in its own
:class:`~repro.simcore.tracing.TraceCollector` (even when the cell does
not collect traces for its result) and reports (a) the last N records
and (b) the metrics derived from the trace.  On cell failure those are
exactly what a postmortem needs: the final seconds of simulated
activity before the crash, plus everything counted up to that point.

:func:`crash_bundle` assembles the durable artifact — scenario config
and digest, exception traceback, ring contents, partial metrics — and
:func:`write_crash_bundle` lays it out under ``--crash-dir`` as::

    <crash-dir>/cell-<index>-<digest8>/bundle.json

``repro-ec2 postmortem <crash-dir>`` summarizes bundles offline via
:func:`load_crash_bundles` / :func:`summarize_bundle`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import traceback as _traceback
from typing import Any, Dict, List, Optional, Tuple

from ..simcore.tracing import TraceCollector
from ..telemetry.metrics import MetricsRegistry, metrics_from_trace
from .hostclock import wall_now

#: Bump when the bundle layout changes; consumers key on it.
BUNDLE_SCHEMA_VERSION = 1

#: Default ring capacity: enough to cover the last few scheduler
#: rounds of a paper-scale cell without bloating worker memory.
DEFAULT_RING_CAPACITY = 256


class FlightRecorder:
    """The last ``capacity`` records + metrics of one cell's trace.

    The recorder owns its collector; pass ``recorder.trace`` into
    :func:`~repro.experiments.run_experiment` so every kernel event
    lands in it.  Recording is passive — the collector only stores
    records and cannot perturb the simulation, so digests stay
    bit-identical with the recorder attached.
    """

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.trace = TraceCollector()

    @property
    def n_seen(self) -> int:
        """Records emitted so far."""
        return len(self.trace.records)

    @property
    def metrics(self) -> MetricsRegistry:
        """Metrics derived from every record emitted so far."""
        return metrics_from_trace(self.trace)

    def ring_rows(self) -> List[Dict[str, Any]]:
        """The last ``capacity`` records as plain JSON-serializable rows."""
        return [{"time": rec.time, "category": rec.category,
                 "event": rec.event, "fields": dict(rec.fields)}
                for rec in self.trace.records[-self.capacity:]]


def _config_dict(config: Any) -> Dict[str, Any]:
    """JSON-safe dict of an ExperimentConfig (nested dataclasses ok)."""
    if dataclasses.is_dataclass(config):
        return dataclasses.asdict(config)
    return dict(config)  # pragma: no cover - already a mapping


def crash_bundle(config: Any, index: int, error: BaseException,
                 recorder: Optional[FlightRecorder] = None
                 ) -> Dict[str, Any]:
    """Assemble the postmortem artifact for one failed cell."""
    bundle: Dict[str, Any] = {
        "schema": BUNDLE_SCHEMA_VERSION,
        "kind": "crash_bundle",
        "ts": wall_now(),
        "index": index,
        "label": config.label,
        "digest": config.digest(),
        "config": _config_dict(config),
        "error": {
            "type": type(error).__name__,
            "message": str(error),
            "traceback": "".join(_traceback.format_exception(
                type(error), error, error.__traceback__)),
        },
    }
    if recorder is not None:
        bundle["flight"] = {
            "capacity": recorder.capacity,
            "n_seen": recorder.n_seen,
            "events": recorder.ring_rows(),
        }
        bundle["metrics"] = recorder.metrics.snapshot()
    return bundle


def bundle_dirname(bundle: Dict[str, Any]) -> str:
    """Directory name of one bundle: ``cell-<index>-<digest8>``."""
    return f"cell-{bundle['index']}-{bundle['digest'][:8]}"


def write_crash_bundle(crash_dir: str, bundle: Dict[str, Any]) -> str:
    """Write ``bundle`` under ``crash_dir``; returns the bundle path."""
    target = os.path.join(crash_dir, bundle_dirname(bundle))
    os.makedirs(target, exist_ok=True)
    path = os.path.join(target, "bundle.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bundle, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_crash_bundles(crash_dir: str
                       ) -> List[Tuple[str, Dict[str, Any]]]:
    """All ``(path, bundle)`` pairs under ``crash_dir``, sorted by cell
    index then path."""
    out: List[Tuple[str, Dict[str, Any]]] = []
    if not os.path.isdir(crash_dir):
        return out
    for entry in sorted(os.listdir(crash_dir)):
        path = os.path.join(crash_dir, entry, "bundle.json")
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                out.append((path, json.load(fh)))
    out.sort(key=lambda pair: (pair[1].get("index", 0), pair[0]))
    return out


def validate_bundle(bundle: Dict[str, Any]) -> List[str]:
    """Schema problems with one crash bundle (empty list = valid)."""
    problems: List[str] = []
    for key in ("schema", "kind", "index", "label", "digest", "config",
                "error"):
        if key not in bundle:
            problems.append(f"missing field {key!r}")
    if problems:
        return problems
    if bundle["schema"] != BUNDLE_SCHEMA_VERSION:
        problems.append(f"schema {bundle['schema']!r} != "
                        f"{BUNDLE_SCHEMA_VERSION}")
    if bundle["kind"] != "crash_bundle":
        problems.append(f"kind {bundle['kind']!r} != 'crash_bundle'")
    error = bundle["error"]
    for key in ("type", "message", "traceback"):
        if key not in error:
            problems.append(f"error record missing {key!r}")
    flight = bundle.get("flight")
    if flight is not None:
        for key in ("capacity", "n_seen", "events"):
            if key not in flight:
                problems.append(f"flight record missing {key!r}")
    return problems


def summarize_bundle(bundle: Dict[str, Any], tail: int = 8,
                     top_metrics: int = 6) -> str:
    """Human-readable one-screen postmortem of a crash bundle."""
    error = bundle["error"]
    lines = [
        f"cell {bundle['index']} {bundle['label']} "
        f"(digest {bundle['digest'][:12]})",
        f"  {error['type']}: {error['message']}",
    ]
    last_frame = [ln for ln in error["traceback"].splitlines()
                  if ln.strip().startswith("File ")]
    if last_frame:
        lines.append(f"  at {last_frame[-1].strip()}")
    flight = bundle.get("flight")
    if flight:
        events = flight["events"]
        lines.append(f"  flight ring: last {len(events)} of "
                     f"{flight['n_seen']} kernel events "
                     f"(capacity {flight['capacity']})")
        for row in events[-tail:]:
            fields = ",".join(f"{k}={v}" for k, v in
                              sorted(row["fields"].items()))
            lines.append(f"    t={row['time']:<12g} "
                         f"{row['category']}/{row['event']} {fields}")
    metrics = bundle.get("metrics")
    if metrics:
        rows = []
        for name, inst in sorted(metrics.items()):
            if inst["kind"] != "counter":
                continue
            total = sum(entry["value"] for entry in inst["series"])
            if total:
                rows.append((total, name))
        rows.sort(reverse=True)
        if rows:
            lines.append("  partial metrics (top counters at crash):")
            for total, name in rows[:top_metrics]:
                lines.append(f"    {name:<28} {total:g}")
    return "\n".join(lines)
