"""Prometheus-style metric instruments for simulation runs.

A :class:`MetricsRegistry` holds named :class:`Counter`, :class:`Gauge`
and :class:`Histogram` instruments.  Every instrument supports labels
(``node=``, ``storage=``, ``transformation=`` ...): each distinct label
combination gets its own time series, exactly like Prometheus children.

:func:`metrics_from_trace` builds the standard instruments after the
run from the finished :class:`~repro.simcore.tracing.TraceCollector`,
the way the paper builds Table I from recorded task traces, so
subsystems need no registry dependency.  ``snapshot()`` produces the
plain-dict form that feeds result tables and ``--metrics-out`` JSON.

**Thread safety.**  The default registry is single-threaded: a
registry built from a trace has one owner, and taking a lock per
record would tax every derivation for a race it can never have.  The
multi-threaded *service* stack constructs its registries with
``thread_safe=True``: one shared lock then serializes every mutator
(the unguarded ``d[k] = d.get(k, 0) + v`` read-modify-write loses
updates under concurrent ``inc``).  The lock is built by
an injectable ``lock_factory`` — the service passes
:func:`repro.lint.lockwatch.new_lock` so the runtime lock witness sees
it; this module deliberately never imports the lint package (the lint
package's determinism checks import the experiment stack, which
imports telemetry — a hard import would be a cycle).
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left, insort
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..simcore.tracing import TraceCollector

#: Canonical sorted-tuple form of a label set (hashable dict key).
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    # Hot path: every inc/set/observe canonicalises its labels.  Most
    # call sites pass zero or one label — skip the sort for those.
    if len(labels) < 2:
        if not labels:
            return ()
        k, v = next(iter(labels.items()))
        return ((k, str(v)),)
    items = [(k, str(v)) for k, v in labels.items()]
    items.sort()
    return tuple(items)


def _key_dict(key: LabelKey) -> Dict[str, str]:
    return dict(key)


class Instrument:
    """Common state of a named, labelled instrument.

    ``lock`` is the registry's shared mutator lock (None in a
    single-threaded registry).  Mutators branch on it rather than
    unconditionally entering a no-op context manager so the per-record
    path of :func:`metrics_from_trace` stays a plain dict update.
    """

    kind = "abstract"

    def __init__(self, name: str, help: str = "",
                 lock: Optional[Any] = None) -> None:
        self.name = name
        self.help = help
        self._lock = lock

    def label_sets(self) -> List[Dict[str, str]]:
        """All label combinations observed so far."""
        raise NotImplementedError

    def series(self) -> List[Dict[str, Any]]:
        """Snapshot rows: one dict per label combination."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class Counter(Instrument):
    """A monotonically increasing count (ops, bytes, retries)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 lock: Optional[Any] = None) -> None:
        super().__init__(name, help, lock)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` (must be >= 0) to the labelled child."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease "
                             f"(inc by {amount})")
        key = _label_key(labels)
        lock = self._lock
        if lock is None:
            self._values[key] = self._values.get(key, 0.0) + amount
        else:
            with lock:
                self._values[key] = self._values.get(key, 0.0) + amount

    def inc_key(self, key: LabelKey, amount: float = 1.0) -> None:
        """Fast-path ``inc`` taking an already-canonical label key.

        ``key`` must be sorted ``((name, str_value), ...)`` — exactly
        what :func:`_label_key` produces.  :func:`metrics_from_trace`
        builds these tuples directly to skip the kwargs dict and
        canonicalisation on every record.
        """
        lock = self._lock
        if lock is None:
            self._values[key] = self._values.get(key, 0.0) + amount
        else:
            with lock:
                self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        """Current value of one labelled child (0 if never touched)."""
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across all label combinations."""
        return sum(self._values.values())

    def label_sets(self) -> List[Dict[str, str]]:
        return [_key_dict(k) for k in self._values]

    def series(self) -> List[Dict[str, Any]]:
        return [{"labels": _key_dict(k), "value": v}
                for k, v in sorted(self._values.items())]


class Gauge(Instrument):
    """A value that can go up and down (queue depth, cached bytes)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 lock: Optional[Any] = None) -> None:
        super().__init__(name, help, lock)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        """Overwrite the labelled child's value."""
        key = _label_key(labels)
        lock = self._lock
        if lock is None:
            self._values[key] = float(value)
        else:
            with lock:
                self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` (may be negative) to the labelled child."""
        key = _label_key(labels)
        lock = self._lock
        if lock is None:
            self._values[key] = self._values.get(key, 0.0) + amount
        else:
            with lock:
                self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        """Subtract ``amount`` from the labelled child."""
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        """Current value of one labelled child (0 if never set)."""
        return self._values.get(_label_key(labels), 0.0)

    def label_sets(self) -> List[Dict[str, str]]:
        return [_key_dict(k) for k in self._values]

    def series(self) -> List[Dict[str, Any]]:
        return [{"labels": _key_dict(k), "value": v}
                for k, v in sorted(self._values.items())]


#: Default histogram buckets, tuned for seconds-scale durations.
DEFAULT_BUCKETS = (0.001, 0.005, 0.025, 0.1, 0.5, 1.0, 5.0, 25.0,
                   100.0, 500.0, 2500.0)

#: Quantiles reported in snapshots.
SUMMARY_QUANTILES = (0.5, 0.9, 0.99)


class _HistChild:
    """Per-label-set histogram state: fixed buckets + sorted reservoir."""

    __slots__ = ("bucket_counts", "count", "sum", "sorted_values")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts = [0] * (n_buckets + 1)  # +1 for +Inf
        self.count = 0
        self.sum = 0.0
        self.sorted_values: List[float] = []


class Histogram(Instrument):
    """Fixed-bucket histogram with an exact quantile summary.

    Buckets are cumulative upper bounds (Prometheus-style, with an
    implicit ``+Inf``).  Observations are also kept in a sorted list so
    ``quantile()`` is exact — simulation runs observe at most a few
    hundred thousand values, so the reservoir stays cheap.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Optional[Sequence[float]] = None,
                 lock: Optional[Any] = None) -> None:
        super().__init__(name, help, lock)
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be strictly increasing")
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets: Tuple[float, ...] = bounds
        self._children: Dict[LabelKey, _HistChild] = {}

    def _child(self, labels: Dict[str, Any]) -> _HistChild:
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = _HistChild(len(self.buckets))
        return child

    def observe(self, value: float, **labels: Any) -> None:
        """Record one observation in the labelled child."""
        self.observe_key(value, _label_key(labels))

    def observe_key(self, value: float, key: LabelKey) -> None:
        """Fast-path ``observe`` taking an already-canonical label key
        (see :meth:`Counter.inc_key`)."""
        lock = self._lock
        if lock is None:
            self._observe_locked(value, key)
        else:
            with lock:
                self._observe_locked(value, key)

    def _observe_locked(self, value: float, key: LabelKey) -> None:
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = _HistChild(len(self.buckets))
        idx = bisect_left(self.buckets, value)
        child.bucket_counts[idx] += 1
        child.count += 1
        child.sum += value
        insort(child.sorted_values, value)

    # -- per-child accessors ----------------------------------------------

    def count(self, **labels: Any) -> int:
        """Observations recorded for one labelled child."""
        child = self._children.get(_label_key(labels))
        return child.count if child else 0

    def sum_(self, **labels: Any) -> float:
        """Sum of observations for one labelled child."""
        child = self._children.get(_label_key(labels))
        return child.sum if child else 0.0

    def mean(self, **labels: Any) -> float:
        """Mean observation (0 when empty)."""
        child = self._children.get(_label_key(labels))
        if not child or child.count == 0:
            return 0.0
        return child.sum / child.count

    def quantile(self, q: float, **labels: Any) -> float:
        """Exact ``q``-quantile (nearest-rank; 0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        child = self._children.get(_label_key(labels))
        if not child or not child.sorted_values:
            return 0.0
        vals = child.sorted_values
        rank = min(len(vals) - 1, max(0, int(round(q * (len(vals) - 1)))))
        return vals[rank]

    def bucket_counts(self, **labels: Any) -> Dict[str, int]:
        """Cumulative counts per upper bound (Prometheus ``le`` style)."""
        return dict(self.bucket_rows(**labels))

    def bucket_rows(self, **labels: Any) -> List[Tuple[str, int]]:
        """Cumulative ``(le, count)`` pairs in ascending bucket order.

        The ordered form feeds the exporters: a plain dict would be
        re-sorted lexicographically by ``json.dumps(sort_keys=True)``,
        scrambling ``"+Inf"`` and ``"25"`` in between numeric bounds.
        """
        child = self._children.get(_label_key(labels))
        raw = child.bucket_counts if child \
            else [0] * (len(self.buckets) + 1)
        out: List[Tuple[str, int]] = []
        running = 0
        for bound, n in zip(self.buckets, raw):
            running += n
            out.append((f"{bound:g}", running))
        out.append(("+Inf", running + raw[-1]))
        return out

    def label_sets(self) -> List[Dict[str, str]]:
        return [_key_dict(k) for k in self._children]

    def series(self) -> List[Dict[str, Any]]:
        rows = []
        for key, child in sorted(self._children.items()):
            labels = _key_dict(key)
            rows.append({
                "labels": labels,
                "count": child.count,
                "sum": child.sum,
                "mean": child.sum / child.count if child.count else 0.0,
                # Ordered list-of-objects so ascending bucket order
                # survives every JSON serializer (sort_keys would
                # lexicographically scramble a dict keyed by bound).
                "buckets": [{"le": le, "count": n}
                            for le, n in self.bucket_rows(**labels)],
                "quantiles": {f"p{int(q * 100)}": self.quantile(q, **labels)
                              for q in SUMMARY_QUANTILES},
            })
        return rows


class MetricsRegistry:
    """A per-run namespace of instruments.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking for an
    existing name returns the existing instrument (and raises if the
    kind differs), so independent subsystems can share series safely.

    ``thread_safe=True`` builds one shared lock that serializes
    instrument creation and every mutator; ``lock_factory`` (called as
    ``lock_factory("metrics.registry")``) lets the service inject a
    witness-instrumented lock without telemetry importing the lint
    package.  The default stays lock-free (see module docstring).
    """

    def __init__(self, thread_safe: bool = False,
                 lock_factory: Optional[Callable[[str], Any]] = None) -> None:
        self.thread_safe = thread_safe
        if thread_safe:
            self._lock = (lock_factory("metrics.registry")
                          if lock_factory is not None else threading.Lock())
        else:
            self._lock = None
        self._instruments: Dict[str, Instrument] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> Any:
        lock = self._lock
        if lock is None:
            return self._get_or_create_locked(cls, name, help, **kwargs)
        with lock:
            return self._get_or_create_locked(cls, name, help, **kwargs)

    def _get_or_create_locked(self, cls, name: str, help: str,
                              **kwargs) -> Any:
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}")
            return existing
        inst = cls(name, help=help, lock=self._lock, **kwargs)
        self._instruments[name] = inst
        return inst

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create a counter."""
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create a gauge."""
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        """Get or create a histogram."""
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> Optional[Instrument]:
        """Look up an instrument by name (None if absent)."""
        return self._instruments.get(name)

    def names(self) -> List[str]:
        """All registered instrument names, sorted."""
        return sorted(self._instruments)

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    # -- export ------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict view of every instrument (feeds tables and JSON)."""
        out: Dict[str, Any] = {}
        for name in self.names():
            inst = self._instruments[name]
            out[name] = {
                "kind": inst.kind,
                "help": inst.help,
                "series": inst.series(),
            }
        return out

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The snapshot as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def summary_rows(self) -> List[Dict[str, Any]]:
        """Flat rows (metric, labels, value) for text tables / CSV."""
        rows = []
        for name in self.names():
            inst = self._instruments[name]
            for entry in inst.series():
                labels = ",".join(f"{k}={v}" for k, v in
                                  sorted(entry["labels"].items()))
                value = entry.get("value", entry.get("sum", 0.0))
                rows.append({"metric": name, "kind": inst.kind,
                             "labels": labels, "value": value})
        return rows


# ------------------------------------------------------ trace -> metrics

def metrics_from_trace(trace: TraceCollector) -> MetricsRegistry:
    """The standard instrument catalog, derived from a finished trace.

    Folds every record of ``trace`` into counters and histograms,
    labelled by node / storage system / transformation — a pure
    function of the record list.  See ``docs/observability.md`` for
    the full catalog.
    """
    registry = MetricsRegistry()
    tasks_started = registry.counter(
        "tasks_started_total", "task attempts begun, by node/executable")
    tasks_completed = registry.counter(
        "tasks_completed_total", "task attempts finished, by node")
    tasks_failed = registry.counter(
        "tasks_failed_total", "task attempts crashed, by node")
    task_duration = registry.histogram(
        "task_duration_seconds", "wall-clock task runtime, by executable")
    storage_ops = registry.counter(
        "storage_ops_total", "storage reads/writes, by system and locality")
    storage_bytes = registry.counter(
        "storage_bytes_total", "bytes through the storage layer")
    disk_ops = registry.counter(
        "disk_ops_total", "block-device operations, by device")
    disk_bytes = registry.counter(
        "disk_bytes_total", "bytes through block devices")
    disk_first_writes = registry.counter(
        "disk_first_writes_total",
        "writes that paid the ephemeral first-write penalty")
    net_transfers = registry.counter(
        "net_transfers_total", "network flows, by endpoint pair")
    net_bytes = registry.counter(
        "net_bytes_total", "bytes moved over the fabric, by endpoint pair")
    schedd_submits = registry.counter(
        "schedd_submits_total", "jobs queued at the schedd")
    vm_terminations = registry.counter(
        "vm_terminations_total", "instances terminated")
    vm_crashes = registry.counter(
        "vm_crashes_total", "instances killed by fault injection")
    fault_events = registry.counter(
        "fault_events_total", "injected faults and recovery actions, "
                              "by kind")
    storage_retry_delay = registry.histogram(
        "storage_retry_delay_seconds",
        "backoff delays taken by storage clients before retrying")

    # A trace holds hundreds of thousands of records per cell, so the
    # loop builds canonical label keys directly — tuple labels pre-sorted
    # by name, values already strings — and feeds them to the ``*_key``
    # fast paths, skipping the kwargs/canonicalisation machinery of the
    # public ``inc``/``observe``.
    for rec in trace.records:
        cat, ev, f = rec.category, rec.event, rec.fields
        if cat == "task":
            node = f.get("node", "?")
            if ev == "start":
                tasks_started.inc_key(
                    (("node", node),
                     ("transformation", f.get("transformation", "?"))))
            elif ev == "end":
                tasks_completed.inc_key((("node", node),))
                task_duration.observe_key(
                    f.get("duration", 0.0),
                    (("transformation", f.get("transformation", "?")),))
            elif ev == "failed":
                tasks_failed.inc_key((("node", node),))
        elif cat == "storage" and (ev == "read" or ev == "write"):
            system = f.get("system", "?")
            remote = "remote" if f.get("remote") else "local"
            storage_ops.inc_key(
                (("locality", remote), ("op", ev), ("storage", system)))
            storage_bytes.inc_key((("op", ev), ("storage", system)),
                                  f.get("nbytes", 0.0))
        elif cat == "disk":
            disk = f.get("disk", "?")
            if ev == "read" or ev == "write":
                key = (("disk", disk), ("op", ev))
                disk_ops.inc_key(key)
                disk_bytes.inc_key(key, f.get("nbytes", 0.0))
                if ev == "write" and f.get("first"):
                    disk_first_writes.inc_key((("disk", disk),))
        elif cat == "net" and ev == "transfer":
            key = (("dst", f.get("dst", "?")), ("src", f.get("src", "?")))
            net_transfers.inc_key(key)
            net_bytes.inc_key(key, f.get("nbytes", 0.0))
        elif cat == "schedd" and ev == "submit":
            schedd_submits.inc_key(())
        elif cat == "vm" and ev == "terminate":
            vm_terminations.inc_key(())
        elif cat == "vm" and ev == "crash":
            vm_crashes.inc_key((("node", f.get("node", "?")),))
        elif cat == "fault":
            fault_events.inc_key((("kind", ev),))
            if ev == "storage_retry":
                storage_retry_delay.observe_key(
                    f.get("delay", 0.0), (("op", f.get("op", "?")),))
    return registry
