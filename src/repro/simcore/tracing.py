"""Lightweight structured tracing for simulation runs.

Every subsystem (scheduler, storage, disks, billing) emits
:class:`TraceRecord` rows into a shared :class:`TraceCollector`.  The
profiler (`repro.profiling.wfprof`), the span builder
(`repro.telemetry.spans`), the run metrics (`repro.telemetry.metrics`)
and the experiment result tables are built entirely from these traces
after the run, mirroring how the paper derives Table I
from ptrace-based task profiling.

Records are indexed by ``(category, event)`` as they arrive, so the
query helpers (:meth:`TraceCollector.select`, ``count``, ``sum_field``)
cost O(matching records), not O(all records) — trace-heavy runs issue
thousands of queries and must not go quadratic.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple


class TraceRecord:
    """One timestamped observation.

    A plain ``__slots__`` class rather than a dataclass: trace-heavy
    runs construct one record per traced event (hundreds of thousands
    per cell), and the frozen-dataclass ``__init__`` costs several
    times a direct slot assignment.  Records are immutable by
    convention — nothing in the codebase mutates one after ``emit``.

    Attributes
    ----------
    time:
        Simulation time of the observation (seconds).
    category:
        Coarse stream name, e.g. ``"task"``, ``"storage"``, ``"disk"``.
    event:
        Event name within the category, e.g. ``"start"``, ``"read"``.
    fields:
        Free-form payload (task id, bytes, node name, ...).
    """

    __slots__ = ("time", "category", "event", "fields")

    def __init__(self, time: float, category: str, event: str,
                 fields: Optional[Dict[str, Any]] = None) -> None:
        self.time = time
        self.category = category
        self.event = event
        self.fields = {} if fields is None else fields

    def get(self, key: str, default: Any = None) -> Any:
        """Field accessor with default."""
        return self.fields.get(key, default)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        # Field-wise identity compare (what the frozen dataclass
        # generated); bit-equality on time is the point here, not a
        # sim-time tolerance check.
        return (self.time == other.time  # lint: ignore[SIM004]
                and self.category == other.category
                and self.event == other.event and self.fields == other.fields)

    def __repr__(self) -> str:
        return (f"TraceRecord(time={self.time!r}, category={self.category!r}, "
                f"event={self.event!r}, fields={self.fields!r})")


class TraceCollector:
    """Accumulates trace records and answers simple queries.

    Collection can be disabled wholesale (``enabled=False``) for large
    benchmark sweeps where only aggregate counters are needed.  A
    disabled collector drops every record, so the shared
    :data:`NULL_COLLECTOR` cannot accumulate state across runs.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.records: List[TraceRecord] = []
        # (category, event) -> records.  Lists share the TraceRecord
        # objects with ``records``; only the list overhead is
        # duplicated.
        self._by_cat_event: Dict[Tuple[str, str], List[TraceRecord]] = {}
        # category -> records, built lazily on the first category-only
        # query (then kept fresh by ``emit``): most runs never issue
        # one until the post-run analysis, and skipping the second
        # index append keeps ``emit`` lean.
        self._by_category: Optional[Dict[str, List[TraceRecord]]] = None
        self._next_id = 0

    def next_id(self) -> int:
        """A fresh id, unique within this collector (1, 2, 3, ...).

        Used for span ids: scoping the counter to the collector keeps a
        run's trace byte-identical no matter how many runs preceded it
        in the same interpreter.
        """
        self._next_id += 1
        return self._next_id

    def emit(self, time: float, category: str, event: str, **fields: Any) -> None:
        """Record an observation (no-op when disabled)."""
        if not self.enabled:
            return
        # Direct slot fill via __new__: one C call instead of a Python
        # __init__ frame, on the hottest constructor in the simulator.
        rec = TraceRecord.__new__(TraceRecord)
        rec.time = time
        rec.category = category
        rec.event = event
        rec.fields = fields
        self.records.append(rec)
        key = (category, event)
        bucket = self._by_cat_event.get(key)
        if bucket is None:
            bucket = self._by_cat_event[key] = []
        bucket.append(rec)
        by_cat = self._by_category
        if by_cat is not None:
            cat_bucket = by_cat.get(category)
            if cat_bucket is None:
                cat_bucket = by_cat[category] = []
            cat_bucket.append(rec)

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def _candidates(self, category: Optional[str],
                    event: Optional[str]) -> List[TraceRecord]:
        """The smallest pre-indexed record list covering a query."""
        if category is not None:
            if event is not None:
                return self._by_cat_event.get((category, event), [])
            by_cat = self._by_category
            if by_cat is None:
                by_cat = self._by_category = {}
                for rec in self.records:
                    by_cat.setdefault(rec.category, []).append(rec)
            return by_cat.get(category, [])
        # Event-only queries are rare and have no dedicated index.
        if event is not None:
            return [r for r in self.records if r.event == event]
        return self.records

    def select(self, category: Optional[str] = None,
               event: Optional[str] = None,
               **field_filters: Any) -> List[TraceRecord]:
        """Records matching the given category/event/field values."""
        base = self._candidates(category, event)
        if not field_filters:
            return list(base)
        return [rec for rec in base
                if all(rec.fields.get(k) == v
                       for k, v in field_filters.items())]

    def count(self, category: Optional[str] = None,
              event: Optional[str] = None, **field_filters: Any) -> int:
        """Number of matching records."""
        base = self._candidates(category, event)
        if not field_filters:
            return len(base)
        return sum(1 for rec in base
                   if all(rec.fields.get(k) == v
                          for k, v in field_filters.items()))

    def sum_field(self, key: str, category: Optional[str] = None,
                  event: Optional[str] = None, **field_filters: Any) -> float:
        """Sum of a numeric field over matching records."""
        base = self._candidates(category, event)
        if field_filters:
            base = [rec for rec in base
                    if all(rec.fields.get(k) == v
                           for k, v in field_filters.items())]
        return float(sum(rec.fields.get(key, 0.0) for rec in base))

    def clear(self) -> None:
        """Drop all collected records."""
        self.records.clear()
        self._by_cat_event.clear()
        self._by_category = None
        self._next_id = 0


#: A collector that drops everything — handy default for benchmarks.
#: It is shared module-wide, and safe to share because a disabled
#: collector refuses every record.
NULL_COLLECTOR = TraceCollector(enabled=False)
