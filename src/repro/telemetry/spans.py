"""Hierarchical span tracing on top of the trace stream.

A *span* is a named interval of simulation time with a category, a
parent, and free-form fields.  Spans nest into the hierarchy::

    experiment -> workflow -> job -> phase (read/compute/write)
                                       -> storage_op

:class:`SpanBuilder` is the producer API: it emits paired
``span/begin`` + ``span/end`` :class:`~repro.simcore.tracing.TraceRecord`
rows into the run's :class:`~repro.simcore.tracing.TraceCollector`, so
spans travel the exact same fire-and-forget pipe as every other
observation and cost nothing when tracing is disabled.

:func:`spans_from_trace` reconstructs the span tree from those record
pairs after the run.  Two exporters serialise the tree:

* :func:`to_chrome_trace` — Chrome trace-event JSON, loadable in
  ``chrome://tracing`` or https://ui.perfetto.dev (spans become ``"X"``
  complete events, one timeline row per node);
* :func:`to_jsonl` — one span per line, for ad-hoc ``jq`` analysis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Dict, Iterable, Iterator, List,
                    Optional, Union)

from ..simcore.tracing import TraceCollector, TraceRecord

if TYPE_CHECKING:  # pragma: no cover
    from ..simcore.engine import Environment

#: Trace category that carries span begin/end pairs.
SPAN_CATEGORY = "span"
#: Sentinel id handed out by a disabled builder; ``end()`` ignores it.
DISABLED_SPAN = -1


@dataclass
class Span:
    """One reconstructed interval in the span tree."""

    span_id: int
    name: str
    category: str
    start: float
    end: Optional[float] = None
    parent_id: Optional[int] = None
    fields: Dict[str, Any] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Span length in sim seconds (0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def closed(self) -> bool:
        """Whether a matching ``span/end`` was seen."""
        return self.end is not None

    def walk(self) -> Iterator["Span"]:
        """This span and all descendants, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return (f"<Span {self.category}:{self.name} "
                f"[{self.start:.3f}, {self.end}]>")


class SpanBuilder:
    """Produces nested spans into a trace collector.

    Each builder keeps its own open-span stack, so create one builder
    per logically sequential activity (one per executing job, one per
    WMS run).  Concurrent simulation processes each hold their own
    builder and therefore cannot corrupt each other's nesting; spans
    from different builders are linked via explicit ``root_parent``
    ids instead.
    """

    def __init__(self, trace: TraceCollector, env: "Environment",
                 root_parent: Optional[int] = None) -> None:
        self.trace = trace
        self.env = env
        #: Parent id for spans opened with an empty stack (links this
        #: builder's tree under a span owned by another builder).
        self.root_parent = root_parent
        self._stack: List[int] = []

    @property
    def enabled(self) -> bool:
        """Whether spans will actually be recorded."""
        return self.trace.enabled

    @property
    def current(self) -> Optional[int]:
        """Innermost open span id (None when the stack is empty)."""
        return self._stack[-1] if self._stack else None

    def begin(self, category: str, name: str,
              parent_id: Optional[int] = None, **fields: Any) -> int:
        """Open a span; returns its id (pass to :meth:`end`)."""
        if not self.trace.enabled:
            return DISABLED_SPAN
        if parent_id is None:
            parent_id = self.current if self._stack else self.root_parent
        # Ids are allocated by the run's collector, not a process-wide
        # counter: a trace must not depend on how many spans *earlier*
        # runs in the same interpreter allocated (the determinism
        # sanitizer hash-chains span ids along with everything else).
        sid = self.trace.next_id()
        self.trace.emit(self.env.now, SPAN_CATEGORY, "begin",
                        span_id=sid, parent_id=parent_id,
                        span_category=category, name=name, **fields)
        self._stack.append(sid)
        return sid

    def end(self, span_id: int, **fields: Any) -> None:
        """Close a span opened by :meth:`begin`."""
        if span_id == DISABLED_SPAN or not self.trace.enabled:
            return
        # Normally span_id is the top of the stack; tolerate out-of-
        # order closes (e.g. an error path) by dropping inner entries.
        if span_id in self._stack:
            while self._stack and self._stack[-1] != span_id:
                self._stack.pop()
            self._stack.pop()
        self.trace.emit(self.env.now, SPAN_CATEGORY, "end",
                        span_id=span_id, **fields)


# ----------------------------------------------------------- reconstruction

def spans_from_trace(
        trace: Union[TraceCollector, Iterable[TraceRecord]]) -> List[Span]:
    """Rebuild the span forest from ``span`` begin/end record pairs.

    Returns the root spans (no parent, or parent never seen), children
    nested and sorted by start time.  Spans missing their ``end`` (a
    crashed run, a VM never terminated) are clamped to the latest
    timestamp observed in the stream.
    """
    if isinstance(trace, TraceCollector):
        records = trace.select(SPAN_CATEGORY)
        last_time = trace.records[-1].time if trace.records else 0.0
    else:
        records = [r for r in trace if r.category == SPAN_CATEGORY]
        last_time = max((r.time for r in records), default=0.0)

    by_id: Dict[int, Span] = {}
    for rec in records:
        sid = rec.get("span_id")
        if sid is None:
            continue
        if rec.event == "begin":
            fields = {k: v for k, v in rec.fields.items()
                      if k not in ("span_id", "parent_id",
                                   "span_category", "name")}
            by_id[sid] = Span(
                span_id=sid,
                name=rec.get("name", str(sid)),
                category=rec.get("span_category", "span"),
                start=rec.time,
                parent_id=rec.get("parent_id"),
                fields=fields,
            )
        elif rec.event == "end":
            span = by_id.get(sid)
            if span is not None:
                span.end = rec.time
                extra = {k: v for k, v in rec.fields.items()
                         if k != "span_id"}
                span.fields.update(extra)
    roots: List[Span] = []
    for span in by_id.values():
        if span.end is None:
            span.end = max(last_time, span.start)
        parent = by_id.get(span.parent_id) if span.parent_id is not None \
            else None
        if parent is not None:
            parent.children.append(span)
        else:
            roots.append(span)
    for span in by_id.values():
        span.children.sort(key=lambda s: (s.start, s.span_id))
    roots.sort(key=lambda s: (s.start, s.span_id))
    return roots


def iter_spans(roots: Iterable[Span]) -> Iterator[Span]:
    """Flatten a span forest depth-first."""
    for root in roots:
        yield from root.walk()


# ----------------------------------------------------------------- export

#: Synthetic process id used for all events (one simulated cluster).
_PID = 1


def _thread_of(span: Span) -> str:
    """The timeline row a span renders on: its node, else its category."""
    node = span.fields.get("node")
    return str(node) if node is not None else f"({span.category})"


def to_chrome_trace(roots: Iterable[Span]) -> Dict[str, Any]:
    """Serialise spans as a Chrome trace-event document.

    Every span becomes a ``"X"`` (complete) event with microsecond
    timestamps.  Events are grouped onto one timeline row ("thread")
    per node so per-node activity reads like a Gantt chart; spans with
    no node (experiment, workflow) get a row per category.  The result
    round-trips through ``json.dumps`` and loads directly in
    ``chrome://tracing`` and Perfetto.
    """
    spans = list(iter_spans(roots))
    tids: Dict[str, int] = {}
    events: List[Dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": _PID, "tid": 0,
        "args": {"name": "repro-ec2 simulated cluster"},
    }]
    for span in spans:
        row = _thread_of(span)
        if row not in tids:
            tids[row] = len(tids) + 1
            events.append({
                "name": "thread_name", "ph": "M", "pid": _PID,
                "tid": tids[row], "args": {"name": row},
            })
    for span in spans:
        end = span.end if span.end is not None else span.start
        events.append({
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": span.start * 1e6,
            "dur": (end - span.start) * 1e6,
            "pid": _PID,
            "tid": tids[_thread_of(span)],
            "args": dict(span.fields),
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, roots: Iterable[Span]) -> int:
    """Write the Chrome trace JSON; returns the number of span events."""
    doc = to_chrome_trace(roots)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return sum(1 for ev in doc["traceEvents"] if ev.get("ph") == "X")


def to_jsonl(roots: Iterable[Span]) -> str:
    """One JSON object per span, depth-first, newline-separated."""
    lines = []
    for span in iter_spans(roots):
        lines.append(json.dumps({
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "category": span.category,
            "name": span.name,
            "start": span.start,
            "end": span.end,
            "duration": span.duration,
            "fields": span.fields,
        }, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(path: str, roots: Iterable[Span]) -> None:
    """Write the JSONL form of a span forest."""
    with open(path, "w") as fh:
        fh.write(to_jsonl(roots))


# ----------------------------------------------------------- summarising

def load_chrome_trace(path: str) -> Dict[str, Any]:
    """Load and structurally validate a Chrome trace-event document."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError(f"{path}: not a Chrome trace-event document "
                         "(missing 'traceEvents')")
    if not isinstance(doc["traceEvents"], list):
        raise ValueError(f"{path}: 'traceEvents' must be a list")
    for ev in doc["traceEvents"]:
        if not isinstance(ev, dict) or "ph" not in ev:
            raise ValueError(f"{path}: malformed trace event: {ev!r}")
    return doc


def summarize_chrome_trace(doc: Dict[str, Any], top: int = 10) -> str:
    """Human-readable digest of a Chrome trace (the ``trace`` command)."""
    complete = [ev for ev in doc["traceEvents"] if ev.get("ph") == "X"]
    if not complete:
        return "empty trace (no complete events)"
    t0 = min(ev["ts"] for ev in complete)
    t1 = max(ev["ts"] + ev.get("dur", 0.0) for ev in complete)
    lines = [
        f"{len(complete)} spans covering "
        f"{(t1 - t0) / 1e6:,.1f} s of simulated time",
        "",
        f"{'category':<14}{'spans':>8}{'total s':>12}{'mean s':>10}",
    ]
    by_cat: Dict[str, List[float]] = {}
    for ev in complete:
        by_cat.setdefault(ev.get("cat", "?"), []).append(
            ev.get("dur", 0.0) / 1e6)
    for cat in sorted(by_cat, key=lambda c: -sum(by_cat[c])):
        durs = by_cat[cat]
        lines.append(f"{cat:<14}{len(durs):>8}{sum(durs):>12.1f}"
                     f"{sum(durs) / len(durs):>10.3f}")
    lines.append("")
    lines.append(f"top {top} longest spans:")
    for ev in sorted(complete, key=lambda e: -e.get("dur", 0.0))[:top]:
        lines.append(f"  {ev.get('dur', 0.0) / 1e6:>10.2f} s  "
                     f"{ev.get('cat', '?')}:{ev.get('name', '?')}")
    return "\n".join(lines)
