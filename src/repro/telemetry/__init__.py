"""Observability for simulation runs: metrics, spans, timelines.

The telemetry layer turns the fire-and-forget trace stream
(:mod:`repro.simcore.tracing`) into three queryable views of a run:

* :mod:`~repro.telemetry.metrics` — Prometheus-style ``Counter`` /
  ``Gauge`` / ``Histogram`` instruments in a per-run
  :class:`MetricsRegistry`, derived from the finished trace;
* :mod:`~repro.telemetry.spans` — hierarchical spans (experiment →
  workflow → job → storage op) with Chrome-trace / JSONL exporters;
* :mod:`~repro.telemetry.sampler` — fixed-cadence per-node utilization
  timelines (CPU, NIC, disk queue, storage-server load), rendered as
  ASCII heatmaps by :mod:`~repro.telemetry.render`.

Everything is inert when the run's trace collector is disabled, so
benchmark sweeps pay nothing.  See ``docs/observability.md``.
"""

from .export import (
    to_json_snapshot,
    to_prometheus,
    validate_exposition,
    write_metrics,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metrics_from_trace,
)
from .render import render_heatmap, render_node_gantt, render_timeline_summary
from .sampler import Timeline, UtilizationSampler, attach_cluster, node_probes
from .spans import (
    Span,
    SpanBuilder,
    iter_spans,
    load_chrome_trace,
    spans_from_trace,
    summarize_chrome_trace,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metrics_from_trace",
    "to_prometheus",
    "to_json_snapshot",
    "write_metrics",
    "validate_exposition",
    "Span",
    "SpanBuilder",
    "spans_from_trace",
    "iter_spans",
    "to_chrome_trace",
    "to_jsonl",
    "write_chrome_trace",
    "write_jsonl",
    "load_chrome_trace",
    "summarize_chrome_trace",
    "Timeline",
    "UtilizationSampler",
    "attach_cluster",
    "node_probes",
    "render_heatmap",
    "render_node_gantt",
    "render_timeline_summary",
]
