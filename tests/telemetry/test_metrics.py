"""Tests for the metric instruments and the trace->metrics derivation."""

import json

import pytest

from repro.simcore.tracing import TraceCollector
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metrics_from_trace,
)


# ----------------------------------------------------------------- counter

def test_counter_basic_and_labels():
    c = Counter("ops_total")
    c.inc()
    c.inc(2.0)
    c.inc(node="n0")
    c.inc(3.0, node="n0")
    c.inc(node="n1")
    assert c.value() == 3.0
    assert c.value(node="n0") == 4.0
    assert c.value(node="n1") == 1.0
    assert c.total() == 8.0


def test_counter_label_order_is_canonical():
    c = Counter("x")
    c.inc(a="1", b="2")
    c.inc(b="2", a="1")
    assert c.value(a="1", b="2") == 2.0
    assert len(c.label_sets()) == 1


def test_counter_rejects_decrease():
    c = Counter("x")
    with pytest.raises(ValueError):
        c.inc(-1.0)


def test_counter_untouched_child_reads_zero():
    assert Counter("x").value(node="never") == 0.0


# ------------------------------------------------------------------- gauge

def test_gauge_set_inc_dec():
    g = Gauge("depth")
    g.set(5.0, queue="a")
    g.inc(2.0, queue="a")
    g.dec(queue="a")
    assert g.value(queue="a") == 6.0
    g.inc(-3.0, queue="a")  # gauges may go down
    assert g.value(queue="a") == 3.0


def test_gauge_series_rows():
    g = Gauge("depth")
    g.set(1.0, queue="a")
    g.set(2.0, queue="b")
    rows = g.series()
    assert len(rows) == 2
    assert {r["labels"]["queue"] for r in rows} == {"a", "b"}


# --------------------------------------------------------------- histogram

def test_histogram_count_sum_mean():
    h = Histogram("dur", buckets=(1.0, 10.0))
    for v in (0.5, 2.0, 3.5):
        h.observe(v)
    assert h.count() == 3
    assert h.sum_() == pytest.approx(6.0)
    assert h.mean() == pytest.approx(2.0)


def test_histogram_bucket_counts_cumulative():
    h = Histogram("dur", buckets=(1.0, 10.0, 100.0))
    for v in (0.5, 0.7, 5.0, 50.0, 500.0):
        h.observe(v)
    buckets = h.bucket_counts()
    assert buckets["1"] == 2
    assert buckets["10"] == 3
    assert buckets["100"] == 4
    assert buckets["+Inf"] == 5


def test_histogram_quantiles_exact():
    h = Histogram("dur")
    for v in range(1, 101):  # 1..100
        h.observe(float(v))
    assert h.quantile(0.0) == 1.0
    assert h.quantile(1.0) == 100.0
    assert h.quantile(0.5) == pytest.approx(50.0, abs=1.0)
    assert h.quantile(0.9) == pytest.approx(90.0, abs=1.0)


def test_histogram_quantile_validation_and_empty():
    h = Histogram("dur")
    with pytest.raises(ValueError):
        h.quantile(1.5)
    assert h.quantile(0.5) == 0.0
    assert h.mean() == 0.0


def test_histogram_labels_separate_children():
    h = Histogram("dur")
    h.observe(1.0, transformation="a")
    h.observe(100.0, transformation="b")
    assert h.count(transformation="a") == 1
    assert h.mean(transformation="b") == 100.0
    assert h.count() == 0  # unlabelled child untouched


def test_histogram_rejects_bad_buckets():
    with pytest.raises(ValueError):
        Histogram("x", buckets=(2.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("x", buckets=(1.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("x", buckets=())


def test_histogram_series_includes_quantiles():
    h = Histogram("dur")
    h.observe(1.0, t="a")
    row = h.series()[0]
    assert row["count"] == 1
    assert "p50" in row["quantiles"] and "p99" in row["quantiles"]


# ---------------------------------------------------------------- registry

def test_registry_get_or_create_returns_same_instance():
    reg = MetricsRegistry()
    c1 = reg.counter("ops_total")
    c2 = reg.counter("ops_total")
    assert c1 is c2
    assert len(reg) == 1
    assert "ops_total" in reg


def test_registry_kind_mismatch_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(ValueError):
        reg.gauge("x")
    with pytest.raises(ValueError):
        reg.histogram("x")


def test_registry_snapshot_and_json_round_trip():
    reg = MetricsRegistry()
    reg.counter("ops_total", "help text").inc(3.0, node="n0")
    reg.gauge("depth").set(2.0)
    reg.histogram("dur").observe(0.5)
    snap = json.loads(reg.to_json())
    assert snap["ops_total"]["kind"] == "counter"
    assert snap["ops_total"]["help"] == "help text"
    assert snap["ops_total"]["series"][0]["value"] == 3.0
    assert snap["dur"]["series"][0]["count"] == 1


def test_registry_summary_rows():
    reg = MetricsRegistry()
    reg.counter("ops_total").inc(2.0, node="n0", op="read")
    rows = reg.summary_rows()
    assert rows == [{"metric": "ops_total", "kind": "counter",
                     "labels": "node=n0,op=read", "value": 2.0}]


# ------------------------------------------------------ trace -> metrics

def test_bridge_folds_trace_records_into_instruments():
    trace = TraceCollector()
    trace.emit(0.0, "task", "start", node="n0", transformation="mAdd")
    trace.emit(5.0, "task", "end", node="n0", transformation="mAdd",
               duration=5.0)
    trace.emit(6.0, "task", "failed", node="n1")
    trace.emit(1.0, "storage", "read", system="nfs", nbytes=100.0,
               remote=True)
    trace.emit(2.0, "disk", "write", disk="n0.disk", nbytes=50.0, first=True)
    trace.emit(3.0, "net", "transfer", src="n0", dst="nfs", nbytes=100.0)
    trace.emit(0.0, "schedd", "submit", task="t1")
    trace.emit(9.0, "vm", "terminate", node="n0")
    reg = metrics_from_trace(trace)

    assert reg.counter("tasks_started_total").value(
        node="n0", transformation="mAdd") == 1
    assert reg.counter("tasks_completed_total").value(node="n0") == 1
    assert reg.counter("tasks_failed_total").value(node="n1") == 1
    assert reg.histogram("task_duration_seconds").mean(
        transformation="mAdd") == pytest.approx(5.0)
    assert reg.counter("storage_ops_total").value(
        op="read", storage="nfs", locality="remote") == 1
    assert reg.counter("storage_bytes_total").value(
        op="read", storage="nfs") == 100.0
    assert reg.counter("disk_first_writes_total").value(disk="n0.disk") == 1
    assert reg.counter("net_bytes_total").value(src="n0", dst="nfs") == 100.0
    assert reg.counter("schedd_submits_total").value() == 1
    assert reg.counter("vm_terminations_total").value() == 1


# ------------------------------------------------------- export ordering

def test_histogram_bucket_rows_ordered():
    h = Histogram("dur", buckets=(0.5, 1.0, 10.0, 25.0))
    for v in (0.1, 5.0, 20.0, 100.0):
        h.observe(v)
    rows = h.bucket_rows()
    # Ascending bucket order with +Inf last — a plain dict sorted by
    # json.dumps would scramble "25" in between "0.5" and "+Inf".
    assert rows == [("0.5", 1), ("1", 1), ("10", 2), ("25", 3),
                    ("+Inf", 4)]


def test_histogram_series_buckets_are_ordered_objects():
    h = Histogram("dur", buckets=(0.5, 25.0))
    h.observe(1.0)
    (row,) = h.series()
    assert row["buckets"] == [{"le": "0.5", "count": 0},
                              {"le": "25", "count": 1},
                              {"le": "+Inf", "count": 1}]
    # The ordering survives a sort_keys JSON round trip.
    import json
    doc = json.loads(json.dumps(row, sort_keys=True))
    assert [b["le"] for b in doc["buckets"]] == ["0.5", "25", "+Inf"]
