"""Unit tests for trace collection and deterministic random streams."""

import numpy as np
import pytest

from repro.simcore import NULL_COLLECTOR, TraceCollector, jittered, substream


def test_emit_and_select():
    tc = TraceCollector()
    tc.emit(1.0, "task", "start", task="t1", node="n0")
    tc.emit(2.0, "task", "end", task="t1", node="n0")
    tc.emit(1.5, "storage", "read", nbytes=100)
    assert len(tc) == 3
    assert len(tc.select("task")) == 2
    assert len(tc.select("task", "start")) == 1
    assert tc.select("task", task="t1")[0].get("node") == "n0"


def test_count_and_sum():
    tc = TraceCollector()
    for i in range(5):
        tc.emit(float(i), "storage", "read", nbytes=10.0 * i)
    assert tc.count("storage", "read") == 5
    assert tc.sum_field("nbytes", "storage", "read") == pytest.approx(100.0)


def test_field_filter_mismatch():
    tc = TraceCollector()
    tc.emit(0.0, "a", "x", k=1)
    assert tc.count("a", "x", k=2) == 0


def test_disabled_collector_drops_everything():
    tc = TraceCollector(enabled=False)
    tc.emit(0.0, "a", "x")
    assert len(tc) == 0
    NULL_COLLECTOR.emit(0.0, "a", "x")
    assert len(NULL_COLLECTOR) == 0


def test_record_get_default():
    tc = TraceCollector()
    tc.emit(0.0, "a", "x")
    assert tc.records[0].get("missing", 42) == 42


def test_clear_drops_indexes_with_records():
    tc = TraceCollector()
    tc.emit(0.0, "task", "start", task="t1")
    tc.clear()
    assert tc.select("task", "start") == []
    assert tc.count("task") == 0
    assert tc.sum_field("nbytes", "task") == 0.0
    # New emits after clear() are indexed fresh.
    tc.emit(1.0, "task", "start", task="t2")
    assert tc.count("task", "start") == 1


def test_index_consistency_with_linear_scan():
    """Indexed select/count/sum_field must agree with a full scan."""
    tc = TraceCollector()
    cats = ("task", "storage", "disk")
    evs = ("start", "end")
    for i in range(60):
        tc.emit(float(i), cats[i % 3], evs[i % 2], nbytes=float(i), k=i % 5)
    for cat in cats + (None,):
        for ev in evs + (None,):
            expect = [r for r in tc.records
                      if (cat is None or r.category == cat)
                      and (ev is None or r.event == ev)]
            assert tc.select(cat, ev) == expect
            assert tc.count(cat, ev) == len(expect)
            assert tc.sum_field("nbytes", cat, ev) == pytest.approx(
                sum(r.get("nbytes", 0.0) for r in expect))
    # Field filters still apply on top of the index.
    assert tc.select("task", "start", k=0) == \
        [r for r in tc.records if r.category == "task"
         and r.event == "start" and r.get("k") == 0]


def test_select_returns_copy_not_index():
    tc = TraceCollector()
    tc.emit(0.0, "a", "x")
    rows = tc.select("a", "x")
    rows.clear()  # mutating the result must not corrupt the index
    assert tc.count("a", "x") == 1


# ----------------------------------------------------------------- rand

def test_substream_reproducible():
    a = substream(7, "disk", 0).random(5)
    b = substream(7, "disk", 0).random(5)
    assert np.allclose(a, b)


def test_substream_independent_names():
    a = substream(7, "disk", 0).random(5)
    b = substream(7, "disk", 1).random(5)
    assert not np.allclose(a, b)


def test_substream_seed_changes_stream():
    a = substream(1, "x").random(5)
    b = substream(2, "x").random(5)
    assert not np.allclose(a, b)


def test_jittered_deterministic_without_rng():
    assert jittered(None, 10.0, 0.5) == 10.0
    rng = substream(0, "j")
    assert jittered(rng, 10.0, 0.0) == 10.0


def test_jittered_stays_positive():
    rng = substream(0, "j")
    vals = [jittered(rng, 10.0, 0.5) for _ in range(1000)]
    assert all(v > 0 for v in vals)
    # Mean should remain near the nominal value.
    assert 8.0 < float(np.mean(vals)) < 12.0
