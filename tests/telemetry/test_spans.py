"""Tests for span production, reconstruction, and Chrome-trace export."""

import json

import pytest

from repro.simcore.engine import Environment
from repro.simcore.tracing import NULL_COLLECTOR, TraceCollector
from repro.telemetry.spans import (
    DISABLED_SPAN,
    SpanBuilder,
    iter_spans,
    load_chrome_trace,
    spans_from_trace,
    summarize_chrome_trace,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
)


def builder():
    env = Environment()
    trace = TraceCollector()
    return env, trace, SpanBuilder(trace, env)


# ------------------------------------------------------------- production

def test_begin_end_pairs_emit_records():
    env, trace, sb = builder()
    sid = sb.begin("job", "t1", node="n0")
    env.run(until=3.0)
    sb.end(sid, failed=False)
    begins = trace.select("span", "begin")
    ends = trace.select("span", "end")
    assert len(begins) == 1 and len(ends) == 1
    assert begins[0].get("span_id") == sid
    assert begins[0].get("node") == "n0"
    assert ends[0].time == 3.0


def test_stack_nesting_sets_parents():
    env, trace, sb = builder()
    outer = sb.begin("workflow", "wf")
    inner = sb.begin("job", "t1")
    assert sb.current == inner
    sb.end(inner)
    assert sb.current == outer
    sb.end(outer)
    begins = {r.get("name"): r for r in trace.select("span", "begin")}
    assert begins["wf"].get("parent_id") is None
    assert begins["t1"].get("parent_id") == outer


def test_root_parent_links_across_builders():
    env = Environment()
    trace = TraceCollector()
    parent_sb = SpanBuilder(trace, env)
    wf = parent_sb.begin("workflow", "wf")
    child_sb = SpanBuilder(trace, env, root_parent=wf)
    job = child_sb.begin("job", "t1")
    begins = {r.get("name"): r for r in trace.select("span", "begin")}
    assert begins["t1"].get("parent_id") == wf
    child_sb.end(job)
    parent_sb.end(wf)


def test_out_of_order_end_unwinds_stack():
    env, trace, sb = builder()
    outer = sb.begin("a", "outer")
    sb.begin("b", "inner")  # never explicitly closed
    sb.end(outer)
    assert sb.current is None


def test_disabled_builder_is_inert():
    env = Environment()
    sb = SpanBuilder(NULL_COLLECTOR, env)
    assert not sb.enabled
    sid = sb.begin("job", "t1")
    assert sid == DISABLED_SPAN
    sb.end(sid)  # must not raise or emit
    assert len(NULL_COLLECTOR) == 0


# --------------------------------------------------------- reconstruction

def test_spans_from_trace_rebuilds_tree():
    env, trace, sb = builder()
    wf = sb.begin("workflow", "wf")
    env.run(until=1.0)
    job = sb.begin("job", "t1", node="n0")
    env.run(until=4.0)
    sb.end(job, failed=False)
    env.run(until=5.0)
    sb.end(wf)

    roots = spans_from_trace(trace)
    assert len(roots) == 1
    root = roots[0]
    assert root.name == "wf" and root.category == "workflow"
    assert root.duration == pytest.approx(5.0)
    assert len(root.children) == 1
    child = root.children[0]
    assert child.name == "t1"
    assert child.start == 1.0 and child.end == 4.0
    assert child.fields["node"] == "n0"
    assert child.fields["failed"] is False  # end-fields merged in
    assert [s.name for s in root.walk()] == ["wf", "t1"]


def test_unclosed_span_clamped_to_last_record_time():
    env, trace, sb = builder()
    sid = sb.begin("vm", "n0")
    env.run(until=7.0)
    trace.emit(env.now, "task", "end", task="t")  # advances last time
    roots = spans_from_trace(trace)
    (span,) = roots
    assert span.span_id == sid
    assert not any(True for r in trace.select("span", "end"))
    assert span.end == 7.0  # clamped, not left open
    assert span.duration == pytest.approx(7.0)


def test_children_sorted_by_start_time():
    env, trace, sb = builder()
    wf = sb.begin("workflow", "wf")
    env.run(until=2.0)
    b = sb.begin("job", "b", parent_id=wf)
    sb.end(b)
    # "a" begins after "b" in record order but earlier in sim time
    # (emitted retroactively); children must sort by start, not arrival.
    trace.emit(1.0, "span", "begin", span_id=10_000, parent_id=wf,
               span_category="job", name="a")
    trace.emit(1.5, "span", "end", span_id=10_000)
    sb.end(wf)
    roots = spans_from_trace(trace)
    assert [c.name for c in roots[0].children] == ["a", "b"]


def test_iter_spans_flattens_depth_first():
    env, trace, sb = builder()
    a = sb.begin("x", "a")
    b = sb.begin("x", "b")
    sb.end(b)
    sb.end(a)
    names = [s.name for s in iter_spans(spans_from_trace(trace))]
    assert names == ["a", "b"]


# ----------------------------------------------------------------- export

def _sample_roots():
    env, trace, sb = builder()
    wf = sb.begin("workflow", "wf", n_workers=2)
    job = sb.begin("job", "t1", node="n0")
    env.run(until=2.5)
    sb.end(job)
    sb.end(wf)
    return spans_from_trace(trace)


def test_chrome_trace_structure():
    doc = to_chrome_trace(_sample_roots())
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    complete = [e for e in events if e["ph"] == "X"]
    assert any(e["name"] == "process_name" for e in meta)
    # One thread row for the node, one for the node-less workflow span.
    thread_names = {e["args"]["name"] for e in meta
                    if e["name"] == "thread_name"}
    assert thread_names == {"n0", "(workflow)"}
    assert len(complete) == 2
    job_ev = next(e for e in complete if e["name"] == "t1")
    assert job_ev["ts"] == 0.0
    assert job_ev["dur"] == pytest.approx(2.5e6)  # microseconds
    assert job_ev["args"]["node"] == "n0"


def test_chrome_trace_round_trip(tmp_path):
    path = str(tmp_path / "trace.json")
    n = write_chrome_trace(path, _sample_roots())
    assert n == 2
    doc = load_chrome_trace(path)
    # The JSON round-trip must preserve the document exactly.
    assert doc == to_chrome_trace(_sample_roots())
    summary = summarize_chrome_trace(doc)
    assert "2 spans" in summary
    assert "workflow" in summary and "job" in summary


def test_load_chrome_trace_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nope": []}))
    with pytest.raises(ValueError):
        load_chrome_trace(str(bad))
    bad.write_text(json.dumps({"traceEvents": [{"no_ph": 1}]}))
    with pytest.raises(ValueError):
        load_chrome_trace(str(bad))


def test_jsonl_one_line_per_span():
    out = to_jsonl(_sample_roots())
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 2
    assert {row["category"] for row in rows} == {"workflow", "job"}
    assert all("duration" in row for row in rows)


def test_summarize_empty_trace():
    assert "empty trace" in summarize_chrome_trace({"traceEvents": []})
