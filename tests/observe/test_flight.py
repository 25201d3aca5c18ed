"""Flight recorder: ring bounds, crash bundles, postmortem summary."""

import pytest

from repro.experiments import ExperimentConfig
from repro.observe.flight import (
    BUNDLE_SCHEMA_VERSION,
    FlightRecorder,
    bundle_dirname,
    crash_bundle,
    load_crash_bundles,
    summarize_bundle,
    validate_bundle,
    write_crash_bundle,
)


def _config(**over):
    return ExperimentConfig("montage", "local", 1).with_(**over)


def _fill(recorder, n):
    for i in range(n):
        recorder.trace.emit(float(i), "task", "start", node="n0",
                            transformation=f"t{i}")


class TestRecorder:
    def test_ring_keeps_last_n(self):
        rec = FlightRecorder(capacity=4)
        _fill(rec, 10)
        assert rec.n_seen == 10
        rows = rec.ring_rows()
        assert len(rows) == 4
        assert [r["time"] for r in rows] == [6.0, 7.0, 8.0, 9.0]
        assert rows[-1]["fields"]["transformation"] == "t9"

    def test_partial_metrics_counted(self):
        rec = FlightRecorder(capacity=2)
        _fill(rec, 5)
        counter = rec.metrics.get("tasks_started_total")
        assert counter is not None
        assert counter.total() == 5

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=0)

    def test_external_collector_adopted(self):
        # run_experiment records into the recorder's collector even when
        # the cell keeps no trace of its own.
        from repro.apps import build_synthetic
        from repro.experiments import run_experiment
        rec = FlightRecorder(capacity=8)
        workflow = build_synthetic(10, width=2, seed=1)
        result = run_experiment(ExperimentConfig("synthetic", "local", 1),
                                workflow=workflow, trace=rec.trace)
        assert result.trace is None and result.metrics is None
        assert rec.n_seen == len(rec.trace.records) > len(rec.ring_rows()) == 8
        completed = rec.metrics.counter("tasks_completed_total")
        assert completed.total() == len(workflow.tasks)


class TestBundle:
    def _bundle(self, with_flight=True):
        rec = None
        if with_flight:
            rec = FlightRecorder(capacity=4)
            _fill(rec, 6)
        try:
            raise RuntimeError("job mProject_3 failed 2 times")
        except RuntimeError as exc:
            return crash_bundle(_config(), 1, exc, rec)

    def test_fields(self):
        bundle = self._bundle()
        assert bundle["schema"] == BUNDLE_SCHEMA_VERSION
        assert bundle["kind"] == "crash_bundle"
        assert bundle["index"] == 1
        assert bundle["label"] == _config().label
        assert bundle["digest"] == _config().digest()
        assert bundle["config"]["app"] == "montage"
        assert bundle["error"]["type"] == "RuntimeError"
        assert "Traceback" in bundle["error"]["traceback"]
        assert bundle["flight"]["n_seen"] == 6
        assert len(bundle["flight"]["events"]) == 4
        assert validate_bundle(bundle) == []

    def test_without_recorder(self):
        bundle = self._bundle(with_flight=False)
        assert "flight" not in bundle
        assert validate_bundle(bundle) == []

    def test_validate_catches_problems(self):
        bundle = self._bundle()
        assert any("schema" in p for p in
                   validate_bundle({**bundle, "schema": 99}))
        assert any("missing field" in p for p in
                   validate_bundle({"schema": BUNDLE_SCHEMA_VERSION}))
        broken = {**bundle, "error": {"type": "X"}}
        assert any("error record" in p for p in validate_bundle(broken))

    def test_write_load_roundtrip(self, tmp_path):
        bundle = self._bundle()
        path = write_crash_bundle(str(tmp_path), bundle)
        assert path.endswith("bundle.json")
        assert bundle_dirname(bundle) in path
        loaded = load_crash_bundles(str(tmp_path))
        assert len(loaded) == 1
        assert loaded[0][0] == path
        assert loaded[0][1] == bundle

    def test_load_missing_dir(self, tmp_path):
        assert load_crash_bundles(str(tmp_path / "nope")) == []

    def test_load_sorted_by_index(self, tmp_path):
        try:
            raise ValueError("x")
        except ValueError as exc:
            for idx in (3, 0, 2):
                write_crash_bundle(
                    str(tmp_path),
                    crash_bundle(_config(seed=idx), idx, exc))
        indices = [b["index"]
                   for _, b in load_crash_bundles(str(tmp_path))]
        assert indices == [0, 2, 3]

    def test_summary_readable(self):
        bundle = self._bundle()
        text = summarize_bundle(bundle, tail=3)
        assert "RuntimeError: job mProject_3 failed 2 times" in text
        assert bundle["digest"][:12] in text
        assert "flight ring: last 4 of 6" in text
        assert "task/start" in text
        assert "tasks_started_total" in text
