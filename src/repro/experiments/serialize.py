"""Lossless JSON round-trip for :class:`ExperimentResult`.

The service layer (``repro.service``) persists full experiment results
in a content-addressed store keyed by ``ExperimentConfig.digest()`` and
serves them back over HTTP, so the serialized form must reconstruct a
result that is *indistinguishable* from the freshly-simulated one:
same makespan and cost to the last bit, same telemetry (metrics
snapshot, Prometheus exposition, spans), same fault report.

Design notes
------------

* **Versioned.**  Every document carries ``schema``
  (:data:`RESULT_SCHEMA_VERSION`); readers reject unknown versions
  instead of guessing.
* **No precision loss.**  ``json.dumps`` emits the shortest
  round-trip ``repr`` for floats, so every float survives exactly;
  nothing is ever formatted through ``str()``/``repr()`` into a lossy
  string field.
* **Telemetry from the trace.**  The document stores the raw
  ``(time, category, event, fields)`` trace records;
  :func:`result_from_dict` re-emits them into a fresh collector, which
  rebuilds its query indexes.  Metrics and spans are derived from the
  trace on request (:attr:`ExperimentResult.metrics`), so a restored
  result reports exactly what the live one did.
* **The one exclusion: ``run.plan``.**  The executable plan holds the
  live storage deployment and workflow objects of the simulated world;
  it is a planning artifact, not a measurement, and nothing downstream
  of a finished run reads it.  Serialized results carry ``plan: None``.

:func:`result_digest` hashes the canonical document — two results with
equal digests are interchangeable, which is the equality the service
acceptance test pins for warm-cache resubmission.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Any, Dict, Optional

from ..cloud.billing import CostBreakdown
from ..cost.model import WorkflowCost
from ..cost.pricing import S3Fees
from ..faults.injector import FaultReport
from ..simcore.tracing import TraceCollector
from ..storage.base import StorageStats
from ..telemetry.sampler import Timeline
from ..workflow.executor import JobRecord
from ..workflow.wms import WorkflowRun
from .config import ExperimentConfig
from .runner import ExperimentResult

#: Bump when a field is added/renamed/retyped; readers key on it.
RESULT_SCHEMA_VERSION = 1


def result_to_dict(result: ExperimentResult) -> Dict[str, Any]:
    """The JSON-compatible document for one experiment result."""
    run = result.run
    trace = result.trace
    return {
        "schema": RESULT_SCHEMA_VERSION,
        "config": result.config.to_dict(),
        "run": {
            "workflow_name": run.workflow_name,
            "storage_name": run.storage_name,
            "n_workers": run.n_workers,
            "start_time": run.start_time,
            "end_time": run.end_time,
            "records": [asdict(r) for r in run.records],
            "storage_stats": asdict(run.storage_stats),
            "abandoned_jobs": list(run.abandoned_jobs),
            "rescued_jobs": list(run.rescued_jobs),
        },
        "cost": {
            "resource": asdict(result.cost.resource),
            "s3_fees": (asdict(result.cost.s3_fees)
                        if result.cost.s3_fees is not None else None),
        },
        "trace": None if trace is None else {
            "records": [[r.time, r.category, r.event, r.fields]
                        for r in trace.records],
            "next_id": trace._next_id,
        },
        "timeline": (result.timeline.as_dict()
                     if result.timeline is not None else None),
        "faults": (asdict(result.faults)
                   if result.faults is not None else None),
    }


def result_from_dict(data: Dict[str, Any]) -> ExperimentResult:
    """Rebuild a full :class:`ExperimentResult` from its document."""
    schema = data.get("schema")
    if schema != RESULT_SCHEMA_VERSION:
        raise ValueError(f"unsupported result schema {schema!r} "
                         f"(expected {RESULT_SCHEMA_VERSION})")
    config = ExperimentConfig.from_dict(data["config"])
    raw_run = data["run"]
    run = WorkflowRun(
        workflow_name=raw_run["workflow_name"],
        storage_name=raw_run["storage_name"],
        n_workers=raw_run["n_workers"],
        start_time=raw_run["start_time"],
        end_time=raw_run["end_time"],
        records=[JobRecord(**r) for r in raw_run["records"]],
        storage_stats=StorageStats(**raw_run["storage_stats"]),
        abandoned_jobs=list(raw_run["abandoned_jobs"]),
        rescued_jobs=list(raw_run["rescued_jobs"]),
    )
    raw_cost = data["cost"]
    cost = WorkflowCost(
        resource=CostBreakdown(**raw_cost["resource"]),
        s3_fees=(S3Fees(**raw_cost["s3_fees"])
                 if raw_cost["s3_fees"] is not None else None),
    )
    trace: Optional[TraceCollector] = None
    if data["trace"] is not None:
        trace = TraceCollector()
        emit = trace.emit
        for time, category, event, fields in data["trace"]["records"]:
            emit(time, category, event, **fields)
        trace._next_id = data["trace"]["next_id"]
    timeline: Optional[Timeline] = None
    if data["timeline"] is not None:
        timeline = Timeline()
        timeline.times = list(data["timeline"]["times"])
        timeline.series = {k: list(v)
                           for k, v in data["timeline"]["series"].items()}
    faults: Optional[FaultReport] = None
    if data["faults"] is not None:
        faults = FaultReport(**data["faults"])
    return ExperimentResult(config=config, run=run, cost=cost,
                            trace=trace, timeline=timeline, faults=faults)


def result_to_json(result: ExperimentResult,
                   indent: Optional[int] = None) -> str:
    """Canonical JSON text (sorted keys; compact when ``indent=None``).

    Canonical means: serializing the same measurements always yields
    the same bytes, so stored payloads can be compared with ``==`` and
    content-hashed with :func:`result_digest`.
    """
    separators = (",", ":") if indent is None else (",", ": ")
    return json.dumps(result_to_dict(result), indent=indent,
                      separators=separators, sort_keys=True)


def result_from_json(text: str) -> ExperimentResult:
    """Parse the output of :func:`result_to_json`."""
    return result_from_dict(json.loads(text))


def result_digest(result: ExperimentResult) -> str:
    """Content hash (hex sha256) of the canonical result document.

    Stable across serialize/deserialize cycles: a result loaded from
    the store digests identically to the run that produced it.
    """
    payload = result_to_json(result)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
