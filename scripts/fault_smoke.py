#!/usr/bin/env python
"""CI fault-matrix smoke: every storage backend under fault load.

For each storage system, runs one small workflow at a nonzero storage
error rate (plus node crashes where the backend allows more than one
node) and asserts that

* the workflow completes — every task has a successful record;
* the run is deterministic — a second run with the identical seed and
  spec produces a bit-identical makespan and fault report.

Exits nonzero on the first violation.  Keep this fast: it runs on
every push.
"""

import sys

sys.path.insert(0, "src")  # allow running from a plain checkout

from repro.apps import build_synthetic  # noqa: E402
from repro.experiments import ExperimentConfig, run_experiment  # noqa: E402
from repro.storage import STORAGE_NAMES  # noqa: E402

#: (storage, nodes) — every backend, smallest valid deployment that
#: still exercises remote traffic (local disk exists on one node only).
MATRIX = [(name, 1 if name == "local" else 2) for name in STORAGE_NAMES]

ERROR_RATE = 0.1
NODE_MTBF = 600.0  # low enough to usually fire on multi-node cells
SEED = 5


def run_once(storage: str, nodes: int):
    cfg = ExperimentConfig(
        "montage", storage, nodes, seed=SEED,
        storage_error_rate=ERROR_RATE,
        node_mtbf=NODE_MTBF if nodes > 1 else 0.0,
        retries=10,
    )
    wf = build_synthetic(30, width=6, seed=1)
    result = run_experiment(cfg, workflow=wf)
    completed = {r.task_id for r in result.run.records if not r.failed}
    return result, completed


def main() -> int:
    failures = 0
    for storage, nodes in MATRIX:
        a, completed_a = run_once(storage, nodes)
        b, completed_b = run_once(storage, nodes)
        ra, rb = a.faults.as_dict(), b.faults.as_dict()
        problems = []
        if len(completed_a) != 30:
            problems.append(f"incomplete: {len(completed_a)}/30 tasks")
        if a.run.partial:
            problems.append(f"partial: abandoned {a.run.abandoned_jobs}")
        # Bit-exactness is the point here: two runs with one seed must
        # agree to the last ulp, so no tolerance is acceptable.
        if a.makespan != b.makespan:  # lint: ignore[SIM004]
            problems.append(
                f"nondeterministic makespan: {a.makespan!r} != {b.makespan!r}")
        if ra != rb or completed_a != completed_b:
            problems.append("nondeterministic fault report")
        status = "FAIL" if problems else "ok"
        faults_seen = (ra["node_crashes"] + ra["storage_errors"])
        print(f"{status:4} {storage:>20} @{nodes}  "
              f"makespan {a.makespan:9.2f} s  "
              f"crashes {ra['node_crashes']}  evicted {ra['jobs_evicted']}  "
              f"storage errors {ra['storage_errors']} "
              f"(retries {ra['storage_retries']}, "
              f"giveups {ra['storage_giveups']})")
        for p in problems:
            print(f"       - {p}")
        if faults_seen == 0 and storage != "local":
            # local disk has no shared service and a 1-node pool can't
            # crash below min_survivors — zero faults is correct there.
            print(f"       - warning: no fault fired on {storage}@{nodes}")
        failures += bool(problems)
    if failures:
        print(f"\n{failures} backend(s) failed the fault smoke")
        return 1
    print("\nfault smoke passed: all backends complete deterministically "
          "under fault load")
    return 0


if __name__ == "__main__":
    sys.exit(main())
