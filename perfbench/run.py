"""End-to-end benchmark of the simulator: four workloads, output-checked.

Run from the repository root::

    python3 perfbench/run.py                  # every workload, timing + traced pass
    python3 perfbench/run.py --sets 2         # two timing passes, compared
    python3 perfbench/run.py --workload montage_nfs4 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --reference check   # all 54 grid cells, seeds 0 and 1
    python3 perfbench/run.py --reference write   # regenerate reference.json

With ``--workload`` one workload runs in this interpreter and the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Without ``--workload`` every workload runs in its own
fresh interpreter and the metrics are printed as tables.  The exit code
is 0 only when every simulated output matched the reference.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SAMPLES_PREFIX = "samples: "


def iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartiles (0 below 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def _result(spec: Dict[str, Any], trace: bool, checker: Any,
            metrics: Dict[str, Optional[float]]) -> Dict[str, Any]:
    """The result object; its metrics in ``BENCHMARK.json`` order and units."""
    declared = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in declared}
    if metrics and set(metrics) != names:
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(names - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - names)}")
    return {
        "correct": checker.failed == 0 and bool(metrics),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared if m["name"] in metrics},
    }


def _timed(wl: Any, configs: list, seconds: float, checker: Any
           ) -> Dict[str, List[float]]:
    import workloads

    walls = workloads.timing_pass(wl, configs, seconds, checker)
    rss = workloads.peak_rss_mb(wl)
    # Probes run last so that RUSAGE_CHILDREN above sees pool workers only.
    setups = workloads.setup_samples(wl.apps, SRC)
    return {"wall_s": walls, "setup_s": setups, "peak_rss_mb": [rss]}


def _traced(wl: Any, configs: list, seconds: float, checker: Any
            ) -> Dict[str, Optional[float]]:
    import layers
    import workloads

    span, spans = workloads.span_pass(wl, configs, seconds / 2, checker)
    profiled, profiled_wall = workloads.profile_pass(
        wl, configs, checker, SRC / "repro")
    span_wall = span.pop("wall")
    resumes = profiled["simcore.events.resumes"]
    self_total = sum(profiled[f"{layer}.self_s"] for layer in layers.LAYERS)
    metrics = {**span, **profiled}
    metrics["workflow.resumes_per_job"] = (
        None if resumes is None else resumes / span["workflow.jobs"])
    metrics["trace.overhead"] = profiled_wall / span_wall - 1.0
    metrics["trace.profile_coverage"] = self_total / profiled_wall
    label, cell_s = max(spans, key=lambda span: span[1])
    print(f"  critical cell {label}: {cell_s:.3f} s "
          f"(median iteration {span_wall:.3f} s)")
    print(f"  profiled iteration {profiled_wall:.3f} s, layer self time "
          f"{self_total:.3f} s")
    for layer in sorted(layers.LAYERS,
                        key=lambda name: -profiled[f"{name}.self_s"]):
        print(f"    {layer:<20}{profiled[f'{layer}.self_s']:>9.3f} s"
              f"{profiled[f'{layer}.share']:>8.1%}")
    return metrics


def run_workload(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """One workload in this interpreter; prints the result JSON last."""
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    seed = workloads.REFERENCE_SEEDS[args.seed % len(workloads.REFERENCE_SEEDS)]
    trace = bool(args.trace)
    print(f"workload {wl.name}: --seed {args.seed} runs config seed {seed}, "
          f"trace {int(trace)}")
    checker = workloads.Checker(workloads.load_reference(), seed, wl.shape_apps)
    configs = wl.configs(seed)
    metrics: Dict[str, Optional[float]] = {}
    try:
        workloads.build_templates(wl.apps)
        workloads.warm_up(wl, seed, checker)
        if trace:
            metrics = _traced(wl, configs, args.seconds, checker)
        else:
            samples = _timed(wl, configs, args.seconds, checker)
            metrics = {name: statistics.median(values)
                       for name, values in samples.items()}
            for name, values in samples.items():
                print(f"  {name:<12}{metrics[name]:>12.4f}  "
                      f"n={len(values)}  IQR {iqr(values):.4f}")
            print(SAMPLES_PREFIX + json.dumps(samples))
    # A crash is reported like a wrong output: counted, and the run fails.
    except Exception as exc:
        traceback.print_exc()
        checker.crashed(len(configs), exc)
        metrics = {}
    for problem in checker.problems[:20]:
        print(f"MISMATCH {problem}", file=sys.stderr)
    result = _result(spec, trace, checker, metrics)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _child(name: str, seed: int, seconds: float, trace: int
           ) -> Tuple[Dict[str, Any], Dict[str, List[float]]]:
    """Run one workload in a fresh interpreter; its result and samples."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=False)
    result: Dict[str, Any] = {}
    samples: Dict[str, List[float]] = {}
    for line in proc.stdout.splitlines():
        if line.startswith(SAMPLES_PREFIX):
            samples = json.loads(line[len(SAMPLES_PREFIX):])
        elif line.startswith("{"):
            result = json.loads(line)
        else:
            print(line)
    result["correct"] = proc.returncode == 0 and bool(result.get("correct"))
    return result, samples


def run_all(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """Every workload: ``--sets`` timing passes and one traced pass."""
    import workloads

    timed: Dict[str, List[Dict[str, List[float]]]] = {}
    traced: Dict[str, Dict[str, Any]] = {}
    ok = True
    for name in workloads.WORKLOADS:
        timed[name] = []
        for _ in range(args.sets):
            result, samples = _child(name, args.seed, args.seconds, 0)
            ok &= bool(result.get("correct"))
            timed[name].append(samples)
        traced[name], _ = _child(name, args.seed, args.seconds, 1)
        ok &= bool(traced[name].get("correct"))

    print("\nend-to-end: median per set (n, IQR as share of median)")
    for metric in spec["end_to_end"]:
        key, bound = metric["name"], metric["bound"]
        for name in workloads.WORKLOADS:
            sets = [s[key] for s in timed[name] if key in s]
            if not sets:
                print(f"{name:<24}{key:<13} no result")
                continue
            medians = [statistics.median(v) for v in sets]
            spreads = [iqr(v) / m for v, m in zip(sets, medians)]
            cells = "  ".join(f"{m:.4f} {metric['unit']} (n={len(v)}, {s:.1%})"
                              for m, v, s in zip(medians, sets, spreads))
            verdict = ""
            if len(sets) > 1:
                verdict = (f"  ratio {medians[-1] / medians[0]:.3f}  "
                           + ("unresolved" if max(spreads) > bound else "ok"))
            print(f"{name:<24}{key:<13}{cells}{verdict}")

    names = list(workloads.WORKLOADS)
    print("\nper-layer (traced pass)")
    print(f"{'metric':<36}" + "".join(f"{n:>24}" for n in names))
    for metric in spec["per_layer"]:
        row = []
        for name in names:
            value = traced[name].get("metrics", {}).get(
                metric["name"], {}).get("value")
            row.append("null" if value is None else str(value)
                       if isinstance(value, int) else f"{value:.6g}")
        print(f"{metric['name']:<36}" + "".join(f"{v:>24}" for v in row))
    print("\nall outputs match the reference" if ok
          else "\nFAILED: a workload crashed or an output did not match")
    return 0 if ok else 1


def run_reference(action: str) -> int:
    """Run all 54 grid cells at every reference seed; write or check."""
    import workloads
    from repro.experiments.config import PAPER_APPS

    workloads.build_templates(PAPER_APPS)
    cells: Dict[str, Dict[str, Dict[str, str]]] = {}
    failed = 0
    for seed in workloads.REFERENCE_SEEDS:
        results = workloads.paper_grid(seed, jobs=2)
        cells[str(seed)] = {r.label: workloads.fingerprint(r) for r in results}
        for claim, passed in workloads.shape_checks(results, PAPER_APPS):
            print(f"seed {seed}  {'pass' if passed else 'FAIL'}  {claim}")
            failed += not passed
    if action == "write":
        if failed:
            print(f"refusing to write: {failed} shape checks failed")
            return 1
        workloads.REFERENCE_PATH.write_text(json.dumps(
            {"schema": 1, "cells": cells}, indent=1, sort_keys=True) + "\n")
        print(f"wrote {workloads.REFERENCE_PATH}")
        return 0
    expected = workloads.load_reference()["cells"]
    for seed, by_label in cells.items():
        for label, got in by_label.items():
            if expected.get(seed, {}).get(label) != got:
                print(f"seed {seed}  MISMATCH {label}: {got}")
                failed += 1
    n_cells = sum(len(by_label) for by_label in cells.values())
    print(f"{n_cells} cells checked, {failed} failures")
    return 0 if failed == 0 else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        help="run one workload here and print its result JSON")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; config seed is seed %% 2 (default 0)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time per run (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced pass with per-layer metrics")
    parser.add_argument("--sets", type=int, default=1,
                        help="timing passes per workload without --workload")
    parser.add_argument("--reference", choices=("check", "write"),
                        help="run the whole 54-cell grid against reference.json")
    args = parser.parse_args(argv)
    if args.sets < 1:
        parser.error("--sets must be >= 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.reference:
        return run_reference(args.reference)
    if args.workload:
        import workloads
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; known: "
                         + ", ".join(workloads.WORKLOADS))
        return run_workload(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
