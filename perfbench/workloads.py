"""The benchmark's workloads and the passes that measure them.

Every pass drives the simulator through its public entry points
(``run_experiment``, ``run_sweep``, ``app_template``) and observes it
from outside: wall clock around each iteration, ``gc.callbacks``,
``resource.getrusage``, sweep ``progress``/monitor callbacks, and
``cProfile``.  Every cell result any pass produces is checked against
the committed ``reference.json``; the grid workloads also evaluate the
paper's shape checks for the figures they cover.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from layers import layer_metrics

from repro.apps.templates import app_template
from repro.experiments.config import PAPER_APPS, ExperimentConfig, paper_matrix
from repro.experiments.paper import check_cost_shapes, check_shapes
from repro.experiments.runner import (ExperimentResult, ObserveOptions,
                                      run_experiment, run_sweep)
from repro.observe.monitor import SweepMonitor
from repro.observe.profiles import capture_profile, merge_stats

REFERENCE_PATH = Path(__file__).with_name("reference.json")
#: Config seeds the reference holds; ``--seed n`` runs seed ``n % 2``.
REFERENCE_SEEDS = (0, 1)
#: Fresh-interpreter set-up probes per run (their median is ``setup_s``).
SETUP_PROBES = 7
_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); "
          "import repro.experiments.runner; "
          "from repro.apps.templates import app_template; "
          "[app_template(a).instantiate() for a in sys.argv[2:]]")


@dataclass(frozen=True)
class Workload:
    """One workload: a single cell, or the full figure grids of ``apps``.

    A single cell (``cell`` set) runs through ``run_experiment``; a grid
    runs through ``run_sweep`` with ``jobs`` workers.
    """

    name: str
    apps: Tuple[str, ...]
    cell: Optional[Tuple[str, int]] = None
    jobs: int = 1
    collect_traces: bool = False

    @property
    def shape_apps(self) -> Tuple[str, ...]:
        """Apps whose figure shape checks every iteration evaluates."""
        return () if self.cell is not None else self.apps

    def configs(self, seed: int) -> List[ExperimentConfig]:
        if self.cell is not None:
            storage, nodes = self.cell
            return [ExperimentConfig(self.apps[0], storage, nodes, seed=seed,
                                     collect_traces=self.collect_traces)]
        return [cfg for app in self.apps
                for cfg in paper_matrix(app, seed=seed,
                                        collect_traces=self.collect_traces)]

    def warmup_configs(self, seed: int) -> List[ExperimentConfig]:
        """A single cell warms up on itself, a grid on each app's cheapest
        cell (local disk, one node)."""
        if self.cell is not None:
            return self.configs(seed)
        return [ExperimentConfig(app, "local", 1, seed=seed) for app in self.apps]

    def run(self, configs: Sequence[ExperimentConfig],
            progress: Optional[Callable[[ExperimentResult], None]] = None,
            observe: Optional[ObserveOptions] = None
            ) -> List[Optional[ExperimentResult]]:
        if self.cell is not None:
            return [run_experiment(configs[0])]
        return run_sweep(configs, jobs=self.jobs, progress=progress,
                         observe=observe)


#: The Epigenome and Broadband grids (Figs. 3, 4, 6 and 7: 36 cells).
#: Montage's 18 grid cells take about 43 s of CPU, more than one run of
#: the benchmark may take; Montage is measured by ``montage_nfs4``.
GRID_APPS = ("epigenome", "broadband")
WORKLOADS: Dict[str, Workload] = {wl.name: wl for wl in (
    Workload("montage_nfs4", ("montage",), cell=("nfs", 4)),
    Workload("broadband_nfs4_traced", ("broadband",), cell=("nfs", 4),
             collect_traces=True),
    Workload("grid_serial", GRID_APPS, jobs=1),
    Workload("grid_jobs2", GRID_APPS, jobs=2),
)}


# -- output checks ------------------------------------------------------------


def fingerprint(result: ExperimentResult) -> Dict[str, str]:
    """The exact reprs the reference pins for one cell."""
    return {"makespan": repr(result.makespan),
            "per_hour_total": repr(result.cost.per_hour_total),
            "per_second_total": repr(result.cost.per_second_total)}


def shape_checks(results: Sequence[ExperimentResult],
                 apps: Sequence[str]) -> List[Tuple[str, bool]]:
    """Every figure and cost shape check of ``apps`` over these cells."""
    outcomes = []
    for app in apps:
        cells = [r for r in results if r.config.app == app]
        keys = [(r.config.storage, r.config.n_workers) for r in cells]
        makespans = dict(zip(keys, (r.makespan for r in cells)))
        hourly = dict(zip(keys, (r.cost.per_hour_total for r in cells)))
        secondly = dict(zip(keys, (r.cost.per_second_total for r in cells)))
        for check, ok in (check_shapes(app, makespans)
                          + check_cost_shapes(app, hourly, secondly)):
            outcomes.append((f"{check.figure}: {check.claim}", ok))
    return outcomes


def load_reference() -> Dict[str, Any]:
    return json.loads(REFERENCE_PATH.read_text())


class Checker:
    """Compares every result against the reference; counts outcomes."""

    def __init__(self, reference: Dict[str, Any], seed: int,
                 shape_apps: Sequence[str] = ()) -> None:
        self.expected = reference["cells"][str(seed)]
        self.shape_apps = tuple(shape_apps)
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check_cells(self, configs: Sequence[ExperimentConfig],
                    results: Sequence[Optional[ExperimentResult]]) -> None:
        for config, result in zip(configs, results, strict=True):
            got = fingerprint(result) if result is not None else None
            self.attempted += 1
            if got != self.expected.get(config.label):
                self._fail(f"{config.label}: got {got}, "
                           f"expected {self.expected.get(config.label)}")

    def check(self, configs: Sequence[ExperimentConfig],
              results: Sequence[ExperimentResult]) -> None:
        """Check one whole iteration: its cells, then its shape checks."""
        self.check_cells(configs, results)
        for claim, ok in shape_checks(results, self.shape_apps):
            self.attempted += 1
            if not ok:
                self._fail(f"shape check failed: {claim}")

    def crashed(self, n_cells: int, exc: BaseException) -> None:
        self.attempted += n_cells
        self.failed += n_cells
        self.problems.append(f"{type(exc).__name__}: {exc}")

    def _fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


# -- passes -------------------------------------------------------------------


def build_templates(apps: Sequence[str]) -> None:
    for app in apps:
        app_template(app).instantiate()


def warm_up(wl: Workload, seed: int, checker: Checker) -> None:
    """One untimed run of the warm-up cells (imports, lazy caches)."""
    for config in wl.warmup_configs(seed):
        checker.check_cells([config], [run_experiment(config)])


def _loop(seconds: float, iterate: Callable[[], float]) -> List[float]:
    """Run ``iterate`` (which returns its own wall time) until the next
    iteration would end past ``seconds``; at least once."""
    walls: List[float] = []
    start = time.perf_counter()
    while True:
        gc.collect()
        walls.append(iterate())
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return walls


def timing_pass(wl: Workload, configs: List[ExperimentConfig],
                seconds: float, checker: Checker) -> List[float]:
    """Plain timed iterations; returns each iteration's wall seconds."""
    def iterate() -> float:
        t0 = time.perf_counter()
        results = wl.run(configs)
        wall = time.perf_counter() - t0
        checker.check(configs, results)
        return wall

    return _loop(seconds, iterate)


def peak_rss_mb(wl: Workload) -> float:
    """``ru_maxrss`` of this process, or of its largest pool worker."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if wl.jobs > 1:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def setup_samples(apps: Sequence[str], src_dir: Path) -> List[float]:
    """Wall seconds of fresh interpreters that import ``repro`` and build
    the workload's app templates."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", _PROBE, str(src_dir), *apps],
                       check=True)
        samples.append(time.perf_counter() - t0)
    return samples


class _GcWatch:
    """``gc.callbacks`` hook: time and number of collections."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self.gen2 = 0
        self._t0 = 0.0

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
            return
        self.seconds += time.perf_counter() - self._t0
        self.collections += 1
        self.gen2 += info["generation"] == 2


def _cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _result_counts(results: Sequence[ExperimentResult]) -> Dict[str, int]:
    stats = [r.run.storage_stats for r in results]
    return {
        "workflow.jobs": sum(r.run.n_jobs for r in results),
        "storage.reads": sum(s.reads for s in stats),
        "storage.writes": sum(s.writes for s in stats),
        "storage.remote_reads": sum(s.remote_reads for s in stats),
        "storage.s3_requests": sum(s.get_requests + s.put_requests
                                   for s in stats),
        "telemetry.trace_records": sum(len(r.trace.records) for r in results
                                       if r.trace is not None),
    }


def span_pass(wl: Workload, configs: List[ExperimentConfig],
              seconds: float, checker: Checker
              ) -> Tuple[Dict[str, float], List[Tuple[str, float]]]:
    """Timed iterations with spans at the sweep and cell boundaries.

    Returns the per-iteration medians of the span metrics plus the
    deterministic result counts, and the cell spans of the last
    iteration as ``(label, seconds)``.
    """
    rows: List[Dict[str, float]] = []
    counts: Dict[str, int] = {}
    spans: List[Tuple[str, float]] = []

    def iterate() -> float:
        nonlocal counts, spans
        watch = _GcWatch()
        marks: List[float] = []
        monitor = SweepMonitor() if wl.jobs > 1 else None
        observe = ObserveOptions(monitor=monitor) if monitor else None
        self0 = _cpu_seconds(resource.RUSAGE_SELF)
        child0 = _cpu_seconds(resource.RUSAGE_CHILDREN)
        gc.callbacks.append(watch)
        try:
            t0 = time.perf_counter()
            results = wl.run(configs, progress=lambda _: marks.append(
                time.perf_counter()), observe=observe)
            wall = time.perf_counter() - t0
        finally:
            gc.callbacks.remove(watch)
        parent_cpu = _cpu_seconds(resource.RUSAGE_SELF) - self0
        child_cpu = _cpu_seconds(resource.RUSAGE_CHILDREN) - child0
        if monitor is not None:
            cell_s = list(monitor.latencies)
        elif wl.cell is not None:
            cell_s = [wall]
        else:
            cell_s = [b - a for a, b in zip([t0] + marks, marks)]
        spans = list(zip((c.label for c in configs), cell_s))
        rows.append({
            "experiments.sweep.cell_s_sum": sum(cell_s),
            "experiments.sweep.critical_cell_s": max(cell_s),
            "experiments.sweep.pool_util": sum(cell_s) / (wall * wl.jobs),
            "experiments.sweep.parent_cpu_s": parent_cpu,
            "experiments.sweep.cpu_s": parent_cpu + child_cpu,
            "runtime.gc_s": watch.seconds,
            "runtime.gc_share": watch.seconds / wall,
            "runtime.gc_gen2": watch.gen2,
            "runtime.gc_collections": watch.collections,
            "wall": wall,
        })
        checker.check(configs, results)
        counts = _result_counts(results)
        return wall

    _loop(seconds, iterate)
    medians = {name: statistics.median(row[name] for row in rows)
               for name in rows[0]}
    return {**medians, **counts}, spans


def profile_pass(wl: Workload, configs: List[ExperimentConfig],
                 checker: Checker, package_dir: Path
                 ) -> Tuple[Dict[str, Optional[float]], float]:
    """One iteration under ``cProfile``, folded into layers.

    A pool sweep is profiled inside its workers (``run_sweep``'s own
    ``profile="cprofile"`` capture); anything else in this process.
    Returns the layer metrics and the profiled iteration's wall seconds.
    """
    gc.collect()
    tables: List[Dict[Any, Any]] = []
    t0 = time.perf_counter()
    if wl.jobs > 1:
        monitor = SweepMonitor()
        results = wl.run(configs, observe=ObserveOptions(monitor=monitor,
                                                         profile="cprofile"))
        tables = monitor.profile_stats
    else:
        with capture_profile(tables):
            results = wl.run(configs)
    wall = time.perf_counter() - t0
    checker.check(configs, results)
    merged = merge_stats(tables)
    return layer_metrics(merged.stats, str(package_dir)), wall


def paper_grid(seed: int, jobs: int) -> List[ExperimentResult]:
    """All 54 cells of Figs. 2-7 at one config seed."""
    configs = [cfg for app in PAPER_APPS for cfg in paper_matrix(app, seed=seed)]
    return run_sweep(configs, jobs=jobs)
