"""Runtime determinism sanitizer.

The static rules catch *patterns* that can break determinism; this
module checks the property itself: a small paper-grid scenario is run
repeatedly — same seed in-process, and in fresh interpreters under two
different ``PYTHONHASHSEED`` values — and the full telemetry event
stream of every run is hash-chained into a single digest.  Any
divergence in the order, timing, or payload of *any* traced event
(scheduler decisions, storage operations, task phases, billing) changes
the digest; on mismatch the sanitizer replays the runs and reports the
first divergent event.

The digest covers the :class:`~repro.simcore.tracing.TraceCollector`
stream — the same records the run's metrics and spans are derived
from — plus the run's makespan and cost, so the check fails if any
observable output is not a pure function of ``(scenario, seed)``.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..experiments.config import ExperimentConfig
from ..workflow.dag import Workflow

#: Default scenario: the smallest paper cell that still exercises a
#: shared storage service, remote transfers, and slot contention.
DEFAULT_APP = "montage"
DEFAULT_STORAGE = "nfs"
DEFAULT_NODES = 2
DEFAULT_SEEDS = (0, 1)
DEFAULT_HASH_SEEDS = ("1", "2")


def small_workflow(app: str) -> Workflow:
    """A scaled-down instance of ``app`` for fast double-runs."""
    from ..apps import (
        APP_BUILDERS,
        build_broadband,
        build_epigenome,
        build_montage,
        build_synthetic,
    )
    if app == "montage":
        return build_montage(degrees=1.0)
    if app == "epigenome":
        return build_epigenome(chunks_per_lane=[4, 4])
    if app == "broadband":
        return build_broadband(n_sources=2, n_sites=4)
    if app == "synthetic":
        return build_synthetic(40, width=8, seed=1)
    return APP_BUILDERS[app]()


def _canon_value(value: object) -> str:
    """Canonical text for one trace-field value.

    ``repr`` of a float is exact (shortest round-trip), so any
    last-ulp drift shows up; everything else is stringified with its
    type tag so ``1`` and ``"1"`` cannot collide.
    """
    if isinstance(value, float):
        return f"f:{value!r}"
    if isinstance(value, bool):
        return f"b:{value}"
    if isinstance(value, int):
        return f"i:{value}"
    return f"s:{value}"


def canonical_event(time: float, category: str, event: str,
                    fields: Dict[str, object]) -> str:
    """The hash-chain line for one trace record."""
    payload = ",".join(f"{k}={_canon_value(v)}"
                       for k, v in sorted(fields.items()))
    return f"{time!r}|{category}|{event}|{payload}"


@dataclass
class RunDigest:
    """One run's hash-chained event stream."""

    digest: str
    n_events: int
    makespan: float
    cost: float
    #: Canonical event lines (only when ``keep_events=True``).
    events: Optional[List[str]] = None


def digest_run(app: str = DEFAULT_APP, storage: str = DEFAULT_STORAGE,
               nodes: int = DEFAULT_NODES, seed: int = 0,
               keep_events: bool = False) -> RunDigest:
    """Run the scenario once and hash-chain its telemetry stream."""
    from ..experiments.runner import run_experiment
    # A small CPU jitter routes the seed through the rand substreams,
    # so different seeds *must* produce different digests (asserted by
    # the protocol) while identical seeds must match bit-for-bit.
    config = ExperimentConfig(app, storage, nodes, seed=seed,
                              cpu_jitter_sigma=0.05,
                              collect_traces=True)
    result = run_experiment(config, workflow=small_workflow(app))
    chain = hashlib.sha256()
    events: Optional[List[str]] = [] if keep_events else None
    assert result.trace is not None
    for rec in result.trace.records:
        line = canonical_event(rec.time, rec.category, rec.event, rec.fields)
        chain.update(line.encode())
        chain.update(b"\n")
        if events is not None:
            events.append(line)
    makespan = result.run.makespan
    cost = result.cost.per_second_total
    tail = f"makespan={makespan!r}|cost={cost!r}"
    chain.update(tail.encode())
    if events is not None:
        events.append(tail)
    return RunDigest(digest=chain.hexdigest(),
                     n_events=len(result.trace.records),
                     makespan=makespan, cost=cost, events=events)


def first_divergence(a: RunDigest, b: RunDigest
                     ) -> Optional[Tuple[int, str, str]]:
    """Index and both canonical lines of the first differing event."""
    if a.events is None or b.events is None:
        return None
    for i, (ea, eb) in enumerate(zip(a.events, b.events)):
        if ea != eb:
            return i, ea, eb
    if len(a.events) != len(b.events):
        i = min(len(a.events), len(b.events))
        longer = a.events if len(a.events) > len(b.events) else b.events
        return (i, "<stream ended>", longer[i]) \
            if longer is b.events else (i, longer[i], "<stream ended>")
    return None


# --------------------------------------------------------------------------
# cross-interpreter legs


def _subprocess_digest(app: str, storage: str, nodes: int, seed: int,
                       hash_seed: str, timeout: float = 300.0) -> RunDigest:
    """Digest the scenario in a fresh interpreter under ``hash_seed``.

    ``PYTHONHASHSEED`` only takes effect at interpreter startup, so the
    cross-hash-seed legs must re-exec; the child prints one
    machine-readable line via ``repro-ec2 lint --emit-digest``.
    """
    package_root = os.path.dirname(os.path.dirname(
        os.path.abspath(os.path.join(__file__, os.pardir))))
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = package_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-m", "repro", "lint", "--emit-digest",
           "--app", app, "--storage", storage, "--nodes", str(nodes),
           "--seed", str(seed)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(
            f"digest subprocess failed (PYTHONHASHSEED={hash_seed}): "
            f"{proc.stderr.strip() or proc.stdout.strip()}")
    line = proc.stdout.strip().splitlines()[-1]
    return parse_digest_line(line)


def format_digest_line(run: RunDigest) -> str:
    """The one-line wire format of ``--emit-digest``."""
    return (f"digest {run.digest} events {run.n_events} "
            f"makespan {run.makespan!r} cost {run.cost!r}")


def parse_digest_line(line: str) -> RunDigest:
    """Inverse of :func:`format_digest_line`."""
    parts = line.split()
    if len(parts) != 8 or parts[0] != "digest" or parts[2] != "events":
        raise ValueError(f"malformed digest line: {line!r}")
    return RunDigest(digest=parts[1], n_events=int(parts[3]),
                     makespan=float(parts[5]), cost=float(parts[7]))


# --------------------------------------------------------------------------
# the full protocol


@dataclass
class DeterminismReport:
    """Outcome of the full sanitizer protocol."""

    scenario: str
    #: (leg label, digest) in execution order.
    legs: List[Tuple[str, str]] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    n_events: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def format(self) -> str:
        lines = [f"determinism sanitizer: {self.scenario} "
                 f"({self.n_events} traced events per run)"]
        for label, digest in self.legs:
            lines.append(f"  {label:<28} {digest[:16]}")
        if self.ok:
            lines.append("all event-stream digests identical: "
                         "the run is a pure function of (scenario, seed)")
        else:
            for failure in self.failures:
                lines.append(f"FAIL: {failure}")
        return "\n".join(lines)


def run_determinism_check(app: str = DEFAULT_APP,
                          storage: str = DEFAULT_STORAGE,
                          nodes: int = DEFAULT_NODES,
                          seeds: Sequence[int] = DEFAULT_SEEDS,
                          hash_seeds: Sequence[str] = DEFAULT_HASH_SEEDS,
                          subprocess_legs: bool = True
                          ) -> DeterminismReport:
    """Run the double-run / double-hash-seed protocol.

    For every seed: the scenario runs twice in this interpreter (their
    digests must match — catches stateful nondeterminism such as
    leaked module globals), then once per ``PYTHONHASHSEED`` value in a
    fresh interpreter (all digests must match the in-process one —
    catches hash-order dependence).  Different *seeds* are expected to
    produce different digests; that contrast is asserted too, since a
    digest that ignores the seed would be vacuous.
    """
    report = DeterminismReport(
        scenario=f"{app}/{storage}@{nodes} seeds={list(seeds)} "
                 f"hash_seeds={list(hash_seeds)}")
    by_seed: Dict[int, str] = {}
    for seed in seeds:
        first = digest_run(app, storage, nodes, seed)
        second = digest_run(app, storage, nodes, seed)
        report.n_events = first.n_events
        report.legs.append((f"seed={seed} run 1", first.digest))
        report.legs.append((f"seed={seed} run 2", second.digest))
        by_seed[seed] = first.digest
        if first.digest != second.digest:
            a = digest_run(app, storage, nodes, seed, keep_events=True)
            b = digest_run(app, storage, nodes, seed, keep_events=True)
            div = first_divergence(a, b)
            where = (f" first divergent event #{div[0]}:\n"
                     f"    run 1: {div[1]}\n    run 2: {div[2]}"
                     if div else " (divergence not reproduced on replay)")
            report.failures.append(
                f"seed {seed}: two in-process runs disagree "
                f"({first.digest[:16]} != {second.digest[:16]});{where}")
            continue
        if not subprocess_legs:
            continue
        for hash_seed in hash_seeds:
            child = _subprocess_digest(app, storage, nodes, seed, hash_seed)
            report.legs.append(
                (f"seed={seed} PYTHONHASHSEED={hash_seed}", child.digest))
            if child.digest != first.digest:
                report.failures.append(
                    f"seed {seed}: PYTHONHASHSEED={hash_seed} changes the "
                    f"event stream ({child.digest[:16]} != "
                    f"{first.digest[:16]}): some code path iterates in "
                    f"hash order ({child.n_events} vs {first.n_events} "
                    f"events, makespan {child.makespan!r} vs "
                    f"{first.makespan!r})")
    if len(seeds) > 1:
        digests = {d for d in by_seed.values()}
        if len(digests) == 1 and len(by_seed) > 1:
            report.failures.append(
                f"seeds {sorted(by_seed)} all produced digest "
                f"{next(iter(digests))[:16]}: the digest does not depend "
                f"on the seed, so the check is vacuous")
    return report
