"""Command-line interface.

Run single experiments or whole paper figures from the shell::

    repro-ec2 run --app montage --storage glusterfs-nufa --nodes 4
    repro-ec2 run --app broadband --storage nfs --nodes 4 \\
        --trace-out t.json --metrics-out m.json --timeline
    repro-ec2 trace t.json
    repro-ec2 figure --app broadband
    repro-ec2 table1
    repro-ec2 lint src/repro
    repro-ec2 lint --determinism
    repro-ec2 list

(Equivalently: ``python -m repro ...``.)

``--trace-out`` writes a Chrome trace-event file: open it in
``chrome://tracing`` or https://ui.perfetto.dev to see the run as a
per-node Gantt of jobs, phases, and storage operations.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .apps import APP_BUILDERS
from .experiments import (
    CellError,
    ExperimentConfig,
    ObserveOptions,
    build_report,
    paper_matrix,
    run_experiment,
    run_sweep,
)
from .experiments.results import (
    cost_matrix,
    format_figure_table,
    makespan_matrix,
    to_csv,
)
from .profiling import format_table1, profile_records
from .storage import STORAGE_NAMES


def _cmd_run(args: argparse.Namespace) -> int:
    wants_telemetry = bool(args.trace_out or args.metrics_out
                           or args.timeline)
    fault_spec = None
    if args.fault_spec:
        from .faults import load_fault_spec
        try:
            fault_spec = load_fault_spec(args.fault_spec)
        except (OSError, ValueError, TypeError) as exc:
            print(f"error: bad fault spec {args.fault_spec}: {exc}",
                  file=sys.stderr)
            return 2
    config = ExperimentConfig(
        app=args.app,
        storage=args.storage,
        n_workers=args.nodes,
        nfs_server_type=args.nfs_server,
        scheduler=args.scheduler,
        seed=args.seed,
        cpu_jitter_sigma=args.jitter,
        task_failure_rate=args.task_failure_rate,
        retries=args.retries,
        collect_traces=wants_telemetry,
        fault_spec=fault_spec,
        node_mtbf=args.node_mtbf,
        storage_error_rate=args.storage_error_rate,
        halt_on_failure=not args.partial,
    )
    ok, why = config.is_valid()
    if not ok:
        print(f"error: {why}", file=sys.stderr)
        return 2
    result = run_experiment(config)
    print(f"{config.label}: makespan {result.makespan:,.0f} s "
          f"({result.makespan / 3600:.2f} h)")
    print(f"  cost (per-hour billing):   ${result.cost.per_hour_total:.2f}")
    print(f"  cost (per-second billing): ${result.cost.per_second_total:.2f}")
    stats = result.run.storage_stats
    print(f"  storage ops: {stats.reads} reads / {stats.writes} writes, "
          f"{stats.bytes_read / 1e9:.1f} GB read, "
          f"{stats.bytes_written / 1e9:.1f} GB written")
    if config.storage == "s3":
        print(f"  S3 requests: {stats.get_requests} GET, "
              f"{stats.put_requests} PUT "
              f"(fees ${result.cost.s3_fees.total:.2f})")
    if result.faults is not None:
        fr = result.faults
        print(f"  faults: {fr.node_crashes} node crashes, "
              f"{fr.jobs_evicted} jobs evicted, "
              f"{fr.storage_transient_errors + fr.storage_outage_hits} "
              f"storage errors ({fr.storage_retries} retries, "
              f"{fr.storage_giveups} giveups)")
    if result.run.partial:
        print(f"  PARTIAL RESULT: {len(result.run.abandoned_jobs)} jobs "
              f"abandoned: {', '.join(result.run.abandoned_jobs[:8])}"
              + (" ..." if len(result.run.abandoned_jobs) > 8 else ""))
    if args.trace_out:
        from .telemetry import write_chrome_trace
        n_spans = write_chrome_trace(args.trace_out, result.spans)
        print(f"  wrote {n_spans} spans to {args.trace_out} "
              "(open in chrome://tracing or ui.perfetto.dev)",
              file=sys.stderr)
    if args.metrics_out:
        from .telemetry import write_metrics
        metrics = result.metrics
        write_metrics(args.metrics_out, metrics, fmt=args.metrics_format)
        print(f"  wrote {len(metrics)} metrics to "
              f"{args.metrics_out} ({args.metrics_format})",
              file=sys.stderr)
    if args.timeline:
        from .telemetry import render_heatmap, render_node_gantt
        print()
        print(render_node_gantt(result.spans,
                                title="per-node job concurrency"))
        tl = result.timeline
        cpu_series = [n for n in tl.names() if n.endswith(".cpu")]
        print()
        print(render_heatmap(tl, series=cpu_series, width=60,
                             title="CPU busy fraction", normalize="global"))
        server_series = [n for n in tl.names()
                         if n.startswith(("nfs.", "s3."))]
        if server_series:
            print()
            print(render_heatmap(tl, series=server_series, width=60,
                                 title="storage server load"))
    return 0


def _add_observe_args(parser: argparse.ArgumentParser) -> None:
    """The host-side observability flags shared by sweep commands."""
    parser.add_argument("--progress", action="store_true",
                        help="render a live one-line sweep progress "
                             "display on stderr")
    parser.add_argument("--events-out", metavar="FILE",
                        help="write a schema-versioned JSONL event log "
                             "of the sweep lifecycle")
    parser.add_argument("--crash-dir", metavar="DIR",
                        help="write a crash bundle (traceback, scenario "
                             "config, flight-recorder ring, partial "
                             "metrics) per failed cell under this "
                             "directory")
    parser.add_argument("--keep-going", action="store_true",
                        help="drive the whole sweep despite failed "
                             "cells (still exits non-zero at the end)")
    parser.add_argument("--cell-retries", type=int, default=0,
                        help="re-run a failed cell this many times "
                             "before recording the failure")
    parser.add_argument("--profile", choices=("off", "cprofile"),
                        default="off",
                        help="capture a host-CPU profile of every cell "
                             "and print merged hotspots")
    parser.add_argument("--profile-top", type=int, default=15,
                        help="hotspot lines in the --profile report")


def _observe_from_args(args: argparse.Namespace):
    """(ObserveOptions, EventLogWriter) from CLI flags; (None, None)
    when every observability feature is off."""
    wants = (args.progress or args.events_out or args.crash_dir
             or args.profile != "off" or args.cell_retries
             or args.keep_going)
    if not wants:
        return None, None
    from .observe import EventLogWriter, SweepMonitor
    events = EventLogWriter(args.events_out) if args.events_out else None
    monitor = SweepMonitor(events=events, progress=args.progress)
    observe = ObserveOptions(
        monitor=monitor,
        crash_dir=args.crash_dir,
        profile=args.profile,
        cell_retries=args.cell_retries,
        keep_going=args.keep_going,
    )
    return observe, events


def _finish_observed_sweep(args: argparse.Namespace,
                           observe, events) -> None:
    """Close the event log and print the merged profile hotspots."""
    if events is not None:
        events.close()
    if observe is not None and args.profile != "off":
        from .observe import hotspot_report
        print(hotspot_report(observe.monitor.profile_stats,
                             top=args.profile_top),
              end="", file=sys.stderr)


def _report_cell_error(args: argparse.Namespace, exc: CellError) -> int:
    """One-line failure summary (the raw tracebacks stay in bundles)."""
    print(f"error: {exc}", file=sys.stderr)
    if args.crash_dir:
        print(f"crash bundles written under {args.crash_dir} — inspect "
              f"with: repro-ec2 postmortem {args.crash_dir}",
              file=sys.stderr)
    return 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from .telemetry import load_chrome_trace, summarize_chrome_trace
    try:
        doc = load_chrome_trace(args.file)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(summarize_chrome_trace(doc, top=args.top))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    cells = paper_matrix(args.app)
    observe, events = _observe_from_args(args)
    progress_cb = None if args.progress else (
        lambda r: print(f"  done {r.label}: {r.makespan:,.0f} s",
                        file=sys.stderr))
    try:
        results = run_sweep(cells, progress=progress_cb,
                            jobs=args.jobs, observe=observe)
    except CellError as exc:
        return _report_cell_error(args, exc)
    finally:
        _finish_observed_sweep(args, observe, events)
    n_failed = sum(1 for r in results if r is None)
    results = [r for r in results if r is not None]
    if n_failed:
        print(f"warning: {n_failed} cell(s) failed; tables cover the "
              f"remaining {len(results)}", file=sys.stderr)
    print(format_figure_table(
        makespan_matrix(results),
        title=f"{args.app} makespan (s) by storage system and cluster size"))
    print()
    print(format_figure_table(
        cost_matrix(results, per="hour"),
        title=f"{args.app} cost (USD, per-hour billing)",
        value_format="{:8.2f}", unit="$"))
    print()
    print(format_figure_table(
        cost_matrix(results, per="second"),
        title=f"{args.app} cost (USD, per-second billing)",
        value_format="{:8.2f}", unit="$"))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(to_csv(results))
        print(f"\nwrote {args.csv}", file=sys.stderr)
    return 1 if n_failed else 0


def _cmd_table1(args: argparse.Namespace) -> int:
    profiles = []
    for app in APP_BUILDERS:
        result = run_experiment(ExperimentConfig(app, "local", 1))
        profiles.append(profile_records(app, result.run.records))
    print(format_table1(profiles))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    factory = None
    if args.quick:
        from .apps import build_broadband, build_epigenome, build_montage
        quick = {
            "montage": lambda: build_montage(degrees=2.0),
            "epigenome": lambda: build_epigenome(chunks_per_lane=[6, 6, 6]),
            "broadband": lambda: build_broadband(n_sources=2, n_sites=4),
        }
        factory = lambda app: quick[app]()  # noqa: E731
    report = build_report(
        workflow_factory=factory,
        progress=lambda msg: print(msg, file=sys.stderr))
    text = report.to_markdown()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0 if (report.all_pass or args.quick) else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    result = run_experiment(ExperimentConfig(args.app, "local", 1))
    profile = profile_records(args.app, result.run.records)
    print(f"{args.app}: {profile.n_tasks} tasks, "
          f"io {profile.io_fraction:.1%} / cpu {profile.cpu_fraction:.1%} "
          f"of busy time, weighted memory "
          f"{profile.weighted_memory / 1e9:.2f} GB")
    print(f"ratings: {profile.ratings()}")
    print(f"\n{'transformation':<16}{'count':>7}{'mean s':>9}"
          f"{'cpu s':>10}{'io s':>10}{'read GB':>9}{'write GB':>9}")
    for tp in sorted(profile.transformations.values(),
                     key=lambda t: -(t.cpu_seconds + t.io_seconds)):
        print(f"{tp.transformation:<16}{tp.count:>7}"
              f"{tp.mean_runtime:>9.2f}{tp.cpu_seconds:>10.0f}"
              f"{tp.io_seconds:>10.0f}{tp.bytes_read / 1e9:>9.2f}"
              f"{tp.bytes_written / 1e9:>9.2f}")
    return 0


def _cmd_faultsweep(args: argparse.Namespace) -> int:
    from .experiments import fault_inflation_sweep, format_fault_sweep
    try:
        rates = [float(r) for r in args.rates.split(",") if r.strip()]
    except ValueError:
        print(f"error: bad --rates {args.rates!r}", file=sys.stderr)
        return 2
    try:
        mtbfs = [float(m) for m in args.mtbfs.split(",") if m.strip()] \
            if args.mtbfs else []
    except ValueError:
        print(f"error: bad --mtbfs {args.mtbfs!r}", file=sys.stderr)
        return 2
    base = ExperimentConfig(
        app=args.app,
        storage=args.storage,
        n_workers=args.nodes,
        seed=args.seed,
        retries=args.retries,
    )
    ok, why = base.is_valid()
    if not ok:
        print(f"error: {why}", file=sys.stderr)
        return 2
    observe, events = _observe_from_args(args)
    try:
        points = fault_inflation_sweep(base, error_rates=rates,
                                       node_mtbfs=mtbfs, jobs=args.jobs,
                                       observe=observe)
    except CellError as exc:
        return _report_cell_error(args, exc)
    finally:
        _finish_observed_sweep(args, observe, events)
    print(format_fault_sweep(
        points,
        title=f"{base.label} makespan inflation vs fault rate "
              f"(seed {args.seed})"))
    if args.csv:
        import csv as _csv
        with open(args.csv, "w", newline="") as fh:
            rows = [p.row() for p in points]
            writer = _csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"\nwrote {args.csv}", file=sys.stderr)
    n_failed = observe.monitor.n_failed if observe is not None else 0
    if n_failed:
        print(f"warning: {n_failed} sweep point(s) failed",
              file=sys.stderr)
    return 1 if n_failed else 0


def _cmd_postmortem(args: argparse.Namespace) -> int:
    from .observe import load_crash_bundles, summarize_bundle, validate_bundle
    bundles = load_crash_bundles(args.crash_dir)
    if not bundles:
        print(f"no crash bundles under {args.crash_dir}", file=sys.stderr)
        return 1
    print(f"{len(bundles)} crash bundle(s) under {args.crash_dir}")
    status = 0
    for path, bundle in bundles:
        print()
        problems = validate_bundle(bundle)
        if problems:
            print(f"{path}: invalid bundle: {'; '.join(problems)}",
                  file=sys.stderr)
            status = 2
            continue
        print(f"-- {path}")
        print(summarize_bundle(bundle, tail=args.tail))
    return status


def _cmd_perf_trend(args: argparse.Namespace) -> int:
    from .observe import format_trend, load_history
    entries = load_history(args.history)
    if not entries:
        print(f"no perf history at {args.history}", file=sys.stderr)
        return 1
    print(format_trend(entries, scale=args.scale), end="")
    return 0


def _default_lint_paths() -> List[str]:
    """The installed ``repro`` package tree (lint target of last resort)."""
    import os
    return [os.path.dirname(os.path.abspath(__file__))]


def _cmd_lint(args: argparse.Namespace) -> int:
    import json
    import os

    from .lint import (
        DEFAULT_BASELINE_NAME,
        lint_paths,
        load_baseline,
        run_determinism_check,
        write_baseline,
    )

    if args.emit_digest:
        # Internal leg of the determinism protocol: one machine-readable
        # line on stdout, consumed by the parent sanitizer process.
        from .lint import digest_run, format_digest_line
        run = digest_run(app=args.app, storage=args.storage,
                         nodes=args.nodes, seed=args.seed)
        print(format_digest_line(run))
        return 0

    if args.locks:
        # Runtime lock-order / race witness: boot the chaos-wrapped
        # service under a LockWatcher and report what it saw.
        from .lint import run_lockwatch_check
        watcher = run_lockwatch_check(seed=args.seed or 11,
                                      hold_threshold=args.hold_threshold)
        print(watcher.format_report())
        return 0 if watcher.ok else 1

    if args.determinism:
        try:
            seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
            hash_seeds = [s.strip() for s in args.hash_seeds.split(",")
                          if s.strip()]
        except ValueError:
            print(f"error: bad --seeds {args.seeds!r}", file=sys.stderr)
            return 2
        report = run_determinism_check(
            app=args.app, storage=args.storage, nodes=args.nodes,
            seeds=seeds, hash_seeds=hash_seeds)
        print(report.format())
        return 0 if report.ok else 1

    select = None
    if args.select:
        select = [r.strip() for r in args.select.split(",") if r.strip()]

    baseline = None
    baseline_path = args.baseline
    if baseline_path is None and os.path.exists(DEFAULT_BASELINE_NAME):
        baseline_path = DEFAULT_BASELINE_NAME
    if baseline_path is not None and not args.write_baseline:
        try:
            baseline = load_baseline(baseline_path)
        except (OSError, ValueError) as exc:
            print(f"error: bad baseline {baseline_path}: {exc}",
                  file=sys.stderr)
            return 2

    paths = args.paths or _default_lint_paths()
    report = lint_paths(paths, select=select, baseline=baseline)

    if args.write_baseline:
        target = baseline_path or DEFAULT_BASELINE_NAME
        write_baseline(target, report.findings)
        print(f"wrote {len(report.findings)} fingerprints to {target}",
              file=sys.stderr)
        return 0

    if args.format == "json":
        print(json.dumps({
            "findings": [f.to_dict() for f in report.findings],
            "suppressed": len(report.suppressed),
            "baselined": len(report.baselined),
            "files": report.n_files,
            "parse_errors": [list(e) for e in report.parse_errors],
            "counts_by_rule": report.counts_by_rule(),
        }, indent=2, sort_keys=True))
    else:
        for finding in report.findings:
            print(finding.format())
        for path, error in report.parse_errors:
            print(f"{path}: {error}", file=sys.stderr)
        tail = (f"{len(report.findings)} finding(s) in "
                f"{report.n_files} file(s)")
        if report.suppressed:
            tail += f", {len(report.suppressed)} suppressed inline"
        if report.baselined:
            tail += f", {len(report.baselined)} baselined"
        print(tail, file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading
    from .service import (CellCache, JobQueue, ServiceApp, ServiceWorker,
                          open_store, serve)
    store = open_store(args.db)
    queue = JobQueue(store)
    cache = CellCache(store)
    workers = [
        ServiceWorker(store, queue, cache, name=f"worker-{i}",
                      jobs=args.jobs, crash_dir=args.crash_dir).start()
        for i in range(args.workers)
    ]
    app = ServiceApp(store, queue, cache,
                     max_queue_depth=args.max_queue_depth)
    server = serve(app, host=args.host, port=args.port, quiet=args.quiet)
    host, port = server.server_address[:2]
    print(f"repro-ec2 service on http://{host}:{port} "
          f"(db {args.db}, {args.workers} worker(s) x {args.jobs} "
          f"process(es), {store.result_count()} cached cells)",
          file=sys.stderr)
    print(f"  submit: repro-ec2 submit --url http://{host}:{port} "
          f"--app montage --storage nfs --nodes 4", file=sys.stderr)

    # Graceful shutdown on SIGTERM (systemd/docker stop) and SIGINT:
    # stop accepting requests, drain the in-flight jobs, close the
    # store, exit 0.  server.shutdown() blocks until serve_forever
    # returns, so it must run off the signal-handler frame.
    def _request_shutdown(signum: int, frame: object) -> None:
        print(f"received {signal.Signals(signum).name}; shutting down",
              file=sys.stderr)
        threading.Thread(target=server.shutdown, daemon=True).start()

    old_handlers = {
        sig: signal.signal(sig, _request_shutdown)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass  # SIGINT before the handler was installed
    finally:
        for sig, old in old_handlers.items():
            signal.signal(sig, old)
        drained = True
        for worker in workers:
            drained = worker.stop(timeout=args.drain_timeout) and drained
        if not drained:
            print("warning: a job was still running at shutdown; its "
                  "lease will expire and re-queue it", file=sys.stderr)
        server.server_close()
        store.close()
    print("service stopped", file=sys.stderr)
    return 0


def _parse_submit_cells(args: argparse.Namespace) -> List["ExperimentConfig"]:
    """The cell list one ``submit`` invocation describes."""
    common = dict(seed=args.seed, collect_traces=args.traces)
    if args.matrix:
        return paper_matrix(args.matrix, **common)
    if not (args.app and args.storage):
        raise ValueError("pass --app/--storage/--nodes for one cell, "
                         "or --matrix APP for a full paper sweep")
    config = ExperimentConfig(args.app, args.storage, args.nodes, **common)
    ok, why = config.is_valid()
    if not ok:
        raise ValueError(why)
    return [config]


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service.client import ServiceClient, ServiceError
    try:
        cells = _parse_submit_cells(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    client = ServiceClient(args.url)
    extra = {}
    if args.scale != "paper":
        extra["scale"] = args.scale
    try:
        doc = client.submit(cells, jobs=args.jobs or None, **extra)
        job_id = doc["job_id"]
        print(f"job {job_id}: {doc['n_cells']} cell(s) queued "
              f"({doc['kind']})")
        if not args.wait:
            print(f"  poll:  repro-ec2 status {job_id} --url {args.url}")
            print(f"  fetch: repro-ec2 fetch {job_id} --url {args.url}")
            return 0
        status = client.wait(job_id, timeout=args.timeout)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"job {job_id} {status['state']}: {status['n_done']} done, "
          f"{status['n_failed']} failed, "
          f"{status['n_cache_hits']} cache hit(s)")
    return 0 if status["state"] == "done" and not status["n_failed"] else 1


def _cmd_status(args: argparse.Namespace) -> int:
    import json
    from .service.client import ServiceClient, ServiceError
    client = ServiceClient(args.url)
    try:
        if args.job is None:
            jobs = client.list_jobs()
            if not jobs:
                print("no jobs")
                return 0
            print(f"{'id':>5} {'state':<8} {'kind':<10} "
                  f"{'done':>5} {'fail':>5} {'hits':>5}")
            for job in jobs:
                print(f"{job['id']:>5} {job['state']:<8} "
                      f"{job['kind']:<10} {job['n_done']:>5} "
                      f"{job['n_failed']:>5} {job['n_cache_hits']:>5}")
            return 0
        status = client.status(args.job)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.events:
        for event in client.events(args.job, follow=args.follow):
            print(json.dumps(event, sort_keys=True))
        return 0
    print(json.dumps(status, indent=2, sort_keys=True))
    return 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    import json
    from .service.client import ServiceClient, ServiceError
    client = ServiceClient(args.url)
    try:
        if args.csv:
            text = client.result_csv(args.job)
            with open(args.csv, "w") as fh:
                fh.write(text)
            print(f"wrote {args.csv}", file=sys.stderr)
            return 0
        doc = client.result(args.job)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        from .experiments.serialize import result_from_dict
        for cell in doc["cells"]:
            if cell["result"] is None:
                print(f"  {cell['label']}: FAILED ({cell['error']})")
                continue
            result = result_from_dict(cell["result"])
            tag = " [cached]" if cell["cached"] else ""
            print(f"  {result.label}: makespan {result.makespan:,.0f} s, "
                  f"cost ${result.cost.per_hour_total:.2f}/h{tag}")
    n_failed = doc["job"]["n_failed"]
    return 1 if n_failed else 0


def _cmd_list(args: argparse.Namespace) -> int:
    print("applications:")
    for name, builder in APP_BUILDERS.items():
        wf = builder()
        print(f"  {name:<12} {wf.describe()}")
    print("storage systems:")
    for name in STORAGE_NAMES:
        print(f"  {name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-ec2",
        description="Simulated reproduction of 'Data Sharing Options for "
                    "Scientific Workflows on Amazon EC2' (SC 2010)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment cell")
    p_run.add_argument("--app", required=True, choices=sorted(APP_BUILDERS))
    p_run.add_argument("--storage", required=True, choices=STORAGE_NAMES)
    p_run.add_argument("--nodes", type=int, default=1)
    p_run.add_argument("--nfs-server", default="m1.xlarge",
                       help="instance type of the dedicated NFS server")
    p_run.add_argument("--scheduler", choices=("fifo", "locality"),
                       default="fifo")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--jitter", type=float, default=0.0,
                       help="relative sigma of per-task CPU jitter")
    p_run.add_argument("--task-failure-rate", type=float, default=0.0,
                       help="per-attempt transient task crash "
                            "probability in [0, 1)")
    p_run.add_argument("--retries", type=int, default=3,
                       help="DAGMan retry limit per job")
    p_run.add_argument("--fault-spec", metavar="FILE",
                       help="JSON fault schedule (node crashes, storage "
                            "outage windows, error rates)")
    p_run.add_argument("--node-mtbf", type=float, default=0.0,
                       help="mean time between node failures, seconds "
                            "(0 = no crashes)")
    p_run.add_argument("--storage-error-rate", type=float, default=0.0,
                       help="transient per-op storage failure "
                            "probability in [0, 1)")
    p_run.add_argument("--partial", action="store_true",
                       help="degrade to a partial result instead of "
                            "failing when a job exhausts its retries")
    p_run.add_argument("--trace-out", metavar="FILE",
                       help="write a Chrome trace-event JSON of the run "
                            "(chrome://tracing / Perfetto)")
    p_run.add_argument("--metrics-out", metavar="FILE",
                       help="write the metrics-registry snapshot here")
    p_run.add_argument("--metrics-format", choices=("json", "prom"),
                       default="json",
                       help="--metrics-out format: canonical JSON or "
                            "the Prometheus text exposition")
    p_run.add_argument("--timeline", action="store_true",
                       help="print ASCII utilization heatmaps and the "
                            "per-node job Gantt")
    p_run.set_defaults(func=_cmd_run)

    p_trace = sub.add_parser("trace",
                             help="summarize a Chrome trace written by "
                                  "'run --trace-out'")
    p_trace.add_argument("file", help="trace-event JSON file")
    p_trace.add_argument("--top", type=int, default=10,
                         help="how many longest spans to list")
    p_trace.set_defaults(func=_cmd_trace)

    p_fig = sub.add_parser("figure",
                           help="regenerate a paper figure (all cells)")
    p_fig.add_argument("--app", required=True, choices=sorted(APP_BUILDERS))
    p_fig.add_argument("--csv", help="also write results to this CSV file")
    p_fig.add_argument("--jobs", type=int, default=1,
                       help="run cells in this many worker processes "
                            "(results are bit-identical to --jobs 1)")
    _add_observe_args(p_fig)
    p_fig.set_defaults(func=_cmd_figure)

    p_t1 = sub.add_parser("table1", help="regenerate Table I (wfprof)")
    p_t1.set_defaults(func=_cmd_table1)

    p_rep = sub.add_parser("report",
                           help="run the full evaluation and render a "
                                "markdown reproduction report")
    p_rep.add_argument("--output", help="write the report to this file")
    p_rep.add_argument("--quick", action="store_true",
                       help="scaled-down workflows (smoke test; checks "
                            "may fail legitimately)")
    p_rep.set_defaults(func=_cmd_report)

    p_prof = sub.add_parser("profile",
                            help="per-transformation wfprof breakdown")
    p_prof.add_argument("--app", required=True, choices=sorted(APP_BUILDERS))
    p_prof.set_defaults(func=_cmd_profile)

    p_fs = sub.add_parser("faultsweep",
                          help="makespan inflation vs storage fault "
                               "rate / node crash rate for one cell")
    p_fs.add_argument("--app", required=True, choices=sorted(APP_BUILDERS))
    p_fs.add_argument("--storage", required=True, choices=STORAGE_NAMES)
    p_fs.add_argument("--nodes", type=int, default=1)
    p_fs.add_argument("--rates", default="0.001,0.005,0.01,0.05",
                      help="comma-separated storage error rates")
    p_fs.add_argument("--mtbfs", default="",
                      help="comma-separated node MTBF values (seconds)")
    p_fs.add_argument("--seed", type=int, default=0)
    p_fs.add_argument("--retries", type=int, default=10,
                      help="DAGMan retry limit (raised so moderate "
                           "fault rates measure slowdown, not failure)")
    p_fs.add_argument("--csv", help="also write the sweep to this CSV")
    p_fs.add_argument("--jobs", type=int, default=1,
                      help="run fault points in this many worker "
                           "processes (baseline runs first; results "
                           "are identical to --jobs 1)")
    _add_observe_args(p_fs)
    p_fs.set_defaults(func=_cmd_faultsweep)

    p_pm = sub.add_parser("postmortem",
                          help="summarize the crash bundles a failed "
                               "sweep left under --crash-dir")
    p_pm.add_argument("crash_dir", help="directory passed as --crash-dir")
    p_pm.add_argument("--tail", type=int, default=8,
                      help="flight-recorder events to show per bundle")
    p_pm.set_defaults(func=_cmd_postmortem)

    p_pt = sub.add_parser("perf-trend",
                          help="per-benchmark trend over the perf-gate "
                               "history (benchmarks/perf/history.jsonl)")
    p_pt.add_argument("--history", default="benchmarks/perf/history.jsonl",
                      help="history file written by scripts/perf_gate.py")
    p_pt.add_argument("--scale", default="",
                      help="restrict to one scale (smoke/full)")
    p_pt.set_defaults(func=_cmd_perf_trend)

    p_lint = sub.add_parser(
        "lint",
        help="simulation-invariant static analysis (SIM001-SIM014) and "
             "the runtime determinism / lock-order sanitizers")
    p_lint.add_argument("paths", nargs="*",
                        help="files/directories to lint (default: the "
                             "installed repro package)")
    p_lint.add_argument("--format", choices=("text", "json"),
                        default="text", help="finding output format")
    p_lint.add_argument("--select", metavar="RULES",
                        help="comma-separated rule ids to run "
                             "(default: all)")
    p_lint.add_argument("--baseline", metavar="FILE",
                        help="baseline of accepted findings (default: "
                             "./.lint-baseline.json when present)")
    p_lint.add_argument("--write-baseline", action="store_true",
                        help="record current findings as the baseline "
                             "instead of failing on them")
    p_lint.add_argument("--determinism", action="store_true",
                        help="run the double-run / double-PYTHONHASHSEED "
                             "event-stream digest check instead of "
                             "static rules")
    p_lint.add_argument("--locks", action="store_true",
                        help="run the chaos-wrapped service under the "
                             "runtime lock-order witness instead of "
                             "static rules")
    p_lint.add_argument("--hold-threshold", type=float, default=2.0,
                        help="seconds a lock may be held before --locks "
                             "flags it")
    p_lint.add_argument("--app", default="montage",
                        help="sanitizer scenario application")
    p_lint.add_argument("--storage", default="nfs",
                        help="sanitizer scenario storage system")
    p_lint.add_argument("--nodes", type=int, default=2,
                        help="sanitizer scenario worker count")
    p_lint.add_argument("--seeds", default="0,1",
                        help="comma-separated seeds for --determinism")
    p_lint.add_argument("--hash-seeds", default="1,2",
                        help="comma-separated PYTHONHASHSEED values "
                             "for --determinism")
    p_lint.add_argument("--seed", type=int, default=0,
                        help="seed for --emit-digest")
    p_lint.add_argument("--emit-digest", action="store_true",
                        help=argparse.SUPPRESS)
    p_lint.set_defaults(func=_cmd_lint)

    p_serve = sub.add_parser(
        "serve",
        help="run the simulation service (REST API + job workers)")
    p_serve.add_argument("--db", default="repro-service.db",
                         help="SQLite database path (jobs, results, "
                              "the content-addressed cell cache)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8642,
                         help="listen port (0 = ephemeral)")
    p_serve.add_argument("--workers", type=int, default=1,
                         help="supervisor threads draining the job queue")
    p_serve.add_argument("--jobs", type=int, default=1,
                         help="default worker processes per sweep "
                              "(job payloads may override)")
    p_serve.add_argument("--crash-dir",
                         help="write crash bundles for failed cells here")
    p_serve.add_argument("--quiet", action="store_true",
                         help="suppress per-request access logging")
    p_serve.add_argument("--max-queue-depth", type=int, default=256,
                         help="shed submissions (503 + Retry-After) "
                              "beyond this backlog")
    p_serve.add_argument("--drain-timeout", type=float, default=30.0,
                         help="seconds to wait for in-flight jobs on "
                              "SIGTERM/SIGINT before giving up the lease")
    p_serve.set_defaults(func=_cmd_serve)

    p_sub = sub.add_parser("submit",
                           help="submit a cell or sweep to a running "
                                "service")
    p_sub.add_argument("--url", default="http://127.0.0.1:8642",
                       help="service base URL")
    p_sub.add_argument("--app", choices=sorted(APP_BUILDERS))
    p_sub.add_argument("--storage", choices=STORAGE_NAMES)
    p_sub.add_argument("--nodes", type=int, default=1)
    p_sub.add_argument("--matrix", choices=sorted(APP_BUILDERS),
                       help="submit the full paper matrix for this app "
                            "instead of a single cell")
    p_sub.add_argument("--seed", type=int, default=0)
    p_sub.add_argument("--traces", action="store_true",
                       help="collect spans/metrics for each cell")
    p_sub.add_argument("--jobs", type=int, default=0,
                       help="worker processes for this sweep "
                            "(0 = server default)")
    p_sub.add_argument("--scale", choices=("paper", "small"),
                       default="paper",
                       help="'small' runs the down-scaled smoke "
                            "workflows")
    p_sub.add_argument("--wait", action="store_true",
                       help="block until the job reaches a terminal "
                            "state")
    p_sub.add_argument("--timeout", type=float, default=600.0,
                       help="--wait timeout in seconds")
    p_sub.set_defaults(func=_cmd_submit)

    p_st = sub.add_parser("status",
                          help="job table, or one job's status/events")
    p_st.add_argument("job", nargs="?", type=int,
                      help="job id (omit for the job table)")
    p_st.add_argument("--url", default="http://127.0.0.1:8642")
    p_st.add_argument("--events", action="store_true",
                      help="print the job's schema-v1 JSONL event log")
    p_st.add_argument("--follow", action="store_true",
                      help="with --events: stream until the job ends")
    p_st.set_defaults(func=_cmd_status)

    p_fetch = sub.add_parser("fetch",
                             help="fetch a finished job's results")
    p_fetch.add_argument("job", type=int, help="job id")
    p_fetch.add_argument("--url", default="http://127.0.0.1:8642")
    p_fetch.add_argument("--csv", metavar="FILE",
                         help="write the figure-style CSV here")
    p_fetch.add_argument("--output", metavar="FILE",
                         help="write the full JSON result document here")
    p_fetch.set_defaults(func=_cmd_fetch)

    p_list = sub.add_parser("list", help="list applications and systems")
    p_list.set_defaults(func=_cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
