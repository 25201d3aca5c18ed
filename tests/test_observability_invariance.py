"""Observability must never touch the deterministic hash-chain.

Every scenario below runs twice: once bare, once with the whole
observability surface switched on — live progress, JSONL event log,
crash dir + flight recorder, per-cell cProfile, Prometheus export.
The telemetry hash-chain (every trace record, makespan, cost) must be
bit-identical between the two legs: host-side observation is passive
by construction, and this test is the regression gate for that
invariant (see ISSUE/docs: "no wall-clock data in the hash-chain").
"""

import hashlib
import io

import pytest

from repro.apps import (
    build_broadband,
    build_epigenome,
    build_montage,
    build_synthetic,
)
from repro.experiments import (
    ExperimentConfig,
    ObserveOptions,
    run_sweep,
)
from repro.lint.determinism import canonical_event
from repro.observe import EventLogWriter, SweepMonitor
from repro.telemetry import to_prometheus, validate_exposition

# The 20 golden scenarios: every application crossed with a spread of
# storage backends, node counts, and seeds.  Workflows are scaled down
# so the double-run suite stays fast; determinism is scale-free.  Each
# maps to the ``_hash_chain`` digest of its bare run, recorded while
# the vectorized flow kernel and the object-graph kernel it replaced
# still ran side by side and agreed on every scenario.
GOLDEN_CHAINS = {
    ("synthetic", "local", 1, 0):
        "2f9f67c974e1fb78ebf520bc8b32366540345373981ba6532c27b7f718902ed7",
    ("synthetic", "local", 1, 1):
        "0539e10f4ed10b3b19cc99229f10e33eb90ac19f8cd503cd2b17b8ef22325b4e",
    ("synthetic", "nfs", 2, 0):
        "9f548576d076e1cfe60eb675470bbaf9899eb3f34a9510fdc5eb5205a12d8b5b",
    ("synthetic", "nfs", 4, 7):
        "07bf2ffaa4a2dd45834757254fcc476a406c2f8f3a99893d587a73ac22b6bfef",
    ("synthetic", "s3", 2, 0):
        "e84ea4c8026c5611fc9a5f265a685515705b6f69d93993b913df19f857c0203f",
    ("synthetic", "s3", 4, 3):
        "41de4896f539cc6307428d02bd431457d642b27b426e8a388ecbd8844c14d801",
    ("synthetic", "pvfs", 2, 0):
        "bb130f20a41a31e1c740729fb5f1fc33865b0e1a31eb1b4497967721edbd2cc0",
    ("synthetic", "pvfs", 4, 5):
        "63bb7bf17c4165897e4a5880b360f3d02e98986880f0d7e8448556e31c3dd1ba",
    ("synthetic", "glusterfs-nufa", 2, 0):
        "293c1652648a2632aae29eb045fe5714b412830dae671f5e3db6baef2b33baa6",
    ("synthetic", "glusterfs-nufa", 4, 11):
        "33e91180b40016d6418f5912cf5b5d9c4f7d525954bdeb5a015da60693804ff6",
    ("synthetic", "glusterfs-distribute", 2, 0):
        "4c51bf699d33aad3a961d21e77ab0f936b733f273112311d0e34d1b49478e11a",
    ("synthetic", "glusterfs-distribute", 4, 13):
        "707a1e384cdd1a313575735fa54ae717889d63218db828cd809ab00acc19d4eb",
    ("montage", "local", 1, 0):
        "a452b38348bde42921a52214d8bcb5d850f91a817829b15d5212fac0989438ac",
    ("montage", "nfs", 2, 42):
        "05261fe18ee3ef880294ba231348e9483033eaee449e1adfa85d9651ed287f3b",
    ("montage", "s3", 2, 0):
        "e8ae1ddaa4598c0a3030a9b3b42e7d0cb695161beceec57ee976199e2b3edcb6",
    ("montage", "glusterfs-nufa", 2, 17):
        "a3976b0686d6b11944f24949a6328325ebbe5045119b95c46fa5644d0524166e",
    ("epigenome", "nfs", 2, 0):
        "7b1238c69cbcf4a81303399032cdcedf4a7354328e9bf0324bef3f258052d1e5",
    ("epigenome", "pvfs", 2, 42):
        "326437dfd9bf9f0462190dc44edb807fa49a85142af448122d672933986349a1",
    ("broadband", "s3", 2, 0):
        "2284e6838f54dcc1b594ca247165dbaf5ff52810fdde000241a315c679137967",
    ("broadband", "nfs", 2, 23):
        "4b7ba3087e26e8f3960e5551434f1891dc047d25a41351dc0c392c091fe1463f",
}
SCENARIOS = list(GOLDEN_CHAINS)


def small_workflow(app):
    if app == "montage":
        return build_montage(degrees=0.5)
    if app == "epigenome":
        return build_epigenome(chunks_per_lane=[2, 2])
    if app == "broadband":
        return build_broadband(n_sources=1, n_sites=2)
    return build_synthetic(30, width=6, seed=1)


def _config(app, storage, nodes, seed):
    # cpu_jitter routes the seed through the random substreams, so the
    # chain covers the full stochastic surface, as in digest_run().
    return ExperimentConfig(app, storage, nodes, seed=seed,
                            cpu_jitter_sigma=0.05, collect_traces=True)


def _hash_chain(result):
    """sha256 over every canonical trace line + makespan/cost tail."""
    chain = hashlib.sha256()
    for rec in result.trace.records:
        chain.update(canonical_event(rec.time, rec.category, rec.event,
                                     rec.fields).encode())
        chain.update(b"\n")
    tail = (f"makespan={result.run.makespan!r}"
            f"|cost={result.cost.per_second_total!r}")
    chain.update(tail.encode())
    return chain.hexdigest()


def _run_bare(config, workflow):
    (result,) = run_sweep([config], workflow=workflow)
    return result


def _run_fully_observed(config, workflow, tmp_path, jobs=1):
    events = EventLogWriter(io.StringIO())
    monitor = SweepMonitor(events=events, progress=True,
                           stream=io.StringIO())
    observe = ObserveOptions(monitor=monitor,
                             crash_dir=str(tmp_path / "crashes"),
                             flight=True, flight_capacity=64,
                             profile="cprofile")
    (result,) = run_sweep([config], workflow=workflow, jobs=jobs,
                          observe=observe)
    # Exercise the export path too: rendering the registry is read-only
    # and must produce a valid exposition.
    assert result.metrics is not None
    assert validate_exposition(to_prometheus(result.metrics)) == []
    return result


@pytest.mark.parametrize(
    "scenario", SCENARIOS,
    ids=["{}-{}-n{}-s{}".format(*s) for s in SCENARIOS])
def test_digest_invariant_under_full_observability(scenario, tmp_path):
    app, storage, nodes, seed = scenario
    workflow = small_workflow(app)
    config = _config(app, storage, nodes, seed)
    bare = _run_bare(config, workflow)
    assert _hash_chain(bare) == GOLDEN_CHAINS[scenario]
    observed = _run_fully_observed(config, workflow, tmp_path)
    assert _hash_chain(observed) == _hash_chain(bare)
    assert repr(observed.run.makespan) == repr(bare.run.makespan)
    assert repr(observed.cost.per_second_total) == \
        repr(bare.cost.per_second_total)
    assert observed.metrics.to_json() == bare.metrics.to_json()


def test_digest_invariant_across_worker_processes(tmp_path):
    # Same invariant through the process-pool path: envelopes must
    # replay the exact stream even with the flight recorder attached.
    app, storage, nodes, seed = SCENARIOS[2]
    configs = [_config(app, storage, nodes, seed),
               _config(app, storage, nodes, seed + 1)]
    workflow = small_workflow(app)
    bare = [_run_bare(c, workflow) for c in configs]
    monitor = SweepMonitor(events=EventLogWriter(io.StringIO()),
                           progress=True, stream=io.StringIO())
    observe = ObserveOptions(monitor=monitor,
                             crash_dir=str(tmp_path / "crashes"),
                             flight=True, profile="cprofile")
    observed = run_sweep(configs, workflow=workflow, jobs=2,
                         observe=observe)
    for b, o in zip(bare, observed):
        assert _hash_chain(o) == _hash_chain(b)
