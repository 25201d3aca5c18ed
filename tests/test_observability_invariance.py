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
    result_from_json,
    result_to_json,
    run_sweep,
)
from repro.faults import FaultSpec, NodeCrash, OutageWindow, RetryPolicy
from repro.lint.determinism import canonical_event
from repro.observe import EventLogWriter, SweepMonitor
from repro.storage import STORAGE_NAMES
from repro.telemetry import to_prometheus, validate_exposition

# The 20 golden scenarios: every application crossed with a spread of
# storage backends, node counts, and seeds.  Workflows are scaled down
# so the double-run suite stays fast; determinism is scale-free.  Each
# maps to the ``_hash_chain`` digest of its bare run, recorded while
# the vectorized flow kernel and the object-graph kernel it replaced
# still ran side by side and agreed on every scenario.  The five NFS and
# three PVFS entries were re-pinned when storage I/O stopped spawning a
# helper process per disk/network stage: same-timestamp records came
# out in a different order, while every ``GOLDEN_RECORD_SETS`` entry
# (and so every makespan and cost) stayed put.
GOLDEN_CHAINS = {
    ("synthetic", "local", 1, 0):
        "2f9f67c974e1fb78ebf520bc8b32366540345373981ba6532c27b7f718902ed7",
    ("synthetic", "local", 1, 1):
        "0539e10f4ed10b3b19cc99229f10e33eb90ac19f8cd503cd2b17b8ef22325b4e",
    ("synthetic", "nfs", 2, 0):
        "6c06ddf819b71948bdf6547066900517d6d3b04805daa8d3a07e638116297a40",
    ("synthetic", "nfs", 4, 7):
        "f9e32a441811a3ea8f43e73e7d25012d79139d253b8d340236cca519dac3ecbc",
    ("synthetic", "s3", 2, 0):
        "e84ea4c8026c5611fc9a5f265a685515705b6f69d93993b913df19f857c0203f",
    ("synthetic", "s3", 4, 3):
        "41de4896f539cc6307428d02bd431457d642b27b426e8a388ecbd8844c14d801",
    ("synthetic", "pvfs", 2, 0):
        "4e2866c34a7ee6b85e7e55133f9238be99041175792233bd32ca16aadbfa6446",
    ("synthetic", "pvfs", 4, 5):
        "ec51813d7a1a2c713f485406a4afa50a557b526db39ca34701b710e6cf7e078d",
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
        "5a262c0cb36360dd66440125f7e976bec3c854665cba455bda336af4cf53ed79",
    ("montage", "s3", 2, 0):
        "e8ae1ddaa4598c0a3030a9b3b42e7d0cb695161beceec57ee976199e2b3edcb6",
    ("montage", "glusterfs-nufa", 2, 17):
        "a3976b0686d6b11944f24949a6328325ebbe5045119b95c46fa5644d0524166e",
    ("epigenome", "nfs", 2, 0):
        "a9e469b834e90114d465af221bfab69a7a6f714d265dace1870909ddb82978ed",
    ("epigenome", "pvfs", 2, 42):
        "8a39901614bc0e77ad1eeb96c6892f898fcd12d11895c30d4a7a18ad416fba24",
    ("broadband", "s3", 2, 0):
        "2284e6838f54dcc1b594ca247165dbaf5ff52810fdde000241a315c679137967",
    ("broadband", "nfs", 2, 23):
        "ece8f5f360b7c2c26b09bff60f787a3f0234580d64070674c38bd95ae238adec",
}

# The same 20 scenarios, pinned order-free: sha256 over the *sorted*
# canonical trace lines plus the makespan/cost tail.  A change that
# only reorders same-timestamp records moves ``GOLDEN_CHAINS`` but
# must leave these alone; a change to what the simulation does or
# when it does it moves both.
GOLDEN_RECORD_SETS = {
    ("synthetic", "local", 1, 0):
        "316a2555dd63ff94066e32db3e31e332f28d586d2f0277e4b166e3a993b99a22",
    ("synthetic", "local", 1, 1):
        "5b16cb2b5461ec1973b1dcf4128f704210483071321c4d14fd14e111727a842b",
    ("synthetic", "nfs", 2, 0):
        "7273edcec0f7e3b9879a7f6e162aff2ab8026faee8ecd41e0c02cfabf626a662",
    ("synthetic", "nfs", 4, 7):
        "f2aa490300c498d9679265864983f64a8fecf8faff6fc56b83f8d3907ae96d86",
    ("synthetic", "s3", 2, 0):
        "0dda6a8adf40db6639435741f1ba05548232b749188a23de5568690a1e80d8b4",
    ("synthetic", "s3", 4, 3):
        "a7bf776ae2b56a8b2bc2745e12fd163c970a867eb8df116d0e1b1ee6205409b2",
    ("synthetic", "pvfs", 2, 0):
        "cb96a89118b7ee295da833e18c0d7e477c0af42ccadccd12e01905e76c927acb",
    ("synthetic", "pvfs", 4, 5):
        "89912fb7f008fbe25f31d5d773b0e3780732b1e25a493fc4feab1a21acbd831e",
    ("synthetic", "glusterfs-nufa", 2, 0):
        "7d53abbbf09081b9d4d3db3460c9bc9c1dd459436f8fbd342a278916eab5f92c",
    ("synthetic", "glusterfs-nufa", 4, 11):
        "b587bf45bc6fd9588be64d5bf0611a0df867eba9dfc1b3dfbad7fc22d6459e2a",
    ("synthetic", "glusterfs-distribute", 2, 0):
        "fbd97ed40a4b06a1f32b1130a2bf34ee3ef268ade85727a422951803b2a5b3e1",
    ("synthetic", "glusterfs-distribute", 4, 13):
        "e67ea9acb281f2c6cd7d02b20370a04dd7e15440cefdd19f33cc9733e6d9b979",
    ("montage", "local", 1, 0):
        "062e389d19e48d10715423bde45134ee0e6256ea9cd45aaf058d69e889e5d2fd",
    ("montage", "nfs", 2, 42):
        "3a5c29848e04d9eb0b78f85239d4886cd109eb3383ce19a842d013bdfc728a89",
    ("montage", "s3", 2, 0):
        "5247ea91b3847bf0515fab5d87153528a54ce0d60565d5e75b6f0924abd115b2",
    ("montage", "glusterfs-nufa", 2, 17):
        "735f087d8e7fb310810a5233c05b089516a017ec7ccca4e4a4248f53be2fd944",
    ("epigenome", "nfs", 2, 0):
        "abfabb7dd7055cef1349278b4dcedeea3b23cc851196c4f23beabd6694439914",
    ("epigenome", "pvfs", 2, 42):
        "064fbfb2532456878337e3a28e9fcb0a18e3a760c6b2efc94d7de7421809d46c",
    ("broadband", "s3", 2, 0):
        "aa094cc5d85552fe38489a87b9b48813e03550609baf6589348c7ed2387a8ae9",
    ("broadband", "nfs", 2, 23):
        "5c83ea5ef538ba79fa0b4fdccb7885c03d8aa9bb601d9663aa171d6027d65d5e",
}
SCENARIOS = list(GOLDEN_CHAINS)

# One fault-mode scenario per backend: an outage window, transient
# storage errors under a retry policy, and (on 2-node cells) a node
# crash whose evicted jobs abort their half-done writes.  These chains
# cover the retry, outage and eviction paths the 20 fault-free
# scenarios never take.  The p2p entry was re-pinned when p2p stopped
# counting node-local writes and local-replica reads as touching a
# shared service (p2p has none), so the outage no longer fails them.
GOLDEN_FAULT_CHAINS = {
    "local":
        "64b9e09c738f8a1137982c1a1dab33da225865e7ef6cbefebb08e5a1a5b8cbd3",
    "s3":
        "210e18ec493199f607e5d8fd7a4d117e1eff817ebca051b058228acfcc76ba82",
    "nfs":
        "a1005fff422cfaa1439df6534c033f9c937fbd1ec783ba3fb74a337fa68d58d5",
    "glusterfs-nufa":
        "223e01090007d9cd29c3f615c65d1ad2ceef03fd3b24b0088c50a89a763dc95c",
    "glusterfs-distribute":
        "9ad0384a76e085aef3f501e4aee8096710de703000ec8d084e1623d726497e85",
    "pvfs":
        "37dcc08e6f1da042d9428f706d0db2b88a15699bf4d975b5b7c8e81183cd0ff1",
    "xtreemfs":
        "71e1a875713d174fc2b0ff24520f7743e4bf0ea36b9b05e23828007f86f2869b",
    "p2p":
        "3eaabf43002d6d6f1ed9be17844ee1763c998a4f3b0a3794bee7c61417a48768",
}

# sha256 of ``to_prometheus(result.metrics)`` for the same scenarios.
# The chains pin the trace; these pin the absolute metric values derived
# from it (fault_events_total, storage_retry_delay_seconds,
# vm_crashes_total, tasks_failed_total and the summary gauges), both on
# the live result and after a JSON round-trip.
GOLDEN_FAULT_METRICS = {
    "local":
        "9f60c813ce69738131708751a29d411d1ae248c8b88350f3eacdf0d4888784d1",
    "s3":
        "cde4b02b49b37197573f62bb337541d069d0bf2445ebf43cc78ac286a8cb9b6f",
    "nfs":
        "494b48af30ec21b6da56043dd4b056e500d5e170211b234892ee24fc3227db8c",
    "glusterfs-nufa":
        "d54d577266d2db9c88eb17630cd3e3929e8f3da025fe428cf5315e11db15595c",
    "glusterfs-distribute":
        "e3a64f6251d258994a179477bbd637dc81a4bba7596071ba5472b9b566be00bc",
    "pvfs":
        "3c0cd47481deddafc15a725ff6692ba9cdcb47b8c2b0a333fedad4425c178314",
    "xtreemfs":
        "930babe1789e7601148f0b3e5d81ab6f0cf957608e0a257347c3993f4521d694",
    "p2p":
        "f278760e7bcf76bfeb8c7c70d7aebfb176662dd3db90d8866d289d4978f5822e",
}


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


def _record_set(result):
    """sha256 over the *sorted* canonical trace lines + the same tail."""
    lines = sorted(canonical_event(rec.time, rec.category, rec.event,
                                   rec.fields)
                   for rec in result.trace.records)
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    digest.update((f"makespan={result.run.makespan!r}"
                   f"|cost={result.cost.per_second_total!r}").encode())
    return digest.hexdigest()


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
    assert _record_set(bare) == GOLDEN_RECORD_SETS[scenario]
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


def _fault_config(storage):
    nodes = 1 if storage == "local" else 2
    crashes = (NodeCrash("worker-1", 40.0),) if nodes > 1 else ()
    spec = FaultSpec(node_crashes=crashes,
                     storage_outages=(OutageWindow(20.0, 60.0),),
                     storage_error_rate=0.03,
                     retry=RetryPolicy(max_retries=8, op_timeout=5.0))
    return ExperimentConfig("synthetic", storage, nodes, seed=3,
                            cpu_jitter_sigma=0.05, collect_traces=True,
                            retries=10, fault_spec=spec)


@pytest.mark.parametrize("storage", STORAGE_NAMES)
def test_fault_mode_chain_is_pinned(storage):
    result = _run_bare(_fault_config(storage), small_workflow("synthetic"))
    # Local disk has no shared service, so no storage fault can fire.
    assert (result.faults.as_dict()["storage_errors"] > 0) \
        == (storage != "local")
    assert _hash_chain(result) == GOLDEN_FAULT_CHAINS[storage]
    clone = result_from_json(result_to_json(result))
    for metrics in (result.metrics, clone.metrics):
        text = to_prometheus(metrics)
        assert hashlib.sha256(text.encode()).hexdigest() \
            == GOLDEN_FAULT_METRICS[storage]
