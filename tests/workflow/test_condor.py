"""Unit tests for the Condor pool and the locality-aware variant."""

import pytest

from repro.cloud import MB, EC2Cloud
from repro.simcore import Environment
from repro.storage import GlusterFSStorage, S3Storage
from repro.workflow import (
    CondorPool,
    DAGMan,
    LocalityAwarePool,
    PegasusMapper,
    Task,
    Workflow,
)


def setup(n_workers=2, pool_cls=CondorPool, storage_kind="s3"):
    env = Environment()
    cloud = EC2Cloud(env)
    workers = cloud.launch_many("c1.xlarge", n_workers)
    if storage_kind == "s3":
        storage = S3Storage(env, cloud)
    else:
        storage = GlusterFSStorage(env, layout="nufa")
    storage.deploy(workers)
    pool = pool_cls(env, workers, storage)
    return env, workers, storage, pool


def two_stage_workflow(width=8):
    """Stage A writes files; stage B reads them (locality matters)."""
    wf = Workflow("two-stage")
    for i in range(width):
        wf.add_file(f"a{i}.dat", 50 * MB)
        wf.add_file(f"b{i}.dat", MB)
        wf.add_task(Task(f"A{i}", "produce", 5.0, outputs=[f"a{i}.dat"]))
        wf.add_task(Task(f"B{i}", "consume", 5.0,
                         inputs=[f"a{i}.dat"], outputs=[f"b{i}.dat"]))
    return wf


def run_pool(env, pool, wf, storage):
    plan = PegasusMapper().plan(wf, storage)
    dagman = DAGMan(env, plan, pool)
    dagman.start()
    env.run(until=dagman.done)
    return dagman


def test_fifo_pool_runs_everything():
    env, workers, storage, pool = setup()
    dagman = run_pool(env, pool, two_stage_workflow(), storage)
    assert dagman.n_completed == 16
    assert len(pool.records) == 16


def test_pool_queue_depth_counts_idle_jobs():
    env, workers, storage, pool = setup(n_workers=1)
    wf = two_stage_workflow(width=32)  # 32 roots on 8 slots
    plan = PegasusMapper().plan(wf, storage)
    dagman = DAGMan(env, plan, pool)
    dagman.start()
    env.run(until=1.0)
    assert pool.queue_depth > 0
    env.run(until=dagman.done)
    assert pool.queue_depth == 0


def test_slots_free_tracks_running_jobs():
    env, workers, storage, pool = setup(n_workers=1)
    (node,) = workers
    plan = PegasusMapper().plan(two_stage_workflow(width=4), storage)
    dagman = DAGMan(env, plan, pool)
    dagman.start()
    samples = []
    while not dagman.done.triggered:
        env.run(until=env.now + 1.0)
        samples.append((node.busy_slots, node.slots_free))
    assert (4, 4) in samples  # the four producers run side by side
    assert all(busy + free == 8 for busy, free in samples)


def test_dispatch_latency_configurable():
    env, workers, storage, pool = setup(n_workers=1)
    pool.DISPATCH_LATENCY = 0.0
    wf = Workflow("single")
    wf.add_file("o", 0.0)
    wf.add_task(Task("t", "x", 3.0, outputs=["o"]))
    run_pool(env, pool, wf, storage)
    # No I/O, no dispatch cost: pure CPU time.
    assert env.now == pytest.approx(3.0, abs=0.2)


def test_locality_pool_prefers_cached_inputs():
    """With files cached on specific nodes, the aware pool routes
    consumers there, lifting S3 cache hits above the FIFO baseline."""

    def hits(pool_cls):
        env, workers, storage, pool = setup(n_workers=2,
                                            pool_cls=pool_cls)
        run_pool(env, pool, two_stage_workflow(width=16), storage)
        return storage.stats.cache_hits

    assert hits(LocalityAwarePool) >= hits(CondorPool)


def test_locality_pool_score_computation():
    env, workers, storage, pool = setup(n_workers=2,
                                        pool_cls=LocalityAwarePool)
    wf = two_stage_workflow(width=2)
    plan = PegasusMapper().plan(wf, storage)
    job = plan.jobs["B0"]
    # Nothing cached yet: score 0 on both nodes.
    assert pool._local_score(workers[0], job) == 0.0
    storage._cache[workers[0].name].add("a0.dat")
    assert pool._local_score(workers[0], job) == pytest.approx(1.0)
    assert pool._local_score(workers[1], job) == 0.0
    # A job with no inputs scores 0 (no preference).
    assert pool._local_score(workers[0], plan.jobs["A0"]) == 0.0


def test_locality_pool_with_gluster_ownership():
    env, workers, storage, pool = setup(n_workers=2,
                                        pool_cls=LocalityAwarePool,
                                        storage_kind="gluster")
    dagman = run_pool(env, pool, two_stage_workflow(width=8), storage)
    assert dagman.n_completed == 16


def test_completion_callback_receives_records():
    env, workers, storage, pool = setup()
    seen = []
    pool.set_completion_callback(lambda job, rec: seen.append(rec.task_id))
    wf = two_stage_workflow(width=2)
    plan = PegasusMapper().plan(wf, storage)
    dagman = DAGMan(env, plan, pool)  # overrides the callback
    dagman.start()
    env.run(until=dagman.done)
    assert dagman.n_completed == 4
