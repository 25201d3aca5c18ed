"""Detailed NFS model tests: caches, throttling, server sizing."""

import pytest

from repro.cloud import GB, MB, EC2Cloud
from repro.simcore import Environment, Interrupt
from repro.storage import FileMetadata, NFSStorage

from .conftest import run


def make_nfs(env, cloud, n_workers=2, server_type="m1.xlarge"):
    workers = cloud.launch_many("c1.xlarge", n_workers)
    server = cloud.launch(server_type, name="nfs-server")
    fs = NFSStorage(env, server)
    fs.deploy(workers)
    return fs, workers, server


def test_cache_capacity_scales_with_server_memory(env, cloud):
    small, _, _ = make_nfs(env, cloud, server_type="m1.xlarge")
    assert small.cache_capacity == pytest.approx(16 * GB * 0.8)


def test_big_server_has_more_rpc_and_cache(env, cloud):
    env2 = Environment()
    cloud2 = EC2Cloud(env2)
    small, _, _ = make_nfs(env, cloud)
    big, _, _ = make_nfs(env2, cloud2, server_type="m2.4xlarge")
    assert big.cache_capacity > small.cache_capacity
    assert big._rpc_bw > small._rpc_bw
    # ...but not 2x despite 2x the cores (nfsd scaling knee).
    assert big._rpc_bw < 2 * small._rpc_bw


def test_lru_eviction_pins_dirty_files(env, cloud):
    fs, workers, server = make_nfs(env, cloud)
    # Shrink the cache so eviction is easy to trigger.
    fs.cache_capacity = 100 * MB
    meta_dirty = FileMetadata("dirty", 60 * MB)
    fs.declare_output(meta_dirty)

    def writer():
        yield from fs.write(workers[0], meta_dirty)

    env.process(writer())
    # Stop before the background flush completes.
    env.run(until=0.7)
    assert "dirty" in fs._dirty
    # Inserting a clean file over capacity must not evict the dirty one.
    fs._cache_insert("clean", 80 * MB, dirty=False)
    assert "dirty" in fs._cache
    assert "clean" not in fs._cache  # clean LRU went instead
    env.run()
    assert fs.flushes_completed == 1


def test_reads_of_hot_files_skip_disk(env, cloud):
    fs, workers, server = make_nfs(env, cloud)
    meta = FileMetadata("hot", 20 * MB)
    fs.stage_input(meta)

    def proc():
        yield from fs.read(workers[0], meta)   # cold: server disk
        yield from fs.read(workers[1], meta)   # hot: server cache

    run(env, proc())
    assert server.disk.reads == 1
    assert fs.stats.cache_hits == 1


def test_rpc_contention_degrades_per_client_throughput(env, cloud):
    """16 concurrent streams get much less than 2x the service of 8."""
    fs, workers, server = make_nfs(env, cloud, n_workers=8)
    metas = [FileMetadata(f"f{i}", 125 * MB) for i in range(16)]
    for m in metas:
        fs.stage_input(m)

    def timed(k):
        t0 = env.now
        procs = [env.process(reader(workers[i % 8], metas[i]))
                 for i in range(k)]
        yield env.all_of(procs)
        return env.now - t0

    def reader(w, m):
        yield from fs.read(w, m)

    t8 = env.run(until=env.process(timed(8)))
    # Invalidate client page caches so the second wave hits the server.
    for w in workers:
        pc = fs.page_cache_of(w)
        for m in metas:
            pc.invalidate(m.name)
    t16 = env.run(until=env.process(timed(16)))
    # Work conservation would predict t16 = 2*t8; contention makes it
    # clearly worse.
    assert t16 > 2.3 * t8


def test_dirty_quota_limits_outstanding_writeback(env, cloud):
    fs, workers, server = make_nfs(env, cloud)
    quota = fs._dirty_quota.capacity
    n = 6
    metas = [FileMetadata(f"b{i}", quota * 0.5) for i in range(n)]
    for m in metas:
        fs.declare_output(m)
    peak = [0.0]

    def writer(m):
        yield from fs.write(workers[0], m)
        peak[0] = max(peak[0], quota - fs._dirty_quota.level)

    for m in metas:
        env.process(writer(m))
    env.run()
    # Never more than the quota outstanding.
    assert peak[0] <= quota + 1e-6
    assert fs.flushes_completed == n


def test_flusher_is_single_stream(env, cloud):
    """Flushes drain sequentially: the server disk never sees more
    than one background write at a time."""
    fs, workers, server = make_nfs(env, cloud)
    metas = [FileMetadata(f"f{i}", 50 * MB) for i in range(5)]
    for m in metas:
        fs.declare_output(m)

    max_ops = [0]

    def watcher():
        while fs.flushes_completed < 5:
            max_ops[0] = max(max_ops[0], server.disk.active_ops)
            yield env.timeout(0.05)

    def writer(m):
        yield from fs.write(workers[0], m)

    env.process(watcher())
    for m in metas:
        env.process(writer(m))
    env.run()
    assert max_ops[0] <= 1


def _interrupted_writer(env, fs, node, meta, at):
    """Start a write of ``meta`` and interrupt it at sim time ``at``;
    returns the list the writer appends its outcome to."""
    outcome = []

    def writer():
        try:
            yield from fs.write(node, meta)
            outcome.append("done")
        except Interrupt:
            outcome.append("interrupted")

    proc = env.process(writer())

    def killer():
        yield env.timeout(at)
        proc.interrupt("node crash")

    env.process(killer())
    return outcome


def test_write_interrupted_on_dirty_quota_cancels_its_claim(env, cloud):
    fs, workers, server = make_nfs(env, cloud)
    quota = fs._dirty_quota
    hog = FileMetadata("hog", quota.capacity)
    meta = FileMetadata("f", 10 * MB)
    fs.declare_output(hog)
    fs.declare_output(meta)
    env.process(fs.write(workers[0], hog))
    outcome = _interrupted_writer(env, fs, workers[1], meta, at=0.01)
    env.run(until=0.005)
    assert quota.level == 0.0 and len(quota._getters) == 1  # blocked
    env.run()
    assert outcome == ["interrupted"]
    assert quota._getters == []
    assert quota.level == quota.capacity
    assert fs.flushes_completed == 1  # only the hog was written
    assert "f" not in fs._cache


def test_write_interrupted_in_flight_returns_quota_and_drains(env, cloud):
    fs, workers, server = make_nfs(env, cloud)
    quota = fs._dirty_quota
    meta = FileMetadata("f", 100 * MB)
    fs.declare_output(meta)
    outcome = _interrupted_writer(env, fs, workers[0], meta, at=0.1)
    env.run(until=0.2)
    # The claim is back at once; the orphaned rpc and wire stages are
    # still running (100 MB needs ~0.8 s on the wire).
    assert outcome == ["interrupted"]
    assert quota.level == quota.capacity
    assert fs._rpc.active_ops == 1
    assert server.nic.rx.active_flows == 1
    env.run()  # the orphans finish without raising
    assert fs._rpc.active_ops == 0
    assert server.nic.rx.active_flows == 0
    assert quota.level == quota.capacity
    assert fs.flushes_completed == 0
    assert "f" not in fs._cache
