"""Per-operation event budget of every storage backend, and the
contract of the ``StorageSystem.io`` entry point around it.

Each backend composes its data path from the completion events of the
disk and network kernels, and each kernel succeeds the event its caller
handed it, so one storage operation spawns no process of its own and
no proxy event.  The only process allowed is the NFS write-back flusher
(a daemon).  The ``env._seq`` delta of each operation on an idle
cluster is pinned: it counts every event the operation queues until the
cluster is idle again, so a change that adds a helper process or a
proxy event shows up here first.  ``io`` wraps the same hooks in the
namespace bracket and the ``storage_op`` span, and must add no event.
"""

import pytest

from repro.cloud import MB
from repro.faults import (
    FaultCoordinator,
    FaultSpec,
    OutageWindow,
    RetryPolicy,
    StorageUnavailableError,
)
from repro.simcore import NULL_COLLECTOR
from repro.storage import STORAGE_NAMES, FileMetadata, make_storage
from repro.telemetry.spans import SpanBuilder

#: Process names a storage operation may spawn (prefix match).
ALLOWED_PROCESSES = ("nfs-flusher",)

#: (backend, op) -> events queued from the op's start until idle,
#: including the two of the driving process itself.
EVENT_BUDGET = {
    ("local", "write"): 6,
    ("local", "read_miss"): 6,
    ("local", "cache_hit"): 3,
    ("s3", "write"): 10,
    ("s3", "read_miss"): 12,
    ("s3", "cache_hit"): 3,
    ("nfs", "write"): 17,
    ("nfs", "read_miss"): 12,
    ("nfs", "cache_hit"): 3,
    ("glusterfs-nufa", "write"): 6,
    ("glusterfs-nufa", "read_miss"): 10,
    ("glusterfs-nufa", "cache_hit"): 3,
    ("glusterfs-distribute", "write"): 6,
    ("glusterfs-distribute", "read_miss"): 10,
    ("glusterfs-distribute", "cache_hit"): 3,
    ("pvfs", "write"): 16,
    ("pvfs", "read_miss"): 16,
    ("pvfs", "cache_hit"): 16,
    ("xtreemfs", "write"): 6,
    ("xtreemfs", "read_miss"): 6,
    ("xtreemfs", "cache_hit"): 6,
    ("p2p", "write"): 5,
    ("p2p", "read_miss"): 15,
    ("p2p", "cache_hit"): 3,
}
OPS = ("write", "read_miss", "cache_hit")

#: (backend, op) pairs that touch no shared service, so a storage
#: outage cannot fail them: node-local data and cache hits.
SERVICE_FREE = {
    ("local", "write"), ("local", "read_miss"), ("local", "cache_hit"),
    ("s3", "cache_hit"),
    ("nfs", "cache_hit"),
    ("glusterfs-nufa", "write"), ("glusterfs-nufa", "cache_hit"),
    # "f" hashes to the writer's own brick.
    ("glusterfs-distribute", "write"), ("glusterfs-distribute", "cache_hit"),
    ("p2p", "write"), ("p2p", "cache_hit"),
}


def _deploy(name, env, cloud):
    workers = cloud.launch_many("c1.xlarge", 1 if name == "local" else 2)
    server = cloud.launch("m1.xlarge", name="nfs-server")
    fs = make_storage(name, env, cloud=cloud, nfs_server=server)
    fs.deploy(workers)
    return fs, workers


def _setup(op, fs, workers):
    """The node and file of ``op``, with the cluster idle afterwards.

    ``read_miss`` reads a pre-staged input from a node that does not
    hold it where placement allows one (remote); ``cache_hit`` re-reads
    a file the node itself just wrote (a page-cache hit for every
    backend that has one).
    """
    meta = FileMetadata("f", 10 * MB)
    if op == "write":
        fs.declare_output(meta)
        return workers[0], meta
    if op == "read_miss":
        fs.stage_input(meta)
        holder = getattr(fs, "owner_of", lambda _: workers[0])(meta.name)
        others = [w for w in workers if w is not holder]
        return (others or workers)[0], meta
    fs.declare_output(meta)
    fs.env.process(fs.io("write", workers[0], meta,
                         SpanBuilder(NULL_COLLECTOR, fs.env)))
    fs.env.run()
    return workers[0], meta


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("name", STORAGE_NAMES)
def test_operation_spawns_no_process_and_keeps_its_budget(
        name, op, env, cloud):
    fs, workers = _deploy(name, env, cloud)
    node, meta = _setup(op, fs, workers)
    io = fs.write if op == "write" else fs.read

    spawned = []
    spawn = env.process

    def watched(gen, name=None):
        spawned.append(name)
        return spawn(gen, name=name)

    seq0 = env._seq
    spawn(io(node, meta), name="driver")
    env.process = watched
    env.run()
    assert [n for n in spawned
            if not (n or "").startswith(ALLOWED_PROCESSES)] == []
    assert env._seq - seq0 == EVENT_BUDGET[name, op]


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("name", STORAGE_NAMES)
def test_entry_point_adds_no_events(name, op, env, cloud):
    fs, workers = _deploy(name, env, cloud)
    node, meta = _setup(op, fs, workers)
    kind = "write" if op == "write" else "read"
    seq0 = env._seq
    env.process(fs.io(kind, node, meta, SpanBuilder(NULL_COLLECTOR, env)))
    env.run()
    assert env._seq - seq0 == EVENT_BUDGET[name, op]


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("name", STORAGE_NAMES)
def test_outage_fails_exactly_the_ops_that_need_the_service(
        name, op, env, cloud):
    fs, workers = _deploy(name, env, cloud)
    node, meta = _setup(op, fs, workers)
    spec = FaultSpec(storage_outages=(OutageWindow(0.0, 1e9),),
                     retry=RetryPolicy(max_retries=0, op_timeout=1.0))
    FaultCoordinator(env, spec).attach_storage(fs)
    kind = "write" if op == "write" else "read"
    needs_service = fs._op_needs_service(kind, node, meta)
    assert needs_service == ((name, op) not in SERVICE_FREE)
    net_bytes = cloud.network.bytes_transferred
    outcome = []

    def driver():
        try:
            yield from fs.io(kind, node, meta, SpanBuilder(NULL_COLLECTOR, env))
        except StorageUnavailableError:
            outcome.append("failed")
        else:
            outcome.append("done")

    env.process(driver())
    env.run()
    assert outcome == ["failed" if needs_service else "done"]
    if not needs_service:
        assert cloud.network.bytes_transferred == net_bytes
