"""Direct node-to-node transfers: the paper's future-work mode (§VIII).

    "In this work we only considered workflow environments in which a
    shared storage system was used to communicate data between workflow
    tasks.  In the future we plan to investigate configurations in
    which files can be transferred directly from one computational node
    to another."

This module implements that configuration so the repository can answer
the question the paper poses.  The workflow system tracks where every
file was produced; a consumer task pulls each missing input straight
from the producer's node into its local disk cache (one hop, no
central service, no translator stack), and outputs simply stay where
they were written.  Like the S3 client cache, correctness rests on the
workloads' write-once discipline; unlike S3, there is no object-store
round-trip, no request fees, and reads of co-located data are purely
local.

``benchmarks/bench_p2p_future_work.py`` compares it against the
paper's best systems.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, Set

from .base import StorageSystem
from .files import FileMetadata
from .pagecache import HIT_LATENCY as PC_HIT_LATENCY

if TYPE_CHECKING:  # pragma: no cover
    from ..cloud.node import VMInstance


class DirectTransferStorage(StorageSystem):
    """WMS-managed peer-to-peer data movement with per-node caching."""

    name = "p2p"
    mode = "posix"
    min_nodes = 1

    #: Registry lookup + connection setup per remote pull.
    PULL_LATENCY = 0.004

    def __init__(self, env, trace=None) -> None:
        super().__init__(env, trace=trace)
        #: file name -> node names holding a replica.
        self._replicas: Dict[str, Set[str]] = {}
        self._stage_counter = 0

    def _on_deploy(self) -> None:
        self._by_name = {w.name: w for w in self.workers}

    def _place_input(self, meta: FileMetadata) -> None:
        # Inputs are staged round-robin, as with GlusterFS NUFA.
        owner = self.workers[self._stage_counter % len(self.workers)]
        self._stage_counter += 1
        self._replicas[meta.name] = {owner.name}
        owner.disk._touched.add((self.name, meta.name))

    # -- introspection -----------------------------------------------------

    def replicas_of(self, name: str) -> Set[str]:
        """Node names holding ``name``."""
        return set(self._replicas.get(name, ()))

    def cached_on(self, node: "VMInstance") -> Set[str]:
        """Names resident on ``node`` (for the locality scheduler)."""
        return {name for name, nodes in self._replicas.items()
                if node.name in nodes}

    # -- data path ----------------------------------------------------------------

    def _op_needs_service(self, op, node, meta):
        # There is no shared service: writes stay on the producer's own
        # disk, and so does a read of a replica the node already holds.
        # Only a pull from a peer needs the network and the registry.
        if op == "write":
            return False
        return node.name not in self._replicas.get(meta.name, ())

    def read(self, node: "VMInstance", meta: FileMetadata) -> Generator:
        local = node.name in self._replicas.get(meta.name, ())
        self._count_read(meta, remote=not local)
        if local:
            if self._page_cache_hit(node, meta):
                self.stats.cache_hits += 1
                yield self.env.timeout(PC_HIT_LATENCY)
                return
            yield node.disk.read(meta.size)
            self._page_cache_insert(node, meta)
            return
        self.stats.cache_misses += 1
        yield from self._once(node, meta, self._pull)
        # The landed replica is hot; the program reads it from RAM.
        if self._page_cache_hit(node, meta):
            yield self.env.timeout(PC_HIT_LATENCY)
        else:
            yield node.disk.read(meta.size)
            self._page_cache_insert(node, meta)

    def write(self, node: "VMInstance", meta: FileMetadata) -> Generator:
        self._count_write(meta, remote=False)
        yield node.disk.write((self.name, meta.name), meta.size)
        self._page_cache_insert(node, meta)
        self._replicas.setdefault(meta.name, set()).add(node.name)

    # -- helpers -------------------------------------------------------------------

    def _pull(self, node: "VMInstance", meta: FileMetadata) -> Generator:
        """Fetch a replica from a peer (run through :meth:`_once`, so
        concurrent pulls to one node share one transfer)."""
        holders = self._replicas.get(meta.name)
        if not holders:
            raise FileNotFoundError(f"no replica of {meta.name!r}")
        yield self.env.timeout(self.PULL_LATENCY)
        # Pull from the least-loaded holder's NIC (ties broken by
        # name so runs are reproducible across processes).
        source = min((self._by_name[h] for h in sorted(holders)),
                     key=lambda w: w.nic.tx.active_flows)
        stages = [source.network.transfer(source.nic, node.nic, meta.size)]
        # The source serves from its page cache when hot.
        src_pc = self._page_caches[source.name]
        if not src_pc.lookup(meta.name):
            stages.append(source.disk.read(meta.size))
            src_pc.insert(meta.name, meta.size)
        # Landing write on the consumer.
        stages.append(node.disk.write((self.name, meta.name), meta.size))
        yield self.env.all_of(stages)
        self._replicas[meta.name].add(node.name)
        self._page_cache_insert(node, meta)
