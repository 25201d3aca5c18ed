"""GlusterFS in the two configurations the paper deploys (§IV.C).

GlusterFS composes *translators* into a file system.  The paper uses
two all-peer configurations (every node is both client and server,
exporting its local RAID0 volume):

``NUFA`` (non-uniform file access)
    All writes to **new** files go to the local disk; reads go to
    whichever node created the file.  Because the workloads are
    write-once, every write is local.  This gives Broadband's chained
    "mini workflow" transformations good locality: each stage's outputs
    are produced where the next stage *may* run.

``distribute``
    Files are placed by filename hash, spreading reads *and* writes
    uniformly across the cluster; a write is remote with probability
    (n-1)/n.

The model is the translator decision ("who owns this file?") plus the
physical path it implies: local disk access, or a peer transfer plus
the peer's disk.  A small per-operation latency covers the FUSE +
lookup overhead (larger when the owning node is remote).
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Dict, Generator

from .base import StorageSystem
from .files import FileMetadata
from .pagecache import HIT_LATENCY as PC_HIT_LATENCY

if TYPE_CHECKING:  # pragma: no cover
    from ..cloud.node import VMInstance


class GlusterFSStorage(StorageSystem):
    """Peer-to-peer GlusterFS volume over all worker nodes."""

    mode = "posix"
    min_nodes = 2

    #: FUSE + translator stack overhead for an operation served locally.
    LOCAL_OP_LATENCY = 0.0012
    #: Lookup + network round-trip overhead for a remote-owner operation.
    REMOTE_OP_LATENCY = 0.0030

    def __init__(self, env, layout: str = "nufa", trace=None) -> None:
        super().__init__(env, trace=trace)
        if layout not in ("nufa", "distribute"):
            raise ValueError(f"layout must be 'nufa' or 'distribute', got {layout!r}")
        self.layout = layout
        self.name = f"glusterfs-{layout}"
        #: file name -> owning worker (which holds the one replica).
        self._owner: Dict[str, "VMInstance"] = {}
        self._stage_counter = 0

    # -- placement -----------------------------------------------------------

    def _hash_owner(self, name: str) -> "VMInstance":
        return self.workers[zlib.crc32(name.encode()) % len(self.workers)]

    def _place_input(self, meta: FileMetadata) -> None:
        if self.layout == "distribute":
            owner = self._hash_owner(meta.name)
        else:
            # NUFA: inputs are staged through the shared mount; the
            # stage-in process writes from each node in turn
            # (round-robin), spreading the input set.
            owner = self.workers[self._stage_counter % len(self.workers)]
            self._stage_counter += 1
        self._owner[meta.name] = owner
        owner.disk._touched.add((self.name, meta.name))

    def owner_of(self, name: str) -> "VMInstance":
        """The worker holding the file's replica."""
        return self._owner[name]

    # -- data path ----------------------------------------------------------------

    def _op_needs_service(self, op, node, meta):
        # Operations served entirely by the node's own brick or page
        # cache never cross the wire; only remote-owner traffic sees
        # cluster-interconnect outages.  Mirrors the owner decision the
        # data path will make, without mutating the placement map.
        if op == "read":
            if self._page_cache_hit(node, meta):
                return False
            return self._owner.get(meta.name) is not node
        if self.layout == "nufa":
            return False  # new writes always land on the local brick
        return self._hash_owner(meta.name) is not node

    def read(self, node: "VMInstance", meta: FileMetadata) -> Generator:
        if self._page_cache_hit(node, meta):
            self._count_read(meta, remote=False)
            self.stats.cache_hits += 1
            yield self.env.timeout(PC_HIT_LATENCY)
            return
        self.stats.cache_misses += 1
        owner = self._owner[meta.name]
        remote = owner is not node
        self._count_read(meta, remote=remote)
        yield self.env.timeout(
            self.REMOTE_OP_LATENCY if remote else self.LOCAL_OP_LATENCY)
        if remote:
            # The owner's brick is an ordinary file on the owner's
            # local file system, so a hot file is served from the
            # owner's kernel page cache — only the wire is paid.
            owner_pc = self._page_caches[owner.name]
            if owner_pc.lookup(meta.name):
                yield owner.network.transfer(owner.nic, node.nic, meta.size)
            else:
                # Cold: the owner reads its disk and streams to the
                # client; disk and wire pipeline, the slower dominates.
                yield (owner.disk.read(meta.size)
                       & owner.network.transfer(owner.nic, node.nic,
                                                meta.size))
                owner_pc.insert(meta.name, meta.size)
        else:
            yield node.disk.read(meta.size)
        self._page_cache_insert(node, meta)

    def write(self, node: "VMInstance", meta: FileMetadata) -> Generator:
        if self.layout == "nufa":
            owner = node  # writes to new files always go local
        else:
            owner = self._hash_owner(meta.name)
        self._owner[meta.name] = owner
        remote = owner is not node
        self._count_write(meta, remote=remote)
        yield self.env.timeout(
            self.REMOTE_OP_LATENCY if remote else self.LOCAL_OP_LATENCY)
        if remote:
            yield (node.network.transfer(node.nic, owner.nic, meta.size)
                   & owner.disk.write((self.name, meta.name), meta.size))
            # The landed file is hot in the owner's page cache too.
            self._page_caches[owner.name].insert(meta.name, meta.size)
        else:
            yield node.disk.write((self.name, meta.name), meta.size)
        self._page_cache_insert(node, meta)
