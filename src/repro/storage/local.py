"""Local-disk "storage system": the single-node baseline.

The paper reports a *Local* point in every figure: the workflow run on
one 8-core node using the RAID0 ephemeral array directly, with no
network file system at all.  It is only defined for one node, since
tasks on different nodes could not see each other's files.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from .base import StorageSystem
from .files import FileMetadata
from .pagecache import HIT_LATENCY as PC_HIT_LATENCY

if TYPE_CHECKING:  # pragma: no cover
    from ..cloud.node import VMInstance


class LocalDiskStorage(StorageSystem):
    """All data on the node's own RAID0 ephemeral array."""

    name = "local"
    mode = "posix"
    min_nodes = 1
    max_nodes = 1

    #: Per-operation VFS overhead (local open/close path).
    OP_LATENCY = 0.0002

    def _op_needs_service(self, op, node, meta):
        # Purely node-local: there is no shared service to be down.
        return False

    def read(self, node: "VMInstance", meta: FileMetadata) -> Generator:
        self._count_read(meta, remote=False)
        if self._page_cache_hit(node, meta):
            self.stats.cache_hits += 1
            yield self.env.timeout(PC_HIT_LATENCY)
            return
        self.stats.cache_misses += 1
        yield self.env.timeout(self.OP_LATENCY)
        yield node.disk.read(meta.size)
        self._page_cache_insert(node, meta)

    def write(self, node: "VMInstance", meta: FileMetadata) -> Generator:
        self._count_write(meta, remote=False)
        yield self.env.timeout(self.OP_LATENCY)
        yield node.disk.write(("local", meta.name), meta.size)
        # Freshly written pages stay resident (write-back cache).
        self._page_cache_insert(node, meta)
