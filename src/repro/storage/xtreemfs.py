"""XtreemFS: the wide-area file system the paper abandoned (§IV).

The paper ran a few experiments with XtreemFS, "a file system designed
for wide-area networks", and terminated them after the workflows took
more than twice as long as on any other system.  We model it as a
remote object-based file system whose WAN-oriented protocol stack
imposes high per-operation latency and modest per-stream throughput —
enough to reproduce the ">2x slower" observation, which is all the
paper reports.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from .base import StorageSystem
from .files import FileMetadata

if TYPE_CHECKING:  # pragma: no cover
    from ..cloud.ec2 import EC2Cloud
    from ..cloud.network import Endpoint
    from ..cloud.node import VMInstance

MB = 1_000_000


class XtreemFSStorage(StorageSystem):
    """Object-based WAN file system (directory + metadata + OSD services)."""

    name = "xtreemfs"
    mode = "posix"
    min_nodes = 1
    #: Object-based client with WAN consistency checks; treat as
    #: uncached (pessimistic, but this is the system the paper
    #: abandoned after partial runs).
    uses_page_cache = False

    #: Per-operation overhead: MRC metadata round trips over the
    #: WAN-tuned stack.
    OP_LATENCY = 0.055
    #: Single-stream OSD throughput.
    PER_STREAM_BW = 9 * MB
    #: Aggregate OSD front-end bandwidth.
    SERVICE_BW = 120 * MB

    def __init__(self, env, cloud: "EC2Cloud", trace=None) -> None:
        super().__init__(env, trace=trace)
        self.cloud = cloud
        self.endpoint: "Endpoint" = cloud.attach_service(
            "xtreemfs", self.SERVICE_BW)

    def read(self, node: "VMInstance", meta: FileMetadata) -> Generator:
        self._count_read(meta, remote=True)
        yield self.env.timeout(self.OP_LATENCY)
        yield self.cloud.network.transfer(
            self.endpoint, node.nic, meta.size, max_rate=self.PER_STREAM_BW)

    def write(self, node: "VMInstance", meta: FileMetadata) -> Generator:
        self._count_write(meta, remote=True)
        yield self.env.timeout(self.OP_LATENCY)
        yield self.cloud.network.transfer(
            node.nic, self.endpoint, meta.size, max_rate=self.PER_STREAM_BW)
