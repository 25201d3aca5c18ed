"""PVFS: striped parallel file system over the worker nodes (§IV.D).

The paper runs PVFS 2.6.3 (the 2.8 series crashed on EC2) with every
node acting as both I/O server and client, and metadata distributed
across all nodes.  Two properties of that deployment drive the results:

* **striping** — file data is striped across *all* nodes, so every
  read/write of any size touches every server: great aggregate
  bandwidth for large files, pure overhead for the workloads' small
  (1–10 MB) files;
* **expensive file creation** — creating a file contacts every I/O
  server to allocate datafile handles, and 2.6.3 lacks the small-file
  optimizations of later releases.  With tens of thousands of small
  files (Montage ~29 k) the per-file cost dominates, and it *grows*
  with node count.

There is no client-side data cache (reads always hit the servers).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List

from ..simcore.pipes import FairShareChannel
from .base import StorageSystem
from .files import FileMetadata

if TYPE_CHECKING:  # pragma: no cover
    from ..cloud.node import VMInstance
    from ..simcore.events import Event


class PVFSStorage(StorageSystem):
    """All-peer striped PVFS volume."""

    name = "pvfs"
    mode = "posix"
    min_nodes = 2
    #: The 2.6.3 kernel client bypasses the page cache (direct-style
    #: I/O): every access hits the servers.
    uses_page_cache = False

    #: Stripe unit (PVFS default 64 KB; whole-file ops below model it
    #: only through the per-server split, which is what matters here).
    STRIPE_SIZE = 65536.0
    #: File create: handle allocation on every I/O server (2.6.3,
    #: no small-file optimizations) — base plus per-server cost.
    CREATE_BASE_LATENCY = 0.012
    CREATE_PER_SERVER_LATENCY = 0.012
    #: Open-for-read metadata lookup.
    OPEN_LATENCY = 0.006
    #: Per-client-stream protocol throughput ceiling.  The 2.6-era
    #: kernel client moves data through fixed-size buffered requests;
    #: a single file stream tops out well below the wire rate no
    #: matter how many servers hold stripes.
    PER_STREAM_BW = 25_000_000.0

    def _on_deploy(self) -> None:
        # Metadata operations serialize through the coordination path
        # (handle allocation involves distributed agreement in 2.6.3;
        # throughput does not scale with servers — the opposite: each
        # create touches every server).
        self._meta = FairShareChannel(self.env, name="pvfs-meta")

    def _create_cost(self) -> float:
        """Metadata-service seconds to create one file."""
        return (self.CREATE_BASE_LATENCY
                + self.CREATE_PER_SERVER_LATENCY * len(self.workers))

    def _place_input(self, meta: FileMetadata) -> None:
        # Pre-staged files are striped like everything else; mark the
        # stripe extents touched so later re-reads behave.
        for w in self.workers:
            w.disk._touched.add((self.name, meta.name))

    # -- data path ----------------------------------------------------------------

    def _stripe_sizes(self, size: float) -> List[float]:
        """Bytes each server handles for a file of ``size``."""
        n = len(self.workers)
        if size <= self.STRIPE_SIZE:
            # A small file lands entirely on one server.
            return [size] + [0.0] * (n - 1)
        return [size / n] * n

    def read(self, node: "VMInstance", meta: FileMetadata) -> Generator:
        self._count_read(meta, remote=True)
        yield self._meta.submit(self.OPEN_LATENCY)
        # Stripe transfers run in parallel, but the client stream can
        # drain them no faster than its protocol ceiling.
        yield self.env.all_of([
            self._stripe_read(server, node, part)
            for server, part in zip(self.workers, self._stripe_sizes(meta.size))
            if part > 0
        ] + [self.env.timeout(meta.size / self.PER_STREAM_BW)])

    def write(self, node: "VMInstance", meta: FileMetadata) -> Generator:
        self._count_write(meta, remote=True)
        # File creation: contact every server for handle allocation,
        # serialized through the metadata coordination path.
        yield self._meta.submit(self._create_cost())
        yield self.env.all_of([
            self._stripe_write(server, node, meta, part)
            for server, part in zip(self.workers, self._stripe_sizes(meta.size))
            if part > 0
        ] + [self.env.timeout(meta.size / self.PER_STREAM_BW)])

    # -- helpers -------------------------------------------------------------------

    def _stripe_read(self, server: "VMInstance", client: "VMInstance",
                     nbytes: float) -> "Event":
        """One stripe: server disk and the wire back, pipelined; both
        must finish.  The disk operation is issued first."""
        if server is client:
            return server.disk.read(nbytes)
        return (server.disk.read(nbytes)
                & server.network.transfer(server.nic, client.nic, nbytes))

    def _stripe_write(self, server: "VMInstance", client: "VMInstance",
                      meta: FileMetadata, nbytes: float) -> "Event":
        """One stripe: the wire out and the server disk, pipelined; both
        must finish.  The wire transfer is issued first."""
        if server is client:
            return server.disk.write((self.name, meta.name), nbytes)
        return (client.network.transfer(client.nic, server.nic, nbytes)
                & server.disk.write((self.name, meta.name), nbytes))
