"""Amazon S3 with the paper's whole-file caching client (§IV.A).

S3 has no POSIX interface, so the paper modified Pegasus to wrap every
job with GET (inputs: S3 → local disk) and PUT (outputs: local disk →
S3) operations.  Consequences modelled here, straight from the paper:

* every file is **written twice** when produced (program → disk,
  disk → S3) and **read twice** per use (S3 → disk, disk → program);
* each request pays S3's per-request overhead, which dominates for
  workloads with many small files (Montage);
* a **whole-file client cache** (correct because the workloads are
  write-once) downloads each file to a node at most once and keeps
  locally produced outputs for reuse — this is why Broadband, which
  re-reads its input set heavily, runs *best* on S3;
* the scheduler is not cache-aware, so a job may well land on a node
  that has not cached its inputs (paper §IV.A, last paragraph).

GET/PUT request counts feed the §VI fee model ($0.01 per 1,000 PUTs,
$0.01 per 10,000 GETs).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, Set

from .base import StorageSystem
from .files import FileMetadata
from .pagecache import HIT_LATENCY as PC_HIT_LATENCY

if TYPE_CHECKING:  # pragma: no cover
    from ..cloud.ec2 import EC2Cloud
    from ..cloud.network import Endpoint
    from ..cloud.node import VMInstance

MB = 1_000_000


class S3Storage(StorageSystem):
    """Object store + per-node whole-file caching client."""

    name = "s3"
    mode = "object"
    min_nodes = 1
    #: The client cache keeps whole files on the local disk, and the
    #: programs read those copies through the ordinary kernel page
    #: cache: a landing copy that was just downloaded (or an output
    #: just written) is still resident, so the paper's "double read"
    #: (S3 -> disk, disk -> program) costs a physical disk read only
    #: once the pages have been reclaimed — which is exactly what
    #: happens to Broadband's 1.1 GB velocity model under its tasks'
    #: memory pressure.
    uses_page_cache = True

    #: First-byte request overheads (2010-era S3 from inside EC2).
    GET_LATENCY = 0.070
    PUT_LATENCY = 0.130
    #: Single-connection throughput ceiling to/from S3.
    PER_STREAM_BW = 32 * MB
    #: Aggregate front-end bandwidth per direction (S3 scales well; the
    #: per-stream cap is the usual limiter at our cluster sizes).
    SERVICE_BW = 1000 * MB

    def __init__(self, env, cloud: "EC2Cloud", trace=None) -> None:
        super().__init__(env, trace=trace)
        self.cloud = cloud
        self.endpoint: "Endpoint" = cloud.attach_service("s3", self.SERVICE_BW)
        #: Objects currently stored in the bucket.
        self._bucket: Set[str] = set()
        #: Per-node whole-file cache: node name -> set of file names.
        self._cache: Dict[str, Set[str]] = {}

    def _on_deploy(self) -> None:
        self._cache = {w.name: set() for w in self.workers}

    def _place_input(self, meta: FileMetadata) -> None:
        self._bucket.add(meta.name)

    # -- cache inspection ------------------------------------------------------

    def cached_on(self, node: "VMInstance") -> Set[str]:
        """Names cached on ``node`` (for the data-aware scheduler ablation)."""
        return self._cache.get(node.name, set())

    def in_bucket(self, name: str) -> bool:
        """Whether the object exists in S3."""
        return name in self._bucket

    # -- telemetry ------------------------------------------------------------

    def telemetry_probes(self, clock):
        """Front-end load: concurrent streams and throughput per
        direction (tx = GETs leaving S3, rx = PUTs arriving)."""
        tx, rx = self.endpoint.tx, self.endpoint.rx
        return [
            ("s3.get_streams", lambda: float(tx.active_flows)),
            ("s3.put_streams", lambda: float(rx.active_flows)),
            ("s3.tx_bps", lambda: sum(f.rate for f in tx._flows)),
            ("s3.rx_bps", lambda: sum(f.rate for f in rx._flows)),
        ]

    # -- data path ----------------------------------------------------------------

    def _op_needs_service(self, op, node, meta):
        # The caching client keeps whole files on local disk: a cached
        # read never issues a GET, so it is immune to S3 outages.
        if op == "read" and meta.name in self._cache[node.name]:
            return False
        return True

    def read(self, node: "VMInstance", meta: FileMetadata) -> Generator:
        """GET to the local disk if not cached, then the program reads
        the local copy (from RAM while its pages stay resident)."""
        cached = meta.name in self._cache[node.name]
        self._count_read(meta, remote=not cached)
        if cached:
            self.stats.cache_hits += 1
        else:
            self.stats.cache_misses += 1
            yield from self._once(node, meta, self._fetch)
        # Disk -> program: free while the landing copy is resident.
        if self._page_cache_hit(node, meta):
            yield self.env.timeout(PC_HIT_LATENCY)
        else:
            yield node.disk.read(meta.size)
            self._page_cache_insert(node, meta)

    def write(self, node: "VMInstance", meta: FileMetadata) -> Generator:
        """Program writes the local disk, then the client PUTs to S3."""
        self._count_write(meta, remote=True)
        # Program -> disk (first write; pays the ephemeral penalty).
        yield node.disk.write(("s3cache", meta.name), meta.size)
        self._page_cache_insert(node, meta)
        # Disk -> S3: the client reads the file back (from RAM if the
        # just-written pages are still resident) and uploads it.
        self.stats.put_requests += 1
        yield self.env.timeout(self.PUT_LATENCY)
        stages = [self.cloud.network.transfer(
            node.nic, self.endpoint, meta.size, max_rate=self.PER_STREAM_BW)]
        if not self._page_cache_hit(node, meta):
            stages.append(node.disk.read(meta.size))
        yield self.env.all_of(stages)
        self._bucket.add(meta.name)
        # The output stays in the node cache for future jobs here.
        self._cache[node.name].add(meta.name)

    # -- helpers -------------------------------------------------------------------

    def _fetch(self, node: "VMInstance", meta: FileMetadata) -> Generator:
        """GET ``meta`` into ``node``'s cache (run through :meth:`_once`,
        so concurrent readers on one node share one download)."""
        if meta.name not in self._bucket:
            raise FileNotFoundError(f"object {meta.name!r} not in S3")
        self.stats.get_requests += 1
        yield self.env.timeout(self.GET_LATENCY)
        # Wire transfer and the local-disk landing write pipeline.
        yield (self.cloud.network.transfer(
                   self.endpoint, node.nic, meta.size,
                   max_rate=self.PER_STREAM_BW)
               & node.disk.write(("s3cache", meta.name), meta.size))
        self._cache[node.name].add(meta.name)
        self._page_cache_insert(node, meta)
