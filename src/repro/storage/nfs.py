"""NFS: a central file server on a dedicated node (paper §IV.B).

The paper provisions a dedicated ``m1.xlarge`` NFS server (chosen for
its 16 GB of RAM — "which facilitates good cache performance"), mounts
with the ``async`` export option so calls return before data reaches
disk, and disables atime updates.

The model captures the three effects the paper attributes NFS's
behaviour to:

* **async write-back** — client writes complete after the network
  transfer into the server's page cache; a background flusher drains
  dirty data to the server disk.  A dirty-quota container provides the
  kernel's write-back throttling (clients stall if they outrun the
  disk for too long);
* **server page cache** — recently written/read files are served from
  RAM, skipping the server disk (this is why NFS can beat the local
  ephemeral disk for Montage on one node: writes land in remote RAM at
  wire speed instead of paying the local first-write penalty);
* **central-server contention** — every byte crosses the single
  server NIC and every miss hits the single server disk, so adding
  clients degrades per-client service (Broadband's 2→4 node NFS
  regression).
"""

from __future__ import annotations

from collections import OrderedDict
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Dict, Generator, List, Tuple

from ..simcore.errors import Interrupt
from ..simcore.pipes import FairShareChannel
from ..simcore.resources import Container, Store
from .base import StorageSystem
from .files import FileMetadata
from .pagecache import HIT_LATENCY as PC_HIT_LATENCY

if TYPE_CHECKING:  # pragma: no cover
    from ..cloud.node import VMInstance


class NFSStorage(StorageSystem):
    """Central NFS server with async write-back and page cache."""

    name = "nfs"
    mode = "posix"
    min_nodes = 1

    #: Client-observed per-operation RPC overhead (open+getattr+read
    #: pipeline with attribute caching and noatime).
    READ_LATENCY = 0.0020
    WRITE_LATENCY = 0.0025
    #: Fraction of server RAM usable as page cache.
    CACHE_FRACTION = 0.80
    #: Fraction of the page cache allowed to hold dirty (unflushed)
    #: data before writers are throttled (Linux dirty_ratio analog).
    DIRTY_FRACTION = 0.40
    #: Server RPC/data-pump capacity per server core, bytes/s.  Every
    #: byte served costs nfsd CPU and protocol work regardless of
    #: whether the page cache held it; this path — not the NIC — is
    #: what saturates a 2010-era NFS server, and it degrades further
    #: as more concurrent client streams interleave (seeky request
    #: patterns, thread thrash).  This is the mechanism behind the
    #: paper's observation that NFS "performed surprisingly well in
    #: cases where there were either few clients, or when the I/O
    #: requirements of the application were low" — and behind
    #: Broadband's 2->4 node regression.
    RPC_BW_PER_CORE = 50_000_000.0
    #: nfsd scales poorly past a few cores (one NIC, lock contention):
    #: extra cores beyond 4 contribute only a quarter of their share.
    RPC_CORE_SCALING_KNEE = 4
    RPC_EXTRA_CORE_FRACTION = 0.25
    RPC_CONTENTION_BETA = 0.012
    RPC_CONTENTION_GAMMA = 2.0
    RPC_MIN_EFFICIENCY = 0.18

    def __init__(self, env, server: "VMInstance", trace=None) -> None:
        super().__init__(env, trace=trace)
        self.server = server
        self._rpc = FairShareChannel(
            env, name="nfsd",
            contention_beta=self.RPC_CONTENTION_BETA,
            contention_gamma=self.RPC_CONTENTION_GAMMA,
            min_efficiency=self.RPC_MIN_EFFICIENCY)
        cores = server.itype.cores
        effective = (min(cores, self.RPC_CORE_SCALING_KNEE)
                     + self.RPC_EXTRA_CORE_FRACTION
                     * max(0, cores - self.RPC_CORE_SCALING_KNEE))
        self._rpc_bw = self.RPC_BW_PER_CORE * effective
        self.cache_capacity = server.itype.memory_bytes * self.CACHE_FRACTION
        self._cache: "OrderedDict[str, float]" = OrderedDict()
        self._cache_bytes = 0.0
        self._dirty: set = set()
        # Eviction bookkeeping: every touch (insert / LRU re-position)
        # assigns the entry a fresh monotonic stamp, so stamp order ==
        # OrderedDict order.  Clean entries additionally sit in a
        # min-heap of (stamp, name); :meth:`_evict` pops the heap
        # instead of scanning the whole cache, discarding entries whose
        # stamp no longer matches (lazy invalidation).  Dirty entries
        # enter the heap only when their flush completes.
        self._stamp: Dict[str, int] = {}
        self._stamp_counter = 0
        self._clean_heap: List[Tuple[int, str]] = []
        self._dirty_quota = Container(
            env, capacity=max(self.cache_capacity * self.DIRTY_FRACTION, 1.0),
            init=max(self.cache_capacity * self.DIRTY_FRACTION, 1.0))
        #: Flush bookkeeping for tests.
        self.flushes_completed = 0
        # Write-back is drained by a single flusher daemon (pdflush):
        # it batches dirty files into one sequential disk stream, so
        # background flushing does not seek-thrash the server array
        # the way many concurrent direct writers would.
        self._flush_queue = Store(env)
        self._flusher_started = False

    # -- placement -----------------------------------------------------------

    def _place_input(self, meta: FileMetadata) -> None:
        # Pre-staged inputs live on the server disk, cold (staged long
        # before the run; the page cache does not survive in our
        # conservative model).
        self.server.disk._touched.add(("nfs", meta.name))

    # -- cache helpers ---------------------------------------------------------

    def _touch(self, name: str) -> None:
        """Re-stamp ``name`` as most recently used (clean ⇒ re-heaped)."""
        stamp = self._stamp_counter + 1
        self._stamp_counter = stamp
        self._stamp[name] = stamp
        if name not in self._dirty:
            heappush(self._clean_heap, (stamp, name))

    def _cache_has(self, name: str) -> bool:
        if name in self._cache:
            self._cache.move_to_end(name)
            self._touch(name)
            return True
        return False

    def _cache_insert(self, name: str, size: float, dirty: bool) -> None:
        if name in self._cache:
            # Re-writes of a cached name only refresh recency; an
            # already-clean entry is *not* re-dirtied (the flusher saw
            # the data once, and the model charges one flush per name).
            self._cache.move_to_end(name)
            self._touch(name)
            return
        self._cache[name] = size
        self._cache_bytes += size
        if dirty:
            self._dirty.add(name)
        self._touch(name)
        self._evict()

    def _evict(self) -> None:
        # Drop clean LRU entries until the cache fits.  Dirty entries
        # are pinned until their flush completes.  Candidates come from
        # the clean-stamp heap (stamp order == LRU order), so eviction
        # is O(log n) per dropped entry instead of an O(n) scan of the
        # whole cache per insert; stale heap entries — name gone,
        # re-stamped since, or dirtied meanwhile — are skipped.
        if self._cache_bytes <= self.cache_capacity:
            return
        cache = self._cache
        stamps = self._stamp
        heap = self._clean_heap
        dirty = self._dirty
        while self._cache_bytes > self.cache_capacity and heap:
            stamp, name = heappop(heap)
            if stamps.get(name) != stamp or name in dirty:
                continue
            self._cache_bytes -= cache.pop(name)
            del stamps[name]
        # Compact once the heap is dominated by stale entries so it
        # cannot grow without bound across a long run.
        if len(heap) > 4 * len(cache) + 64:
            live = [(s, n) for (s, n) in heap
                    if stamps.get(n) == s and n not in dirty]
            heapify(live)
            self._clean_heap = live

    @property
    def cached_bytes(self) -> float:
        """Bytes currently held in the server page cache."""
        return self._cache_bytes

    # -- telemetry ------------------------------------------------------------

    def telemetry_probes(self, clock):
        """Server-side load signals.

        ``nfs.rpc_util`` is the one that exposes the Broadband 2->4
        node collapse: delivered nfsd service seconds per second
        (0..1), pinned near 1.0 once the server saturates.
        """
        from ..telemetry.sampler import RateProbe
        quota = self._dirty_quota
        return [
            ("nfs.rpc_queue", lambda: float(self._rpc.active_ops)),
            ("nfs.rpc_util", RateProbe(
                self._rpc.current_work_done, clock)),
            ("nfs.dirty_bytes", lambda: quota.capacity - quota.level),
            ("nfs.cached_bytes", lambda: self._cache_bytes),
            ("nfs.disk_queue", lambda: float(self.server.disk.active_ops)),
        ]

    # -- data path ----------------------------------------------------------------

    def _op_needs_service(self, op, node, meta):
        # A client page-cache hit never talks to the server (close-to-
        # open revalidation is skipped for write-once data), so it
        # survives a server outage; everything else is an RPC.
        if op == "read" and self._page_cache_hit(node, meta):
            return False
        return True

    def read(self, node: "VMInstance", meta: FileMetadata) -> Generator:
        if self._page_cache_hit(node, meta):
            # Client page cache: close-to-open revalidation succeeds
            # (write-once data), no server involvement.
            self._count_read(meta, remote=False)
            self.stats.cache_hits += 1
            yield self.env.timeout(PC_HIT_LATENCY)
            return
        yield self.env.timeout(self.READ_LATENCY)
        hit = self._cache_has(meta.name)
        self._count_read(meta, remote=True)
        # The nfsd service path, the wire, and (on a page-cache miss)
        # the server disk pipeline; the slowest stage dominates.
        server = self.server
        stages = [
            self._rpc.submit(meta.size / self._rpc_bw),
            server.network.transfer(server.nic, node.nic, meta.size),
        ]
        if hit:
            self.stats.cache_hits += 1
        else:
            self.stats.cache_misses += 1
            stages.append(server.disk.read(meta.size))
        yield self.env.all_of(stages)
        if not hit:
            self._cache_insert(meta.name, meta.size, dirty=False)
        self._page_cache_insert(node, meta)

    def write(self, node: "VMInstance", meta: FileMetadata) -> Generator:
        yield self.env.timeout(self.WRITE_LATENCY)
        self._count_write(meta, remote=True)
        # Write-back throttling: claim dirty quota before transferring.
        # The quota is *shared server state*: if this client's node is
        # crashed mid-write (Interrupt), the claim must be unwound or
        # every surviving writer eventually wedges on a leaked quota.
        claim = min(meta.size, self._dirty_quota.capacity)
        quota_get = self._dirty_quota.get(claim)
        try:
            yield quota_get
            # Orphaned by an interrupt, these stages still run to
            # completion: the bytes already on the wire are not recalled.
            yield self.env.all_of([
                self._rpc.submit(meta.size / self._rpc_bw),
                self.server.network.transfer(node.nic, self.server.nic,
                                             meta.size),
            ])
        except Interrupt:
            if quota_get.triggered:
                self._dirty_quota.put(claim)
            else:
                self._dirty_quota.cancel_get(quota_get)
            raise
        # Data is now in the server page cache; client write completes.
        self._cache_insert(meta.name, meta.size, dirty=True)
        # The writer's own pages stay resident client-side as well.
        self._page_cache_insert(node, meta)
        if not self._flusher_started:
            self._flusher_started = True
            self.env.process(self._flusher(), name="nfs-flusher")
        self._flush_queue.put(meta)

    def _flusher(self) -> Generator:
        """The write-back daemon: drains dirty files to the server
        disk one batch at a time (a single sequential stream)."""
        while True:
            meta = yield self._flush_queue.get()
            yield self.server.disk.write(("nfs", meta.name), meta.size)
            if meta.name in self._dirty:
                self._dirty.discard(meta.name)
                # Now clean at its current recency: becomes evictable.
                stamp = self._stamp.get(meta.name)
                if stamp is not None:
                    heappush(self._clean_heap, (stamp, meta.name))
            yield self._dirty_quota.put(
                min(meta.size, self._dirty_quota.capacity))
            self.flushes_completed += 1
            self._evict()
