"""Ephemeral-disk and software-RAID models.

The paper (§III.C) measures EC2's ephemeral disks and finds a severe
*first-write penalty* attributed to Amazon's custom disk virtualisation:

* single disk: ~20 MB/s first write, expected (~100 MB/s) on re-write,
  reads peaking at ~110 MB/s;
* 4-disk software RAID0: 80–100 MB/s first writes, 350–400 MB/s
  subsequent writes, ~310 MB/s reads;
* zero-filling 50 GB to pre-touch the extents takes ~42 minutes — about
  as long as running the whole Montage workflow.

Because all three paper workloads are strictly write-once, nearly every
application write pays the first-write rate; that is the single largest
storage effect on EC2 and is modelled explicitly here.  The device
tracks which *extents* (keyed by file or block id) have been touched and
serves writes at the first-write or re-write bandwidth accordingly.
Contention is egalitarian processor sharing over the device.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Set

from ..simcore.pipes import FairShareChannel
from ..simcore.tracing import NULL_COLLECTOR, TraceCollector
from .types import MB

if TYPE_CHECKING:  # pragma: no cover
    from ..simcore.engine import Environment
    from ..simcore.events import Event


@dataclass(frozen=True)
class DiskProfile:
    """Bandwidth triple of a block device, bytes/second.

    ``op_latency`` is the fixed per-operation overhead (seek +
    virtualisation), applied before the bandwidth phase.
    """

    first_write_bw: float
    rewrite_bw: float
    read_bw: float
    op_latency: float = 0.0005
    #: Seek/interference penalty under concurrent streams (see
    #: :class:`~repro.simcore.pipes.FairShareChannel`): with *n*
    #: in-flight operations the device delivers ``1/(1+beta*(n-1))``
    #: of its nominal bandwidth.  The bandwidth triples above are
    #: single-stream measurements, so concurrency costs extra — this
    #: is why a busy 8-core node extracts far less than 310 MB/s from
    #: its array.
    contention_beta: float = 0.24
    #: Efficiency floor under heavy concurrency (command queueing and
    #: request merging keep a loaded array from collapsing entirely).
    min_efficiency: float = 0.25

    def __post_init__(self) -> None:
        for field in ("first_write_bw", "rewrite_bw", "read_bw"):
            if getattr(self, field) <= 0:
                raise ValueError(f"{field} must be positive")
        if self.op_latency < 0:
            raise ValueError("op_latency must be >= 0")
        if self.contention_beta < 0:
            raise ValueError("contention_beta must be >= 0")
        if not 0.0 <= self.min_efficiency <= 1.0:
            raise ValueError("min_efficiency must be in [0, 1]")


#: A single uninitialised EC2 ephemeral disk, per the paper's measurements.
EPHEMERAL_DISK = DiskProfile(
    first_write_bw=20 * MB,
    rewrite_bw=95 * MB,
    read_bw=110 * MB,
)

#: A zero-filled (pre-initialised) ephemeral disk: no first-write penalty.
INITIALIZED_DISK = DiskProfile(
    first_write_bw=95 * MB,
    rewrite_bw=95 * MB,
    read_bw=110 * MB,
)


def raid0(profile: DiskProfile, ndisks: int,
          write_efficiency: float = 1.0,
          read_efficiency: float = 0.705) -> DiskProfile:
    """Aggregate profile of an ``ndisks``-way software RAID0 array.

    Default efficiencies are fitted to the paper's measurements for the
    4-disk c1.xlarge array: first writes 80–100 MB/s (we get 80),
    re-writes 350–400 (380), reads ~310 (310).  Reads scale sub-linearly
    on EC2 (kernel readahead and md overheads), hence the distinct
    ``read_efficiency``.
    """
    if ndisks < 1:
        raise ValueError("ndisks must be >= 1")
    if ndisks == 1:
        return profile
    return DiskProfile(
        first_write_bw=profile.first_write_bw * ndisks * write_efficiency,
        rewrite_bw=profile.rewrite_bw * ndisks * write_efficiency,
        read_bw=profile.read_bw * ndisks * read_efficiency,
        op_latency=profile.op_latency,
        contention_beta=profile.contention_beta,
        min_efficiency=profile.min_efficiency,
    )


class BlockDevice:
    """A contended block device with first-write tracking.

    Every operation returns its completion event, to be yielded (alone
    or inside ``all_of``) by a simulation process::

        yield disk.write("f1", 8 * MB)   # first write: slow
        yield disk.read(8 * MB)          # fast
        yield disk.write("f1", 8 * MB)   # re-write: fast

    Extents are tracked per caller-supplied key (file id in the storage
    layer; block ranges are below model fidelity since the workloads
    are whole-file, write-once).
    """

    def __init__(self, env: "Environment", profile: DiskProfile,
                 name: str = "disk",
                 init_bw: Optional[float] = None,
                 trace: TraceCollector = NULL_COLLECTOR) -> None:
        self.env = env
        self.profile = profile
        self.name = name
        # Zero-filling runs `dd` over each raw device in sequence, so it
        # proceeds at the *single-disk* first-write rate even on RAID
        # (hence the paper's 42 min for 50 GB).
        self.init_bw = init_bw if init_bw is not None else profile.first_write_bw
        self.trace = trace
        self._channel = FairShareChannel(env, name=f"{name}.ch",
                                         contention_beta=profile.contention_beta,
                                         min_efficiency=profile.min_efficiency)
        self._touched: Set[object] = set()
        #: Aggregate counters for result tables.
        self.bytes_read = 0.0
        self.bytes_written = 0.0
        self.reads = 0
        self.writes = 0

    # -- operations ----------------------------------------------------------

    def read(self, nbytes: float) -> "Event":
        """Read ``nbytes`` (PS-shared at the device's read bandwidth)."""
        done = self._op(nbytes, self.profile.read_bw)
        self.reads += 1
        self.bytes_read += nbytes
        self.trace.emit(self.env.now, "disk", "read", disk=self.name, nbytes=nbytes)
        return done

    def write(self, key: object, nbytes: float) -> "Event":
        """Write ``nbytes`` to extent ``key``.

        The first write to a key pays the first-write bandwidth;
        subsequent writes to the same key run at re-write speed.
        """
        first = key not in self._touched
        done = self._op(nbytes, self.profile.first_write_bw if first
                        else self.profile.rewrite_bw)
        self._touched.add(key)
        self.writes += 1
        self.bytes_written += nbytes
        self.trace.emit(self.env.now, "disk", "write", disk=self.name,
                        nbytes=nbytes, first=first)
        return done

    def zero_fill(self, nbytes: float) -> "Event":
        """Pre-initialise ``nbytes`` of storage (Amazon's suggested
        mitigation).  Runs at first-write speed and marks the special
        whole-device extent as touched for bookkeeping."""
        done = self._op(nbytes, self.init_bw)
        self.trace.emit(self.env.now, "disk", "zero_fill", disk=self.name,
                        nbytes=nbytes)
        return done

    def forget(self, key: object) -> None:
        """Drop extent state for ``key`` (file deleted)."""
        self._touched.discard(key)

    def is_touched(self, key: object) -> bool:
        """Whether ``key`` has been written before."""
        return key in self._touched

    @property
    def active_ops(self) -> int:
        """Operations currently in service."""
        return self._channel.active_ops

    @property
    def busy_seconds(self) -> float:
        """Cumulative dedicated-service time delivered (projected to
        now, so mid-run samplers see smooth utilization)."""
        return self._channel.current_work_done()

    # -- internals -------------------------------------------------------------

    def _op(self, nbytes: float, bw: float) -> "Event":
        """The completion event of ``nbytes`` at ``bw``; the channel
        phase starts after the profile's ``op_latency``.  Every public
        operation calls this before touching a counter or the trace, so
        a bad size fails at call time and leaves no trace."""
        if nbytes < 0 or not math.isfinite(nbytes):
            raise ValueError(f"nbytes must be finite and >= 0, got {nbytes}")
        if nbytes == 0:
            return self.env.timeout(self.profile.op_latency)
        return self.env.start_after(self.profile.op_latency,
                                    self._channel.submit, nbytes / bw)


def make_node_disk(env: "Environment", ndisks: int = 4,
                   initialized: bool = False,
                   use_raid: bool = True,
                   name: str = "disk",
                   trace: TraceCollector = NULL_COLLECTOR) -> BlockDevice:
    """The local storage of a worker node as configured in the paper:
    the 4 ephemeral disks assembled into one RAID0 partition.

    ``initialized=True`` models Amazon's zero-fill mitigation (used only
    by the initialization-ablation bench); ``use_raid=False`` gives a
    single bare ephemeral disk.
    """
    base = INITIALIZED_DISK if initialized else EPHEMERAL_DISK
    profile = raid0(base, ndisks) if use_raid else base
    return BlockDevice(env, profile, name=name, trace=trace,
                       init_bw=EPHEMERAL_DISK.first_write_bw)
