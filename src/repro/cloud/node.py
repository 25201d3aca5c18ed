"""Virtual machine instances.

A :class:`VMInstance` bundles the contended resources of one EC2 node:
CPU slots (one Condor slot per core, as the paper configures), physical
memory, the RAID0 ephemeral-disk array, and the NIC endpoints on the
cluster network.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Optional

from ..simcore.resources import Container
from ..simcore.tracing import NULL_COLLECTOR, TraceCollector
from ..telemetry.spans import SpanBuilder
from .disk import BlockDevice, make_node_disk
from .network import ClusterNetwork, Endpoint
from .types import GB, InstanceType

if TYPE_CHECKING:  # pragma: no cover
    from ..simcore.engine import Environment

_instance_counter = itertools.count()


class VMInstance:
    """A booted EC2 instance.

    Parameters
    ----------
    env, itype, network:
        Simulation environment, static type description, and the fabric
        to attach the NIC to.
    name:
        Unique name; auto-generated (``i-0``, ``i-1``, ...) if omitted.
    initialized_disks:
        Zero-fill the ephemeral disks first (ablation switch; the paper
        runs everything *uninitialised*).
    use_raid:
        Assemble the ephemeral disks into RAID0 (the paper's setup).
    """

    def __init__(self, env: "Environment", itype: InstanceType,
                 network: ClusterNetwork, name: Optional[str] = None,
                 initialized_disks: bool = False, use_raid: bool = True,
                 trace: TraceCollector = NULL_COLLECTOR) -> None:
        self.env = env
        self.itype = itype
        self.name = name if name is not None else f"i-{next(_instance_counter)}"
        self.trace = trace
        #: Physical memory in bytes; tasks claim their peak RSS.
        self.memory = Container(env, capacity=itype.memory_bytes,
                                init=itype.memory_bytes)
        #: Local ephemeral storage (RAID0 of the instance-store disks).
        self.disk: BlockDevice = make_node_disk(
            env, ndisks=itype.ephemeral_disks,
            initialized=initialized_disks, use_raid=use_raid,
            name=f"{self.name}.disk", trace=trace,
        )
        #: Condor slots (one per core) currently executing a job,
        #: maintained by the Condor pool.
        self.busy_slots = 0
        #: NIC endpoint on the cluster fabric.
        self.nic: Endpoint = network.attach(self.name, itype.nic_bw)
        self.network = network
        self.launched_at = env.now
        self.terminated_at: Optional[float] = None
        #: Set when the node dies uncleanly (fault injection); billing
        #: continues until the experiment notices and terminates it,
        #: matching EC2's bill-until-terminated semantics.
        self.crashed_at: Optional[float] = None
        # Lifetime span (launch -> terminate); spans left open by
        # never-terminated instances are clamped at reconstruction.
        self._spans = SpanBuilder(trace, env)
        self._life_span = self._spans.begin(
            "vm", self.name, node=self.name, itype=itype.name)

    # -- convenience -------------------------------------------------------

    @property
    def memory_free(self) -> float:
        """Unclaimed memory, bytes."""
        return self.memory.level

    @property
    def slots_free(self) -> int:
        """Idle Condor slots."""
        return self.itype.cores - self.busy_slots

    @property
    def cpu_utilization(self) -> float:
        """Fraction of slots currently running a job (0..1)."""
        return self.busy_slots / self.itype.cores

    @property
    def is_running(self) -> bool:
        """True until :meth:`terminate` is called."""
        return self.terminated_at is None

    @property
    def is_alive(self) -> bool:
        """True while the node can run jobs (not terminated, not crashed)."""
        return self.terminated_at is None and self.crashed_at is None

    def crash(self) -> None:
        """Kill the node uncleanly (spot preemption, hardware death).

        The NIC is detached and the lifetime span closes, but the
        instance still counts as *running* for billing purposes until
        :meth:`terminate` — you pay for a dead spot instance until the
        control plane reaps it.
        """
        if not self.is_alive:
            return
        self.crashed_at = self.env.now
        self.network.detach(self.name)
        self._spans.end(self._life_span, crashed=True)
        self.trace.emit(self.env.now, "vm", "crash", node=self.name)

    def terminate(self) -> None:
        """Stop the instance (ephemeral disks are wiped, NIC detached)."""
        if self.terminated_at is not None:
            return
        self.terminated_at = self.env.now
        if self.crashed_at is None:
            self.network.detach(self.name)
            self._spans.end(self._life_span)
        self.trace.emit(self.env.now, "vm", "terminate", node=self.name)

    def __repr__(self) -> str:
        return (f"<VMInstance {self.name} ({self.itype.name}) "
                f"slots={self.slots_free}/{self.itype.cores} "
                f"mem_free={self.memory_free / GB:.1f}GB>")
