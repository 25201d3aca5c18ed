"""Virtual clusters and the context-broker provisioning analog.

The paper uses the Nimbus Context Broker to turn a pile of freshly
booted VMs into a working HPC cluster: gather member addresses,
generate configuration, start the batch-system and file-system
services.  :class:`ContextBroker` reproduces that orchestration step in
simulation; :class:`VirtualCluster` is the resulting handle the
workflow layer schedules onto.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional

from ..simcore.tracing import NULL_COLLECTOR, TraceCollector
from .ec2 import EC2Cloud
from .node import VMInstance


@dataclass
class VirtualCluster:
    """A provisioned set of nodes ready to run workflow tasks.

    ``workers`` execute tasks; ``service_nodes`` host dedicated storage
    services (the NFS server in the paper's setup) and receive no
    tasks.
    """

    workers: List[VMInstance]
    service_nodes: List[VMInstance] = field(default_factory=list)

    @property
    def all_nodes(self) -> List[VMInstance]:
        """Workers plus service nodes."""
        return self.workers + self.service_nodes

    @property
    def total_slots(self) -> int:
        """Total Condor slots across workers."""
        return sum(w.itype.cores for w in self.workers)

    def __len__(self) -> int:
        return len(self.workers)


class ContextBroker:
    """Provisions and contextualises virtual clusters on an EC2 cloud.

    Mirrors the Nimbus Context Broker role: launch instances, wait for
    boot, exchange context (configuration generation), start services.
    The configuration exchange is modelled as a short barrier after the
    slowest boot.
    """

    #: Time to generate configs and start services once all VMs are up.
    CONTEXTUALIZE_DELAY = 5.0

    def __init__(self, cloud: EC2Cloud,
                 trace: TraceCollector = NULL_COLLECTOR) -> None:
        self.cloud = cloud
        self.env = cloud.env
        self.trace = trace

    def provision(self, n_workers: int, worker_type: str = "c1.xlarge",
                  service_type: Optional[str] = None,
                  n_service: int = 0,
                  simulate_boot: bool = False,
                  initialized_disks: bool = False) -> Generator:
        """Provision a virtual cluster (generator; returns the cluster).

        With ``simulate_boot=True`` the 70–90 s boot window and the
        contextualisation barrier are simulated; the paper's reported
        makespans exclude them, so experiment runners leave it off.
        """
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if n_service < 0:
            raise ValueError("n_service must be >= 0")
        workers = self.cloud.launch_many(
            worker_type, n_workers, name_prefix="worker",
            initialized_disks=initialized_disks)
        services: List[VMInstance] = []
        if n_service:
            if service_type is None:
                raise ValueError("service_type required when n_service > 0")
            services = self.cloud.launch_many(
                service_type, n_service, name_prefix="service",
                initialized_disks=initialized_disks)
        if simulate_boot:
            boots = [self.env.process(self.cloud.boot(vm), name=f"boot:{vm.name}")
                     for vm in workers + services]
            yield self.env.all_of(boots)
            yield self.env.timeout(self.CONTEXTUALIZE_DELAY)
        cluster = VirtualCluster(workers=workers, service_nodes=services)
        self.trace.emit(self.env.now, "cluster", "ready",
                        workers=n_workers, services=n_service)
        return cluster

    def provision_now(self, *args, **kwargs) -> VirtualCluster:
        """Synchronous convenience wrapper (no boot simulation)."""
        kwargs["simulate_boot"] = False
        gen = self.provision(*args, **kwargs)
        try:
            next(gen)
        except StopIteration as stop:
            return stop.value
        raise AssertionError("provision yielded despite simulate_boot=False")
