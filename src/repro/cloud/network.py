"""Cluster network fabric.

EC2's intra-zone network is modelled as a star: every instance has a
full-duplex NIC (separate transmit and receive links) attached to a
non-blocking core, which matches the observed behaviour that instance
NICs — not the fabric — are the bandwidth bottleneck inside an
availability zone.  Shared services (the S3 front-end) appear as extra
endpoints with their own aggregate capacity.

All transfers are max-min fairly shared flows over the links they
traverse (see :mod:`repro.simcore.flownet`).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional

from ..simcore.flownet import FlowNetwork, Link
from ..simcore.tracing import NULL_COLLECTOR, TraceCollector

if TYPE_CHECKING:  # pragma: no cover
    from ..simcore.engine import Environment
    from ..simcore.events import Event

#: One-way latency between instances in the same zone (s).
INTRA_ZONE_LATENCY = 0.0003


class Endpoint:
    """A network-attached party: an instance NIC or a service front-end."""

    def __init__(self, name: str, tx: Link, rx: Link) -> None:
        self.name = name
        self.tx = tx
        self.rx = rx

    def __repr__(self) -> str:
        return f"<Endpoint {self.name}>"


class ClusterNetwork:
    """The star fabric connecting instances and services."""

    def __init__(self, env: "Environment",
                 trace: TraceCollector = NULL_COLLECTOR) -> None:
        self.env = env
        self.trace = trace
        self.flows = FlowNetwork(env)
        self._endpoints: Dict[str, Endpoint] = {}
        #: Aggregate byte counter for result tables.
        self.bytes_transferred = 0.0

    # -- topology -------------------------------------------------------------

    def attach(self, name: str, bw_tx: float, bw_rx: Optional[float] = None) -> Endpoint:
        """Attach an endpoint with the given per-direction bandwidths."""
        if name in self._endpoints:
            raise ValueError(f"endpoint {name!r} already attached")
        ep = Endpoint(
            name,
            tx=Link(f"{name}.tx", bw_tx),
            rx=Link(f"{name}.rx", bw_rx if bw_rx is not None else bw_tx),
        )
        self._endpoints[name] = ep
        return ep

    def detach(self, name: str) -> None:
        """Remove an endpoint (instance terminated)."""
        self._endpoints.pop(name, None)

    def endpoint(self, name: str) -> Endpoint:
        """Look up an attached endpoint by name."""
        return self._endpoints[name]

    @property
    def endpoints(self) -> List[Endpoint]:
        """All attached endpoints."""
        return list(self._endpoints.values())

    # -- transfers --------------------------------------------------------------

    def transfer(self, src: Endpoint, dst: Endpoint, nbytes: float,
                 max_rate: Optional[float] = None) -> "Event":
        """Move ``nbytes`` from ``src`` to ``dst``; returns the event
        that fires on delivery of the last byte.

        The flow starts after the intra-zone latency and traverses the
        source transmit link and the destination receive link;
        ``max_rate`` models a per-stream ceiling (single TCP connection
        to S3, for instance).
        """
        if nbytes < 0 or not math.isfinite(nbytes):
            raise ValueError(f"nbytes must be finite and >= 0, got {nbytes}")
        if src is dst:
            # Loopback: no network involved.
            return self.env.timeout(0)
        self.bytes_transferred += nbytes
        self.trace.emit(self.env.now, "net", "transfer", src=src.name,
                        dst=dst.name, nbytes=nbytes)
        if nbytes > 0:
            return self.env.start_after(INTRA_ZONE_LATENCY,
                                        self.flows.transfer,
                                        [src.tx, dst.rx], nbytes, max_rate)
        return self.env.timeout(INTRA_ZONE_LATENCY)
