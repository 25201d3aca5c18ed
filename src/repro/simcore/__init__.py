"""Discrete-event simulation kernel (SimPy-like, built from scratch).

Public surface:

* :class:`Environment` — clock + event loop;
* :class:`Event`, :class:`Timeout`, :class:`Process`, :class:`AllOf` —
  waitables;
* :class:`Container`, :class:`Store` — contended entities;
* :class:`FairShareChannel` — processor-sharing device model (disks);
* :class:`Link`, :class:`FlowNetwork` — max-min fair network model;
* :class:`TraceCollector` — structured run traces;
* :func:`substream` — deterministic named random streams.
"""

from .engine import Environment
from .errors import (
    EventAlreadyTriggered,
    EventNotTriggered,
    Interrupt,
    NotPending,
    SimulationDeadlock,
    SimulationError,
)
from .events import AllOf, Event, Process, Timeout
from .flownet import FlowNetwork, Link
from .pipes import FairShareChannel
from .rand import jittered, substream
from .resources import Container, Store
from .tracing import NULL_COLLECTOR, TraceCollector, TraceRecord

__all__ = [
    "AllOf",
    "Container",
    "Environment",
    "Event",
    "EventAlreadyTriggered",
    "EventNotTriggered",
    "FairShareChannel",
    "FlowNetwork",
    "Interrupt",
    "Link",
    "NULL_COLLECTOR",
    "NotPending",
    "Process",
    "SimulationDeadlock",
    "SimulationError",
    "Store",
    "Timeout",
    "TraceCollector",
    "TraceRecord",
    "jittered",
    "substream",
]
