"""Shared-resource primitives: Container and Store.

These model the contended entities of the simulated cluster: node
memory and the NFS dirty-page quota (Container), and queues of work
items (Store).  Both follow the event idiom: ``get``/``put`` return an
event that fires once the request can be honoured::

    yield memory.get(nbytes)
    try:
        ... hold the memory ...
    finally:
        memory.put(nbytes)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List

from .errors import NotPending
from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment


class Container:
    """A homogeneous quantity (e.g. bytes of memory) with put/get.

    ``get`` blocks until the requested amount is available; ``put``
    blocks if it would exceed ``capacity`` (unbounded by default).
    """

    def __init__(self, env: "Environment", capacity: float = float("inf"),
                 init: float = 0.0) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if init < 0 or init > capacity:
            raise ValueError("init outside [0, capacity]")
        self.env = env
        self.capacity = capacity
        self._level = init
        self._getters: List[tuple] = []  # (amount, Event)
        self._putters: List[tuple] = []

    @property
    def level(self) -> float:
        """Current stored amount."""
        return self._level

    def put(self, amount: float) -> Event:
        """Add ``amount``; fires when it fits under ``capacity``."""
        if amount < 0:
            raise ValueError("amount must be non-negative")
        ev = Event(self.env)
        self._putters.append((amount, ev))
        self._settle()
        return ev

    def get(self, amount: float) -> Event:
        """Remove ``amount``; fires when that much is available."""
        if amount < 0:
            raise ValueError("amount must be non-negative")
        ev = Event(self.env)
        self._getters.append((amount, ev))
        self._settle()
        return ev

    def cancel_get(self, event: Event) -> None:
        """Withdraw an un-triggered getter.

        Needed when the process waiting on a :meth:`get` is interrupted
        (e.g. its node crashed): an abandoned getter would otherwise
        silently consume ``amount`` the moment it became available.
        """
        if event.triggered:
            raise NotPending("get already granted; put() the amount back")
        before = len(self._getters)
        self._getters = [g for g in self._getters if g[1] is not event]
        if len(self._getters) == before:
            raise ValueError("event is not a pending getter")
        self._settle()

    def _settle(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters:
                amount, ev = self._putters[0]
                if self._level + amount <= self.capacity:
                    self._putters.pop(0)
                    self._level += amount
                    ev.succeed()
                    progressed = True
            if self._getters:
                amount, ev = self._getters[0]
                if amount <= self._level:
                    self._getters.pop(0)
                    self._level -= amount
                    ev.succeed()
                    progressed = True


class Store:
    """A FIFO queue of arbitrary items with blocking get."""

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        self.env = env
        self.capacity = capacity
        self.items: List[Any] = []
        self._getters: List[Event] = []
        self._putters: List[tuple] = []

    def put(self, item: Any) -> Event:
        """Append ``item``; fires when it fits under ``capacity``."""
        ev = Event(self.env)
        self._putters.append((item, ev))
        self._settle()
        return ev

    def get(self) -> Event:
        """Remove and return the oldest item; fires when one exists."""
        ev = Event(self.env)
        self._getters.append(ev)
        self._settle()
        return ev

    def cancel_get(self, event: Event) -> None:
        """Withdraw an un-triggered getter.

        Needed when the waiting process is interrupted (a crashed
        node's idle Condor slot): an abandoned getter would otherwise
        swallow the next item put into the store.
        """
        if event.triggered:
            raise NotPending("get already granted; the item was consumed")
        self._getters.remove(event)
        self._settle()

    def _settle(self) -> None:
        while self._putters and len(self.items) < self.capacity:
            item, ev = self._putters.pop(0)
            self.items.append(item)
            ev.succeed()
        while self._getters and self.items:
            ev = self._getters.pop(0)
            ev.succeed(self.items.pop(0))
            # A successful get may unblock a putter.
            while self._putters and len(self.items) < self.capacity:
                item, pev = self._putters.pop(0)
                self.items.append(item)
                pev.succeed()
