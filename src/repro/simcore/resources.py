"""Shared-resource primitives: Resource, Container, Store.

These model the contended entities of the simulated cluster: CPU slots
(Resource), node memory (Container), and queues of work items (Store).
All follow the request/event idiom::

    req = resource.request()
    yield req
    try:
        ... hold the resource ...
    finally:
        resource.release(req)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List

from .errors import NotPending
from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment


class Request(Event):
    """A pending or granted claim on a :class:`Resource`."""

    __slots__ = ("resource", "amount")

    def __init__(self, env: "Environment", resource: "Resource", amount: int = 1) -> None:
        super().__init__(env)
        self.resource = resource
        self.amount = amount

    def cancel(self) -> None:
        """Withdraw a request that has not been granted yet."""
        if self.triggered:
            raise NotPending("request already granted; release() it instead")
        self.resource._withdraw(self)


class Resource:
    """A counted resource with FIFO granting (e.g. CPU slots).

    ``capacity`` units exist; each request claims ``amount`` of them
    until released.
    """

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: List[Request] = []

    # -- public API ----------------------------------------------------------

    @property
    def in_use(self) -> int:
        """Units currently claimed."""
        return self._in_use

    @property
    def available(self) -> int:
        """Units currently free."""
        return self.capacity - self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting to be granted."""
        return len(self._waiters)

    def request(self, amount: int = 1) -> Request:
        """Claim ``amount`` units; the returned event fires when granted."""
        if amount <= 0 or amount > self.capacity:
            raise ValueError(
                f"amount {amount} out of range for capacity {self.capacity}"
            )
        req = Request(self.env, self, amount)
        self._waiters.append(req)
        self._grant()
        return req

    def release(self, request: Request) -> None:
        """Return the units held by ``request``."""
        if not request.triggered:
            raise NotPending("request was never granted; cancel() it instead")
        self._in_use -= request.amount
        if self._in_use < 0:
            raise AssertionError("resource released more than acquired")
        self._grant()

    # -- internals -------------------------------------------------------------

    def _withdraw(self, request: Request) -> None:
        self._waiters.remove(request)
        self._grant()

    def _grant(self) -> None:
        # FIFO: grant from the head while capacity allows.  A large
        # request at the head blocks smaller ones behind it (no
        # overtaking), which matches batch-scheduler semantics.
        while self._waiters:
            head = self._waiters[0]
            if self._in_use + head.amount > self.capacity:
                break
            self._waiters.pop(0)
            self._in_use += head.amount
            head.succeed()


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
