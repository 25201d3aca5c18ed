"""Exception types for the discrete-event simulation kernel.

The kernel deliberately keeps its exception hierarchy small: one base
class so callers can catch "anything the simulator raised on purpose",
plus a handful of specific conditions that calling code commonly wants
to distinguish (interrupts, cancelled waits, misuse of the API).
"""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all errors raised by the simulation kernel."""


class EventAlreadyTriggered(SimulationError):
    """An event was triggered (succeed/fail) more than once."""


class EventNotTriggered(SimulationError):
    """The value of an event was read before the event fired."""


class Interrupt(SimulationError):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)
        self.cause = cause

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Interrupt(cause={self.cause!r})"


class SimulationDeadlock(SimulationError):
    """`run(until=...)` could not reach its target because no events remain."""


class NotPending(SimulationError):
    """An operation (e.g. cancel) required a pending request, but the
    request had already been granted or withdrawn."""
