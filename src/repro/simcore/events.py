"""Core event primitives for the discrete-event simulation kernel.

The design follows the classic generator-coroutine style (as popularised
by SimPy, which is not available in this offline environment): a
*process* is a Python generator that ``yield``\\ s :class:`Event` objects;
the :class:`~repro.simcore.engine.Environment` resumes the generator when
the yielded event fires.

Events move through three states:

``pending``
    created, not yet scheduled to fire;
``triggered``
    scheduled on the event queue with a value (ok) or an exception (not
    ok);
``processed``
    callbacks have run; waiting processes have been resumed.
"""

from __future__ import annotations

from heapq import heappush as _heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

from .errors import EventAlreadyTriggered, EventNotTriggered, Interrupt

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import Environment

# Sentinel distinguishing "no value yet" from a legitimate ``None`` value.
_PENDING = object()


class Event:
    """A happening at a point in simulated time that others can wait on.

    Processes wait on events by ``yield``\\ ing them.  Any callable can
    also be attached through :attr:`callbacks`; callbacks run, in
    registration order, at the moment the environment processes the
    event.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callables invoked with this event once it is processed.  Set
        #: to ``None`` afterwards, which doubles as the "processed" flag.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        # A failed event whose exception is never retrieved should crash
        # the simulation; "defusing" it (by waiting on it) suppresses that.
        self._defused = False

    # -- state inspection -------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is queued for processing."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been invoked."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        if not self.triggered:
            raise EventNotTriggered(f"{self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception instance if it failed)."""
        if self._value is _PENDING:
            raise EventNotTriggered(f"{self!r} has not been triggered")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        # Inlined ``env._queue_event(self)`` (normal priority, zero
        # delay): succeed() fires for every completed operation in a
        # run, and the extra frame is pure dispatch overhead.
        env = self.env
        seq = env._seq + 1
        env._seq = seq
        _heappush(env._queue, (env._now, 1, seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Processes waiting on the event will have ``exception`` thrown
        into them.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not _PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env._queue_event(self)
        return self

    # -- composition ------------------------------------------------------

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Inlined Event.__init__ — timeouts are the single most
        # constructed object in a run (every wakeup, every latency),
        # and the super() dispatch costs more than the body.
        self.env = env
        self.callbacks = []
        self._defused = False
        self.delay = delay
        self._ok = True
        self._value = value
        # Inlined ``env._queue_event(self, delay=delay)`` — same
        # rationale as the inlined init above, one level deeper.
        seq = env._seq + 1
        env._seq = seq
        _heappush(env._queue, (env._now + delay, 1, seq, self))

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay} at {id(self):#x}>"


class Process(Event):
    """A running process; also an event that fires when the process ends.

    The wrapped generator yields :class:`Event` objects.  When a yielded
    event succeeds, the generator is resumed with the event's value;
    when it fails, the exception is thrown into the generator.
    """

    __slots__ = ("_generator", "_waiting_on", "name")

    def __init__(self, env: "Environment", generator, name: Optional[str] = None) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        # Inlined Event.__init__ (see Timeout): processes are spawned
        # per job attempt and per storage RPC, so the super() dispatch
        # shows up in profiles.
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently waiting on (None if the
        #: process is scheduled to resume or has finished).
        self._waiting_on: Optional[Event] = None
        # Kick-start: resume the generator at the current simulation time.
        init = Event(env)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume)
        env._queue_event(init)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process.

        Only valid while the process is alive.  The process may catch
        the interrupt and continue, or let it propagate and die.
        """
        if not self.is_alive:
            raise RuntimeError(f"{self!r} has terminated and cannot be interrupted")
        if self._waiting_on is not None:
            # Detach from the event we were waiting on.
            try:
                self._waiting_on.callbacks.remove(self._resume)
            except (ValueError, AttributeError):
                pass
            self._waiting_on = None
        interrupt_ev = Event(self.env)
        interrupt_ev._ok = False
        interrupt_ev._value = Interrupt(cause)
        interrupt_ev._defused = True
        interrupt_ev.callbacks.append(self._resume)
        self.env._queue_event(interrupt_ev, priority=0)

    # -- internal ----------------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Resume the generator with the outcome of ``event``."""
        self._waiting_on = None
        # Localise the generator methods: this function runs once per
        # event in the simulation, and the repeated attribute loads are
        # measurable at that rate.
        gen = self._generator
        send = gen.send
        while True:
            try:
                if event._ok:
                    target = send(event._value)
                else:
                    event._defused = True
                    target = gen.throw(event._value)
            except StopIteration as exc:
                self.succeed(exc.value)
                return
            except BaseException as exc:
                self.fail(exc)
                return

            if not isinstance(target, Event):
                err = RuntimeError(
                    f"process {self.name!r} yielded a non-event: {target!r}"
                )
                # Propagate as a failure of the process itself.
                try:
                    self._generator.throw(err)
                except StopIteration as exc:
                    self.succeed(exc.value)
                except BaseException as exc:
                    self.fail(exc)
                return

            if target.callbacks is not None:
                # Not yet processed: register and suspend.
                target.callbacks.append(self._resume)
                self._waiting_on = target
                return
            # Already processed: loop and feed its value immediately.
            event = target

    def __repr__(self) -> str:
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'dead'}>"


class AllOf(Event):
    """Fires when *all* sub-events have fired (fails fast on failure).

    Its value maps each sub-event to that event's value.
    """

    __slots__ = ("events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events: List[Event] = list(events)
        # Sub-events still to succeed.  A failed sub-event never counts
        # down, so reaching zero means every one of them succeeded.
        self._remaining = len(self.events)
        # One fused pass: validate, then register or evaluate.  The
        # S3 client builds an AllOf per remote read/write, so
        # construction is on the storage hot path.
        check = self._check
        for ev in self.events:
            if ev.env is not env:
                raise ValueError("cannot mix events from different environments")
            if ev.callbacks is None:
                # Already processed; evaluate immediately.
                check(ev)
            else:
                ev.callbacks.append(check)
        if not self.events:
            # Vacuously satisfied.
            self.succeed({})

    def _check(self, event: Event) -> None:
        if not event._ok:
            event._defused = True
            if self._value is _PENDING:
                self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed({ev: ev._value for ev in self.events})
