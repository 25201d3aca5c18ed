"""The simulation environment: clock, event queue, and run loop."""

from __future__ import annotations

from heapq import heappop as _heappop
from heapq import heappush as _heappush
from typing import (Any, Callable, Dict, Generator, Iterable, List, Optional,
                    Sequence, Tuple)

from .errors import SimulationDeadlock
from .events import AllOf, Event, Process, Timeout

#: Default priority for newly queued events.  Lower sorts earlier at the
#: same timestamp; interrupts use priority 0 so they pre-empt same-time
#: ordinary events.
NORMAL_PRIORITY = 1

_INF = float("inf")


class _Start:
    """Heap entry of :meth:`Environment.start_after`: at its time the
    run loop calls ``_fire``, which starts the operation.  Like a kernel
    wake (see :meth:`Environment._schedule_wake`), it is dispatched by
    the ``callbacks is None`` test in the run loop."""

    __slots__ = ("start", "args", "done")

    callbacks = None

    def __init__(self, start: Callable[..., Event], args: Tuple[Any, ...],
                 done: Event) -> None:
        self.start = start
        self.args = args
        self.done = done

    def _fire(self, seq: int) -> None:
        self.start(*self.args, done=self.done)


class Environment:
    """Holds simulation state and drives event processing.

    Typical use::

        env = Environment()

        def producer(env, store):
            while True:
                yield env.timeout(1.0)
                yield store.put("item")

        env.process(producer(env, store))
        env.run(until=100.0)

    Time is a float in arbitrary units; this project uses seconds
    throughout.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        # Heap entries: (time, priority, sequence, entry), where the
        # entry is an Event or, with ``callbacks`` None, an object the
        # run loop fires (see _schedule_wake).
        self._queue: List[Tuple[float, int, int, Any]] = []
        self._seq = 0
        # End-of-timestamp flush hooks (see :meth:`defer`): callbacks
        # that run once the current timestamp's event cascade has fully
        # drained, before the clock moves to the next event time.  An
        # insertion-ordered dict used as an ordered set (values unused).
        self._flush_pending: Dict[Callable[[], None], None] = {}

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    # -- event factories ----------------------------------------------------

    def event(self) -> Event:
        """A fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Spawn a process from a generator; returns the Process event."""
        return Process(self, generator, name=name)

    def start_after(self, delay: float, start: Callable[..., Event],
                    *args: Any) -> Event:
        """Call ``start(*args, done=done)`` ``delay`` from now; return
        ``done``, the event the started operation completes.

        This is how the disk and network kernels put a fixed latency in
        front of an operation without a process: the start is a plain
        heap entry the run loop dispatches, the kernel succeeds the
        caller's event, and the caller can yield it, or combine it with
        others, at once.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        done = Event(self)
        self._schedule_wake(_Start(start, args, done), delay)
        return done

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """An event firing once all of ``events`` have fired."""
        return AllOf(self, events)

    # -- scheduling (internal API used by events) ---------------------------

    def _queue_event(self, event: Event, delay: float = 0.0,
                     priority: int = NORMAL_PRIORITY) -> None:
        seq = self._seq + 1
        self._seq = seq
        _heappush(self._queue, (self._now + delay, priority, seq, event))

    def _schedule_wake(self, kernel: Any, delay: float) -> int:
        """Push a wake of ``kernel`` ``delay`` from now; return its
        sequence number.

        The entry is the kernel itself (or a :class:`_Start`), not an
        event: its class sets ``callbacks = None``, and the run loop
        calls ``kernel._fire(seq)`` when the entry pops.  A kernel keeps
        the number of its armed wake and ignores any other, so a
        superseded wake costs one pop and one compare.  The key is drawn
        exactly as a :class:`Timeout`'s, so event order is the same as
        if the wake were one.
        """
        seq = self._seq + 1
        self._seq = seq
        _heappush(self._queue, (self._now + delay, 1, seq, kernel))
        return seq

    # -- end-of-timestamp flush hooks ---------------------------------------

    def defer(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` once the current timestamp's cascade has drained.

        Same-timestamp event cascades (a wave of transfers all starting
        at ``now``) would otherwise trigger one full reallocation per
        event.  A kernel that batches instead defers one flush
        callback here, and the run loop invokes it exactly
        once — after every event queued at the current simulation time
        has been processed and before the clock advances.  Flushes run
        in *last*-registration order: re-deferring an already-pending
        callback moves it to the back, so flush order follows each
        kernel's final touch within the cascade — the relative order
        in which the eager kernels allocated their wake timeouts, which
        keeps same-time event tie-breaks bit-identical.  A flush may
        defer further callbacks; they drain in the same pass.
        """
        pending = self._flush_pending
        pending.pop(fn, None)
        pending[fn] = None

    def _run_deferred(self) -> None:
        pending = self._flush_pending
        while pending:
            batch = list(pending)
            pending.clear()
            for fn in batch:
                fn()

    # -- run loop ------------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else _INF

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until no events remain;
        * a number — run until that simulation time;
        * an :class:`Event` — run until that event is processed, and
          return its value (re-raising its exception if it failed).
        """
        if until is None:
            self._drain(_INF, ())
            return None

        if isinstance(until, Event):
            sentinel = until
            if sentinel.callbacks is not None:
                finished: List[Event] = []
                sentinel.callbacks.append(finished.append)
                self._drain(_INF, finished)
                if not finished:
                    raise SimulationDeadlock(
                        f"event {sentinel!r} will never fire: queue is empty"
                    )
                # Waiting on the sentinel retrieves its outcome.
                sentinel._defused = True
            if not sentinel._ok:
                raise sentinel._value
            return sentinel._value

        deadline = float(until)
        if deadline < self._now:
            raise ValueError(f"until={deadline} is in the past (now={self._now})")
        self._drain(deadline, ())
        self._now = deadline
        return None

    def _drain(self, deadline: float, finished: Sequence[Event]) -> None:
        """The run loop: process events until ``finished`` is non-empty,
        the next event lies beyond ``deadline``, or the queue runs dry.

        Pending :meth:`defer` flushes run whenever the next event lies
        strictly beyond ``now`` (or none is left), before the clock
        advances.  Hot names are bound locally: at ~10^6 events per
        cell, attribute dispatch here is a measurable share of runtime.
        """
        queue = self._queue
        pop = _heappop
        flush = self._flush_pending
        while not finished:
            if flush and (not queue or queue[0][0] > self._now):
                self._run_deferred()
            if not queue:
                return
            when, prio, seq, event = pop(queue)
            if when > deadline:
                # Overshoot: put the entry back; its key is unique, so
                # the pop order is unchanged.
                _heappush(queue, (when, prio, seq, event))
                return
            self._now = when
            callbacks = event.callbacks
            if callbacks is None:
                # A kernel wake or a start_after entry.
                event._fire(seq)
                continue
            event.callbacks = None
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused:
                # A failed event nobody waited on: surface the error
                # loudly rather than losing it.
                raise event._value
