"""Processor-sharing channels.

A :class:`FairShareChannel` models a device (disk array, bus) whose
bandwidth is divided equally among all in-flight operations — the
egalitarian processor-sharing (PS) queue.  Each operation brings
``work`` seconds of *dedicated* service time (bytes / bandwidth-when-
alone); with *n* concurrent operations each progresses at rate ``1/n``.

This representation neatly handles devices with operation-dependent
bandwidth (e.g. the ephemeral-disk first-write penalty): an op that
would run at ``b`` MB/s alone on a device is submitted with
``work = bytes / b``; contention then scales all ops uniformly.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Optional

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment

#: Completions within this many seconds of "now" are considered due;
#: guards against float round-off re-scheduling zero-length waits.
_TIME_EPS = 1e-9


class _ChannelJob:
    __slots__ = ("work_left", "event")

    def __init__(self, work: float, event: Event) -> None:
        self.work_left = work
        self.event = event


class FairShareChannel:
    """Egalitarian processor-sharing service channel.

    Parameters
    ----------
    env:
        Simulation environment.
    name:
        Diagnostic label.

    Notes
    -----
    Total *throughput* is fixed at one dedicated-second of service per
    simulated second, shared equally.  Op-specific bandwidths are folded
    into the submitted ``work``, so a channel does not itself carry a
    bytes-per-second capacity.
    """

    #: Heap-entry protocol (see Environment._schedule_wake): the run
    #: loop calls ``_fire(seq)`` for an entry whose ``callbacks`` is None.
    callbacks = None

    def __init__(self, env: "Environment", name: str = "channel",
                 contention_beta: float = 0.0,
                 contention_gamma: float = 1.0,
                 min_efficiency: float = 0.0) -> None:
        if contention_beta < 0:
            raise ValueError("contention_beta must be >= 0")
        if contention_gamma < 1.0:
            raise ValueError("contention_gamma must be >= 1")
        if not 0.0 <= min_efficiency <= 1.0:
            raise ValueError("min_efficiency must be in [0, 1]")
        self.env = env
        self.name = name
        #: Seek/interference penalty: with *n* concurrent ops the
        #: channel's total service rate is ``1 / (1 + beta*(n-1))``,
        #: floored at ``min_efficiency``.  ``beta=0`` is ideal
        #: processor sharing (network links); rotating media typically
        #: fit ``beta ~ 0.1-0.2`` with a floor from command queueing.
        #: ``gamma > 1`` makes the dropoff superlinear — a device that
        #: tolerates a few streams but collapses under many (an RPC
        #: service thrashing its thread pool).
        self.contention_beta = contention_beta
        self.contention_gamma = contention_gamma
        self.min_efficiency = min_efficiency
        # The service rate is a pure function of the population size
        # and the (immutable) contention constants; memoizing it spares
        # a float pow() on every advance/reschedule of the hot path.
        self._rate_cache: Dict[int, float] = {}
        self._jobs: Dict[int, _ChannelJob] = {}
        # Least ``work_left`` over ``_jobs`` (inf when empty), kept exact
        # by ``_advance`` and ``submit`` so ``_flush`` needs no rescan.
        self._min_left = math.inf
        self._next_id = 0
        self._last_update = env.now
        # Sequence number of the armed wake: the channel itself is the
        # heap entry, and a wake whose number differs was superseded by
        # a later reschedule and returns at once.
        self._wake_seq = 0
        #: Wakes that popped after a later reschedule superseded them.
        self.stale_wakes = 0
        # Batched same-timestamp cascades (mirrors FlowNetwork): a
        # population change defers one reschedule to the environment's
        # end-of-timestamp hook instead of rescheduling per submit.
        # Completions stay eager (the first touch of a timestamp
        # advances and pops due jobs), so event ordering is unchanged.
        # Every touch re-defers (moving the callback to the back of the
        # flush list), so flush order tracks the *last* touch — see
        # Environment.defer.
        self._flush_bound = self._flush
        #: Cumulative dedicated-service seconds completed (utilisation metric).
        self.total_work_done = 0.0
        #: Total operations submitted.
        self.total_ops = 0

    # -- public API --------------------------------------------------------

    @property
    def active_ops(self) -> int:
        """Number of operations currently in service."""
        return len(self._jobs)

    def submit(self, work: float, done: Optional[Event] = None) -> Event:
        """Submit an operation needing ``work`` dedicated seconds.

        Returns ``done`` (a new event when None), which succeeds when
        the operation completes under processor sharing.
        """
        if work < 0 or not math.isfinite(work):
            raise ValueError(f"work must be finite and >= 0, got {work}")
        self.total_ops += 1
        if done is None:
            done = Event(self.env)
        if work == 0:
            done.succeed()
            return done
        self._advance()
        self._next_id += 1
        if work <= _TIME_EPS:
            # Sub-epsilon job: the eager kernel popped it from the very
            # next reschedule pass; complete it within this cascade.
            done.succeed()
        else:
            self._jobs[self._next_id] = _ChannelJob(work, done)
            if work < self._min_left:
                self._min_left = work
        self.env.defer(self._flush_bound)
        return done

    def current_work_done(self) -> float:
        """``total_work_done`` projected to the current instant.

        The bookkeeping in :meth:`_advance` is lazy (it runs on submit
        and wakeup only), so ``total_work_done`` can lag ``env.now``
        while jobs are in flight; samplers reading utilization between
        events need the projected value or rates appear to burst >1.
        """
        n = len(self._jobs)
        if n == 0:
            return self.total_work_done
        elapsed = max(0.0, self.env.now - self._last_update)
        return self.total_work_done + elapsed * self._service_rate(n)

    # -- internals -----------------------------------------------------------

    def _service_rate(self, n: int) -> float:
        """Total service rate with ``n`` concurrent operations."""
        rate = self._rate_cache.get(n)
        if rate is None:
            penalty = self.contention_beta * (n - 1) ** self.contention_gamma
            rate = max(1.0 / (1.0 + penalty), self.min_efficiency)
            self._rate_cache[n] = rate
        return rate

    def _advance(self) -> None:
        """Progress all jobs to the current time; pop due completions.

        The first touch of each timestamp does the real work (advance
        is lazy); jobs whose remaining work crosses the epsilon are
        completed immediately, in ``_jobs`` insertion order — exactly
        when and how the eager kernel's fused reschedule popped them —
        so the event-sequence order is unchanged by batching.
        """
        now = self.env.now
        n = len(self._jobs)
        if n:
            elapsed = now - self._last_update
            if elapsed > 0:
                total_rate = self._service_rate(n)
                done_work = elapsed * total_rate / n
                finished = None
                min_left = math.inf
                for jid, job in self._jobs.items():
                    left = job.work_left - done_work
                    job.work_left = left
                    if left <= _TIME_EPS:
                        if finished is None:
                            finished = [jid]
                        else:
                            finished.append(jid)
                    elif left < min_left:
                        min_left = left
                self._min_left = min_left
                self.total_work_done += elapsed * total_rate
                if finished:
                    jobs = self._jobs
                    for jid in finished:
                        jobs.pop(jid).event.succeed()
        self._last_update = now

    def _flush(self) -> None:
        """Schedule the wakeup for the soonest completion.

        Runs once per touched timestamp from the end-of-timestamp hook:
        one reschedule per batch of same-timestamp submits, where the
        eager kernel scanned per submit.
        """
        n = len(self._jobs)
        if not n:
            return
        # Floor the delay so the clock always advances between wakeups.
        delay = max(self._min_left * n / self._service_rate(n), 1e-9)
        self._wake_seq = self.env._schedule_wake(self, delay)

    def _fire(self, seq: int) -> None:
        if seq != self._wake_seq:
            self.stale_wakes += 1  # population changed since scheduled
            return
        self._advance()
        self.env.defer(self._flush_bound)
