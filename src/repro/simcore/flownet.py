"""Max-min fair flow network.

Models a set of capacitated links (NIC transmit/receive sides, a shared
service endpoint, a core switch) carrying concurrent byte flows.  Each
flow traverses an ordered set of links; whenever the flow population
changes, bandwidth is reallocated by progressive filling (water-filling)
to the max-min fair allocation, the textbook model of TCP-like fair
sharing on a star topology.

This is the substrate used for all network transfers in the EC2
simulation: NFS client/server traffic, GlusterFS peer reads, PVFS
stripe traffic, and S3 GET/PUT payloads.

Performance notes (see ``docs/performance.md``):

* Flow state (bytes left, rate, cap, completion epsilon) lives in slots
  on each ``_Flow``, and the insertion-ordered ``_flows`` dict is the
  only registry.  Live populations are small (a handful of flows on
  the paper grid), so byte advancement with completion detection, and
  the wake min-scan, are one scalar pass each over that dict.
* Same-timestamp event cascades are batched: a transfer (or wake) marks
  the network dirty and defers one flush to the environment's
  end-of-timestamp hook (:meth:`Environment.defer`).  Progressive
  filling is stateless — the fill is a pure function of the final flow
  population — so eliding the intermediate fills of a cascade and
  running one fill over the union component yields bitwise the same
  rates as one fill per event.  Completions stay eager (flows finish,
  in insertion order, at the first touch of a timestamp), so the
  event-sequence order of ``succeed()`` calls — and with it the
  telemetry hash-chain — matches the pinned goldens.  External readers
  (the utilization sampler's ``flow.rate``) trigger a lazy flush, so
  mid-cascade observations see the up-to-date allocation.
* Reallocation stays *incremental*: only the connected component of
  links reachable from the dirty flows is refilled.  Components at or
  above ``VEC_FILL_MIN`` flows use vectorized rounds (masked
  min-reductions for the bottleneck share, grouped saturation updates
  replayed as per-link sequential clamped subtractions); smaller
  components run the scalar fill.  Both replay the same float-operation
  sequence, so rates are bit-identical either way.
* The wake is a plain heap entry (:meth:`Environment._schedule_wake`)
  carrying the network itself; a superseded wake pops, fails the
  sequence check, and counts in ``stale_wakes``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment

_TIME_EPS = 1e-9
_INF = float("inf")


class Link:
    """A capacitated, unidirectional link (bytes per second)."""

    __slots__ = ("name", "capacity", "_flows", "_stamp", "_residual", "_n")

    def __init__(self, name: str, capacity: float) -> None:
        if capacity <= 0 or not math.isfinite(capacity):
            raise ValueError(f"capacity must be finite and > 0, got {capacity}")
        self.name = name
        self.capacity = float(capacity)
        # Insertion-ordered (dict keys) so allocation arithmetic is
        # bit-reproducible across processes.
        self._flows: Dict["_Flow", None] = {}
        # Scratch state for traversal/fill passes: ``_stamp`` marks
        # which pass last touched this link (see FlowNetwork._stamp_seq)
        # so passes need no per-call visited dicts; ``_residual`` and
        # ``_n`` are only meaningful while a fill is running (the
        # vectorized fill reuses ``_n`` as the link's local index).
        self._stamp = 0
        self._residual = 0.0
        self._n = 0

    @property
    def active_flows(self) -> int:
        """Number of flows currently routed over this link."""
        return len(self._flows)

    def __repr__(self) -> str:
        return f"<Link {self.name} cap={self.capacity:.3g}B/s flows={len(self._flows)}>"


class _Flow:
    """One in-flight flow: its route, its cap and its mutable state.

    ``left`` is the payload still to deliver and ``_rate`` the rate of
    the last fill; a finished flow keeps its last ``_rate``.  Reading
    ``rate`` flushes a pending batched reallocation first, so samplers
    observing mid-cascade see the same rates a fill per event would give.
    """

    __slots__ = ("net", "links", "event", "cap", "eps", "left", "_rate",
                 "_stamp", "_frozen")

    def __init__(self, net: "FlowNetwork", links: Sequence[Link],
                 event: Event, max_rate: Optional[float], nbytes: float,
                 eps: float) -> None:
        self.net = net
        self.links = list(links)
        self.event = event
        self.cap = _INF if max_rate is None else float(max_rate)
        self.eps = eps
        self.left = nbytes
        self._rate = 0.0
        # Traversal stamp and fill scratch (see FlowNetwork._stamp_seq).
        self._stamp = 0
        self._frozen = False

    @property
    def rate(self) -> float:
        net = self.net
        if net._dirty:
            net._flush()
        return self._rate


class FlowNetwork:
    """A collection of links carrying max-min fairly shared flows.

    Parameters
    ----------
    env:
        Simulation environment.
    """

    #: Component size at which the vectorized fill replaces the scalar
    #: one.  Both paths are bit-identical; the threshold is a pure speed
    #: knob (and a test hook: differential tests pin it to 1 to force
    #: the vector path onto tiny components).
    VEC_FILL_MIN = 32

    #: Heap-entry protocol (see Environment._schedule_wake): the run
    #: loop calls ``_fire(seq)`` for an entry whose ``callbacks`` is None.
    callbacks = None

    def __init__(self, env: "Environment") -> None:
        self.env = env
        # The live flows, in insertion order: the order of every scan,
        # fill and completion, and so of the pinned goldens.
        self._flows: Dict[_Flow, None] = {}
        self._last_update = env.now
        # Sequence number of the armed wake; older wakes still in the
        # heap see a different number and return at once.
        self._wake_seq = 0
        #: Wakes that popped after a later reschedule superseded them.
        self.stale_wakes = 0
        # Monotonic pass id handed to component scans and fills; a
        # link/flow whose ``_stamp`` differs from the current pass id
        # has not been visited by it (no per-call visited sets needed).
        self._stamp_seq = 0
        #: Total bytes delivered across all completed+running flows.
        self.total_bytes_moved = 0.0
        #: Total flows ever started.
        self.total_flows = 0
        # -- batched-cascade state ------------------------------------
        # ``_dirty`` marks a pending reallocation/reschedule;
        # ``_dirty_seeds`` are the flows whose arrival or completion
        # dirtied it (traversal roots for the component refill).  The
        # flush runs from the environment's end-of-timestamp hook, or
        # lazily when a rate is read mid-cascade.
        self._dirty = False
        self._dirty_seeds: List[_Flow] = []
        self._flush_cb_bound = self._flush_cb

    # -- public API --------------------------------------------------------

    @property
    def active_flows(self) -> int:
        """Number of in-flight flows."""
        return len(self._flows)

    def transfer(self, links: Sequence[Link], nbytes: float,
                 max_rate: Optional[float] = None,
                 done: Optional[Event] = None) -> Event:
        """Start a flow of ``nbytes`` over ``links``.

        Parameters
        ----------
        links:
            The capacitated links the flow traverses (order irrelevant).
        nbytes:
            Payload size in bytes.
        max_rate:
            Optional per-flow rate ceiling (bytes/s) — models per-stream
            limits such as a single S3 connection's throughput.
        done:
            The event to succeed on delivery of the last byte; a new
            one when None.

        Returns ``done``.
        """
        if nbytes < 0 or not math.isfinite(nbytes):
            raise ValueError(f"nbytes must be finite and >= 0, got {nbytes}")
        if max_rate is not None and not max_rate > 0:
            raise ValueError(f"max_rate must be > 0, got {max_rate}")
        self.total_flows += 1
        if done is None:
            done = Event(self.env)
        if nbytes == 0:
            done.succeed()
            return done
        self._sync()
        nbytes = float(nbytes)
        # Completion tolerance must scale with the transfer size:
        # float subtraction across many progress updates leaves a
        # relative residue (~1e-12 of the size), which for GB-scale
        # flows dwarfs any absolute epsilon.
        eps = max(1e-9, nbytes * 1e-9)
        flow = _Flow(self, links, done, max_rate, nbytes, eps)
        self._flows[flow] = None
        for link in flow.links:
            link._flows[flow] = None
        if nbytes <= eps:
            # Sub-epsilon payload: completes within this same cascade;
            # final rates are as if it never joined.
            self._complete([flow])
        else:
            self._mark_dirty(flow)
        return done

    # -- batched-cascade plumbing -------------------------------------------

    def _mark_dirty(self, seed: Optional[_Flow]) -> None:
        # Every touch re-defers (moving the callback to the back of the
        # flush list), so flush order tracks the *last* touch — see
        # Environment.defer.
        self._dirty = True
        if seed is not None:
            self._dirty_seeds.append(seed)
        self.env.defer(self._flush_cb_bound)

    def _flush_cb(self) -> None:
        if self._dirty:
            self._flush()

    def _flush(self) -> None:
        """Refill dirty components and reschedule the wake.

        Runs once per dirtied timestamp — from the end-of-timestamp
        hook, or earlier if a rate is read mid-cascade (in which case
        the hook's later invocation is a no-op).
        """
        self._dirty = False
        seeds = self._dirty_seeds
        self._dirty_seeds = []
        if self._flows:
            if seeds:
                self._fill(self._component(seeds))
            self._reschedule_exact()

    # -- internals -----------------------------------------------------------

    def _sync(self) -> None:
        """Advance all flows to ``now`` and complete the finished ones.

        The first touch of each timestamp does the real work; later
        same-timestamp calls see ``elapsed == 0`` and return.  Bytes
        are summed in insertion order, so the total is reproducible.
        """
        now = self.env.now
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed <= 0 or not self._flows:
            return
        total = self.total_bytes_moved
        finished = None
        for flow in self._flows:
            left = flow.left
            moved = flow._rate * elapsed
            new_left = left - moved
            flow.left = new_left
            # Clamp the delivered-bytes counter to what the flow
            # actually had left (the final wake routinely lands a hair
            # past the true finish).
            if moved > left:
                moved = left if left > 0.0 else 0.0
            total += moved
            if new_left <= flow.eps:
                if finished is None:
                    finished = [flow]
                else:
                    finished.append(flow)
        self.total_bytes_moved = total
        if finished:
            self._complete(finished)

    def _complete(self, finished: List[_Flow]) -> None:
        """Finish ``finished`` (in insertion order).

        Pops each flow from the registry and its links, fires its event
        (the order the pinned hash-chain goldens record), and seeds the
        deferred refill with it as a traversal root.
        """
        flows = self._flows
        for flow in finished:
            del flows[flow]
            for link in flow.links:
                link._flows.pop(flow, None)
            flow.event.succeed()
            self._mark_dirty(flow)

    def _component(self, seeds: Sequence[_Flow]) -> List[_Flow]:
        """Live flows connected to ``seeds`` through shared links, in
        insertion order.

        Seeds may be just-finished flows (traversal roots only).
        Visited links and flows are stamp-marked with a fresh pass id,
        so the scan allocates only the pending stack and the traversal
        order never leaks into the result.  Once the scan has counted
        as many flows as are live, the whole network is returned
        without a second pass (the common star-topology case).
        """
        sid = self._stamp_seq = self._stamp_seq + 1
        pending: List[Link] = []
        nseen = 0
        for h in seeds:
            if h._stamp != sid:
                h._stamp = sid
                nseen += 1
                for link in h.links:
                    if link._stamp != sid:
                        link._stamp = sid
                        pending.append(link)
        while pending:
            link = pending.pop()
            for h in link._flows:
                if h._stamp != sid:
                    h._stamp = sid
                    nseen += 1
                    for nxt in h.links:
                        if nxt._stamp != sid:
                            nxt._stamp = sid
                            pending.append(nxt)
        if nseen >= len(self._flows):
            return list(self._flows)
        return [h for h in self._flows if h._stamp == sid]

    # -- progressive filling --------------------------------------------------

    def _fill(self, flows: List[_Flow]) -> None:
        """Progressive filling to the max-min fair allocation of
        ``flows``, one connected component or the whole network (rates
        of flows outside it are left untouched)."""
        count = len(flows)
        if count == 0:
            return
        if count == 1:
            # Singleton fill (no contention): rate is the tightest of
            # the link capacities and the per-flow cap — the exact
            # value one loop iteration of the general fill produces.
            h = flows[0]
            share = _INF
            for link in h.links:
                if link.capacity < share:
                    share = link.capacity
            h._rate = h.cap if h.cap < share else share
            return
        if count < self.VEC_FILL_MIN:
            self._fill_scalar(flows)
        else:
            for h, rate in zip(flows, self._fill_vector(flows).tolist()):
                h._rate = rate

    def _fill_scalar(self, flow_list: List[_Flow]) -> None:
        """In-place progressive filling over the flows; writes each
        flow's ``_rate``.

        Scratch state lives on the links/flows, claimed by stamping
        with a fresh pass id.  Iteration order fixes every
        float operation, and with it the pinned rate goldens: flow order
        is insertion order, link order is first-encounter order over the
        flows' links, and the freeze scan walks ``link._flows``.
        """
        fid = self._stamp_seq = self._stamp_seq + 1
        links: List[Link] = []
        for h in flow_list:
            h._frozen = False
            for link in h.links:
                if link._stamp != fid:
                    link._stamp = fid
                    link._residual = link.capacity
                    link._n = 0
                    links.append(link)
                link._n += 1
        remaining = len(flow_list)

        while remaining:
            # Fair share offered by each link still serving unfrozen flows.
            bottleneck_share = _INF
            for link in links:
                n = link._n
                if n > 0:
                    share = link._residual / n
                    if share < bottleneck_share:
                        bottleneck_share = share
            # Rate-capped flows below the bottleneck share freeze at
            # their cap instead (they are their own bottleneck).
            capped_any = False
            for h in flow_list:
                if not h._frozen:
                    cap = h.cap
                    if cap < bottleneck_share:
                        capped_any = True
                        h._frozen = True
                        remaining -= 1
                        h._rate = cap
                        for link in h.links:
                            r = link._residual - cap
                            link._residual = r if r > 0.0 else 0.0
                            link._n -= 1
            if capped_any:
                continue
            if bottleneck_share == _INF:
                # Flows with no links at all: unconstrained; should not
                # happen in practice but terminate rather than spin.
                for h in flow_list:
                    if not h._frozen:
                        h._frozen = True
                        remaining -= 1
                        h._rate = h.cap
                break
            # Freeze every unfrozen flow on a bottleneck link.  Flows
            # outside this fill's component can never appear on a
            # component link (shared links merge components), so the
            # ``link._flows`` walk stays within ``flow_list``.
            frozen_any = False
            tolerance = bottleneck_share * (1 + 1e-12)
            for link in links:
                n = link._n
                if n > 0 and link._residual / n <= tolerance:
                    for h in link._flows:
                        if not h._frozen:
                            h._frozen = True
                            remaining -= 1
                            h._rate = bottleneck_share
                            for lnk in h.links:
                                r = lnk._residual - bottleneck_share
                                lnk._residual = r if r > 0.0 else 0.0
                                lnk._n -= 1
                            frozen_any = True
            if not frozen_any:  # pragma: no cover - numerical safety valve
                for h in flow_list:
                    if not h._frozen:
                        h._frozen = True
                        remaining -= 1
                        h._rate = bottleneck_share

    def _fill_vector(self, handles: List[_Flow]) -> np.ndarray:
        """Vectorized progressive filling over a large component.

        Bit-identical to :meth:`_fill_scalar` by construction: the
        bottleneck share is an order-independent masked min-reduction;
        cap freezes replay the scalar per-flow updates in insertion
        order; and saturation freezes subtract the share from each
        touched link the same number of times, sequentially, that the
        scalar flow-by-flow walk would (links whose unfrozen count
        drops to zero are skipped — their residuals are never read
        again within this fill).
        """
        nf = len(handles)
        fid = self._stamp_seq = self._stamp_seq + 1
        link_objs: List[Link] = []
        flow_links: List[List[int]] = []
        flat: List[int] = []
        for h in handles:
            h._frozen = False
            idxs: List[int] = []
            for link in h.links:
                if link._stamp != fid:
                    link._stamp = fid
                    link._n = len(link_objs)  # local index (scratch reuse)
                    link_objs.append(link)
                idxs.append(link._n)
            flow_links.append(idxs)
            flat.extend(idxs)
        nl = len(link_objs)
        res = np.array([link.capacity for link in link_objs],
                       dtype=np.float64)
        cnt = np.bincount(np.asarray(flat, dtype=np.int64), minlength=nl)
        caps = np.array([h.cap for h in handles], dtype=np.float64)
        rates = np.zeros(nf, dtype=np.float64)
        frozen = np.zeros(nf, dtype=bool)
        findex = {h: i for i, h in enumerate(handles)}
        remaining = nf

        while remaining:
            active = cnt > 0
            if active.any():
                bottleneck_share = float((res[active] / cnt[active]).min())
            else:
                bottleneck_share = _INF
            capm = (caps < bottleneck_share) & ~frozen
            if capm.any():
                for i in np.nonzero(capm)[0].tolist():
                    cap = float(caps[i])
                    frozen[i] = True
                    remaining -= 1
                    rates[i] = cap
                    for li in flow_links[i]:
                        r = float(res[li]) - cap
                        res[li] = r if r > 0.0 else 0.0
                        cnt[li] -= 1
                continue
            if bottleneck_share == _INF:
                idle = ~frozen
                rates[idle] = np.where(np.isinf(caps[idle]), _INF,
                                       caps[idle])
                break
            frozen_any = False
            tolerance = bottleneck_share * (1 + 1e-12)
            for li in range(nl):
                c = int(cnt[li])
                if c > 0 and float(res[li]) / c <= tolerance:
                    group: List[int] = []
                    for h in link_objs[li]._flows:
                        i = findex[h]
                        if not frozen[i]:
                            group.append(i)
                    if not group:  # pragma: no cover - duplicate-link path
                        continue
                    garr = np.asarray(group, dtype=np.int64)
                    frozen[garr] = True
                    rates[garr] = bottleneck_share
                    remaining -= len(group)
                    touched: List[int] = []
                    for i in group:
                        touched.extend(flow_links[i])
                    kcounts = np.bincount(
                        np.asarray(touched, dtype=np.int64), minlength=nl)
                    cnt -= kcounts
                    # Replay the sequential clamped subtractions: link j
                    # loses the share k_j times, exactly as the scalar
                    # flow walk subtracts it.  Links left with no
                    # unfrozen flows are skipped — nothing reads their
                    # residuals again within this fill.
                    upd = np.nonzero((kcounts > 0) & (cnt > 0))[0]
                    if upd.size:
                        kk = kcounts[upd]
                        while upd.size:
                            res[upd] = np.maximum(
                                res[upd] - bottleneck_share, 0.0)
                            kk = kk - 1
                            live = kk > 0
                            if not live.all():
                                upd = upd[live]
                                kk = kk[live]
                    frozen_any = True
            if not frozen_any:  # pragma: no cover - numerical safety valve
                rates[~frozen] = bottleneck_share
                break
        return rates

    # -- completion scheduling ------------------------------------------------

    def _reschedule_exact(self) -> None:
        next_in = -1.0
        for flow in self._flows:
            rate = flow._rate
            if rate > 0.0:
                remaining = flow.left / rate
                if next_in < 0.0 or remaining < next_in:
                    next_in = remaining
        if next_in < 0.0:  # pragma: no cover - all flows stalled
            return
        # Floor the delay so the clock always advances between wakeups
        # (a zero-elapsed wake would make no progress and spin).
        self._wake_seq = self.env._schedule_wake(self, max(next_in, 1e-9))

    def _fire(self, seq: int) -> None:
        if seq != self._wake_seq:
            self.stale_wakes += 1  # superseded by a newer reschedule
            return
        self._sync()
        # Always refresh the wake on every valid wake (the pinned
        # goldens depend on it); completions seeded their own refill above.
        self._mark_dirty(None)
