"""The event core: Algorithm 1's outer loop, written once.

Events are ordered by time with departures before arrivals at equal
times (the half-open ``[a, e)`` rule of :mod:`repro.core.events`); a bin
closes the moment its last item leaves and is never reused; Eq. 1
charges each bin its open time.  :class:`EventCore` owns that loop as
step methods — :meth:`~EventCore.arrive`, :meth:`~EventCore.advance`,
:meth:`~EventCore.depart`, :meth:`~EventCore.drain` — and every engine
(classic, streaming, service, repacking, typed, adversary driver) is a
thin caller.  It holds live state only: the departure heap keyed
``(time, uid)`` (equal-time departures pop in uid order, so arrivals fed
in non-decreasing time replay :func:`~repro.core.events.event_stream`'s
order exactly), the live ``uid -> bin`` map, the open-bin dict
(opening order; a bin leaves it on close), the running Eq. 1 total of
closed bins and the lifecycle counters.

Callers vary it in five ways: the bin factory ``(index, opened_at,
*args)`` — ``args`` are whatever the policy passed to ``open_new_bin``,
e.g. a server type — the observer list, an after-event callback
``(kind, time)`` (the repack window), the collector, and whether the
``uid -> bin index`` assignment is recorded.
"""

from __future__ import annotations

import heapq
import sys
from time import perf_counter
from typing import (
    Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

import numpy as np

from ..core.bins import Bin
from ..core.errors import AlgorithmError, StreamOrderError
from ..core.events import EventKind
from ..core.items import Item
from ..observability.stats import StatsCollector

__all__ = ["OPEN_ENDED", "EventCore"]

#: Departure time of an item with no scheduled departure: the core never
#: puts it on the departure heap, so it leaves only via
#: :meth:`EventCore.depart`.  Finite (``Item`` validation requires it).
OPEN_ENDED = sys.float_info.max

#: Counters a caller can persist and reload (:meth:`EventCore.counters`).
_COUNTERS = (
    "arrivals", "departures", "bins_closed", "peak_open_bins", "peak_live_items",
)


class _CapacityContext:
    """Duck-typed stand-in for an :class:`~repro.core.instance.Instance`.

    Every stock algorithm's :meth:`~repro.algorithms.base.OnlineAlgorithm.start`
    reads only ``instance.capacity``; callers with no materialised
    instance (a stream, the service, a live adversary) pass this shim.
    """

    __slots__ = ("capacity",)

    def __init__(self, capacity: np.ndarray) -> None:
        self.capacity = capacity


class EventCore:
    """Live state and step methods of the one departures-first loop.

    Parameters
    ----------
    algorithm:
        The dispatch policy: ``dispatch(item, now, open_new_bin)``,
        ``notify_departure(bin, item, now, closed)`` and, for
        :meth:`relocate`, ``notify_relocated(bin, item, now)``.
    bin_factory:
        ``(index, opened_at, *args) -> Bin``; ``args`` are forwarded
        from the policy's ``open_new_bin`` call.
    observers:
        :class:`~repro.simulation.engine.SimulationObserver` objects;
        ``on_start``, ``on_bin_opened``, ``on_packed`` and
        ``on_departed`` fire here, ``on_finish`` is the caller's.
    after_event:
        Called as ``after_event(kind, time)`` once each arrival or
        departure has been applied.
    collector:
        Optional stats collector; when given, dispatch is timed and the
        lifecycle counters are pushed by :meth:`flush_totals` /
        :meth:`finish`.
    record_assignment:
        Keep the full ``uid -> bin index`` map in :attr:`assignment`
        (O(total items)); otherwise :attr:`assignment` is ``None``.
    """

    def __init__(
        self,
        algorithm,
        bin_factory: Callable[..., Bin],
        observers: Sequence = (),
        after_event: Optional[Callable[[EventKind, float], None]] = None,
        collector: Optional[StatsCollector] = None,
        record_assignment: bool = False,
    ) -> None:
        self.algorithm = algorithm
        self.observers = tuple(observers)
        self.after_event = after_event
        self.collector = collector
        self.assignment: Optional[Dict[int, int]] = {} if record_assignment else None
        #: open bins by index, in opening order; a bin leaves on close
        self.open_bins: Dict[int, Bin] = {}
        #: live items: ``uid -> bin it resides in``
        self.live: Dict[int, Bin] = {}
        #: the departure heap, ``(time, uid)``; entries whose item left
        #: early through :meth:`depart` are skipped when popped
        self.pending: List[Tuple[float, int]] = []
        #: the latest arrival time
        self.now = float("-inf")
        self.arrivals = 0
        self.departures = 0
        self.bins_opened = 0
        self.bins_closed = 0
        self.peak_open_bins = 0
        self.peak_live_items = 0
        self.cost_closed = 0.0
        #: seconds spent in ``algorithm.dispatch`` (timed only with a collector)
        self.dispatch_s = 0.0
        self._factory = bin_factory
        self._item: Optional[Item] = None
        self._opened: Optional[Bin] = None
        self._dispatch_pushed = 0.0
        self._pushed = (0, 0, 0, 0)
        self._t_start = 0.0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, context) -> None:
        """Bind the collector, start the policy and the observers.

        ``context`` is what ``algorithm.start`` receives: an instance,
        or a capacity-only :class:`_CapacityContext`.
        """
        col = self.collector
        if col is not None:
            self._t_start = perf_counter()
            self.algorithm.bind_collector(col)
            col.run_started(context, self.algorithm)
        self.algorithm.start(context)
        for obs in self.observers:
            obs.on_start(context, self.algorithm)

    def release(self) -> None:
        """Unbind the collector from the (reusable) policy object."""
        if self.collector is not None:
            self.algorithm.bind_collector(None)

    def flush_totals(self) -> None:
        """Push the counters accrued since the last push to the collector."""
        col = self.collector
        if col is None:
            return
        arrivals, departures, opened, closed = self._pushed
        col.record_run_totals(
            arrivals=self.arrivals - arrivals,
            departures=self.departures - departures,
            bins_opened=self.bins_opened - opened,
            bins_closed=self.bins_closed - closed,
            peak_open_bins=self.peak_open_bins,
            dispatch_time_s=self.dispatch_s - self._dispatch_pushed,
        )
        self._pushed = self._totals()
        self._dispatch_pushed = self.dispatch_s

    def finish(self, context: Optional[Mapping[str, Any]] = None) -> None:
        """Push the final totals and close the run on the collector."""
        if self.collector is None:
            return
        self.flush_totals()
        self.collector.run_finished(perf_counter() - self._t_start, context=context)

    def counters(self) -> Dict[str, int]:
        """The persistable lifecycle counters (``bins_opened`` aside)."""
        return {name: getattr(self, name) for name in _COUNTERS}

    def scheduled(self) -> List[Tuple[float, int]]:
        """The live items' scheduled departures, sorted ``(time, uid)``."""
        return sorted((t, uid) for t, uid in self.pending if self._due(uid, t))

    def restore(
        self,
        bins: Iterable[Bin],
        pending: Iterable[Tuple[float, int]],
        counters: Mapping[str, int],
        bins_opened: int,
        cost_closed: float,
    ) -> None:
        """Adopt persisted live state: open bins with their residents,
        scheduled departures, and counters (which count as pushed)."""
        for bin_ in bins:
            self.open_bins[bin_.index] = bin_
            for item in bin_.active_items():
                self.live[item.uid] = bin_
        self.pending = [(float(t), int(uid)) for t, uid in pending]
        heapq.heapify(self.pending)
        for name in _COUNTERS:
            setattr(self, name, int(counters[name]))
        self.bins_opened = int(bins_opened)
        self.cost_closed = float(cost_closed)
        self._pushed = self._totals()

    # ------------------------------------------------------------------
    # step methods
    # ------------------------------------------------------------------
    def arrive(self, item: Item) -> Bin:
        """Fire departures due by ``item.arrival``, then dispatch ``item``.

        Returns the bin the item was packed into.
        """
        now = item.arrival
        if now < self.now:
            raise StreamOrderError(
                f"arrival stream is out of order: item {item.uid} arrives "
                f"at {now!r} after an arrival at {self.now!r}"
            )
        self.now = now
        pending = self.pending
        if pending and pending[0][0] <= now:
            self.advance(now)  # departures-first at equal times
        self._item = item
        self._opened = None
        algorithm = self.algorithm
        if self.collector is not None:
            t0 = perf_counter()
            target = algorithm.dispatch(item, now, self._open_bin)
            self.dispatch_s += perf_counter() - t0
        else:
            target = algorithm.dispatch(item, now, self._open_bin)
        if target is None:
            raise AlgorithmError(
                f"{algorithm.name} returned no bin for item {item.uid}"
            )
        target.pack(item)  # raises CapacityExceededError on a bad policy
        uid = item.uid
        live = self.live
        live[uid] = target
        if self.assignment is not None:
            self.assignment[uid] = target.index
        if item.departure != OPEN_ENDED:
            heapq.heappush(pending, (item.departure, uid))
        self.arrivals += 1
        if len(self.open_bins) > self.peak_open_bins:
            self.peak_open_bins = len(self.open_bins)
        if len(live) > self.peak_live_items:
            self.peak_live_items = len(live)
        if self.observers:
            opened_new = self._opened is not None
            for obs in self.observers:
                obs.on_packed(target, item, now, opened_new=opened_new)
        if self.after_event is not None:
            self.after_event(EventKind.ARRIVAL, now)
        return target

    def advance(self, t: float) -> int:
        """Fire every scheduled departure at or before ``t``; return the count."""
        pending = self.pending
        live = self.live
        fired = 0
        while pending and pending[0][0] <= t:
            when, uid = heapq.heappop(pending)
            bin_ = live.get(uid)
            if bin_ is None:
                continue  # the item already left through depart()
            item = bin_.resident(uid)
            if item.departure != when:
                continue  # ... and its uid was reused
            del live[uid]
            self._remove(item, bin_, when)
            fired += 1
        return fired

    def depart(self, uid: int, t: float) -> bool:
        """Depart live item ``uid`` at ``t`` (after departures due by ``t``).

        Returns whether its bin closed.
        """
        self.advance(t)
        bin_ = self.live.pop(uid)
        return self._remove(bin_.resident(uid), bin_, t)

    def drain(self) -> None:
        """Fire every remaining scheduled departure."""
        self.advance(float("inf"))

    def replay(self, items) -> None:
        """Arrive every item of an arrival-ordered iterable, then drain."""
        arrive = self.arrive
        for item in items:
            arrive(item)
        self.drain()

    def relocate(self, item: Item, dst: Bin, t: float) -> bool:
        """Move live ``item`` into ``dst`` at ``t``; return whether its source closed.

        The source side is a departure for the policy and the observers
        (the same ``notify_departure`` contract), the destination side a
        pack that opened no bin (``notify_relocated`` for the policy).
        Admission checks are the caller's.
        """
        src = self.live[item.uid]
        closed = src.remove(item, t)
        dst.pack(item)
        self.live[item.uid] = dst
        if self.assignment is not None:
            self.assignment[item.uid] = dst.index
        if closed:
            self._close(src)
        self.algorithm.notify_departure(src, item, t, closed)
        self.algorithm.notify_relocated(dst, item, t)
        for obs in self.observers:
            obs.on_departed(src, item, t, closed)
            obs.on_packed(dst, item, t, opened_new=False)
        return closed

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _open_bin(self, *args) -> Bin:
        """The ``open_new_bin`` callback handed to ``dispatch``."""
        if self._opened is not None:
            raise AlgorithmError(
                f"{self.algorithm.name} opened two bins for one item "
                f"(item {self._item.uid})"
            )
        index = self.bins_opened
        fresh = self._factory(index, self.now, *args)
        self.bins_opened = index + 1
        self.open_bins[index] = fresh
        self._opened = fresh
        for obs in self.observers:
            obs.on_bin_opened(fresh, self.now)
        return fresh

    def _remove(self, item: Item, bin_: Bin, t: float) -> bool:
        """Apply one departure event (the item is already off ``live``)."""
        closed = bin_.remove(item, t)
        self.algorithm.notify_departure(bin_, item, t, closed)
        for obs in self.observers:
            obs.on_departed(bin_, item, t, closed)
        self.departures += 1
        if closed:
            self._close(bin_)
        if self.after_event is not None:
            self.after_event(EventKind.DEPARTURE, t)
        return closed

    def _totals(self) -> Tuple[int, int, int, int]:
        """The additive counters :meth:`flush_totals` pushes."""
        return (self.arrivals, self.departures, self.bins_opened, self.bins_closed)

    def _due(self, uid: int, t: float) -> bool:
        """Whether heap entry ``(t, uid)`` is a live item's departure."""
        bin_ = self.live.get(uid)
        return bin_ is not None and bin_.resident(uid).departure == t

    def _close(self, bin_: Bin) -> None:
        self.bins_closed += 1
        self.cost_closed += bin_.closed_at - bin_.opened_at
        del self.open_bins[bin_.index]
