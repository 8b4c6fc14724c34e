"""Online algorithm interfaces and the Any Fit base class.

``Algorithm 1`` of the paper is a template: maintain a list ``L`` of open
bins; on arrival, pack into a bin of ``L`` if any fits (never opening a
new bin when one fits — the *Any Fit property*); otherwise open a new
bin; maintain ``L`` on packs and departures.  Concrete family members
differ only in

* which fitting bin of ``L`` they select (Line 5), and
* how ``L`` is reordered/pruned (Lines 9 and 12).

:class:`AnyFitAlgorithm` implements the template once — including the
vectorised fit check over all candidate bins (against a live
:class:`ResidualTable` of their loads) and the enforcement of the Any
Fit property — so subclasses only provide :meth:`choose` plus the
list-maintenance hooks.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..core.bins import Bin
from ..core.errors import AlgorithmError
from ..core.instance import Instance
from ..core.items import Item
from ..core.vectors import capacity_slack

__all__ = ["OnlineAlgorithm", "AnyFitAlgorithm", "ResidualTable"]


class OnlineAlgorithm(abc.ABC):
    """Contract between the simulation engine and a dispatch policy.

    The engine owns bin lifecycle (creation, packing, departure
    processing, cost accounting); the algorithm only decides *where* each
    arriving item goes.  Implementations must be resettable: the engine
    calls :meth:`start` before every run.
    """

    #: Human-readable policy name used in reports/legends.
    name: str = "online"

    #: Fast-kernel hook: the name of the
    #: :mod:`repro.simulation.fastpath` policy kernel whose decisions
    #: this algorithm reproduces exactly, or ``None`` when only the
    #: classic engine may run it.  The stock Section 7 classes set it;
    #: configurations that change decisions (e.g. a non-default Best Fit
    #: load measure) clear it on the instance.  Setting the attribute is
    #: necessary but not sufficient — the class must also be registered
    #: via :func:`repro.simulation.fastpath.register_kernel_class`, so a
    #: subclass overriding ``choose`` cannot inherit eligibility by
    #: accident.
    fast_kernel: Optional[str] = None

    #: Unbounded-audit toggle.  Some policies accrue O(stream-length)
    #: proof bookkeeping that no *online* decision ever reads (Next
    #: Fit's ``release_log`` for the Theorem 4 check is the one case
    #: today).  The streaming engine and the placement service clear
    #: this flag before :meth:`start` so long-lived runs stay
    #: O(live-state); the classic engines leave it on, so the offline
    #: analyses (:mod:`repro.analysis.proofs`) see the full trail.
    #: Must never influence dispatch decisions — only what is recorded.
    audit_mode: bool = True

    #: Optional stats collector bound by an instrumented engine for the
    #: duration of one run (see ``repro.observability``).  Class-level
    #: ``None`` means instrumentation costs nothing unless enabled.
    _collector = None

    def bind_collector(self, collector) -> None:
        """Attach (or with ``None`` detach) a stats collector.

        Called by :class:`~repro.simulation.engine.Engine` around an
        instrumented run.  Subclasses with hot-path counters read
        ``self._collector`` and skip counting when it is ``None``.
        """
        self._collector = collector

    @abc.abstractmethod
    def start(self, instance: Instance) -> None:
        """Reset all per-run state for a fresh simulation of ``instance``."""

    @abc.abstractmethod
    def dispatch(
        self,
        item: Item,
        now: float,
        open_new_bin: Callable[[], Bin],
    ) -> Bin:
        """Return the bin ``item`` must be packed into.

        Implementations may call ``open_new_bin()`` at most once to
        create a fresh bin; the engine packs the item into the returned
        bin and performs capacity checks.
        """

    def notify_departure(self, bin_: Bin, item: Item, now: float, closed: bool) -> None:
        """Hook invoked after ``item`` leaves ``bin_`` (Line 10-12).

        ``closed`` is ``True`` when the departure emptied the bin.  The
        default implementation does nothing.
        """

    def notify_relocated(self, bin_: Bin, item: Item, now: float) -> None:
        """Hook invoked after a repacking move packed ``item`` into ``bin_``.

        The move's source side arrives through :meth:`notify_departure`
        first.  The default implementation does nothing.
        """

    # ------------------------------------------------------------------
    # snapshot/restore (service mode)
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, Any]:
        """JSON-ready snapshot of the policy's mutable mid-run state.

        Bins are referenced by index (the engine owns the bin objects);
        :meth:`import_state` re-binds them.  The base contract raises —
        a policy must opt in explicitly, because silently snapshotting a
        policy with unexported state (an RNG, a recency order) would
        restore into *different* future decisions.
        :class:`AnyFitAlgorithm` and the stock Section 7 policies all
        opt in; see :class:`~repro.streaming.service.PlacementService`.
        """
        raise AlgorithmError(
            f"{self.name} does not support state export; override "
            "export_state/import_state to make it snapshottable"
        )

    def import_state(self, state: Mapping[str, Any], bins_by_index: Mapping[int, Bin]) -> None:
        """Inverse of :meth:`export_state`.

        Call :meth:`start` first (it binds the capacity and resets the
        derived per-run state), then this to re-adopt the snapshot.
        ``bins_by_index`` maps bin index → live bin object for every bin
        the snapshot references.
        """
        raise AlgorithmError(
            f"{self.name} does not support state import; override "
            "export_state/import_state to make it snapshottable"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class ResidualTable:
    """Live load rows for the bins of an Any Fit list ``L``.

    One ``(slots, d)`` ``float64`` matrix with one row per bin: a bin
    keeps its slot while it is open, and a closed bin's slot goes on a
    free list for reuse.  A row is refreshed only when its bin's load
    changed since the last fit check (the owner reports that through
    :meth:`touch`), by copying ``bin.load`` — so every row read is
    bitwise the bin's own load.  A bin of ``L`` without a slot gets one,
    with a fresh copy, when a fit check first reads it; slots of bins
    that left ``L`` without closing are reclaimed before the matrix
    grows.
    """

    __slots__ = ("rows", "slack", "_slot", "_free", "_dirty")

    def __init__(self, capacity: np.ndarray) -> None:
        #: the fit bound, :func:`~repro.core.vectors.capacity_slack`
        self.slack = capacity_slack(capacity)
        self.rows = np.zeros((16, capacity.size), dtype=np.float64)
        self._slot: Dict[Bin, int] = {}
        self._free: List[int] = list(range(15, -1, -1))
        self._dirty: List[Bin] = []

    def touch(self, bin_: Bin) -> None:
        """Mark ``bin_``'s load as changed since the last fit check."""
        self._dirty.append(bin_)

    def add(self, bin_: Bin, bins: Sequence[Bin]) -> None:
        """Give ``bin_``, just put into ``bins`` (``L``), a slot.

        Its row is filled by the next fit check.
        """
        self._reserve(1, bins)
        self._slot[bin_] = self._free.pop()
        self._dirty.append(bin_)

    def release(self, bin_: Bin) -> None:
        """Return a closed bin's slot to the free list."""
        slot = self._slot.pop(bin_, None)
        if slot is not None:
            self._free.append(slot)

    def rows_for(self, bins: Sequence[Bin]) -> np.ndarray:
        """The load rows of ``bins``, in order, refreshing stale rows first."""
        slot = self._slot
        if self._dirty:
            rows = self.rows
            for bin_ in self._dirty:
                s = slot.get(bin_)
                if s is not None:
                    rows[s] = bin_.load
            self._dirty.clear()
        try:
            order = np.fromiter(map(slot.__getitem__, bins), np.intp, len(bins))
        except KeyError:
            order = self._assign(bins)
        return self.rows[order]

    def fitting(self, bins: Sequence[Bin], size: np.ndarray) -> List[Bin]:
        """The bins of ``bins`` that can fit ``size``, in order.

        The same comparison as :func:`~repro.core.vectors.fits_batch`:
        ``load + size <= slack`` in every dimension.
        """
        ok = np.flatnonzero(np.all(self.rows_for(bins) + size <= self.slack, axis=1))
        return [bins[i] for i in ok.tolist()]

    def _assign(self, bins: Sequence[Bin]) -> List[int]:
        """Give every slotless bin of ``bins`` a slot holding its load."""
        slot = self._slot
        missing = [b for b in bins if b not in slot]
        self._reserve(len(missing), bins)
        for bin_ in missing:
            s = slot[bin_] = self._free.pop()
            self.rows[s] = bin_.load
        return [slot[b] for b in bins]

    def _reserve(self, needed: int, bins: Sequence[Bin]) -> None:
        """Make ``needed`` slots free: reclaim those of bins no longer in
        ``bins``, then grow the matrix."""
        slot = self._slot
        free = self._free
        if needed <= len(free):
            return
        members = set(bins)
        for bin_ in [b for b in slot if b not in members]:
            free.append(slot.pop(bin_))
        if needed > len(free):
            size = len(self.rows)
            grown = max(2 * size, size + needed - len(free))
            rows = np.zeros((grown, self.rows.shape[1]), dtype=np.float64)
            rows[:size] = self.rows
            self.rows = rows
            free.extend(range(grown - 1, size - 1, -1))


class AnyFitAlgorithm(OnlineAlgorithm):
    """Base class implementing Algorithm 1's outer loop.

    Subclass responsibilities:

    * :meth:`choose` — pick one bin from the non-empty list of fitting
      candidates (in ``L``-order);
    * optionally :meth:`on_packed` — reorder ``L`` after a pack (e.g.
      Move To Front moves the bin to the front);
    * optionally :meth:`on_new_bin` — position a freshly opened bin in
      ``L`` (default: append);
    * optionally :meth:`on_closed` — react to a bin closing (default:
      the base class already removes closed bins from ``L``).

    The base class guarantees the **Any Fit property**: a new bin is
    opened only when no bin in ``L`` fits the item.  It also verifies
    that :meth:`choose` returns one of the offered candidates, raising
    :class:`AlgorithmError` otherwise — so a buggy selection rule fails
    loudly instead of producing an infeasible or non-Any-Fit packing.
    """

    def __init__(self) -> None:
        self._list: List[Bin] = []
        self._capacity: Optional[np.ndarray] = None
        #: the live fit table, built by the first fit check of a run
        self._table: Optional[ResidualTable] = None

    # ------------------------------------------------------------------
    # OnlineAlgorithm API
    # ------------------------------------------------------------------
    def start(self, instance: Instance) -> None:
        self._list = []
        self._capacity = instance.capacity
        self._table = None

    @property
    def open_list(self) -> Sequence[Bin]:
        """Read-only view of the candidate list ``L`` (for tests/analysis)."""
        return tuple(self._list)

    def dispatch(self, item: Item, now: float, open_new_bin: Callable[[], Bin]) -> Bin:
        if self._capacity is None:
            raise AlgorithmError(f"{self.name}: dispatch before start()")
        if self._list:
            col = self._collector
            if col is not None:
                col.candidate_scans += 1
                col.fit_checks += len(self._list)
            candidates = self._fitting_candidates(item)
        else:
            candidates = []
        table = self._table
        if candidates:
            chosen = self.choose(item, candidates, now)
            if chosen is None or all(chosen is not c for c in candidates):
                raise AlgorithmError(
                    f"{self.name}.choose returned a bin that was not offered "
                    f"(item {item.uid})"
                )
            if table is not None:
                table.touch(chosen)  # the engine packs it next
        else:
            chosen = open_new_bin()
            self.on_new_bin(chosen, item, now)
            if table is not None:
                table.add(chosen, self._list)
        self.on_packed(chosen, item, now)
        return chosen

    def notify_departure(self, bin_: Bin, item: Item, now: float, closed: bool) -> None:
        table = self._table
        if closed:
            try:
                self._list.remove(bin_)
            except ValueError:
                pass  # the policy had already dropped it from L
            if table is not None:
                table.release(bin_)
            self.on_closed(bin_, now)
        elif table is not None:
            table.touch(bin_)

    def notify_relocated(self, bin_: Bin, item: Item, now: float) -> None:
        if self._table is not None:
            self._table.touch(bin_)

    def export_state(self) -> Dict[str, Any]:
        """Snapshot ``L`` as a list of bin indexes (order is the state).

        Sufficient for every stock Any Fit policy whose only mutable
        state *is* the ordered open list (First/Last/Best/Worst Fit,
        Move To Front); policies with extra state extend the dict.
        """
        return {"open_list": [b.index for b in self._list]}

    def import_state(self, state: Mapping[str, Any], bins_by_index: Mapping[int, Bin]) -> None:
        if self._capacity is None:
            raise AlgorithmError(f"{self.name}: import_state before start()")
        self._list = [bins_by_index[i] for i in state["open_list"]]
        self._table = None

    # ------------------------------------------------------------------
    # hooks for subclasses
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def choose(self, item: Item, candidates: List[Bin], now: float) -> Bin:
        """Select one bin from ``candidates`` (non-empty, in ``L``-order)."""

    def on_new_bin(self, bin_: Bin, item: Item, now: float) -> None:
        """Insert a freshly opened bin into ``L``.  Default: append."""
        self._list.append(bin_)

    def on_packed(self, bin_: Bin, item: Item, now: float) -> None:
        """Maintain ``L`` after packing (Line 9).  Default: no-op."""

    def on_closed(self, bin_: Bin, now: float) -> None:
        """React to a bin closing (already removed from ``L``)."""

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _fitting_candidates(self, item: Item) -> List[Bin]:
        """All bins of the non-empty ``L`` that can fit ``item``, in ``L``-order.

        One vectorised comparison over the rows of ``L`` in the live
        :class:`ResidualTable` (the hot path of every simulation).
        """
        table = self._table
        if table is None:
            table = self._table = ResidualTable(self._capacity)
        return table.fitting(self._list, item.size)
