"""Online engine and policies for heterogeneous fleets.

The homogeneous engine's contract changes in one place: *opening a bin
requires choosing a type*.  :class:`TypedEngine` runs the shared
:class:`~repro.simulation.event_core.EventCore` with a bin factory that
builds each bin to its chosen type's capacity, and weights cost by the
type's rate; :class:`TypedAnyFit` generalises the Any Fit template —
pack into an open bin if any fits, otherwise open a bin of the type the
``opening_rule`` selects, choosing among fitting bins with a pluggable
selection rule (default: Move To Front recency).

The interesting new trade-off: a big cheap-per-unit server improves
*packing* but is wasted when mostly idle; the small expensive-per-unit
server wins for lone long jobs.  ``benchmarks/bench_heterogeneous.py``
measures the opening rules against each other and against the best
single-type fleet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from ..core.bins import Bin
from ..core.errors import AlgorithmError, ConfigurationError, PackingAuditError
from ..core.events import iter_arrivals
from ..core.instance import Instance
from ..core.items import Item
from ..core.vectors import capacity_slack
from ..simulation.event_core import EventCore
from .types import Fleet, ServerType

__all__ = ["TypedBinRecord", "TypedPacking", "TypedAnyFit", "TypedEngine", "typed_run"]


@dataclass(frozen=True)
class TypedBinRecord:
    """One typed bin in a finished heterogeneous packing."""

    index: int
    type_name: str
    cost_rate: float
    opened_at: float
    closed_at: float
    item_uids: Tuple[int, ...]

    @property
    def usage_time(self) -> float:
        return max(0.0, self.closed_at - self.opened_at)

    @property
    def cost(self) -> float:
        """Rate-weighted usage cost of this bin."""
        return self.usage_time * self.cost_rate


@dataclass(frozen=True)
class TypedPacking:
    """Result of a heterogeneous run: typed bins + rate-weighted cost."""

    instance: Instance
    fleet: Fleet
    assignment: Dict[int, int]
    bins: Tuple[TypedBinRecord, ...]
    algorithm: str = ""

    @property
    def cost(self) -> float:
        """Total rate-weighted usage cost."""
        return sum(b.cost for b in self.bins)

    @property
    def num_bins(self) -> int:
        return len(self.bins)

    def bins_of_type(self, type_name: str) -> List[TypedBinRecord]:
        """Bins of one server type."""
        return [b for b in self.bins if b.type_name == type_name]

    def validate(self) -> None:
        """Temporal feasibility audit against each bin's own capacity."""
        by_uid = {it.uid: it for it in self.instance.items}
        if set(self.assignment) != set(by_uid):
            raise PackingAuditError("assignment does not cover the instance")
        for rec in self.bins:
            cap = self.fleet.by_name(rec.type_name).capacity_array
            slack = capacity_slack(cap)
            items = [by_uid[u] for u in rec.item_uids]
            for t in sorted({it.arrival for it in items}):
                load = sum(
                    (it.size for it in items if it.arrival <= t < it.departure),
                    np.zeros(self.instance.d),
                )
                if np.any(load > slack):
                    raise PackingAuditError(
                        f"typed bin {rec.index} ({rec.type_name}) over capacity "
                        f"at t={t}: {load!r} > {cap!r}"
                    )


class TypedAnyFit:
    """Any Fit over a heterogeneous fleet.

    Parameters
    ----------
    fleet:
        The server-type menu.
    opening_rule:
        ``"cheapest"`` — open the lowest-rate feasible type;
        ``"best_value"`` — open the best cost-density feasible type;
        or a callable ``(fleet, item) -> ServerType``.
    selection:
        How to pick among open fitting bins: ``"recent"`` (Move To Front
        recency), ``"first"`` (opening order), or ``"cheapest_rate"``
        (lowest cost-rate bin, ties by recency).
    """

    def __init__(
        self,
        fleet: Fleet,
        opening_rule: str = "best_value",
        selection: str = "recent",
    ) -> None:
        self.fleet = fleet
        if callable(opening_rule):
            self._open_rule = opening_rule
            self.opening_rule = getattr(opening_rule, "__name__", "custom")
        elif opening_rule == "cheapest":
            self._open_rule = lambda fleet, item: fleet.cheapest_feasible(item)
            self.opening_rule = opening_rule
        elif opening_rule == "best_value":
            self._open_rule = lambda fleet, item: fleet.best_value_feasible(item)
            self.opening_rule = opening_rule
        else:
            raise ConfigurationError(
                f"unknown opening rule {opening_rule!r}; use cheapest/best_value"
            )
        if selection not in ("recent", "first", "cheapest_rate"):
            raise ConfigurationError(
                f"unknown selection {selection!r}; use recent/first/cheapest_rate"
            )
        self.selection = selection
        self.name = f"typed_any_fit({self.opening_rule},{selection})"
        self._list: List[Tuple[Bin, ServerType]] = []

    def start(self, instance: Instance) -> None:
        self._list = []

    # -- engine interface ----------------------------------------------
    def dispatch(
        self,
        item: Item,
        now: float,
        open_new_bin: Callable[[ServerType], Bin],
    ) -> Bin:
        fitting = [(b, t) for b, t in self._list if b.can_fit(item)]
        if fitting:
            chosen_pair = self._select(fitting)
        else:
            stype = self._open_rule(self.fleet, item)
            fresh = open_new_bin(stype)
            chosen_pair = (fresh, stype)
            self._list.insert(0, chosen_pair)
        self._touch(chosen_pair)
        return chosen_pair[0]

    def notify_departure(self, bin_: Bin, item: Item, now: float, closed: bool) -> None:
        if closed:
            self._list = [(b, t) for b, t in self._list if b is not bin_]

    # -- internals -------------------------------------------------------
    def _select(self, fitting: List[Tuple[Bin, ServerType]]) -> Tuple[Bin, ServerType]:
        if self.selection == "recent":
            return fitting[0]  # list is maintained in recency order
        if self.selection == "first":
            return min(fitting, key=lambda pair: pair[0].index)
        # cheapest_rate: lowest-rate bin; ties by recency (list order)
        return min(fitting, key=lambda pair: pair[1].cost_rate)

    def _touch(self, pair: Tuple[Bin, ServerType]) -> None:
        self._list = [pair] + [p for p in self._list if p[0] is not pair[0]]


class TypedEngine:
    """Replays one instance through one typed policy."""

    def __init__(self, instance: Instance, algorithm: TypedAnyFit) -> None:
        if instance.d != algorithm.fleet.d:
            raise ConfigurationError(
                f"instance d={instance.d} does not match fleet d={algorithm.fleet.d}"
            )
        self.instance = instance
        self.algorithm = algorithm
        self._bins: List[Tuple[Bin, ServerType]] = []
        self._ran = False

    def run(self) -> TypedPacking:
        if self._ran:
            raise AlgorithmError("TypedEngine instances are single-use")
        self._ran = True
        core = EventCore(self.algorithm, self._new_bin, record_assignment=True)
        core.start(self.instance)
        core.replay(iter_arrivals(self.instance))
        records = [
            TypedBinRecord(
                index=bin_.index,
                type_name=stype.name,
                cost_rate=stype.cost_rate,
                opened_at=bin_.opened_at,
                closed_at=bin_.closed_at,
                item_uids=tuple(it.uid for it in bin_.history),
            )
            for bin_, stype in self._bins
        ]
        return TypedPacking(
            instance=self.instance,
            fleet=self.algorithm.fleet,
            assignment=core.assignment,
            bins=tuple(records),
            algorithm=self.algorithm.name,
        )

    def _new_bin(self, index: int, opened_at: float, stype: ServerType) -> Bin:
        fresh = Bin(stype.capacity_array, index=index, opened_at=opened_at)
        self._bins.append((fresh, stype))
        return fresh


def typed_run(algorithm: TypedAnyFit, instance: Instance, validate: bool = False) -> TypedPacking:
    """Run a typed policy on an instance (convenience wrapper)."""
    packing = TypedEngine(instance, algorithm).run()
    if validate:
        packing.validate()
    return packing
