"""Event stream construction for the online simulation.

The engine replays an instance as a totally ordered stream of arrival and
departure events.  Ordering rules (all consequences of the half-open
active interval ``[a, e)`` of Section 2.1):

1. events are ordered by time;
2. at equal times, **departures precede arrivals** — an item departing at
   ``t`` has already freed its capacity when an item arriving at ``t`` is
   dispatched;
3. simultaneous arrivals keep the instance's list order (the adversarial
   constructions depend on this interleaving);
4. simultaneous departures are ordered by uid (any fixed order is
   equivalent, since all of them are processed before the next arrival).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator, List

from .instance import Instance
from .items import DATACLASS_SLOTS, Item

__all__ = ["EventKind", "Event", "event_stream"]


class EventKind(enum.IntEnum):
    """Kind of a simulation event.  Departures sort before arrivals."""

    DEPARTURE = 0
    ARRIVAL = 1


@dataclass(frozen=True, order=True, **DATACLASS_SLOTS)
class Event:
    """A single timestamped event.

    The field order makes the natural dataclass ordering implement the
    module's ordering rules directly: ``(time, kind, seq)`` with
    ``DEPARTURE < ARRIVAL``.
    """

    time: float
    kind: EventKind
    seq: int
    item: Item = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.item is None:
            raise ValueError("Event requires an item")


def event_stream(instance: Instance) -> List[Event]:
    """Build the totally ordered event list for ``instance``.

    Returns ``2n`` events.  Arrival ``seq`` equals the item's position in
    the instance (preserving online arrival order at ties); departure
    ``seq`` is the uid.
    """
    events: List[Event] = []
    for pos, item in enumerate(instance.items):
        events.append(Event(item.arrival, EventKind.ARRIVAL, pos, item))
        events.append(Event(item.departure, EventKind.DEPARTURE, item.uid, item))
    events.sort(key=lambda ev: (ev.time, ev.kind, ev.seq))
    return events


def iter_arrivals(instance: Instance) -> Iterator[Item]:
    """Items in online arrival order: by time, equal times in list order
    (the arrival half of :func:`event_stream`'s order, rule 3)."""
    return iter(sorted(instance.items, key=attrgetter("arrival")))


__all__.append("iter_arrivals")
