"""Server types for the heterogeneous-fleet extension.

The paper's model has identical unit bins; real clouds offer a menu of
instance types with different capacities and hourly rates.  A
:class:`ServerType` is a named (capacity vector, cost rate) pair; a
:class:`Fleet` is the menu, with helper queries the policies use
(cheapest feasible type, densest type, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import ConfigurationError
from ..core.items import Item
from ..core.vectors import capacity_slack

__all__ = ["ServerType", "Fleet", "DEFAULT_FLEET"]


@dataclass(frozen=True)
class ServerType:
    """One rentable server shape.

    Parameters
    ----------
    name:
        Catalogue label (e.g. ``"m.large"``).
    capacity:
        Per-dimension capacity vector.
    cost_rate:
        Cost per unit of active time.
    """

    name: str
    capacity: Tuple[float, ...]
    cost_rate: float

    def __post_init__(self) -> None:
        if not self.capacity or any(c <= 0 for c in self.capacity):
            raise ConfigurationError(
                f"type {self.name}: capacity must be positive, got {self.capacity}"
            )
        if self.cost_rate <= 0:
            raise ConfigurationError(
                f"type {self.name}: cost_rate must be positive, got {self.cost_rate}"
            )

    @property
    def d(self) -> int:
        """Resource dimensionality."""
        return len(self.capacity)

    @property
    def capacity_array(self) -> np.ndarray:
        """Capacity as an ndarray (fresh copy)."""
        return np.asarray(self.capacity, dtype=np.float64)

    def fits_item(self, item: Item) -> bool:
        """Whether an empty server of this type can hold ``item``."""
        cap = self.capacity_array
        return bool(np.all(item.size <= capacity_slack(cap)))

    @property
    def cost_density(self) -> float:
        """Cost rate per unit of max-dimension capacity — a crude
        price-performance score (lower is better value)."""
        return self.cost_rate / max(self.capacity)


class Fleet:
    """A menu of server types over one dimensionality."""

    def __init__(self, types: Sequence[ServerType]) -> None:
        if not types:
            raise ConfigurationError("a fleet needs at least one server type")
        d = types[0].d
        names = set()
        for t in types:
            if t.d != d:
                raise ConfigurationError(
                    f"fleet types disagree on dimensionality: {t.name} has "
                    f"d={t.d}, expected {d}"
                )
            if t.name in names:
                raise ConfigurationError(f"duplicate type name {t.name!r}")
            names.add(t.name)
        self.types: Tuple[ServerType, ...] = tuple(types)
        self.d = d

    def __iter__(self):
        return iter(self.types)

    def __len__(self) -> int:
        return len(self.types)

    def by_name(self, name: str) -> ServerType:
        """Look a type up by name."""
        for t in self.types:
            if t.name == name:
                return t
        raise KeyError(f"no server type named {name!r}")

    def feasible_for(self, item: Item) -> List[ServerType]:
        """Types whose empty server can hold ``item``."""
        return [t for t in self.types if t.fits_item(item)]

    def cheapest_feasible(self, item: Item) -> ServerType:
        """The lowest-rate type that can hold ``item`` (ties: first listed).

        Raises
        ------
        ConfigurationError
            If no type can hold the item (the fleet cannot serve it).
        """
        feasible = self.feasible_for(item)
        if not feasible:
            raise ConfigurationError(
                f"no server type can hold item {item.uid} with size {item.size!r}"
            )
        return min(feasible, key=lambda t: t.cost_rate)

    def best_value_feasible(self, item: Item) -> ServerType:
        """The feasible type with the best cost density."""
        feasible = self.feasible_for(item)
        if not feasible:
            raise ConfigurationError(
                f"no server type can hold item {item.uid} with size {item.size!r}"
            )
        return min(feasible, key=lambda t: t.cost_density)


#: A small 2-D (CPU, memory) menu with realistic economies of scale:
#: bigger boxes are cheaper per unit of capacity.
DEFAULT_FLEET = Fleet(
    [
        ServerType("small", (1.0, 1.0), 1.0),
        ServerType("large", (2.0, 2.0), 1.8),
        ServerType("xlarge", (4.0, 4.0), 3.2),
    ]
)
