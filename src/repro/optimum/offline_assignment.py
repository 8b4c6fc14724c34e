"""Offline packing *without* repacking (static assignment).

The paper's OPT may repack items at any instant (Section 2.2); real
systems usually cannot migrate jobs, which is exactly why the online
problem forbids recourse.  The natural offline yardstick for such
systems is the best *static assignment*: partition the items into
groups that are capacity-feasible at every instant, minimising the sum
of group spans

.. math::  \\min \\sum_b \\operatorname{span}(R_b).

This is NP-hard (it contains vector bin packing), so the module offers
the usual ladder:

* :func:`greedy_assignment` — arrival-order greedy that places each item
  where it adds the least *marginal* usage time (0 if the bin's span
  already covers the item), a duration-aware strengthening of First Fit;
* :func:`local_search` — single-item relocation descent from any
  feasible assignment;
* :func:`exact_assignment` — exhaustive branch-and-bound for tiny
  instances (certified optimum of the no-repack problem);
* :func:`assignment_cost` / feasibility checking shared by all.

Relationships that hold (and are tested):
``repack-OPT ≤ no-repack-OPT ≤ local_search(greedy) ≤ greedy`` and every
online algorithm's cost is ≥ repack-OPT, but online costs may beat the
*greedy/no-repack heuristics* on easy instances (they are upper bounds,
not lower bounds, for the online problem).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import SolverLimitError
from ..core.instance import Instance
from ..core.intervals import Interval, union_length
from ..core.items import Item
from ..core.packing import Packing
from ..core.vectors import capacity_slack

__all__ = [
    "assignment_cost",
    "assignment_feasible",
    "greedy_assignment",
    "local_search",
    "exact_assignment",
]


def _groups(instance: Instance, assignment: Dict[int, int]) -> Dict[int, List[Item]]:
    by_bin: Dict[int, List[Item]] = {}
    for item in instance.items:
        by_bin.setdefault(assignment[item.uid], []).append(item)
    return by_bin


def _split_components(items: Sequence[Item]) -> List[List[Item]]:
    """Split a group into temporally connected components.

    A bin with an idle gap is equivalent to two bins (Section 2.1), and
    :class:`~repro.core.packing.Packing` bills each bin's *hull*, so an
    offline group whose items do not overlap in time must become several
    bins — one per connected component of the interval union — before a
    Packing is built.  Union cost is unchanged; hull inflation vanishes.
    """
    ordered = sorted(items, key=lambda it: it.arrival)
    components: List[List[Item]] = []
    current: List[Item] = []
    frontier = float("-inf")
    for it in ordered:
        if current and it.arrival > frontier:
            components.append(current)
            current = []
        current.append(it)
        frontier = max(frontier, it.departure)
    if current:
        components.append(current)
    return components


def _finalize(instance: Instance, assignment: Dict[int, int], algorithm: str) -> Packing:
    """Build a Packing from a static assignment, splitting idle gaps."""
    final: Dict[int, int] = {}
    next_bin = 0
    for _, items in sorted(_groups(instance, assignment).items()):
        for component in _split_components(items):
            for it in component:
                final[it.uid] = next_bin
            next_bin += 1
    return Packing.from_assignment(instance, final, algorithm=algorithm)


def assignment_cost(instance: Instance, assignment: Dict[int, int]) -> float:
    """Total usage time of a static assignment: ``Σ_b span(R_b)``."""
    return sum(
        union_length(it.interval for it in items)
        for items in _groups(instance, assignment).values()
    )


def _group_feasible(items: Sequence[Item], capacity: np.ndarray) -> bool:
    """Whether a group of items respects capacity at every instant."""
    slack = capacity_slack(capacity)
    arrivals = sorted({it.arrival for it in items})
    sizes = np.stack([it.size for it in items])
    starts = np.array([it.arrival for it in items])
    ends = np.array([it.departure for it in items])
    for t in arrivals:
        active = (starts <= t) & (t < ends)
        if np.any(sizes[active].sum(axis=0) > slack):
            return False
    return True


def assignment_feasible(instance: Instance, assignment: Dict[int, int]) -> bool:
    """Whether every bin of the assignment respects capacity at all times."""
    return all(
        _group_feasible(items, instance.capacity)
        for items in _groups(instance, assignment).values()
    )


class _BinState:
    """Mutable per-bin state for the greedy pass: load timeline + span."""

    __slots__ = ("items", "covered")

    def __init__(self) -> None:
        self.items: List[Item] = []
        self.covered: List[Interval] = []  # merged usage intervals

    def marginal_cost(self, item: Item) -> float:
        """Usage time added by ``item``: its interval minus what's covered."""
        uncovered = item.duration
        for iv in self.covered:
            inter = iv.intersection(item.interval)
            uncovered -= inter.length
        return max(0.0, uncovered)

    def fits(self, item: Item, capacity: np.ndarray) -> bool:
        return _group_feasible(self.items + [item], capacity)

    def add(self, item: Item) -> None:
        from ..core.intervals import merge_intervals

        self.items.append(item)
        self.covered = merge_intervals(self.covered + [item.interval])


def greedy_assignment(instance: Instance) -> Packing:
    """Marginal-cost greedy static assignment.

    Items are processed in arrival order; each goes to the feasible bin
    with the smallest marginal usage-time increase (ties: the bin with
    more items, to keep packing tight; then lowest index).  A new bin is
    opened only when no bin fits — an existing placement's marginal cost
    never exceeds the fresh bin's (the item's full duration).
    """
    bins: List[_BinState] = []
    assignment: Dict[int, int] = {}
    for item in instance.items:
        best_idx: Optional[int] = None
        best_key: Tuple[float, int, int] = (float("inf"), 0, 0)
        for idx, state in enumerate(bins):
            if not state.fits(item, instance.capacity):
                continue
            key = (state.marginal_cost(item), -len(state.items), idx)
            if key < best_key:
                best_key = key
                best_idx = idx
        if best_idx is None:
            # a fresh bin costs exactly item.duration; an existing bin is
            # never worse than that (marginal <= duration), so we only
            # open when nothing fits
            bins.append(_BinState())
            best_idx = len(bins) - 1
        bins[best_idx].add(item)
        assignment[item.uid] = best_idx
    return _finalize(instance, assignment, "offline_greedy")


def local_search(
    instance: Instance,
    assignment: Optional[Dict[int, int]] = None,
    max_rounds: int = 20,
) -> Packing:
    """Single-item relocation descent on a static assignment.

    Starting from ``assignment`` (default: :func:`greedy_assignment`),
    repeatedly move one item to another existing bin (or a fresh one)
    whenever that strictly decreases total cost, until a full round
    passes without improvement or ``max_rounds`` is hit.
    """
    if assignment is None:
        assignment = dict(greedy_assignment(instance).assignment)
    else:
        assignment = dict(assignment)

    by_uid = {it.uid: it for it in instance.items}
    groups: Dict[int, List[Item]] = {}
    for uid, b in assignment.items():
        groups.setdefault(b, []).append(by_uid[uid])

    def group_span(items: List[Item]) -> float:
        return union_length(it.interval for it in items)

    spans: Dict[int, float] = {b: group_span(items) for b, items in groups.items()}

    for _ in range(max_rounds):
        improved = False
        for uid in sorted(assignment):
            item = by_uid[uid]
            current = assignment[uid]
            src_items = groups[current]
            src_without = [it for it in src_items if it.uid != uid]
            src_delta = (group_span(src_without) if src_without else 0.0) - spans[current]
            if src_delta >= -1e-12:
                continue  # removing the item saves nothing; no move helps
            bin_ids = list(groups)
            next_fresh = max(bin_ids) + 1
            for target in bin_ids + [next_fresh]:
                if target == current:
                    continue
                tgt_items = groups.get(target, [])
                # moves only ever need the *target* group re-checked: the
                # source group shrinks, which cannot break feasibility
                if tgt_items and not _group_feasible(
                    tgt_items + [item], instance.capacity
                ):
                    continue
                tgt_delta = group_span(tgt_items + [item]) - spans.get(target, 0.0)
                if src_delta + tgt_delta < -1e-12:
                    # apply the move
                    groups[current] = src_without
                    spans[current] = spans[current] + src_delta
                    if not src_without:
                        del groups[current]
                        del spans[current]
                    groups.setdefault(target, []).append(item)
                    spans[target] = spans.get(target, 0.0) + tgt_delta
                    assignment[uid] = target
                    improved = True
                    break
        if not improved:
            break

    return _finalize(instance, assignment, "offline_local_search")


def exact_assignment(instance: Instance, max_nodes: int = 500_000) -> Packing:
    """Exact optimum static assignment by branch and bound (tiny n).

    Items are assigned in arrival order; at each node the next item is
    tried in every existing bin (feasibility-checked) and one fresh bin.
    Pruning uses the partial cost plus zero for the remainder (costs only
    grow), with the greedy solution as incumbent.

    Raises
    ------
    SolverLimitError
        When the node budget is exhausted; callers should fall back to
        :func:`local_search`.
    """
    items = list(instance.items)
    n = len(items)
    incumbent = local_search(instance)
    best_cost = incumbent.cost
    best_assignment = dict(incumbent.assignment)
    nodes = 0

    def partial_cost(groups: List[List[Item]]) -> float:
        return sum(union_length(it.interval for it in g) for g in groups)

    def recurse(i: int, groups: List[List[Item]], cost_so_far: float) -> None:
        nonlocal nodes, best_cost, best_assignment
        nodes += 1
        if nodes > max_nodes:
            raise SolverLimitError(
                f"exact static assignment exceeded {max_nodes} nodes (n={n})"
            )
        if cost_so_far >= best_cost - 1e-12:
            return
        if i == n:
            best_cost = cost_so_far
            best_assignment = {
                it.uid: b for b, group in enumerate(groups) for it in group
            }
            return
        item = items[i]
        for b, group in enumerate(groups):
            if _group_feasible(group + [item], instance.capacity):
                before = union_length(it.interval for it in group)
                group.append(item)
                after = union_length(it.interval for it in group)
                recurse(i + 1, groups, cost_so_far + after - before)
                group.pop()
        groups.append([item])
        recurse(i + 1, groups, cost_so_far + item.duration)
        groups.pop()

    recurse(0, [], 0.0)
    return _finalize(instance, best_assignment, "offline_exact")
