"""A long-lived placement service wrapping the streaming machinery.

:class:`PlacementService` turns the packer from a batch experiment into
an online server: callers ``place`` items and ``depart`` them one call
at a time, against a monotonic service clock, with no instance and no
pre-declared horizon.  State is exactly the live state of the
shared :class:`~repro.simulation.event_core.EventCore` — open
:class:`~repro.streaming.engine.StreamBin` objects, the live item → bin
map, the scheduled-departure heap — plus the dispatch policy's own
exported state, so the whole service can be snapshotted to
a JSON document and restored bit-identically (same future decisions,
same costs), persisted through the same crash-safe
:func:`~repro.orchestration.checkpoint.atomic_write` primitive the
checkpoint store uses.

Semantics
---------
* The clock never runs backwards: every ``at`` must be ``>= now``.
* Scheduled departures (items placed with a ``duration`` or an explicit
  ``departure``) fire automatically as the clock advances, *before* any
  arrival at the same instant — the departures-first tie-break of
  :mod:`repro.core.events`.
* Items placed with neither a duration nor a departure are
  **open-ended**: they stay resident until an explicit :meth:`depart`.
  Internally they carry the finite sentinel :data:`OPEN_ENDED`
  (``sys.float_info.max``) so the core item validation stays intact;
  the event core never schedules such an item, and the sentinel never
  reaches any cost term because cost accrues from observed clock times
  only.
"""

from __future__ import annotations

import hashlib
import json
import operator
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from ..algorithms.base import OnlineAlgorithm
from ..algorithms.registry import make_algorithm
from ..core.errors import ConfigurationError, DVBPError, InvalidItemError
from ..core.items import Item
from ..observability.stats import RunStats, StatsCollector
from ..orchestration.checkpoint import atomic_write
from ..simulation.event_core import OPEN_ENDED, EventCore, _CapacityContext
from .engine import StreamBin

__all__ = ["OPEN_ENDED", "PlacementService"]

#: Snapshot document schema; bump on incompatible changes.
SNAPSHOT_SCHEMA = "repro-service-snapshot/v1"

__all__.append("SNAPSHOT_SCHEMA")


def _item_id(item_id: Any) -> int:
    """A caller-supplied uid as an ``int``: integers only, never a bool."""
    if not isinstance(item_id, (bool, np.bool_)):
        try:
            return operator.index(item_id)
        except TypeError:
            pass
    raise ConfigurationError(f"item id must be an integer, got {item_id!r}")


class PlacementService:
    """An online DVBP placement server with snapshot/restore.

    Parameters
    ----------
    policy:
        Registry name of the dispatch policy (e.g. ``"move_to_front"``).
        The policy must support ``export_state``/``import_state`` for
        :meth:`snapshot` to work — all stock policies do.
    capacity:
        Per-dimension bin capacity: a sequence, or a scalar combined
        with ``d``.
    d:
        Number of resource dimensions when ``capacity`` is a scalar.
    seed:
        Seed forwarded to ``random_fit`` (ignored by deterministic
        policies).
    collector:
        Optional shared :class:`~repro.observability.stats.StatsCollector`
        (e.g. to fan service telemetry into an existing trace sink); a
        private one is created when omitted.
    """

    def __init__(
        self,
        policy: str = "move_to_front",
        capacity: Union[float, Sequence[float]] = 100.0,
        d: int = 1,
        seed: int = 0,
        collector: Optional[StatsCollector] = None,
    ) -> None:
        if np.isscalar(capacity):
            cap = np.full(int(d), float(capacity))
        else:
            cap = np.asarray(capacity, dtype=np.float64)
        if cap.ndim != 1 or cap.size < 1 or not np.all(cap > 0):
            raise ConfigurationError(
                f"capacity must be a positive vector, got {capacity!r}"
            )
        self.policy = policy
        self.seed = int(seed)
        self.capacity = cap
        self.collector = collector if collector is not None else StatsCollector()
        kwargs = {"seed": self.seed} if policy == "random_fit" else {}
        self._algorithm: OnlineAlgorithm = make_algorithm(policy, **kwargs)
        # a service lives indefinitely: suspend unbounded proof
        # bookkeeping (next_fit's release_log) permanently, same as the
        # streaming engine does per run
        self._algorithm.audit_mode = False
        self._core = EventCore(
            self._algorithm,
            lambda index, opened_at: StreamBin(cap, index, opened_at),
            collector=self.collector,
        )
        self._core.start(_CapacityContext(cap))
        self._now = 0.0
        self._next_uid = 0
        # this object's own dispatch work; the collector may be shared
        self._fit_checks = 0
        self._candidate_scans = 0

    # ------------------------------------------------------------------
    # clock and state queries
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """The service clock (the latest ``at`` any call supplied)."""
        return self._now

    @property
    def live_items(self) -> int:
        """Number of currently resident items."""
        return len(self._core.live)

    @property
    def open_bins(self) -> int:
        """Number of currently open bins."""
        return len(self._core.open_bins)

    @property
    def _items(self) -> Dict[int, Any]:
        """Live items: ``uid -> bin``."""
        return self._core.live

    @property
    def cost(self) -> float:
        """Eq. 1 cost accrued so far.

        Exact ``closed - opened`` usage of every closed bin, plus
        ``now - opened`` for each still-open bin (open bins have been
        continuously non-empty since they opened, so that is their exact
        accrued usage — no estimate involved).
        """
        return self._core.cost_closed + sum(
            self._now - b.opened_at for b in self._core.open_bins.values()
        )

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def place(
        self,
        size: Union[float, Sequence[float]],
        duration: Optional[float] = None,
        departure: Optional[float] = None,
        at: Optional[float] = None,
        item_id: Optional[int] = None,
    ) -> int:
        """Place one item; return the index of the bin it landed in.

        ``duration`` and ``departure`` are mutually exclusive ways to
        schedule the item's automatic departure; with neither the item
        is open-ended and departs only via :meth:`depart`.  ``at``
        defaults to the current clock and must not move it backwards.
        ``item_id`` overrides the auto-assigned uid (an integer that must
        not collide with a live item).

        A rejected call changes nothing: every check runs before the
        clock advances or a uid is consumed.
        """
        at = self._check_clock(at)
        if duration is not None and departure is not None:
            raise ConfigurationError("pass duration or departure, not both")
        if duration is not None:
            duration = float(duration)
            if not duration > 0:  # also rejects NaN
                raise ConfigurationError(f"duration must be positive, got {duration}")
            end = at + duration
        elif departure is not None:
            end = float(departure)
            if not end > at:  # also rejects NaN
                raise ConfigurationError(
                    f"departure {end} must be after arrival {at}"
                )
        else:
            end = OPEN_ENDED
        if item_id is None:
            uid = self._next_uid
        else:
            uid = _item_id(item_id)
            if self._live_at(uid, at):
                raise ConfigurationError(f"item id {uid} is already live")
        item = Item(at, end, np.asarray(size, dtype=np.float64), uid=uid)
        if item.size.shape != self.capacity.shape:
            raise InvalidItemError(
                f"item size has {item.size.size} dimension(s), the service "
                f"capacity has {self.capacity.size}"
            )
        if np.any(item.size > self.capacity):
            raise InvalidItemError(
                f"item size {item.size!r} does not fit the service "
                f"capacity {self.capacity!r}"
            )
        self._now = at
        self._next_uid = max(self._next_uid, uid + 1)
        col = self.collector
        checks, scans = col.fit_checks, col.candidate_scans
        target = self._core.arrive(item)
        self._fit_checks += col.fit_checks - checks
        self._candidate_scans += col.candidate_scans - scans
        self._push_stats()
        return target.index

    def depart(self, item_id: int, at: Optional[float] = None) -> bool:
        """Depart a live item explicitly; return whether its bin closed.

        The call first advances the clock to ``at`` (firing any
        departure scheduled at or before it), so departing an item
        *after* its scheduled time raises — it already left.  A rejected
        call changes nothing.
        """
        at = self._check_clock(at)
        uid = _item_id(item_id)
        if not self._live_at(uid, at):
            raise ConfigurationError(
                f"item {uid} is not live (never placed, or already departed)"
            )
        self._now = at
        closed = self._core.depart(uid, at)
        self._push_stats()
        return closed

    def advance(self, to: float) -> int:
        """Advance the clock to ``to``; return how many departures fired."""
        self._now = self._check_clock(float(to))
        fired = self._core.advance(self._now)
        self._push_stats()
        return fired

    def stats(self) -> RunStats:
        """Lifecycle counters in the library's standard stats currency.

        The dispatch work is this service's own, also when the collector
        is shared: ``fit_checks`` and ``candidate_scans`` are part of a
        snapshot like the lifecycle counters, ``dispatch_time_s`` counts
        from construction or restore.
        """
        core = self._core
        return RunStats(
            algorithm=self._algorithm.name,
            runs=1,
            events=core.arrivals + core.departures,
            arrivals=core.arrivals,
            departures=core.departures,
            bins_opened=core.bins_opened,
            bins_closed=core.bins_closed,
            peak_open_bins=core.peak_open_bins,
            peak_live_items=core.peak_live_items,
            candidate_scans=self._candidate_scans,
            fit_checks=self._fit_checks,
            dispatch_time_s=core.dispatch_s,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_clock(self, at: Optional[float]) -> float:
        """Validate a requested clock time (``None`` = now) without moving."""
        at = self._now if at is None else float(at)
        if not self._now <= at < float("inf"):  # also rejects NaN
            raise ConfigurationError(
                f"the service clock is monotonic and finite: at={at}, "
                f"now={self._now}"
            )
        return at

    def _live_at(self, uid: int, at: float) -> bool:
        """Whether ``uid`` is still resident once the clock reaches ``at``."""
        bin_ = self._core.live.get(uid)
        return bin_ is not None and bin_.resident(uid).departure > at

    def _push_stats(self) -> None:
        """Keep the shared collector current after every operation."""
        core = self._core
        core.flush_totals()
        if core.peak_live_items > self.collector.peak_live_items:
            self.collector.peak_live_items = core.peak_live_items

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready snapshot of the complete service state.

        Restoring it (:meth:`restore`) yields a service that makes the
        same future decisions at the same costs: bins are rebuilt by
        re-packing their residents in original pack order (so float
        loads re-fold identically), and the policy re-adopts its own
        exported state (open-list order, RNG stream position, …).
        """
        core = self._core
        counters = core.counters()
        if self._candidate_scans:
            # only once there is dispatch work, so a document written
            # without these keys restores and re-snapshots unchanged
            counters["fit_checks"] = self._fit_checks
            counters["candidate_scans"] = self._candidate_scans
        bins = []
        for index in sorted(core.open_bins):
            b = core.open_bins[index]
            bins.append({
                "index": index,
                "opened_at": b.opened_at,
                "latest_departure": b.latest_departure,
                "items": [
                    {
                        "uid": it.uid,
                        "arrival": it.arrival,
                        "departure": it.departure,
                        "size": [float(x) for x in it.size],
                    }
                    for it in b.active_items()
                ],
            })
        return {
            "schema": SNAPSHOT_SCHEMA,
            "policy": self.policy,
            "seed": self.seed,
            "capacity": [float(x) for x in self.capacity],
            "now": self._now,
            "next_uid": self._next_uid,
            "next_bin_index": core.bins_opened,
            "cost_closed": core.cost_closed,
            "counters": counters,
            "bins": bins,
            "pending": [[t, uid] for t, uid in core.scheduled()],
            "algorithm": self._algorithm.export_state(),
        }

    @classmethod
    def restore(
        cls,
        state: Mapping[str, Any],
        collector: Optional[StatsCollector] = None,
    ) -> "PlacementService":
        """Rebuild a service from a :meth:`snapshot` document."""
        if state.get("schema") != SNAPSHOT_SCHEMA:
            raise ConfigurationError(
                f"not a service snapshot (schema {state.get('schema')!r}, "
                f"expected {SNAPSHOT_SCHEMA!r})"
            )
        svc = cls(
            policy=state["policy"],
            capacity=state["capacity"],
            seed=state.get("seed", 0),
            collector=collector,
        )
        svc._now = float(state["now"])
        svc._next_uid = int(state["next_uid"])
        svc._fit_checks = int(state["counters"].get("fit_checks", 0))
        svc._candidate_scans = int(state["counters"].get("candidate_scans", 0))
        bins = []
        for rec in state["bins"]:
            b = StreamBin(
                svc.capacity, index=int(rec["index"]), opened_at=float(rec["opened_at"])
            )
            for it_rec in rec["items"]:
                b.pack(Item(  # re-folds the load in original pack order
                    float(it_rec["arrival"]),
                    float(it_rec["departure"]),
                    np.asarray(it_rec["size"], dtype=np.float64),
                    uid=int(it_rec["uid"]),
                ))
            # pack() tracked only the residents' max departure; the true
            # high-water mark may come from an already-departed member
            b.latest_departure = float(rec["latest_departure"])
            bins.append(b)
        core = svc._core
        core.restore(
            bins, state["pending"], state["counters"],
            bins_opened=state["next_bin_index"], cost_closed=state["cost_closed"],
        )
        svc._algorithm.import_state(state["algorithm"], core.open_bins)
        return svc

    def snapshot_to(self, path: str) -> str:
        """Persist :meth:`snapshot` crash-safely; return the path.

        Uses the checkpoint store's atomic-write primitive (temp file +
        fsync + rename + directory fsync) and embeds a SHA-256 checksum
        so :meth:`restore_from` can reject torn or hand-edited files.
        """
        state = self.snapshot()
        body = json.dumps(state, sort_keys=True)
        document = json.dumps(
            {"sha256": hashlib.sha256(body.encode("utf-8")).hexdigest(),
             "state": state},
            sort_keys=True, indent=2,
        )
        atomic_write(path, document + "\n")
        return path

    @classmethod
    def restore_from(
        cls, path: str, collector: Optional[StatsCollector] = None
    ) -> "PlacementService":
        """Load a :meth:`snapshot_to` file, verifying its checksum."""
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
        body = json.dumps(document["state"], sort_keys=True)
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        if digest != document["sha256"]:
            raise ConfigurationError(
                f"service snapshot {path!r} failed its checksum "
                f"(stored {document['sha256'][:12]}…, computed {digest[:12]}…)"
            )
        return cls.restore(document["state"], collector=collector)


def serve_loop(
    service: PlacementService,
    requests: Iterable[str],
    write: Callable[[str], None],
) -> int:
    """Drive ``service`` over a JSON-lines request/response protocol.

    One request object per input line, one response object per output
    line — ``repro serve`` wires this to stdin/stdout; tests drive it
    with plain lists.  Requests carry an ``"op"`` key:

    * ``{"op": "place", "size": s, "duration": …}`` (or ``"departure"``,
      ``"at"``, ``"item_id"``) →
      ``{"ok": true, "bin": i, "item_id": uid, "now": t}``;
    * ``{"op": "depart", "item_id": uid, "at": …}`` →
      ``{"ok": true, "closed": bool, "now": t}``;
    * ``{"op": "advance", "to": t}`` →
      ``{"ok": true, "departed": k, "now": t}``;
    * ``{"op": "stats"}`` → ``{"ok": true, "stats": {…}, "cost": c,
      "live_items": n, "open_bins": m, "now": t}`` (``stats`` is
      :meth:`PlacementService.stats` without ``dispatch_time_s``);
    * ``{"op": "snapshot", "path": p}`` → ``{"ok": true, "path": p}``
      (checksummed file via :meth:`PlacementService.snapshot_to`);
      without ``"path"`` the state document is returned inline under
      ``"state"``;
    * ``{"op": "quit"}`` → ``{"ok": true, "bye": true}`` and the loop
      returns early.

    A malformed or failing request yields ``{"ok": false, "error": msg}``
    and the loop continues — one bad client line must not take the
    service down.  Blank lines are skipped.  Returns the number of
    requests handled.
    """
    import dataclasses

    handled = 0
    for raw in requests:
        raw = raw.strip()
        if not raw:
            continue
        handled += 1
        try:
            req = json.loads(raw)
            if not isinstance(req, dict):
                raise ConfigurationError(
                    f"a request must be a JSON object, got {type(req).__name__}"
                )
            op = req.get("op")
            if op == "place":
                uid = req["item_id"] if req.get("item_id") is not None \
                    else service._next_uid
                bin_index = service.place(
                    req["size"],
                    duration=req.get("duration"),
                    departure=req.get("departure"),
                    at=req.get("at"),
                    item_id=req.get("item_id"),
                )
                resp = {
                    "ok": True, "bin": bin_index, "item_id": int(uid),
                    "now": service.now,
                }
            elif op == "depart":
                closed = service.depart(req["item_id"], at=req.get("at"))
                resp = {"ok": True, "closed": closed, "now": service.now}
            elif op == "advance":
                departed = service.advance(req["to"])
                resp = {"ok": True, "departed": departed, "now": service.now}
            elif op == "stats":
                stats = dataclasses.asdict(service.stats())
                # a restored service must answer like the original, so
                # the reply leaves out the one timing
                del stats["dispatch_time_s"]
                resp = {
                    "ok": True,
                    "stats": stats,
                    "cost": service.cost,
                    "live_items": service.live_items,
                    "open_bins": service.open_bins,
                    "now": service.now,
                }
            elif op == "snapshot":
                if req.get("path"):
                    resp = {"ok": True, "path": service.snapshot_to(req["path"])}
                else:
                    resp = {"ok": True, "state": service.snapshot()}
            elif op == "quit":
                write(json.dumps({"ok": True, "bye": True}))
                break
            else:
                resp = {"ok": False, "error": f"unknown op {op!r}"}
        except (DVBPError, ValueError, KeyError, TypeError, OSError) as exc:
            resp = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        write(json.dumps(resp))
    return handled


__all__.append("serve_loop")
