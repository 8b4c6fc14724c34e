"""Stateful fuzzing of the placement service's request boundary.

A Hypothesis state machine sends mixed valid and hostile ``place``,
``depart``, ``advance``, ``stats`` and ``snapshot`` requests through
:func:`~repro.streaming.service.serve_loop`, one JSON line at a time,
and restores services from the inline snapshots.  Invariants:

* every request line gets exactly one response;
* a rejected request leaves ``json.dumps(svc.snapshot(), sort_keys=True)``
  byte-identical;
* a service restored from a snapshot taken at any step answers every
  later request exactly as the original does (same bins, same costs).

At teardown the accepted requests are replayed, each item carrying its
actual departure time, through the brute-force
:class:`~repro.verify.reference.ReferenceSimulator`, which shares no
loop code with the service; bins and Eq. 1 cost must match bit for bit.
Explicit departures are always timed strictly after the latest
placement, so the replay's departures-first order at equal times is the
order the service saw the calls in.  Times lie on a quarter grid and
sizes are integers, so every Eq. 1 sum is exact and the service's
close-order total equals the reference packing's bin-order total.
"""

from __future__ import annotations

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    rule,
    run_state_machine_as_test,
)

import numpy as np

from repro.core.instance import Instance
from repro.core.items import Item
from repro.core.packing import Packing
from repro.streaming import PlacementService, serve_loop
from repro.verify.reference import REFERENCE_POLICIES, ReferenceSimulator

CAPACITY = [8.0, 8.0]

sizes = st.lists(st.integers(1, 8), min_size=2, max_size=2).map(
    lambda v: [float(x) for x in v]
)
waits = st.integers(0, 8).map(lambda k: k / 4)   # may leave the clock as is
spans = st.integers(1, 16).map(lambda k: k / 4)  # strictly positive

HOSTILE = [
    "not_object", "bad_json", "unknown_op", "missing_size", "oversize",
    "wrong_dim", "nan_duration", "zero_duration", "both_schedules",
    "departure_not_after", "past_at", "infinite_at", "bool_id", "string_id",
    "float_id", "live_id", "depart_unknown", "depart_past", "depart_missing",
    "advance_past", "advance_nan", "advance_string",
]


class ServiceMachine(RuleBasedStateMachine):
    """Drives one service (plus a restored shadow) over serve_loop."""

    @initialize(policy=st.sampled_from(sorted(REFERENCE_POLICIES)),
                seed=st.integers(0, 3))
    def start(self, policy, seed):
        self.policy, self.seed = policy, seed
        self.svc = PlacementService(policy=policy, capacity=CAPACITY, seed=seed)
        self.shadow = None
        #: accepted placements in call order: uid -> record
        self.items = {}
        self.explicit_ids = 0

    # -- plumbing ------------------------------------------------------
    def send(self, request) -> dict:
        line = request if isinstance(request, str) else json.dumps(request)
        out = []
        assert serve_loop(self.svc, [line], out.append) == 1
        assert len(out) == 1, out
        if self.shadow is not None:
            shadow_out = []
            serve_loop(self.shadow, [line], shadow_out.append)
            assert shadow_out == out
        return json.loads(out[0])

    def accept(self, request) -> dict:
        resp = self.send(request)
        assert resp["ok"], (request, resp)
        return resp

    def reject(self, request) -> None:
        before = json.dumps(self.svc.snapshot(), sort_keys=True)
        resp = self.send(request)
        assert resp["ok"] is False, (request, resp)
        assert json.dumps(self.svc.snapshot(), sort_keys=True) == before

    def live_at(self, t):
        """Uids still resident once the clock reaches ``t``."""
        return sorted(
            uid for uid, rec in self.items.items()
            if rec["end"] is None or rec["end"] > t
        )

    # -- valid requests ------------------------------------------------
    @rule(size=sizes, wait=waits, span=spans,
          mode=st.sampled_from(["duration", "departure", "open"]),
          explicit_id=st.booleans())
    def place(self, size, wait, span, mode, explicit_id):
        at = self.svc.now + wait
        req = {"op": "place", "size": size, "at": at}
        if mode == "duration":
            req["duration"] = span
        elif mode == "departure":
            req["departure"] = at + span
        if explicit_id:
            # counts down from far above every auto-assigned uid, so
            # explicit and automatic ids never meet
            self.explicit_ids += 1
            req["item_id"] = 10**6 - self.explicit_ids
        resp = self.accept(req)
        assert resp["now"] == at
        self.items[resp["item_id"]] = {
            "arrival": at,
            "end": None if mode == "open" else at + span,
            "size": size,
            "bin": resp["bin"],
        }

    @rule(data=st.data(), wait=spans)
    def depart(self, data, wait):
        at = self.svc.now + wait  # strictly after every placement so far
        live = self.live_at(at)
        if not live:
            return
        uid = data.draw(st.sampled_from(live))
        self.accept({"op": "depart", "item_id": uid, "at": at})
        self.items[uid]["end"] = at

    @rule(wait=waits)
    def advance(self, wait):
        to = self.svc.now + wait
        resp = self.accept({"op": "advance", "to": to})
        assert resp["now"] == to

    @rule()
    def stats(self):
        resp = self.accept({"op": "stats"})
        assert resp["live_items"] == len(self.live_at(resp["now"]))

    @rule()
    def snapshot_and_restore(self):
        state = self.accept({"op": "snapshot"})["state"]  # a JSON round trip
        self.shadow = PlacementService.restore(state)
        assert json.dumps(self.shadow.snapshot(), sort_keys=True) == json.dumps(
            state, sort_keys=True
        )

    # -- hostile requests ----------------------------------------------
    @rule(kind=st.sampled_from(HOSTILE), size=sizes)
    def hostile(self, kind, size):
        now = self.svc.now
        live = self.live_at(now)
        place = {"op": "place", "size": size, "duration": 1.0}
        if kind == "not_object":
            request = "[1, 2]"
        elif kind == "bad_json":
            request = '{"op": "place", '
        elif kind == "unknown_op":
            request = {"op": "teleport"}
        elif kind == "missing_size":
            request = {"op": "place", "duration": 1.0}
        elif kind == "oversize":
            request = dict(place, size=[9.0, size[1]])
        elif kind == "wrong_dim":
            request = dict(place, size=size + [1.0])
        elif kind == "nan_duration":
            request = '{"op": "place", "size": %s, "duration": NaN}' % json.dumps(size)
        elif kind == "zero_duration":
            request = dict(place, duration=0.0)
        elif kind == "both_schedules":
            request = dict(place, departure=now + 2.0)
        elif kind == "departure_not_after":
            request = {"op": "place", "size": size, "departure": now, "at": now}
        elif kind == "past_at":
            request = dict(place, at=now - 1.0)
        elif kind == "infinite_at":
            request = dict(place, at=float("inf"))
        elif kind == "bool_id":
            request = dict(place, item_id=True)
        elif kind == "string_id":
            request = dict(place, item_id="7")
        elif kind == "float_id":
            request = dict(place, item_id=1.5)
        elif kind == "live_id" and live:
            request = dict(place, item_id=live[0])
        elif kind == "depart_past" and live:
            request = {"op": "depart", "item_id": live[0], "at": now - 1.0}
        elif kind in ("live_id", "depart_past", "depart_unknown"):
            request = {"op": "depart", "item_id": 10**9}
        elif kind == "depart_missing":
            request = {"op": "depart"}
        elif kind == "advance_past":
            request = {"op": "advance", "to": now - 1.0}
        elif kind == "advance_nan":
            request = '{"op": "advance", "to": NaN}'
        else:
            request = {"op": "advance", "to": "soon"}
        self.reject(request)

    # -- the model check -----------------------------------------------
    def teardown(self):
        if not hasattr(self, "svc"):
            return
        # close out: depart the open-ended residents strictly after the
        # latest placement, then run the schedule out
        t_end = self.svc.now + 1.0
        for uid in self.live_at(t_end):
            if self.items[uid]["end"] is None:
                self.accept({"op": "depart", "item_id": uid, "at": t_end})
                self.items[uid]["end"] = t_end
        horizon = max([t_end] + [rec["end"] for rec in self.items.values()])
        self.accept({"op": "advance", "to": horizon})
        assert self.svc.live_items == 0 and self.svc.open_bins == 0
        if not self.items:
            assert self.svc.cost == 0.0
            return
        instance = Instance(
            [
                Item(rec["arrival"], rec["end"], np.asarray(rec["size"]), uid=uid)
                for uid, rec in self.items.items()
            ],
            capacity=CAPACITY,
        )
        reference = ReferenceSimulator(self.policy, seed=self.seed).run(instance)
        assert reference.assignment == {
            uid: rec["bin"] for uid, rec in self.items.items()
        }
        assert reference.num_bins == self.svc.stats().bins_opened
        assert self.svc.cost == Packing.from_assignment(instance, reference.assignment).cost


def test_service_state_machine():
    run_state_machine_as_test(ServiceMachine, settings=settings(stateful_step_count=30))


@pytest.mark.fuzz
def test_service_state_machine_deep():
    run_state_machine_as_test(
        ServiceMachine, settings=settings(max_examples=300, stateful_step_count=80)
    )
