"""Tests for the heterogeneous-fleet extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import AlgorithmError, ConfigurationError, PackingAuditError
from repro.core.instance import Instance
from repro.core.items import Item
from repro.heterogeneous import (
    DEFAULT_FLEET,
    Fleet,
    ServerType,
    TypedAnyFit,
    TypedEngine,
    typed_run,
)
from repro.workloads.distributions import DirichletSize
from repro.workloads.poisson import PoissonWorkload


@pytest.fixture
def workload_instance():
    gen = PoissonWorkload(d=2, rate=1.0, horizon=40,
                          sizes=DirichletSize(min_mag=0.05, max_mag=0.8))
    return gen.sample_seeded(1)


class TestServerType:
    def test_basic_properties(self):
        t = ServerType("big", (2.0, 4.0), 3.0)
        assert t.d == 2
        assert t.cost_density == pytest.approx(3.0 / 4.0)

    def test_fits_item(self):
        t = ServerType("small", (1.0, 1.0), 1.0)
        assert t.fits_item(Item(0, 1, np.array([1.0, 0.5]), 0))
        assert not t.fits_item(Item(0, 1, np.array([1.1, 0.5]), 0))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ServerType("bad", (0.0,), 1.0)
        with pytest.raises(ConfigurationError):
            ServerType("bad", (1.0,), 0.0)


class TestFleet:
    def test_default_fleet_shape(self):
        assert len(DEFAULT_FLEET) == 3
        assert DEFAULT_FLEET.d == 2

    def test_cheapest_feasible(self):
        item = Item(0, 1, np.array([1.5, 0.5]), 0)  # too big for "small"
        t = DEFAULT_FLEET.cheapest_feasible(item)
        assert t.name == "large"

    def test_best_value_prefers_scale(self):
        item = Item(0, 1, np.array([0.5, 0.5]), 0)
        t = DEFAULT_FLEET.best_value_feasible(item)
        assert t.name == "xlarge"  # lowest cost density in DEFAULT_FLEET

    def test_infeasible_item_rejected(self):
        item = Item(0, 1, np.array([100.0, 0.1]), 0)
        with pytest.raises(ConfigurationError):
            DEFAULT_FLEET.cheapest_feasible(item)

    def test_by_name(self):
        assert DEFAULT_FLEET.by_name("small").cost_rate == 1.0
        with pytest.raises(KeyError):
            DEFAULT_FLEET.by_name("teapot")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Fleet([])
        with pytest.raises(ConfigurationError):
            Fleet([ServerType("a", (1.0,), 1.0), ServerType("a", (2.0,), 1.0)])
        with pytest.raises(ConfigurationError):
            Fleet([ServerType("a", (1.0,), 1.0), ServerType("b", (1.0, 1.0), 1.0)])


class TestTypedRuns:
    @pytest.mark.parametrize("opening_rule", ["cheapest", "best_value"])
    @pytest.mark.parametrize("selection", ["recent", "first", "cheapest_rate"])
    def test_all_policy_combinations_feasible(
        self, workload_instance, opening_rule, selection
    ):
        algo = TypedAnyFit(DEFAULT_FLEET, opening_rule=opening_rule,
                           selection=selection)
        packing = typed_run(algo, workload_instance, validate=True)
        assert packing.cost > 0
        assert set(packing.assignment) == {it.uid for it in workload_instance.items}

    def test_cost_is_rate_weighted(self):
        # one item on a "large" (rate 1.8) for 2 time units
        inst = Instance([Item(0, 2, np.array([1.5, 0.5]), 0)], capacity=[4.0, 4.0])
        algo = TypedAnyFit(DEFAULT_FLEET, opening_rule="cheapest")
        packing = typed_run(algo, inst)
        assert packing.bins[0].type_name == "large"
        assert packing.cost == pytest.approx(2 * 1.8)

    def test_oversized_per_type_items_split_across_types(self):
        # items of max demand 1.5 can never use "small"
        inst = Instance(
            [Item(0, 1, np.array([1.5, 0.2]), i) for i in range(4)],
            capacity=[4.0, 4.0],
        )
        algo = TypedAnyFit(DEFAULT_FLEET, opening_rule="cheapest")
        packing = typed_run(algo, inst, validate=True)
        assert all(rec.type_name in ("large", "xlarge") for rec in packing.bins)

    def test_any_fit_property_across_types(self, workload_instance):
        """A new server is opened only when no open server fits."""
        algo = TypedAnyFit(DEFAULT_FLEET, opening_rule="cheapest")
        packing = typed_run(algo, workload_instance)
        # replay chronologically
        from repro.core.events import EventKind, event_stream
        from repro.core.vectors import EPS

        caps = {rec.index: DEFAULT_FLEET.by_name(rec.type_name).capacity_array
                for rec in packing.bins}
        loads, members = {}, {}
        for ev in event_stream(workload_instance):
            b = packing.assignment[ev.item.uid]
            if ev.kind is EventKind.DEPARTURE:
                members[b].discard(ev.item.uid)
                loads[b] = loads[b] - ev.item.size
                if not members[b]:
                    del members[b], loads[b]
                continue
            if b not in loads:
                for other, load in loads.items():
                    cap = caps[other]
                    slack = cap + EPS * np.maximum(cap, 1.0)
                    assert np.any(load + ev.item.size > slack), (
                        f"typed Any Fit violated at item {ev.item.uid}"
                    )
                loads[b] = np.zeros(workload_instance.d)
                members[b] = set()
            loads[b] = loads[b] + ev.item.size
            members[b].add(ev.item.uid)

    def test_single_type_fleet_matches_homogeneous_mf(self, workload_instance):
        """With one unit-capacity type and recency selection, the typed
        engine is exactly Move To Front."""
        from repro.simulation.runner import run

        fleet = Fleet([ServerType("unit", (1.0, 1.0), 1.0)])
        typed = typed_run(TypedAnyFit(fleet, opening_rule="cheapest"), workload_instance)
        plain = run("move_to_front", workload_instance)
        assert typed.assignment == dict(plain.assignment)
        assert typed.cost == pytest.approx(plain.cost)

    def test_engine_single_use(self, workload_instance):
        engine = TypedEngine(workload_instance, TypedAnyFit(DEFAULT_FLEET))
        engine.run()
        with pytest.raises(AlgorithmError):
            engine.run()

    def test_policy_returning_no_bin_raises_algorithm_error(self, workload_instance):
        class NoBin(TypedAnyFit):
            def dispatch(self, item, now, open_new_bin):
                return None

        with pytest.raises(AlgorithmError, match="returned no bin"):
            typed_run(NoBin(DEFAULT_FLEET), workload_instance)

    def test_policy_opening_two_bins_raises_algorithm_error(self, workload_instance):
        class TwoBins(TypedAnyFit):
            def dispatch(self, item, now, open_new_bin):
                stype = self.fleet.cheapest_feasible(item)
                open_new_bin(stype)
                return open_new_bin(stype)

        with pytest.raises(AlgorithmError, match="opened two bins"):
            typed_run(TwoBins(DEFAULT_FLEET), workload_instance)

    def test_every_bin_closes_at_its_last_departure(self, workload_instance):
        packing = typed_run(TypedAnyFit(DEFAULT_FLEET), workload_instance)
        by_uid = {it.uid: it for it in workload_instance.items}
        for rec in packing.bins:
            assert rec.closed_at == max(by_uid[u].departure for u in rec.item_uids)

    def test_dimension_mismatch_rejected(self):
        inst = Instance([Item(0, 1, np.array([0.5]), 0)])
        with pytest.raises(ConfigurationError):
            TypedEngine(inst, TypedAnyFit(DEFAULT_FLEET))

    def test_invalid_policy_options(self):
        with pytest.raises(ConfigurationError):
            TypedAnyFit(DEFAULT_FLEET, opening_rule="random")
        with pytest.raises(ConfigurationError):
            TypedAnyFit(DEFAULT_FLEET, selection="middle")

    def test_validate_catches_corruption(self, workload_instance):
        algo = TypedAnyFit(DEFAULT_FLEET)
        packing = typed_run(algo, workload_instance)
        bad = TypedPacking = type(packing)(
            instance=packing.instance,
            fleet=packing.fleet,
            assignment={**packing.assignment, workload_instance[0].uid: 9999},
            bins=packing.bins,
            algorithm=packing.algorithm,
        )
        # mangled assignment still covers uids, so corrupt a bin's type
        from repro.heterogeneous.engine import TypedBinRecord

        shrunk = tuple(
            TypedBinRecord(r.index, "small", r.cost_rate, r.opened_at,
                           r.closed_at, r.item_uids)
            for r in packing.bins
        )
        candidate = type(packing)(
            instance=packing.instance, fleet=packing.fleet,
            assignment=packing.assignment, bins=shrunk,
            algorithm=packing.algorithm,
        )
        # shrinking every bin to "small" must break some capacity check
        # whenever the original run used a bigger type
        if any(r.type_name != "small" for r in packing.bins):
            with pytest.raises(PackingAuditError):
                candidate.validate()


class TestEconomics:
    def test_best_value_beats_cheapest_under_heavy_load(self):
        """With heavy load, economies of scale win: opening big boxes is
        cheaper per unit of work."""
        gen = PoissonWorkload(d=2, rate=10.0, horizon=40,
                              sizes=DirichletSize(min_mag=0.1, max_mag=0.9))
        cheap_total = value_total = 0.0
        for seed in range(4):
            inst = gen.sample_seeded(seed)
            cheap_total += typed_run(
                TypedAnyFit(DEFAULT_FLEET, opening_rule="cheapest"), inst
            ).cost
            value_total += typed_run(
                TypedAnyFit(DEFAULT_FLEET, opening_rule="best_value"), inst
            ).cost
        assert value_total < cheap_total


class TestHeterogeneousProperties:
    """Hypothesis properties over random instances."""

    @staticmethod
    def _fleet():
        return Fleet(
            [
                ServerType("s", (1.0, 1.0), 1.0),
                ServerType("l", (2.5, 2.5), 2.0),
            ]
        )

    def test_feasible_on_random_instances(self):
        from hypothesis import HealthCheck, given, settings
        from tests.test_properties import instances

        @given(inst=instances(max_items=20, max_d=2))
        @settings(max_examples=20, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        def check(inst):
            if inst.d != 2:
                return
            for rule in ("cheapest", "best_value"):
                algo = TypedAnyFit(self._fleet(), opening_rule=rule)
                packing = typed_run(algo, inst, validate=True)
                assert packing.cost > 0
                # typed cost is rate-weighted usage: at least span * min rate
                assert packing.cost >= inst.span * 1.0 - 1e-9

        check()

    def test_cost_at_least_homogeneous_lb_scaled(self):
        """With all rates >= 1 and the smallest capacity equal to the
        instance capacity, the typed bill is at least the homogeneous
        Lemma 1 span bound."""
        from repro.optimum.lower_bounds import span_lower_bound

        gen = PoissonWorkload(d=2, rate=2.0, horizon=30,
                              sizes=DirichletSize(min_mag=0.05, max_mag=0.8))
        for seed in range(3):
            inst = gen.sample_seeded(seed)
            packing = typed_run(TypedAnyFit(self._fleet()), inst)
            assert packing.cost >= span_lower_bound(inst) - 1e-9
