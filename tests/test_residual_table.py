"""The Any Fit live residual table.

:class:`~repro.algorithms.base.AnyFitAlgorithm` keeps one load row per
bin of ``L`` instead of re-stacking the open list on every arrival.  The
rows must stay bitwise equal to the bins' own loads through every path
that changes a load — a dispatch, a departure that leaves the bin open,
and the destination of a repacking move — and through a service
snapshot/restore; the work counters must keep their meaning.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.algorithms.base import ResidualTable
from repro.algorithms.move_to_front import MoveToFront
from repro.algorithms.registry import make_algorithm
from repro.core.bins import Bin
from repro.core.items import Item
from repro.observability.stats import StatsCollector
from repro.repacking.engine import RepackingEngine
from repro.repacking.ledger import MigrationLedger
from repro.repacking.policies import GreedyConsolidate
from repro.simulation.engine import SimulationObserver, simulate
from repro.streaming.engine import StreamingEngine
from repro.streaming.service import PlacementService, serve_loop
from repro.workloads.poisson import PoissonWorkload
from repro.workloads.uniform import UniformWorkload

POLICIES = (
    "move_to_front", "first_fit", "best_fit", "worst_fit",
    "last_fit", "random_fit", "next_fit",
)


def _make(name):
    return make_algorithm(name, **({"seed": 5} if name == "random_fit" else {}))


def assert_rows_exact(algorithm) -> int:
    """Every bin of ``L`` has its table row bitwise equal to its load.

    Returns the number of rows compared.  Next Fit keeps no table.
    """
    table = algorithm._table
    open_list = list(algorithm.open_list)
    if algorithm.name == "next_fit":
        assert table is None
        return 0
    if table is None or not open_list:
        return 0
    rows = table.rows_for(open_list)
    expected = np.stack([b.load for b in open_list])
    assert rows.dtype == expected.dtype and rows.shape == expected.shape
    assert rows.tobytes() == expected.tobytes(), "stale residual row"
    return len(open_list)


class RowGuard(SimulationObserver):
    """Checks the table after every arrival and departure."""

    def __init__(self) -> None:
        self.algorithm = None
        self.checked = 0

    def on_start(self, instance, algorithm) -> None:
        self.algorithm = algorithm

    def on_packed(self, bin_, item, now, opened_new) -> None:
        self.checked += assert_rows_exact(self.algorithm)

    def on_departed(self, bin_, item, now, closed) -> None:
        self.checked += assert_rows_exact(self.algorithm)


class GuardedConsolidate(GreedyConsolidate):
    """Greedy consolidation that checks the table after its window."""

    def __init__(self, algorithm) -> None:
        self.algorithm = algorithm
        self.checked = 0

    def after_event(self, ctx, kind, now) -> None:
        super().after_event(ctx, kind, now)
        self.checked += assert_rows_exact(self.algorithm)


@pytest.fixture(scope="module")
def instance():
    return UniformWorkload(d=2, n=300, mu=20, T=100).sample_seeded(7)


class TestRowsStayExact:
    @pytest.mark.parametrize("name", POLICIES)
    def test_classic_engine(self, name, instance):
        guard = RowGuard()
        packing = simulate(_make(name), instance, observers=[guard])
        assert packing.num_bins > 1
        if name != "next_fit":
            assert guard.checked > instance.n

    @pytest.mark.parametrize("name", POLICIES)
    def test_repacking_moves(self, name, instance):
        algorithm = _make(name)
        repacker = GuardedConsolidate(algorithm)
        engine = RepackingEngine(
            instance, algorithm, repacker,
            ledger=MigrationLedger(budget=2, mode="per_event"),
            observers=[RowGuard()],
        )
        result = engine.run()
        assert result.num_moves > 0  # relocate really ran
        if name != "next_fit":
            assert repacker.checked > 0

    @pytest.mark.parametrize("name", POLICIES)
    def test_service_snapshot_and_restore(self, name):
        source = PoissonWorkload(d=2, rate=40.0, horizon=6.0)
        items = source.sample(np.random.default_rng(11)).items
        kwargs = {"seed": 5} if name == "random_fit" else {}
        svc = PlacementService(policy=name, capacity=source.capacity, **kwargs)
        twin = PlacementService(policy=name, capacity=source.capacity, **kwargs)
        explicit = []
        for k, it in enumerate(items):
            due = [e for e in explicit if e[0] <= it.arrival]
            explicit = [e for e in explicit if e[0] > it.arrival]
            scheduled = k % 2 == 0
            for service in (svc, twin):
                for t, uid in sorted(due):
                    service.depart(uid, at=t)
                    assert_rows_exact(service._algorithm)
                service.place(
                    it.size, departure=it.departure if scheduled else None,
                    at=it.arrival, item_id=it.uid,
                )
                assert_rows_exact(service._algorithm)
            if not scheduled:
                explicit.append((it.departure, it.uid))
            if k == len(items) // 2:
                svc = PlacementService.restore(json.loads(json.dumps(svc.snapshot())))
                assert_rows_exact(svc._algorithm)
        assert svc.snapshot() == twin.snapshot()

    def test_streaming_engine(self):
        class GuardedMoveToFront(MoveToFront):
            checked = 0

            def dispatch(self, item, now, open_new_bin):
                self.checked += assert_rows_exact(self)
                return super().dispatch(item, now, open_new_bin)

            def notify_departure(self, bin_, item, now, closed):
                super().notify_departure(bin_, item, now, closed)
                self.checked += assert_rows_exact(self)

        algorithm = GuardedMoveToFront()
        source = PoissonWorkload(d=2, rate=50.0, horizon=10.0)
        StreamingEngine(algorithm, source.capacity).run(
            source.stream(np.random.default_rng(3))
        )
        assert algorithm.checked > 0


class TestWorkCounters:
    """``fit_checks``/``candidate_scans`` pinned from the pre-table engine.

    One scan per arrival with a non-empty ``L``; ``len(L)`` checks per
    scan.  Values captured from the implementation that re-stacked the
    open list on every arrival.
    """

    PINNED = {  # name: (candidate_scans, fit_checks, bins)
        "move_to_front": (299, 7066, 162),
        "first_fit": (299, 7179, 164),
        "best_fit": (299, 6955, 147),
        "worst_fit": (299, 7288, 168),
        "last_fit": (299, 6989, 160),
        "random_fit": (299, 7105, 157),
        "next_fit": (297, 297, 244),
    }

    @pytest.mark.parametrize("name", POLICIES)
    def test_pinned(self, name, instance):
        collector = StatsCollector()
        packing = simulate(_make(name), instance, collector=collector)
        stats = collector.snapshot()
        assert (stats.candidate_scans, stats.fit_checks, packing.num_bins) == \
            self.PINNED[name]


class TestServiceStats:
    def _five_places(self):
        svc = PlacementService(policy="first_fit", capacity=1.0)
        for i in range(5):
            svc.place(0.4, duration=10.0, at=float(i))
        return svc

    def test_stats_report_dispatch_work(self):
        stats = self._five_places().stats()
        assert (stats.fit_checks, stats.candidate_scans) == (6, 4)
        assert stats.dispatch_time_s > 0.0

    def test_own_work_with_a_shared_collector(self):
        shared = StatsCollector()
        shared.fit_checks, shared.candidate_scans = 100, 50
        svc = PlacementService(policy="first_fit", capacity=1.0, collector=shared)
        for i in range(5):
            svc.place(0.4, duration=10.0, at=float(i))
        assert (svc.stats().fit_checks, svc.stats().candidate_scans) == (6, 4)
        assert (shared.fit_checks, shared.candidate_scans) == (106, 54)

    def test_stats_op_reports_dispatch_work(self):
        svc = self._five_places()
        out = []
        serve_loop(svc, ['{"op": "stats"}'], out.append)
        stats = json.loads(out[0])["stats"]
        assert (stats["fit_checks"], stats["candidate_scans"]) == (6, 4)
        assert "dispatch_time_s" not in stats  # a timing: not replayable

    def test_counters_survive_snapshot_restore(self):
        svc = self._five_places()
        restored = PlacementService.restore(json.loads(json.dumps(svc.snapshot())))
        stats = restored.stats()
        assert (stats.fit_checks, stats.candidate_scans) == (6, 4)
        assert stats.dispatch_time_s == 0.0
        for service in (svc, restored):
            service.place(0.4, duration=10.0, at=6.0)
        assert restored.snapshot() == svc.snapshot()
        assert restored.stats().fit_checks == svc.stats().fit_checks == 9


class TestResidualTable:
    CAP = np.array([1.0, 1.0])

    def _bin(self, index, *loads):
        b = Bin(self.CAP, index=index, opened_at=0.0)
        for uid, load in enumerate(loads):
            b.pack(Item(0.0, 1.0, np.asarray(load, dtype=np.float64), uid=uid))
        return b

    def test_closed_slot_is_reused(self):
        table = ResidualTable(self.CAP)
        bins = [self._bin(i, [0.01 * i, 0.5]) for i in range(len(table.rows))]
        table.fitting(bins, np.array([0.1, 0.1]))
        size = len(table.rows)
        table.release(bins[0])  # bins[0] closed
        fresh = self._bin(99, [0.9, 0.0])
        kept = bins[1:] + [fresh]
        table.add(fresh, kept)
        assert len(table.rows) == size  # took the closed bin's slot
        assert table.fitting(kept, np.array([0.05, 0.05])) == kept
        assert table.rows_for(kept).tolist() == [b.load.tolist() for b in kept]

    def test_grows_and_reclaims_bins_that_left_the_list(self):
        table = ResidualTable(self.CAP)
        size = len(table.rows)
        bins = [self._bin(i, [0.01 * i, 0.0]) for i in range(size + 1)]
        assert table.fitting(bins, np.array([0.5, 0.0])) == bins
        grown = len(table.rows)
        assert grown > size
        # three bins leave L without closing; their slots are reclaimed
        # before the matrix grows again
        kept = bins[3:]
        kept += [self._bin(100 + i, [0.0, 0.1]) for i in range(grown - len(kept))]
        assert table.fitting(kept, np.array([0.0, 0.9])) == kept
        assert len(table.rows) == grown
        assert table.rows_for(kept).tolist() == [b.load.tolist() for b in kept]

    def test_matches_fits_batch_at_the_boundary(self):
        from repro.core.vectors import fits_batch

        rng = np.random.default_rng(0)
        loads = np.round(rng.uniform(0, 1, size=(64, 3)), 1)
        cap = np.ones(3)
        table = ResidualTable(cap)
        bins = []
        for i, row in enumerate(loads):
            b = Bin(cap, index=i, opened_at=0.0)
            b.pack(Item(0.0, 1.0, row, uid=i))
            bins.append(b)
        for size in (np.full(3, 0.1), np.full(3, 0.5), np.array([0.3, 0.0, 0.7])):
            expected = [b for b, ok in zip(bins, fits_batch(loads, size, cap)) if ok]
            assert table.fitting(bins, size) == expected

    def test_next_fit_keeps_no_table(self, instance):
        algorithm = _make("next_fit")
        simulate(algorithm, instance)
        assert algorithm._table is None
