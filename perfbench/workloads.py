"""The four benchmark workloads, their correctness gates and layer probes.

Every workload builds its inputs from the benchmark seed in
:meth:`Workload.setup`, runs one repetition of its timed phase in
:meth:`Workload.run_once` through the public API of ``repro``, and checks
a repetition's output in :meth:`Workload.gate` against an independent
replay.  With a :class:`~perfbench.tracer.Tracer` passed in,
``run_once`` wraps the public entry points of the layers it exercises
and records one span per call (see :mod:`perfbench.tracer`).

Why each workload is here is in ``perfbench/README.md``.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import json
import os
import pickle
import shutil
import tempfile
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.registry import PAPER_ALGORITHMS, make_algorithm
from repro.core.errors import PackingAuditError
from repro.core.instance import Instance
from repro.core.packing import Packing
from repro.experiments.config import FULL, ExperimentConfig
from repro.experiments.figure4 import run_figure4
from repro.observability.stats import StatsCollector
from repro.optimum.lower_bounds import height_lower_bound
from repro.simulation.batch import BatchRunner, clear_instance_cache
from repro.simulation.parallel import derive_unit_seeds
from repro.simulation.runner import run
from repro.streaming.engine import StreamingEngine
from repro.streaming.service import PlacementService
from repro.verify.reference import ReferenceSimulator
from repro.workloads.base import generate_batch
from repro.workloads.poisson import PoissonWorkload
from repro.workloads.uniform import UniformWorkload

from .calibrate import handler_wall
from .harness import reap_children
from .tracer import BUSY, END, ID, ROOT_LAYER, START, Tracer, maybe_span

__all__ = ["GateReport", "Sample", "Workload", "WORKLOADS"]

#: Instances per Figure 4 cell (the paper uses 1000; three keep one
#: repetition near 3 s so a run holds several).
FIG4_M = 3
#: Fleet instance: mean concurrency n * 100.5 / T, about 1,000 live items.
FLEET_N, FLEET_T, FLEET_MU, FLEET_TRIALS = 10_000, 1_000, 200, 4
#: Service trace: Poisson rate 100 over this horizon, about 12k requests.
SERVICE_HORIZON, SERVICE_SNAPSHOT_EVERY = 120.0, 2000
#: Stream: Poisson rate 2000 over this horizon, about 30k items; the live
#: set levels off near 11k items within the first few time units.
STREAM_HORIZON = 15.0
#: Longest stream the gate replays through the reference simulator.
REFERENCE_BOUND = 60_000


@dataclass
class Sample:
    """One timed repetition: wall and CPU seconds, work done, output.

    ``cpu`` is the CPU time of the benchmark process plus that of the
    workers it started for the repetition.
    """

    wall: float
    cpu: float
    items: int
    ops: int
    output: object
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    #: ``cpu`` rescaled to the reference host (see :mod:`perfbench.calibrate`).
    ref_cpu: float = 0.0


@dataclass
class GateReport:
    """Outcome of a correctness gate: units checked and mismatches."""

    checked: int = 0
    mismatches: int = 0
    notes: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.checked += 1
        if not ok:
            self.mismatches += 1
            self.notes.append(what)


class Workload:
    """Base class: inputs from a seed, one timed repetition, a gate."""

    name = ""
    why = ""
    #: Whether the traced run adds a pooled untraced twin of each repetition.
    pooled_twin = False
    #: Worker processes of the pooled twin.
    workers = 1

    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        self.seed = int(seed)
        self.workdir = workdir

    def setup(self) -> None:
        """Build the inputs; timed (several times) as ``setup_s``."""

    def run_once(
        self,
        tracer: Optional[Tracer] = None,
        pooled: bool = False,
        counters: Optional[Dict[str, float]] = None,
    ) -> Sample:
        raise NotImplementedError

    def gate(self, output) -> GateReport:
        raise NotImplementedError

    def quality(self, output) -> Dict[str, Tuple[float, str]]:
        """Workload-specific result metrics (name -> (value, unit))."""
        return {}


# ----------------------------------------------------------------------
# layer probes for the batch/sweep paths
# ----------------------------------------------------------------------
def _install_batch_probes(tracer: Tracer) -> None:
    """Spans around the batch runner, its fastpath kernels and cost twin."""
    from repro.simulation import batch, fastpath

    def run_units(original, self, entries, instance_index=0,
                  collect_stats=False, keep_assignments=False):
        # counters need the per-unit collector; strip it again unless the
        # caller asked for it, so the results downstream are unchanged
        out = original(self, entries, instance_index, True, keep_assignments)
        results = out[0] if keep_assignments else out
        for r in results:
            tracer.count("fastpath.fit_checks", r.stats.fit_checks)
            tracer.count("fastpath.candidate_scans", r.stats.candidate_scans)
        if not collect_stats:
            results = [dataclasses.replace(r, stats=None) for r in results]
            out = (results, out[1]) if keep_assignments else results
        return out

    def note_backend(args, _result, rec) -> None:
        if args[0].backend != fastpath.PYTHON_BACKEND:
            tracer.count("fastpath.numpy_s", rec[BUSY])

    tracer.wrap(batch.BatchRunner, "run_units", "simulation.batch", "run_units",
                call=run_units)
    tracer.wrap(batch.BatchRunner, "run_trials", "simulation.batch", "run_trials")
    tracer.wrap(batch, "ReplayContext", "simulation.fastpath", "context")
    tracer.wrap(fastpath.FastEngine, "run_assignment", "simulation.fastpath", "place",
                after=note_backend)
    tracer.wrap(fastpath.FastEngine, "run_trials", "simulation.fastpath", "trials",
                after=note_backend)
    tracer.wrap(batch.BatchRunner, "_cost_and_bins", "core.packing", "cost")
    tracer.wrap(batch, "height_lower_bound", "optimum.lower_bounds", "height_lower_bound")
    tracer.wrap(batch, "materialize", "workloads", "generate",
                after=lambda _a, inst, _r: tracer.count("workloads.items", inst.n))


def _install_sweep_probes(tracer: Tracer) -> None:
    """Spans around the checkpointed sweep: payloads, units, flushes."""
    import repro.orchestration as orchestration
    from repro.orchestration import checkpoint, sweep

    def payload_bytes(_args, payloads, _rec) -> None:
        tracer.count("parallel.payload_bytes",
                     sum(len(pickle.dumps(p)) for p in payloads))

    tracer.wrap(orchestration, "resumable_sweep", "orchestration.sweep", "resumable_sweep")
    tracer.wrap(sweep, "build_batch_payloads", "simulation.parallel", "payloads",
                after=payload_bytes)
    tracer.wrap(sweep, "fault_aware_unit", "simulation.parallel", "unit")
    tracer.wrap(checkpoint.CheckpointStore, "flush", "orchestration.checkpoint", "flush")


def _count_pools(counters: Dict[str, float]):
    """Count the process pools the sweep starts; returns the undo callable."""
    from repro.orchestration import sweep

    original = sweep.ProcessPoolExecutor

    class CountingPool(original):
        def __init__(self, *args, **kwargs):
            counters["parallel.pools"] = counters.get("parallel.pools", 0) + 1
            super().__init__(*args, **kwargs)

    sweep.ProcessPoolExecutor = CountingPool

    def undo() -> None:
        sweep.ProcessPoolExecutor = original

    return undo


def _directory_size(path: str) -> Tuple[int, int]:
    """(total bytes, shard files) under a checkpoint directory."""
    total = shards = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
            shards += name.startswith("shard-")
    return total, shards


# ----------------------------------------------------------------------
# figure4-sweep
# ----------------------------------------------------------------------
class Figure4Sweep(Workload):
    name = "figure4-sweep"
    why = ("Research traffic: the paper's 18-cell Table 2 grid x 7 policies, "
           "checkpointed, instances regenerated per cell; generation and checkpoints weigh"
           " in, the 2-worker pool is traced")
    pooled_twin = True

    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        super().__init__(seed, tiny, workdir)
        if tiny:
            self.config = ExperimentConfig(
                d_values=(1, 2), mu_values=(2, 10), n=40, m=2, seed=self.seed
            )
        else:
            self.config = dataclasses.replace(FULL, m=FIG4_M, seed=self.seed)
        self.algorithms = tuple(PAPER_ALGORITHMS)
        self.workers = min(2, os.cpu_count() or 1)

    def setup(self) -> None:
        cfg = self.config
        self.units = len(cfg.d_values) * len(cfg.mu_values) * cfg.m * len(self.algorithms)

    def run_once(self, tracer=None, pooled=False, counters=None) -> Sample:
        ckdir = tempfile.mkdtemp(prefix="figure4-", dir=self.workdir)
        clear_instance_cache()  # forked workers would inherit a warm cache
        processes = self.workers if pooled else 0
        undo = None
        if tracer is not None:
            _install_batch_probes(tracer)
            _install_sweep_probes(tracer)
        elif counters is not None and processes:
            undo = _count_pools(counters)
        try:
            t0, c0 = perf_counter(), process_time()
            with maybe_span(tracer, ROOT_LAYER, self.name):
                result = run_figure4(
                    self.config, algorithms=self.algorithms, processes=processes,
                    engine="batch", checkpoint_dir=ckdir,
                )
            wall, cpu = perf_counter() - t0, process_time() - c0
            if processes:
                # the sweep terminates its workers without waiting for them
                # (orchestration.sweep._terminate_pool)
                reap_children()
        finally:
            if tracer is not None:
                tracer.unwrap_all()
            if undo is not None:
                undo()
        nbytes, shards = _directory_size(ckdir)
        shutil.rmtree(ckdir)
        if tracer is not None:
            tracer.count("checkpoint.bytes", nbytes)
            tracer.count("checkpoint.shards", shards)
        output = {
            (d, mu, algo): tuple(cell.ratios[algo])
            for (d, mu), cell in result.cells.items()
            for algo in self.algorithms
        }
        return Sample(wall, cpu, self.units * self.config.n, self.units, output)

    def gate(self, output) -> GateReport:
        """Replay sampled units on the classic engine; ratios must match bit for bit.

        One instance per ``d`` panel, at a seed-chosen ``mu`` and index, under
        all seven policies.  Instances are regenerated exactly as
        ``run_figure4`` seeds them (one spawned child per cell, grid order).
        """
        cfg = self.config
        report = GateReport()
        report.check(len(output) == len(cfg.d_values) * len(cfg.mu_values) * len(self.algorithms),
                     "figure4: wrong number of (cell, policy) series")
        rng = np.random.default_rng(self.seed)
        children = np.random.SeedSequence(cfg.seed).spawn(len(cfg.d_values) * len(cfg.mu_values))
        unit_seeds = derive_unit_seeds(0, cfg.m)
        for di, d in enumerate(cfg.d_values):
            mi = int(rng.integers(len(cfg.mu_values)))
            mu = cfg.mu_values[mi]
            index = int(rng.integers(cfg.m))
            gen = UniformWorkload(d=d, n=cfg.n, mu=mu, T=cfg.T, B=cfg.B)
            instance = generate_batch(gen, cfg.m, seed=children[di * len(cfg.mu_values) + mi])[index]
            lb = height_lower_bound(instance)
            for algo in self.algorithms:
                kwargs = {"seed": unit_seeds[index]} if algo == "random_fit" else {}
                packing = run(make_algorithm(algo, **kwargs), instance, engine="classic")
                series = output.get((d, mu, algo), ())
                got = series[index] if index < len(series) else None
                report.check(got == packing.cost / lb,
                             f"figure4 d={d} mu={mu} #{index} {algo}: ratio {got!r} "
                             f"!= classic {packing.cost / lb!r}")
        return report

    def quality(self, output) -> Dict[str, Tuple[float, str]]:
        ratios = [r for series in output.values() for r in series]
        return {"cost_ratio_mean": (float(np.mean(ratios)), "ratio")}


# ----------------------------------------------------------------------
# fleet-replay
# ----------------------------------------------------------------------
class FleetReplay(Workload):
    name = "fleet-replay"
    why = ("Control for figure4-sweep: one ~1,000-live-item instance, 7 policies plus "
           "lockstep random_fit trials in-process; fastpath kernels, context build and"
           " cost only")

    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        super().__init__(seed, tiny, workdir)
        if tiny:
            self.generator = UniformWorkload(d=2, n=300, mu=20, T=100)
            self.trials = 2
        else:
            self.generator = UniformWorkload(d=2, n=FLEET_N, mu=FLEET_MU, T=FLEET_T)
            self.trials = FLEET_TRIALS

    def setup(self) -> None:
        self.instance = self.generator.sample(np.random.default_rng(self.seed))
        self.entries = [
            (algo, {"seed": self.seed} if algo == "random_fit" else {})
            for algo in PAPER_ALGORITHMS
        ]
        self.trial_seeds = derive_unit_seeds(self.seed, self.trials)

    def run_once(self, tracer=None, pooled=False, counters=None) -> Sample:
        if tracer is not None:
            _install_batch_probes(tracer)
        try:
            t0, c0 = perf_counter(), process_time()
            with maybe_span(tracer, ROOT_LAYER, self.name):
                runner = BatchRunner(self.instance)
                units = runner.run_units(self.entries)
                trials = runner.run_trials(self.trial_seeds)
            wall, cpu = perf_counter() - t0, process_time() - c0
        finally:
            if tracer is not None:
                tracer.unwrap_all()
        output = (
            tuple((r.algorithm, r.cost, r.num_bins, r.lower_bound) for r in units),
            tuple((r.cost, r.num_bins) for r in trials),
        )
        runs = len(self.entries) + len(self.trial_seeds)
        return Sample(wall, cpu, self.instance.n * runs, runs, output)

    def gate(self, output) -> GateReport:
        """One seed-chosen policy against a classic replay, plus feasibility.

        The policy rotates with the seed, so runs over seven consecutive
        seeds cover all of them.  Its fastpath packing must pass ``Packing.validate()`` and
        equal the classic assignment; the timed cost and bin count must
        equal the classic ones bit for bit.  One lockstep trial is checked
        against a single-trial fastpath replay of the same seed.
        """
        units, trials = output
        report = GateReport()
        lb = height_lower_bound(self.instance)
        report.check(len(units) == len(self.entries) and len(trials) == len(self.trial_seeds),
                     "fleet: wrong number of results")
        for name, cost, _bins, unit_lb in units:
            report.check(unit_lb == lb and cost >= lb, f"fleet {name}: lower bound {unit_lb!r}")
        index = self.seed % len(self.entries)
        name, kwargs = self.entries[index]
        classic = run(make_algorithm(name, **kwargs), self.instance, engine="classic")
        fast = BatchRunner(self.instance).run_packing(make_algorithm(name, **kwargs))
        try:
            fast.validate()
            feasible = True
        except PackingAuditError:
            feasible = False
        report.check(feasible and fast.assignment == classic.assignment,
                     f"fleet {name}: fastpath packing infeasible or differs from classic")
        got = units[index][1:3] if index < len(units) else None
        report.check(got == (classic.cost, classic.num_bins),
                     f"fleet {name}: timed cost/bins {got!r} != classic "
                     f"{(classic.cost, classic.num_bins)!r}")
        k = self.seed % len(self.trial_seeds)
        single = run(make_algorithm("random_fit", seed=self.trial_seeds[k]), self.instance,
                     engine="fast")
        got = trials[k] if k < len(trials) else None
        report.check(got == (single.cost, single.num_bins),
                     f"fleet trial {k}: {got!r} != single-trial replay "
                     f"{(single.cost, single.num_bins)!r}")
        return report

    def quality(self, output) -> Dict[str, Tuple[float, str]]:
        units, _trials = output
        return {"cost_ratio_mean": (float(np.mean([c / lb for _, c, _, lb in units])), "ratio")}


# ----------------------------------------------------------------------
# service-session
# ----------------------------------------------------------------------
PLACE, DEPART, SNAPSHOT, ADVANCE = range(4)


@dataclass
class ServiceOutput:
    bins: Tuple[int, ...]
    cost: float
    bins_opened: int
    snapshot_at: int
    snapshot: Optional[dict]
    snapshot_cost: float


class ServiceSession(Workload):
    name = "service-session"
    why = ("Online path: one closed-loop client placing, departing and snapshotting "
           "through PlacementService; pure-python dispatch, no fastpath, no generation")

    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        super().__init__(seed, tiny, workdir)
        self.horizon = 3.0 if tiny else SERVICE_HORIZON
        self.snapshot_every = 50 if tiny else SERVICE_SNAPSHOT_EVERY

    def setup(self) -> None:
        """Generate the trace and the client's request script.

        Even-numbered items carry their departure; the others are
        open-ended and the client departs them explicitly, before its
        first request at or after their departure time.
        """
        source = PoissonWorkload(d=2, rate=100.0, horizon=self.horizon)
        self.capacity = source.capacity
        self.items = source.sample(np.random.default_rng(self.seed)).items
        ops: list = []
        explicit: List[Tuple[float, int]] = []
        for k, it in enumerate(self.items):
            while explicit and explicit[0][0] <= it.arrival:
                t, uid = heapq.heappop(explicit)
                ops.append((DEPART, uid, t))
            scheduled = k % 2 == 0
            ops.append((PLACE, it.uid, it.size, it.arrival, it.departure if scheduled else None))
            if not scheduled:
                heapq.heappush(explicit, (it.departure, it.uid))
            if (k + 1) % self.snapshot_every == 0:
                ops.append((SNAPSHOT,))
        while explicit:
            t, uid = heapq.heappop(explicit)
            ops.append((DEPART, uid, t))
        ops.append((ADVANCE, max(it.departure for it in self.items)))
        self.ops = ops

    def run_once(self, tracer=None, pooled=False, counters=None) -> Sample:
        svc = PlacementService(policy="move_to_front", capacity=self.capacity)
        place_lat: List[float] = []
        depart_lat: List[float] = []
        snap_lat: List[float] = []
        bins: List[int] = []
        snap_bytes = 0
        snapshot_at, snapshot, snapshot_cost = -1, None, 0.0
        pc, hw = perf_counter, handler_wall
        t0, c0 = pc(), process_time()
        with maybe_span(tracer, ROOT_LAYER, self.name):
            for i, op in enumerate(self.ops):
                kind = op[0]
                # latencies leave out calibration slices that interrupted the call
                if kind == PLACE:
                    _, uid, size, at, departure = op
                    h, t = hw(), pc()
                    b = svc.place(size, departure=departure, at=at, item_id=uid)
                    place_lat.append(pc() - t - (hw() - h))
                    bins.append(b)
                elif kind == DEPART:
                    h, t = hw(), pc()
                    svc.depart(op[1], at=op[2])
                    depart_lat.append(pc() - t - (hw() - h))
                elif kind == SNAPSHOT:
                    h, t = hw(), pc()
                    state = svc.snapshot()
                    snap_lat.append(pc() - t - (hw() - h))
                    # the client ships the state as JSON, as serve_loop does
                    snap_bytes += len(json.dumps(state))
                    snapshot_at, snapshot, snapshot_cost = i, state, svc.cost
                else:
                    svc.advance(op[1])
            if tracer is not None:
                col = svc.collector
                end = pc()
                place = tracer.aggregate("streaming.service", "place", sum(place_lat),
                                         len(place_lat), t0, end)
                tracer.aggregate("algorithms", "dispatch", col.dispatch_time_s,
                                 col.arrivals, t0, end, parent=place[ID])
                tracer.aggregate("streaming.service", "depart", sum(depart_lat),
                                 len(depart_lat), t0, end)
                tracer.aggregate("streaming.service", "snapshot", sum(snap_lat),
                                 len(snap_lat), t0, end)
                tracer.count("algorithms.fit_checks", col.fit_checks)
                tracer.count("algorithms.candidate_scans", col.candidate_scans)
                tracer.count("service.snapshot_bytes", snap_bytes)
                tracer.count("service.snapshots", len(snap_lat))
        wall, cpu = pc() - t0, process_time() - c0
        output = ServiceOutput(tuple(bins), svc.cost, svc.stats().bins_opened,
                               snapshot_at, snapshot, snapshot_cost)
        return Sample(wall, cpu, len(bins), len(self.ops), output,
                      {"place": place_lat, "depart": depart_lat, "snapshot": snap_lat})

    def gate(self, output: ServiceOutput) -> GateReport:
        """Streaming-engine replay of the accepted requests; snapshot restore.

        The service's bin choices, final cost and bin count must equal a
        ``StreamingEngine`` replay of the same items (open-ended ones
        carrying the time the client departed them) bit for bit.
        Restoring the last snapshot must reproduce the cost at that point
        and, replaying the rest of the script, the same decisions and
        final cost.
        """
        report = GateReport()
        engine = StreamingEngine(make_algorithm("move_to_front"), self.capacity,
                                 record_assignment=True)
        replay = engine.run(self.items)
        expected = tuple(replay.assignment[it.uid] for it in self.items)
        report.check(output.bins == expected, "service: bin choices differ from streaming replay")
        report.check(output.cost == replay.cost,
                     f"service: cost {output.cost!r} != streaming replay {replay.cost!r}")
        report.check(output.bins_opened == replay.bins_opened,
                     f"service: {output.bins_opened} bins != streaming replay {replay.bins_opened}")
        if output.snapshot is None:
            report.check(False, "service: no snapshot taken")
            return report
        restored = PlacementService.restore(output.snapshot)
        report.check(restored.cost == output.snapshot_cost,
                     f"service: restored cost {restored.cost!r} != {output.snapshot_cost!r}")
        placed = sum(1 for op in self.ops[: output.snapshot_at] if op[0] == PLACE)
        tail: List[int] = []
        for op in self.ops[output.snapshot_at + 1:]:
            if op[0] == PLACE:
                _, uid, size, at, departure = op
                tail.append(restored.place(size, departure=departure, at=at, item_id=uid))
            elif op[0] == DEPART:
                restored.depart(op[1], at=op[2])
            elif op[0] == ADVANCE:
                restored.advance(op[1])
        report.check(tuple(tail) == output.bins[placed:] and restored.cost == output.cost,
                     "service: replay from the restored snapshot diverged")
        return report


# ----------------------------------------------------------------------
# stream-replay
# ----------------------------------------------------------------------
def _timed_stream(stream, acc: list):
    """Yield from ``stream``, adding the time spent inside it to ``acc``."""
    nxt = iter(stream).__next__
    pc = perf_counter
    while True:
        t = pc()
        try:
            item = nxt()
        except StopIteration:
            acc[0] += pc() - t
            return
        acc[0] += pc() - t
        acc[1] += 1
        yield item


@dataclass(frozen=True)
class StreamOutput:
    cost: float
    arrivals: int
    events: int
    bins_opened: int
    bins_closed: int
    open_bins: int
    peak_live_items: int
    peak_open_bins: int


class StreamReplay(Workload):
    name = "stream-replay"
    why = ("Bounded-memory path: StreamingEngine(next_fit) over a lazy Poisson stream;"
           " generation and the event loop share the time, peak RSS is part of the "
           "contract")

    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        super().__init__(seed, tiny, workdir)
        self.horizon = 0.5 if tiny else STREAM_HORIZON

    def setup(self) -> None:
        self.source = PoissonWorkload(d=2, rate=2000.0, horizon=self.horizon)
        self.capacity = self.source.capacity

    def run_once(self, tracer=None, pooled=False, counters=None) -> Sample:
        col = StatsCollector() if tracer is not None else None
        engine = StreamingEngine(make_algorithm("next_fit"), self.capacity, collector=col)
        stream = self.source.stream(np.random.default_rng(self.seed))
        acc = [0.0, 0]
        if tracer is not None:
            stream = _timed_stream(stream, acc)
        t0, c0 = perf_counter(), process_time()
        with maybe_span(tracer, ROOT_LAYER, self.name):
            with maybe_span(tracer, "streaming.engine", "run") as rec:
                result = engine.run(stream)
            if tracer is not None:
                tracer.aggregate("workloads", "stream", acc[0], acc[1],
                                 rec[START], rec[END], parent=rec[ID])
                tracer.aggregate("algorithms", "dispatch", col.dispatch_time_s,
                                 col.arrivals, rec[START], rec[END], parent=rec[ID])
                tracer.count("workloads.items", acc[1])
                tracer.count("algorithms.fit_checks", col.fit_checks)
                tracer.count("algorithms.candidate_scans", col.candidate_scans)
                tracer.count("engine.events", result.events)
                tracer.count("engine.peak_live_items", result.peak_live_items)
                tracer.count("engine.peak_open_bins", result.peak_open_bins)
        wall, cpu = perf_counter() - t0, process_time() - c0
        output = StreamOutput(
            result.cost, result.arrivals, result.events, result.bins_opened,
            result.bins_closed, result.open_bins, result.peak_live_items,
            result.peak_open_bins,
        )
        return Sample(wall, cpu, result.arrivals, result.arrivals, output)

    def gate(self, output: StreamOutput) -> GateReport:
        """The stream against the reference simulator, plus event accounting.

        The stream is re-drawn from the seed and replayed by the
        brute-force :class:`~repro.verify.reference.ReferenceSimulator`
        (bounded at :data:`REFERENCE_BOUND` items, which covers the whole
        benchmark stream).
        Bin count and item count must match exactly; the timed running
        cost must match the reference assignment's Eq. 1 cost to 1e-9
        (close-order versus bin-order summation).
        """
        report = GateReport()
        report.check(
            output.events == 2 * output.arrivals
            and output.bins_closed == output.bins_opened and output.open_bins == 0,
            f"stream: event accounting broken {output!r}",
        )
        items = list(itertools.islice(
            self.source.stream(np.random.default_rng(self.seed)), REFERENCE_BOUND + 1))
        if len(items) > REFERENCE_BOUND:
            report.check(False, "stream: longer than the reference bound")
            return report
        instance = Instance(items, capacity=self.capacity)
        reference = ReferenceSimulator("next_fit").run(instance)
        ref_cost = Packing.from_assignment(instance, reference.assignment).cost
        report.check(output.arrivals == len(items), "stream: item count differs from reference")
        report.check(output.bins_opened == reference.num_bins,
                     f"stream: {output.bins_opened} bins != reference {reference.num_bins}")
        report.check(abs(output.cost - ref_cost) <= 1e-9 * max(1.0, abs(ref_cost)),
                     f"stream: cost {output.cost!r} != reference {ref_cost!r}")
        return report


WORKLOADS = {w.name: w for w in (Figure4Sweep, FleetReplay, ServiceSession, StreamReplay)}
