"""Metric definitions and the per-layer numbers derived from a traced run.

``END_TO_END`` and ``PER_LAYER`` are the metric sets the final JSON line
carries with ``--trace 0`` and ``--trace 1``; ``BENCHMARK.json`` declares
the same names and units (a smoke test keeps the two in step).
Per-layer values are per traced repetition, so runs of different length
compare directly.
"""

from __future__ import annotations

import statistics
from typing import Dict, Mapping, Sequence

from .tracer import ROOT_LAYER

__all__ = ["END_TO_END", "PER_LAYER", "layer_metrics"]

#: name -> unit; reported on every workload with tracing off.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "ref_cpu_us_per_item": "us",
    "peak_rss_mb": "MiB",
}

#: name -> unit; reported on every workload by the traced run (0 where a
#: layer does no work on that workload).
PER_LAYER: Dict[str, str] = {
    "workloads.generate_s": "s",
    "workloads.stream_s": "s",
    "workloads.items": "count",
    "optimum.lower_bounds.busy_s": "s",
    "optimum.lower_bounds.calls": "count",
    "simulation.fastpath.context_s": "s",
    "simulation.fastpath.place_s": "s",
    "simulation.fastpath.trials_s": "s",
    "simulation.fastpath.fit_checks": "count",
    "simulation.fastpath.candidate_scans": "count",
    "simulation.fastpath.numpy_share": "ratio",
    "simulation.batch.run_units_s": "s",
    "simulation.batch.self_s": "s",
    "core.packing.cost_s": "s",
    "simulation.parallel.overhead_s": "s",
    "simulation.parallel.payload_bytes": "bytes",
    "simulation.parallel.pools": "count",
    "orchestration.sweep.self_s": "s",
    "orchestration.checkpoint.bytes": "bytes",
    "orchestration.checkpoint.shards": "count",
    "algorithms.dispatch_s": "s",
    "algorithms.fit_checks": "count",
    "algorithms.candidate_scans": "count",
    "streaming.service.place_s": "s",
    "streaming.service.depart_s": "s",
    "streaming.service.self_s": "s",
    "streaming.service.snapshot_s": "s",
    "streaming.service.snapshot_bytes": "bytes",
    "streaming.engine.loop_s": "s",
    "streaming.engine.events": "count",
    "streaming.engine.peak_live_items": "count",
    "streaming.engine.peak_open_bins": "count",
    "verify.units_checked": "count",
    "verify.mismatches": "count",
    "trace.wall_s": "s",
    "trace.unexplained_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}


def _op(layers: Mapping[str, dict], layer: str, op: str, key: str = "busy") -> float:
    return float(layers.get(layer, {}).get("ops", {}).get(op, {}).get(key, 0.0))


def _layer(layers: Mapping[str, dict], layer: str, key: str) -> float:
    return float(layers.get(layer, {}).get(key, 0.0))


def layer_metrics(
    layers: Mapping[str, dict],
    counters: Mapping[str, float],
    spans: int,
    traced_walls: Sequence[float],
    baseline_walls: Sequence[float],
    pooled_walls: Sequence[float],
    workers: int,
    pools_per_run: float,
    checked: int,
    mismatches: int,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric, per traced repetition.

    ``baseline_walls`` are untraced in-process repetitions of the same
    work as the traced ones; their median against the traced median is
    the tracing overhead.  On the sweep, its pooled twin's
    ``pooled_walls`` x ``workers`` minus that baseline is the time the
    pool adds over running the same units in-process.
    """
    reps = max(len(traced_walls), 1)

    def per(value: float) -> float:
        return value / reps

    def count(name: str) -> float:
        return per(counters.get(name, 0.0))

    kernel_s = (_op(layers, "simulation.fastpath", "place")
                + _op(layers, "simulation.fastpath", "trials"))
    snapshots = counters.get("service.snapshots", 0.0)
    traced = statistics.median(traced_walls) if traced_walls else 0.0
    baseline = statistics.median(baseline_walls) if baseline_walls else 0.0
    overhead_s = 0.0
    if pooled_walls and baseline_walls:
        overhead_s = statistics.median(pooled_walls) * workers - baseline
    out: Dict[str, float] = {
        "workloads.generate_s": per(_op(layers, "workloads", "generate")),
        "workloads.stream_s": per(_op(layers, "workloads", "stream")),
        "workloads.items": count("workloads.items"),
        "optimum.lower_bounds.busy_s": per(_layer(layers, "optimum.lower_bounds", "busy")),
        "optimum.lower_bounds.calls": per(_layer(layers, "optimum.lower_bounds", "calls")),
        "simulation.fastpath.context_s": per(_op(layers, "simulation.fastpath", "context")),
        "simulation.fastpath.place_s": per(_op(layers, "simulation.fastpath", "place")),
        "simulation.fastpath.trials_s": per(_op(layers, "simulation.fastpath", "trials")),
        "simulation.fastpath.fit_checks": count("fastpath.fit_checks"),
        "simulation.fastpath.candidate_scans": count("fastpath.candidate_scans"),
        "simulation.fastpath.numpy_share": (
            counters.get("fastpath.numpy_s", 0.0) / kernel_s if kernel_s else 0.0
        ),
        "simulation.batch.run_units_s": per(_op(layers, "simulation.batch", "run_units")),
        "simulation.batch.self_s": per(_layer(layers, "simulation.batch", "self")),
        "core.packing.cost_s": per(_layer(layers, "core.packing", "busy")),
        "simulation.parallel.overhead_s": overhead_s,
        "simulation.parallel.payload_bytes": count("parallel.payload_bytes"),
        "simulation.parallel.pools": pools_per_run,
        "orchestration.sweep.self_s": per(_layer(layers, "orchestration.sweep", "self")),
        "orchestration.checkpoint.bytes": count("checkpoint.bytes"),
        "orchestration.checkpoint.shards": count("checkpoint.shards"),
        "algorithms.dispatch_s": per(_layer(layers, "algorithms", "busy")),
        "algorithms.fit_checks": count("algorithms.fit_checks"),
        "algorithms.candidate_scans": count("algorithms.candidate_scans"),
        "streaming.service.place_s": per(_op(layers, "streaming.service", "place")),
        "streaming.service.depart_s": per(_op(layers, "streaming.service", "depart")),
        "streaming.service.self_s": per(_op(layers, "streaming.service", "place", "self")),
        "streaming.service.snapshot_s": per(_op(layers, "streaming.service", "snapshot")),
        "streaming.service.snapshot_bytes": (
            counters.get("service.snapshot_bytes", 0.0) / snapshots if snapshots else 0.0
        ),
        "streaming.engine.loop_s": per(_op(layers, "streaming.engine", "run", "self")),
        "streaming.engine.events": count("engine.events"),
        "streaming.engine.peak_live_items": count("engine.peak_live_items"),
        "streaming.engine.peak_open_bins": count("engine.peak_open_bins"),
        "verify.units_checked": float(checked),
        "verify.mismatches": float(mismatches),
        "trace.wall_s": traced,
        "trace.unexplained_s": per(_layer(layers, ROOT_LAYER, "self")),
        "trace.overhead_frac": traced / baseline - 1.0 if baseline else 0.0,
        "trace.spans": per(spans),
    }
    return out
