"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet-replay --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one by one

The program builds its inputs from ``--seed``, repeats the workload's
timed phase until ``--seconds`` have passed (after one warm-up
repetition), checks the outputs, and prints every metric by name and
unit with its sample count.  CPU times in the JSON line are rescaled to
a reference host by :mod:`perfbench.calibrate`.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run with ``--trace 1``.  A failed
correctness gate makes the exit code 1.

A run record (host fingerprint, load averages, seed, every sample) goes
to ``perfbench/out/records/``; the traced run's spans go, as JSON lines,
to ``perfbench/out/traces/`` (summarise one with ``perfbench/summarize.py``).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
WORKLOAD_NAMES = ("figure4-sweep", "fleet-replay", "service-session", "stream-replay")
#: Set-up repetitions; ``setup_s`` reports the median of their CPU time plus
#: the CPU time of the imports.
SETUP_REPEATS = 3


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for smoke tests only")
    return p.parse_args(argv)


def loadavg() -> list:
    try:
        return [round(x, 2) for x in os.getloadavg()]
    except OSError:
        return []


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so set-up and peak RSS stay per workload."""
    status = 0
    summary = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            summary[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary[name] = {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
        if proc.returncode != 0:
            status = 1
    print(json.dumps({
        "correct": all(r["correct"] for r in summary.values()),
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "workloads": summary,
    }))
    return status


def show(name: str, value: float, unit: str, n: int, extra: str = "") -> None:
    print(f"  {name:<22} {value:>14.6g} {unit:<8} n={n}{extra}")


def measure(workload, calib):
    """One untraced repetition, its CPU rescaled by the calibrator running beside it."""
    from perfbench.calibrate import handler_wall

    calib.start()
    try:
        mark = calib.mark()
        sample = workload.run_once()
        sample.ref_cpu, sample.cpu = calib.reference_cpu(mark)
    finally:
        calib.stop()
    sample.wall -= handler_wall() - mark[3]
    return sample


def timed_phase(workload, seconds: float, tracer, calib, loads: list):
    """Repeat the workload until ``seconds`` have passed, after one warm-up.

    Untraced repetitions give the end-to-end numbers.  With a tracer,
    every untraced repetition is followed by a traced one (and, on the
    sweep, by a pooled untraced twin for the pool's overhead), so drift
    hits both sides alike.  Returns ``(untraced, pooled, traced, pools,
    error)``.
    """
    untraced, pooled, traced = [], [], []
    pools: dict = {}
    error = None
    try:
        measure(workload, calib)
        deadline = time.perf_counter() + seconds
        while True:
            untraced.append(measure(workload, calib))
            if tracer is not None:
                if workload.pooled_twin:
                    pooled.append(workload.run_once(pooled=True, counters=pools))
                traced.append(workload.run_once(tracer=tracer))
            loads.append(loadavg())
            if time.perf_counter() >= deadline:
                break
    except Exception:  # a failed repetition is a failed operation, not a crash
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    return untraced, pooled, traced, pools.get("parallel.pools", 0), error


def check(workload, samples):
    """The workload's gate on the first output, plus repetition equality."""
    from perfbench.workloads import GateReport

    try:
        report = workload.gate(samples[0].output)
    except Exception:
        report = GateReport()
        report.check(False, "gate raised:\n" + traceback.format_exc())
    for i, s in enumerate(samples[1:], 1):
        report.check(s.output == samples[0].output,
                     f"repetition {i} output differs from repetition 0")
    return report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    # byte-compile first (the build step), so a fresh checkout's first run
    # does not count compilation as set-up time
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(os.path.dirname(os.path.abspath(__file__)), quiet=1)
    sys.path[:0] = [ROOT, SRC]
    from perfbench.calibrate import Calibrator

    calib = Calibrator()
    try:
        return run_one(args, calib)
    finally:
        calib.stop()  # an uncaught SIGPROF would kill the process


def run_one(args: argparse.Namespace, calib) -> int:
    """One workload: set-up, timed phase, gate, report."""
    calib.start()
    start, mark = time.perf_counter(), calib.mark()
    from perfbench import metrics
    from perfbench.harness import (
        HELD_OUT_SEED, distribution, host_fingerprint, peak_rss_mb, reap_children)
    from perfbench.tracer import Tracer, format_summary, summarize
    from perfbench.workloads import WORKLOADS
    import_wall = time.perf_counter() - start
    import_s, import_cpu = calib.reference_cpu(mark)

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}-{os.getpid()}"
    workdir = os.path.join(OUT, "work", run_id)
    os.makedirs(workdir, exist_ok=True)
    loads = {"before": loadavg(), "per_repetition": []}
    workload = WORKLOADS[args.workload](args.seed, args.tiny, workdir)
    setup_times, setup_cpu, setup_walls = [], [], []
    for _ in range(SETUP_REPEATS):
        t, mark = time.perf_counter(), calib.mark()
        workload.setup()
        ref, raw = calib.reference_cpu(mark)
        setup_times.append(ref)
        setup_cpu.append(raw)
        setup_walls.append(time.perf_counter() - t)
    calib.stop()
    setup_s = import_s + statistics.median(setup_times)

    tracer = Tracer(run_id) if args.trace else None
    untraced, pooled, traced, pools, error = timed_phase(
        workload, args.seconds, tracer, calib, loads["per_repetition"])
    rss_mb = peak_rss_mb()
    reap_children()
    shutil.rmtree(workdir, ignore_errors=True)
    loads["after"] = loadavg()

    samples = untraced + pooled + traced
    report = check(workload, samples) if samples else None
    attempted = max(sum(s.ops for s in samples), 1)
    failed = (report.mismatches if report else 0) + (1 if error else 0)
    correct = failed == 0 and report is not None

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(untraced)}  held-out seed {HELD_OUT_SEED}")
    print(f"  {workload.why}")
    record = {
        "run": run_id, "workload": workload.name, "why": workload.why,
        "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "is_held_out": args.seed == HELD_OUT_SEED,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "host": host_fingerprint(), "loadavg": loads,
        "setup": {"import_ref_s": import_s, "repeats_ref_s": setup_times,
                  "import_cpu_s": import_cpu, "repeats_cpu_s": setup_cpu,
                  "import_wall_s": import_wall, "repeats_wall_s": setup_walls,
                  "setup_s": setup_s},
        "calibration": {"slices": calib.slices, "slice_cpu_s": calib.cpu / max(calib.slices, 1)},
        "samples": {kind: [{"wall_s": s.wall, "cpu_s": s.cpu, "ref_cpu_s": s.ref_cpu,
                            "items": s.items, "ops": s.ops} for s in group]
                    for kind, group in (("untraced", untraced), ("pooled", pooled),
                                        ("traced", traced))},
        "gate": {"checked": report.checked if report else 0, "failed": failed,
                 "notes": report.notes[:20] if report else [], "error": error},
        "attempted": attempted,
    }

    e2e: dict = {}
    if untraced:
        e2e = {
            "setup_s": (setup_s, SETUP_REPEATS),
            "ref_cpu_us_per_item": (
                statistics.median(s.ref_cpu / s.items * 1e6 for s in untraced), len(untraced)),
            "peak_rss_mb": (rss_mb, 1),
        }
        for name, (value, n) in e2e.items():
            show(name, value, metrics.END_TO_END[name], n)
        # as measured on this host: printed and recorded, not in the JSON line
        raw = {
            "cpu_us_per_item": (statistics.median(s.cpu / s.items * 1e6 for s in untraced),
                                "us"),
            "items_per_s": (statistics.median(s.items / s.wall for s in untraced), "items/s"),
        }
        for name, (value, unit) in raw.items():
            show(name, value, unit, len(untraced), "  (this host, not rescaled)")
            record[name] = value
        show("failed_frac", failed / attempted, "ratio", attempted,
             f"  ({failed} failed, {record['gate']['checked']} checks by the gate)")
        for name, (value, unit) in workload.quality(untraced[0].output).items():
            show(name, value, unit, 1)
            record[name] = value
        record["latency_us"] = {}
        for op in untraced[0].latencies:
            dist = distribution([v * 1e6 for s in untraced for v in s.latencies[op]])
            record["latency_us"][op] = dist
            tail = dist["tail"]
            extra = f"  {tail}={dist[tail]:.6g} ({dist['beyond'][tail]} beyond)" if tail else ""
            show(f"{op}_p50_us", dist["median"], "us", dist["n"], extra)
            if "p99" in dist:
                show(f"{op}_p99_us", dist["p99"], "us", dist["n"])
        record["end_to_end"] = {k: {"value": v, "n": n, "unit": metrics.END_TO_END[k]}
                                for k, (v, n) in e2e.items()}

    result_metrics = {}
    if tracer is None:
        result_metrics = {k: {"value": v, "unit": metrics.END_TO_END[k]}
                          for k, (v, _n) in e2e.items()}
    elif traced:
        layers = summarize(tracer.spans)
        per_layer = metrics.layer_metrics(
            layers, tracer.counters, len(tracer.spans),
            traced_walls=[s.wall for s in traced],
            baseline_walls=[s.wall for s in untraced],
            pooled_walls=[s.wall for s in pooled],
            workers=workload.workers,
            pools_per_run=pools / max(len(pooled), 1),
            checked=report.checked, mismatches=report.mismatches,
        )
        print(f"  traced run: {len(traced)} traced repetitions, per repetition:")
        print("\n".join(format_summary(layers, tracer.counters, len(traced))))
        show("trace.overhead_frac", per_layer["trace.overhead_frac"], "ratio", len(traced),
             "  (traced vs untraced wall of the same work)")
        os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
        trace_path = os.path.join(OUT, "traces", run_id + ".jsonl")
        tracer.write_jsonl(trace_path, {
            "workload": workload.name, "seed": args.seed,
            "traced_repetitions": len(traced), "per_layer": per_layer,
        })
        print(f"  spans: {trace_path}")
        record["per_layer"] = per_layer
        result_metrics = {k: {"value": per_layer[k], "unit": metrics.PER_LAYER[k]}
                          for k in metrics.PER_LAYER}
    if report is not None and report.notes:
        print("  gate: " + "; ".join(report.notes[:5]))

    os.makedirs(os.path.join(OUT, "records"), exist_ok=True)
    record_path = os.path.join(OUT, "records", run_id + ".json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(f"  record: {record_path}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
