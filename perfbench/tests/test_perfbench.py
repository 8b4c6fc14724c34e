"""Smoke tests of the benchmark: every workload at tiny size, and the gates.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import metrics  # noqa: E402
from perfbench.run import WORKLOAD_NAMES  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

RUN = os.path.join(ROOT, "perfbench", "run.py")


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_declares_what_the_program_emits():
    spec = _declared()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: cls.why for name, cls in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_emits_every_declared_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "2",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    text = "\n".join(lines[:-1])
    for name, unit in metrics.END_TO_END.items():
        # printed by name, with its unit and sample count, in both modes
        line = next(ln for ln in text.splitlines() if ln.split()[:1] == [name])
        assert unit in line.split() and "n=" in line
    if trace:
        assert "bench (unexplained)" in text and "trace.overhead_frac" in text


def _perturb_figure4(output):
    return {k: tuple(np.nextafter(r, np.inf) for r in v) for k, v in output.items()}


def _perturb_fleet(output):
    units, trials = output
    units = tuple((a, np.nextafter(c, np.inf), b, lb) for a, c, b, lb in units)
    return units, trials


def _perturb_service(output):
    bins = (output.bins[0] + 1,) + output.bins[1:]
    return dataclasses.replace(output, bins=bins)


def _perturb_stream(output):
    return dataclasses.replace(output, cost=output.cost + 1.0)


@pytest.mark.parametrize("workload, perturb", [
    ("figure4-sweep", _perturb_figure4),
    ("fleet-replay", _perturb_fleet),
    ("service-session", _perturb_service),
    ("stream-replay", _perturb_stream),
])
def test_gate_counts_a_perturbed_result_as_failed(tmp_path, workload, perturb):
    wl = WORKLOADS[workload](seed=4, tiny=True, workdir=str(tmp_path))
    wl.setup()
    output = wl.run_once().output
    clean = wl.gate(output)
    assert clean.checked > 0 and clean.mismatches == 0, clean.notes
    bad = wl.gate(perturb(output))
    assert bad.mismatches >= 1


def test_failed_gate_exits_nonzero(tmp_path):
    # a gate failure must reach the exit code and the final JSON line
    script = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "from perfbench import run, workloads\n"
        "def broken(self, output):\n"
        "    report = workloads.GateReport()\n"
        "    report.check(False, 'forced mismatch')\n"
        "    return report\n"
        "workloads.StreamReplay.gate = broken\n"
        "sys.exit(run.main(['--workload', 'stream-replay', '--seconds', '0.1', '--tiny']))\n"
    ) % (ROOT, os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    with open(RUN, encoding="utf-8") as src, open(bench / "run.py", "w", encoding="utf-8") as dst:
        dst.write(src.read())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fleet-replay"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_calibrator_rescales_cpu_by_the_slices_beside_it():
    from perfbench import calibrate

    calib = calibrate.Calibrator()
    calib.start()
    try:
        mark = calib.mark()
        total = 0
        for i in range(2_000_000):
            total += i
        ref, raw = calib.reference_cpu(mark)
    finally:
        calib.stop()
    slices, cpu = calib.slices, calib.cpu
    assert slices >= calibrate.MIN_SLICES and raw > 0
    assert ref == pytest.approx(raw * calibrate.REFERENCE_SLICE_S / (cpu / slices))
    for i in range(500_000):
        total += i
    assert calib.slices == slices  # stopped: no more slices
