"""Measurement helpers: medians with sample counts, host fingerprint, run record.

Timings are reported as a median plus the highest percentile that still
has at least ten samples beyond it, each with its sample count.  The
host fingerprint goes into every run record because this benchmark runs
on shared machines where the same call can take 1.5x longer from one
minute to the next; the record lets a reader tell drift from a change.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import resource
import sys
from typing import Dict, Optional, Sequence

import numpy as np

__all__ = [
    "HELD_OUT_SEED",
    "PERCENTILES",
    "distribution",
    "host_fingerprint",
    "peak_rss_mb",
    "reap_children",
]

#: The seed kept out of every tuning run; confirm a claimed gain on it.
HELD_OUT_SEED = 9001

#: Percentile ladder; the highest one with >= 10 samples beyond it is reported.
PERCENTILES = (90.0, 99.0, 99.9, 99.99)


def distribution(values: Sequence[float]) -> Dict[str, object]:
    """Median, sample count and every percentile with >= 10 samples beyond it.

    ``tail`` names the highest such percentile (``None`` when fewer than
    ten samples exist beyond even the 90th).  ``beyond`` maps each
    reported percentile to the number of samples above it.
    """
    vals = np.sort(np.asarray(values, dtype=np.float64))
    n = len(vals)
    if n == 0:
        raise ValueError("no samples")
    out: Dict[str, object] = {"n": n, "median": float(np.median(vals))}
    beyond: Dict[str, int] = {}
    tail: Optional[str] = None
    for q in PERCENTILES:
        above = int(n * (1.0 - q / 100.0))
        if above < 10:
            break
        key = f"p{q:g}"
        out[key] = float(np.percentile(vals, q))
        beyond[key] = above
        tail = key
    out["beyond"] = beyond
    out["tail"] = tail
    return out


def reap_children(timeout: float = 30.0) -> None:
    """Wait for every child process (pool workers included) to end."""
    for proc in multiprocessing.active_children():
        proc.join(timeout)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout)


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_fingerprint() -> Dict[str, object]:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
