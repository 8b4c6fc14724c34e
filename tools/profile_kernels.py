#!/usr/bin/env python
"""Per-kernel micro-profiler: events/sec per (policy, backend) cell.

Times the replay kernels of every available fastpath backend on one
pinned workload — no classic-engine baseline, no suite plumbing — so a
kernel change can be profiled in seconds:

    PYTHONPATH=src python tools/profile_kernels.py
    PYTHONPATH=src python tools/profile_kernels.py --n 50000 --d 4
    PYTHONPATH=src python tools/profile_kernels.py --policy best_fit:lp:3.0
    PYTHONPATH=src python tools/profile_kernels.py --json

Each cell reports the minimum wall time over ``--repeats`` runs and the
derived events/sec (one arrival plus one departure per item).  Context
construction (event-index sort) is shared per backend and excluded from
the timed region via a pre-built :class:`~repro.simulation.fastpath.ReplayContext`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.simulation.fastpath import (  # noqa: E402
    FAST_POLICIES,
    FastEngine,
    ReplayContext,
    available_backends,
)
from repro.workloads.uniform import UniformWorkload  # noqa: E402

_DEFAULT_POLICIES = tuple(sorted(FAST_POLICIES)) + (
    "best_fit:l1",
    "best_fit:lp:3.0",
)


def profile(
    n: int = 20000,
    d: int = 2,
    seed: int = 20230613,
    repeats: int = 3,
    policies=None,
    backends=None,
    trial_seed: int = 0,
) -> dict:
    """Profile every (policy, backend) cell; return the result payload."""
    workload = UniformWorkload(n=n, d=d)
    instance = workload.sample_seeded(seed)
    events = 2 * n
    backends = tuple(backends) if backends else available_backends()
    policies = tuple(policies) if policies else _DEFAULT_POLICIES

    cells = {}
    for backend in backends:
        ctx = ReplayContext(instance, backend=backend)
        for policy in policies:
            best = float("inf")
            for _ in range(max(1, repeats)):
                engine = FastEngine(
                    instance, policy, seed=trial_seed,
                    backend=backend, context=ctx,
                )
                t0 = time.perf_counter()
                engine.run()
                best = min(best, time.perf_counter() - t0)
            cells[f"{policy}/{backend}"] = {
                "policy": policy,
                "backend": backend,
                "wall_time_s": best,
                "events": events,
                "events_per_sec": events / best if best > 0 else 0.0,
            }
    return {
        "n": n,
        "d": d,
        "seed": seed,
        "repeats": repeats,
        "backends": list(backends),
        "cells": cells,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=20000,
                        help="items in the pinned uniform workload")
    parser.add_argument("--d", type=int, default=2, help="vector dimension")
    parser.add_argument("--seed", type=int, default=20230613,
                        help="workload seed")
    parser.add_argument("--repeats", type=int, default=3,
                        help="runs per cell; wall-time is the min")
    parser.add_argument("--policy", action="append", default=None,
                        help="restrict to one policy spec (repeatable)")
    parser.add_argument("--backend", action="append", default=None,
                        choices=["numpy", "python"],
                        help="restrict to one backend (repeatable; "
                             "default: both)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the raw payload as JSON instead of a table")
    args = parser.parse_args(argv)

    payload = profile(
        n=args.n, d=args.d, seed=args.seed, repeats=args.repeats,
        policies=args.policy, backends=args.backend,
    )
    if args.as_json:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0

    print(f"workload: n={payload['n']} d={payload['d']} "
          f"seed={payload['seed']} ({2 * payload['n']} events), "
          f"repeats={payload['repeats']}")
    width = max(len(k) for k in payload["cells"]) + 2
    print(f"{'cell'.ljust(width)}{'wall (ms)':>12}{'events/s':>14}")
    for key in sorted(payload["cells"]):
        cell = payload["cells"][key]
        print(f"{key.ljust(width)}"
              f"{cell['wall_time_s'] * 1e3:>12.2f}"
              f"{cell['events_per_sec']:>14.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
