"""Summarise a traced run's JSON-lines span file.

Usage::

    python3 perfbench/summarize.py perfbench/out/traces/<run>.jsonl

Prints per-layer busy time, self time and call counts per traced
repetition, the work counters, the remainder of the traced wall time
that no layer explains, and the tracing overhead.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.tracer import format_summary, summarize  # noqa: E402


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    meta, spans, counters = {}, [], {}
    with open(argv[0], encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["kind"] == "meta":
                meta = rec
            elif rec["kind"] == "span":
                spans.append([rec["id"], rec["parent"], rec["layer"], rec["op"],
                              rec["start"], rec["end"], rec["calls"], rec["busy"]])
            else:
                counters[rec["name"]] = rec["value"]
    repeats = int(meta.get("traced_repetitions", 1))
    per_layer = meta.get("per_layer", {})
    print(f"{meta.get('workload')}  seed {meta.get('seed')}  "
          f"{repeats} traced repetitions, per repetition:")
    print("\n".join(format_summary(summarize(spans), counters, repeats)))
    for name in ("trace.wall_s", "trace.unexplained_s", "trace.overhead_frac"):
        if name in per_layer:
            print(f"  {name:<26} {per_layer[name]:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
