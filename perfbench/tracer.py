"""Span recording and per-layer summaries for the traced run.

The benchmark's traced run wraps the public entry points of each
``repro`` layer *from the benchmark's own files* (no source of the
program is touched): :meth:`Tracer.wrap` swaps a module or class
attribute for a timing wrapper, and :meth:`Tracer.unwrap_all` puts every
original back.  Spans stay in memory and are written as JSON lines when
the run ends.

A span is ``[id, parent, layer, op, start, end, calls, busy]``.  One call
is one span (``calls == 1``, ``busy == end - start``); a burst of many
short calls timed by the caller itself (per-request service calls, the
lazy item stream) is folded into one *aggregate* span whose ``busy`` is
the summed duration of its ``calls`` calls.  A span's self time is its
busy time minus the busy time of its children, so the root span's self
time is the part of the traced wall time that no layer explains.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional

__all__ = ["ROOT_LAYER", "Tracer", "maybe_span", "summarize", "format_summary"]

#: Layer name of the root span around one traced repetition.
ROOT_LAYER = "bench"

ID, PARENT, LAYER, OP, START, END, CALLS, BUSY = range(8)


class Tracer:
    """In-memory span recorder for one traced benchmark run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[list] = []
        self._patches: List[tuple] = []

    # -- recording -------------------------------------------------------
    def open(self, layer: str, op: str) -> list:
        parent = self._stack[-1][ID] if self._stack else None
        rec = [len(self.spans), parent, layer, op, perf_counter(), 0.0, 1, 0.0]
        self.spans.append(rec)
        self._stack.append(rec)
        return rec

    def close(self, rec: list) -> None:
        end = perf_counter()
        rec[END] = end
        rec[BUSY] = end - rec[START]
        popped = self._stack.pop()
        if popped is not rec:
            raise RuntimeError(f"span {rec[LAYER]}.{rec[OP]} closed out of order")

    @contextmanager
    def span(self, layer: str, op: str) -> Iterator[list]:
        rec = self.open(layer, op)
        try:
            yield rec
        finally:
            self.close(rec)

    def aggregate(
        self,
        layer: str,
        op: str,
        busy: float,
        calls: int,
        start: float,
        end: float,
        parent: Optional[int] = None,
    ) -> list:
        """Record ``calls`` short calls, timed by the caller, as one span."""
        if parent is None and self._stack:
            parent = self._stack[-1][ID]
        rec = [len(self.spans), parent, layer, op, start, end, int(calls), float(busy)]
        self.spans.append(rec)
        return rec

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] += value

    # -- instrumentation -------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        layer: str,
        op: str,
        call: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a ``layer.op`` span.

        ``call(original, *args, **kwargs)`` replaces the plain call when
        the probe must adjust arguments or results; ``after(args, result,
        span)`` runs once the span is closed (for work counters).
        """
        original = vars(owner)[attr] if attr in vars(owner) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            rec = tracer.open(layer, op)
            try:
                if call is None:
                    result = original(*args, **kwargs)
                else:
                    result = call(original, *args, **kwargs)
            finally:
                tracer.close(rec)
            if after is not None:
                after(args, result, rec)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------
    def write_jsonl(self, path: str, meta: dict) -> None:
        """Write a meta line, then one line per span and per counter."""
        epoch = min((s[START] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "meta", "run": self.run_id, **meta}) + "\n")
            for s in self.spans:
                fh.write(json.dumps({
                    "kind": "span", "run": self.run_id, "id": s[ID],
                    "parent": s[PARENT], "layer": s[LAYER], "op": s[OP],
                    "start": s[START] - epoch, "end": s[END] - epoch,
                    "calls": s[CALLS], "busy": s[BUSY],
                }) + "\n")
            for name in sorted(self.counters):
                fh.write(json.dumps({
                    "kind": "counter", "run": self.run_id, "name": name,
                    "value": self.counters[name],
                }) + "\n")


def maybe_span(tracer: Optional[Tracer], layer: str, op: str):
    """``tracer.span(layer, op)``, or a no-op context when not tracing."""
    return tracer.span(layer, op) if tracer is not None else nullcontext()


def summarize(spans: List[list]) -> Dict[str, dict]:
    """Per-layer busy time, self time and call counts, with an op breakdown.

    A layer's busy time counts only its outermost spans, so a layer whose
    calls nest (a pooled unit inside a sweep) is not counted twice.  Self
    times of all layers sum to the busy time of the root spans.
    """
    by_id = {s[ID]: s for s in spans}
    child_busy: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            child_busy[s[PARENT]] += s[BUSY]

    def nested_in_own_layer(s: list) -> bool:
        parent = s[PARENT]
        while parent is not None:
            p = by_id[parent]
            if p[LAYER] == s[LAYER]:
                return True
            parent = p[PARENT]
        return False

    layers: Dict[str, dict] = {}
    for s in spans:
        lay = layers.setdefault(
            s[LAYER], {"busy": 0.0, "self": 0.0, "calls": 0, "ops": {}}
        )
        own = s[BUSY] - child_busy[s[ID]]
        op = lay["ops"].setdefault(s[OP], {"busy": 0.0, "self": 0.0, "calls": 0})
        lay["self"] += own
        lay["calls"] += s[CALLS]
        op["self"] += own
        op["calls"] += s[CALLS]
        if not nested_in_own_layer(s):
            lay["busy"] += s[BUSY]
            op["busy"] += s[BUSY]
    return layers


def format_summary(
    layers: Dict[str, dict], counters: Dict[str, float], repeats: int
) -> List[str]:
    """Human-readable per-layer table, per traced repetition."""
    per = 1.0 / max(repeats, 1)
    lines = [f"  {'layer':<26} {'busy_s':>10} {'self_s':>10} {'calls':>10}"]
    for name in sorted(layers, key=lambda n: (n == ROOT_LAYER, n)):
        lay = layers[name]
        label = f"{name} (unexplained)" if name == ROOT_LAYER else name
        lines.append(
            f"  {label:<26} {lay['busy'] * per:>10.4f} {lay['self'] * per:>10.4f} "
            f"{lay['calls'] * per:>10.1f}"
        )
    for name in sorted(counters):
        lines.append(f"  counter {name:<40} {counters[name] * per:.6g}")
    return lines
