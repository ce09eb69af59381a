"""In-memory spans for the traced run.

A span records a name, the layer (package module) it charges, start and end
times, its parent span and the id of the operation it belongs to.  Spans are
only kept in memory while the run lasts and are written out once at the end.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = 0  # id of the operation now running; spans inherit it

    def new_op(self) -> int:
        self.op += 1
        return self.op

    @contextmanager
    def span(self, name: str, layer: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        rec = {"id": len(self.spans), "name": name, "layer": layer,
               "parent": parent, "op": self.op, "start": time.perf_counter(),
               "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def select(self, name: str, root: int | None = None, **attrs) -> list[dict]:
        """Finished spans called `name` (under `root`, matching `attrs`)."""
        out = []
        for s in self.spans:
            if s["name"] != name or any(s.get(k) != v for k, v in attrs.items()):
                continue
            if root is not None and not self._under(s, root):
                continue
            out.append(s)
        return out

    def total(self, name: str, **attrs) -> tuple[float, int]:
        """(summed duration, span count) of the spans called `name`."""
        sel = self.select(name, **attrs)
        return sum(duration(s) for s in sel), len(sel)

    def _under(self, s: dict, root: int) -> bool:
        while s is not None:
            if s["id"] == root:
                return True
            s = self.spans[s["parent"]] if s["parent"] is not None else None
        return False

    def self_times(self, root: int) -> dict[str, float]:
        """Self time per layer inside the subtree of `root`.

        A span's self time is its duration minus the durations of its
        direct children; the per-layer sums add up to the root's duration.
        """
        child_time: dict[int, float] = {}
        members = [s for s in self.spans if self._under(s, root)]
        for s in members:
            if s["id"] != root:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + duration(s)
        table: dict[str, float] = {}
        for s in members:
            own = duration(s) - child_time.get(s["id"], 0.0)
            table[s["layer"]] = table.get(s["layer"], 0.0) + own
        return table


def duration(s: dict) -> float:
    return s["end"] - s["start"]
