"""Benchmark-side tracing of adipsim's layers.

`install` wraps the public entry points of each module from outside the
package and returns a function that puts the originals back. Calls that
happen a few hundred times per pass become spans (name, start, end,
parent, job id), kept in memory and written once at the end. The
high-frequency boundaries (`weight_slots`, one per array cell per weight
load, and the per-cycle trace writer) are aggregated as call counters and
summed time, charged to the enclosing span so its self time excludes them.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

_NAME, _START, _END, _PARENT, _JOB = range(5)


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1, job id]
        self.child_s: list[float] = []  # per span: time covered by children and counters
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.summed_s: defaultdict[str, float] = defaultdict(float)
        self.job = -1
        self._stack: list[int] = []

    def span(self, name: str, fn, on_exit=None):
        """Wrap `fn` so each call records one span; `on_exit(result, args)` may count."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), 0.0, parent, self.job])
            self.child_s.append(0.0)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                record = self.spans[index]
                record[_END] = end
                if parent >= 0:
                    self.child_s[parent] += end - record[_START]
            self.counters[name] += 1
            if on_exit is not None:
                on_exit(result, args)
            return result

        return wrapper

    def counter(self, name: str, fn):
        """Wrap `fn` so calls only add to a counter and a summed time."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self.counters[name] += 1
                self.summed_s[name] += elapsed
                if self._stack:
                    self.child_s[self._stack[-1]] += elapsed

        return wrapper

    def total_s(self, name: str) -> float:
        return sum(s[_END] - s[_START] for s in self.spans if s[_NAME] == name)

    def self_s(self, name: str) -> float:
        return sum(
            s[_END] - s[_START] - self.child_s[i]
            for i, s in enumerate(self.spans)
            if s[_NAME] == name
        )

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {"name": s[_NAME], "start": s[_START], "end": s[_END], "parent": s[_PARENT], "job": s[_JOB]}
                    )
                    + "\n"
                )


def install(rec: Recorder, lib):
    """Wrap the layer boundaries of the imported package `lib`; returns an undo function."""
    tiling, array, cost = lib.tiling, lib.array, lib.cost
    sim = array.ArraySim
    saved = []

    def patch(owner, attr, wrapper):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def count_tiles(grid, _args):
        rec.counters["preprocess.prepare_weights.tiles"] += sum(len(row) for row in grid)

    stream = sim.stream

    def timed_stream(self, *args, **kwargs):
        before = self.cycle
        try:
            return stream(self, *args, **kwargs)
        finally:
            rec.counters["array.stream.cycles"] += self.cycle - before

    patch(tiling, "MatMulJob", rec.span("tiling.MatMulJob", tiling.MatMulJob))
    patch(tiling, "run_tiled", rec.span("tiling.run_tiled", tiling.run_tiled))
    patch(tiling, "oracle_matmul", rec.span("tiling.oracle_matmul", tiling.oracle_matmul))
    # run_tiled looks prepare_weights up in its own module's namespace.
    patch(tiling, "prepare_weights", rec.span("preprocess.prepare_weights", tiling.prepare_weights, count_tiles))
    patch(sim, "__init__", rec.span("array.ArraySim", sim.__init__))
    patch(sim, "load_weights", rec.span("array.load_weights", sim.load_weights))
    patch(sim, "stream", rec.span("array.stream", timed_stream))
    # ArraySim has no public trace boundary; its per-cycle writer is the nearest.
    patch(sim, "_write_trace", rec.counter("trace.write", sim._write_trace))
    patch(array, "weight_slots", rec.counter("pe.weight_slots", array.weight_slots))
    patch(cost, "summary", rec.span("cost.summary", cost.summary))
    patch(cost, "stages", rec.counter("workload.stages", cost.stages))
    patch(lib.analytic, "sweep", rec.span("analytic.sweep", lib.analytic.sweep))

    def undo():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo
