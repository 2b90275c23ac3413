"""The benchmark's contract with the package.

bench/spans.py wraps library entry points by name, from outside the
package. Installing its wrappers on the package and undoing them must work,
so that renaming or deleting a wrapped name fails a test here.
"""

import importlib.util
from pathlib import Path

import numpy as np

import adipsim
from adipsim.preprocess import Precision
from adipsim.tiling import MatMulJob, plan

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spans_install_on_the_package_and_undo():
    spans = _spans()
    original = adipsim.tiling.run_tiled, adipsim.array.ArraySim.stream, adipsim.array.weight_slots
    rec = spans.Recorder()
    undo = spans.install(rec, adipsim)
    try:
        # three W4 matrices of 3 x 2 tiles: two fused groups, 12 passes
        weights = [np.ones((9, 6), dtype=np.int64)] * 3
        job = MatMulJob(np.ones((4, 9), dtype=np.int64), weights, Precision.W4, 4)
        adipsim.tiling.run_tiled(job)
    finally:
        undo()
    assert rec.counters["tiling.run_tiled"] == 1
    # the tile counter iterates each prepared grid's rows of tiles
    assert rec.counters["preprocess.prepare_weights.tiles"] == plan(job).pass_count == 12
    assert (adipsim.tiling.run_tiled, adipsim.array.ArraySim.stream, adipsim.array.weight_slots) == original
