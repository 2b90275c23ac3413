"""Adaptive-precision diagonal-input systolic array: bit-exact cycle
simulator, analytic latency/throughput models, and attention-workload
cost comparisons.

Importing the package loads none of its layers. A public name or a layer
module loads its home module when it is first read, and stays bound in the
package from then on.
"""

import importlib

__version__ = "0.1.0"

# The home module of each public name.
_HOME = {
    "AnalyticParams": "analytic",
    "Arch": "cost",
    "ArraySim": "array",
    "CostParams": "cost",
    "MatMulJob": "tiling",
    "MhaConfig": "workload",
    "PackedGrid": "preprocess",
    "PhaseError": "array",
    "PsumOverflowError": "array",
    "Precision": "preprocess",
    "Stage": "workload",
    "StageCost": "cost",
    "StageSpec": "workload",
    "TiledPlan": "tiling",
    "TiledResult": "tiling",
    "breakdown": "workload",
    "builtin_models": "workload",
    "dmul_latency": "analytic",
    "get_model": "workload",
    "oracle_matmul": "tiling",
    "peak_throughput": "analytic",
    "plan": "tiling",
    "prepare_weights": "preprocess",
    "run_tiled": "tiling",
    "stage_latency": "cost",
    "stages": "workload",
    "summary": "cost",
    "sweep": "analytic",
    "throughput": "analytic",
    "tile_latency": "analytic",
    "total_ops": "workload",
    "unprepare_weights": "preprocess",
}

_LAYERS = ("numerics", "preprocess", "array", "tiling", "analytic", "workload", "cost")

__all__ = list(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _LAYERS:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_LAYERS})
