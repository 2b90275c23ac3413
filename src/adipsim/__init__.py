"""Adaptive-precision diagonal-input systolic array: bit-exact cycle
simulator, analytic latency/throughput models, and attention-workload
cost comparisons."""

from .analytic import AnalyticParams, dmul_latency, peak_throughput, sweep, throughput, tile_latency
from .array import ArraySim, PhaseError, PsumOverflowError
from .cost import Arch, CostParams, StageCost, stage_latency, summary
from .numerics import mul2, recompose, split_subwords
from .preprocess import PackedGrid, Precision, prepare_weights, unprepare_weights
from .tiling import MatMulJob, TiledPlan, TiledResult, oracle_matmul, plan, run_tiled
from .workload import MhaConfig, Stage, StageSpec, breakdown, builtin_models, get_model, stages, total_ops

__version__ = "0.1.0"

__all__ = [
    "AnalyticParams",
    "Arch",
    "ArraySim",
    "CostParams",
    "MatMulJob",
    "MhaConfig",
    "PackedGrid",
    "PhaseError",
    "PsumOverflowError",
    "Precision",
    "Stage",
    "StageCost",
    "StageSpec",
    "TiledPlan",
    "TiledResult",
    "breakdown",
    "builtin_models",
    "dmul_latency",
    "get_model",
    "mul2",
    "oracle_matmul",
    "peak_throughput",
    "plan",
    "prepare_weights",
    "recompose",
    "run_tiled",
    "split_subwords",
    "stage_latency",
    "stages",
    "summary",
    "sweep",
    "throughput",
    "tile_latency",
    "total_ops",
    "unprepare_weights",
]
