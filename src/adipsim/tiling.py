"""Block matmul driver mapping arbitrary M x K times K x P jobs onto the array.

Tile loops run j (output columns), then k (reduction), then i (output
rows): each (j, k) pass loads one stationary weight tile and streams every
input row tile back to back, so one pass costs one weight load plus
tm * n streamed rows. Partial results accumulate in a model-level output
buffer across the k loop and are written once.

Jobs carrying several same-shape weight matrices at a narrow width are
fused into groups of r = 8 / weight_bits matrices per pass, which divides
the pass count by r while streaming the shared input once.

Every pass of a fused group streams the same input, so `run_tiled` hands
each group at once to `ArraySim.stream_grid`, traced or not, on one
`ArraySim` per job, set up by the job's precision; each group's grid
carries its own matrix count. It forms registers only where a trace or
the overflow bound needs them, and takes the group's outputs from exact
float32 matmuls over chunks of K, summed in float64.

Operands stay int8 from `MatMulJob` to the matmul; the job checks each
once, and the later checks in `prepare_weights` and `stream_grid` read
the int8 dtype instead of the values, except for narrow weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .array import ArraySim
from .numerics import ceil_div, to_int8
from .preprocess import Precision, PrecisionMode, prepare_weights


@dataclass
class MatMulJob:
    """One shared input matrix times one or more weight matrices.

    Each operand is range-checked once, here, and then kept at its own
    width: `a` and every weight matrix are int8 arrays. Integral floats are
    accepted; a non-integral, non-finite or out-of-range element raises
    ValueError. Only the outputs of a run are int64.
    """

    a: np.ndarray
    weights: list[np.ndarray]
    precision: Precision
    n: int

    def __post_init__(self) -> None:
        self.a = np.asarray(self.a)
        self.weights = [np.asarray(w) for w in self.weights]
        if self.a.ndim != 2:
            raise ValueError(f"input matrix must be 2-D, got shape {self.a.shape}")
        if not self.weights:
            raise ValueError("job needs at least one weight matrix")
        k_dim = self.a.shape[1]
        shape = self.weights[0].shape
        if len(shape) != 2 or shape[0] != k_dim:
            raise ValueError(f"weight shape {shape} incompatible with input K={k_dim}")
        if any(w.shape != shape for w in self.weights):
            raise ValueError("all weight matrices must share one shape")
        self.a = to_int8(self.a, 8, "input element")
        self.weights = [to_int8(w, self.precision.weight_bits, "weight") for w in self.weights]
        if self.n < 1:
            raise ValueError(f"array size must be >= 1, got {self.n}")

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.a.shape[0], self.a.shape[1], self.weights[0].shape[1]


@dataclass
class TiledPlan:
    """Static pass structure of a job on an n x n array."""

    tm: int
    tk: int
    tp: int
    group_sizes: list[int] = field(default_factory=list)

    @property
    def pass_count(self) -> int:
        return self.tk * self.tp * len(self.group_sizes)

    @classmethod
    def from_shape(cls, m: int, k: int, p: int, count: int, precision: Precision, n: int) -> "TiledPlan":
        """The plan of an M x K input times `count` K x P weight matrices of
        `precision` on an n x n array, from the shape alone: the matrices
        are fused r at a time, the last group taking what is left."""
        if n < 1:
            raise ValueError(f"array size must be >= 1, got {n}")
        if count < 1:
            raise ValueError(f"a plan needs at least one weight matrix, got {count}")
        if min(m, k, p) < 0:
            raise ValueError(f"negative job shape {m}x{k}x{p}")
        r = precision.r
        return cls(
            tm=ceil_div(m, n),
            tk=ceil_div(k, n),
            tp=ceil_div(p, n),
            group_sizes=[min(r, count - g * r) for g in range(ceil_div(count, r))],
        )


def plan(job: MatMulJob) -> TiledPlan:
    return TiledPlan.from_shape(*job.shape, len(job.weights), job.precision, job.n)


def oracle_matmul(job: MatMulJob) -> list[np.ndarray]:
    """Golden results with no tiling: one exact `a @ w` per weight matrix,
    from the raw matrices, with no packing, rotation or field decode.

    Every product and partial sum is at most B = |a| * |w| * K in
    magnitude. While B < 2^53 they are all integers that float64 holds
    exactly, whatever order the sums run in, so the matmul runs in float64,
    where numpy uses BLAS; a valid job, whose 8-bit inputs and weights of
    at most 8 bits give |a| * |w| <= 2^14, stays there for any K below 2^39.
    Above that it runs in int64, exact while B < 2^63; a job whose values
    reach that raises ValueError.
    """

    def magnitude(x: np.ndarray) -> int:
        return max(int(x.max(initial=0)), -int(x.min(initial=0)))

    k_dim = job.shape[1]
    bound = magnitude(job.a) * max(magnitude(w) for w in job.weights) * k_dim
    if bound >= 1 << 63:
        raise ValueError(f"|a| * |w| * K reaches 2^63 at K={k_dim}; int64 sums could wrap")
    if bound >= 1 << 53:
        a = job.a.astype(np.int64)  # an int8 matmul would wrap
        return [a @ w.astype(np.int64) for w in job.weights]
    a = job.a.astype(np.float64)
    return [(a @ w.astype(np.float64)).astype(np.int64) for w in job.weights]


@dataclass
class TiledResult:
    outputs: list[np.ndarray]
    total_cycles: int
    pass_count: int


def run_tiled(
    job: MatMulJob,
    overlap_weights: bool = True,
    mac_stages: int = 1,
    reduce_stages: Optional[int] = None,
    trace=None,
) -> TiledResult:
    """Run a job through the cycle simulator tile by tile.

    Results are exact; `total_cycles` sums pass latencies (plus weight-load
    cycles when `overlap_weights` is off) and `pass_count` counts weight-tile
    loads across all fused groups. Every group runs on one `ArraySim`,
    whose clock gives the cycles and which writes its per-PE trace to the
    `trace` sink when one is given.
    """
    m_dim, _, p_dim = job.shape
    n = job.n
    the_plan = plan(job)
    sim = ArraySim(n, job.precision, mac_stages, reduce_stages, overlap_weights, trace)
    outputs = []
    base = 0
    for nw in the_plan.group_sizes:
        grid = prepare_weights(job.weights[base : base + nw], PrecisionMode(job.precision, nw), n)
        if the_plan.tk and the_plan.tp:
            products = sim.stream_grid(grid, job.a)
        else:  # K = 0 or P = 0 has no passes
            products = np.zeros((m_dim, nw, p_dim))
        outputs += [products[:, t, :p_dim].astype(np.int64) for t in range(nw)]
        base += nw

    return TiledResult(outputs=outputs, total_cycles=sim.cycle, pass_count=the_plan.pass_count)
