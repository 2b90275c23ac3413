"""Block matmul driver mapping arbitrary M x K times K x P jobs onto the array.

Tile loops run j (output columns), then k (reduction), then i (output
rows): each (j, k) pass loads one stationary weight tile and streams every
input row tile back to back, so one pass costs one weight load plus
tm * n streamed rows. Partial results accumulate in a model-level output
buffer across the k loop and are written once.

Jobs carrying several same-shape weight matrices at a narrow width are
fused into groups of r = 8 / weight_bits matrices per pass, which divides
the pass count by r while streaming the shared input once.

Untraced runs evaluate the tp passes of one k at once, since they all
stream the same input block (`array.evaluate_block`, one float64 matmul),
and add them to the outputs with one add per matrix; traced runs step the
reference `ArraySim` pass by pass, which writes the per-PE trace. Both give
the same outputs, cycle counts, pass counts and overflow errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .array import ArraySim, evaluate_block, resolve_stages
from .numerics import ceil_div, check_signed
from .preprocess import Precision, PrecisionMode, prepare_weights


@dataclass
class MatMulJob:
    """One shared input matrix times one or more weight matrices."""

    a: np.ndarray
    weights: list[np.ndarray]
    precision: Precision
    n: int

    def __post_init__(self) -> None:
        self.a = np.asarray(self.a, dtype=np.int64)
        self.weights = [np.asarray(w, dtype=np.int64) for w in self.weights]
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
        check_signed(self.a, 8, "input element")
        for w in self.weights:
            check_signed(w, self.precision.weight_bits, "weight")
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

    @property
    def rows_per_pass(self) -> int:
        return self.tm


def plan(job: MatMulJob) -> TiledPlan:
    m_dim, k_dim, p_dim = job.shape
    r = job.precision.r
    total = len(job.weights)
    sizes = [min(r, total - g * r) for g in range(ceil_div(total, r))]
    return TiledPlan(
        tm=ceil_div(m_dim, job.n),
        tk=ceil_div(k_dim, job.n),
        tp=ceil_div(p_dim, job.n),
        group_sizes=sizes,
    )


def oracle_matmul(job: MatMulJob) -> list[np.ndarray]:
    """Brute-force golden results: plain triple loop, no tiling, exact ints."""
    m_dim, k_dim, p_dim = job.shape
    a_rows = [[int(v) for v in row] for row in job.a]
    outputs = []
    for w in job.weights:
        b_rows = [[int(v) for v in row] for row in w]
        c = [[0] * p_dim for _ in range(m_dim)]
        for i in range(m_dim):
            a_row = a_rows[i]
            c_row = c[i]
            for k in range(k_dim):
                a_ik = a_row[k]
                b_row = b_rows[k]
                for j in range(p_dim):
                    c_row[j] += a_ik * b_row[j]
        outputs.append(np.array(c, dtype=np.int64).reshape(m_dim, p_dim))
    return outputs


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
    loads across all fused groups. Given a `trace` sink, every pass steps
    the reference `ArraySim` and writes its per-PE trace there; without
    one, passes are evaluated whole.
    """
    m_dim, k_dim, p_dim = job.shape
    n = job.n
    reduce_stages = resolve_stages(job.precision, mac_stages, reduce_stages)
    the_plan = plan(job)
    tm, tk, tp = the_plan.tm, the_plan.tk, the_plan.tp
    a_pad = np.zeros((tm * n, tk * n), dtype=np.int64)
    a_pad[:m_dim, :k_dim] = job.a
    accum = [np.zeros((tm * n, tp * n), dtype=np.int64) for _ in job.weights]

    total_cycles = 0
    passes = 0
    base = 0
    for nw in the_plan.group_sizes:
        group = job.weights[base : base + nw]
        mode = PrecisionMode(job.precision, nw)
        grid = prepare_weights(group, mode, n)
        if trace is None:
            # One k-row of passes streams the same input block: evaluate them
            # together and add them to (tm*n, tp, n) views of the outputs.
            views = [acc.reshape(tm * n, tp, n) for acc in accum[base : base + nw]]
            for k in range(tk if tp else 0):  # P = 0 has no passes
                a_k = a_pad[:, k * n : (k + 1) * n]
                outs, cycles = evaluate_block(grid[k], a_k, mac_stages, reduce_stages, overlap_weights)
                for t, view in enumerate(views):
                    view += outs[:, t].astype(np.int64)
                total_cycles += tp * cycles
                passes += tp
        else:
            sim = ArraySim(
                n,
                mode,
                mac_stages=mac_stages,
                reduce_stages=reduce_stages,
                overlap_weights=overlap_weights,
                trace=trace,
                # later groups continue the first one's trace and clock
                start_cycle=total_cycles if base else None,
            )
            for j in range(tp):
                cols = slice(j * n, (j + 1) * n)
                for k in range(tk):
                    start = sim.cycle
                    sim.load_weights(grid[k][j])
                    collected = sim.stream(a_pad[:, k * n : (k + 1) * n])  # every row, in order
                    if collected:
                        outs = np.array([row.outputs for row in collected])  # rows x nw x n
                        for t in range(nw):
                            accum[base + t][:, cols] += outs[:, t]
                    total_cycles += sim.cycle - start
                    passes += 1
        base += nw

    outputs = [acc[:m_dim, :p_dim] for acc in accum]
    return TiledResult(outputs=outputs, total_cycles=total_cycles, pass_count=passes)
