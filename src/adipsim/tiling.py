"""Block matmul driver mapping arbitrary M x K times K x P jobs onto the array.

Tile loops run j (output columns), then k (reduction), then i (output
rows): each (j, k) pass loads one stationary weight tile and streams every
input row tile back to back. Partial results accumulate in a model-level
output buffer across the k loop and are written once.

A job's matrices are packed column by column into the r weight fields of
every word (`TiledPlan`), so a job is one fused group, which `run_tiled`
runs on one `ArraySim`. Operands stay int8 from `MatMulJob` to the
matmul: a job checks them once, when it is built, and nothing after it
scans a value again (`plan`, `prepare_weights`). `oracle_matmul` gives
the golden results with no tiling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .array import ArraySim, stream_cycles
from .numerics import ACT_BITS, ceil_div, check_size, check_type, exact_matmuls, to_int8
from .preprocess import PackedGrid, Precision, _pack_grid


def _owned(values: np.ndarray, bits: int, what: str) -> np.ndarray:
    """`values` range-checked by `to_int8`, as a read-only int8 array that
    no caller holds: `to_int8` hands an int8 array back as it is, so that
    one is copied."""
    array = to_int8(values, bits, what)
    if array is values:
        array = array.copy()
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class MatMulJob:
    """One shared input matrix times one or more weight matrices.

    Each operand is range-checked once, here, and then kept at its own
    width: `a` and every matrix of the tuple `weights` are read-only int8
    arrays that the job owns (`_owned`), and no field can be assigned, so
    the check holds for the job's lifetime and no later step repeats it.
    Integral floats are accepted; a non-integral, non-finite or
    out-of-range element, a complex or string operand, a `precision` that
    is not a `Precision` and an `n` that is not a positive integer raise
    ValueError. Only the outputs of a run are int64.
    """

    a: np.ndarray
    weights: tuple[np.ndarray, ...]
    precision: Precision
    n: int

    def __post_init__(self) -> None:
        a = np.asarray(self.a)
        weights = [np.asarray(w) for w in self.weights]
        if a.ndim != 2:
            raise ValueError(f"input matrix must be 2-D, got shape {a.shape}")
        if not weights:
            raise ValueError("job needs at least one weight matrix")
        k_dim = a.shape[1]
        shape = weights[0].shape
        if len(shape) != 2 or shape[0] != k_dim:
            raise ValueError(f"weight shape {shape} incompatible with input K={k_dim}")
        if any(w.shape != shape for w in weights):
            raise ValueError("all weight matrices must share one shape")
        object.__setattr__(self, "a", _owned(a, ACT_BITS, "input element"))
        bits = check_type(self.precision, Precision, "precision").weight_bits
        object.__setattr__(self, "weights", tuple(_owned(w, bits, "weight") for w in weights))
        object.__setattr__(self, "n", check_size(self.n))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.a.shape[0], self.a.shape[1], self.weights[0].shape[1]


@dataclass(frozen=True)
class TiledPlan:
    """Static pass structure of a job of `count` K x P matrices of
    `precision` on an n x n array, with its slot map: the job's columns,
    matrix by matrix, cut into `virtual` runs of W = per * n columns, one
    run per weight field of a stationary word, the last padded with zero
    columns. Column c of matrix t is column g = t * P + c of that row, so
    column g % W of virtual matrix g // W. `per` = ceil(count * P / (r * n))
    is the fewest column tiles a pass can take: r * n output-column slots
    per pass hold count * P columns no tighter. A job's tk * per passes are
    never more than the tk * ceil(count * tp / r) of packing whole column
    tiles, or the tk * tp * ceil(count / r) of fusing whole matrices r at a
    time.

    Each pass loads one n x n tile of stationary words and streams the
    tm * n input rows of its reduction tile, zero padding included; the
    properties count the run's clock and traffic."""

    tm: int
    tk: int
    tp: int
    per: int
    virtual: int
    count: int
    precision: Precision
    n: int

    @property
    def pass_count(self) -> int:
        return self.tk * self.per

    @property
    def input_bytes(self) -> int:
        """1-byte input elements streamed over all passes."""
        return self.pass_count * self.tm * self.n**2

    @property
    def weight_words(self) -> int:
        """Stationary 8-bit words loaded over all passes."""
        return self.pass_count * self.n**2

    @property
    def output_elements(self) -> int:
        """Output elements of the matrices, padded to whole tiles."""
        return self.count * self.tm * self.tp * self.n**2

    @property
    def cycles(self) -> int:
        """The clock of the run: `stream_cycles` a pass, each weight load
        hidden behind the pass before it."""
        return self.pass_count * stream_cycles(self.n, self.tm * self.n, self.precision)

    @classmethod
    def from_shape(cls, m: int, k: int, p: int, count: int, precision: Precision, n: int) -> "TiledPlan":
        """The plan of an M x K input times `count` K x P weight matrices of
        `precision` on an n x n array, from the shape alone. Sizes and the
        count must be integers and `precision` a `Precision`: anything else
        raises ValueError."""
        check_type(precision, Precision, "precision")
        n = check_size(n)
        m, k, p = (check_size(d, f"job dimension {what}", least=None) for d, what in zip((m, k, p), "MKP"))
        count = check_size(count, "weight matrix count", least=None)
        if count < 1:
            raise ValueError(f"a plan needs at least one weight matrix, got {count}")
        if min(m, k, p) < 0:
            raise ValueError(f"negative job shape {m}x{k}x{p}")
        return cls._of_shape(m, k, p, count, precision, n)

    @classmethod
    def _of_shape(cls, m: int, k: int, p: int, count: int, precision: Precision, n: int) -> "TiledPlan":
        """The plan arithmetic, on a shape already checked."""
        per = ceil_div(count * p, precision.r * n)
        virtual = ceil_div(count * p, per * n) if per else 0
        return cls(ceil_div(m, n), ceil_div(k, n), ceil_div(p, n), per, virtual, count, precision, n)


def plan(job: MatMulJob) -> TiledPlan:
    """`TiledPlan.from_shape` of the job's shape, matrix count, precision
    and size, which the job checked when it was built."""
    return TiledPlan._of_shape(*job.shape, len(job.weights), job.precision, job.n)


def oracle_matmul(job: MatMulJob) -> list[np.ndarray]:
    """Golden results with no tiling: one exact `a @ w` per weight matrix,
    from the raw matrices, with no packing, rotation or field decode.

    Every product is at most B = |a| * |w| in magnitude and every sum at
    most B * K. The int8 operands of a `MatMulJob` are bounded by their
    width, with no scan: B is the precision's `product_bound`, at most
    2^14. Operands of any other dtype, which only a job-shaped object can
    hold, are scanned for their largest magnitude.
    A B of at most 2^24 runs through `numerics.exact_matmuls` (float32,
    where numpy uses BLAS); a larger B runs in int64. Both are exact while
    B * K < 2^63; a job whose values reach that raises ValueError.
    """

    def magnitude(x: np.ndarray) -> int:
        return max(int(x.max(initial=0)), -int(x.min(initial=0)))

    _, k_dim, p_dim = job.shape
    if all(x.dtype == np.int8 for x in (job.a, *job.weights)):  # range-checked to the job's widths
        product_bound = job.precision.product_bound
    else:
        product_bound = magnitude(job.a) * max(magnitude(w) for w in job.weights)
    if product_bound * k_dim >= 1 << 63:
        raise ValueError(f"|a| * |w| * K reaches 2^63 at K={k_dim}; int64 sums could wrap")
    if product_bound > 1 << 24:  # one product may not fit float32 exactly
        a = job.a.astype(np.int64)  # an int8 matmul would wrap
        return [a @ w.astype(np.int64) for w in job.weights]

    def weight_rows(t: int, rows: slice) -> np.ndarray:
        return job.weights[t][rows].astype(np.float32)

    return list(exact_matmuls(job.a, weight_rows, len(job.weights), p_dim, product_bound))


def prepare_weights(job: MatMulJob, the_plan: TiledPlan) -> PackedGrid:
    """The packed grid of the job's virtual matrices (see `TiledPlan`), for
    `the_plan` = `plan(job)`, from the pack core of
    `preprocess.prepare_weights` with no range check: the job checked its
    weights when it was built. A job with no pass fills no tile and raises
    ValueError. It takes that function's name because bench/spans.py wraps
    adipsim.tiling.prepare_weights as the `preprocess.prepare_weights` span
    and counts the tiles of the grid it returns; the span now also times
    the virtual layout."""
    _, k_dim, p_dim = job.shape
    if not the_plan.pass_count:
        raise ValueError(f"{k_dim}x{p_dim} matrices fill no tile")
    width = the_plan.per * job.n  # columns per virtual matrix; matrix t starts at column t * p_dim
    if width == p_dim or the_plan.virtual == len(job.weights) == 1:  # virtual matrix t is matrix t
        matrices = job.weights
    else:
        side = np.zeros((k_dim, the_plan.virtual * width), dtype=np.int8)
        np.concatenate(job.weights, axis=1, out=side[:, : len(job.weights) * p_dim])
        matrices = [side[:, v * width : (v + 1) * width] for v in range(the_plan.virtual)]
    return _pack_grid(matrices, job.precision, job.n)


@dataclass
class TiledResult:
    outputs: list[np.ndarray]
    total_cycles: int
    pass_count: int


def run_tiled(job: MatMulJob, trace=None) -> TiledResult:
    """Run a job through the cycle simulator tile by tile.

    Results are exact; `total_cycles` sums pass latencies, which is the
    plan's `cycles`, and `pass_count` counts weight-tile loads. The job's
    virtual matrices (see `TiledPlan`) run as one fused group on one
    `ArraySim`, whose clock gives the cycles and which writes its per-PE
    trace to the `trace` sink when one is given. Each matrix's outputs are
    a slice of the group's int64 block, or one M x P copy when the matrix
    spans virtual matrices.
    """
    m_dim, _, p_dim = job.shape
    the_plan = plan(job)
    sim = ArraySim(job.n, job.precision, trace)
    if not the_plan.pass_count:  # K = 0 or P = 0 has no passes
        outputs = list(np.zeros((len(job.weights), m_dim, p_dim), dtype=np.int64))
        return TiledResult(outputs=outputs, total_cycles=sim.cycle, pass_count=0)
    products = sim.stream_grid(prepare_weights(job, the_plan), job.a)  # (M, virtual, width)
    width = the_plan.per * job.n
    outputs = []
    for t in range(len(job.weights)):
        start, stop = t * p_dim, (t + 1) * p_dim  # matrix t's columns, side by side
        pieces = [
            products[:, v, max(start - v * width, 0) : min(stop - v * width, width)]
            for v in range(start // width, (stop - 1) // width + 1)
        ]
        outputs.append(pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=1))
    return TiledResult(outputs=outputs, total_cycles=sim.cycle, pass_count=the_plan.pass_count)
