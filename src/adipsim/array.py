"""Cycle-stepped model of the n x n adaptive-precision array.

Register discipline: every step reads only state registered at the end of
the previous step, so PEs of one cycle evaluate in any order (here: as
whole-grid numpy operations).

Dataflow per step:

* a fresh input row enters PE row 0 unskewed (PE(0, c) gets element c);
* the input registered at PE(r, c) reappears at PE(r+1, (c-1) mod n),
  wrapping from the leftmost column to the rightmost of the next row;
* the four per-PE group products ride dedicated buses straight down each
  column, one PE row per cycle, in lockstep with the diagonal input wave;
* below each column a shared two-stage shift-add folds the buses. The
  output tap depends on the precision: 2-bit weights read the PE buses
  directly, 4-bit the first stage (two results), 8-bit the second stage.

Because inputs enter unskewed and the wave stays aligned, all n column
results of one input row emerge on the same cycle; no output-deskew FIFOs
exist anywhere in the model.

Two engines evaluate a pass (one weight load, then a run of streamed rows):

* `ArraySim` steps the registers one clock at a time. It is the reference
  model and the only source of per-PE traces.
* `evaluate_pass` computes the same pass in one shot. The bottom psum of
  column c for input row a is sum_k a[k] * slot[g, k, c] over the
  un-rotated slot grids, and the reducer's fold of the four buses is
  linear, so every row's outputs are one integer matmul with the
  un-rotated weight fields. The cycle count comes from the same
  `load_cycles` / `stream_cycles` that the stepped model advances its
  clock by, and the psum-bus and reducer overflow checks cover exactly
  the register values the stepped model would form.
"""

from __future__ import annotations

import io
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .numerics import PSUM_BITS, bit_fields, signed_range
from .pe import PhaseError, PsumOverflowError, decode_slots
from .pe import weight_slots  # noqa: F401  kept as adipsim.array.weight_slots for bench/spans.py
from .preprocess import PackedWeightTile, Precision, PrecisionMode, rotation_index

_ACT_MIN, _ACT_MAX = signed_range(8)
_PSUM_LIMIT = 1 << (PSUM_BITS - 1)

# Elements of the (rows, 4, n, n) prefix-sum tensor formed at once by the
# exact psum check; bounds its memory to a few tens of MB.
_CHECK_CHUNK = 1 << 21

TRACE_HEADER = "cycle,row,col,input,psum0,psum1,psum2,psum3"


def load_cycles(n: int, overlap_weights: bool) -> int:
    """Weight-load cycles of one pass: one tile row per cycle, or none
    when loading is double-buffered behind the previous drain."""
    return 0 if overlap_weights else n


def stream_cycles(n: int, rows: int, mac_stages: int, reduce_stages: int) -> int:
    """Cycles from the first streamed row entering until the last result
    leaves: one per row, plus the fill of the n PE rows, the psum pipeline
    and the reducer."""
    return rows + n + mac_stages + reduce_stages - 2


def resolve_stages(precision: Precision, mac_stages: int, reduce_stages: Optional[int]) -> int:
    """Validate the pipeline depths; returns `reduce_stages`, defaulting to
    the structural depth of the precision."""
    if mac_stages < 1:
        raise ValueError(f"mac_stages must be >= 1, got {mac_stages}")
    structural = precision.reducer_stages
    if reduce_stages is None:
        return structural
    if reduce_stages < structural:
        raise ValueError(
            f"reduce_stages={reduce_stages} below the structural depth "
            f"{structural} of {precision.name}"
        )
    return reduce_stages


def _check_register(values: np.ndarray, what: str) -> None:
    if values.size and np.abs(values).max() >= _PSUM_LIMIT:
        raise PsumOverflowError(f"{what} overflow")


@dataclass
class CollectedRow:
    """One streamed input row's results: per active matrix, one output row."""

    index: int
    cycle: int
    outputs: list[np.ndarray]


class ArraySim:
    """Single-owner, sequentially stepped simulator instance.

    `mac_stages` counts psum pipeline registers at the column bottom (the
    bottom PE's psum register is the first); `reduce_stages` counts shared
    shift-add registers traversed on output, at least the structural depth
    of the precision (2 for W8, 1 for W4, 0 for W2).
    """

    def __init__(
        self,
        n: int,
        mode: PrecisionMode,
        mac_stages: int = 1,
        reduce_stages: Optional[int] = None,
        overlap_weights: bool = False,
        trace: Optional[io.TextIOBase] = None,
    ):
        if n < 1:
            raise ValueError(f"array size must be >= 1, got {n}")
        reduce_stages = resolve_stages(mode.precision, mac_stages, reduce_stages)
        self.n = n
        self.mode = mode
        self.mac_stages = mac_stages
        self.reduce_stages = reduce_stages
        self.overlap_weights = overlap_weights
        self.cycle = 0
        self._trace = trace
        self._loaded = False
        self._slots = np.zeros((4, n, n), dtype=np.int64)
        self._zero_row = np.zeros(n, dtype=np.int64)
        self._reset_pipeline()
        if trace is not None:
            self._trace_cells = [f"{r},{c}," for r in range(n) for c in range(n)]
            try:
                fresh = trace.tell() == 0
            except (OSError, io.UnsupportedOperation):
                fresh = True
            if fresh:
                trace.write(TRACE_HEADER + "\n")

    # -- state inspection (read-only copies) --------------------------------

    @property
    def input_registers(self) -> np.ndarray:
        return self._inputs.copy()

    @property
    def psum_registers(self) -> np.ndarray:
        return self._psums.copy()

    def _reset_pipeline(self) -> None:
        n = self.n
        self._inputs = np.zeros((n, n), dtype=np.int64)
        self._psums = np.zeros((4, n, n), dtype=np.int64)
        self._stage1 = np.zeros((2, n), dtype=np.int64)
        self._stage2 = np.zeros(n, dtype=np.int64)
        self._pre = deque(
            np.zeros((4, n), dtype=np.int64) for _ in range(self.mac_stages - 1)
        )
        extra = self.reduce_stages - self.mode.precision.reducer_stages
        self._out_hist: deque[list[np.ndarray]] = deque(maxlen=extra + 1)

    # -- phases --------------------------------------------------------------

    def load_weights(self, packed: PackedWeightTile) -> None:
        """Load an n x n packed tile vertically; clears all compute state.

        Costs n cycles (one row per cycle) unless the instance was built
        with `overlap_weights=True`, which models double-buffered loading
        hidden behind the previous tile's drain.
        """
        if packed.n != self.n:
            raise ValueError(f"packed tile is {packed.n}x{packed.n}, array is {self.n}x{self.n}")
        if packed.mode != self.mode:
            raise ValueError(f"packed mode {packed.mode} does not match array mode {self.mode}")
        self._slots = decode_slots(packed.words, self.mode.precision)
        self._reset_pipeline()
        self.cycle += load_cycles(self.n, self.overlap_weights)
        self._loaded = True

    # -- one clock -----------------------------------------------------------

    def _step(self, row_in: np.ndarray) -> list[np.ndarray]:
        prev_bottom = self._psums[:, -1, :].copy()
        if self._pre:
            self._pre.append(prev_bottom)
            feed = self._pre.popleft()
        else:
            feed = prev_bottom
        new_stage1 = np.stack((feed[0] + (feed[1] << 2), feed[2] + (feed[3] << 2)))
        new_stage2 = self._stage1[0] + (self._stage1[1] << 4)

        input_in = np.empty_like(self._inputs)
        input_in[0] = row_in
        # registered value at (r, c) moves to (r+1, (c-1) mod n)
        input_in[1:, :-1] = self._inputs[:-1, 1:]
        input_in[1:, -1] = self._inputs[:-1, 0]
        psums_in = np.zeros_like(self._psums)
        psums_in[:, 1:, :] = self._psums[:, :-1, :]
        self._psums = psums_in + input_in[None, :, :] * self._slots
        self._inputs = input_in
        self._stage1 = new_stage1
        self._stage2 = new_stage2
        self.cycle += 1

        _check_register(self._psums, "psum bus")
        _check_register(self._stage2, "reducer")

        tap = self._tap()
        self._out_hist.append(tap)
        if self._trace is not None:
            self._write_trace()
        if len(self._out_hist) == self._out_hist.maxlen:
            return self._out_hist[0]
        return tap  # pipeline still filling; never observed at a valid cycle

    def _tap(self) -> list[np.ndarray]:
        precision = self.mode.precision
        if precision is Precision.W8:
            return [self._stage2.copy()]
        if precision is Precision.W4:
            return [self._stage1[t].copy() for t in range(self.mode.nw)]
        if self._pre:
            delayed = self._pre[0]
            return [delayed[t].copy() for t in range(self.mode.nw)]
        return [self._psums[t, -1, :].copy() for t in range(self.mode.nw)]

    def _write_trace(self) -> None:
        cycle = self.cycle
        p0, p1, p2, p3 = self._psums.reshape(4, -1).tolist()
        self._trace.write(
            "".join(
                f"{cycle},{cell}{x},{a},{b},{c},{d}\n"
                for cell, x, a, b, c, d in zip(
                    self._trace_cells, self._inputs.ravel().tolist(), p0, p1, p2, p3
                )
            )
        )

    # -- streaming -----------------------------------------------------------

    def stream(self, a_rows: Sequence[np.ndarray]) -> list[CollectedRow]:
        """Feed one input row per cycle, then drain until all rows emerge.

        Returns, in input order, each row's per-matrix output rows with the
        absolute cycle at which the whole row left the array.
        """
        if not self._loaded:
            raise PhaseError("streaming before weight load")
        rows = np.asarray(a_rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != self.n:
            raise ValueError(f"input rows must be R x {self.n}, got {rows.shape}")
        if rows.size and (rows.min() < _ACT_MIN or rows.max() > _ACT_MAX):
            raise ValueError("input element outside signed 8-bit range")
        count = rows.shape[0]
        total_steps = stream_cycles(self.n, count, self.mac_stages, self.reduce_stages)
        first_valid = total_steps - count + 1
        collected = []
        for s in range(1, total_steps + 1):
            row_in = rows[s - 1] if s <= count else self._zero_row
            tap = self._step(row_in)
            i = s - first_valid
            if 0 <= i < count:
                collected.append(CollectedRow(index=i, cycle=self.cycle, outputs=tap))
        return collected

    def run_tile(self, packed: PackedWeightTile, a_tile: np.ndarray) -> tuple[list[np.ndarray], int]:
        """Load one weight tile, stream one n x n input tile, gather results.

        Returns the nw exact product matrices and the streaming latency in
        cycles (weight-load cycles are tracked on `self.cycle` separately).
        """
        a_tile = np.asarray(a_tile)
        if a_tile.shape != (self.n, self.n):
            raise ValueError(f"input tile must be {self.n}x{self.n}, got {a_tile.shape}")
        self.load_weights(packed)
        start = self.cycle
        collected = self.stream(a_tile)
        cycles = self.cycle - start
        outputs = [
            np.stack([row.outputs[t] for row in collected]) for t in range(self.mode.nw)
        ]
        return outputs, cycles


def evaluate_pass(
    packed: PackedWeightTile,
    rows: np.ndarray,
    mac_stages: int = 1,
    reduce_stages: Optional[int] = None,
    overlap_weights: bool = False,
) -> tuple[list[np.ndarray], int]:
    """One pass in one shot: what `ArraySim.load_weights(packed)` then
    `ArraySim.stream(rows)` would collect, without stepping.

    Returns the nw per-matrix output blocks (rows x n) and the pass's
    cycles, weight load included. Raises `PsumOverflowError` exactly when
    the stepped model would.
    """
    precision = packed.mode.precision
    reduce_stages = resolve_stages(precision, mac_stages, reduce_stages)
    n = packed.n
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 2 or rows.shape[1] != n:
        raise ValueError(f"input rows must be R x {n}, got {rows.shape}")
    if rows.size and (rows.min() < _ACT_MIN or rows.max() > _ACT_MAX):
        raise ValueError("input element outside signed 8-bit range")
    count = rows.shape[0]
    _check_psums(decode_slots(packed.words, precision), rows)
    # Folding the four buses per precision is linear, so fold the slots
    # first: that yields the r signed weight fields of every word.
    w, r = precision.weight_bits, precision.r
    fields = bit_fields(packed.words, w, r)
    weights = np.empty_like(fields)
    weights[(slice(None), *rotation_index(n))] = fields  # weights[t, k, c], un-rotated
    products = rows @ weights.transpose(1, 0, 2).reshape(n, r * n)
    outputs = list(products.reshape(count, r, n).transpose(1, 0, 2))
    # The reducer's stage-2 register holds the W8 fold of the buses, which is
    # sum_t output_t << t*w. It is formed for every row but the last
    # 2 - reduce_stages ones, whatever the tap precision.
    formed = max(0, min(count, count + reduce_stages - 2))
    _check_register(sum(out[:formed] << (t * w) for t, out in enumerate(outputs)), "reducer")
    cycles = load_cycles(n, overlap_weights) + stream_cycles(n, count, mac_stages, reduce_stages)
    return outputs[: packed.mode.nw], cycles


def _check_psums(slots: np.ndarray, rows: np.ndarray) -> None:
    """Psum-bus check of a pass: PE(r, c) holds, for some row a, the prefix
    sum over q <= r of a[(c+q) mod n] * slot[g, q, c]."""
    if not rows.size:
        return
    reach = np.abs(slots).sum(axis=1).max()  # max over (g, c) of sum_q |slot|
    if np.abs(rows).max() * reach < _PSUM_LIMIT:
        return
    n = slots.shape[1]
    skew = rotation_index(n)[0]  # (c+q) mod n at [q, c]
    chunk = max(1, _CHECK_CHUNK // (4 * n * n))
    for start in range(0, rows.shape[0], chunk):
        seen = rows[start : start + chunk][:, skew]  # seen[i, q, c]: row i's input at PE(q, c)
        _check_register(np.cumsum(seen[:, None] * slots[None], axis=2), "psum bus")
