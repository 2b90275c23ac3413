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
  model and the only source of per-PE traces. A traced pass keeps each
  cycle's input and psum registers in a history buffer and formats the
  pass's trace lines at its end, in one write (in blocks of at most
  `_TRACE_BLOCK` PE-cycles, so long passes stay bounded in memory). A
  block is formatted without Python ints: every number is gathered as
  8-byte ASCII words, one per four decimal digits, from one table
  (`_group_words`, built on the first traced write) into a fixed-width line
  buffer, and one `bytes.translate` drops the NUL padding. The
  per-cycle register checks run only when the pass's inputs could reach
  the limit: amax times the W8 fold reach of the slots (`_may_overflow`)
  bounds every psum-bus and reducer value, so gating never moves the cycle
  an overflow is raised on.
* `evaluate_group` computes, in one shot, every pass of one fused weight
  group: the tk x tp tiles that all stream the same input. The bottom psum
  of column c for input row a is sum_k a[k] * slot[g, k, c] over the
  un-rotated slot grids, and the reducer's fold of the four buses is
  linear, so the group's outputs, summed over K, are one matmul of the
  input with the un-rotated weight fields of every tile. It is exact
  because every partial sum stays within 2^(6+w) * K for w-bit weights,
  and runs in float32 while that bound is at most 2^24, in float64 above.
  The cycle count comes from the same `load_cycles` / `stream_cycles` that
  the stepped model advances its clock by. The overflow checks live only
  in `ArraySim`: a pass whose `_may_overflow` gate is on is stepped there.
"""

from __future__ import annotations

import functools
import io
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .numerics import PSUM_BITS, ceil_div, check_signed
from .pe import PhaseError, PsumOverflowError
from .pe import weight_slots  # noqa: F401  kept as adipsim.array.weight_slots for bench/spans.py
from .preprocess import PackedWeightTile, Precision, PrecisionMode, _check_grid, decode_slots, unpack_words

_PSUM_LIMIT = 1 << (PSUM_BITS - 1)

# PE-cycles of trace history formatted per write; bounds the history buffer
# (1.25 MiB) and the formatting temporaries of one write: about 6 MiB while
# every register value has at most four digits, 14 MiB at ten digits.
_TRACE_BLOCK = 1 << 15

# The reducer's shift-adds as integer folds: stage 1 forms bus0 + bus1 << 2
# and bus2 + bus3 << 2, stage 2 forms stage1[0] + stage1[1] << 4.
_STAGE1_FOLD = np.array([[1, 4, 0, 0], [0, 0, 1, 4]], dtype=np.int64)
_STAGE2_FOLD = np.array([1, 16], dtype=np.int64)

TRACE_HEADER = "cycle,row,col,input,psum0,psum1,psum2,psum3"

# Trace lines are built from 8-byte words of ASCII, NUL where nothing is
# printed: a number is one word per group of four decimal digits, each word
# [sign, four digits NUL-padded on the left, separator, NUL, NUL]. Per
# separator (none, ",", "\n") a section of `_group_words` holds the signed
# leading groups t = -9999..9999 at `_LEAD` + t, the zero-padded groups
# d = 0..9999 that follow a leading one at `_FULL` + d, and four NULs for a
# group above a number's first digit at `_BLANK`.
_GROUP = 10_000
_LEAD = _GROUP - 1
_FULL = 2 * _GROUP - 1
_BLANK = 3 * _GROUP - 1
_SECTION = 3 * _GROUP
# Section of the last word of each of a line's five register values.
_VALUE_SEPARATORS = np.array([_SECTION] * 4 + [2 * _SECTION])


@functools.cache
def _group_words() -> np.ndarray:
    """The word table, as uint64; built on the first traced write."""
    words = np.zeros((3, _SECTION, 8), dtype=np.uint8)
    group = np.arange(_GROUP)
    for k, place in enumerate((1000, 100, 10, 1)):
        digit = (group // place % 10 + ord("0")).astype(np.uint8)
        words[:, _FULL:_BLANK, 1 + k] = digit
        if place > 1:  # NUL above the leading digit; the units digit always prints
            digit[group < place] = 0
        words[:, _LEAD:_FULL, 1 + k] = digit  # t = 0..9999
        words[:, :_LEAD, 1 + k] = digit[:0:-1]  # t = -9999..-1
    words[:, :_LEAD, 0] = ord("-")
    words[1, :_BLANK, 5] = ord(",")
    words[2, :_BLANK, 5] = ord("\n")
    words.flags.writeable = False  # one table, shared by every caller
    return words.view(np.uint64).ravel()


def _number_words(values: np.ndarray, groups: int, last_section, out: np.ndarray) -> None:
    """Write the words of the int64 `values`, `groups` per number, into
    `out[..., :groups]`; the last word of each number comes from the
    separator section at offset `last_section` (broadcast against
    `values`), the others from the first section."""
    words = _group_words()
    if groups == 1:  # each value is its own leading group
        out[..., 0] = words[values + (_LEAD + last_section)]
        return
    magnitudes = np.abs(values).view(np.uint64)  # exact for -2^63 too
    for j in range(groups):
        last = j == groups - 1
        high = magnitudes // np.uint64(_GROUP ** (groups - 1 - j))  # digits down to group j
        digits = (high % _GROUP).astype(np.int64)
        offset = last_section if last else 0
        index = np.where(
            high < _GROUP,
            np.where(values < 0, -digits, digits) + (_LEAD + offset),
            digits + (_FULL + offset),
        )
        if not last:
            index = np.where(high == 0, _BLANK, index)
        out[..., j] = words[index]


@functools.cache
def _cell_prefixes(n: int) -> np.ndarray:
    """",row,col," of every PE in row-major order, NUL-padded on the left
    to whole words, as a read-only (n*n, words) uint64 array; cached per
    array size traced in the process."""
    prefixes = [f",{r},{c},".encode("ascii") for r in range(n) for c in range(n)]
    width = ceil_div(len(prefixes[-1]), 8) * 8
    text = b"".join(prefix.rjust(width, b"\0") for prefix in prefixes)
    return np.frombuffer(text, dtype=np.uint64).reshape(n * n, width // 8)


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


def _check_rows(rows, n: int) -> np.ndarray:
    """Streamed input of one pass: an R x n int64 block of 8-bit activations."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 2 or rows.shape[1] != n:
        raise ValueError(f"input rows must be R x {n}, got {rows.shape}")
    return check_signed(rows, 8, "input element")


def _check_register(values: np.ndarray, what: str) -> None:
    """Registers hold the signed range [-L, L-1], L = `_PSUM_LIMIT` (read at
    call time, so tests can lower it)."""
    if values.size and (values.min() < -_PSUM_LIMIT or values.max() >= _PSUM_LIMIT):
        raise PsumOverflowError(f"{what} overflow")


def _may_overflow(slots: np.ndarray, amax: int):
    """False when no psum-bus or reducer value formed from inputs of
    magnitude at most `amax` can leave the register range. `slots` is one
    tile's (4, n, n) slots, or a (4, tiles, n, n) stack of them, which gives
    one answer per tile.

    Bus g of PE(r, c) holds sum_{q<=r} x_q * slot[g, q, c] for inputs x_q of
    one row, and the reducer's widest value is the W8 fold
    sum_g bus_g << 2g of a column's bottom buses; both are at most amax
    times the fold reach max_c sum_g (sum_q |slot[g, q, c]|) << 2g.
    """
    bus_reach = np.abs(slots).sum(axis=-2)  # [g, ..., c]
    column_reach = (_STAGE2_FOLD @ _STAGE1_FOLD @ bus_reach.reshape(4, -1)).reshape(bus_reach.shape[1:])
    return amax * column_reach.max(axis=-1) >= _PSUM_LIMIT


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

    A trace sink gets the header, then one line per PE per cycle. Given
    `start_cycle`, the instance continues a trace that another one began:
    its clock starts there and it writes no header.
    """

    def __init__(
        self,
        n: int,
        mode: PrecisionMode,
        mac_stages: int = 1,
        reduce_stages: Optional[int] = None,
        overlap_weights: bool = False,
        trace: Optional[io.TextIOBase] = None,
        start_cycle: Optional[int] = None,
    ):
        if n < 1:
            raise ValueError(f"array size must be >= 1, got {n}")
        reduce_stages = resolve_stages(mode.precision, mac_stages, reduce_stages)
        self.n = n
        self.mode = mode
        self.mac_stages = mac_stages
        self.reduce_stages = reduce_stages
        self.overlap_weights = overlap_weights
        self.cycle = 0 if start_cycle is None else start_cycle
        self._trace = trace
        self._loaded = False
        self._slots = np.zeros((4, n, n), dtype=np.int64)
        self._zero_row = np.zeros(n, dtype=np.int64)
        self._reset_pipeline()
        if trace is not None and start_cycle is None:
            trace.write(TRACE_HEADER + "\n")

    # -- state inspection (read-only copies) --------------------------------

    @property
    def input_registers(self) -> np.ndarray:
        return self._regs[0].copy()

    @property
    def psum_registers(self) -> np.ndarray:
        return self._regs[1:].copy()

    def _reset_pipeline(self) -> None:
        n = self.n
        # Input register, then the four psum registers, of every PE; a step
        # forms the next ones in a spare buffer or a trace history slot.
        self._regs = np.zeros((5, n, n), dtype=np.int64)
        self._spare = np.empty_like(self._regs)
        self._fed_amax = 0  # max |input| streamed since the weight load
        self._checking = True
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
        self._slots = decode_slots(packed.words, self.mode.precision).astype(np.int64)
        self._reset_pipeline()
        self.cycle += load_cycles(self.n, self.overlap_weights)
        self._loaded = True

    # -- one clock -----------------------------------------------------------

    def _step(self, row_in: np.ndarray, regs: Optional[np.ndarray] = None) -> list[np.ndarray]:
        """One clock. The new input and psum registers are formed in `regs`
        (a (5, n, n) buffer that must not hold the current ones), by default
        in the spare of two alternating buffers."""
        if regs is None:
            regs, self._spare = self._spare, self._regs
        prev = self._regs
        prev_bottom = prev[1:, -1, :]
        if self._pre:
            self._pre.append(prev_bottom.copy())
            feed = self._pre.popleft()
        else:
            feed = prev_bottom
        self._stage2 = _STAGE2_FOLD @ self._stage1
        self._stage1 = _STAGE1_FOLD @ feed

        inputs, psums = regs[0], regs[1:]
        inputs[0] = row_in
        # registered value at (r, c) moves to (r+1, (c-1) mod n)
        inputs[1:, :-1] = prev[0, :-1, 1:]
        inputs[1:, -1] = prev[0, :-1, 0]
        np.multiply(inputs, self._slots, out=psums)
        psums[:, 1:] += prev[1:, :-1]
        self._regs = regs
        self.cycle += 1

        if self._checking:
            _check_register(psums, "psum bus")
            _check_register(self._stage2, "reducer")

        tap = self._tap()
        self._out_hist.append(tap)
        if len(self._out_hist) == self._out_hist.maxlen:
            return self._out_hist[0]
        return tap  # pipeline still filling; never observed at a valid cycle

    def _tap(self) -> list[np.ndarray]:
        # stage and delay registers are replaced, never written in place, so
        # views of them stay valid; the psum registers are reused buffers
        precision = self.mode.precision
        if precision is Precision.W8:
            return [self._stage2]
        if precision is Precision.W4:
            return list(self._stage1[: self.mode.nw])
        if self._pre:
            return list(self._pre[0][: self.mode.nw])
        return list(self._regs[1 : self.mode.nw + 1, -1].copy())

    def _write_trace(self, history: np.ndarray, after: int, steps: int) -> None:
        """Write the per-PE lines of the `steps` cycles after cycle `after`,
        whose registers are `history[:steps]`.

        Every line of the block is laid out in the same number of words:
        the cycle and each register value take as many four-digit groups as
        the widest of them in the block needs. Dropping the NULs leaves the
        lines exactly as `%d` prints them."""
        if not steps:
            return
        cells = self.n * self.n
        values = history[:steps].reshape(steps, 5, cells).transpose(0, 2, 1)
        groups = ceil_div(len(str(max(int(values.max()), -int(values.min())))), 4)
        cycle_groups = ceil_div(len(str(after + steps)), 4)
        prefixes = _cell_prefixes(self.n)
        head = cycle_groups + prefixes.shape[1]
        lines = np.empty((steps, cells, head + 5 * groups), dtype=np.uint64)
        cycles = np.empty((steps, cycle_groups), dtype=np.uint64)
        _number_words(np.arange(after + 1, after + 1 + steps, dtype=np.int64), cycle_groups, 0, cycles)
        lines[:, :, :cycle_groups] = cycles[:, None]
        lines[:, :, cycle_groups:head] = prefixes
        fields = lines[:, :, head:].reshape(steps, cells, 5, groups)
        _number_words(values, groups, _VALUE_SEPARATORS, fields)
        self._trace.write(lines.tobytes().translate(None, b"\0").decode("ascii"))

    # -- streaming -----------------------------------------------------------

    def stream(self, a_rows: Sequence[np.ndarray]) -> list[CollectedRow]:
        """Feed one input row per cycle, then drain until all rows emerge.

        Returns, in input order, each row's per-matrix output rows with the
        absolute cycle at which the whole row left the array.
        """
        if not self._loaded:
            raise PhaseError("streaming before weight load")
        rows = _check_rows(a_rows, self.n)
        count = rows.shape[0]
        total_steps = stream_cycles(self.n, count, self.mac_stages, self.reduce_stages)
        first_valid = total_steps - count + 1
        # Every register value of the pass comes from rows streamed since the
        # weight load. The input registers alone would not do: a pass leaves
        # its last rows' buses in the MAC pipeline and reducer after those
        # rows have left the grid, and the next stream folds them.
        self._fed_amax = max(self._fed_amax, int(np.abs(rows).max(initial=0)))
        self._checking = _may_overflow(self._slots, self._fed_amax)
        history = None
        if self._trace is not None:
            depth = min(total_steps, max(2, _TRACE_BLOCK // (self.n * self.n)))
            history = np.empty((depth, 5, self.n, self.n), dtype=np.int64)
        pending = 0  # completed cycles in `history` not yet written
        written = self.cycle  # the last cycle whose lines are written
        collected = []
        try:
            for s in range(1, total_steps + 1):
                row_in = rows[s - 1] if s <= count else self._zero_row
                if history is None:
                    tap = self._step(row_in)
                else:
                    if pending == len(history):
                        self._write_trace(history, written, pending)
                        written += pending
                        pending = 0
                    tap = self._step(row_in, history[pending])
                    pending += 1
                i = s - first_valid
                if 0 <= i < count:
                    collected.append(CollectedRow(index=i, cycle=self.cycle, outputs=tap))
        finally:
            if history is not None:  # also the cycles before an overflow
                self._write_trace(history, written, pending)
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


def evaluate_group(
    grid: Sequence[Sequence[PackedWeightTile]],
    a: np.ndarray,
    mac_stages: int = 1,
    reduce_stages: Optional[int] = None,
    overlap_weights: bool = False,
) -> tuple[np.ndarray, int]:
    """Every pass of one fused group, in one shot: for each tile (k, j) of
    the packed tk x tp `grid`, what `ArraySim.load_weights(grid[k][j])` then
    `ArraySim.stream` of the input columns k*n .. (k+1)*n of `a`, zero-padded
    to whole row tiles, would collect, summed over k, without stepping.

    Returns the outputs as a (M, nw, tp*n) array, whose [i, t] entry is row
    i of `a` times matrix t (zero-padded to whole column tiles), and the
    cycles of each pass, weight load included. Raises `PsumOverflowError`
    exactly when the stepped model would on some pass.

    The grid is decoded one k-row at a time; the un-rotated weight fields of
    every tile go into one (tk*n, nw*tp*n) slab, and the outputs are one
    matmul of the M input rows with that slab. The result is exact: each
    output is a sum of K products of an 8-bit input and a w-bit weight
    field, each at most 2^(6+w) in magnitude, so every partial sum is at
    most 2^(6+w) * K. The matmul runs in float32 when that bound is at most
    2^24 and in float64 otherwise; float64 would need K > 2^39 to reach
    2^53, an input of more than 4 TB per row. The outputs stay floating so
    that callers convert each matrix once.

    To raise, a pass whose `_may_overflow` gate is on for the largest input
    magnitude of its own k-row is also stepped on an untraced `ArraySim`.
    """
    mode, n = _check_grid(grid)
    precision, nw = mode.precision, mode.nw
    reduce_stages = resolve_stages(precision, mac_stages, reduce_stages)
    a = np.asarray(a, dtype=np.int64)
    tk, tp = len(grid), len(grid[0])
    if a.ndim != 2 or ceil_div(a.shape[1], n) != tk:
        raise ValueError(f"input must be M x K with ceil(K/{n}) = {tk}, got {a.shape}")
    check_signed(a, 8, "input element")
    m_dim, k_dim = a.shape
    streamed = ceil_div(m_dim, n) * n  # rows of each pass, row tiles zero-padded
    dtype = np.float32 if k_dim << (6 + precision.weight_bits) <= 1 << 24 else np.float64
    column_amax = np.maximum(a.max(axis=0, initial=0), -a.min(axis=0, initial=0))
    slab = np.empty((tk * n, nw * tp * n), dtype=dtype)  # [k*n + q, (t, j, c)]
    for k, row in enumerate(grid):
        # Folding the four buses per precision is linear, so fold the slots
        # first: that yields the r signed weight fields of every word.
        slots, fields = unpack_words(np.stack([tile.words for tile in row]), precision)
        slab[k * n : (k + 1) * n].reshape(n, nw, tp, n)[...] = fields[:nw].transpose(2, 0, 1, 3)
        amax = int(column_amax[k * n : (k + 1) * n].max(initial=0))
        for j in np.flatnonzero(_may_overflow(slots, amax)):  # rare: step the pass
            a_k = np.zeros((streamed, n), dtype=np.int64)
            a_k[:m_dim, : min(n, k_dim - k * n)] = a[:, k * n : (k + 1) * n]
            sim = ArraySim(n, mode, mac_stages, reduce_stages)
            sim.load_weights(row[j])
            sim.stream(a_k)
    products = (a.astype(dtype) @ slab[:k_dim]).reshape(m_dim, nw, tp * n)
    cycles = load_cycles(n, overlap_weights) + stream_cycles(n, streamed, mac_stages, reduce_stages)
    return products, cycles
