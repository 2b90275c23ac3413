"""Cycle-exact model of the n x n adaptive-precision array.

Dataflow per clock; every clock reads only state registered at the end of
the previous one:

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
exist anywhere in the model. The dataflow is linear and fixed by position:
with x_i the i-th row fed since the weight load (zero before it and while
draining) and m MAC stages, after clock s PE(r, c) holds the input
x_{s-r}[(c+r) mod n] and on bus g sum_{q<=r} x_{s-r}[(c+q) mod n] *
slot[g, q, c]; reducer stages 1 and 2 hold the folds of the bottom buses
of rows s-m-n+1 and s-m-n; and each row's outputs are the fold of its own
bottom buses.

One engine, `ArraySim`, runs every pass of a job on one instance, set up
by the weight precision as the array's computation mode is; how many
matrices share a stationary word comes with each tile or grid it is
given. A pass is one weight load, then a run of streamed rows. `stream`
runs one pass on the rows it carries, `stream_grid` every pass of a fused
group, whose tiles it rotates out of the grid's matrix-order words once.
Both form the registers of a block of clocks, for a stack of passes at
once, from the formulas above (`_registers`); `stream_grid` forms them
only where a trace or an overflow check reads them. The reducer's fold
is linear, so the outputs are exact matmuls of the int8 input with the
weight fields of the matrix-order words (`_group_outputs`): float32 over
chunks of K small enough to stay exact, summed in float64.

Registers are checked only when the inputs could reach the limit: one
bound that reads no weight (`_row_may_overflow`), the largest input
magnitude times n times the widest word's W8 fold reach, covers every
psum-bus and reducer value, and no tile the packed format can store turns
it on at 32 bits. While it is on, every register is checked; the first
clock out of range, in run order, raises after the trace lines of the
clocks before it. Traces are formatted without Python ints: every number
is gathered as 8-byte ASCII words, one per four decimal digits, from one
table (`_group_words`) into a fixed-width line buffer, and one
`bytes.translate` drops the NUL padding.
"""

from __future__ import annotations

import functools
import io
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .numerics import PSUM_BITS, bit_fields, ceil_div, to_int8
from .pe import PhaseError, PsumOverflowError
from .pe import weight_slots  # noqa: F401  kept as adipsim.array.weight_slots for bench/spans.py
from .preprocess import PackedGrid, PackedWeightTile, Precision, PrecisionMode, check_tiles, decode_slots

_PSUM_LIMIT = 1 << (PSUM_BITS - 1)

# PE-cycles of registers formed, checked and traced per block (one clock at
# least); bounds the kernel's and the trace formatter's temporaries.
_TRACE_BLOCK = 1 << 12

# The reducer's widest value as an integer fold of a column's four bottom
# buses: stage 1 forms bus0 + bus1 << 2 and bus2 + bus3 << 2, stage 2 (the
# 8-bit tap) forms stage1[0] + stage1[1] << 4.
_STAGE2_FOLD = np.array([[1, 4, 16, 64]], dtype=np.int64)

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
    """Streamed input of one pass: an R x n int8 block of 8-bit activations."""
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != n:
        raise ValueError(f"input rows must be R x {n}, got {rows.shape}")
    return to_int8(rows, 8, "input element")


def _check_input(a, n: int, tk: int) -> np.ndarray:
    """Input of a fused group of tk k-rows: an M x K int8 matrix of 8-bit
    activations with ceil(K/n) = tk; an int8 one is not scanned."""
    a = np.asarray(a)
    if a.ndim != 2 or ceil_div(a.shape[1], n) != tk:
        raise ValueError(f"input must be M x K with ceil(K/{n}) = {tk}, got {a.shape}")
    return to_int8(a, 8, "input element")


def _out_of_range(values: np.ndarray, axis=None) -> np.ndarray:
    """Whether registers leave the signed range [-L, L-1], L = `_PSUM_LIMIT`
    (read at call time, so tests can lower it), reduced over `axis`."""
    return (values < -_PSUM_LIMIT).any(axis) | (values >= _PSUM_LIMIT).any(axis)


def _check_register(values: np.ndarray, what: str) -> None:
    if _out_of_range(values):
        raise PsumOverflowError(f"{what} overflow")


@functools.cache
def _widest_reach(precision: Precision) -> int:
    """The largest W8 fold reach sum_g |slot_g| << 2g of any of the 256
    stationary words under `precision`."""
    slots = decode_slots(np.arange(256), precision)  # [g, word]
    return int((_STAGE2_FOLD @ np.abs(slots)).max())


def _row_may_overflow(amax, n: int, precision: Precision):
    """False when no psum-bus or reducer value that a tile of size n forms
    from inputs of magnitude at most `amax` can leave the register range.

    Bus g of PE(r, c) holds sum_{q<=r} x_q * slot[g, q, c] for inputs x_q of
    one row, and the reducer's widest value is the W8 fold
    sum_g bus_g << 2g of a column's bottom buses; both are at most amax
    times the column's fold reach, the sum over its n words of each word's
    reach, which is at most n times `_widest_reach`.
    """
    return amax * (n * _widest_reach(precision)) >= _PSUM_LIMIT


@functools.cache
def _diagonals(n: int) -> np.ndarray:
    """(q + c) mod n over q, c < n: the element of a fed row that PE(q, c)
    multiplies."""
    index = (np.arange(n)[:, None] + np.arange(n)) % n
    index.flags.writeable = False
    return index


def _registers(slots: np.ndarray, feed: np.ndarray, first: int, stop: int, before: np.ndarray) -> np.ndarray:
    """Registers after each clock whose new row is feed[p, e], first <= e <
    stop (first >= n - 1), of each pass p of the (4, P, n, n) `slots`, from
    the (P, n, n, 5) registers `before` the first of those clocks: shape
    (P, stop - first, n, n, 5), each PE's input and then its four buses.

    PE(r, c) holds element (c + r) mod n of row e - r, and bus g adds its
    product with slot[g, r, c] to what PE(r - 1, c) held a clock before.
    Those sums run along the diagonals of the clock x PE-row grid; they are
    taken one clock or one PE row at a time, whichever is fewer.
    """
    n = slots.shape[-1]
    steps = stop - first
    inputs = feed[:, first + np.arange(steps)[:, None, None] - np.arange(n)[:, None], _diagonals(n)]
    registers = np.empty((len(feed), steps + 1, n, n, 5), dtype=np.int64)
    registers[:, 0] = before
    registers[:, 1:, ..., 0] = inputs
    for g, weights in enumerate(slots[:, :, None]):
        np.multiply(inputs, weights, out=registers[:, 1:, ..., 1 + g])
    if steps < n:  # the inputs add up too, and are set again afterwards
        for k in range(1, steps + 1):
            registers[:, k, 1:] += registers[:, k - 1, :-1]
    else:
        for r in range(1, n):
            registers[:, 1:, r] += registers[:, :-1, r - 1]
    registers[:, 1:, ..., 0] = inputs
    return registers[:, 1:]


def _fold_matrices(slots: np.ndarray, folds: np.ndarray) -> np.ndarray:
    """Per pass of the (4, P, n, n) `slots`, the (n, f * n) matrix that maps
    a fed row to the (f, 4) `folds` of each column's bottom buses: bus g of
    column c is the row times U_g, with U_g[(c + q) mod n, c] = slot[g, q, c]."""
    n = slots.shape[-1]
    unrotated = np.empty_like(slots)
    unrotated[:, :, _diagonals(n), np.arange(n)] = slots
    return np.einsum("fg,gpkc->pkfc", folds, unrotated).reshape(slots.shape[1], n, -1)


def _slab(words: np.ndarray, bits: int, nw: int) -> np.ndarray:
    """The nw signed `bits`-bit fields of the (K, columns) `words`, laid out
    by one transpose-copy as a (K, nw * columns) float32 matrix.

    An 8-bit field is the word itself, so a W8 slab is the words read as
    int8, with no int16 `bit_fields` copy: that copy, half the slab's size,
    pushed a decode job's freed temporaries past the heap's trim threshold
    on some runs, which then paid a page fault per page on every job."""
    if bits == 8:
        return words.view(np.int8).astype(np.float32)
    fields = bit_fields(words, bits, nw)  # [t, k, column]
    return fields.transpose(1, 0, 2).astype(np.float32, order="C").reshape(len(words), -1)


def _group_outputs(words: np.ndarray, a: np.ndarray, mode: PrecisionMode) -> np.ndarray:
    """Each row of the M x K input `a` (K >= 1) times each of the nw weight
    matrices held in the matrix-order uint8 `words` (at least K rows): an
    (M, nw, columns) floating array of exact integers.

    Each output is a sum of K products of an 8-bit input and a w-bit
    weight field, each at most 2^(6+w) in magnitude. The matmul runs in
    float32, over chunks of at most 2^(18-w) rows of K, each with its own
    `_slab`, so that every partial sum within a chunk is at most 2^24 and
    exact. The chunk results are summed in float64, exact while the total
    stays below 2^53, that is for any K below 2^39, an int8 input of more
    than 512 GB per row; a single chunk's float32 result is returned as it
    is. The outputs stay floating so that callers convert each matrix
    once: an int64 copy of the whole group on top of the per-matrix ones
    doubles the fresh memory of every run.
    """
    bits, nw = mode.weight_bits, mode.nw
    k_dim = a.shape[1]
    chunk = 1 << (18 - bits)
    total = None
    for lo in range(0, k_dim, chunk):
        hi = min(lo + chunk, k_dim)
        # no slab outlives its matmul, so one chunk's temporaries are live at a time
        part = a[:, lo:hi].astype(np.float32) @ _slab(words[lo:hi], bits, nw)
        if total is None:
            total = part
        else:
            if total.dtype != np.float64:
                total = total.astype(np.float64)
            total += part
    return total.reshape(len(a), nw, words.shape[1])


@dataclass
class CollectedRow:
    """One streamed input row's results: per active matrix, one output row."""

    index: int
    cycle: int
    outputs: list[np.ndarray]


class ArraySim:
    """Single-owner simulator instance of an n x n array of `precision`
    PEs, advanced one pass at a time; every tile it loads or grid it runs
    must be of that precision and size, with any number of matrices.

    `mac_stages` counts psum pipeline registers at the column bottom (the
    bottom PE's psum register is the first); `reduce_stages` counts shared
    shift-add registers traversed on output, at least the structural depth
    of the precision (2 for W8, 1 for W4, 0 for W2).

    A trace sink gets the header, then one line per PE per cycle.
    """

    def __init__(
        self,
        n: int,
        precision: Precision,
        mac_stages: int = 1,
        reduce_stages: Optional[int] = None,
        overlap_weights: bool = False,
        trace: Optional[io.TextIOBase] = None,
    ):
        if n < 1:
            raise ValueError(f"array size must be >= 1, got {n}")
        reduce_stages = resolve_stages(precision, mac_stages, reduce_stages)
        self.n = n
        self.precision = precision
        self.mac_stages = mac_stages
        self.reduce_stages = reduce_stages
        self.overlap_weights = overlap_weights
        self.cycle = 0
        self._trace = trace
        self._words = None  # the loaded tile's words, in matrix order
        self._mode = None  # and its mode
        # No weights and no registers until the first load or clock: read-only
        # zeros, so an instance that only runs `stream_grid` allocates none.
        zero = np.zeros((), dtype=np.int64)
        self._slots = np.broadcast_to(zero, (4, n, n))
        self._held = np.broadcast_to(zero, (1, n, n, 5))
        if trace is not None:
            trace.write(TRACE_HEADER + "\n")

    def _clear(self) -> None:
        # The registers after the last clock, per PE the input and then the
        # buses, and the last n + mac_stages rows fed: the oldest is the
        # one whose fold the next clock registers in reducer stage 2.
        self._held = np.zeros((1, self.n, self.n, 5), dtype=np.int64)
        self._window = np.zeros((self.n + self.mac_stages, self.n), dtype=np.int64)

    # -- state inspection (read-only copies) --------------------------------

    @property
    def input_registers(self) -> np.ndarray:
        return self._held[0, ..., 0].copy()

    @property
    def psum_registers(self) -> np.ndarray:
        return self._held[0].transpose(2, 0, 1)[1:].copy()

    # -- phases --------------------------------------------------------------

    def _check_fits(self, tiles) -> None:
        """ValueError unless the tile or grid `tiles` holds tiles of this
        array's precision and size."""
        if (tiles.mode.precision, tiles.n) != (self.precision, self.n):
            raise ValueError(
                f"{tiles.mode.precision.name} tiles of size {tiles.n} on a "
                f"{self.precision.name} array of size {self.n}"
            )

    def load_weights(self, packed: PackedWeightTile) -> None:
        """Load an n x n packed tile vertically; clears all compute state.

        Costs n cycles (one row per cycle) unless the instance was built
        with `overlap_weights=True`, which models double-buffered loading
        hidden behind the previous tile's drain.
        """
        self._check_fits(packed)
        self._slots = decode_slots(packed.words, self.precision).astype(np.int64)
        self._mode = packed.mode
        self._words = np.empty_like(packed.words)
        self._words[_diagonals(self.n), np.arange(self.n)] = packed.words
        self._clear()
        self.cycle += load_cycles(self.n, self.overlap_weights)

    def _write_trace(self, history: np.ndarray, cycles: np.ndarray) -> None:
        """Write the per-PE lines of the increasing `cycles`, whose (5, n, n)
        registers are `history[:len(cycles)]`.

        Every line of the block is laid out in the same number of words:
        the cycle and each register value take as many four-digit groups as
        the widest of them in the block needs. Dropping the NULs leaves the
        lines exactly as `%d` prints them."""
        steps = len(cycles)
        if not steps:
            return
        cells = self.n * self.n
        values = history[:steps].reshape(steps, 5, cells).transpose(0, 2, 1)
        groups = ceil_div(len(str(max(int(values.max()), -int(values.min())))), 4)
        cycle_groups = ceil_div(len(str(int(cycles[-1]))), 4)
        prefixes = _cell_prefixes(self.n)
        head = cycle_groups + prefixes.shape[1]
        lines = np.empty((steps, cells, head + 5 * groups), dtype=np.uint64)
        cycle_words = np.empty((steps, cycle_groups), dtype=np.uint64)
        _number_words(cycles, cycle_groups, 0, cycle_words)
        lines[:, :, :cycle_groups] = cycle_words[:, None]
        lines[:, :, cycle_groups:head] = prefixes
        fields = lines[:, :, head:].reshape(steps, cells, 5, groups)
        _number_words(values, groups, _VALUE_SEPARATORS, fields)
        self._trace.write(lines.tobytes().translate(None, b"\0").decode("ascii"))

    # -- streaming -----------------------------------------------------------

    def _run(self, slots: np.ndarray, feed: np.ndarray, load: int, held: np.ndarray, check: bool) -> None:
        """Run each pass p of the (4, P, n, n) `slots` on feed[p % K]: the
        n + mac_stages rows fed before it, then one row per clock, from the
        (P, n, n, 5) registers `held`, which end on its last clock. A pass
        costs `load` cycles, then one per clock.

        Registers are formed in blocks of at most `_TRACE_BLOCK` PE-cycles
        (whole passes when they fit). With `check`, the caller's
        `_row_may_overflow` for the largest fed value, every block is
        checked: the first clock in run order out of range raises
        `PsumOverflowError`, after the trace lines of the clocks before it,
        with the clock and `held` on it.
        """
        n, window = self.n, self.n + self.mac_stages
        passes, sources = slots.shape[1], len(feed)
        steps = feed.shape[1] - window
        period = load + steps
        if check:
            reducer = _fold_matrices(slots, _STAGE2_FOLD)
        start = self.cycle
        per = max(1, _TRACE_BLOCK // (n * n))  # clocks per block
        span = max(1, per // max(steps, 1))  # passes per block
        for p0 in range(0, passes, span):
            block_passes = np.arange(p0, min(p0 + span, passes))
            for lo in range(0, steps, per):
                clocks = min(per, steps - lo)
                # from the row that stage 2 folds on the block's first clock
                block = feed[block_passes % sources, lo : window + lo + clocks]
                registers = _registers(slots[:, block_passes], block, window, window + clocks, held[block_passes])
                held[block_passes] = registers[:, -1]
                registers = registers.reshape(-1, n, n, 5)
                cycles = (start + load + lo + 1 + period * block_passes[:, None] + np.arange(clocks)).ravel()
                fail = len(cycles)
                if check:
                    stage2 = np.matmul(block[:, :clocks], reducer[block_passes]).reshape(-1, n)
                    bad = _out_of_range(registers[..., 1:], (1, 2, 3)) | _out_of_range(stage2, 1)
                    if bad.any():
                        fail = int(bad.argmax())
                if self._trace is not None:
                    self._write_trace(registers.transpose(0, 3, 1, 2), cycles[:fail])
                if fail < len(cycles):
                    self.cycle = int(cycles[fail])
                    held[block_passes[fail // clocks]] = registers[fail]
                    _check_register(registers[fail, ..., 1:], "psum bus")
                    _check_register(stage2[fail], "reducer")
        self.cycle = start + passes * period

    def _feed(self, rows: np.ndarray, drain: int) -> None:
        """Feed `rows`, then `drain` zero rows, one per clock, on the loaded
        weights."""
        if not self._held.flags.writeable:  # the first clock of a fresh instance
            self._clear()
        window = len(self._window)
        feed = np.concatenate([self._window, rows, np.zeros((drain, self.n), dtype=np.int64)])
        check = _row_may_overflow(np.abs(feed).max(), self.n, self.precision)
        start = self.cycle
        try:
            self._run(self._slots[:, None], feed[None], 0, self._held, check)
        finally:  # also after an overflow, on its cycle
            self._window = feed[self.cycle - start :][:window]

    def _step(self, row_in: np.ndarray) -> None:
        """One clock with `row_in` entering PE row 0."""
        self._feed(np.asarray(row_in, dtype=np.int64)[None], 0)

    def stream(self, a_rows: Sequence[np.ndarray]) -> list[CollectedRow]:
        """Feed one input row per cycle, then drain until all rows emerge.

        Returns, in input order, each row's per-matrix output rows with the
        absolute cycle at which the whole row left the array.
        """
        if self._words is None:
            raise PhaseError("streaming before weight load")
        rows = _check_rows(a_rows, self.n)
        count = rows.shape[0]
        first = self.cycle + self.n + self.mac_stages + self.reduce_stages - 1
        self._feed(rows, stream_cycles(self.n, count, self.mac_stages, self.reduce_stages) - count)
        outputs = _group_outputs(self._words, rows, self._mode).astype(np.int64)
        return [CollectedRow(index=i, cycle=first + i, outputs=list(outputs[i])) for i in range(count)]

    def stream_grid(self, grid: PackedGrid, a) -> np.ndarray:
        """Every pass of one fused group as `run_tiled` prepares it: for each
        column tile j, for each k, load grid[k][j] and stream the columns
        k*n .. (k+1)*n of the M x K input `a`, zero-padded to whole row
        tiles. Returns the outputs summed over k, as `_group_outputs` gives
        them: an (M, nw, tp*n) array whose [i, t] entry is row i of `a`
        times matrix t, zero-padded to whole column tiles. The grid must
        hold tiles of the array's precision and size.

        The passes' registers are formed, from the grid rotated into its
        tiles once, only with a trace sink or when `_row_may_overflow` is
        on for the largest input magnitude; otherwise the clock advances
        by each pass's load and stream cycles and no slot is decoded.
        """
        check_tiles(grid)
        self._check_fits(grid)
        n, window = self.n, self.n + self.mac_stages
        tk, tp = grid.tk, grid.tp
        a = _check_input(a, n, tk)
        m_dim, k_dim = a.shape
        load = load_cycles(n, self.overlap_weights)
        steps = stream_cycles(n, ceil_div(m_dim, n) * n, self.mac_stages, self.reduce_stages)
        amax = max(int(a.max(initial=0)), -int(a.min(initial=0)))  # -a.min() wraps at -128 in int8
        check = _row_may_overflow(amax, n, self.precision)
        if self._trace is None and not check:
            self.cycle += tk * tp * (load + steps)
        else:
            feed = np.zeros((window + steps, tk * n), dtype=np.int64)
            feed[window : window + m_dim, :k_dim] = a
            feed = feed.reshape(-1, tk, n).transpose(1, 0, 2)  # [k, row, column]
            tiles = grid.rotated_tiles().swapaxes(0, 1)  # [j, k]: the passes in run order
            slots = decode_slots(tiles, self.precision).reshape(4, tp * tk, n, n).astype(np.int64)
            self._run(slots, feed, load, np.zeros((tp * tk, n, n, 5), dtype=np.int64), check)
        return _group_outputs(grid.words, a, grid.mode)
