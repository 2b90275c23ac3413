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
draining), after clock s PE(r, c) holds the input x_{s-r}[(c+r) mod n]
and on bus g sum_{q<=r} x_{s-r}[(c+q) mod n] * slot[g, q, c]; reducer
stages 1 and 2 hold the folds of the bottom buses of rows s-n and s-n-1;
and each row's outputs are the fold of its own bottom buses.

One engine, `ArraySim.stream_grid`, runs every pass of a fused group on
one instance, set up by the weight precision as the array's computation
mode is; how many matrices share a stationary word comes with the grid.
The grid's matrices need not be whole weight matrices: `run_tiled` packs
runs of a job's columns into them, so that every pass fills the r
weight fields of each word.
A pass is one weight load, then a run of streamed rows, padded to whole
row tiles; the load is hidden behind the pass before it, so a pass costs
`stream_cycles` and no more, as in the paper's resident-weight latency.
The tiles are rotated out of the grid's matrix-order words once, and the
registers of a block of clocks, for a stack of passes at once, come from
the formulas above (`_registers`), formed only where a trace or an
overflow check reads them. They are int32, as wide as the paper's psum
buses, wherever int8 inputs cannot take a register past int32
(`_register_dtype`: every n below about 87 800), and int64 only above.
The reducer's fold is linear, so the outputs are exact matmuls of the
int8 input with the weight fields of the matrix-order words
(`_group_outputs`): per matrix, float32 over chunks of K small enough to
stay exact, written or added in int64 into one int64 block per group;
there is no floating total. `load_weights` takes a one-tile grid and
`stream` runs it through the same engine; they stay only for the
benchmark's span wrappers (bench/spans.py).

Registers are checked only when the inputs could reach the limit: one
bound that reads no weight (`_row_may_overflow`), the largest input
magnitude times n times the widest word's W8 fold reach, covers every
psum-bus and reducer value, and no tile the packed format can store turns
it on at 32 bits. While it is on, every register is checked; the first
clock out of range, in run order, raises after the trace lines of the
clocks before it. Traces are formatted without Python ints: every number
is gathered as 8-byte ASCII words, one per four decimal digits, from one
table (`_group_words`) into a fixed-width line buffer, and one
`bytes.translate` drops the NUL padding. A block's registers and each
line buffer are bounded in bytes (`_TRACE_BYTES`), not in clocks.
"""

from __future__ import annotations

import functools
import io
from typing import Optional

import numpy as np

from .numerics import ACT_BITS, PSUM_BITS, bit_fields, ceil_div, check_size, check_type, exact_matmuls, to_int8
from .preprocess import PackedGrid, Precision, _rotated, decode_slots

_PSUM_LIMIT = 1 << (PSUM_BITS - 1)


class PhaseError(RuntimeError):
    """An operation out of phase, such as streaming before any weight load."""


class PsumOverflowError(OverflowError):
    """A psum bus or reducer register left the 32-bit accumulator range."""


def weight_slots(word: int, precision: Precision) -> tuple[int, int, int, int]:
    """The four 2-bit slots of one stationary word under a precision, as
    `decode_slots` reads them. No engine path calls it: it stays only
    because bench/spans.py wraps adipsim.array.weight_slots, and can go
    once the benchmark's spans stop wrapping it."""
    if check_size(word, "weight word", least=0) > 0xFF:
        raise ValueError(f"weight word {word} outside [0, 255]")
    return tuple(decode_slots(word, check_type(precision, Precision, "precision")).tolist())


# Bytes of the registers of one block of clocks, and of the trace words of
# one slice of its lines: each temporary of a block stays well under the
# 128 KiB above which glibc's malloc maps it afresh, and a job's heap peak
# under the size glibc trims back after a free, so traced and checked
# runs do not fault their pages in again job after job. A block is one
# clock at least, so above n = 57 its registers are more (n = 64: 80 KiB).
_TRACE_BYTES = 1 << 16
# A PE's input and four buses, int32 (`_register_dtype`); the int64 registers
# of an array too large to allocate would take blocks of twice the bytes.
_REGISTER_BYTES = 5 * 4

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
    """Write the words of the int32 or int64 `values`, `groups` per number
    (no more than the dtype's widest value needs), into `out[..., :groups]`;
    the last word of each number comes from the separator section at
    offset `last_section` (broadcast against `values`), the others from
    the first section. The digits are cut at the values' own width."""
    words = _group_words()
    if groups == 1:  # each value is its own leading group
        out[..., 0] = words[values + (_LEAD + last_section)]
        return
    # unsigned of the values' own width: exact for the most negative value too
    magnitudes = np.abs(values).view(f"u{values.itemsize}")
    for j in range(groups):
        last = j == groups - 1
        high = magnitudes // magnitudes.dtype.type(_GROUP ** (groups - 1 - j))  # digits down to group j
        digits = (high % _GROUP).astype(values.dtype)
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


def stream_cycles(n: int, rows: int, precision: Precision) -> int:
    """Cycles from the first streamed row entering until the last result
    leaves: one per row, n - 1 more for the last row to reach the bottom PE
    row, whose psum buses W2 reads, and one per shift-add stage before the
    precision's tap (2 for W8, 1 for W4)."""
    return rows + n - 1 + check_type(precision, Precision, "precision").reducer_stages


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


def _register_dtype(n: int, precision: Precision) -> type:
    """int32 when every register a tile of size n forms from int8 inputs
    fits int32's own range, whatever `_PSUM_LIMIT` is: 128 * n times
    `_widest_reach` below 2^31, so for n below about 87 800. int64 above."""
    return np.int32 if 128 * n * _widest_reach(precision) < 1 << 31 else np.int64


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
    (P, stop - first, n, n, 5), each PE's input and then its four buses, of
    the dtype of `feed`.

    PE(r, c) holds element (c + r) mod n of row e - r, and bus g adds its
    product with slot[g, r, c] to what PE(r - 1, c) held a clock before.
    Those sums run along the diagonals of the clock x PE-row grid; they are
    taken one clock or one PE row at a time, whichever is fewer.
    """
    n = slots.shape[-1]
    steps = stop - first
    inputs = feed[:, first + np.arange(steps)[:, None, None] - np.arange(n)[:, None], _diagonals(n)]
    registers = np.empty((len(feed), steps, n, n, 5), dtype=feed.dtype)
    for g, weights in enumerate(slots[:, :, None]):
        np.multiply(inputs, weights, out=registers[..., 1 + g])
    # PE row r - 1 `before` feeds row r on the first clock; the sums below
    # carry it on. The inputs add up too, and are set afterwards.
    registers[:, 0, 1:] += before[:, :-1]
    if steps < n:
        for k in range(1, steps):
            registers[:, k, 1:] += registers[:, k - 1, :-1]
    else:
        for r in range(1, n):
            registers[:, 1:, r] += registers[:, :-1, r - 1]
    registers[..., 0] = inputs
    return registers


def _fold_matrices(slots: np.ndarray, folds: np.ndarray) -> np.ndarray:
    """Per pass of the (4, P, n, n) `slots`, the (n, f * n) matrix that maps
    a fed row to the (f, 4) `folds` of each column's bottom buses: bus g of
    column c is the row times U_g, with U_g[(c + q) mod n, c] = slot[g, q, c]."""
    n = slots.shape[-1]
    return np.einsum("fg,gpkc->pkfc", folds, _rotated(slots, -1)).reshape(slots.shape[1], n, -1)


def _field(words: np.ndarray, bits: int, t: int) -> np.ndarray:
    """Field t of the matrix-order uint8 `words`, the signed `bits`-bit
    weights of matrix t, as float32. An 8-bit field is the word itself,
    read as int8, with no int16 `bit_fields` copy."""
    if bits == 8:
        return words.view(np.int8).astype(np.float32)
    return bit_fields(words >> (bits * t), bits, 1)[0].astype(np.float32)


def _group_outputs(grid: PackedGrid, a: np.ndarray) -> np.ndarray:
    """Each row of the M x K int8 input `a` times each of the grid's nw
    weight matrices, read from its matrix-order words (K rows of them):
    one (nw, M, tp*n) int64 block, matrix t at [t].

    Each product of an 8-bit input and a w-bit weight field is at most
    2^(6+w) in magnitude, so `exact_matmuls` runs float32 matmuls over
    chunks of 2^(18-w) rows of K and sums them in int64. Matrix t's field
    is decoded on its own, per chunk, so only one matrix's float32 weights
    are live at a time.
    """
    bits, words = grid.precision.weight_bits, grid.words[: a.shape[1]]
    return exact_matmuls(
        a, lambda t, rows: _field(words[rows], bits, t), grid.nw, words.shape[1], 1 << (6 + bits)
    )


class ArraySim:
    """Single-owner simulator instance of an n x n array of `precision`
    PEs, advanced one pass at a time; every grid it runs must be of that
    precision and size, with any number of matrices.

    `stream_grid` is the one engine. `load_weights` and `stream` are a
    one-tile front of it: they run a 1 x 1 grid.

    A trace sink gets the header, then one line per PE per cycle.
    """

    def __init__(
        self,
        n: int,
        precision: Precision,
        trace: Optional[io.TextIOBase] = None,
    ):
        self.n = check_size(n)
        self.precision = check_type(precision, Precision, "precision")
        self.cycle = 0
        self._trace = trace
        self._tile = None  # the one-tile grid `load_weights` took
        if trace is not None:
            trace.write(TRACE_HEADER + "\n")

    def _check_fits(self, grid: PackedGrid) -> None:
        """ValueError unless `grid` holds tiles of this array's precision
        and size."""
        if (grid.precision, grid.n) != (self.precision, self.n):
            raise ValueError(
                f"{grid.precision.name} tiles of size {grid.n} on a "
                f"{self.precision.name} array of size {self.n}"
            )

    # The one-tile front stays only because bench/spans.py wraps these two
    # methods by name; it can go once the benchmark's spans stop wrapping them.

    def load_weights(self, tile: PackedGrid) -> None:
        """Take a 1 x 1 grid of this array's precision and size for `stream`."""
        self._check_fits(tile)
        if (tile.tk, tile.tp) != (1, 1):
            raise ValueError(f"load_weights takes one tile, got a {tile.tk}x{tile.tp} grid")
        self._tile = tile

    def stream(self, rows) -> np.ndarray:
        """`stream_grid` of the loaded tile on the R x n `rows`: one pass;
        an (R, 1, n) int64 array of outputs."""
        if self._tile is None:
            raise PhaseError("streaming before weight load")
        if np.ndim(rows) != 2 or np.shape(rows)[1] != self.n:
            raise ValueError(f"input rows must be R x {self.n}, got {np.shape(rows)}")
        return self.stream_grid(self._tile, rows)

    def _write_trace(self, registers: np.ndarray, cycles: np.ndarray) -> None:
        """Write the per-PE lines of the increasing `cycles`, whose (n, n, 5)
        registers are `registers[:len(cycles)]`.

        Every line of the block is laid out in the same number of words:
        the cycle and each register value take as many four-digit groups as
        the widest of them in the block needs. Dropping the NULs leaves the
        lines exactly as `%d` prints them. The lines are formed and written
        in slices of whole clocks, or of PE rows of one clock when a clock's
        lines alone exceed it, of at most `_TRACE_BYTES` of words each."""
        steps, n = len(cycles), self.n
        if not steps:
            return
        values = registers[:steps]
        groups = ceil_div(len(str(max(int(values.max()), -int(values.min())))), 4)
        cycle_groups = ceil_div(len(str(int(cycles[-1]))), 4)
        cycle_words = np.empty((steps, cycle_groups), dtype=np.uint64)
        _number_words(cycles, cycle_groups, 0, cycle_words)
        prefixes = _cell_prefixes(n).reshape(n, n, -1)
        head = cycle_groups + prefixes.shape[2]
        width = head + 5 * groups
        rows = max(1, _TRACE_BYTES // (8 * width * n))  # PE rows of lines per slice
        clocks, rows = max(1, rows // n), min(rows, n)
        for c in range(0, steps, clocks):
            for r in range(0, n, rows):
                part = values[c : c + clocks, r : r + rows]
                lines = np.empty(part.shape[:3] + (width,), dtype=np.uint64)
                lines[..., :cycle_groups] = cycle_words[c : c + clocks, None, None]
                lines[..., cycle_groups:head] = prefixes[r : r + rows]
                fields = lines[..., head:].reshape(part.shape[:3] + (5, groups))
                _number_words(part, groups, _VALUE_SEPARATORS, fields)
                self._trace.write(lines.tobytes().translate(None, b"\0").decode("ascii"))

    # -- streaming -----------------------------------------------------------

    def _run(self, slots: np.ndarray, feed: np.ndarray, check: bool) -> None:
        """Run each pass p of the (4, P, n, n) `slots` on feed[p % K]: the
        n + 1 zero rows before it, then one row per clock, from
        zero registers, one cycle per clock; the caller advances the clock
        past the run.

        Registers are formed in blocks of as many clocks as `_TRACE_BYTES`
        of registers hold, one at least (whole passes when they fit). With
        `check`, the caller's `_row_may_overflow` for the largest fed value,
        every block is checked: the first clock in run order out of range
        raises `PsumOverflowError`, after the trace lines of the clocks
        before it, with the clock on it.
        """
        n, window = self.n, self.n + 1
        passes, sources = slots.shape[1], len(feed)
        steps = feed.shape[1] - window
        held = np.zeros((passes, n, n, 5), dtype=feed.dtype)  # each pass's registers after its last block
        if check:
            reducer = _fold_matrices(slots, _STAGE2_FOLD)
        per = max(1, _TRACE_BYTES // (_REGISTER_BYTES * n * n))  # clocks per block
        span = max(1, per // max(steps, 1))  # passes per block
        for p0 in range(0, passes, span):
            block_passes = np.arange(p0, min(p0 + span, passes))
            block_slots, block_held = slots[:, p0 : p0 + span], held[p0 : p0 + span]
            for lo in range(0, steps, per):
                clocks = min(per, steps - lo)
                # from the row that stage 2 folds on the block's first clock
                block = feed[block_passes % sources, lo : window + lo + clocks]
                registers = _registers(block_slots, block, window, window + clocks, block_held)
                block_held[...] = registers[:, -1]
                registers = registers.reshape(-1, n, n, 5)
                cycles = (self.cycle + lo + 1 + steps * block_passes[:, None] + np.arange(clocks)).ravel()
                fail = len(cycles)
                if check:
                    stage2 = np.matmul(block[:, :clocks], reducer[p0 : p0 + span]).reshape(-1, n)
                    bad = _out_of_range(registers[..., 1:], (1, 2, 3)) | _out_of_range(stage2, 1)
                    if bad.any():
                        fail = int(bad.argmax())
                if self._trace is not None:
                    self._write_trace(registers, cycles[:fail])
                if fail < len(cycles):
                    self.cycle = int(cycles[fail])
                    _check_register(registers[fail, ..., 1:], "psum bus")
                    _check_register(stage2[fail], "reducer")

    def stream_grid(self, grid: PackedGrid, a) -> np.ndarray:
        """Every pass of one fused group (a job's virtual matrices, see
        `tiling.TiledPlan`) as `run_tiled` prepares it: for each
        column tile j, for each k, load tile (k, j) and stream the columns
        k*n .. (k+1)*n of the M x K input `a`, zero-padded to whole row
        tiles. Returns the outputs summed over k: an int64 (M, nw, tp*n)
        view of the (nw, M, tp*n) block `_group_outputs` fills, whose
        [i, t] entry is row i of `a` times matrix t, zero-padded to whole
        column tiles. The grid must hold tiles of the array's precision
        and size.

        The passes' registers are formed, in `_register_dtype`, from the
        grid rotated into its tiles once, only with a trace sink or when
        `_row_may_overflow` is on for the largest input magnitude; the
        input is scanned for that only when the bound is on at |a| = 128;
        otherwise no slot is decoded. Either way the clock advances by
        `stream_cycles` per pass.
        """
        self._check_fits(grid)
        n, window = self.n, self.n + 1
        tk, tp = grid.tk, grid.tp
        a = np.asarray(a)
        if a.ndim != 2 or ceil_div(a.shape[1], n) != tk:
            raise ValueError(f"input must be M x K with ceil(K/{n}) = {tk}, got {a.shape}")
        a = to_int8(a, ACT_BITS, "input element")  # an int8 input is not scanned
        m_dim, k_dim = a.shape
        steps = stream_cycles(n, ceil_div(m_dim, n) * n, self.precision)
        # |a| <= 128 keeps the bound off below n ~ 87 800; scan only when it could trip
        check = _row_may_overflow(128, n, self.precision) and _row_may_overflow(
            max(int(a.max(initial=0)), -int(a.min(initial=0))), n, self.precision  # -a.min() wraps in int8
        )
        if self._trace is not None or check:
            dtype = _register_dtype(n, self.precision)
            feed = np.zeros((window + steps, tk * n), dtype=dtype)
            feed[window : window + m_dim, :k_dim] = a
            feed = feed.reshape(-1, tk, n).transpose(1, 0, 2)  # [k, row, column]
            tiles = grid.rotated_tiles().swapaxes(0, 1)  # [j, k]: the passes in run order
            slots = decode_slots(tiles, self.precision).reshape(4, tp * tk, n, n).astype(dtype)
            self._run(slots, feed, check)
        self.cycle += tk * tp * steps
        return _group_outputs(grid, a).transpose(1, 0, 2)
