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
The int8 slots of every pass are looked up once from the grid's
matrix-order words, in the precision's 256-word table (`decode_slots`),
and the registers of a block of clocks, for a stack of passes at once,
come from the formulas above, formed only for a trace: by one float32
matmul for a block of at least n clocks (`_mapped_registers`), clock by
clock for a shorter one (`_registers`).
They are int32, as wide as the paper's psum buses, and need no check:
`ArraySim` takes no n from `SIZE_LIMIT` up, where an int8 input could
first take one past 32 bits. The reducer's fold is linear, so the outputs
are exact matmuls of the int8 input with the weight fields of the
matrix-order words (`_group_outputs`), each field cut from the words by
one multiply and one arithmetic shift (`decode_field`; a W8 field is the
word read as int8): per matrix, float32 over chunks of K small enough to
stay exact, added in int64 into one int64 block per group.

The one overflow the modelled hardware can reach is in the 32-bit
accumulator that adds each pass's outputs over the reduction tiles:
`_check_accumulator` checks every running sum before the first pass
streams, only when K full-scale products could reach the limit. Traces
are formatted without Python ints: every number is gathered as 8-byte
ASCII words, one per four decimal digits, from one table (`_group_words`)
into a fixed-width line buffer, and one `bytes.translate` drops the NUL
padding. Register blocks, line buffers and accumulator-check blocks are
bounded in bytes (`_TRACE_BYTES`), not in clocks.
"""

from __future__ import annotations

import functools
import io
from typing import Optional

import numpy as np

from .numerics import ACT_BITS, PSUM_BITS, ceil_div, check_size, check_type, exact_matmuls, to_int8
from .preprocess import PackedGrid, Precision, decode_field, decode_slots

_PSUM_LIMIT = 1 << (PSUM_BITS - 1)


class PhaseError(RuntimeError):
    """An operation out of phase, such as streaming before any weight load."""


class PsumOverflowError(OverflowError):
    """A running sum over reduction tiles left the 32-bit accumulator range."""


def weight_slots(word: int, precision: Precision) -> tuple[int, int, int, int]:
    """The four 2-bit slots of one stationary word under a precision, as
    `decode_slots` reads them. No engine path calls it: it stays only
    because bench/spans.py wraps adipsim.array.weight_slots, and can go
    once the benchmark's spans stop wrapping it."""
    if check_size(word, "weight word", least=0) > 0xFF:
        raise ValueError(f"weight word {word} outside [0, 255]")
    return tuple(decode_slots(word, check_type(precision, Precision, "precision")).tolist())


# Bytes of a block of registers, of trace words or of accumulator sums:
# each temporary stays under the 128 KiB above which glibc's malloc maps
# it afresh (a register matmul's product, with the n - 1 rows before its
# block, under twice this), and a job's heap peak under the size glibc
# trims back after a free, so runs do not fault their pages in again job
# after job. A block is one clock at least: above n = 57 its registers
# are more.
_TRACE_BYTES = 1 << 16
# A PE's input and four buses, int32.
_REGISTER_BYTES = 5 * 4

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


def _widest_reach(precision: Precision) -> int:
    """The largest W8 fold reach sum_g |slot_g| << 2g of any of the 256
    stationary words under `precision`."""
    slots = decode_slots(np.arange(256), precision)  # [g, word]
    return int((np.abs(slots) << (2 * np.arange(4))[:, None]).sum(axis=0).max())


# The smallest array size `ArraySim` rejects (87 839; a tile of words is
# then 7.7 GB). Bus g of PE(r, c) holds sum_{q<=r} x_q * slot[g, q, c], and
# the reducer's widest value is the W8 fold sum_g bus_g << 2g of a column's
# bottom buses: below it, 128 * n times the widest reach (W8's) fits 32 bits.
SIZE_LIMIT = ceil_div(1 << (PSUM_BITS - 1), 128 * _widest_reach(Precision.W8))


@functools.cache
def _diagonals(n: int) -> np.ndarray:
    """(q + c) mod n over q, c < n: the element of a fed row that PE(q, c)
    multiplies."""
    index = (np.arange(n)[:, None] + np.arange(n)) % n
    index.flags.writeable = False
    return index


def _registers(slots: np.ndarray, block: np.ndarray, before: np.ndarray) -> np.ndarray:
    """The (P, clocks, n, n, 5) registers, each PE's input and then its
    four buses, after each clock of a block: pass p's from its fed rows
    block[p] (the n - 1 before the block included), its slots[:, p] as the
    array holds them and its registers `before` the block. Bus g of
    PE(r, c) adds its product with slot[g, r, c] to what PE(r - 1, c) held
    a clock before."""
    n = slots.shape[-1]
    steps = block.shape[1] - (n - 1)
    inputs = block[:, n - 1 + np.arange(steps)[:, None, None] - np.arange(n)[:, None], _diagonals(n)]
    registers = np.empty((len(block), steps, n, n, 5), dtype=block.dtype)
    for g, weights in enumerate(slots[:, :, None]):
        np.multiply(inputs, weights, out=registers[..., 1 + g])
    # PE row r - 1 `before` feeds row r on the first clock; the sums below
    # carry it on. The inputs add up too, and are set afterwards.
    registers[:, 0, 1:] += before[:, :-1]
    for k in range(1, steps):
        registers[:, k, 1:] += registers[:, k - 1, :-1]
    registers[..., 0] = inputs
    return registers


@functools.cache
def _register_mask(n: int) -> np.ndarray:
    """[j, r, c, field], read-only float32: 1 where element j of a fed row
    enters that register of PE(r, c); with d = (j - c) mod n, the input
    where d = r and each bus where d <= r."""
    d = (np.arange(n)[:, None, None] - np.arange(n)) % n  # [j, 1, c]
    r = np.arange(n)[:, None]
    mask = np.stack([d == r] + [d <= r] * 4, axis=-1).astype(np.float32)
    mask.flags.writeable = False
    return mask


def _mapped_registers(slots: np.ndarray, block: np.ndarray) -> np.ndarray:
    """`_registers` of a block, in int32, from slots[:, p] of pass p's
    matrix-order words: PE row r on clock k is block row n - 1 + k - r
    times the pass's map, `_register_mask` with bus g scaled by slot g of
    word (j, c). One float32 matmul, exact as each sum is an integer of at
    most 128 * 3 * n < 2^24 in magnitude."""
    n = slots.shape[-1]
    factors = np.empty((slots.shape[1], n, 1, n, 5), dtype=np.float32)  # [p, j, 1, c]: 1, then the slots
    factors[..., 0] = 1
    factors[..., 1:] = slots.transpose(1, 2, 3, 0)[:, :, None]
    maps = np.multiply(_register_mask(n), factors).reshape(len(factors), n, -1)
    product = np.matmul(block.astype(np.float32), maps)  # [p, fed row, (r, c, field)]
    passes, rows, width = product.shape
    pass_step, row_step, item = product.strides
    shape = (passes, rows - n + 1, n, n, 5)
    strides = (pass_step, row_step, width // n * item - row_step, 5 * item, item)
    return np.ndarray(shape, np.float32, product, (n - 1) * row_step, strides).astype(np.int32)


def _group_outputs(grid: PackedGrid, a: np.ndarray) -> np.ndarray:
    """Each row of the M x K int8 input `a` times each of the grid's nw
    weight matrices, read from its matrix-order words (K rows of them):
    one (nw, M, tp*n) int64 block, matrix t at [t].

    No product of an 8-bit input and a w-bit weight passes
    `Precision.product_bound`, 2^(6+w), so `exact_matmuls` runs float32
    matmuls over chunks of 2^(18-w) rows of K and sums them in int64.
    Matrix t's field is decoded on its own, per chunk, so only one
    matrix's float32 weights are live at a time.
    """
    precision, words = grid.precision, grid.words[: a.shape[1]]

    def weight_rows(t: int, rows: slice) -> np.ndarray:
        return decode_field(words[rows], precision, t).astype(np.float32)

    return exact_matmuls(a, weight_rows, grid.nw, words.shape[1], precision.product_bound)


def _check_accumulator(grid: PackedGrid, a: np.ndarray) -> None:
    """PsumOverflowError unless every output's running sum over the
    reduction tiles (the int8 M x K `a` times each of the grid's matrices,
    n rows of K at a time) stays in [-L, L-1], L = `_PSUM_LIMIT`, read at
    call time so tests can lower it.

    No sum of K products of int8 inputs and w-bit weights passes
    K * `Precision.product_bound` in magnitude; below L nothing is read,
    which at 2^31 holds for every W8 job with K below 2^17. Otherwise, per
    matrix and block of tiles of about `_TRACE_BYTES`, each tile's sums
    come from one exact float64 matmul and are summed along the tiles in
    int64.
    """
    n, width = grid.n, grid.words.shape[1]
    m_dim, k_dim = a.shape
    if k_dim * grid.precision.product_bound < _PSUM_LIMIT:
        return
    tiles = max(1, _TRACE_BYTES // 8 // ((m_dim + n) * width + m_dim * n))  # per block
    for t in range(grid.nw):
        running = np.zeros((m_dim, width), dtype=np.int64)
        for k in range(0, grid.tk, tiles):
            weights = decode_field(grid.words[k * n : (k + tiles) * n], grid.precision, t).astype(np.float64)
            count = len(weights) // n
            inputs = np.zeros((m_dim, count * n))
            part = a[:, k * n : (k + count) * n]
            inputs[:, : part.shape[1]] = part
            sums = np.matmul(inputs.reshape(m_dim, count, n).swapaxes(0, 1), weights.reshape(count, n, width))
            sums = running + np.cumsum(sums.astype(np.int64), axis=0)
            if sums.min(initial=0) < -_PSUM_LIMIT or sums.max(initial=0) >= _PSUM_LIMIT:
                limits = f"[{-_PSUM_LIMIT}, {_PSUM_LIMIT - 1}]"
                raise PsumOverflowError(f"accumulator overflow: a running sum over reduction tiles leaves {limits}")
            running = sums[-1]


class ArraySim:
    """Single-owner simulator instance of an n x n array of `precision`
    PEs, advanced one pass at a time; every grid it runs must be of that
    precision and size, with any number of matrices.

    `stream_grid` is the one engine. `load_weights` and `stream` are a
    one-tile front of it: they run a 1 x 1 grid.

    A trace sink gets the header, then one line per PE per cycle. An n at
    or above `SIZE_LIMIT` raises ValueError.
    """

    def __init__(
        self,
        n: int,
        precision: Precision,
        trace: Optional[io.TextIOBase] = None,
    ):
        self.n = check_size(n)
        if self.n >= SIZE_LIMIT:
            raise ValueError(f"array size {n} reaches {SIZE_LIMIT}, where a psum could leave {PSUM_BITS} bits")
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

    def _write_trace(self, registers: np.ndarray, cycles: np.ndarray, groups: Optional[int] = None) -> None:
        """Write the per-PE lines of the increasing `cycles`, one (n, n, 5)
        block of `registers` each.

        Every line of the block is laid out in the same number of words:
        the cycle takes as many four-digit groups as the block's last cycle
        needs, and each register value `groups` of them, which must be
        enough for every value in the block; when `groups` is None, as many
        as the widest value in the block needs, found by a scan. Dropping
        the NULs leaves the lines exactly as `%d` prints them. The lines
        are formed and written in slices of whole clocks, or of PE rows of
        one clock when a clock's lines alone exceed it, of at most
        `_TRACE_BYTES` of words each."""
        steps, n = len(cycles), self.n
        if groups is None:
            groups = ceil_div(len(str(max(int(registers.max()), -int(registers.min())))), 4)
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
                part = registers[c : c + clocks, r : r + rows]
                lines = np.empty(part.shape[:3] + (width,), dtype=np.uint64)
                lines[..., :cycle_groups] = cycle_words[c : c + clocks, None, None]
                lines[..., cycle_groups:head] = prefixes[r : r + rows]
                fields = lines[..., head:].reshape(part.shape[:3] + (5, groups))
                _number_words(part, groups, _VALUE_SEPARATORS, fields)
                self._trace.write(lines.tobytes().translate(None, b"\0").decode("ascii"))

    # -- streaming -----------------------------------------------------------

    def _run(self, slots: np.ndarray, feed: np.ndarray) -> None:
        """Trace each pass p of the (4, P, n, n) `slots` of its
        matrix-order words on feed[p % K]: the n - 1 zero rows before it,
        then one row per clock, from zero registers, one cycle per clock;
        the caller advances the clock past the run. Registers are formed in
        blocks of as many clocks as `_TRACE_BYTES` of registers hold, one at
        least (whole passes when they fit). A block of at least n clocks is
        one matmul (`_mapped_registers`; at 64 KiB every block but a pass's
        short tail up to n = 14), whose maps, 20 n^3 bytes a pass, are no
        more than its registers; a shorter one, for which it would redo the
        n - 1 rows before it each clock, the recurrence (`_registers`).

        Every input is at most 128 in magnitude and every bus, a sum of at
        most n products of an input with a 2-bit slot, at most 128 * 3 * n:
        below 10 000, which holds up to n = 26, each value is one four-digit
        group of the trace, and no block is scanned for its widest value."""
        n, window = self.n, self.n - 1
        groups = 1 if 128 * 3 * n < _GROUP else None
        passes, sources = slots.shape[1], len(feed)
        steps = feed.shape[1] - window
        held = np.zeros((passes, n, n, 5), dtype=feed.dtype)  # each pass's registers after its last block
        per = max(1, _TRACE_BYTES // (_REGISTER_BYTES * n * n))  # clocks per block
        span = max(1, per // max(steps, 1))  # passes per block
        stepped = any(min(per, steps - lo) < n for lo in range(0, steps, per))  # a block of < n clocks
        for p0 in range(0, passes, span):
            block_passes = np.arange(p0, min(p0 + span, passes))
            block_slots, block_held = slots[:, p0 : p0 + span], held[p0 : p0 + span]
            if stepped:
                rotated = block_slots[:, :, _diagonals(n), np.arange(n)]  # [g, p, q, c]: slot of PE(q, c)
            for lo in range(0, steps, per):
                clocks = min(per, steps - lo)
                # from the row that the bottom PE row takes on the block's first clock
                block = feed[block_passes % sources, lo : window + lo + clocks]
                if clocks >= n:
                    registers = _mapped_registers(block_slots, block)
                else:
                    registers = _registers(rotated, block, block_held)
                block_held[...] = registers[:, -1]
                cycles = (self.cycle + lo + 1 + steps * block_passes[:, None] + np.arange(clocks)).ravel()
                self._write_trace(registers.reshape(-1, n, n, 5), cycles, groups)

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

        `_check_accumulator` runs before the first pass, so a trace holds
        only its header if it raises. Slots are decoded and registers
        formed only with a trace sink. Either way the clock advances by
        `stream_cycles` per pass.
        """
        self._check_fits(grid)
        n, window = self.n, self.n - 1
        tk, tp = grid.tk, grid.tp
        a = np.asarray(a)
        if a.ndim != 2 or ceil_div(a.shape[1], n) != tk:
            raise ValueError(f"input must be M x K with ceil(K/{n}) = {tk}, got {a.shape}")
        a = to_int8(a, ACT_BITS, "input element")  # an int8 input is not scanned
        _check_accumulator(grid, a)
        m_dim, k_dim = a.shape
        steps = stream_cycles(n, ceil_div(m_dim, n) * n, self.precision)
        if self._trace is not None:
            feed = np.zeros((window + steps, tk * n), dtype=np.int32)
            feed[window : window + m_dim, :k_dim] = a
            feed = feed.reshape(-1, tk, n).transpose(1, 0, 2)  # [k, row, column]
            tiles = grid.words.reshape(tk, n, tp, n).transpose(2, 0, 1, 3)  # [j, k]: the passes in run order
            slots = decode_slots(tiles, self.precision).reshape(4, tp * tk, n, n)
            self._run(slots, feed)
        self.cycle += tk * tp * steps
        return _group_outputs(grid, a).transpose(1, 0, 2)
