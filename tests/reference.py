"""Reference models that the tests hold the array to, one clock at a time.

`PE` is one grid cell as registered state: a stationary word, an input
register and four psum buses, advanced by `step`. Its arithmetic is the
paper's, one scalar at a time: `group_multiply` forms the four group
outputs, each the 8-bit input times one 2-bit weight slot as four 2-bit
multiplies (`numerics.mul2`) folded with radix-4 shifts, sixteen in all;
`combine_groups` folds the four buses into the precision's per-matrix
products (W8: one 8-bit weight, W4: two 4-bit, W2: four 2-bit). The
package forms the same values for whole blocks of clocks in `array`.

`SteppedArray` is the whole array as it was before its registers were
formed in closed form: the PE grid and two reducer stages, tapped at the
precision's stage, with every register checked against the 32-bit range
on every clock (`check_register`) and each clock's trace lines written
with `%d`. `check_accumulator` is the brute-force reference of the
array's one overflow check, on the running sums over reduction tiles.

`permute`, `inverse_permute`, `interleave` and `deinterleave` prepare and
decode one n x n weight tile at a time, with plain index arithmetic: the
reference for the whole-matrix `prepare_weights`, `PackedGrid.rotated_tiles`
and `unprepare_weights`.

`grouped_run_tiled` and `tile_packed_run_tiled` replay the schedules that
`run_tiled` followed before column-block and before column-level packing,
so the trace, CLI and run-digest pins taken under them stay asserted on
their old bytes; they run `stream_grid`, so they raise its accumulator
error.
"""

import functools

import numpy as np

from adipsim import array
from adipsim.array import (
    TRACE_HEADER,
    ArraySim,
    PhaseError,
    PsumOverflowError,
    stream_cycles,
    weight_slots,
)
from adipsim.numerics import PSUM_BITS, ceil_div, check_signed, mul2, split_subwords
from adipsim.preprocess import Precision, decode_slots, prepare_weights
from adipsim.tiling import TiledResult


def permute(tile):
    """Rotate column j of a square tile upward by j: out[k][j] = in[(k+j) mod n][j]."""
    tile = np.asarray(tile)
    k, j = np.indices(tile.shape)
    return tile[(k + j) % len(tile), j]


def inverse_permute(tile):
    """Undo `permute`: out[k][j] = in[(k-j) mod n][j]."""
    tile = np.asarray(tile)
    k, j = np.indices(tile.shape)
    return tile[(k - j) % len(tile), j]


def interleave(tiles, width):
    """Pack same-shape tiles of signed `width`-bit weights into uint8 words,
    tile t in bits [t * width, (t + 1) * width), two's complement."""
    words = np.zeros(np.shape(tiles[0]), dtype=np.int64)
    for t, tile in enumerate(tiles):
        words |= (np.asarray(tile, dtype=np.int64) % (1 << width)) << (t * width)
    return words.astype(np.uint8)


def deinterleave(words, width, nw):
    """The `nw` signed `width`-bit weight tiles of a tile of uint8 words."""
    words = np.asarray(words, dtype=np.int64)
    fields = [(words >> (t * width)) % (1 << width) for t in range(nw)]
    return [np.where(f >= 1 << (width - 1), f - (1 << width), f) for f in fields]


# Each word's slots, read once per precision: acceptance c02 forms every
# input x word product at every precision, 196 608 group products.
_weight_slots = functools.cache(weight_slots)


def group_multiply(input_val: int, word: int, precision: Precision) -> tuple[int, int, int, int]:
    """Four group outputs: product of the 8-bit input with each weight field."""
    subwords = split_subwords(input_val, 8)
    slots = _weight_slots(word, precision)
    return tuple(
        sum(mul2(sub, slot) << (2 * j) for j, sub in enumerate(subwords)) for slot in slots
    )


def combine_groups(groups: tuple[int, int, int, int], precision: Precision) -> tuple[int, ...]:
    """Fold the four bus values into per-matrix products for the precision."""
    g0, g1, g2, g3 = groups
    if precision is Precision.W8:
        return (g0 + (g1 << 2) + (g2 << 4) + (g3 << 6),)
    if precision is Precision.W4:
        return (g0 + (g1 << 2), g2 + (g3 << 2))
    return (g0, g1, g2, g3)


class PE:
    """Registered state of a single grid cell of `precision`.

    One `step` models one clock: it consumes the diagonal-neighbor input and
    the psums arriving from above (previous-cycle registers), emits the
    input registered last cycle, and registers the updated psums.
    """

    def __init__(self, precision: Precision):
        self.precision = precision
        self.weight_word = 0
        self.input_reg = 0
        self.psums = (0, 0, 0, 0)
        self.computing = False

    def load_weight(self, word: int) -> None:
        if self.computing:
            raise PhaseError("weight load during compute phase")
        if not 0 <= word <= 0xFF:
            raise ValueError(f"weight word {word} outside [0, 255]")
        self.weight_word = word
        self.psums = (0, 0, 0, 0)

    def end_compute(self) -> None:
        """Return to the weight-load phase once outputs have drained."""
        self.computing = False

    def step(
        self, input_in: int, psums_in: tuple[int, int, int, int] = (0, 0, 0, 0)
    ) -> tuple[int, tuple[int, int, int, int]]:
        check_signed(input_in, 8, "input")
        self.computing = True
        groups = group_multiply(input_in, self.weight_word, self.precision)
        psums_out = tuple(p + g for p, g in zip(psums_in, groups))
        try:
            for p in psums_out:
                check_signed(p, PSUM_BITS, "psum")
        except ValueError as exc:
            raise PsumOverflowError(str(exc)) from None
        input_out = self.input_reg
        self.input_reg = input_in
        self.psums = psums_out
        return input_out, psums_out


def check_register(values, what):
    """PsumOverflowError when registers leave the signed 32-bit range."""
    limit = 1 << (PSUM_BITS - 1)
    if np.min(values) < -limit or np.max(values) >= limit:
        raise PsumOverflowError(f"{what} overflow")


def running_sums(a, weights, n):
    """Every running sum of `a` times each of `weights` over the reduction
    tiles (every prefix of whole tiles of n rows of K), brute force in
    int64, and a 0, as one flat array."""
    a = np.asarray(a, dtype=np.int64)
    stops = range(n, ceil_div(a.shape[1], n) * n + 1, n)
    sums = [(a[:, :stop] @ np.asarray(w, dtype=np.int64)[:stop]).ravel() for w in weights for stop in stops]
    return np.concatenate(sums + [np.zeros(1, dtype=np.int64)])


def check_accumulator(a, weights, n):
    """PsumOverflowError, with `ArraySim`'s message, when a `running_sums`
    value leaves [-L, L-1], L = `array._PSUM_LIMIT`; no gate."""
    limit, sums = array._PSUM_LIMIT, running_sums(a, weights, n)
    if sums.min() < -limit or sums.max() >= limit:
        limits = f"[{-limit}, {limit - 1}]"
        raise PsumOverflowError(f"accumulator overflow: a running sum over reduction tiles leaves {limits}")


STAGE1_FOLD = np.array([[1, 4, 0, 0], [0, 0, 1, 4]], dtype=np.int64)
STAGE2_FOLD = np.array([1, 16], dtype=np.int64)


class SteppedArray:
    """One clock at a time: the reference for `ArraySim`'s registers."""

    def __init__(self, n, precision, nw, trace=None):
        self.n = n
        self.precision, self.nw = precision, nw
        self.cycle = 0
        self.trace = trace
        self.slots = np.zeros((4, n, n), dtype=np.int64)
        self._reset()
        if trace is not None:
            trace.write(TRACE_HEADER + "\n")

    def _reset(self):
        n = self.n
        self.regs = np.zeros((5, n, n), dtype=np.int64)  # input, then the four buses
        self.stage1 = np.zeros((2, n), dtype=np.int64)
        self.stage2 = np.zeros(n, dtype=np.int64)

    def load_weights(self, words):
        """Take an n x n tile of words, rotated as the array loads it; the
        load is hidden behind the pass before, so it takes no cycle."""
        self.slots = decode_slots(words, self.precision).astype(np.int64)
        self._reset()

    def step(self, row_in):
        prev = self.regs
        self.stage2 = STAGE2_FOLD @ self.stage1
        self.stage1 = STAGE1_FOLD @ prev[1:, -1, :]
        regs = np.empty_like(prev)
        regs[0, 0] = row_in
        # registered value at (r, c) moves to (r+1, (c-1) mod n)
        regs[0, 1:, :-1] = prev[0, :-1, 1:]
        regs[0, 1:, -1] = prev[0, :-1, 0]
        regs[1:] = regs[0] * self.slots
        regs[1:, 1:] += prev[1:, :-1]
        self.regs = regs
        self.cycle += 1
        check_register(regs[1:], "psum bus")
        check_register(self.stage2, "reducer")
        if self.trace is not None:
            cells = regs.reshape(5, -1).T.tolist()
            self.trace.write(
                "".join(
                    "%d,%d,%d,%d,%d,%d,%d,%d\n" % (self.cycle, i // self.n, i % self.n, *cell)
                    for i, cell in enumerate(cells)
                )
            )
        return self._tap()

    def _tap(self):
        precision, nw = self.precision, self.nw
        if precision is Precision.W8:
            return [self.stage2]
        if precision is Precision.W4:
            return list(self.stage1[:nw])
        return list(self.regs[1 : nw + 1, -1].copy())

    def stream(self, rows):
        """(index, cycle, outputs) of each row, on the cycle it leaves the array."""
        rows = np.asarray(rows, dtype=np.int64)
        count = len(rows)
        total = stream_cycles(self.n, count, self.precision)
        first_valid = total - count + 1
        collected = []
        for s in range(1, total + 1):
            tap = self.step(rows[s - 1] if s <= count else np.zeros(self.n, dtype=np.int64))
            if 0 <= s - first_valid < count:
                collected.append((s - first_valid, self.cycle, [t.tolist() for t in tap]))
        return collected


def grouped_run_tiled(job, trace=None):
    """`run_tiled` as it was before column-block packing: the job's matrices
    fused r at a time, the last group taking what is left, each group
    prepared by `prepare_weights` and run by `stream_grid` on one
    `ArraySim` for the whole job. A group leaves a weight field empty when
    it holds fewer than r matrices, so a job takes tk * tp * ceil(nw / r)
    passes."""
    m_dim, k_dim, p_dim = job.shape
    r = job.precision.r
    sim = ArraySim(job.n, job.precision, trace)
    outputs, passes = [], 0
    for base in range(0, len(job.weights), r):
        group = job.weights[base : base + r]
        if k_dim and p_dim:
            grid = prepare_weights(group, job.precision, job.n)
            products = sim.stream_grid(grid, job.a)
            passes += grid.tk * grid.tp
        else:  # K = 0 or P = 0 has no passes
            products = np.zeros((m_dim, len(group), p_dim), dtype=np.int64)
        outputs += [products[:, t, :p_dim] for t in range(len(group))]
    return TiledResult(outputs=outputs, total_cycles=sim.cycle, pass_count=passes)


def tile_packed_run_tiled(job, trace=None):
    """`run_tiled` as it was before column-level packing: the job's matrices
    side by side, each padded to tp column tiles, that row of nw * tp tiles
    cut into runs of per = ceil(nw * tp / r) tiles, one run per weight
    field, and run as one fused group on one `ArraySim`. A matrix whose P
    is not a multiple of n pads its last tile, so a job takes
    tk * ceil(nw * tp / r) passes."""
    m_dim, k_dim, p_dim = job.shape
    n, nw = job.n, len(job.weights)
    tk, tp = ceil_div(k_dim, n), ceil_div(p_dim, n)
    per = ceil_div(nw * tp, job.precision.r)
    sim = ArraySim(n, job.precision, trace)
    if not (tk and per):  # K = 0 or P = 0 has no passes
        return TiledResult(list(np.zeros((nw, m_dim, p_dim), dtype=np.int64)), sim.cycle, 0)
    stride, width, virtual = tp * n, per * n, ceil_div(nw * tp, per)
    side = np.zeros((k_dim, virtual * width), dtype=np.int8)
    for t, w in enumerate(job.weights):
        side[:, t * stride : t * stride + p_dim] = w
    matrices = [side[:, v * width : (v + 1) * width] for v in range(virtual)]
    grid = prepare_weights(matrices, job.precision, n)
    row = sim.stream_grid(grid, job.a).reshape(m_dim, virtual * width)  # the side-by-side columns
    outputs = [row[:, t * stride : t * stride + p_dim] for t in range(nw)]
    return TiledResult(outputs=outputs, total_cycles=sim.cycle, pass_count=tk * per)
