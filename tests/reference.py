"""Reference models that the tests hold the array to, one clock at a time.

`PE` is one grid cell as registered state: a stationary word, an input
register and four psum buses, advanced by `step`. `SteppedArray` is the
whole array as it was before its registers were formed in closed form: a
deque of MAC pipeline registers, two reducer stages and an output delay
line, with every register checked on every clock (no overflow gate) and
each clock's trace lines written with `%d`.

`permute`, `inverse_permute`, `interleave` and `deinterleave` prepare and
decode one n x n weight tile at a time, with plain index arithmetic: the
reference for the whole-matrix `prepare_weights`, `PackedGrid.rotated_tiles`
and `unprepare_weights`.
"""

from collections import deque

import numpy as np

from adipsim import array
from adipsim.array import TRACE_HEADER, load_cycles, resolve_stages, stream_cycles
from adipsim.numerics import PSUM_BITS, check_signed
from adipsim.pe import PhaseError, PsumOverflowError, group_multiply
from adipsim.preprocess import Precision, decode_slots


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


STAGE1_FOLD = np.array([[1, 4, 0, 0], [0, 0, 1, 4]], dtype=np.int64)
STAGE2_FOLD = np.array([1, 16], dtype=np.int64)


class SteppedArray:
    """One clock at a time: the reference for `ArraySim`'s registers."""

    def __init__(self, n, mode, mac_stages=1, reduce_stages=None, overlap_weights=False, trace=None, start_cycle=None):
        self.n = n
        self.mode = mode
        self.mac_stages = mac_stages
        self.reduce_stages = resolve_stages(mode.precision, mac_stages, reduce_stages)
        self.overlap_weights = overlap_weights
        self.cycle = 0 if start_cycle is None else start_cycle
        self.trace = trace
        self.slots = np.zeros((4, n, n), dtype=np.int64)
        self._reset()
        if trace is not None and start_cycle is None:
            trace.write(TRACE_HEADER + "\n")

    def _reset(self):
        n = self.n
        self.regs = np.zeros((5, n, n), dtype=np.int64)  # input, then the four buses
        self.stage1 = np.zeros((2, n), dtype=np.int64)
        self.stage2 = np.zeros(n, dtype=np.int64)
        self.pre = deque(np.zeros((4, n), dtype=np.int64) for _ in range(self.mac_stages - 1))
        extra = self.reduce_stages - self.mode.precision.reducer_stages
        self.out_hist = deque(maxlen=extra + 1)

    def load_weights(self, words):
        """Take an n x n tile of words, rotated as the array loads it."""
        self.slots = decode_slots(words, self.mode.precision).astype(np.int64)
        self._reset()
        self.cycle += load_cycles(self.n, self.overlap_weights)

    def step(self, row_in):
        prev = self.regs
        bottom = prev[1:, -1, :]
        if self.pre:
            self.pre.append(bottom.copy())
            feed = self.pre.popleft()
        else:
            feed = bottom
        self.stage2 = STAGE2_FOLD @ self.stage1
        self.stage1 = STAGE1_FOLD @ feed
        regs = np.empty_like(prev)
        regs[0, 0] = row_in
        # registered value at (r, c) moves to (r+1, (c-1) mod n)
        regs[0, 1:, :-1] = prev[0, :-1, 1:]
        regs[0, 1:, -1] = prev[0, :-1, 0]
        regs[1:] = regs[0] * self.slots
        regs[1:, 1:] += prev[1:, :-1]
        self.regs = regs
        self.cycle += 1
        array._check_register(regs[1:], "psum bus")
        array._check_register(self.stage2, "reducer")
        if self.trace is not None:
            cells = regs.reshape(5, -1).T.tolist()
            self.trace.write(
                "".join(
                    "%d,%d,%d,%d,%d,%d,%d,%d\n" % (self.cycle, i // self.n, i % self.n, *cell)
                    for i, cell in enumerate(cells)
                )
            )
        self.out_hist.append(self._tap())
        return self.out_hist[0]

    def _tap(self):
        precision, nw = self.mode.precision, self.mode.nw
        if precision is Precision.W8:
            return [self.stage2]
        if precision is Precision.W4:
            return list(self.stage1[:nw])
        if self.pre:
            return list(self.pre[0][:nw])
        return list(self.regs[1 : nw + 1, -1].copy())

    def stream(self, rows):
        """(index, cycle, outputs) of each row, on the cycle it leaves the array."""
        rows = np.asarray(rows, dtype=np.int64)
        count = len(rows)
        total = stream_cycles(self.n, count, self.mac_stages, self.reduce_stages)
        first_valid = total - count + 1
        collected = []
        for s in range(1, total + 1):
            tap = self.step(rows[s - 1] if s <= count else np.zeros(self.n, dtype=np.int64))
            if 0 <= s - first_valid < count:
                collected.append((s - first_valid, self.cycle, [t.tolist() for t in tap]))
        return collected
