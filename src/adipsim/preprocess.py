"""Weight-tile preprocessing for the diagonal-input array.

Two steps, in order:

1. permute  -- rotate every tile column j upward by j positions so the
   stationary weights line up with inputs that march diagonally (down one
   row, left one column, wrapping) through the array.
2. interleave -- pack up to r narrow weight matrices into one n x n grid of
   8-bit stationary words. The byte is cut into r little-endian fields of
   8/r bits; field t holds matrix t's weight, fields at or above the active
   matrix count stay zero.

Both steps are lossless for in-range weights; `deinterleave` and
`inverse_permute` undo them exactly. `prepare_weights` applies both to a
whole K x P grid of tiles at once, in uint8, and `unprepare_weights`
undoes it with the same un-rotate-then-decode step (`unpack_fields`) that
the array's untraced group evaluation uses.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from typing import BinaryIO, Sequence

import numpy as np

from .numerics import bit_fields, ceil_div, check_signed

PACKED_MAGIC = b"ADIP"
_HEADER = struct.Struct("<4sHBBHH4x")  # magic, n, weight_bits, nw, grid rows, grid cols
_HEADER_U16_MAX = (1 << 16) - 1  # largest n, grid rows or grid cols the header holds


class Precision(Enum):
    """Weight precision of the stationary operand; activations stay 8-bit."""

    W8 = 8
    W4 = 4
    W2 = 2

    @property
    def weight_bits(self) -> int:
        return self.value

    @property
    def r(self) -> int:
        """Interleave factor: how many weight fields fit one 8-bit word."""
        return 8 // self.value

    @property
    def reducer_stages(self) -> int:
        """Shared shift-add register stages traversed on the way out."""
        return {8: 2, 4: 1, 2: 0}[self.value]

    @classmethod
    def from_bits(cls, bits: int) -> "Precision":
        try:
            return cls(bits)
        except ValueError:
            raise ValueError(f"unsupported weight width {bits}, expected 8, 4 or 2") from None

    @classmethod
    def from_name(cls, name: str) -> "Precision":
        key = name.strip().lower()
        if key not in ("w8", "w4", "w2"):
            raise ValueError(f"unknown precision mode {name!r}, expected w8/w4/w2")
        return cls(int(key[1]))


@dataclass(frozen=True)
class PrecisionMode:
    """Operating point: weight precision plus the active matrix count nw <= r."""

    precision: Precision
    nw: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.nw <= self.precision.r:
            raise ValueError(
                f"nw={self.nw} invalid for {self.precision.name} (1..{self.precision.r})"
            )

    @property
    def r(self) -> int:
        return self.precision.r

    @property
    def weight_bits(self) -> int:
        return self.precision.weight_bits


@dataclass
class WeightTile:
    """Square grid of signed weights at a uniform width in {2, 4, 8} bits."""

    data: np.ndarray
    width: int

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.int32)
        if self.data.ndim != 2 or self.data.shape[0] != self.data.shape[1]:
            raise ValueError(f"weight tile must be square, got shape {self.data.shape}")
        if self.width not in (2, 4, 8):
            raise ValueError(f"invalid weight width {self.width}")
        check_signed(self.data, self.width, "weight")

    @property
    def n(self) -> int:
        return self.data.shape[0]


@dataclass
class PackedWeightTile:
    """n x n grid of 8-bit stationary words holding nw interleaved tiles."""

    words: np.ndarray
    mode: PrecisionMode

    def __post_init__(self) -> None:
        self.words = np.asarray(self.words, dtype=np.uint8)
        if self.words.ndim != 2 or self.words.shape[0] != self.words.shape[1]:
            raise ValueError(f"packed tile must be square, got shape {self.words.shape}")

    @property
    def n(self) -> int:
        return self.words.shape[0]


def _rotated(tiles: np.ndarray, step: int = 1) -> np.ndarray:
    """A read-only view of a stack of n x n tiles, shape (..., n, n), with
    column j of each tile moved up by step * j rows, wrapping: view[..., k,
    j] = tiles[..., (k + step * j) mod n, j]. `step` 1 is the rotation of
    `permute`, -1 undoes it.

    The view is strided over a copy that stacks each tile twice, one copy
    above the other, so its column j is n consecutive rows of that stack
    from row j (step 1) or n - j (step -1); copying the view, in whatever
    layout the caller needs, is the one gather.
    """
    n = tiles.shape[-1]
    twice = np.empty(tiles.shape[:-2] + (2, n, n), dtype=tiles.dtype)
    twice[..., 0, :, :] = twice[..., 1, :, :] = tiles
    row, item = twice.strides[-2:]
    offset = n * row if step < 0 and twice.size else 0
    view = np.ndarray(tiles.shape, tiles.dtype, twice, offset, twice.strides[:-3] + (row, item + step * row))
    view.flags.writeable = False
    return view


def permute(tile: WeightTile) -> WeightTile:
    """Rotate column j upward by j: out[k][j] = in[(k+j) mod n][j]."""
    return WeightTile(_rotated(tile.data).copy(), tile.width)


def inverse_permute(tile: WeightTile) -> WeightTile:
    """Undo `permute`: out[k][j] = in[(k-j) mod n][j]."""
    return WeightTile(_rotated(tile.data, -1).copy(), tile.width)


def _pack_fields(fields: Sequence[np.ndarray], width: int) -> np.ndarray:
    """Pack same-shape signed `width`-bit fields, field t at index t, into
    uint8 words: field t fills bits [t * width, (t + 1) * width), two's
    complement."""
    mask = (1 << width) - 1
    words = np.zeros(np.shape(fields[0]), dtype=np.uint8)
    for t, field in enumerate(fields):
        words |= (np.asarray(field).astype(np.uint8) & mask) << (t * width)  # wraps negatives modulo 256
    return words


def interleave(tiles: Sequence[WeightTile], mode: PrecisionMode) -> PackedWeightTile:
    """Pack nw same-size tiles into one word grid, tile t in bit field t."""
    if len(tiles) != mode.nw:
        raise ValueError(f"mode expects {mode.nw} tiles, got {len(tiles)}")
    n = tiles[0].n
    w = mode.weight_bits
    for tile in tiles:
        if tile.n != n:
            raise ValueError(f"ragged tile set: {tile.n} != {n}")
        if tile.width != w:
            raise ValueError(f"tile width {tile.width} does not match mode width {w}")
    return PackedWeightTile(_pack_fields([tile.data for tile in tiles], w), mode)


def deinterleave(packed: PackedWeightTile) -> list[WeightTile]:
    """Decode the nw active bit fields back into signed weight tiles."""
    w = packed.mode.weight_bits
    return [WeightTile(field, w) for field in bit_fields(packed.words, w, packed.mode.nw)]


# The 2-bit slots of a stationary word that carry a sign: the top slot of
# each weight field (see `pe` for how the PE's multiplier groups use them).
_SIGNED_SLOTS = {
    Precision.W8: (False, False, False, True),
    Precision.W4: (False, True, False, True),
    Precision.W2: (True, True, True, True),
}


def decode_slots(words, precision: Precision) -> np.ndarray:
    """Decode stationary words into their four 2-bit slots: shape (4, *words.shape)."""
    return bit_fields(words, 2, 4, _SIGNED_SLOTS[precision])


def unpack_words(words: np.ndarray, precision: Precision) -> tuple[np.ndarray, np.ndarray]:
    """Un-rotate a stack of n x n word grids, shape (..., n, n), back to
    matrix order and decode it once.

    Returns the four 2-bit slots of every word, int8 of shape
    (4, ..., n, n), and the r signed weight fields folded from them, int16
    of shape (r, ..., n, n); both indexed [.., k, j] like the weight
    matrices.
    """
    slots = decode_slots(_rotated(np.asarray(words), -1), precision)
    digits = precision.weight_bits // 2  # slots per weight field, the top one signed
    per_field = slots.reshape(precision.r, digits, *slots.shape[1:])
    fields = per_field[:, -1].astype(np.int16)
    for d in reversed(range(digits - 1)):
        fields *= 4
        fields += per_field[:, d]
    return slots, fields


def unpack_fields(words: np.ndarray, mode: PrecisionMode) -> np.ndarray:
    """The nw weight matrices that a (tk, tp, n, n) stack of packed tiles
    holds, zero-padded to tk*n x tp*n: the words un-rotated back to matrix
    order, then cut into their nw signed weight fields as `deinterleave`
    does. Shape (nw, tk*n, tp*n); int8, or int16 for 8-bit fields."""
    tk, tp, n, _ = words.shape
    matrix = _rotated(words, -1).swapaxes(1, 2).reshape(tk * n, tp * n)
    return bit_fields(matrix, mode.weight_bits, mode.nw)


def prepare_weights(
    matrices: Sequence[np.ndarray], mode: PrecisionMode, n: int
) -> list[list[PackedWeightTile]]:
    """Permute then interleave every n x n tile of nw K x P matrices.

    Matrices are zero-padded up to multiples of n; the result is a
    ceil(K/n) x ceil(P/n) grid of packed tiles ready for vertical loading,
    with no tiles when K or P is 0. The whole grid is packed and rotated
    at once, in uint8.
    """
    if n < 1:
        raise ValueError(f"tile size must be >= 1, got {n}")
    if len(matrices) != mode.nw:
        raise ValueError(f"mode expects {mode.nw} matrices, got {len(matrices)}")
    mats = [np.asarray(m, dtype=np.int64) for m in matrices]
    shape = mats[0].shape
    if len(shape) != 2:
        raise ValueError(f"weight matrices must be 2-D, got shape {shape}")
    if any(m.shape != shape for m in mats):
        raise ValueError("all weight matrices must share one K x P shape")
    for m in mats:
        check_signed(m, mode.weight_bits, "weight")
    k_dim, p_dim = shape
    tk, tp = ceil_div(k_dim, n), ceil_div(p_dim, n)
    words = np.zeros((tk * n, tp * n), dtype=np.uint8)
    words[:k_dim, :p_dim] = _pack_fields(mats, mode.weight_bits)
    tiles = _rotated(words.reshape(tk, n, tp, n).swapaxes(1, 2)).copy()
    return [[PackedWeightTile(tile, mode) for tile in row] for row in tiles]


def _check_grid(grid: Sequence[Sequence[PackedWeightTile]]) -> tuple[PrecisionMode, int]:
    """The mode and tile size shared by every tile of a packed grid.
    Raises ValueError on an empty grid, rows of unequal length, or a tile
    of another mode or size."""
    if not grid or not grid[0]:
        raise ValueError("empty tile grid")
    mode, n = grid[0][0].mode, grid[0][0].n
    if any(len(row) != len(grid[0]) for row in grid):
        raise ValueError("ragged tile grid")
    if any(tile.n != n or tile.mode != mode for row in grid for tile in row):
        raise ValueError("tiles of one grid must share one mode and size")
    return mode, n


def unprepare_weights(grid: Sequence[Sequence[PackedWeightTile]]) -> list[np.ndarray]:
    """Inverse of `prepare_weights`: the nw int64 weight matrices of a
    tk x tp packed grid, still zero-padded to tk*n x tp*n."""
    mode, n = _check_grid(grid)
    words = np.array([[tile.words for tile in row] for row in grid])  # (tk, tp, n, n)
    return list(unpack_fields(words, mode).astype(np.int64))


def check_packable(grid: Sequence[Sequence[PackedWeightTile]]) -> tuple[PrecisionMode, int]:
    """`_check_grid`, and also a ValueError when the tile size or a grid
    dimension does not fit its 16-bit header field; call it before creating
    the file that `write_packed` fills."""
    mode, n = _check_grid(grid)
    for field, value in (("tile size n", n), ("grid rows", len(grid)), ("grid cols", len(grid[0]))):
        if value > _HEADER_U16_MAX:
            raise ValueError(f"{field} {value} exceeds the packed-file limit of {_HEADER_U16_MAX}")
    return mode, n


def write_packed(grid: Sequence[Sequence[PackedWeightTile]], fh: BinaryIO) -> None:
    """Dump a packed-tile grid: 16-byte header, then row-major tile bytes.
    Nothing is written when `check_packable` rejects the grid."""
    mode, n = check_packable(grid)
    fh.write(_HEADER.pack(PACKED_MAGIC, n, mode.weight_bits, mode.nw, len(grid), len(grid[0])))
    for row in grid:
        for tile in row:
            fh.write(tile.words.tobytes())


def read_packed(fh: BinaryIO) -> list[list[PackedWeightTile]]:
    """Inverse of `write_packed`."""
    header = fh.read(_HEADER.size)
    if len(header) != _HEADER.size:
        raise ValueError("truncated packed-weight header")
    magic, n, weight_bits, nw, rows, cols = _HEADER.unpack(header)
    if magic != PACKED_MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    mode = PrecisionMode(Precision.from_bits(weight_bits), nw)
    if n == 0 or rows == 0 or cols == 0:
        raise ValueError(f"empty packed-weight grid: {rows}x{cols} tiles of {n}x{n}")
    grid = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            raw = fh.read(n * n)
            if len(raw) != n * n:
                raise ValueError("truncated packed-weight payload")
            words = np.frombuffer(raw, dtype=np.uint8).reshape(n, n)
            row.append(PackedWeightTile(words.copy(), mode))
        grid.append(row)
    return grid
