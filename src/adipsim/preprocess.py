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
`inverse_permute` undo them exactly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from typing import BinaryIO, Sequence

import numpy as np

from .numerics import bit_fields, signed_range

PACKED_MAGIC = b"ADIP"
_HEADER = struct.Struct("<4sHBBHH4x")  # magic, n, weight_bits, nw, grid rows, grid cols


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
        lo, hi = signed_range(self.width)
        if self.data.size and (self.data.min() < lo or self.data.max() > hi):
            raise ValueError(f"weight outside signed {self.width}-bit range [{lo}, {hi}]")

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


def rotation_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index map of the diagonal rotation: `permute` moves element
    [(k+j) mod n][j] of a tile to [k][j], so `grid[rows, cols]` applies the
    rotation and `out[rows, cols] = grid` undoes it."""
    rows = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return rows, np.arange(n)[None, :]


def permute(tile: WeightTile) -> WeightTile:
    """Rotate column j upward by j: out[k][j] = in[(k+j) mod n][j]."""
    return WeightTile(tile.data[rotation_index(tile.n)], tile.width)


def inverse_permute(tile: WeightTile) -> WeightTile:
    """Undo `permute`: out[k][j] = in[(k-j) mod n][j]."""
    out = np.empty_like(tile.data)
    out[rotation_index(tile.n)] = tile.data
    return WeightTile(out, tile.width)


def interleave(tiles: Sequence[WeightTile], mode: PrecisionMode) -> PackedWeightTile:
    """Pack nw same-size tiles into one word grid, tile t in bit field t."""
    if len(tiles) != mode.nw:
        raise ValueError(f"mode expects {mode.nw} tiles, got {len(tiles)}")
    n = tiles[0].n
    w = mode.weight_bits
    words = np.zeros((n, n), dtype=np.int64)
    mask = (1 << w) - 1
    for t, tile in enumerate(tiles):
        if tile.n != n:
            raise ValueError(f"ragged tile set: {tile.n} != {n}")
        if tile.width != w:
            raise ValueError(f"tile width {tile.width} does not match mode width {w}")
        words |= (tile.data.astype(np.int64) & mask) << (t * w)
    return PackedWeightTile(words.astype(np.uint8), mode)


def deinterleave(packed: PackedWeightTile) -> list[WeightTile]:
    """Decode the nw active bit fields back into signed weight tiles."""
    w = packed.mode.weight_bits
    return [WeightTile(field, w) for field in bit_fields(packed.words, w, packed.mode.nw)]


def prepare_weights(
    matrices: Sequence[np.ndarray], mode: PrecisionMode, n: int
) -> list[list[PackedWeightTile]]:
    """Permute then interleave every n x n tile of nw K x P matrices.

    Matrices are zero-padded up to multiples of n; the result is a
    ceil(K/n) x ceil(P/n) grid of packed tiles ready for vertical loading.
    """
    if n < 1:
        raise ValueError(f"tile size must be >= 1, got {n}")
    if len(matrices) != mode.nw:
        raise ValueError(f"mode expects {mode.nw} matrices, got {len(matrices)}")
    mats = [np.asarray(m, dtype=np.int32) for m in matrices]
    shape = mats[0].shape
    if len(shape) != 2:
        raise ValueError(f"weight matrices must be 2-D, got shape {shape}")
    if any(m.shape != shape for m in mats):
        raise ValueError("all weight matrices must share one K x P shape")
    lo, hi = signed_range(mode.weight_bits)
    for m in mats:
        if m.size and (m.min() < lo or m.max() > hi):
            raise ValueError(
                f"weight outside signed {mode.weight_bits}-bit range [{lo}, {hi}]"
            )
    k_dim, p_dim = shape
    tk = -(-k_dim // n) if k_dim else 1
    tp = -(-p_dim // n) if p_dim else 1
    padded = [np.zeros((tk * n, tp * n), dtype=np.int32) for _ in mats]
    for dst, src in zip(padded, mats):
        dst[:k_dim, :p_dim] = src
    grid: list[list[PackedWeightTile]] = []
    for k in range(tk):
        row = []
        for j in range(tp):
            tiles = [
                permute(WeightTile(m[k * n : (k + 1) * n, j * n : (j + 1) * n], mode.weight_bits))
                for m in padded
            ]
            row.append(interleave(tiles, mode))
        grid.append(row)
    return grid


def write_packed(grid: Sequence[Sequence[PackedWeightTile]], fh: BinaryIO) -> None:
    """Dump a packed-tile grid: 16-byte header, then row-major tile bytes."""
    rows = len(grid)
    cols = len(grid[0])
    mode = grid[0][0].mode
    n = grid[0][0].n
    fh.write(_HEADER.pack(PACKED_MAGIC, n, mode.weight_bits, mode.nw, rows, cols))
    for row in grid:
        if len(row) != cols:
            raise ValueError("ragged tile grid")
        for tile in row:
            if tile.n != n or tile.mode != mode:
                raise ValueError("inconsistent tile in grid")
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
