"""Weight preprocessing for the diagonal-input array.

Two steps, in order:

1. rotate -- move every tile column j upward by j positions so the
   stationary weights line up with inputs that march diagonally (down one
   row, left one column, wrapping) through the array.
2. interleave -- pack up to r narrow weight matrices into one n x n grid of
   8-bit stationary words. The byte is cut into r little-endian fields of
   8/r bits; field t holds matrix t's weight, fields at or above the active
   matrix count stay zero.

Both steps are lossless for in-range weights.

`prepare_weights` interleaves whole matrices into a `PackedGrid`, whose
words stay in matrix order: the rotation is applied only where a tile's
position matters, as the array loads a grid (`PackedGrid.rotated_tiles`)
and in the packed file (`write_packed`, `read_packed`). One rule decodes
a word, `decode_field`, and `decode_slots` reads its 2-bit slots from a
table built by that rule. The per-tile reference of both steps is in
`tests/reference.py`.
"""

from __future__ import annotations

import functools
import struct
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum
from typing import BinaryIO

import numpy as np

from .numerics import ACT_BITS, SUBWORD_BITS, ceil_div, check_size, check_type, to_int8

PACKED_MAGIC = b"ADIP"
_HEADER = struct.Struct("<4sHBBHH4x")  # magic, n, weight_bits, nw, grid rows, grid cols
_HEADER_U16_MAX = (1 << 16) - 1  # largest n, grid rows or grid cols the header holds
_READ_CHUNK = 1 << 16  # bytes of the first payload read


class Precision(Enum):
    """Weight precision of the stationary operand; activations stay 8-bit."""

    W8 = 8
    W4 = 4
    W2 = 2

    def __init__(self, bits: int) -> None:
        # plain attributes: an Enum property reads the slower `value` descriptor
        self.weight_bits = bits
        self.r = 8 // bits  # interleave factor: how many weight fields fit one 8-bit word
        self.reducer_stages = {8: 2, 4: 1, 2: 0}[bits]  # shift-add register stages on the way out
        self.product_bound = 1 << (ACT_BITS + bits - 2)  # the largest |input x weight|, 2^7 * 2^(w-1)

    @classmethod
    def from_bits(cls, bits: int) -> "Precision":
        try:
            return cls(check_size(bits, "weight width"))  # 8.0 and True are not widths
        except ValueError:
            raise ValueError(f"unsupported weight width {bits!r}, expected 8, 4 or 2") from None

    @classmethod
    def from_name(cls, name: str) -> "Precision":
        key = check_type(name, str, "precision mode").strip().lower()
        if key not in ("w8", "w4", "w2"):
            raise ValueError(f"unknown precision mode {name!r}, expected w8/w4/w2")
        return cls(int(key[1]))


def check_mode(precision: Precision, nw) -> int:
    """nw as an int when `precision` is a `Precision` whose words hold nw
    matrices (1..r); ValueError otherwise."""
    check_type(precision, Precision, "precision")
    if not 1 <= check_size(nw, "nw", least=None) <= precision.r:
        raise ValueError(f"nw={nw} invalid for {precision.name} (1..{precision.r})")
    return int(nw)


def _rotated(tiles: np.ndarray, step: int = 1) -> np.ndarray:
    """A read-only view of a stack of n x n tiles, shape (..., n, n), with
    column j of each tile moved up by step * j rows, wrapping: view[..., k,
    j] = tiles[..., (k + step * j) mod n, j]. `step` 1 is the rotation the
    array loads, -1 undoes it.

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


def _pack_fields(fields: Sequence[np.ndarray], width: int, words: np.ndarray) -> np.ndarray:
    """OR same-shape signed `width`-bit integer fields, field t at index t,
    into the zeroed uint8 `words` of their shape and return it: field t
    fills bits [t * width, (t + 1) * width), two's complement. An int8
    field's bits are a view of it; wider ones are cut to int8 first."""
    mask = (1 << width) - 1
    for t, values in enumerate(fields):
        bits = values.astype(np.int8, copy=False).view(np.uint8)  # negatives modulo 256
        if width < 8:
            bits = bits & mask
            bits *= 1 << (t * width)  # the shift into place: numpy multiplies uint8 several times faster than it shifts
        words |= bits
    return words


def decode_field(words: np.ndarray, precision: Precision, t: int) -> np.ndarray:
    """Field t of the uint8 `words`, the signed weights of matrix t, as an
    int8 array of their shape. A uint8 multiply, which wraps, moves the
    field to the top of the byte; read as int8, an arithmetic right shift
    brings it back down with its sign. W8's one field is the word itself.
    `unprepare_weights` and the array's outputs read every field here."""
    bits = precision.weight_bits
    if bits == 8:
        return words.view(np.int8)
    top = words * np.uint8(1 << (8 - bits * (t + 1)))
    return top.view(np.int8) >> (8 - bits)


@functools.cache
def _slot_table(precision: Precision) -> np.ndarray:
    """The four 2-bit slots of every stationary word under `precision`, as a
    read-only (4, 256) int8 array: slot g of word w, which multiplier group
    g multiplies the input by, at [g, w]. It is radix-4 digit g mod (w/2)
    of signed field g div (w/2) (`decode_field`): an arithmetic shift
    brings the top digit down with the sign, the digits below are `& 3`."""
    words = np.arange(256, dtype=np.uint8)
    per = precision.weight_bits // SUBWORD_BITS  # slots per weight field
    table = np.empty((4, 256), dtype=np.int8)
    for g in range(4):
        t, digit = divmod(g, per)
        table[g] = decode_field(words, precision, t) >> (SUBWORD_BITS * digit)
        if digit < per - 1:
            table[g] &= 3
    table.flags.writeable = False
    return table


def decode_slots(words, precision: Precision) -> np.ndarray:
    """The four 2-bit slots of the stationary words `words` (integers in
    0..255, a scalar or an array of any shape) under `precision`: an int8
    array of shape (4, *words.shape), slot g at [g], looked up in
    `_slot_table`."""
    return _slot_table(precision)[:, words]


@dataclass(frozen=True, eq=False)
class PackedGrid:
    """The packed words of one fused group, validated when it is built: nw
    K x P weight matrices of `precision`, interleaved and zero-padded to a
    tk x tp grid of n x n tiles, as one (tk*n, tp*n) uint8 array in matrix
    order. Word (i, c) holds weight (i, c) of every matrix; no tile is
    rotated. A grid holds at least one tile, and nw is 1..r, so no reader
    of a grid checks it again.

    `len(grid)` is tk, and iterating a grid gives the rows of
    `rotated_tiles()`, each a (tp, n, n) array of tiles as the array loads
    them.
    """

    words: np.ndarray
    precision: Precision
    nw: int
    n: int
    tk: int = field(init=False)
    tp: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nw", check_mode(self.precision, self.nw))
        object.__setattr__(self, "n", check_size(self.n, "tile size"))
        words = self.words
        if not isinstance(words, np.ndarray) or words.dtype != np.uint8 or words.ndim != 2 or any(
            size % self.n for size in words.shape
        ):
            raise ValueError(f"packed grid words must be 2-D uint8 in whole {self.n}x{self.n} tiles")
        if not words.size:
            raise ValueError("empty tile grid")
        object.__setattr__(self, "tk", words.shape[0] // self.n)
        object.__setattr__(self, "tp", words.shape[1] // self.n)

    def __len__(self) -> int:
        return self.tk

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.rotated_tiles())

    def rotated_tiles(self) -> np.ndarray:
        """Every tile as the array loads it, at once: a read-only
        (tk, tp, n, n) view whose [k, j] is tile (k, j) with its column c
        moved up by c rows, wrapping."""
        n = self.n
        return _rotated(self.words.reshape(self.tk, n, self.tp, n).swapaxes(1, 2))


def prepare_weights(matrices: Sequence[np.ndarray], precision: Precision, n: int) -> PackedGrid:
    """The `PackedGrid` of the nw = len(matrices) K x P matrices, 1..r of
    them, for an n x n array. K = 0 or P = 0 fills no tile and raises
    ValueError. The matrices are range-checked and read as int8 (see
    `numerics.to_int8`): an int8 matrix is packed as it is, scanned only
    when the precision is narrower than 8 bits."""
    n = check_size(n, "tile size")
    check_mode(precision, len(matrices))  # before packing: field r would shift out of the uint8 word
    mats = [np.asarray(m) for m in matrices]
    shape = mats[0].shape
    if len(shape) != 2:
        raise ValueError(f"weight matrices must be 2-D, got shape {shape}")
    if any(m.shape != shape for m in mats):
        raise ValueError("all weight matrices must share one K x P shape")
    k_dim, p_dim = shape
    if not (k_dim and p_dim):
        raise ValueError(f"{k_dim}x{p_dim} matrices fill no tile")
    return _pack_grid([to_int8(m, precision.weight_bits, "weight") for m in mats], precision, n)


def _pack_grid(matrices: Sequence[np.ndarray], precision: Precision, n: int) -> PackedGrid:
    """The pack core of `prepare_weights`: the grid of 1..r int8 K x P
    matrices of one shape, K and P at least 1, packed as they are. Their
    shapes, count and values are not checked again; `PackedGrid` still
    checks the grid it builds."""
    k_dim, p_dim = matrices[0].shape
    words = np.zeros((ceil_div(k_dim, n) * n, ceil_div(p_dim, n) * n), dtype=np.uint8)
    _pack_fields(matrices, precision.weight_bits, words[:k_dim, :p_dim])
    return PackedGrid(words, precision, len(matrices), n)


def unprepare_weights(grid: PackedGrid) -> list[np.ndarray]:
    """Inverse of `prepare_weights`: the nw int64 weight matrices of a
    tk x tp packed grid, still zero-padded to tk*n x tp*n."""
    return [decode_field(grid.words, grid.precision, t).astype(np.int64) for t in range(grid.nw)]


def check_packable(grid: PackedGrid) -> None:
    """ValueError when the grid's tile size or a grid dimension does not
    fit its 16-bit header field; call it before creating the file that
    `write_packed` fills."""
    for name, value in (("tile size n", grid.n), ("grid rows", grid.tk), ("grid cols", grid.tp)):
        if value > _HEADER_U16_MAX:
            raise ValueError(f"{name} {value} exceeds the packed-file limit of {_HEADER_U16_MAX}")


def write_packed(grid: PackedGrid, fh: BinaryIO) -> None:
    """Dump a packed grid: 16-byte header, then the bytes of each tile as
    the array loads it, tiles in row-major order. Nothing is written when
    `check_packable` rejects the grid."""
    check_packable(grid)
    fh.write(_HEADER.pack(PACKED_MAGIC, grid.n, grid.precision.weight_bits, grid.nw, grid.tk, grid.tp))
    fh.write(grid.rotated_tiles().tobytes())


def _read_exactly(fh: BinaryIO, size: int) -> bytearray:
    """The next `size` bytes of `fh`, or ValueError when it ends first. Each
    read asks for at most as much as has already arrived (and 64 KiB at
    first), so a header that claims more than the file holds costs memory
    in proportion to the bytes that are there."""
    data = bytearray()
    while len(data) < size:
        chunk = fh.read(min(size - len(data), max(len(data), _READ_CHUNK)))
        if not chunk:
            raise ValueError("truncated packed-weight payload")
        data += chunk
    return data


def read_packed(fh: BinaryIO) -> PackedGrid:
    """Inverse of `write_packed`. The header fixes the payload's size, so a
    file that ends before it, or holds bytes after it, raises ValueError."""
    header = fh.read(_HEADER.size)
    if len(header) != _HEADER.size:
        raise ValueError("truncated packed-weight header")
    magic, n, weight_bits, nw, rows, cols = _HEADER.unpack(header)
    if magic != PACKED_MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    precision = Precision.from_bits(weight_bits)
    check_mode(precision, nw)  # from the header alone, before any payload is read
    payload = _read_exactly(fh, rows * cols * n * n)
    if fh.read(1):
        raise ValueError("packed-weight file has bytes after its payload")
    tiles = np.frombuffer(payload, dtype=np.uint8).reshape(rows, cols, n, n)
    return PackedGrid(_rotated(tiles, -1).swapaxes(1, 2).reshape(rows * n, cols * n), precision, nw, n)
