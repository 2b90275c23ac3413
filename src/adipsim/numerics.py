"""Two's-complement subword arithmetic underneath the adaptive-precision PE.

A k-bit signed operand (k in {2, 4, 8}) splits into k/2 radix-4 digits,
little-endian: every digit is an unsigned 2-bit field except the top one,
which keeps the sign. A wide product is then the shift-add of the 2-bit
digit products,

    a * b == sum_{i,j} mul2(a_i, b_j) * 4**(i + j)

which is exactly how the hardware composes an 8b x 8b multiply out of
sixteen 2-bit multipliers.
"""

from __future__ import annotations

import numbers
from typing import Callable, Sequence

import numpy as np

SUBWORD_BITS = 2
VALID_WIDTHS = (2, 4, 8)

PSUM_BITS = 32


def signed_range(bits: int) -> tuple[int, int]:
    """Inclusive (min, max) of a two's-complement field of the given width."""
    return -(1 << (bits - 1)), (1 << (bits - 1)) - 1


def check_signed(values, bits: int, what: str = "value"):
    """Return `values` (a scalar or an array) unchanged if every element fits
    a two's-complement field of `bits` bits; raise ValueError otherwise. An
    array whose integer dtype already bounds it, such as int8 against 8
    bits, is not scanned."""
    lo, hi = signed_range(bits)
    if isinstance(values, np.ndarray):
        kind, width = values.dtype.kind, 8 * values.dtype.itemsize
        if (kind == "i" and width <= bits) or (kind == "u" and width < bits):  # the dtype bounds every element
            return values
        if values.size and (values.min() < lo or values.max() > hi):
            raise ValueError(f"{what} outside signed {bits}-bit range [{lo}, {hi}]")
    elif not lo <= values <= hi:
        raise ValueError(f"{what} {values} outside signed {bits}-bit range [{lo}, {hi}]")
    return values


def _integers(values, what: str) -> np.ndarray:
    """`values` as an array of bool, integer, float or real Python numbers
    (an object array); any other dtype, such as complex or str, and a
    non-integral or non-finite element raise ValueError rather than being
    cast or truncated (integer and bool arrays skip the element test)."""
    array = np.asarray(values)
    kind = array.dtype.kind
    if kind in "biu":
        return array
    if kind not in "fO" or (kind == "O" and not all(isinstance(x, numbers.Real) for x in array.flat)):
        raise ValueError(f"{what} of dtype {array.dtype} is not a real number")
    array = np.asarray(array, dtype=np.float64)
    if not (np.isfinite(array).all() and (array == np.trunc(array)).all()):
        raise ValueError(f"{what} not a finite integer")
    return array


def to_int8(values, bits: int, what: str = "value") -> np.ndarray:
    """`values`, an array-like of signed `bits`-bit integers (bits <= 8), as
    an int8 array, after one range check; an int8 array comes back as is."""
    return check_signed(_integers(values, what), bits, what).astype(np.int8, copy=False)


def check_size(n, what: str = "array size") -> int:
    """`n`, an array or tile size, as a Python int; ValueError unless it is
    a Python or numpy integer of at least 1 (bool, float and str are not
    sizes). A numpy unsigned size would wrap in `ceil_div`'s negation."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"{what} must be >= 1, got {n}")
    return int(n)


def ceil_div(a: int, b: int) -> int:
    """Tiles of size b needed to cover a elements."""
    return -(-a // b)


def exact_matmuls(
    a: np.ndarray, weight_rows: Callable[[int, slice], np.ndarray], count: int, columns: int, product_bound: int
) -> np.ndarray:
    """The `count` products a @ w_t of the integer M x K matrix `a` with
    integer K x `columns` matrices w_t, as one (count, M, columns) int64
    block; `weight_rows(t, rows)` gives the rows `rows` of w_t as float32.

    Every product a[i, k] * w_t[k, j] is at most `product_bound`, itself at
    most 2^24, in magnitude. Each chunk of 2^24 // product_bound rows of K
    is one float32 matmul per matrix, whose partial sums stay within 2^24
    and so are exact integers; the chunks are summed in int64, exact while
    the outputs stay below 2^63. A K of 0 gives zeros.
    """
    m_dim, k_dim = a.shape
    out = (np.empty if k_dim else np.zeros)((count, m_dim, columns), dtype=np.int64)
    chunk = (1 << 24) // max(product_bound, 1)
    for lo in range(0, k_dim, chunk):
        rows = slice(lo, lo + chunk)
        part_a = a[:, rows].astype(np.float32)  # shared by the chunk's matmuls
        for t in range(count):
            part = part_a @ weight_rows(t, rows)
            if lo:
                np.add(out[t], part, out=out[t], dtype=np.int64, casting="unsafe")
            else:
                out[t] = part
            del part  # so that the next product is not formed beside it
        del part_a  # and the next chunk's input likewise
    return out


def bit_fields(words, width: int, count: int, signed: bool | Sequence[bool] = True) -> np.ndarray:
    """Cut non-negative integers into `count` little-endian `width`-bit fields.

    Returns a new leading field axis: field t of every word sits at index
    t. `signed` is one flag for all fields or one per field; a signed field
    reads as two's complement, an unsigned one as is. uint8 words are cut
    in uint8 and come back as int8, or as int16 for 8-bit fields so that
    `np.abs` of -128 still fits; any other input is cut in int64 and comes
    back as int64.
    """
    words = np.asarray(words)
    if words.dtype == np.uint8:
        out_dtype = np.int16 if width == 8 else np.int8
    else:
        words = words.astype(np.int64, copy=False)
        out_dtype = np.int64
    shifts = np.arange(0, count * width, width, dtype=words.dtype).reshape((-1,) + (1,) * words.ndim)
    fields = ((words[None] >> shifts) & words.dtype.type((1 << width) - 1)).astype(out_dtype)
    half = 1 << (width - 1)
    for t, flag in enumerate((signed,) * count if np.isscalar(signed) else signed):
        if flag:
            field = fields[t, ...]  # a view, also of a scalar word's field
            field ^= half  # two's complement: (v ^ half) - half
            field -= half
    return fields


def split_subwords(x: int, width: int) -> list[int]:
    """Split a signed `width`-bit integer into width/2 radix-4 digits.

    Digits come out little-endian; all are unsigned in [0, 3] except the
    last, which is signed in [-2, 1]. `recompose` is the exact inverse.
    """
    if width not in VALID_WIDTHS:
        raise ValueError(f"invalid operand width {width}, expected one of {VALID_WIDTHS}")
    check_signed(x, width)
    bits = x & ((1 << width) - 1)
    digits = [(bits >> (SUBWORD_BITS * i)) & 0b11 for i in range(width // SUBWORD_BITS)]
    if digits[-1] >= 2:  # top digit carries the sign
        digits[-1] -= 4
    return digits


def recompose(subwords: Sequence[int], width: int) -> int:
    """Inverse of `split_subwords`: fold radix-4 digits back into one integer."""
    if width not in VALID_WIDTHS:
        raise ValueError(f"invalid operand width {width}, expected one of {VALID_WIDTHS}")
    if len(subwords) != width // SUBWORD_BITS:
        raise ValueError(f"expected {width // SUBWORD_BITS} subwords, got {len(subwords)}")
    for digit in subwords[:-1]:
        if not 0 <= digit <= 3:
            raise ValueError(f"lower subword {digit} outside unsigned range [0, 3]")
    check_signed(subwords[-1], SUBWORD_BITS, "top subword")
    return sum(digit << (SUBWORD_BITS * i) for i, digit in enumerate(subwords))


def mul2(a: int, b: int) -> int:
    """Product of two 2-bit digits (signed [-2, 1] or unsigned [0, 3])."""
    if not -2 <= a <= 3:
        raise ValueError(f"2-bit operand {a} outside [-2, 3]")
    if not -2 <= b <= 3:
        raise ValueError(f"2-bit operand {b} outside [-2, 3]")
    return a * b
