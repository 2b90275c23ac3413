"""Two's-complement integer rules underneath the adaptive-precision PE.

Operands are k-bit signed integers (k in {2, 4, 8}, `VALID_WIDTHS`);
activations are `ACT_BITS` wide, multipliers `SUBWORD_BITS` wide and the
accumulator `PSUM_BITS`. This module holds the range checks, the size
and type checks every layer shares and the exact float32 block products
the array's outputs use (`exact_matmuls`). Packed words are decoded by
one rule, `preprocess.decode_field`, from which the 2-bit slot table is
built too; the largest |input x weight| of a precision is
`preprocess.Precision.product_bound`. The scalar radix-4 digit model of
a wide product, a * b as the shift-add of 2-bit digit products, lives in
`tests/reference.py`, which acceptance c02 checks exhaustively.
"""

from __future__ import annotations

import numbers
from typing import Callable, Optional

import numpy as np

SUBWORD_BITS = 2
ACT_BITS = 8  # every activation, streamed input or act-act operand, is 8-bit
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


def check_size(n, what: str = "array size", least: Optional[int] = 1) -> int:
    """`n`, a size or count (an array size by default), as a Python int;
    ValueError unless it is a Python or numpy integer of at least `least`,
    or of any value when `least` is None (bool, float and str are not
    sizes). A numpy unsigned size would wrap in `ceil_div`'s negation."""
    if type(n) is not int and (isinstance(n, bool) or not isinstance(n, np.integer)):  # a plain int skips both
        raise ValueError(f"{what} must be an integer, got {n!r}")
    if least is not None and n < least:
        raise ValueError(f"{what} must be >= {least}, got {n}")
    return int(n)


def check_type(value, kind: type, what: str):
    """`value` unchanged if it is a `kind`; ValueError otherwise, rather
    than an AttributeError wherever it is first read."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a {kind.__name__}, got {value!r}")
    return value


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
