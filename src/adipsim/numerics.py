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

from typing import Sequence

import numpy as np

SUBWORD_BITS = 2
VALID_WIDTHS = (2, 4, 8)

PSUM_BITS = 32


def signed_range(bits: int) -> tuple[int, int]:
    """Inclusive (min, max) of a two's-complement field of the given width."""
    return -(1 << (bits - 1)), (1 << (bits - 1)) - 1


def check_signed(value: int, bits: int, what: str = "value") -> int:
    lo, hi = signed_range(bits)
    if not lo <= value <= hi:
        raise ValueError(f"{what} {value} outside signed {bits}-bit range [{lo}, {hi}]")
    return value


def bit_fields(words, width: int, count: int, signed: bool | Sequence[bool] = True) -> np.ndarray:
    """Cut non-negative integers into `count` little-endian `width`-bit fields.

    Returns int64 with a new leading field axis: field t of every word
    sits at index t. `signed` is one flag for all fields or one per field;
    a signed field reads as two's complement, an unsigned one as is.
    """
    words = np.asarray(words, dtype=np.int64)
    axis = (-1,) + (1,) * words.ndim
    shifts = (np.arange(count) * width).reshape(axis)
    raw = (words[None] >> shifts) & ((1 << width) - 1)
    flags = np.broadcast_to(np.asarray(signed, dtype=bool), (count,)).reshape(axis)
    return np.where(flags & (raw >= 1 << (width - 1)), raw - (1 << width), raw)


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
    if not -2 <= subwords[-1] <= 1:
        raise ValueError(f"top subword {subwords[-1]} outside signed range [-2, 1]")
    return sum(digit << (SUBWORD_BITS * i) for i, digit in enumerate(subwords))


def mul2(a: int, b: int) -> int:
    """Product of two 2-bit digits (signed [-2, 1] or unsigned [0, 3])."""
    if not -2 <= a <= 3:
        raise ValueError(f"2-bit operand {a} outside [-2, 3]")
    if not -2 <= b <= 3:
        raise ValueError(f"2-bit operand {b} outside [-2, 3]")
    return a * b
