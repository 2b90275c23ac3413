"""Functional model of one adaptive-precision processing element.

The PE holds a stationary 8-bit weight word, an 8-bit input register and
four 32-bit psum registers. Sixteen 2-bit multipliers are arranged in four
groups: group g multiplies all four input subwords by weight bit field
[2g, 2g+2) and folds them with radix-4 shifts, so each group emits the
exact product of the full 8-bit input with one 2-bit weight field. Which
fields are sign-carrying depends on the precision:

    W8: one 8-bit weight,  only field 3 signed
    W4: two 4-bit weights, fields 1 and 3 signed
    W2: four 2-bit weights, every field signed

Group outputs ride four dedicated psum buses; recombining them per mode
(`combine_groups`) yields the per-matrix products. This module holds the
PE's arithmetic, one scalar at a time, and the errors the array raises;
`array` forms every PE's registers for whole blocks of clocks at once.
"""

from __future__ import annotations

import numpy as np

from .numerics import mul2, split_subwords
from .preprocess import Precision, decode_slots


class PhaseError(RuntimeError):
    """An operation out of phase, such as streaming before any weight load."""


class PsumOverflowError(OverflowError):
    """A psum bus or reducer register left the 32-bit accumulator range."""


# The four slots of each of the 256 stationary words, per precision, as
# Python ints: `weight_slots` runs once per scalar `group_multiply`.
_SLOT_TABLE = {
    precision: [tuple(slots) for slots in decode_slots(np.arange(256), precision).T.tolist()]
    for precision in Precision
}


def weight_slots(word: int, precision: Precision) -> tuple[int, int, int, int]:
    """Decode the four 2-bit fields of a stationary word under a precision."""
    if not 0 <= word <= 0xFF:
        raise ValueError(f"weight word {word} outside [0, 255]")
    return _SLOT_TABLE[precision][word]


def group_multiply(input_val: int, word: int, precision: Precision) -> tuple[int, int, int, int]:
    """Four group outputs: product of the 8-bit input with each weight field."""
    subwords = split_subwords(input_val, 8)
    slots = weight_slots(word, precision)
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
