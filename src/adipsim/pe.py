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
(`combine_groups`) yields the per-matrix products.
"""

from __future__ import annotations

import numpy as np

from .numerics import PSUM_BITS, bit_fields, check_signed, mul2, signed_range, split_subwords
from .preprocess import Precision

_SIGNED_FIELDS = {
    Precision.W8: (False, False, False, True),
    Precision.W4: (False, True, False, True),
    Precision.W2: (True, True, True, True),
}

_PSUM_MIN, _PSUM_MAX = signed_range(PSUM_BITS)


class PhaseError(RuntimeError):
    """Weight load attempted while the PE is mid-computation."""


class PsumOverflowError(OverflowError):
    """A psum bus or reducer register left the 32-bit accumulator range."""


def decode_slots(words, precision: Precision) -> np.ndarray:
    """Decode stationary words into their four 2-bit slots: shape (4, *words.shape)."""
    return bit_fields(words, 2, 4, _SIGNED_FIELDS[precision])


def weight_slots(word: int, precision: Precision) -> tuple[int, int, int, int]:
    """Decode the four 2-bit fields of a stationary word under a precision."""
    if not 0 <= word <= 0xFF:
        raise ValueError(f"weight word {word} outside [0, 255]")
    return tuple(decode_slots(word, precision).tolist())


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


class PE:
    """Registered state of a single grid cell.

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
        for p in psums_out:
            if not _PSUM_MIN <= p <= _PSUM_MAX:
                raise PsumOverflowError(f"psum {p} overflows 32-bit accumulator")
        input_out = self.input_reg
        self.input_reg = input_in
        self.psums = psums_out
        return input_out, psums_out
