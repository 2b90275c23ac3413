import numpy as np
import pytest
from reference import PE, combine_groups, group_multiply

from adipsim.array import PhaseError, PsumOverflowError, weight_slots
from adipsim.preprocess import Precision


@pytest.mark.parametrize(
    "precision, word, expected",
    [
        (Precision.W8, 0x80, (0, 0, 0, -2)),  # only the top field is signed
        (Precision.W8, 0xFF, (3, 3, 3, -1)),
        (Precision.W4, 0xEE, (2, -1, 2, -1)),  # fields 1 and 3 signed
        (Precision.W2, 0xE4, (0, 1, -2, -1)),  # every field signed
    ],
)
def test_weight_slot_signedness(precision, word, expected):
    assert weight_slots(word, precision) == expected


def test_weight_slots_range_checked():
    with pytest.raises(ValueError):
        weight_slots(256, Precision.W8)
    with pytest.raises(ValueError):
        weight_slots(-1, Precision.W2)
    for word in (3.5, True):  # neither is a weight word; True is not word 1
        with pytest.raises(ValueError, match="weight word must be an integer"):
            weight_slots(word, Precision.W8)
    with pytest.raises(ValueError, match="precision must be a Precision"):
        weight_slots(3, "w8")


def test_group_multiply_w8_example():
    groups = group_multiply(5, 7, Precision.W8)
    assert groups == (15, 5, 0, 0)
    assert combine_groups(groups, Precision.W8) == (35,)


def test_group_multiply_w2_example():
    word = 0b10  # first 2-bit weight is -2, the rest zero
    groups = group_multiply(-3, word, Precision.W2)
    assert groups[0] == 6
    assert groups[1:] == (0, 0, 0)


@pytest.mark.parametrize("precision", list(Precision))
def test_group_multiply_zero_input(precision):
    assert group_multiply(0, 0xA7, precision) == (0, 0, 0, 0)


@pytest.mark.parametrize("precision", list(Precision))
def test_groups_recombine_to_products(precision):
    """Group g is the exact input x field_g product; recombined per mode they
    equal the decoded per-matrix products. Exhaustive sweep in acceptance."""
    rng = np.random.default_rng(13)
    for _ in range(300):
        value = int(rng.integers(-128, 128))
        word = int(rng.integers(0, 256))
        groups = group_multiply(value, word, precision)
        slots = weight_slots(word, precision)
        assert groups == tuple(value * s for s in slots)
        products = combine_groups(groups, precision)
        if precision is Precision.W8:
            w = word - 256 if word >= 128 else word
            assert products == (value * w,)
        elif precision is Precision.W4:
            lo, hi = word & 0xF, word >> 4
            decoded = tuple(f - 16 if f >= 8 else f for f in (lo, hi))
            assert products == tuple(value * w for w in decoded)
        else:
            assert products == tuple(value * s for s in slots)


def test_step_single_and_chained():
    pe = PE(Precision.W8)
    pe.load_weight(1)
    _, psums = pe.step(1)
    assert psums == (1, 0, 0, 0)
    # chaining accumulates like a two-term dot product
    pe2 = PE(Precision.W8)
    pe2.load_weight(3)
    _, first = pe2.step(10)
    _, second = pe2.step(-7, first)
    assert second[0] == 10 * 3 + (-7) * 3


def test_step_w4_bus_values():
    pe = PE(Precision.W4)
    pe.load_weight(0xE3)  # fields: +3 and -2
    _, psums = pe.step(10)
    assert psums == (30, 0, 20, -10)
    assert combine_groups(psums, Precision.W4) == (30, -20)


def test_step_linear_in_incoming_psums():
    rng = np.random.default_rng(4)
    for _ in range(100):
        word = int(rng.integers(0, 256))
        value = int(rng.integers(-128, 128))
        p = tuple(int(v) for v in rng.integers(-1000, 1000, 4))
        q = tuple(int(v) for v in rng.integers(-1000, 1000, 4))
        pe = PE(Precision.W2)
        pe.load_weight(word)
        _, out_p = pe.step(value, p)
        pe_sum = PE(Precision.W2)
        pe_sum.load_weight(word)
        _, out_pq = pe_sum.step(value, tuple(a + b for a, b in zip(p, q)))
        assert out_pq == tuple(a + b for a, b in zip(out_p, q))


def test_input_passes_through_with_one_cycle_delay():
    pe = PE(Precision.W8)
    pe.load_weight(0)
    stream = [5, -3, 17, 0, -128]
    seen = [pe.step(v)[0] for v in stream]
    assert seen == [0] + stream[:-1]


def test_load_weight_phase_contract():
    pe = PE(Precision.W8)
    pe.load_weight(0x11)
    pe.step(1)
    with pytest.raises(PhaseError):
        pe.load_weight(0x22)
    pe.end_compute()
    pe.load_weight(0x22)  # reload replaces the word entirely and clears psums
    assert pe.weight_word == 0x22
    assert pe.psums == (0, 0, 0, 0)
    _, psums = pe.step(1)
    assert combine_groups(psums, Precision.W8) == (0x22,)


def test_zero_weight_means_zero_groups():
    pe = PE(Precision.W2)
    pe.load_weight(0)
    for value in (-128, -1, 0, 77, 127):
        _, psums = pe.step(value)
        assert psums == (0, 0, 0, 0)
        pe.end_compute()
        pe.load_weight(0)


def test_step_validates_input_range():
    pe = PE(Precision.W8)
    pe.load_weight(1)
    with pytest.raises(ValueError):
        pe.step(128)


def test_step_psum_limits_are_the_signed_32_bit_range():
    pe = PE(Precision.W8)
    pe.load_weight(1)
    assert pe.step(-1, (-(2**31) + 1, 0, 0, 0))[1][0] == -(2**31)
    with pytest.raises(PsumOverflowError):
        pe.step(1, (2**31 - 1, 0, 0, 0))
