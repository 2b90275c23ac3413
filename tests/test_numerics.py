import warnings

import numpy as np
import pytest
from reference import mul2, recompose, split_subwords

from adipsim.array import ArraySim
from adipsim.cost import CostParams
from adipsim.numerics import (
    ceil_div,
    check_signed,
    check_size,
    signed_range,
    to_int8,
)
from adipsim.preprocess import PackedGrid, Precision, prepare_weights
from adipsim.tiling import MatMulJob, TiledPlan


@pytest.mark.parametrize(
    "x, width, expected",
    [
        (7, 8, [3, 1, 0, 0]),
        (-128, 8, [0, 0, 0, -2]),
        (-2, 2, [-2]),
        (127, 8, [3, 3, 3, 1]),
        (-1, 8, [3, 3, 3, -1]),
        (0, 4, [0, 0]),
        (-8, 4, [0, -2]),
    ],
)
def test_split_examples(x, width, expected):
    assert split_subwords(x, width) == expected


@pytest.mark.parametrize(
    "subwords, width, expected",
    [
        ([3, 1, 0, 0], 8, 7),
        ([0, 0, 0, -2], 8, -128),
        ([2, -1], 4, -2),
    ],
)
def test_recompose_examples(subwords, width, expected):
    assert recompose(subwords, width) == expected


@pytest.mark.parametrize("width", [2, 4, 8])
def test_round_trip_exhaustive(width):
    lo, hi = signed_range(width)
    for x in range(lo, hi + 1):
        digits = split_subwords(x, width)
        assert len(digits) == width // 2
        for d in digits[:-1]:
            assert 0 <= d <= 3
        assert -2 <= digits[-1] <= 1
        assert recompose(digits, width) == x


@pytest.mark.parametrize("width", [0, 1, 3, 6, 16])
def test_invalid_width_rejected(width):
    with pytest.raises(ValueError):
        split_subwords(0, width)
    with pytest.raises(ValueError):
        recompose([0] * max(width // 2, 1), width)


def test_split_range_checked():
    with pytest.raises(ValueError):
        split_subwords(128, 8)
    with pytest.raises(ValueError):
        split_subwords(-129, 8)
    with pytest.raises(ValueError):
        split_subwords(2, 2)


def test_recompose_rejects_bad_subwords():
    with pytest.raises(ValueError):
        recompose([4, 0, 0, 0], 8)  # lower digit above 3
    with pytest.raises(ValueError):
        recompose([-1, 0, 0, 0], 8)  # lower digit negative
    with pytest.raises(ValueError):
        recompose([0, 0, 0, 2], 8)  # top digit above 1
    with pytest.raises(ValueError):
        recompose([0, 0, 0], 8)  # wrong length


@pytest.mark.parametrize("a, b, expected", [(3, 3, 9), (-2, 1, -2), (-2, -2, 4), (0, 3, 0)])
def test_mul2_examples(a, b, expected):
    assert mul2(a, b) == expected


def test_mul2_range_checked():
    with pytest.raises(ValueError):
        mul2(4, 0)
    with pytest.raises(ValueError):
        mul2(0, -3)


def test_product_identity_random_sample():
    """Shift-add of digit products equals the plain product (random slice;
    the exhaustive 65,536-pair sweep runs in the acceptance suite)."""
    rng = np.random.default_rng(7)
    for _ in range(500):
        a, b = (int(v) for v in rng.integers(-128, 128, 2))
        a_digits = split_subwords(a, 8)
        b_digits = split_subwords(b, 8)
        total = sum(
            mul2(da, db) << (2 * (i + j))
            for i, da in enumerate(a_digits)
            for j, db in enumerate(b_digits)
        )
        assert total == a * b


def test_check_signed_takes_scalars_and_arrays():
    block = np.array([[-8, 7], [0, 3]])
    assert check_signed(-8, 4) == -8
    assert check_signed(block, 4) is block
    assert check_signed(np.zeros((0, 3), dtype=np.int64), 2).size == 0
    for bad in (8, -9, np.array([0, 8]), np.array([[-9, 0]])):
        with pytest.raises(ValueError):
            check_signed(bad, 4)


def test_check_signed_reads_a_bounding_dtype_and_scans_the_rest():
    """An int8 array is in the 8-bit range by its dtype; against a narrower
    range, or in a wider dtype, its values are still checked."""
    assert check_signed(np.array([-128, 127], dtype=np.int8), 8).dtype == np.int8
    assert check_signed(np.array([0, 255], dtype=np.uint8), 9).size == 2
    for values, dtype, bits in (([8], np.int8, 4), ([200], np.int16, 8), ([128], np.uint8, 8)):
        with pytest.raises(ValueError):
            check_signed(np.array(values, dtype=dtype), bits)


@pytest.mark.parametrize(
    "values, dtype",
    [
        ([[1, -2]], np.int64),
        ([[1.0, -2.0]], np.float64),
        ([[True, False]], np.bool_),
        ([[1, -2]], np.int8),
        ([[1, -2.0]], object),
    ],
)
def test_to_int8_takes_integral_values_of_any_dtype(values, dtype):
    got = to_int8(np.array(values, dtype=dtype), 4)
    assert got.dtype == np.int8 and got.tolist() == np.array(values, dtype=np.int64).tolist()


def test_to_int8_returns_an_int8_array_as_is():
    values = np.array([[3, -4]], dtype=np.int8)
    assert to_int8(values, 8) is values


@pytest.mark.parametrize("bad", [[0.5], [np.nan], [-np.inf], [200], [-129]])
def test_to_int8_rejects_what_int8_cannot_hold(bad):
    with pytest.raises(ValueError, match="^x "):
        to_int8(np.array(bad), 8, "x")


@pytest.mark.parametrize(
    "bad, dtype",
    [
        (np.array([[1 + 5j, 2]]), "complex128"),
        (np.array([[1 + 0j]]), "complex128"),
        (np.array([["1e1", "2"]]), "<U3"),
        (np.array([[1, 1 + 1j]], dtype=object), "object"),
        (np.array([[1, "2"]], dtype=object), "object"),
        (np.array([[None]]), "object"),
    ],
)
def test_to_int8_rejects_what_is_not_a_real_number(bad, dtype):
    """Complex and string operands, and objects that are not real numbers,
    raise a ValueError naming the dtype instead of being cast: no
    imaginary part is dropped, no string parsed, and no ComplexWarning
    is raised in its place."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^x of dtype {dtype} "):
            to_int8(bad, 8, "x")


_SIZED = {
    "check_size": lambda n: check_size(n),
    "MatMulJob": lambda n: MatMulJob(np.zeros((1, 1)), [np.zeros((1, 1))], Precision.W8, n),
    "TiledPlan.from_shape": lambda n: TiledPlan.from_shape(1, 2, 3, 1, Precision.W8, n),
    "ArraySim": lambda n: ArraySim(n, Precision.W8),
    "PackedGrid": lambda n: PackedGrid(np.zeros((4, 4), dtype=np.uint8), Precision.W8, 1, n),
    "prepare_weights": lambda n: prepare_weights([np.zeros((1, 1))], Precision.W8, n),
    "CostParams": lambda n: CostParams(n=n),
}


@pytest.mark.parametrize("make", _SIZED.values(), ids=_SIZED.keys())
def test_sizes_are_positive_integers(make):
    """Every array or tile size takes a Python or numpy integer of at
    least 1 and rejects bool, float and str with ValueError."""
    for n in (4, np.int64(4), np.uint8(4)):
        make(n)
    for n in (0, -1, True, np.True_, 4.0, np.float64(4), 2.5, "4", None):
        with pytest.raises(ValueError, match="size must be"):
            make(n)


def test_ceil_div_counts_covering_tiles():
    assert [ceil_div(k, 4) for k in (0, 1, 4, 5, 8, 9)] == [0, 1, 1, 2, 2, 3]
