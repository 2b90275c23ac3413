import functools
import hashlib
import io
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import deinterleave, interleave, inverse_permute, permute

from adipsim import preprocess
from adipsim.array import ArraySim
from adipsim.numerics import bit_fields
from adipsim.preprocess import (
    PackedGrid,
    Precision,
    decode_field,
    decode_slots,
    prepare_weights,
    read_packed,
    unprepare_weights,
    write_packed,
)
from adipsim.tiling import MatMulJob, TiledPlan, plan

MODE_CONFIGS = [
    (Precision.W8, 1),
    (Precision.W4, 1),
    (Precision.W4, 2),
    (Precision.W2, 1),
    (Precision.W2, 2),
    (Precision.W2, 3),
    (Precision.W2, 4),
]


def _random_tile(rng, n, width):
    lo = -(1 << (width - 1))
    hi = (1 << (width - 1)) - 1
    return rng.integers(lo, hi + 1, size=(n, n))


# -- precision modes ----------------------------------------------------------


@pytest.mark.parametrize(
    "precision, r, bits, stages",
    [(Precision.W8, 1, 8, 2), (Precision.W4, 2, 4, 1), (Precision.W2, 4, 2, 0)],
)
def test_precision_properties(precision, r, bits, stages):
    assert precision.r == r
    assert precision.weight_bits == bits
    assert precision.reducer_stages == stages


@pytest.mark.parametrize("precision, nw", [(Precision.W8, 2), (Precision.W4, 3), (Precision.W2, 5)])
def test_mode_rejects_nw_above_r(precision, nw):
    """r + 1 matrices do not fit one word: neither a grid nor packing takes
    them, and packing raises ValueError before any field is shifted."""
    with pytest.raises(ValueError, match=f"nw={nw} invalid for {precision.name}"):
        PackedGrid(np.zeros((1, 1), dtype=np.uint8), precision, nw, 1)
    with pytest.raises(ValueError, match=f"nw={nw} invalid for {precision.name}"):
        prepare_weights([np.zeros((1, 1), dtype=np.int64)] * nw, precision, 1)


@pytest.mark.parametrize("precision", list(Precision), ids=lambda p: p.name)
def test_mode_rejects_no_matrices(precision):
    with pytest.raises(ValueError, match=f"nw=0 invalid for {precision.name}"):
        PackedGrid(np.zeros((1, 1), dtype=np.uint8), precision, 0, 1)
    with pytest.raises(ValueError, match=f"nw=0 invalid for {precision.name}"):
        prepare_weights([], precision, 1)


@pytest.mark.parametrize("nw", [2.0, True], ids=repr)
def test_mode_rejects_a_count_that_is_not_an_integer(nw):
    """A float or bool nw is not a matrix count, even one equal to an
    integer, so no grid is built with it."""
    with pytest.raises(ValueError, match=f"nw must be an integer, got {nw!r}"):
        PackedGrid(np.zeros((1, 1), dtype=np.uint8), Precision.W2, nw, 1)


def test_precision_from_name():
    assert Precision.from_name("W4") is Precision.W4
    with pytest.raises(ValueError):
        Precision.from_name("w16")
    with pytest.raises(ValueError, match="precision mode must be a str, got 5"):
        Precision.from_name(5)


@pytest.mark.parametrize("bits", [6, 8.0, True, None], ids=repr)
def test_precision_from_bits_takes_integer_widths_only(bits):
    with pytest.raises(ValueError, match=f"unsupported weight width {bits!r}"):
        Precision.from_bits(bits)


@pytest.mark.parametrize("value", [8, "w8", None], ids=repr)
@pytest.mark.parametrize(
    "build",
    [
        lambda precision: PackedGrid(np.zeros((4, 4), dtype=np.uint8), precision, 1, 4),
        lambda precision: prepare_weights([np.zeros((4, 4))], precision, 4),
        lambda precision: ArraySim(4, precision),
        lambda precision: TiledPlan.from_shape(4, 4, 4, 1, precision, 4),
        lambda precision: MatMulJob(np.zeros((4, 4)), [np.zeros((4, 4))], precision, 4),
    ],
    ids=["PackedGrid", "prepare_weights", "ArraySim", "TiledPlan.from_shape", "MatMulJob"],
)
def test_a_precision_that_is_not_a_precision_raises_value_error(build, value):
    """Every entry point that takes a precision rejects anything else with
    the same ValueError, not an AttributeError on its first use."""
    with pytest.raises(ValueError, match=f"^precision must be a Precision, got {value!r}$"):
        build(value)


# -- permutation --------------------------------------------------------------


def test_permute_column_rotation():
    """A prepared tile, as the array loads it, has column j moved up by j."""
    n = 4
    w = np.fromfunction(lambda k, j: 10 * k + j, (n, n), dtype=int)
    out = prepare_weights([w], Precision.W8, n).rotated_tiles()[0, 0]
    assert out[0].tolist() == [0, 11, 22, 33]
    k, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    assert np.array_equal(out, w[(k + j) % n, j])
    assert np.array_equal(permute(w), w[(k + j) % n, j])


def test_permute_identity_cases():
    for w in (np.array([[5]]), np.full((6, 6), -3)):
        tile = prepare_weights([w], Precision.W8, len(w)).rotated_tiles()[0, 0]
        assert np.array_equal(tile.view(np.int8), w)


def test_permute_is_bijection():
    rng = np.random.default_rng(3)
    tile = _random_tile(rng, 8, 8)
    grid = prepare_weights([tile], Precision.W8, 8)
    out = grid.rotated_tiles()[0, 0]
    assert sorted(out.ravel()) == sorted(grid.words.ravel())
    assert np.array_equal(inverse_permute(out), grid.words)
    assert np.array_equal(inverse_permute(permute(tile)), tile)


@pytest.mark.parametrize(
    "values, width, message",
    [
        ([[1.5, 0], [0, 0]], 8, "weight not a finite integer"),
        ([[np.nan, 0], [0, 0]], 8, "weight not a finite integer"),
        ([[128, 0], [0, 0]], 8, "weight outside signed 8-bit range"),
        ([[0, 0], [0, -3]], 2, "weight outside signed 2-bit range"),
        ([[8.0, 0], [0, 0]], 4, "weight outside signed 4-bit range"),
    ],
)
def test_weight_tile_rejects_what_its_width_cannot_hold(values, width, message):
    with pytest.raises(ValueError, match=message):
        prepare_weights([np.array(values)], Precision.from_bits(width), 2)


def test_tiles_keep_integral_values_of_any_dtype():
    grid = prepare_weights([np.array([[1.0, -8.0], [7.0, 0.0]])], Precision.W4, 2)
    assert unprepare_weights(grid)[0].tolist() == [[1, -8], [7, 0]]


# -- interleaving -------------------------------------------------------------


def test_interleave_w4_byte_layout():
    grid = prepare_weights([np.array([[3]]), np.array([[-2]])], Precision.W4, 1)
    assert grid.words[0, 0] == 0xE3
    assert [m[0, 0] for m in unprepare_weights(grid)] == [3, -2]


def test_interleave_w8_is_twos_complement_passthrough():
    rng = np.random.default_rng(11)
    tile = _random_tile(rng, 4, 8)
    grid = prepare_weights([tile], Precision.W8, 4)
    assert np.array_equal(grid.words, tile.astype(np.uint8))


def test_interleave_w2_three_matrices_top_slot_zero():
    grid = prepare_weights([np.array([[v]]) for v in (1, -1, 0)], Precision.W2, 1)
    word = int(grid.words[0, 0])
    assert word & 0b11 == 0b01
    assert (word >> 2) & 0b11 == 0b11
    assert (word >> 4) & 0b11 == 0b00
    assert (word >> 6) & 0b11 == 0b00  # unused fourth field stays zero
    full = unprepare_weights(PackedGrid(grid.words, Precision.W2, 4, 1))
    assert full[3][0, 0] == 0


def test_interleave_validation():
    with pytest.raises(ValueError):
        prepare_weights([np.zeros((2, 2), dtype=int), np.zeros((3, 3), dtype=int)], Precision.W4, 2)
    with pytest.raises(ValueError):
        prepare_weights([np.full((2, 2), 8)], Precision.W4, 2)  # an 8-bit weight


@pytest.mark.parametrize("mode", MODE_CONFIGS)
def test_deinterleave_round_trip(mode):
    """The words of a prepared tile are the reference's interleave of its
    weights, and both decoders give the weights back."""
    precision, nw = mode
    rng = np.random.default_rng(nw * 10 + precision.weight_bits)
    for _ in range(20):
        tiles = [_random_tile(rng, 5, precision.weight_bits) for _ in range(nw)]
        grid = prepare_weights(tiles, precision, 5)
        assert np.array_equal(grid.words, interleave(tiles, precision.weight_bits))
        for back in (unprepare_weights(grid), deinterleave(grid.words, precision.weight_bits, nw)):
            for original, recovered in zip(tiles, back):
                assert np.array_equal(original, recovered)


def test_zero_tile_round_trip():
    grid = prepare_weights([np.zeros((4, 4), dtype=int)], Precision.W2, 4)
    assert not grid.words.any()
    # inactive fields of a single-matrix pack decode to zero
    full = unprepare_weights(PackedGrid(grid.words, Precision.W2, 4, 4))
    for tile in full[1:]:
        assert not tile.any()


# -- word decode -------------------------------------------------------------


@pytest.mark.parametrize("precision", list(Precision))
def test_slot_table_and_fields_are_the_bit_field_rule_for_every_word(precision):
    """For all 256 words, the read-only slot table is `bit_fields` of four
    2-bit slots signed as `_SIGNED_SLOTS` says, and `decode_field` gives
    the r signed weight fields of `bit_fields` as int8, each the radix-4
    sum of its slots."""
    words = np.arange(256, dtype=np.uint8)
    slots = preprocess._slot_table(precision)
    assert (slots.dtype, slots.shape) == (np.int8, (4, 256))
    assert np.array_equal(slots, bit_fields(words, 2, 4, preprocess._SIGNED_SLOTS[precision]))
    with pytest.raises(ValueError, match="read-only"):
        slots[0, 0] = 1
    fields = np.array([decode_field(words, precision, t) for t in range(precision.r)])
    assert fields.dtype == np.int8
    assert np.array_equal(fields, bit_fields(words, precision.weight_bits, precision.r))
    per = 4 // precision.r  # slots per field
    radix = 4 ** np.arange(per)[:, None]
    assert np.array_equal(fields, (slots.astype(np.int64).reshape(precision.r, per, 256) * radix).sum(axis=1))


@pytest.mark.parametrize("precision", list(Precision))
def test_decode_slots_keeps_the_words_shape_in_int8(precision):
    """`decode_slots` of words of any shape, a scalar and a strided view
    included, is int8 of shape (4, *words.shape) and equals `bit_fields`."""
    rng = np.random.default_rng(precision.weight_bits)
    signed = preprocess._SIGNED_SLOTS[precision]
    grid = prepare_weights([rng.integers(-2, 2, size=(8, 12))], precision, 4)
    for words in (np.uint8(200), rng.integers(0, 256, size=(3, 5), dtype=np.uint8), grid.rotated_tiles()):
        got = decode_slots(words, precision)
        assert got.dtype == np.int8 and got.shape == (4,) + np.shape(words)
        assert np.array_equal(got, bit_fields(words, 2, 4, signed))
    assert decode_slots(255, precision).tolist() == bit_fields(np.uint8(255), 2, 4, signed).tolist()


# -- whole-matrix preparation ---------------------------------------------------


def test_prepare_single_w8_tile_is_permuted_input():
    rng = np.random.default_rng(21)
    w = rng.integers(-128, 128, size=(4, 4))
    grid = prepare_weights([w], Precision.W8, 4)
    assert (grid.tk, grid.tp) == (1, 1)
    assert np.array_equal(grid.rotated_tiles()[0, 0], permute(w).astype(np.uint8))


def test_prepare_pads_with_zero_rows():
    rng = np.random.default_rng(22)
    w = rng.integers(-128, 128, size=(5, 4))
    grid = prepare_weights([w], Precision.W8, 4)
    assert (grid.tk, grid.tp) == (2, 1)
    recovered = inverse_permute(deinterleave(grid.rotated_tiles()[1, 0], 8, 1)[0])
    assert np.array_equal(recovered[0], w[4])
    assert not recovered[1:].any()


@pytest.mark.parametrize("mode", MODE_CONFIGS)
def test_prepare_round_trip_recovers_matrices(mode):
    precision, nw = mode
    rng = np.random.default_rng(nw + precision.weight_bits)
    n = 4
    lo = -(1 << (precision.weight_bits - 1))
    hi = (1 << (precision.weight_bits - 1)) - 1
    for _ in range(10):
        k_dim, p_dim = (int(v) for v in rng.integers(1, 3 * n, 2))
        mats = [rng.integers(lo, hi + 1, size=(k_dim, p_dim)) for _ in range(nw)]
        grid = prepare_weights(mats, precision, n)
        assert (grid.tk, grid.tp) == (-(-k_dim // n), -(-p_dim // n))
        for t, matrix in enumerate(mats):
            recovered = np.zeros((grid.tk * n, grid.tp * n), dtype=np.int64)
            for k, row in enumerate(grid):
                for j, tile in enumerate(row):
                    unpacked = inverse_permute(deinterleave(tile, precision.weight_bits, nw)[t])
                    recovered[k * n : (k + 1) * n, j * n : (j + 1) * n] = unpacked
            assert np.array_equal(recovered[:k_dim, :p_dim], matrix)
            assert not recovered[k_dim:, :].any()
            assert not recovered[:, p_dim:].any()


@pytest.mark.parametrize("k_dim, p_dim", [(0, 4), (4, 0), (0, 0), (5, 9)])
def test_prepare_grid_matches_plan(k_dim, p_dim):
    """A grid has the tk x tp tiles that `plan` counts; empty weights fill
    none, so `prepare_weights` rejects them and the plan takes no pass."""
    job = MatMulJob(np.zeros((4, k_dim)), [np.zeros((k_dim, p_dim))], Precision.W8, 4)
    the_plan = plan(job)
    if not (k_dim and p_dim):
        with pytest.raises(ValueError, match=f"^{k_dim}x{p_dim} matrices fill no tile$"):
            prepare_weights(job.weights, Precision.W8, 4)
        assert the_plan.pass_count == 0
        return
    grid = prepare_weights(job.weights, Precision.W8, 4)
    assert len(grid) == the_plan.tk
    assert all(len(row) == the_plan.tp for row in grid)


@pytest.mark.parametrize("mode", MODE_CONFIGS)
def test_unprepare_inverts_prepare(mode):
    """Ragged K and P: the matrices come back exactly, zero-padded to whole
    tiles, also after a trip through the packed file format."""
    precision, nw = mode
    rng = np.random.default_rng(40 + nw + precision.weight_bits)
    lo, hi = -(1 << (precision.weight_bits - 1)), (1 << (precision.weight_bits - 1)) - 1
    for n, k_dim, p_dim in [(1, 1, 3), (4, 5, 9), (4, 8, 4), (5, 7, 13)]:
        mats = [rng.integers(lo, hi + 1, size=(k_dim, p_dim)) for _ in range(nw)]
        grid = prepare_weights(mats, precision, n)
        buf = io.BytesIO()
        write_packed(grid, buf)
        buf.seek(0)
        for recovered in (unprepare_weights(grid), unprepare_weights(read_packed(buf))):
            assert len(recovered) == nw
            for got, want in zip(recovered, mats):
                assert got.dtype == np.int64
                assert got.shape == (-(-k_dim // n) * n, -(-p_dim // n) * n)
                assert np.array_equal(got[:k_dim, :p_dim], want)
                assert not got[k_dim:].any() and not got[:, p_dim:].any()


def _empty_grid(rows, cols):
    """Build the W8 grid of a (rows, cols) block of packed words at n = 4;
    it has no tiles, so building it raises."""
    return PackedGrid(np.zeros((rows, cols), dtype=np.uint8), Precision.W8, 1, 4)


EMPTY_GRIDS = [functools.partial(_empty_grid, rows, cols) for rows, cols in [(0, 0), (0, 8), (8, 0)]]


@pytest.mark.parametrize("grid", EMPTY_GRIDS)
def test_unprepare_rejects_empty_grids(grid):
    """`unprepare_weights` never meets a grid with no tiles: it is
    rejected when built."""
    with pytest.raises(ValueError, match="^empty tile grid$"):
        unprepare_weights(grid())


def test_prepare_rejects_out_of_range_weights():
    """The public entry point checks every matrix, int8 ones narrower than
    their dtype included."""
    for values, precision in (
        (np.array([[2]]), Precision.W2),
        (np.array([[2]], dtype=np.int8), Precision.W2),
        (np.array([[8]], dtype=np.int8), Precision.W4),
    ):
        with pytest.raises(ValueError, match="^weight outside signed"):
            prepare_weights([values], precision, 4)


def test_prepare_rejects_non_integral_weights():
    with pytest.raises(ValueError, match="weight not a finite integer"):
        prepare_weights([np.array([[0.5]])], Precision.W8, 4)


@pytest.mark.parametrize("mode", MODE_CONFIGS)
def test_prepare_packs_int8_matrices_as_wide_ones_and_leaves_them(mode):
    """int8 matrices, whose word bits are a view of them, pack to the same
    words as int64 ones and come back unchanged."""
    precision, nw = mode
    rng = np.random.default_rng(60 + nw + precision.weight_bits)
    lo = -(1 << (precision.weight_bits - 1))
    wide = [rng.integers(lo, -lo, size=(7, 9)) for _ in range(nw)]
    narrow = [w.astype(np.int8) for w in wide]
    grid = prepare_weights(narrow, precision, 4)
    assert np.array_equal(grid.words, prepare_weights(wide, precision, 4).words)
    assert all(np.array_equal(x, w) for x, w in zip(narrow, wide))


# -- binary dump ----------------------------------------------------------------


def test_packed_file_round_trip():
    rng = np.random.default_rng(5)
    mats = [rng.integers(-2, 2, size=(9, 6)) for _ in range(3)]
    grid = prepare_weights(mats, Precision.W2, 4)
    buf = io.BytesIO()
    write_packed(grid, buf)
    assert buf.getvalue()[:4] == b"ADIP"
    assert len(buf.getvalue()) == 16 + 3 * 2 * 16
    buf.seek(0)
    loaded = read_packed(buf)
    assert (loaded.tk, loaded.tp, loaded.precision, loaded.nw) == (grid.tk, grid.tp, Precision.W2, 3)
    assert np.array_equal(loaded.words, grid.words)


def test_read_packed_rejects_bad_magic():
    buf = io.BytesIO(b"NOPE" + bytes(12))
    with pytest.raises(ValueError):
        read_packed(buf)


def _packed_header(magic, n, bits, nw, rows, cols, pad=bytes(4)):
    return struct.pack("<4sHBBHH", magic, n, bits, nw, rows, cols) + pad


def test_read_packed_rejects_a_bad_matrix_count_from_the_header():
    """nw is checked before the payload is read: a header that claims
    65 535^3 bytes fails on its nw, not on the missing payload."""
    buf = io.BytesIO(_packed_header(b"ADIP", 65535, 2, 5, 65535, 1) + bytes(100))
    with pytest.raises(ValueError, match=r"^nw=5 invalid for W2 \(1..4\)$"):
        read_packed(buf)
    assert buf.tell() == 16


@pytest.mark.parametrize("n, rows, cols", [(0, 2, 2), (4, 0, 1), (4, 1, 0), (4, 0, 0)])
def test_read_packed_rejects_empty_grids(n, rows, cols):
    buf = io.BytesIO(_packed_header(b"ADIP", n, 2, 1, rows, cols) + bytes(64))
    with pytest.raises(ValueError):
        read_packed(buf)


@pytest.mark.parametrize("grid", EMPTY_GRIDS)
def test_write_packed_rejects_empty_grids(grid):
    """`write_packed` never meets a grid with no tiles: it is rejected when
    built, before any byte is written."""
    buf = io.BytesIO()
    with pytest.raises(ValueError, match="^empty tile grid$"):
        write_packed(grid(), buf)
    assert buf.getvalue() == b""


@pytest.mark.parametrize(
    "field, n, rows, cols",
    [("tile size n", 1 << 16, 1, 1), ("grid rows", 1, 1 << 16, 1), ("grid cols", 1, 1, 1 << 16)],
)
def test_write_packed_rejects_grids_beyond_the_header(field, n, rows, cols):
    """n, grid rows and grid cols are u16 header fields: one above 65 535 is
    a ValueError naming it, raised before any byte is written. The words
    are a broadcast view, so the n = 65 536 tile allocates nothing."""
    grid = PackedGrid(np.broadcast_to(np.uint8(0), (rows * n, cols * n)), Precision.W8, 1, n)
    sink = io.BytesIO()
    with pytest.raises(ValueError, match=f"{field} 65536"):
        write_packed(grid, sink)
    assert sink.getvalue() == b""


def test_write_packed_takes_the_largest_header_values():
    grid = PackedGrid(np.full((1, (1 << 16) - 1), 7, dtype=np.uint8), Precision.W8, 1, 1)
    buf = io.BytesIO()
    write_packed(grid, buf)
    buf.seek(0)
    loaded = read_packed(buf)
    assert (loaded.tk, loaded.tp, loaded.rotated_tiles()[0, -1].tolist()) == (1, (1 << 16) - 1, [[7]])


# sha256 of the three packed files of `_pattern_weights` at n = 1, 4 and 5,
# written one after another, per mode.
PACKED_FILE_SHA256 = {
    "W8x1": "97b50d51c78b2de3d06e04a5510d5d45d333f6deac1b03d19480997ca1793892",
    "W4x1": "3666356d55ba95d0e5fdd090d38aa4aad0f2a04413a592b7fbd9e06e52c258de",
    "W4x2": "3fca5befc18599520055b585e444ac1849dcf2ca1d4909050ef70f8ec8b05ed6",
    "W2x1": "dc91ca43c5ba9d09f14236e21c31b44f68967208489e25c1b5d2cf22f76b0f0b",
    "W2x2": "297eda6db630e5b38b49e712b74906683570f5528d30e5e9038cf7bc698b2e0c",
    "W2x3": "da762003e37a037025013e292b1f2ddbd7afa5e344af4ab8106598bb2822e420",
    "W2x4": "508a07d9887612bf874c6b723f22053f6c780cc91d8865d1ef73b3ab33e3a2e5",
}


def _pattern_weights(mode, k_dim, p_dim):
    """nw K x P matrices of in-range weights from a fixed formula, so the
    bytes do not depend on a random generator."""
    precision, nw = mode
    w = precision.weight_bits
    cell = np.arange(k_dim * p_dim).reshape(k_dim, p_dim)
    return [(cell * 37 + 11 * t + 5) % (1 << w) - (1 << (w - 1)) for t in range(nw)]


def _mode_id(mode):
    precision, nw = mode
    return f"{precision.name}x{nw}"


@pytest.mark.parametrize("mode", MODE_CONFIGS, ids=_mode_id)
def test_packed_file_bytes_are_pinned(mode):
    """The file format itself, not only a round trip through writer and
    reader: at ragged K = 2n + 1 and P = 3n - 1 the files hash to fixed
    digests."""
    digest = hashlib.sha256()
    for n in (1, 4, 5):
        buf = io.BytesIO()
        write_packed(prepare_weights(_pattern_weights(mode, 2 * n + 1, 3 * n - 1), mode[0], n), buf)
        digest.update(buf.getvalue())
    assert digest.hexdigest() == PACKED_FILE_SHA256[_mode_id(mode)]


@pytest.mark.parametrize("n, rows, cols", [(65535, 1, 1), (65535, 65535, 65535)])
def test_read_packed_asks_for_no_more_than_the_file_holds(n, rows, cols, tmp_path):
    """A real 116-byte file whose header claims up to 65 535^4 payload
    bytes is a truncated payload, found without asking for the claimed
    bytes: the read's peak allocation stays below 1 MB."""
    path = tmp_path / "short.adip"
    path.write_bytes(_packed_header(b"ADIP", n, 8, 1, rows, cols) + bytes(100))
    tracemalloc.start()
    try:
        with open(path, "rb") as fh, pytest.raises(ValueError, match="truncated packed-weight payload"):
            read_packed(fh)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "words, n",
    [
        (np.zeros((8, 8), dtype=np.int64), 4),
        (np.zeros((8, 6), dtype=np.uint8), 4),
        (np.zeros((6, 8), dtype=np.uint8), 4),
        (np.zeros((2, 8, 8), dtype=np.uint8), 4),
        (np.zeros((8, 8), dtype=np.uint8), 0),
        (np.zeros((8, 8), dtype=np.uint8), -4),
    ],
    ids=["int64 words", "ragged cols", "ragged rows", "3-D words", "n = 0", "n < 0"],
)
def test_malformed_packed_grid_rejected_when_built(words, n):
    """A grid is checked when it is built, so no reader sees words of
    another dtype or rank, or words that are not whole n x n tiles."""
    with pytest.raises(ValueError):
        PackedGrid(words, Precision.W8, 1, n)


@st.composite
def _packed_files(draw):
    """A well-formed file, small enough to allocate nothing much, then up to
    two overwritten header bytes and maybe a truncation."""
    precision = draw(st.sampled_from(list(Precision)))
    nw = draw(st.integers(1, precision.r))
    n, rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pad = draw(st.binary(min_size=4, max_size=4))
    size = rows * cols * n * n
    data = bytearray(_packed_header(b"ADIP", n, precision.weight_bits, nw, rows, cols, pad))
    data += draw(st.binary(min_size=size, max_size=size))
    byte = st.one_of(st.sampled_from([0, 255]), st.integers(0, 255))
    for offset, value in draw(st.lists(st.tuples(st.integers(0, 15), byte), max_size=2)):
        data[offset] = value
    cut = draw(st.one_of(st.none(), st.integers(0, len(data))))
    return bytes(data if cut is None else data[:cut])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_packed_files())
def test_read_packed_yields_a_grid_or_value_error(data):
    """Any header plus payload bytes: either a grid that write_packed writes
    back byte for byte (header padding aside), or a ValueError."""
    try:
        grid = read_packed(io.BytesIO(data))
    except ValueError:
        return
    out = io.BytesIO()
    write_packed(grid, out)
    written = out.getvalue()
    assert written[:12] == data[:12] and written[12:16] == bytes(4)
    assert 16 < len(written) <= len(data) and written[16:] == data[16 : len(written)]
    again = read_packed(io.BytesIO(written))
    assert (again.precision, again.nw) == (grid.precision, grid.nw) and np.array_equal(again.words, grid.words)


@pytest.mark.parametrize("mode", MODE_CONFIGS, ids=_mode_id)
@pytest.mark.parametrize("n, m, k, p", [(1, 3, 2, 5), (4, 5, 7, 6), (4, 0, 9, 3), (3, 2, 3, 3), (8, 1, 17, 9)])
def test_evaluate_group_is_the_input_times_the_unprepared_weights(mode, n, m, k, p):
    """An untraced `ArraySim.stream_grid` of a whole group is the input
    times the weights that `unprepare_weights` recovers from the same grid,
    cut to the input's K: for every mode, at n = 1, with ragged K and P, and
    with no input rows."""
    precision, nw = mode
    rng = np.random.default_rng(n * 1000 + m * 100 + k * 10 + p)
    lo, hi = -(1 << (precision.weight_bits - 1)), 1 << (precision.weight_bits - 1)
    grid = prepare_weights([rng.integers(lo, hi, size=(k, p)) for _ in range(nw)], precision, n)
    a = rng.integers(-128, 128, size=(m, k))
    products = ArraySim(n, precision).stream_grid(grid, a)
    assert products.shape == (m, nw, grid.tp * n)
    for t, matrix in enumerate(unprepare_weights(grid)):
        assert np.array_equal(products[:, t], a @ matrix[:k])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mode=st.sampled_from(MODE_CONFIGS), n=st.integers(1, 8), data=st.data())
def test_packed_grid_equals_its_list_of_tiles(mode, n, data):
    """Each tile of a prepared grid, as iterating the grid gives it, is the
    reference's interleave of the permuted tiles of the matrices; matrices
    that fill no tile are rejected before any grid is built."""
    precision, nw = mode
    k_dim, p_dim = (data.draw(st.integers(0, 3 * n)) for _ in range(2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    lo, hi = -(1 << (precision.weight_bits - 1)), 1 << (precision.weight_bits - 1)
    mats = [rng.integers(lo, hi, size=(k_dim, p_dim)) for _ in range(nw)]
    if not (k_dim and p_dim):
        with pytest.raises(ValueError, match="fill no tile"):
            prepare_weights(mats, precision, n)
        return
    grid = prepare_weights(mats, precision, n)
    assert (grid.precision, grid.nw) == mode and (grid.tk, grid.tp) == (-(-k_dim // n), -(-p_dim // n))
    assert len(grid) == grid.tk and all(row.shape == (grid.tp, n, n) for row in grid)
    padded = [np.pad(m, ((0, -k_dim % n), (0, -p_dim % n))) for m in mats]
    for k, row in enumerate(grid):
        for j, tile in enumerate(row):
            blocks = [m[k * n : (k + 1) * n, j * n : (j + 1) * n] for m in padded]
            assert np.array_equal(tile, interleave([permute(b) for b in blocks], precision.weight_bits))
