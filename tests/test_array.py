import io

import numpy as np
import pytest
from reference import PE, check_register, permute

from adipsim.array import TRACE_HEADER, ArraySim, PhaseError, PsumOverflowError
from adipsim.numerics import check_signed
from adipsim.preprocess import Precision, prepare_weights

MODE_CONFIGS = [
    (Precision.W8, 1),
    (Precision.W4, 1),
    (Precision.W4, 2),
    (Precision.W2, 1),
    (Precision.W2, 2),
    (Precision.W2, 3),
    (Precision.W2, 4),
]


def _random_weights(rng, precision, nw, shape):
    lo = -(1 << (precision.weight_bits - 1))
    hi = (1 << (precision.weight_bits - 1)) - 1
    return [rng.integers(lo, hi + 1, size=shape) for _ in range(nw)]


def _run_tile(sim, packed, a_tile):
    """Load one weight tile and stream one input tile: the nw product
    matrices and the pass latency in cycles."""
    sim.load_weights(packed)
    start = sim.cycle
    outputs = sim.stream(a_tile).astype(np.int64)
    return list(outputs.swapaxes(0, 1)), sim.cycle - start


def _traced_registers(text, n):
    """The registers of a trace after its header, per traced clock and PE:
    shape (clocks, n, n, 5), the input and then the four buses."""
    values = np.array([line.split(",") for line in text.splitlines()[1:]], dtype=np.int64)
    clocks = len(values) // (n * n)
    assert np.array_equal(values[:, 0], np.repeat(values[:: n * n, 0], n * n))  # one clock per n*n lines
    assert np.array_equal(values[:, 1:3], np.tile(np.argwhere(np.ones((n, n))), (clocks, 1)))
    return values[:, 3:].reshape(clocks, n, n, 5)


def test_identity_input_reproduces_weight_rows():
    rng = np.random.default_rng(0)
    n = 4
    precision = Precision.W8
    w = rng.integers(-128, 128, size=(n, n))
    sim = ArraySim(n, precision)
    outputs, _ = _run_tile(sim, prepare_weights([w], precision, n), np.eye(n, dtype=np.int64))
    assert np.array_equal(outputs[0], w)


@pytest.mark.parametrize("mode", MODE_CONFIGS)
def test_single_tile_matches_plain_matmul(mode):
    precision, nw = mode
    rng = np.random.default_rng(precision.weight_bits * 10 + nw)
    n = 4
    a = rng.integers(-128, 128, size=(n, n))
    weights = _random_weights(rng, precision, nw, (n, n))
    sim = ArraySim(n, precision)
    outputs, _ = _run_tile(sim, prepare_weights(weights, precision, n), a)
    assert len(outputs) == nw
    for got, w in zip(outputs, weights):
        assert np.array_equal(got, a.astype(np.int64) @ w.astype(np.int64))


@pytest.mark.parametrize(
    "mode, expected_latency",
    [
        ((Precision.W8, 1), 9),  # 2n + S + E - 2 with E = 2
        ((Precision.W4, 2), 8),  # E = 1
        ((Precision.W2, 4), 7),  # E = 0
    ],
)
def test_tile_latency_and_emission_schedule(mode, expected_latency):
    precision, nw = mode
    rng = np.random.default_rng(1)
    n = 4
    a = rng.integers(-128, 128, size=(n, n))
    weights = _random_weights(rng, precision, nw, (n, n))
    sim = ArraySim(n, precision)
    outputs, latency = _run_tile(sim, prepare_weights(weights, precision, n), a)
    assert latency == expected_latency
    for got, w in zip(outputs, weights):
        assert np.array_equal(got, a.astype(np.int64) @ w)


def test_whole_output_row_valid_on_one_cycle():
    """All n column results of one input row leave together: the row read at
    its single emission cycle is already the complete, exact result row."""
    rng = np.random.default_rng(2)
    n = 8
    precision, nw = Precision.W4, 2
    a = rng.integers(-128, 128, size=(n, n))
    weights = _random_weights(rng, precision, nw, (n, n))
    sim = ArraySim(n, precision)
    sim.load_weights(prepare_weights(weights, precision, n))
    for row, a_row in zip(sim.stream(a), a):
        for t, w in enumerate(weights):
            assert np.array_equal(row[t], a_row.astype(np.int64) @ w)


def test_diagonal_movement_visits_one_pe_per_row():
    n = 5
    precision = Precision.W8
    sink = io.StringIO()
    sim = ArraySim(n, precision, trace=sink)
    sim.load_weights(prepare_weights([np.zeros((n, n), dtype=np.int64)], precision, n))
    marker, col0 = 99, 2
    first_row = np.zeros((1, n), dtype=np.int64)
    first_row[0, col0] = marker
    sim.stream(first_row)
    inputs = _traced_registers(sink.getvalue(), n)[..., 0]
    seen = []
    for step in range(n):
        positions = np.argwhere(inputs[step] == marker)
        assert len(positions) == 1
        seen.append(tuple(positions[0]))
    assert seen == [(r, (col0 - r) % n) for r in range(n)]


def test_streaming_before_load_rejected():
    sim = ArraySim(4, Precision.W8)
    with pytest.raises(PhaseError):
        sim.stream(np.zeros((4, 4), dtype=np.int64))


def test_load_weight_validation():
    precision = Precision.W8
    tile = prepare_weights([np.zeros((4, 4), dtype=np.int64)], precision, 4)
    with pytest.raises(ValueError):
        ArraySim(8, precision).load_weights(tile)  # size mismatch
    with pytest.raises(ValueError):
        ArraySim(4, Precision.W4).load_weights(tile)  # mode mismatch
    for shape in ((5, 4), (4, 5), (0, 4)):  # a grid of other than one tile
        with pytest.raises(ValueError):
            ArraySim(4, precision).load_weights(prepare_weights([np.zeros(shape, dtype=np.int64)], precision, 4))


def test_stream_validates_rows():
    precision = Precision.W8
    sim = ArraySim(4, precision)
    sim.load_weights(prepare_weights([np.zeros((4, 4), dtype=np.int64)], precision, 4))
    with pytest.raises(ValueError):
        sim.stream(np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        sim.stream(np.full((1, 4), 200, dtype=np.int64))


def test_all_ones_tile():
    n = 4
    precision = Precision.W8
    ones = np.ones((n, n), dtype=np.int64)
    sim = ArraySim(n, precision)
    outputs, _ = _run_tile(sim, prepare_weights([ones], precision, n), ones)
    assert (outputs[0] == n).all()


def test_zero_weights_give_zero_outputs():
    rng = np.random.default_rng(3)
    n = 4
    precision = Precision.W2
    sim = ArraySim(n, precision)
    zeros = [np.zeros((n, n), dtype=np.int64)] * precision.r
    outputs, _ = _run_tile(sim, prepare_weights(zeros, precision, n), rng.integers(-128, 128, (n, n)))
    for out in outputs:
        assert not out.any()


def test_reload_clears_previous_psums():
    rng = np.random.default_rng(4)
    n = 4
    precision = Precision.W8
    sim = ArraySim(n, precision)
    _run_tile(sim, prepare_weights([rng.integers(-128, 128, (n, n))], precision, n), rng.integers(-128, 128, (n, n)))
    outputs, _ = _run_tile(
        sim, prepare_weights([np.zeros((n, n), dtype=np.int64)], precision, n), rng.integers(-128, 128, (n, n))
    )
    assert not outputs[0].any()


def test_back_to_back_rows_stream_continuously():
    """Two input tiles over the same stationary weights share one pipeline:
    total latency is R + n + S + E - 2 for R = 2n rows."""
    rng = np.random.default_rng(5)
    n = 4
    precision = Precision.W8
    a = rng.integers(-128, 128, size=(2 * n, n))
    w = rng.integers(-128, 128, size=(n, n))
    sim = ArraySim(n, precision)
    outputs, latency = _run_tile(sim, prepare_weights([w], precision, n), a)
    assert latency == 2 * n + n + 1 + 2 - 2
    assert np.array_equal(outputs[0], a.astype(np.int64) @ w)


def test_weight_load_cycle_accounting():
    n, precision = 4, Precision.W8
    tile = prepare_weights([np.zeros((n, n), dtype=np.int64)], precision, n)
    rows = np.zeros((n, n), dtype=np.int64)
    assert _run_tile(ArraySim(n, precision), tile, rows)[1] == 2 * n + 1 + 2 - 2  # the load takes no cycle


def test_trace_records_every_pe_every_cycle():
    rng = np.random.default_rng(8)
    n = 3
    precision = Precision.W8
    buf = io.StringIO()
    sim = ArraySim(n, precision, trace=buf)
    _run_tile(sim, prepare_weights([rng.integers(-128, 128, (n, n))], precision, n), rng.integers(-128, 128, (n, n)))
    lines = buf.getvalue().splitlines()
    assert lines[0] == TRACE_HEADER
    steps = 2 * n + 1 + 2 - 2
    assert len(lines) == 1 + steps * n * n


def test_vectorized_grid_matches_pe_objects():
    """The registers of a traced one-tile run must agree, clock for clock,
    with a grid of individually stepped PE models wired the same way."""
    rng = np.random.default_rng(9)
    n = 3
    precision, nw = Precision.W2, 3
    weights = _random_weights(rng, precision, nw, (n, n))
    packed = prepare_weights(weights, precision, n)
    a = rng.integers(-128, 128, size=(n, n))

    sink = io.StringIO()
    sim = ArraySim(n, precision, trace=sink)
    sim.load_weights(packed)
    sim.stream(a)
    traced = _traced_registers(sink.getvalue(), n)

    grid = [[PE(precision) for _ in range(n)] for _ in range(n)]
    for r in range(n):
        for c in range(n):
            grid[r][c].load_weight(int(permute(packed.words)[r, c]))

    inputs = [[0] * n for _ in range(n)]
    psums = [[(0, 0, 0, 0)] * n for _ in range(n)]
    steps = 2 * n + 1 + precision.reducer_stages - 2
    assert len(traced) == steps
    for s in range(steps):
        row_in = a[s] if s < n else np.zeros(n, dtype=np.int64)
        prev_inputs = [row[:] for row in inputs]
        prev_psums = [row[:] for row in psums]
        for r in range(n):
            for c in range(n):
                feed = int(row_in[c]) if r == 0 else prev_inputs[r - 1][(c + 1) % n]
                incoming = (0, 0, 0, 0) if r == 0 else prev_psums[r - 1][c]
                _, out = grid[r][c].step(feed, incoming)
                inputs[r][c] = feed
                psums[r][c] = out
        assert np.array_equal(traced[s, ..., 0], np.array(inputs))
        assert np.array_equal(traced[s, ..., 1:], np.array(psums))


@pytest.mark.parametrize("value", [-(2**31), 2**31 - 1, 2**31, -(2**31) - 1])
def test_register_range_is_the_signed_32_bit_range(value):
    """The stepped reference's register check, the PE model and
    `check_signed` agree."""
    fits = -(2**31) <= value <= 2**31 - 1
    registers = np.array([[0, value]], dtype=np.int64)
    if fits:
        check_register(registers, "psum bus")
        check_signed(value, 32)
    else:
        with pytest.raises(PsumOverflowError):
            check_register(registers, "psum bus")
        with pytest.raises(ValueError):
            check_signed(value, 32)
    pe = PE(Precision.W8)
    pe.load_weight(1)  # an input of 0 passes the incoming psum through
    if fits:
        assert pe.step(0, (value, 0, 0, 0))[1][0] == value
    else:
        with pytest.raises(PsumOverflowError):
            pe.step(0, (value, 0, 0, 0))
