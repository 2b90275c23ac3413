import io
import re

import numpy as np
import pytest

from adipsim.analytic import (
    SWEEP_CSV_COLUMNS,
    AnalyticParams,
    dmul_latency,
    ops_per_cycle,
    parallel_factor,
    peak_throughput,
    sweep,
    throughput,
    tile_latency,
    write_sweep_csv,
)
from adipsim.array import ArraySim
from adipsim.preprocess import Precision, prepare_weights


@pytest.mark.parametrize(
    "mul_count, weight_bits, expected",
    [(16, 8, 1), (2, 8, 8), (4, 4, 2), (8, 8, 2), (16, 2, 1), (2, 2, 2)],
)
def test_dmul_latency(mul_count, weight_bits, expected):
    p = AnalyticParams(mul_count=mul_count, weight_bits=weight_bits)
    assert dmul_latency(p) == expected


@pytest.mark.parametrize(
    "params, expected",
    [
        (AnalyticParams(size=64, mul_count=16, weight_bits=8), 129),
        (AnalyticParams(size=1, mul_count=16, weight_bits=4), 2),
        (AnalyticParams(size=64, mul_count=2, weight_bits=8), 577),
    ],
)
def test_tile_latency(params, expected):
    assert tile_latency(params) == expected


def test_tile_effective_throughput_value():
    p = AnalyticParams(size=64, mul_count=16, weight_bits=8)
    assert ops_per_cycle(p) == pytest.approx(524288 / 129)
    assert throughput(p, 1e9) == pytest.approx(524288 / 129 * 1e9)
    assert throughput(p, 1e9) / 1e12 == pytest.approx(4.064, abs=5e-3)


def test_lower_precision_multiplies_throughput_at_matched_pipeline():
    """Per cycle of tile latency, a w-bit tile does 8 / w times the work of
    an 8-bit one; its shallower reducer only shortens the latency."""
    base = AnalyticParams(size=64, weight_bits=8)
    for bits in (4, 2):
        narrow = AnalyticParams(size=64, weight_bits=bits)
        assert parallel_factor(narrow) == 8 // bits
        assert tile_latency(base) - tile_latency(narrow) == 2 - Precision.from_bits(bits).reducer_stages
        matched = throughput(narrow) * tile_latency(narrow) / tile_latency(base)
        assert matched == pytest.approx((8 // bits) * throughput(base))


@pytest.mark.parametrize(
    "weight_bits, tops", [(8, 8.192), (4, 16.384), (2, 32.768)]
)
def test_peak_throughput_headline_numbers(weight_bits, tops):
    p = AnalyticParams.for_mode(64, weight_bits)
    assert peak_throughput(p, 1e9) == tops * 1e12


def test_sweep_dmul_columns():
    rows = sweep()
    table = {(r.mul_count, r.precision): r for r in rows}
    assert [table[(m, "8bx8b")].dmul_cycles for m in (2, 4, 8, 16)] == [8, 4, 2, 1]
    assert [table[(m, "8bx4b")].dmul_cycles for m in (2, 4, 8, 16)] == [4, 2, 1, 1]
    assert [table[(m, "8bx2b")].dmul_cycles for m in (2, 4, 8, 16)] == [2, 1, 1, 1]
    # saturates: every precision needs one cycle once 16 multipliers exist
    assert all(table[(16, prec)].dmul_cycles == 1 for prec in ("8bx8b", "8bx4b", "8bx2b"))


def test_sweep_latency_monotonic_and_throughput_grows():
    rows = sweep()
    for precision in ("8bx8b", "8bx4b", "8bx2b"):
        series = [r for r in rows if r.precision == precision]
        latencies = [r.latency_cycles for r in series]
        assert latencies == sorted(latencies, reverse=True) or all(
            a >= b for a, b in zip(latencies, latencies[1:])
        )
        tops = [r.throughput_tops for r in series]
        assert all(a <= b for a, b in zip(tops, tops[1:]))


def test_sweep_csv_shape():
    buf = io.StringIO()
    write_sweep_csv(sweep(), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(SWEEP_CSV_COLUMNS)
    assert len(lines) == 1 + 4 * 3


def test_params_validation():
    with pytest.raises(ValueError):
        AnalyticParams(size=0)
    with pytest.raises(ValueError, match="array size must be an integer, got 4.5"):
        sweep(size=4.5)


def test_reducer_depth_defaults_to_the_structural_depth():
    """The tile latency's reducer depth is the precision's: the n rows,
    the n - 1 PE rows below the first, and 2, 1 or 0 shift-add stages."""
    assert [tile_latency(AnalyticParams.for_mode(64, bits)) for bits in (8, 4, 2)] == [129, 128, 127]
    assert tile_latency(AnalyticParams(weight_bits=4)) == tile_latency(AnalyticParams.for_mode(64, 4)) == 128


@pytest.mark.parametrize("clock_hz", [0, -1e9, float("nan"), float("inf"), True, "1e9"])
def test_clock_must_be_positive_and_finite(clock_hz):
    """A clock that is not a positive finite real raises, rather than
    giving a negative, zero or non-finite rate."""
    p = AnalyticParams.for_mode(8, 8)
    for rate in (throughput, peak_throughput):
        with pytest.raises(ValueError, match="clock_hz must be a positive finite number"):
            rate(p, clock_hz)
    with pytest.raises(ValueError, match="clock_hz must be a positive finite number"):
        sweep(8, clock_hz=clock_hz)


@pytest.mark.parametrize(
    "change",
    [
        {"size": 4.5},
        {"size": True},
        {"weight_bits": 6},
    ],
    ids=repr,
)
def test_params_reject_what_the_simulator_rejects(change):
    """The model's parameters follow the simulator's rules: each input the
    array rejects, the model rejects with the same message."""
    args = {"size": 4, "weight_bits": 8, **change}
    with pytest.raises(ValueError) as rejected:
        ArraySim(args["size"], Precision.from_bits(args["weight_bits"]))
    with pytest.raises(ValueError, match=f"^{re.escape(str(rejected.value))}$"):
        AnalyticParams(**args)


@pytest.mark.parametrize("weight_bits", [8, 4, 2])
def test_model_matches_simulator_measurement(weight_bits):
    """Whenever the distributed multiply takes one cycle, the closed-form tile
    latency must equal the cycle simulator's measured latency exactly."""
    rng = np.random.default_rng(weight_bits)
    n = 8
    precision = Precision.from_bits(weight_bits)
    lo = -(1 << (weight_bits - 1))
    hi = (1 << (weight_bits - 1)) - 1
    grid = prepare_weights([rng.integers(lo, hi + 1, (n, n))], precision, n)
    sim = ArraySim(n, precision)
    sim.load_weights(grid)
    start = sim.cycle
    sim.stream(rng.integers(-128, 128, (n, n)))
    measured = sim.cycle - start
    params = AnalyticParams.for_mode(n, weight_bits)
    assert dmul_latency(params) == 1
    assert measured == tile_latency(params)
