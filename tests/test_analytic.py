import io

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
from adipsim.preprocess import Precision, PrecisionMode, prepare_weights


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
        (AnalyticParams(size=64, mul_count=16, weight_bits=8, mac_stages=1, reduce_stages=2), 129),
        (AnalyticParams(size=1, mul_count=16, weight_bits=8, mac_stages=1, reduce_stages=1), 2),
        (AnalyticParams(size=64, mul_count=2, weight_bits=8, mac_stages=1, reduce_stages=2), 577),
    ],
)
def test_tile_latency(params, expected):
    assert tile_latency(params) == expected


def test_tile_effective_throughput_value():
    p = AnalyticParams(size=64, mul_count=16, weight_bits=8, mac_stages=1, reduce_stages=2)
    assert ops_per_cycle(p) == pytest.approx(524288 / 129)
    assert throughput(p, 1e9) == pytest.approx(524288 / 129 * 1e9)
    assert throughput(p, 1e9) / 1e12 == pytest.approx(4.064, abs=5e-3)


def test_lower_precision_multiplies_throughput_at_matched_pipeline():
    base = AnalyticParams(size=64, weight_bits=8, reduce_stages=2)
    for bits in (4, 2):
        narrow = AnalyticParams(size=64, weight_bits=bits, reduce_stages=2)
        assert parallel_factor(narrow) == 8 // bits
        assert throughput(narrow) == pytest.approx((8 // bits) * throughput(base))


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
    with pytest.raises(ValueError):
        AnalyticParams(act_bits=7)
    with pytest.raises(ValueError):
        AnalyticParams(reduce_stages=-1)


@pytest.mark.parametrize(
    "weight_bits, mac_stages",
    [
        pytest.param(bits, mac, id=str(bits) if mac == 1 else f"{bits}-mac{mac}")
        for bits in (8, 4, 2)
        for mac in (1, 2)
    ],
)
def test_model_matches_simulator_measurement(weight_bits, mac_stages):
    """Whenever the distributed multiply takes one cycle, the closed-form tile
    latency must equal the cycle simulator's measured latency exactly."""
    rng = np.random.default_rng(weight_bits)
    n = 8
    mode = PrecisionMode(Precision.from_bits(weight_bits), 1)
    lo = -(1 << (weight_bits - 1))
    hi = (1 << (weight_bits - 1)) - 1
    grid = prepare_weights([rng.integers(lo, hi + 1, (n, n))], mode, n)
    sim = ArraySim(n, mode.precision, mac_stages=mac_stages, overlap_weights=True)  # no load cycles
    sim.load_weights(grid)
    start = sim.cycle
    sim.stream(rng.integers(-128, 128, (n, n)))
    measured = sim.cycle - start
    params = AnalyticParams.for_mode(n, weight_bits, mac_stages=mac_stages)
    assert dmul_latency(params) == 1
    assert measured == tile_latency(params)
