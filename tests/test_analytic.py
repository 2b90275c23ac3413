import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adipsim.analytic import (
    SWEEP_CSV_COLUMNS,
    AnalyticParams,
    SweepRow,
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


def test_sweep_rows_are_immutable_in_csv_column_order():
    """A row's fields are the CSV's columns, in order (`M` is the
    multiplier count), and written as they are held; no field can be
    assigned."""
    assert SweepRow._fields == ("mul_count",) + SWEEP_CSV_COLUMNS[1:]
    rows = sweep(8, (2, 16))
    buf = io.StringIO()
    write_sweep_csv(rows, buf)
    for row, line in zip(rows, buf.getvalue().splitlines()[1:]):
        assert line == ",".join(map(str, row[:-1])) + f",{row.throughput_tops:.6f}"
    with pytest.raises(AttributeError):
        rows[0].dmul_cycles = 0


def test_sweep_caches_no_table():
    """Each call builds its own table: emptying or extending one call's
    list leaves the next call's rows as they were."""
    first, second = sweep(), sweep()
    assert first is not second and first == second
    expected = list(second)
    first.clear()
    first.append(SweepRow(1, "x", 0, 0, 0.0))
    assert sweep() == second == expected


def test_params_validation():
    with pytest.raises(ValueError):
        AnalyticParams(size=0)
    with pytest.raises(ValueError, match="array size must be an integer, got 4.5"):
        sweep(size=4.5)


@pytest.mark.parametrize("size, mul_counts", [(0, ()), (-3, []), (4.5, ())])
def test_sweep_checks_its_size_with_no_rows(size, mul_counts):
    """The size is checked before any row is formed, so a sweep over no
    multiplier counts still rejects it, as `AnalyticParams` does."""
    with pytest.raises(ValueError) as rejected:
        AnalyticParams(size=size)
    with pytest.raises(ValueError, match=f"^{re.escape(str(rejected.value))}$"):
        sweep(size=size, mul_counts=mul_counts)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    size=st.integers(1, 128),
    mul_counts=st.lists(st.integers(1, 32), min_size=1, max_size=4),
    clock_hz=st.floats(0.1e9, 5e9),
)
def test_sweep_rows_equal_the_per_parameter_models(size, mul_counts, clock_hz):
    """Each sweep row is what `dmul_latency`, `tile_latency` and
    `throughput` give for its own `AnalyticParams`, exactly."""
    rows = sweep(size, mul_counts, clock_hz)
    expected = [(m, bits) for m in mul_counts for bits in (8, 4, 2)]
    assert [(row.mul_count, row.precision) for row in rows] == [(m, f"8bx{bits}b") for m, bits in expected]
    for row, (m, bits) in zip(rows, expected):
        p = AnalyticParams(size, m, bits)
        assert row.dmul_cycles == dmul_latency(p)
        assert row.latency_cycles == tile_latency(p)
        assert row.throughput_tops == throughput(p, clock_hz) / 1e12


@pytest.mark.parametrize("kind", [np.uint8, np.int16, np.int64])
def test_numpy_integer_params_give_the_python_int_results(kind):
    """Numpy integer knobs are held as Python ints, so size**3 cannot wrap
    and the sweep's rows equal the per-parameter models for them too."""
    p = AnalyticParams(kind(200), kind(2), kind(8))
    assert (p.size, p.mul_count, p.weight_bits) == (200, 2, 8)
    assert all(type(v) is int for v in (p.size, p.mul_count, p.weight_bits))
    assert tile_latency(p) == 1801
    assert ops_per_cycle(p) == ops_per_cycle(AnalyticParams(200, 2, 8))
    row = sweep(kind(200), [kind(2)])[0]
    assert (row.mul_count, row.latency_cycles) == (2, 1801)
    assert row.throughput_tops == throughput(p) / 1e12


@pytest.mark.parametrize("bad", [0, -2, 2.0, True, "4"], ids=repr)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(size=st.integers(1, 128), good=st.lists(st.integers(1, 32), max_size=3))
def test_sweep_rejects_a_multiplier_count_as_the_params_do(bad, size, good):
    """A multiplier count that is not a positive integer, wherever it sits
    in the list, raises the `ValueError` that `AnalyticParams` raises."""
    with pytest.raises(ValueError) as rejected:
        AnalyticParams(size, bad)
    with pytest.raises(ValueError, match=f"^{re.escape(str(rejected.value))}$"):
        sweep(size, good + [bad])


def test_reducer_depth_defaults_to_the_structural_depth():
    """The tile latency's reducer depth is the precision's: the n rows,
    the n - 1 PE rows below the first, and 2, 1 or 0 shift-add stages."""
    assert [tile_latency(AnalyticParams.for_mode(64, bits)) for bits in (8, 4, 2)] == [129, 128, 127]
    assert tile_latency(AnalyticParams(weight_bits=4)) == tile_latency(AnalyticParams.for_mode(64, 4)) == 128


@pytest.mark.parametrize("clock_hz", [0, -1e9, float("nan"), float("inf"), True, "1e9", 1e308])
def test_clock_must_be_positive_and_finite(clock_hz):
    """A clock that is not a positive finite real raises, rather than
    giving a negative, zero or non-finite rate; so does a finite clock
    whose rates overflow a float, 1e308 Hz, with its own message."""
    p = AnalyticParams.for_mode(8, 8)
    if clock_hz == 1e308:
        message = "^clock_hz 1e\\+308 gives a rate that overflows a float$"
    else:
        message = "clock_hz must be a positive finite number"
    for rate in (throughput, peak_throughput):
        with pytest.raises(ValueError, match=message):
            rate(p, clock_hz)
    with pytest.raises(ValueError, match=message):
        sweep(8, clock_hz=clock_hz)


@pytest.mark.parametrize(
    "rate",
    [
        throughput,
        ops_per_cycle,
        peak_throughput,
        lambda p: sweep(p.size, [p.mul_count]),
    ],
    ids=["throughput", "ops_per_cycle", "peak_throughput", "sweep"],
)
def test_a_size_whose_rate_overflows_a_float_raises_value_error(rate):
    """At size 10^160 the ops per cycle, about 10^320, and size^2 do not
    fit a float: each rate raises the module's ValueError, not Python's
    OverflowError, while it still has a value at 10^100, and the tile
    latency stays an exact int far beyond."""
    with pytest.raises(ValueError, match="^the array size gives a rate that overflows a float$"):
        rate(AnalyticParams(size=10**160))
    assert rate(AnalyticParams(size=10**100))  # a positive rate, or the sweep's rows
    assert tile_latency(AnalyticParams(size=10**400)) == 2 * 10**400 + 1


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
