"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one PASS line per criterion (run with -s to see them)."""

import time

import numpy as np
import pytest
from reference import SteppedArray, combine_groups, deinterleave, group_multiply, inverse_permute, mul2, split_subwords

from adipsim.analytic import AnalyticParams, dmul_latency, ops_per_cycle, peak_throughput, sweep, tile_latency
from adipsim.cost import Arch, CostParams, stage_latency, summary
from adipsim.preprocess import Precision, prepare_weights
from adipsim.tiling import MatMulJob, oracle_matmul, run_tiled
from adipsim.workload import (
    BERT_LARGE,
    BITNET_158B,
    GPT2_MEDIUM,
    stages,
    total_ops,
)

MODE_CONFIGS = [
    (Precision.W8, 1),
    (Precision.W4, 1),
    (Precision.W4, 2),
    (Precision.W2, 1),
    (Precision.W2, 2),
    (Precision.W2, 3),
    (Precision.W2, 4),
]


def _report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def _weight_range(bits):
    return -(1 << (bits - 1)), (1 << (bits - 1)) - 1


def _improvement(cfg, params, total):
    """Percent by which ADiP's `total` ("cycles", "energy_rel" or
    "mem_bytes") in `summary` is below DiP's."""
    totals = summary(cfg, params)["totals"]
    return 100.0 * (1.0 - totals[Arch.ADIP.label][total] / totals[Arch.DIP.label][total])


def test_c01_oracle_equivalence_property():
    """>= 1000 random jobs across sizes, modes and ragged shapes, bit-exact."""
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    sizes = (2, 4, 8, 16)
    jobs_per_config = 36
    checked = 0
    for n in sizes:
        for precision, nw in MODE_CONFIGS:
            lo, hi = _weight_range(precision.weight_bits)
            for j in range(jobs_per_config):
                if j % 3 == 0:  # force non-multiples of the array size
                    m, k, p = (
                        int(v) * n + int(o)
                        for v, o in zip(rng.integers(1, 3, 3), rng.integers(1, n, 3))
                    )
                else:
                    m, k, p = (int(v) for v in rng.integers(1, 2 * n + 4, 3))
                job = MatMulJob(
                    a=rng.integers(-128, 128, size=(m, k)),
                    weights=[rng.integers(lo, hi + 1, size=(k, p)) for _ in range(nw)],
                    precision=precision,
                    n=n,
                )
                result = run_tiled(job)
                for got, want in zip(result.outputs, oracle_matmul(job)):
                    assert np.array_equal(got, want), (n, precision, nw, (m, k, p))
                checked += 1
    elapsed = time.monotonic() - started
    assert checked >= 1000
    assert elapsed < 120.0, f"oracle sweep took {elapsed:.1f}s, budget is 120s"
    _report(1, f"{checked} random jobs bit-exact vs oracle_matmul (exact float32 chunks, int64 sums) in {elapsed:.1f}s")


def test_c02_divide_and_conquer_identity_exhaustive():
    """All 65,536 signed 8-bit pairs, then every (input, word, mode) group
    recombination, all exact."""
    digits = {x: split_subwords(x, 8) for x in range(-128, 128)}
    shifts = [1, 4, 16, 64]
    for a in range(-128, 128):
        da = digits[a]
        for b in range(-128, 128):
            db = digits[b]
            total = 0
            for i in range(4):
                for j in range(4):
                    total += mul2(da[i], db[j]) * shifts[i] * shifts[j]
            assert total == a * b

    for precision in Precision:
        w = precision.weight_bits
        mask, sign = (1 << w) - 1, 1 << (w - 1)
        for value in range(-128, 128):
            for word in range(256):
                groups = group_multiply(value, word, precision)
                products = combine_groups(groups, precision)
                fields = [(word >> (t * w)) & mask for t in range(precision.r)]
                decoded = [f - (1 << w) if f >= sign else f for f in fields]
                assert products == tuple(value * wv for wv in decoded)
    _report(2, "65,536-pair product identity and 256x256x3 PE recombinations exact")


def test_c03_cycle_fidelity_across_sizes():
    """The pass clock, measured on a free-running stepped array, equals the
    closed-form tile latency for n in {4..64} and every precision, and the
    2n - 1 + reducer stages stated here: one tile of r random matrices, n
    random rows stepped in on consecutive clocks and zero rows after them,
    until every tap holds the last row's products."""
    reducer_stages = {Precision.W8: 2, Precision.W4: 1, Precision.W2: 0}
    rng = np.random.default_rng(7)
    for n in (4, 8, 16, 32, 64):
        for precision in Precision:
            lo, hi = _weight_range(precision.weight_bits)
            matrices = [rng.integers(lo, hi + 1, (n, n)) for _ in range(precision.r)]
            rows = rng.integers(-128, 128, (n, n))
            last = [rows[-1] @ w for w in matrices]
            stepper = SteppedArray(n, precision, precision.r)
            stepper.load_weights(prepare_weights(matrices, precision, n).rotated_tiles()[0, 0])
            measured = None
            for clock in range(1, 3 * n):
                taps = stepper.step(rows[clock - 1] if clock <= n else np.zeros(n, dtype=np.int64))
                if all(np.array_equal(tap, want) for tap, want in zip(taps, last)):
                    measured = clock
                    break
            params = AnalyticParams.for_mode(n, precision.weight_bits)
            assert dmul_latency(params) == 1
            assert measured == tile_latency(params), (n, precision, measured)
            assert measured == 2 * n - 1 + reducer_stages[precision], (n, precision, measured)
    _report(3, "stepped pass clock equals tile_latency = 2n - 1 + reducer stages for n = 4..64, all modes")


def test_c04_dmul_latency_sweep_table():
    table = {(r.mul_count, r.precision): r.dmul_cycles for r in sweep()}
    assert [table[(m, "8bx8b")] for m in (2, 4, 8, 16)] == [8, 4, 2, 1]
    assert [table[(m, "8bx4b")] for m in (2, 4, 8, 16)] == [4, 2, 1, 1]
    assert [table[(m, "8bx2b")] for m in (2, 4, 8, 16)] == [2, 1, 1, 1]
    assert all(table[(16, p)] == 1 for p in ("8bx8b", "8bx4b", "8bx2b"))
    _report(4, "distributed-multiply latency table exact, saturating at one cycle")


def test_c05_peak_throughput_headline():
    expected = {8: 8.192e12, 4: 16.384e12, 2: 32.768e12}
    for bits, tops in expected.items():
        p = AnalyticParams.for_mode(64, bits)
        assert peak_throughput(p, 1e9) == tops
    _report(5, "peak throughput 8.192 / 16.384 / 32.768 TOPS at 64x64, 1 GHz")


def _simulated_work(n, precision, rows, rng):
    """Cycles and useful MACs of a `rows` x n input times r = 8/w matrices
    of n x n, run through `run_tiled` as one pass and checked against the
    oracle."""
    lo, hi = _weight_range(precision.weight_bits)
    weights = [rng.integers(lo, hi + 1, size=(n, n)) for _ in range(precision.r)]
    job = MatMulJob(rng.integers(-128, 128, size=(rows, n)), weights, precision, n)
    result = run_tiled(job)
    for got, want in zip(result.outputs, oracle_matmul(job)):
        assert np.array_equal(got, want)
    assert result.pass_count == 1
    return result.total_cycles, rows * n * n * precision.r


@pytest.mark.parametrize("n", range(2, 9))
def test_c05_throughput_figures_from_simulated_runs(n):
    """An n x n input times r matrices of n x n is one pass of
    `tile_latency` cycles for n^3 r MACs: `ops_per_cycle` and the M = 16
    sweep row. n more input rows take n more cycles for n^3 r more MACs:
    2 r n^2 ops a cycle, the peak of c05. The simulated cycles are also
    stated as numbers (one per row, n - 1 down the array, then W8's two
    and W4's one shift-add stage), since `tile_latency` and the engine's
    clock read one rule."""
    rng = np.random.default_rng(n)
    rows = {row.precision: row for row in sweep(size=n, mul_counts=(16,), clock_hz=1.0)}
    for precision in Precision:
        p = AnalyticParams.for_mode(n, precision.weight_bits)
        reducer = {8: 2, 4: 1, 2: 0}[precision.weight_bits]
        cycles, macs = _simulated_work(n, precision, n, rng)
        assert cycles == 2 * n - 1 + reducer == tile_latency(p)
        rate = 2 * macs / cycles
        assert rate == ops_per_cycle(p)
        row = rows[f"8bx{precision.weight_bits}b"]
        assert (row.latency_cycles, row.throughput_tops) == (cycles, rate / 1e12)
        longer_cycles, longer_macs = _simulated_work(n, precision, 2 * n, rng)
        assert longer_cycles == 3 * n - 1 + reducer
        assert longer_macs - macs == n**3 * precision.r
        assert 2 * (longer_macs - macs) / (longer_cycles - cycles) == peak_throughput(p, 1.0)


def test_c06_throughput_gain_across_sizes():
    """Pass-count ratio between the 8-bit baseline and each packed mode is
    exactly 1x / 2x / 4x for every array size."""
    rng = np.random.default_rng(11)
    for n in (4, 8, 16, 32, 64):
        a = rng.integers(-128, 128, size=(n, n))
        for precision, gain in ((Precision.W8, 1), (Precision.W4, 2), (Precision.W2, 4)):
            lo, hi = _weight_range(precision.weight_bits)
            weights = [rng.integers(lo, hi + 1, size=(n, n)) for _ in range(precision.r)]
            narrow = run_tiled(MatMulJob(a, weights, precision, n))
            wide = run_tiled(MatMulJob(a, weights, Precision.W8, n))
            assert wide.pass_count == gain * narrow.pass_count, (n, precision)
            for got, w in zip(narrow.outputs, weights):
                assert np.array_equal(got, a.astype(np.int64) @ w.astype(np.int64))
    _report(6, "pass-count throughput gain exactly 1/2/4 for n in {4,8,16,32,64}")


def test_c07_workload_totals():
    targets = {GPT2_MEDIUM: 309.24e9, BERT_LARGE: 128.85e9, BITNET_158B: 4.51e12}
    for cfg, target in targets.items():
        assert total_ops(cfg) == pytest.approx(target, rel=5e-3), cfg.name
    _report(7, "attention totals 309.24 G / 128.85 G / 4.51 T ops within 0.5%")


def test_c08_latency_improvements():
    params = CostParams(n=32)

    def improvement(cfg):
        return _improvement(cfg, params, "cycles")

    def projection_improvement(cfg):
        dip = sum(stage_latency(s, Arch.DIP, params) for s in stages(cfg) if s.is_projection)
        adip = sum(stage_latency(s, Arch.ADIP, params) for s in stages(cfg) if s.is_projection)
        return 100.0 * (1.0 - adip / dip)

    assert projection_improvement(BERT_LARGE) == pytest.approx(50.0, abs=1.0)
    assert projection_improvement(BITNET_158B) == pytest.approx(75.0, abs=1.0)
    assert projection_improvement(GPT2_MEDIUM) == 0.0
    assert improvement(BERT_LARGE) == pytest.approx(40.0, abs=1.0)
    assert improvement(BITNET_158B) == pytest.approx(53.6, abs=1.0)
    assert improvement(GPT2_MEDIUM) == 0.0
    _report(8, "latency: projections 50% / 75% / 0%, totals 40% / 53.6% within 1%")


def test_c09_energy_changes():
    params = CostParams(n=32)
    assert params.power(Arch.ADIP) == 1.63

    def change(cfg):
        return _improvement(cfg, params, "energy_rel")

    assert change(GPT2_MEDIUM) == pytest.approx(-62.8, abs=1.5)
    assert change(BERT_LARGE) == pytest.approx(2.3, abs=1.5)
    assert change(BITNET_158B) == pytest.approx(24.4, abs=1.5)
    _report(9, "energy: 62.8% overhead / 2.3% / 24.4% improvements within 1.5%")


def test_c10_memory_savings():
    params = CostParams(n=32)

    def savings(cfg):
        return _improvement(cfg, params, "mem_bytes")

    assert savings(GPT2_MEDIUM) == 0.0
    assert savings(BERT_LARGE) == pytest.approx(40.0, abs=2.5)
    assert savings(BITNET_158B) == pytest.approx(53.6, abs=2.5)
    _report(10, "memory traffic: 0% / 40.0% / 53.6% savings within 2.5%")


def test_c11_preprocessing_round_trip_bulk():
    """10,000 random tiles through prepare -> deinterleave -> inverse-permute
    recover the originals exactly, every mode."""
    rng = np.random.default_rng(99)
    total = 10_000
    for i in range(total):
        precision, nw = MODE_CONFIGS[i % len(MODE_CONFIGS)]
        n = int(rng.integers(1, 9))
        lo, hi = _weight_range(precision.weight_bits)
        mats = [rng.integers(lo, hi + 1, size=(n, n)) for _ in range(nw)]
        words = prepare_weights(mats, precision, n).rotated_tiles()[0, 0]
        for matrix, tile in zip(mats, deinterleave(words, precision.weight_bits, nw)):
            assert np.array_equal(inverse_permute(tile), matrix)
    _report(11, f"{total} random tiles round-trip losslessly across all modes")
