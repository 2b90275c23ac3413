"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one PASS line per criterion (run with -s to see them)."""

import time

import numpy as np
import pytest
from reference import combine_groups, deinterleave, group_multiply, inverse_permute

from adipsim.analytic import AnalyticParams, dmul_latency, peak_throughput, sweep, tile_latency
from adipsim.array import ArraySim
from adipsim.cost import Arch, CostParams, stage_latency, summary
from adipsim.numerics import mul2, split_subwords
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
    _report(1, f"{checked} random jobs bit-exact vs brute-force oracle in {elapsed:.1f}s")


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
    """Measured single-tile latency equals the closed-form model exactly for
    n in {4..64}, one mac stage, precision-dependent reducer depth."""
    rng = np.random.default_rng(7)
    for n in (4, 8, 16, 32, 64):
        for precision in Precision:
            lo, hi = _weight_range(precision.weight_bits)
            grid = prepare_weights([rng.integers(lo, hi + 1, (n, n))], precision, n)
            sim = ArraySim(n, precision, overlap_weights=True)  # no load cycles
            sim.load_weights(grid)
            start = sim.cycle
            sim.stream(rng.integers(-128, 128, (n, n)))
            measured = sim.cycle - start
            params = AnalyticParams.for_mode(n, precision.weight_bits)
            assert dmul_latency(params) == 1
            assert measured == tile_latency(params), (n, precision)
    _report(3, "tile latency matches n*dmul + n + S + E - 2 for all sizes and modes")


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
