import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adipsim.cost import (
    ADIP_POWER_BY_SIZE,
    CLOCK_HZ,
    STAGE_CSV_COLUMNS,
    Arch,
    CostParams,
    evaluate,
    stage_cost,
    stage_latency,
    summary,
    write_stage_csv,
)
from adipsim.numerics import signed_range
from adipsim.preprocess import Precision
from adipsim.tiling import MatMulJob, run_tiled
from adipsim.workload import (
    BERT_LARGE,
    BITNET_158B,
    GPT2_MEDIUM,
    MhaConfig,
    Stage,
    StageSpec,
    projection_fraction,
    stages,
)


FINGERPRINT = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"

# `tools/fingerprint.py`'s digest of its cost reports and sweep rows, as the
# cost and analytic models gave it before `summary` built one StageCost per
# (stage, architecture).
COST_REPORTS_SHA256 = "87347a14c3aba844ca05a198b2b15cfe1c8ed5eb6fc0f6d4d0f0c33df83816c5"
# Its digest of 100 random `run_tiled` configs from seed 0, each run untraced
# and traced at three psum limits: 600 runs, 92 of them overflowing.
RUNS_SHA256 = "2a7bb6ade0b4078e72d373a3f3ff2d09a85b07a8bca424b86bf18aa84c94a2f5"
# Its digest of the overflow-edge runs (every mode, n = 1..8, all values at
# their most negative, limits at and one above the largest register), as
# the engine gave it while a per-pass gate still sat behind the row bound.
EDGE_SHA256 = "1353726277263828ea0e04990a403608427b40c651dfd4d44f39fff6d42aadaa"


def _fingerprint():
    spec = importlib.util.spec_from_file_location("fingerprint", FINGERPRINT)
    fingerprint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fingerprint)
    return fingerprint


@pytest.fixture()
def params():
    return CostParams()


def _total(cfg, arch, params, total):
    """One of `summary`'s totals ("cycles", "energy_rel" or "mem_bytes")."""
    return summary(cfg, params)["totals"][arch.label][total]


def _improvement(cfg, total, params):
    dip = _total(cfg, Arch.DIP, params, total)
    adip = _total(cfg, Arch.ADIP, params, total)
    return 100.0 * (1.0 - adip / dip)


@pytest.mark.parametrize(
    "cfg, expected",
    [(BERT_LARGE, 50.0), (BITNET_158B, 75.0)],
)
def test_projection_latency_improvement(cfg, expected, params):
    got = summary(cfg, params)["vs_dip"]["projection_latency_improvement_pct"]
    assert got == pytest.approx(expected, abs=1.0)


def test_gpt2_has_no_latency_overhead(params):
    """8-bit weights leave nothing to pack: per stage and in total the adaptive
    array matches the baseline cycle for cycle."""
    for spec in stages(GPT2_MEDIUM):
        assert stage_latency(spec, Arch.ADIP, params) == stage_latency(spec, Arch.DIP, params)
    assert _total(GPT2_MEDIUM, Arch.ADIP, params, "cycles") == _total(GPT2_MEDIUM, Arch.DIP, params, "cycles")


@pytest.mark.parametrize(
    "cfg, expected",
    [(BERT_LARGE, 40.0), (BITNET_158B, 53.6)],
)
def test_total_latency_improvement(cfg, expected, params):
    assert _improvement(cfg, "cycles", params) == pytest.approx(expected, abs=1.0)


@pytest.mark.parametrize(
    "cfg, expected",
    [(GPT2_MEDIUM, -62.8), (BERT_LARGE, 2.3), (BITNET_158B, 24.4)],
)
def test_total_energy_change(cfg, expected, params):
    assert _improvement(cfg, "energy_rel", params) == pytest.approx(expected, abs=1.5)


@pytest.mark.parametrize(
    "cfg, expected",
    [(GPT2_MEDIUM, 0.0), (BERT_LARGE, 40.0), (BITNET_158B, 53.6)],
)
def test_memory_savings(cfg, expected, params):
    got = _improvement(cfg, "mem_bytes", params)
    if expected == 0.0:
        assert got == 0.0
    else:
        assert got == pytest.approx(expected, abs=2.5)


def test_energy_is_power_times_cycles(cfg_list=(GPT2_MEDIUM, BERT_LARGE, BITNET_158B)):
    params = CostParams()
    for cfg in cfg_list:
        for arch in Arch:
            assert _total(cfg, arch, params, "energy_rel") == pytest.approx(
                params.power(arch) * _total(cfg, arch, params, "cycles")
            )


def test_act_act_stages_identical_between_dip_and_adip(params):
    for cfg in (GPT2_MEDIUM, BERT_LARGE, BITNET_158B):
        for spec in stages(cfg):
            if spec.is_projection:
                continue
            dip = stage_cost(spec, Arch.DIP, params)
            adip = stage_cost(spec, Arch.ADIP, params)
            assert dip.cycles == adip.cycles
            assert (dip.bytes_in, dip.bytes_w, dip.bytes_out) == (
                adip.bytes_in,
                adip.bytes_w,
                adip.bytes_out,
            )


def test_adip_projection_weight_bytes_scale_with_width(params):
    for cfg in (BERT_LARGE, BITNET_158B):
        for spec in stages(cfg):
            if not spec.is_projection:
                continue
            dip = stage_cost(spec, Arch.DIP, params)
            adip = stage_cost(spec, Arch.ADIP, params)
            assert adip.bytes_w * 8 == dip.bytes_w * spec.weight_bits


def test_improvement_identity_against_workload_fractions(params):
    """Total improvement tracks projection_fraction * (1 - 1/r) up to the
    per-pass fill/drain difference between the modes."""
    for cfg, r in ((BERT_LARGE, 2), (BITNET_158B, 4)):
        identity = 100.0 * projection_fraction(cfg) * (1.0 - 1.0 / r)
        measured = _improvement(cfg, "cycles", params)
        assert measured == pytest.approx(identity, abs=0.25)


def test_ws_slower_than_dip_same_memory(params):
    for cfg in (GPT2_MEDIUM, BITNET_158B):
        assert _total(cfg, Arch.WS, params, "cycles") > _total(cfg, Arch.DIP, params, "cycles")
        assert _total(cfg, Arch.WS, params, "mem_bytes") == _total(cfg, Arch.DIP, params, "mem_bytes")


def test_output_writes_flag():
    base = CostParams()
    counting = CostParams(count_output_writes=True)
    spilling = CostParams(count_output_writes=True, output_bytes=4)
    spec = stages(BERT_LARGE)[0]
    assert stage_cost(spec, Arch.DIP, base).bytes_out == 0
    one_byte = stage_cost(spec, Arch.DIP, counting).bytes_out
    assert one_byte > 0
    assert stage_cost(spec, Arch.DIP, spilling).bytes_out == 4 * one_byte


def test_costs_additive_and_non_negative(params):
    for cfg in (GPT2_MEDIUM, BERT_LARGE, BITNET_158B):
        costs = evaluate(cfg, Arch.ADIP, params)
        assert len(costs) == 6
        assert all(c.cycles > 0 and c.energy_rel > 0 for c in costs)
        assert sum(c.cycles for c in costs) == _total(cfg, Arch.ADIP, params, "cycles")
        assert sum(c.mem_bytes for c in costs) == _total(cfg, Arch.ADIP, params, "mem_bytes")


def test_summary_structure(params):
    info = summary(BITNET_158B, params)
    assert info["model"] == "bitnet-1.58b"
    assert info["array_size"] == 32
    assert set(info["totals"]) == {"WS", "DiP", "ADiP"}
    vs = info["vs_dip"]
    assert vs["latency_improvement_pct"] == pytest.approx(53.6, abs=1.0)
    assert vs["projection_latency_improvement_pct"] == pytest.approx(75.0, abs=1.0)


def test_stage_csv_schema(params):
    buf = io.StringIO()
    write_stage_csv(evaluate(BERT_LARGE, Arch.ADIP, params), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(STAGE_CSV_COLUMNS)
    assert len(lines) == 1 + 6
    assert lines[1].startswith("QProj,ADiP,")


def test_power_factor_table_and_validation():
    assert CostParams(n=64).power(Arch.ADIP) == 1.69
    assert CostParams(n=4).power(Arch.ADIP) == 1.63
    with pytest.raises(ValueError):
        CostParams(n=12).power(Arch.ADIP)
    with pytest.raises(ValueError):
        CostParams(output_bytes=2)


@pytest.mark.parametrize(
    "arch, precision",
    [(Arch.ADIP, Precision.W8), (Arch.ADIP, Precision.W4), (Arch.ADIP, Precision.W2), (Arch.DIP, Precision.W8)],
    ids=["ADiP-W8", "ADiP-W4", "ADiP-W2", "DiP-W8"],
)
@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("mac_stages", [1, 2])
@pytest.mark.parametrize("overlap", [True, False])
def test_stage_cost_matches_simulator(arch, precision, n, mac_stages, overlap):
    """With count = r the cost model packs exactly the matrices that
    `tiling.plan` fuses, so its cycles and weight traffic must equal what the
    simulator counts on a ragged stage."""
    m, k, p = 2 * n + 1, n + 3, 2 * n - 1
    count = precision.r
    rng = np.random.default_rng(n + 10 * mac_stages)
    lo, hi = signed_range(precision.weight_bits)
    job = MatMulJob(
        a=rng.integers(-128, 128, (m, k)),
        weights=[rng.integers(lo, hi + 1, (k, p)) for _ in range(count)],
        precision=precision,
        n=n,
    )
    result = run_tiled(job, overlap_weights=overlap, mac_stages=mac_stages)
    spec = StageSpec(Stage.Q_PROJ, m=m, k=k, p=p, count=count, weight_bits=precision.weight_bits)
    params = CostParams(n=n, mac_stages=mac_stages, overlap_weights=overlap)
    assert stage_latency(spec, arch, params) == result.total_cycles
    assert stage_cost(spec, arch, params).bytes_w // n**2 == result.pass_count


def test_cost_reports_match_the_pinned_digest():
    """Every report of the three built-in models at n = 4..64 under five
    `CostParams` variants, and every `analytic.sweep()` row, is unchanged."""
    assert _fingerprint().cost_digest() == (3 * 5 * 5 + 12, COST_REPORTS_SHA256)


def test_simulator_runs_match_the_pinned_digest():
    """Outputs, cycles, passes, overflow messages and trace bytes of the
    fingerprint's random `run_tiled` configs are unchanged."""
    assert _fingerprint().run_digest(100, 0) == (600, 92, RUNS_SHA256)


def test_overflow_edge_runs_match_the_pinned_digest():
    """Every mode overflows at the limit of its largest register and fits
    one above it, untraced and traced, with the same outputs, cycles and
    trace bytes as before."""
    assert _fingerprint().edge_digest() == (224, 112, EDGE_SHA256)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    cfg=st.builds(
        MhaConfig,
        name=st.just("random"),
        layers=st.integers(1, 3),
        d_model=st.integers(1, 160),
        heads=st.integers(1, 4),
        d_k=st.integers(1, 80),
        seq_len=st.integers(1, 160),
        weight_bits=st.sampled_from([2, 4, 8]),
    ),
    params=st.builds(
        CostParams,
        n=st.sampled_from(sorted(ADIP_POWER_BY_SIZE)),
        mac_stages=st.integers(1, 3),
        overlap_weights=st.booleans(),
        count_output_writes=st.booleans(),
        output_bytes=st.sampled_from([1, 4]),
    ),
)
def test_summary_equals_its_parts(cfg, params):
    """Each total and percentage of `summary` is the one recomputed from
    `evaluate` and `stage_latency`."""
    report = summary(cfg, params)
    totals = {}
    for arch in Arch:
        costs = evaluate(cfg, arch, params)
        assert [c.cycles for c in costs] == [stage_latency(s, arch, params) for s in stages(cfg)]
        cycles = sum(c.cycles for c in costs)
        totals[arch] = {
            "cycles": cycles,
            "seconds": cycles / CLOCK_HZ,
            "energy_rel": sum(c.energy_rel for c in costs),
            "mem_bytes": sum(c.mem_bytes for c in costs),
        }
        assert report["totals"][arch.label] == totals[arch]

    def improvement(adip, dip):
        return 100.0 * (1.0 - adip / dip)

    adip, dip = totals[Arch.ADIP], totals[Arch.DIP]
    projections = [s for s in stages(cfg) if s.is_projection]
    projection_cycles = {arch: sum(stage_latency(s, arch, params) for s in projections) for arch in Arch}
    assert report["vs_dip"] == {
        "latency_improvement_pct": improvement(adip["cycles"], dip["cycles"]),
        "energy_improvement_pct": improvement(adip["energy_rel"], dip["energy_rel"]),
        "memory_savings_pct": improvement(adip["mem_bytes"], dip["mem_bytes"]),
        "projection_latency_improvement_pct": improvement(projection_cycles[Arch.ADIP], projection_cycles[Arch.DIP]),
    }
