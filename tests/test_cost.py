import copy
import dataclasses
import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import grouped_run_tiled, projection_fraction, tile_packed_run_tiled

from adipsim import cost
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
from adipsim.tiling import MatMulJob, oracle_matmul, plan, run_tiled
from adipsim.workload import (
    BERT_LARGE,
    BITNET_158B,
    GPT2_MEDIUM,
    MhaConfig,
    Stage,
    StageSpec,
    stages,
)


FINGERPRINT = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"

# `tools/fingerprint.py`'s digest of its cost reports and sweep rows: 57
# documents, the reports under three `CostParams` variants. Re-taken when
# Q, K and V became one stage of three matrices: every integer field and
# every latency and memory percentage stayed; BitNet's ADiP `energy_rel`
# (1 ulp) and `energy_improvement_pct` (3 ulps) moved at n = 4 and 32, one
# product 3x * power in place of three summed x * power.
COST_REPORTS_SHA256 = "ba37999d3ad03c99bc065f5a4fbaf6c2d6fe71bee472abaf27b95c87dcd21033"
# Its digest of the stage CSVs of `evaluate` for both architectures, the
# built-in models, n = 4..64 and the same three variants: 90 tables of
# four stages a layer, taken when QKVProj replaced QProj, KProj and VProj.
STAGE_SHA256 = "4d97b92ee7c57488e8e8aa738e544705ac1ee8f9bc5a4833f9770add5affb016"
# Its digest of 100 random `run_tiled` configs from seed 0, each run untraced
# and traced at three accumulator limits: 600 runs, 34 of them overflowing,
# every one at the precision's pipeline depth with its weight loads hidden.
# Its runs match the per-cycle stepper of tests/test_closed_form.py
# (outputs, cycles, trace bytes, overflow) and, at 2^31, the oracle. The
# three run digests were re-taken when the overflow check moved from the
# in-tile psum-bus and reducer registers to the running sums over the
# reduction tiles: every record that moved overflows on one side at least.
RUNS_SHA256 = "74890b17d256e67f155e9910d1aa7cb31055cfcb733f24966fd1b6b884f98092"
# The same configs under the schedule that packed whole column tiles
# (`reference.tile_packed_run_tiled`): 34 overflows. A run's running sums
# do not depend on which weights share a word, so the count is the same.
TILE_PACKED_RUNS_SHA256 = "d73f3a95ff5fd39b33cd0516c03306b8957e7fcdb5145fa8ff21b25f82b8827c"
# Under the schedule that fused separate matrices r at a time
# (`reference.grouped_run_tiled`): 34 overflows.
GROUPED_RUNS_SHA256 = "a8d591ccf41fe73d4b1c6ce4f82aadce0117d2d4e009915fb538d7b41159ed39"
# Its digest of the overflow-edge runs (every mode, n = 1..8, all values at
# their most negative, limits at and one above the largest running sum over
# the reduction tiles).
EDGE_SHA256 = "6a8a629738dad6af6765784dc5cc41688c3b7eef1adfa48406aa798971e6a9ec"


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


def test_output_writes_flag():
    base = CostParams()
    counting = CostParams(output_bytes=1)
    spilling = CostParams(output_bytes=4)
    spec = stages(BERT_LARGE)[0]
    assert stage_cost(spec, Arch.DIP, base).bytes_out == 0
    one_byte = stage_cost(spec, Arch.DIP, counting).bytes_out
    assert one_byte > 0
    assert stage_cost(spec, Arch.DIP, spilling).bytes_out == 4 * one_byte


def test_costs_additive_and_non_negative(params):
    for cfg in (GPT2_MEDIUM, BERT_LARGE, BITNET_158B):
        costs = evaluate(cfg, Arch.ADIP, params)
        assert len(costs) == 4
        assert all(c.cycles > 0 and c.energy_rel > 0 for c in costs)
        assert sum(c.cycles for c in costs) == _total(cfg, Arch.ADIP, params, "cycles")
        assert sum(c.mem_bytes for c in costs) == _total(cfg, Arch.ADIP, params, "mem_bytes")


def test_summary_structure(params):
    info = summary(BITNET_158B, params)
    assert info["model"] == "bitnet-1.58b"
    assert info["array_size"] == 32
    assert set(info["totals"]) == {"DiP", "ADiP"}
    vs = info["vs_dip"]
    assert vs["latency_improvement_pct"] == pytest.approx(53.6, abs=1.0)
    assert vs["projection_latency_improvement_pct"] == pytest.approx(75.0, abs=1.0)


def test_summary_caches_no_report(params):
    """Each call builds its own report: changing one call's nested dicts
    leaves the next call's report as it was."""
    first, second = summary(BITNET_158B, params), summary(BITNET_158B, params)
    assert first is not second and first == second
    for outer in ("totals", "vs_dip"):
        assert first[outer] is not second[outer]
    expected = copy.deepcopy(second)
    first["totals"]["DiP"]["cycles"] = -1
    first["totals"]["ADiP"].clear()
    first["vs_dip"]["latency_improvement_pct"] = 0.0
    first["model"] = "x"
    assert summary(BITNET_158B, params) == second == expected


def test_stage_csv_schema(params):
    buf = io.StringIO()
    write_stage_csv(evaluate(BERT_LARGE, Arch.ADIP, params), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(STAGE_CSV_COLUMNS)
    assert len(lines) == 1 + 4
    assert lines[1].startswith("QKVProj,ADiP,")


def test_cost_params_are_frozen():
    """A value is checked when the params are built and cannot be changed
    after, so `stage_cost` never reads one `__post_init__` would reject."""
    params = CostParams(output_bytes=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.output_bytes = 3
    assert params.output_bytes == 1


def test_power_factor_table_and_validation():
    assert CostParams(n=64).power(Arch.ADIP) == 1.69
    assert CostParams(n=4).power(Arch.ADIP) == 1.63
    with pytest.raises(ValueError):
        CostParams(n=12).power(Arch.ADIP)
    with pytest.raises(ValueError, match="no adaptive-array power factor for size 12"):
        summary(BERT_LARGE, CostParams(n=12))
    for good in (0, 1, 4):
        assert CostParams(output_bytes=good).output_bytes == good
    for bad in (2, 3):
        with pytest.raises(ValueError, match="output_bytes must be 0, 1 or 4"):
            CostParams(output_bytes=bad)
    for bad in (True, 4.0):
        with pytest.raises(ValueError, match="output_bytes must be an integer"):
            CostParams(output_bytes=bad)


@pytest.mark.parametrize(
    "arch, precision",
    [(Arch.ADIP, Precision.W8), (Arch.ADIP, Precision.W4), (Arch.ADIP, Precision.W2), (Arch.DIP, Precision.W8)],
    ids=["ADiP-W8", "ADiP-W4", "ADiP-W2", "DiP-W8"],
)
@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("fills", [1, 2])
def test_stage_cost_matches_simulator(arch, precision, n, fills):
    """A stage of count = r or 2r instances, each with its own input (enough
    to fill one or two words' r weight fields, were they packed together),
    costs what the simulator counts over that many separate single-matrix
    jobs of a ragged shape: the same cycles, and as many passes as weight
    tiles billed."""
    m, k, p = 2 * n + 1, n + 3, 2 * n - 1
    count = fills * precision.r
    rng = np.random.default_rng(n + 10 * fills)
    lo, hi = signed_range(precision.weight_bits)
    results = [
        run_tiled(
            MatMulJob(
                a=rng.integers(-128, 128, (m, k)),
                weights=[rng.integers(lo, hi + 1, (k, p))],
                precision=precision,
                n=n,
            )
        )
        for _ in range(count)
    ]
    spec = StageSpec(Stage.Q_PROJ, m=m, k=k, p=p, count=count, weight_bits=precision.weight_bits)
    params = CostParams(n=n)
    assert stage_latency(spec, arch, params) == sum(result.total_cycles for result in results)
    assert stage_cost(spec, arch, params).bytes_w // n**2 == sum(result.pass_count for result in results)


# -- cost from simulated runs, stage by stage ---------------------------------


def _instance(spec, precision, n, params, rng):
    """One instance of `spec` through `run_tiled` at `precision`: one job of
    a random int8 input times the stage's `nw` weight matrices, which share
    it, every output checked against the oracle. Returns the run's cycles
    and passes, and the bytes it moves in `cost`'s units: tm * n streamed
    rows of n bytes and n^2 stationary words per pass."""
    lo, hi = signed_range(precision.weight_bits)
    job = MatMulJob(
        a=rng.integers(-128, 128, (spec.m, spec.k), dtype=np.int8),
        weights=[rng.integers(lo, hi + 1, (spec.k, spec.p), dtype=np.int8) for _ in range(spec.nw)],
        precision=precision,
        n=n,
    )
    result = run_tiled(job)
    for got, want in zip(result.outputs, oracle_matmul(job), strict=True):
        assert np.array_equal(got, want)
    passes = result.pass_count
    return result.total_cycles, passes, passes * plan(job).tm * n * n, passes * n * n


def _simulated_costs(cfg, params, seed):
    """Per stage of `cfg` and architecture, (cycles, passes, bytes_in,
    bytes_w) from simulated runs: one instance, its `nw` matrices on one
    input, at the precision the architecture runs the stage at (ADiP's
    projections at the weight width, all else 8-bit) times the stage's
    `count`. Each distinct instance runs once."""
    rng = np.random.default_rng(seed)
    runs = {}
    costs = {}
    for spec in stages(cfg):
        for arch in Arch:
            packed = arch is Arch.ADIP and spec.is_projection
            precision = Precision.from_bits(spec.weight_bits) if packed else Precision.W8
            key = (spec.m, spec.k, spec.p, spec.nw, precision)
            if key not in runs:
                runs[key] = _instance(spec, precision, params.n, params, rng)
            costs[spec.stage, arch] = tuple(spec.count * x for x in runs[key])
    return costs


def _billed(cfg, params):
    """`stage_cost`'s (cycles, passes, bytes_in, bytes_w) per stage and
    architecture."""
    return {
        (spec.stage, arch): (c.cycles, c.bytes_w // params.n**2, c.bytes_in, c.bytes_w)
        for arch in Arch
        for spec, c in zip(stages(cfg), evaluate(cfg, arch, params))
    }


# 1 layer at n = 8: the geometry on which the grouped schedule took 80 ADiP
# passes at every width. And a ragged one at n = 4: d_model = 20 gives
# projections of tp = 5 column tiles, a multiple of neither r = 2 nor 4,
# and seq_len = 9 an M of 2 row tiles and a row.
_SMALL = MhaConfig("one-layer", layers=1, d_model=32, heads=2, d_k=16, seq_len=16, weight_bits=8)
_RAGGED = MhaConfig("ragged", layers=2, d_model=20, heads=3, d_k=6, seq_len=9, weight_bits=8)


@pytest.mark.parametrize("bits", [8, 4, 2])
@pytest.mark.parametrize(
    "cfg, params",
    [
        (_SMALL, CostParams(n=8)),
        (_RAGGED, CostParams(n=4)),
    ],
    ids=["one-layer", "ragged"],
)
def test_stage_cost_is_what_the_simulator_runs(cfg, params, bits):
    """On scaled-down geometries, every stage's cycles, passes, input bytes
    and weight bytes under DiP and ADiP equal those of simulated runs."""
    cfg = MhaConfig(**{**dataclasses.asdict(cfg), "weight_bits": bits})
    assert _simulated_costs(cfg, params, seed=bits) == _billed(cfg, params)


def test_fused_projections_save_passes_on_a_ragged_geometry():
    """At W2 on n = 4, d_model = 20 gives tp = 5 column tiles a matrix. Q, K
    and V's 60 columns share the r * n = 16 output slots of a pass as one
    job: ceil(60 / 16) = 4 passes a reduction tile, 20 a layer, billed and
    run. Alone, each matrix takes ceil(20 / 16) = 2, so three would take 30."""
    cfg = MhaConfig(**{**dataclasses.asdict(_RAGGED), "weight_bits": 2})
    params = CostParams(n=4)
    simulated = _simulated_costs(cfg, params, seed=2)
    assert simulated == _billed(cfg, params)
    assert simulated[Stage.Q_PROJ, Arch.ADIP][1] == 20 * cfg.layers
    assert simulated[Stage.OUT_PROJ, Arch.ADIP][1] == 10 * cfg.layers


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    cfg=st.builds(
        MhaConfig,
        name=st.just("random"),
        layers=st.integers(1, 3),
        d_model=st.integers(1, 96),
        heads=st.just(1),
        d_k=st.just(8),
        seq_len=st.integers(1, 96),
        weight_bits=st.sampled_from([2, 4, 8]),
    ),
    n=st.sampled_from(sorted(ADIP_POWER_BY_SIZE)),
)
def test_fused_projections_cost_at_most_three_matrices_alone(cfg, n):
    """QKVProj is OutProj's shape with nw = 3. Packing the three matrices'
    columns together costs at most 3x one matrix's cycles, input bytes and
    weight words, and exactly 3x when the r * n output slots of a pass
    divide P (r = 1 on DiP and for 8-bit weights); its padded outputs are
    3x always."""
    params = CostParams(n=n, output_bytes=1)
    specs = {spec.stage: spec for spec in stages(cfg)}
    qkv, out = specs[Stage.Q_PROJ], specs[Stage.OUT_PROJ]
    assert (qkv.nw, out.nw) == (3, 1)
    assert dataclasses.replace(qkv, stage=Stage.OUT_PROJ, nw=1) == out
    fields = ("cycles", "bytes_in", "bytes_w")
    for arch in Arch:
        fused, alone = stage_cost(qkv, arch, params), stage_cost(out, arch, params)
        fused_fields, alone_fields = ([getattr(c, f) for f in fields] for c in (fused, alone))
        assert all(f <= 3 * a for f, a in zip(fused_fields, alone_fields))
        r = 8 // cfg.weight_bits if arch is Arch.ADIP else 1
        if cfg.d_model % (r * n) == 0:
            assert fused_fields == [3 * a for a in alone_fields]
        assert fused.bytes_out == 3 * alone.bytes_out


def test_one_layer_adip_passes_and_cycles():
    """The simulated ADiP totals of the one-layer geometry at n = 8: the
    projections take a quarter (W2) or half (W4) of DiP's passes."""
    params = CostParams(n=8)
    totals = {}
    for bits in (2, 4, 8):
        costs = _simulated_costs(MhaConfig(**{**dataclasses.asdict(_SMALL), "weight_bits": bits}), params, seed=bits)
        for arch in (Arch.ADIP, Arch.DIP):
            label = f"{arch.label}-W{bits}"
            totals[label] = tuple(sum(costs[spec.stage, arch][i] for spec in stages(_SMALL)) for i in (1, 0))
    assert totals["ADiP-W2"] == (32, 768)
    assert totals["ADiP-W4"] == (48, 1168)
    assert totals["ADiP-W8"] == totals["DiP-W8"] == totals["DiP-W2"] == (80, 2000)


# c08-c10 at n = 32: (value, tolerance) of each improvement over DiP.
_PAPER_TARGETS = {
    "gpt2-medium": {"latency": (0.0, 0.0), "projection": (0.0, 0.0), "energy": (-62.8, 1.5), "memory": (0.0, 0.0)},
    "bert-large": {"latency": (40.0, 1.0), "projection": (50.0, 1.0), "energy": (2.3, 1.5), "memory": (40.0, 2.5)},
    "bitnet-1.58b": {"latency": (53.6, 1.0), "projection": (75.0, 1.0), "energy": (24.4, 1.5), "memory": (53.6, 2.5)},
}


@pytest.mark.parametrize("cfg", [GPT2_MEDIUM, BERT_LARGE, BITNET_158B], ids=lambda cfg: cfg.name)
def test_builtin_models_at_paper_size_from_simulated_runs(cfg):
    """One instance of each distinct stage of a built-in model, at n = 32,
    through `run_tiled`: outputs equal the oracle's, each stage times its
    count is what `stage_cost` bills, and the improvements of ADiP over
    DiP from the simulated totals (energy as cycles times the power
    factor, memory as input plus weight bytes) meet c08-c10."""
    params = CostParams(n=32)
    costs = _simulated_costs(cfg, params, seed=32)
    assert costs == _billed(cfg, params)

    def total(arch, projections_only=False):
        return [
            sum(costs[spec.stage, arch][i] for spec in stages(cfg) if spec.is_projection or not projections_only)
            for i in range(4)
        ]

    adip, dip = total(Arch.ADIP), total(Arch.DIP)
    got = {
        "latency": 100.0 * (1.0 - adip[0] / dip[0]),
        "projection": 100.0 * (1.0 - total(Arch.ADIP, True)[0] / total(Arch.DIP, True)[0]),
        "energy": 100.0 * (1.0 - adip[0] * params.power(Arch.ADIP) / (dip[0] * params.power(Arch.DIP))),
        "memory": 100.0 * (1.0 - (adip[2] + adip[3]) / (dip[2] + dip[3])),
    }
    for key, (want, tolerance) in _PAPER_TARGETS[cfg.name].items():
        assert abs(got[key] - want) <= tolerance, (key, got[key])


def test_cost_reports_match_the_pinned_digest():
    """Every report of the three built-in models at n = 4..64 under three
    `CostParams` variants, and every `analytic.sweep()` row, is unchanged."""
    assert _fingerprint().cost_digest() == (3 * 5 * 3 + 12, COST_REPORTS_SHA256)


def test_stage_tables_match_the_pinned_digest():
    """Every stage row, with its split of traffic into input, weight and
    output bytes, of the same reports is unchanged."""
    assert _fingerprint().stage_digest() == (3 * 5 * 3 * 2, STAGE_SHA256)


@pytest.mark.parametrize("cfg", [GPT2_MEDIUM, BERT_LARGE, BITNET_158B], ids=lambda cfg: cfg.name)
def test_each_billed_instance_is_planned_once(cfg):
    """A report builds one plan per distinct billed (m, k, p, nw, bits); a
    second report, and `evaluate` and `stage_latency` after it, read those
    records."""
    params = CostParams(n=32)
    billed = {
        (s.m, s.k, s.p, s.nw, s.weight_bits if arch is Arch.ADIP and s.is_projection else 8)
        for s in stages(cfg)
        for arch in Arch
    }
    cost._instance.cache_clear()
    summary(cfg, params)
    assert cost._instance.cache_info().misses == len(billed)
    summary(cfg, params)
    for arch in Arch:
        evaluate(cfg, arch, params)
        for spec in stages(cfg):
            stage_latency(spec, arch, params)
    assert cost._instance.cache_info().misses == len(billed)


def test_the_width_rule_has_one_home(monkeypatch):
    """`_records` alone picks the billed widths: with it patched to bill
    ADiP at 8 bits everywhere, `summary` and `evaluate` bill ADiP as DiP."""
    params = CostParams(n=32)
    before = summary(BITNET_158B, params)["totals"]
    assert before["ADiP"]["cycles"] != before["DiP"]["cycles"]
    records = cost._records
    monkeypatch.setattr(cost, "_records", lambda spec, n: (records(spec, n)[0],) * 2)
    cost._instance.cache_clear()
    try:
        totals = summary(BITNET_158B, params)["totals"]
        for total in ("cycles", "mem_bytes"):
            assert totals["ADiP"][total] == totals["DiP"][total]
        billed = {
            arch: [(c.cycles, c.bytes_in, c.bytes_w, c.bytes_out) for c in evaluate(BITNET_158B, arch, params)]
            for arch in Arch
        }
        assert billed[Arch.ADIP] == billed[Arch.DIP]
    finally:
        cost._instance.cache_clear()


def test_simulator_runs_match_the_pinned_digest():
    """Outputs, cycles, passes, overflow messages and trace bytes of the
    fingerprint's random `run_tiled` configs are unchanged."""
    assert _fingerprint().run_digest(100, 0) == (600, 34, RUNS_SHA256)


def test_tile_packed_schedule_keeps_its_run_digest():
    assert _fingerprint().run_digest(100, 0, tile_packed_run_tiled) == (600, 34, TILE_PACKED_RUNS_SHA256)


def test_grouped_schedule_keeps_the_old_run_digest():
    """The engine is unchanged: the fingerprint's configs under the schedule
    its older digest was taken with give that digest."""
    assert _fingerprint().run_digest(100, 0, grouped_run_tiled) == (600, 34, GROUPED_RUNS_SHA256)


def test_overflow_edge_runs_match_the_pinned_digest():
    """Every mode overflows at the limit of its largest running sum and
    fits one above it, untraced and traced, with the same outputs, cycles
    and trace bytes as before."""
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
        output_bytes=st.sampled_from([0, 1, 4]),
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
