import json
from dataclasses import asdict

import numpy as np
import pytest
from reference import projection_fraction

from adipsim.workload import (
    BERT_LARGE,
    BITNET_158B,
    GPT2_MEDIUM,
    MhaConfig,
    Stage,
    StageSpec,
    breakdown,
    builtin_models,
    config_from_dict,
    get_model,
    load_config,
    stages,
    total_ops,
)


def test_builtin_geometry():
    gpt2, bert, bitnet = builtin_models()
    assert (gpt2.layers, gpt2.d_model, gpt2.heads, gpt2.d_k) == (24, 1024, 16, 64)
    assert gpt2.seq_len == 1024 and gpt2.weight_bits == 8
    assert (bert.layers, bert.d_model, bert.heads, bert.d_k) == (24, 1024, 16, 64)
    assert bert.seq_len == 512 and bert.weight_bits == 4
    assert (bitnet.layers, bitnet.d_model, bitnet.heads, bitnet.d_k) == (30, 2560, 20, 128)
    assert bitnet.seq_len == 2048 and bitnet.weight_bits == 2
    assert bitnet.heads * bitnet.d_k == bitnet.d_model


@pytest.mark.parametrize(
    "name, expected",
    [
        ("gpt2-medium", GPT2_MEDIUM),
        ("GPT2", GPT2_MEDIUM),
        ("bert-large", BERT_LARGE),
        ("bitnet", BITNET_158B),
        ("BitNet-1.58B", BITNET_158B),
    ],
)
def test_model_lookup(name, expected):
    assert get_model(name) is expected


def test_unknown_model_rejected():
    with pytest.raises(ValueError):
        get_model("llama")
    with pytest.raises(ValueError, match="model name must be a str, got 5"):
        get_model(5)


@pytest.mark.parametrize(
    "cfg, total_gop",
    [(GPT2_MEDIUM, 309.24), (BERT_LARGE, 128.85), (BITNET_158B, 4510.0)],
)
def test_totals_match_reported_values(cfg, total_gop):
    assert total_ops(cfg) / 1e9 == pytest.approx(total_gop, rel=5e-3)


def test_gpt2_per_layer_work():
    per_layer = total_ops(GPT2_MEDIUM) / GPT2_MEDIUM.layers
    assert per_layer / 1e9 == pytest.approx(12.885, rel=5e-3)


def test_stage_shapes_and_counts():
    specs = {s.stage: s for s in stages(BITNET_158B)}
    assert list(specs) == [Stage.Q_PROJ, Stage.SCORES, Stage.ATTN, Stage.OUT_PROJ]
    s, d = BITNET_158B.seq_len, BITNET_158B.d_model
    for stage, nw in ((Stage.Q_PROJ, 3), (Stage.OUT_PROJ, 1)):
        spec = specs[stage]
        assert (spec.m, spec.k, spec.p, spec.nw) == (s, d, d, nw)
        assert spec.count == BITNET_158B.layers
        assert spec.weight_bits == 2 and spec.is_projection
        assert spec.ops == 2 * s * d * d * BITNET_158B.layers * nw
    assert specs[Stage.Q_PROJ].stage.label == "QKVProj"
    scores = specs[Stage.SCORES]
    assert (scores.m, scores.k, scores.p) == (s, BITNET_158B.d_k, s)
    assert scores.count == BITNET_158B.layers * BITNET_158B.heads
    assert scores.weight_bits == 8 and not scores.is_projection  # act-act stays 8-bit
    attn = specs[Stage.ATTN]
    assert (attn.m, attn.k, attn.p) == (s, s, BITNET_158B.d_k)


def test_stage_ops_sum_to_total():
    for cfg in builtin_models():
        assert sum(s.ops for s in stages(cfg)) == total_ops(cfg)


@pytest.mark.parametrize(
    "cfg, fraction",
    [(GPT2_MEDIUM, 2 / 3), (BERT_LARGE, 0.80), (BITNET_158B, 5 / 7)],
)
def test_projection_share(cfg, fraction):
    assert projection_fraction(cfg) == pytest.approx(fraction, abs=1e-9)
    assert 0.60 <= projection_fraction(cfg) <= 0.80


def test_breakdown_sums_to_one():
    for cfg in builtin_models():
        shares = breakdown(cfg)
        assert sum(shares.values()) == pytest.approx(1.0)
        assert all(share > 0 for share in shares.values())


def test_config_json_round_trip(tmp_path):
    doc = asdict(BERT_LARGE)
    assert config_from_dict(doc) == BERT_LARGE
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert load_config(path) == BERT_LARGE


def test_config_from_dict_validation():
    doc = asdict(GPT2_MEDIUM)
    del doc["heads"]
    with pytest.raises(ValueError):
        config_from_dict(doc)
    doc = asdict(GPT2_MEDIUM)
    doc["extra"] = 1
    with pytest.raises(ValueError):
        config_from_dict(doc)


def test_config_field_validation():
    with pytest.raises(ValueError):
        MhaConfig("bad", layers=0, d_model=8, heads=1, d_k=8, seq_len=8, weight_bits=8)
    with pytest.raises(ValueError, match="weight_bits must be 2, 4 or 8, got 3"):
        MhaConfig("bad", layers=1, d_model=8, heads=1, d_k=8, seq_len=8, weight_bits=3)
    with pytest.raises(ValueError, match="heads must be an integer, got True"):
        MhaConfig("bad", layers=1, d_model=8, heads=True, d_k=8, seq_len=8, weight_bits=8)
    with pytest.raises(ValueError, match="weight_bits must be an integer, got 8.0"):
        MhaConfig("bad", layers=1, d_model=8, heads=1, d_k=8, seq_len=8, weight_bits=8.0)


_SPEC = dict(stage=Stage.Q_PROJ, m=4, k=4, p=4, count=1, weight_bits=4)


@pytest.mark.parametrize(
    "field, value",
    [
        ("count", -2),
        ("count", 0),
        ("count", 1.5),
        ("count", True),
        ("count", "3"),
        ("nw", 0),
        ("nw", 2.0),
        ("m", -5),
        ("k", -1),
        ("p", 2.0),
        ("m", None),
        ("weight_bits", 3),
        ("weight_bits", 4.0),
        ("weight_bits", 1),
    ],
)
def test_stage_spec_rejects_shapes_that_cost_nonsense(field, value):
    """A stage spec is `count` >= 1 instances of `nw` >= 1 matrices of
    non-negative integer m, k and p at a weight width of 2, 4 or 8:
    anything else raises ValueError before `stage_cost` could bill
    negative, zero or fractional cycles."""
    with pytest.raises(ValueError, match=field):
        StageSpec(**{**_SPEC, field: value})


def test_stage_spec_accepts_zero_dims_and_numpy_integers():
    """Numpy sizes are held as Python ints, so no product of them wraps or
    overflows a fixed width."""
    spec = StageSpec(**{**_SPEC, "m": 0, "p": np.int64(3), "count": np.int32(2), "nw": np.int64(3)})
    assert spec.ops == 0
    assert all(type(getattr(spec, name)) is int for name in ("m", "k", "p", "count", "nw"))
    wide = StageSpec(**{**_SPEC, "m": np.int32(70_000), "k": np.int32(70_000), "count": np.int32(2)})
    assert wide.ops == 2 * 70_000 * 70_000 * 4 * 2


def test_stages_come_fresh_for_each_call():
    """`stages` hands out a new list of the cached specs each time."""
    first = stages(BERT_LARGE)
    first.clear()
    assert len(stages(BERT_LARGE)) == 4
