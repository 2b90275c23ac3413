"""Multi-head-attention matmul workloads and their operation counts.

Each layer contributes four matmul stages. The query, key and value
projections are one stage whose three d_model x d_model weight matrices
share one input (all heads at once), the paper's multi-matrix mode; score
and attention-output products run per head, and the output projection
once:

    QKVProj: (s x d_model) . 3 x (d_model x d_model)   per layer
    Scores:  (s x d_k)     . (d_k x s)                 per layer, per head
    Attn:    (s x s)       . (s x d_k)                 per layer, per head
    OutProj: (s x d_model) . (d_model x d_model)       per layer

Projections multiply activations by weights and inherit the model's weight
precision; score/attention products are activation-activation and always
run 8-bit by 8-bit. Softmax and scaling are not matmuls and are not
counted. One multiply plus one add counts as two operations.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass
from enum import Enum
from typing import Union

from .numerics import ACT_BITS, VALID_WIDTHS, check_size, check_type


class Stage(Enum):
    Q_PROJ = "QKVProj"  # the query, key and value projections: one input, three matrices
    SCORES = "Scores"
    ATTN = "Attn"
    OUT_PROJ = "OutProj"

    def __init__(self, label: str) -> None:
        self.label = label  # a plain attribute: an Enum property reads the slower `value` descriptor


PROJECTION_STAGES = (Stage.Q_PROJ, Stage.OUT_PROJ)


@dataclass(frozen=True)
class MhaConfig:
    """Transformer attention geometry plus the deployed weight precision."""

    name: str
    layers: int
    d_model: int
    heads: int
    d_k: int
    seq_len: int
    weight_bits: int

    def __post_init__(self) -> None:
        check_type(self.name, str, "name")
        for field_name in ("layers", "d_model", "heads", "d_k", "seq_len"):
            check_size(getattr(self, field_name), field_name)
        if check_size(self.weight_bits, "weight_bits", least=None) not in VALID_WIDTHS:
            raise ValueError(f"weight_bits must be 2, 4 or 8, got {self.weight_bits}")


@dataclass(frozen=True)
class StageSpec:
    """One matmul stage: an M x K input times `nw` K x P matrices that share
    it, run `count` times, each instance with its own input (layers, or
    layers x heads), and the width of the matrices' elements; the input is
    8-bit. `ops` counts all count x nw products. `count` and `nw` are
    positive integers, m, k and p are non-negative integers and
    `weight_bits` is 2, 4 or 8; anything else raises ValueError."""

    stage: Stage
    m: int
    k: int
    p: int
    count: int
    weight_bits: int
    nw: int = 1

    def __post_init__(self) -> None:
        # held as Python ints: a numpy one would make `ops` and every
        # billed total fixed-width
        for name, least in (("m", 0), ("k", 0), ("p", 0), ("count", 1), ("nw", 1)):
            object.__setattr__(self, name, check_size(getattr(self, name), name, least=least))
        if check_size(self.weight_bits, "weight_bits") not in VALID_WIDTHS:
            raise ValueError(f"weight_bits must be 2, 4 or 8, got {self.weight_bits}")
        # a plain attribute, not a field: read per stage on every cost report
        object.__setattr__(self, "is_projection", self.stage in PROJECTION_STAGES)

    @property
    def ops(self) -> int:
        return 2 * self.m * self.k * self.p * self.count * self.nw


GPT2_MEDIUM = MhaConfig("gpt2-medium", layers=24, d_model=1024, heads=16, d_k=64, seq_len=1024, weight_bits=8)
BERT_LARGE = MhaConfig("bert-large", layers=24, d_model=1024, heads=16, d_k=64, seq_len=512, weight_bits=4)
BITNET_158B = MhaConfig("bitnet-1.58b", layers=30, d_model=2560, heads=20, d_k=128, seq_len=2048, weight_bits=2)

_ALIASES = {
    "gpt2-medium": GPT2_MEDIUM,
    "gpt2": GPT2_MEDIUM,
    "bert-large": BERT_LARGE,
    "bert": BERT_LARGE,
    "bitnet-1.58b": BITNET_158B,
    "bitnet": BITNET_158B,
}


def builtin_models() -> tuple[MhaConfig, MhaConfig, MhaConfig]:
    return GPT2_MEDIUM, BERT_LARGE, BITNET_158B


def get_model(name: str) -> MhaConfig:
    try:
        return _ALIASES[check_type(name, str, "model name").strip().lower()]
    except KeyError:
        known = ", ".join(m.name for m in builtin_models())
        raise ValueError(f"unknown model {name!r}; builtin models: {known}") from None


def stages(cfg: MhaConfig) -> list[StageSpec]:
    """The four stages of `cfg`, in order: QKVProj, Scores, Attn and
    OutProj. `nw` is 3 for QKVProj, whose query, key and value matrices
    share each input, and 1 for the others; `count` is the number of
    separate inputs, `layers` for a projection and `layers * heads` for a
    per-head stage. The frozen specs of a geometry are built and
    validated once (`_stages`); each call gets a new list."""
    return list(_stages(cfg))


@functools.lru_cache(maxsize=64)
def _stages(cfg: MhaConfig) -> tuple[StageSpec, ...]:
    s, d = cfg.seq_len, cfg.d_model
    per_head = cfg.layers * cfg.heads
    proj = dict(m=s, k=d, p=d, count=cfg.layers, weight_bits=cfg.weight_bits)
    return (
        StageSpec(Stage.Q_PROJ, **proj, nw=3),
        StageSpec(Stage.SCORES, m=s, k=cfg.d_k, p=s, count=per_head, weight_bits=ACT_BITS),
        StageSpec(Stage.ATTN, m=s, k=s, p=cfg.d_k, count=per_head, weight_bits=ACT_BITS),
        StageSpec(Stage.OUT_PROJ, **proj),
    )


def total_ops(cfg: MhaConfig) -> int:
    return sum(spec.ops for spec in stages(cfg))


def breakdown(cfg: MhaConfig) -> dict[Stage, float]:
    """Per-stage share of the total operation count; shares sum to 1."""
    total = total_ops(cfg)
    return {spec.stage: spec.ops / total for spec in stages(cfg)}


def config_from_dict(doc: dict) -> MhaConfig:
    if not isinstance(doc, dict):
        raise ValueError(f"model document must be a JSON object, got {type(doc).__name__}")
    required = {"name", "layers", "d_model", "heads", "d_k", "seq_len", "weight_bits"}
    missing = required - doc.keys()
    if missing:
        raise ValueError(f"model document missing fields: {sorted(missing)}")
    extra = doc.keys() - required
    if extra:
        raise ValueError(f"model document has unknown fields: {sorted(extra)}")
    return MhaConfig(**doc)


def _unique_fields(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's fields as a dict; a repeated field raises
    ValueError naming it, where `json` alone keeps its last value."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"model document repeats field {key!r}")
        doc[key] = value
    return doc


def load_config(source: Union[str, os.PathLike]) -> MhaConfig:
    """Read a model geometry document from a JSON file."""
    with open(source, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh, object_pairs_hook=_unique_fields))
