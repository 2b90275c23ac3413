"""Relative latency, energy and memory-traffic models for attention stages.

Two architectures share one pass structure, `tiling.TiledPlan`: a pass
pins one stationary weight tile and streams every input row tile through
the array. One instance of a stage is billed from one cached record of
its plan (`_instance`): the plan's cycles, input bytes, stationary words
and output elements, each read once from `TiledPlan.from_shape`. One
private billing path (`_bills`) turns a list of stages into their bills:
it picks each stage's billed width and multiplies the cached record of
one instance by the stage's `count`. `evaluate` (and through it
`stage_cost`, `stage_latency` and the stage CSV) builds a `StageCost`
from each bill; `summary` sums the bills' plain values and builds none.
Both bill what `tiling.run_tiled` runs: a stage bills the cycles and
passes of its instances' simulated runs, each weight load hidden behind
the previous pass as in the evaluated configuration.

* DiP  -- diagonal-input baseline, 8-bit only: one weight matrix per pass.
* ADiP -- adaptive precision: a projection runs at its weight precision,
          packed as `TiledPlan` packs one matrix for `tiling.run_tiled`.
          Instances have separate inputs and are never packed together.
          Stages between two activation tensors cannot be packed and match
          DiP exactly.

Energy is modeled relatively as cycles times a per-architecture power
factor (DiP = 1.0); absolute joules are out of scope. Memory traffic
counts 1-byte activation reads per streamed element and one stationary
word per array cell per pass; output writes cost `output_bytes` per
element: 0 (not counted, the default), 1 (requantized) or 4 (raw
accumulator).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import IO, Iterable, NamedTuple

from .numerics import check_size
from .preprocess import Precision
from .tiling import TiledPlan
from .workload import MhaConfig, StageSpec, stages

STAGE_CSV_COLUMNS = ("stage", "arch", "cycles", "energy_rel", "bytes_in", "bytes_w", "bytes_out")

CLOCK_HZ = 1e9

# Power of each architecture relative to the 8-bit DiP baseline; the
# adaptive array's is measured by array size.
DIP_POWER = 1.0
ADIP_POWER_BY_SIZE = {4: 1.63, 8: 1.59, 16: 1.57, 32: 1.63, 64: 1.69}


class Arch(Enum):
    DIP = "DiP"
    ADIP = "ADiP"

    def __init__(self, label: str) -> None:
        self.label = label  # a plain attribute, as `Precision.weight_bits` is


_ARCHS = tuple(Arch)  # iterating the tuple skips the enum class's iterator on every report


@dataclass(frozen=True)
class CostParams:
    """Cost-model knobs; defaults match the evaluated 32 x 32 configuration."""

    n: int = 32
    output_bytes: int = 0  # per output element: 0 = not counted, 1 = requantized, 4 = raw psum spill

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_size(self.n))
        if self.output_bytes not in (0, 1, 4):
            raise ValueError("output_bytes must be 0, 1 or 4")
        # True and 4.0 are not sizes
        object.__setattr__(self, "output_bytes", check_size(self.output_bytes, "output_bytes", least=0))

    def power(self, arch: Arch) -> float:
        if arch is Arch.DIP:
            return DIP_POWER
        if self.n not in ADIP_POWER_BY_SIZE:
            raise ValueError(f"no adaptive-array power factor for size {self.n}")
        return ADIP_POWER_BY_SIZE[self.n]


@dataclass(frozen=True)
class StageCost:
    """Additive cost of one stage on one architecture."""

    stage: str
    arch: Arch
    cycles: int
    energy_rel: float
    bytes_in: int
    bytes_w: int
    bytes_out: int

    @property
    def mem_bytes(self) -> int:
        return self.bytes_in + self.bytes_w + self.bytes_out


def stage_latency(spec: StageSpec, arch: Arch, params: CostParams) -> int:
    """Total cycles of one stage: pass count times per-pass latency."""
    return stage_cost(spec, arch, params).cycles


class _Bill(NamedTuple):
    """The billing record of one instance of a stage, read once from its plan."""

    cycles: int
    input_bytes: int
    weight_words: int
    output_elements: int


@lru_cache(maxsize=1024)
def _instance(m: int, k: int, p: int, weight_bits: int, n: int) -> _Bill:
    """The billing record of one instance of a stage; a report asks for few
    distinct ones, so each plan is built and read once."""
    plan = TiledPlan.from_shape(m, k, p, 1, Precision.from_bits(weight_bits), n)
    return _Bill(plan.cycles, plan.input_bytes, plan.weight_words, plan.output_elements)


def _bills(specs: list[StageSpec], arch: Arch, params: CostParams) -> list[tuple[int, int, int, int]]:
    """The cycles, input bytes, stationary words and output bytes of each
    stage in `specs`, in order.

    ADiP runs a projection at its weight precision, packing the column
    tiles of one instance into the r weight fields of a pass; every other
    stage runs 8-bit, one column tile per pass. Each of the `count`
    instances streams its own input, so a stage costs `count` times the
    cached record of one instance.
    """
    packs = arch is Arch.ADIP
    n, out_bytes = params.n, params.output_bytes
    bills = []
    for spec in specs:
        bits = spec.weight_bits if packs and spec.is_projection else 8
        cycles, input_bytes, weight_words, outputs = _instance(spec.m, spec.k, spec.p, bits, n)
        count = spec.count
        bills.append((count * cycles, count * input_bytes, count * weight_words, count * outputs * out_bytes))
    return bills


def _costs(specs: list[StageSpec], arch: Arch, params: CostParams) -> list[StageCost]:
    power = params.power(arch)
    return [
        StageCost(spec.stage.label, arch, cycles, cycles * power, bytes_in, bytes_w, bytes_out)
        for spec, (cycles, bytes_in, bytes_w, bytes_out) in zip(specs, _bills(specs, arch, params))
    ]


def stage_cost(spec: StageSpec, arch: Arch, params: CostParams) -> StageCost:
    """Cycles, energy and traffic of one stage, billed as `evaluate` bills it."""
    return _costs([spec], arch, params)[0]


def evaluate(cfg: MhaConfig, arch: Arch, params: CostParams) -> list[StageCost]:
    return _costs(stages(cfg), arch, params)


def _pct_change(new: float, ref: float) -> float:
    """Percent improvement of `new` over `ref`; negative means overhead."""
    return 100.0 * (1.0 - new / ref)


def summary(cfg: MhaConfig, params: CostParams) -> dict:
    """All totals plus the improvement percentages of ADiP relative to DiP.

    Per architecture, the bills of `evaluate`'s billing path are added to
    the totals, with no `StageCost` built. The sums start from 0 and run in
    stage order so that every total equals the sum of `evaluate`'s costs
    exactly: the energy is a float, and a float sum taken in another order
    can differ in its last bit.
    """
    specs = stages(cfg)
    totals = {}
    projection = []
    for arch in _ARCHS:
        power = params.power(arch)
        cycles = energy = mem_bytes = projection_cycles = 0
        for spec, (stage_cycles, bytes_in, bytes_w, bytes_out) in zip(specs, _bills(specs, arch, params)):
            cycles += stage_cycles
            energy += stage_cycles * power
            mem_bytes += bytes_in + bytes_w + bytes_out
            if spec.is_projection:
                projection_cycles += stage_cycles
        totals[arch.label] = {
            "cycles": cycles,
            "seconds": cycles / CLOCK_HZ,
            "energy_rel": energy,
            "mem_bytes": mem_bytes,
        }
        projection.append(projection_cycles)
    dip, adip = totals[Arch.DIP.label], totals[Arch.ADIP.label]
    dip_projection, adip_projection = projection  # in `_ARCHS` order
    return {
        "model": cfg.name,
        "array_size": params.n,
        "weight_bits": cfg.weight_bits,
        "totals": totals,
        "vs_dip": {
            "latency_improvement_pct": _pct_change(adip["cycles"], dip["cycles"]),
            "energy_improvement_pct": _pct_change(adip["energy_rel"], dip["energy_rel"]),
            "memory_savings_pct": _pct_change(adip["mem_bytes"], dip["mem_bytes"]),
            "projection_latency_improvement_pct": _pct_change(adip_projection, dip_projection),
        },
    }


def write_stage_csv(costs: Iterable[StageCost], fh: IO[str]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(STAGE_CSV_COLUMNS)
    for c in costs:
        writer.writerow(
            [c.stage, c.arch.label, c.cycles, f"{c.energy_rel:.3f}", c.bytes_in, c.bytes_w, c.bytes_out]
        )
