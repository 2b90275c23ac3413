"""Relative latency, energy and memory-traffic models for attention stages.

Both architectures bill `tiling.TiledPlan`, the pass structure that
`tiling.run_tiled` runs: a pass pins one stationary weight tile and
streams every input row tile through the array, its weight load hidden
behind the previous pass as in the evaluated configuration, so no cycle
or byte is this module's own. One instance of a stage, its input times
the stage's nw matrices as one job, is billed from one cached record of
its plan (`_instance`), `_records` holds the width rule, and `evaluate`
and `summary` read those records.

* DiP  -- diagonal-input baseline, 8-bit only: one weight column tile per
          pass, the nw matrices laid side by side.
* ADiP -- adaptive precision: a projection runs at its weight precision,
          its nw matrices packed together into the r weight fields of a
          word as `TiledPlan` packs them. Stages between two activation
          tensors cannot be packed and match DiP exactly.

Energy is modeled relatively as cycles times a per-architecture power
factor (DiP = 1.0); absolute joules are out of scope. Memory traffic
counts 1-byte activation reads per streamed element and one stationary
word per array cell per pass; output writes cost `CostParams.output_bytes`
per element.
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


# module names for the members: looking a member up on its enum class is
# slow on Python 3.11, and a report reads both
_DIP, _ADIP = Arch


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
        if arch is _DIP:
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
def _instance(m: int, k: int, p: int, nw: int, weight_bits: int, n: int) -> _Bill:
    """The billing record of one instance of a stage, an M x K input times
    nw K x P matrices; a report asks for few distinct ones, so each plan is
    built and read once."""
    plan = TiledPlan.from_shape(m, k, p, nw, Precision.from_bits(weight_bits), n)
    return _Bill(plan.cycles, plan.input_bytes, plan.weight_words, plan.output_elements)


def _records(spec: StageSpec, n: int) -> tuple[_Bill, _Bill]:
    """The DiP and ADiP records of one instance of `spec` on an n x n array.

    An instance is one job, its input streamed once per pass for all nw
    matrices that share it, planned by `TiledPlan`. DiP runs every stage
    8-bit. ADiP runs a projection at its weight precision, the columns of
    all nw matrices packed into the r weight fields of each pass, and
    every other stage 8-bit. Each of a stage's `count` instances streams
    its own input, so the stage costs `count` times its record.
    """
    dip = _instance(spec.m, spec.k, spec.p, spec.nw, 8, n)
    if spec.is_projection:
        return dip, _instance(spec.m, spec.k, spec.p, spec.nw, spec.weight_bits, n)
    return dip, dip


def stage_cost(spec: StageSpec, arch: Arch, params: CostParams) -> StageCost:
    """Cycles, energy and traffic of one stage on `arch`."""
    power = params.power(arch)
    dip, adip = _records(spec, params.n)
    cycles, input_bytes, weight_words, outputs = adip if arch is _ADIP else dip
    count = spec.count
    cycles *= count
    return StageCost(
        spec.stage.label,
        arch,
        cycles,
        cycles * power,
        count * input_bytes,
        count * weight_words,
        count * outputs * params.output_bytes,
    )


def evaluate(cfg: MhaConfig, arch: Arch, params: CostParams) -> list[StageCost]:
    return [stage_cost(spec, arch, params) for spec in stages(cfg)]


def _pct_change(new: float, ref: float) -> float:
    """Percent improvement of `new` over `ref`; negative means overhead."""
    return 100.0 * (1.0 - new / ref)


def summary(cfg: MhaConfig, params: CostParams) -> dict:
    """All totals plus the improvement percentages of ADiP relative to DiP.

    One walk over the stages reads each stage's two records and adds them,
    `count` times, into both architectures' totals, with no `StageCost`
    built. The sums start from 0 and run in stage order so that every total
    equals the sum of `evaluate`'s costs exactly: the energy is a float, and
    a float sum taken in another order can differ in its last bit.
    """
    n, out_bytes = params.n, params.output_bytes
    dip_power, adip_power = params.power(_DIP), params.power(_ADIP)
    dip_cycles = dip_energy = dip_bytes = dip_projection = 0
    adip_cycles = adip_energy = adip_bytes = adip_projection = 0
    for spec in stages(cfg):
        dip, adip = _records(spec, n)
        count = spec.count
        cycles, input_bytes, weight_words, outputs = dip
        dip_stage = cycles * count
        dip_cycles += dip_stage
        dip_energy += dip_stage * dip_power
        dip_bytes += count * (input_bytes + weight_words + outputs * out_bytes)
        cycles, input_bytes, weight_words, outputs = adip
        adip_stage = cycles * count
        adip_cycles += adip_stage
        adip_energy += adip_stage * adip_power
        adip_bytes += count * (input_bytes + weight_words + outputs * out_bytes)
        if spec.is_projection:
            dip_projection += dip_stage
            adip_projection += adip_stage
    return {
        "model": cfg.name,
        "array_size": n,
        "weight_bits": cfg.weight_bits,
        "totals": {
            _DIP.label: {
                "cycles": dip_cycles,
                "seconds": dip_cycles / CLOCK_HZ,
                "energy_rel": dip_energy,
                "mem_bytes": dip_bytes,
            },
            _ADIP.label: {
                "cycles": adip_cycles,
                "seconds": adip_cycles / CLOCK_HZ,
                "energy_rel": adip_energy,
                "mem_bytes": adip_bytes,
            },
        },
        "vs_dip": {
            "latency_improvement_pct": _pct_change(adip_cycles, dip_cycles),
            "energy_improvement_pct": _pct_change(adip_energy, dip_energy),
            "memory_savings_pct": _pct_change(adip_bytes, dip_bytes),
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
