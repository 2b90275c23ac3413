"""Relative latency, energy and memory-traffic models for attention stages.

Two architectures share one pass structure, `tiling.TiledPlan`: a pass
pins one stationary weight tile and streams every input row tile through
the array. `stage_cost` reads one instance's plan, its pass count, clock
and traffic, and bills it `count` times; `summary` costs each distinct
stage shape once per architecture, and `stage_latency` reads `stage_cost`.
Both are what `tiling.run_tiled` runs: a stage bills the cycles and
passes of its instances' simulated runs, with weight loads overlapped
behind the previous pass as in the evaluated configuration.

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
from typing import IO, Iterable

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

    @property
    def label(self) -> str:
        return self.value


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


@lru_cache(maxsize=1024)
def _instance(m: int, k: int, p: int, weight_bits: int, n: int) -> tuple[TiledPlan, int]:
    """The plan of one instance of a stage and its clock, weight loads
    overlapped; a report asks for few distinct ones, so each is built once."""
    plan = TiledPlan.from_shape(m, k, p, 1, Precision.from_bits(weight_bits), n)
    return plan, plan.cycles(True)


def stage_cost(spec: StageSpec, arch: Arch, params: CostParams) -> StageCost:
    """Cycles, energy and traffic of one stage.

    ADiP runs a projection at its weight precision, packing the column
    tiles of one instance into the r weight fields of a pass; every other
    stage runs 8-bit, one column tile per pass. Each of the `count`
    instances streams its own input, so the stage costs `count` times one
    instance's plan.
    """
    bits = spec.weight_bits if arch is Arch.ADIP and spec.is_projection else 8
    plan, cycles = _instance(spec.m, spec.k, spec.p, bits, params.n)
    cycles *= spec.count
    return StageCost(
        stage=spec.stage.label,
        arch=arch,
        cycles=cycles,
        energy_rel=cycles * params.power(arch),
        bytes_in=spec.count * plan.input_bytes,
        bytes_w=spec.count * plan.weight_words,
        bytes_out=spec.count * plan.output_elements * params.output_bytes,
    )


def evaluate(cfg: MhaConfig, arch: Arch, params: CostParams) -> list[StageCost]:
    return [stage_cost(spec, arch, params) for spec in stages(cfg)]


def _pct_change(new: float, ref: float) -> float:
    """Percent improvement of `new` over `ref`; negative means overhead."""
    return 100.0 * (1.0 - new / ref)


def summary(cfg: MhaConfig, params: CostParams) -> dict:
    """All totals plus the improvement percentages of ADiP relative to DiP,
    from one `StageCost` per distinct stage shape and architecture."""
    specs = stages(cfg)
    # what stage_cost reads of a stage but its name; QProj, KProj, VProj and OutProj share one
    shapes = [(s.m, s.k, s.p, s.count, s.weight_bits, s.is_projection) for s in specs]
    totals = {}
    projection = {}
    for arch in Arch:
        by_shape = {shape: stage_cost(spec, arch, params) for shape, spec in dict(zip(shapes, specs)).items()}
        costs = [by_shape[shape] for shape in shapes]
        cycles = sum(c.cycles for c in costs)
        totals[arch.label] = {
            "cycles": cycles,
            "seconds": cycles / CLOCK_HZ,
            "energy_rel": sum(c.energy_rel for c in costs),
            "mem_bytes": sum(c.mem_bytes for c in costs),
        }
        projection[arch] = sum(c.cycles for spec, c in zip(specs, costs) if spec.is_projection)
    dip = totals[Arch.DIP.label]
    adip = totals[Arch.ADIP.label]
    return {
        "model": cfg.name,
        "array_size": params.n,
        "weight_bits": cfg.weight_bits,
        "totals": totals,
        "vs_dip": {
            "latency_improvement_pct": _pct_change(adip["cycles"], dip["cycles"]),
            "energy_improvement_pct": _pct_change(adip["energy_rel"], dip["energy_rel"]),
            "memory_savings_pct": _pct_change(adip["mem_bytes"], dip["mem_bytes"]),
            "projection_latency_improvement_pct": _pct_change(projection[Arch.ADIP], projection[Arch.DIP]),
        },
    }


def write_stage_csv(costs: Iterable[StageCost], fh: IO[str]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(STAGE_CSV_COLUMNS)
    for c in costs:
        writer.writerow(
            [c.stage, c.arch.label, c.cycles, f"{c.energy_rel:.3f}", c.bytes_in, c.bytes_w, c.bytes_out]
        )
