"""Relative latency, energy and memory-traffic models for attention stages.

Three architectures share one pass structure: a pass pins one stationary
weight tile and streams every input row tile through the array. A pass
costs what the simulator's clock gives it, `array.load_cycles` plus
`array.stream_cycles` for the streamed rows at the reducer depth of the
pass precision. `summary` costs each distinct stage shape once per
architecture with `stage_cost`, which `stage_latency` reads.

* WS   -- conventional weight-stationary baseline; pays an extra skew of
          n - 1 fill cycles per pass for input/output synchronization.
* DiP  -- diagonal-input baseline, 8-bit only: one weight matrix per pass.
* ADiP -- adaptive precision: projection stages pack r = 8 / weight_bits
          same-shape weight matrices per stationary tile, dividing their
          pass count (and weight plus input traffic) by r. Stages between
          two activation tensors cannot be packed and match DiP exactly.

Energy is modeled relatively as cycles times a per-architecture power
factor (DiP = 1.0); absolute joules are out of scope. Memory traffic
counts 1-byte activation reads per streamed element and one stationary
word per array cell per pass; output writes are excluded by default and
can be counted at 1 byte (requantized) or 4 bytes (raw accumulator) per
element.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from typing import IO, Iterable

from .array import load_cycles, stream_cycles
from .numerics import ceil_div, check_size
from .preprocess import Precision
from .workload import MhaConfig, StageSpec, stages

STAGE_CSV_COLUMNS = ("stage", "arch", "cycles", "energy_rel", "bytes_in", "bytes_w", "bytes_out")

CLOCK_HZ = 1e9

# Power of each architecture relative to the 8-bit DiP baseline; the
# adaptive array's is measured by array size.
DIP_POWER = 1.0
WS_POWER = 1.25
ADIP_POWER_BY_SIZE = {4: 1.63, 8: 1.59, 16: 1.57, 32: 1.63, 64: 1.69}


class Arch(Enum):
    WS = "WS"
    DIP = "DiP"
    ADIP = "ADiP"

    @property
    def label(self) -> str:
        return self.value


@dataclass
class CostParams:
    """Cost-model knobs; defaults match the evaluated 32 x 32 configuration."""

    n: int = 32
    mac_stages: int = 1
    overlap_weights: bool = True
    count_output_writes: bool = False
    output_bytes: int = 1  # 1 = requantized activations, 4 = raw psum spill

    def __post_init__(self) -> None:
        self.n = check_size(self.n)
        if self.output_bytes not in (1, 4):
            raise ValueError("output_bytes must be 1 or 4")

    def power(self, arch: Arch) -> float:
        if arch is Arch.WS:
            return WS_POWER
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


def stage_cost(spec: StageSpec, arch: Arch, params: CostParams) -> StageCost:
    """Cycles, energy and traffic of one stage.

    ADiP runs a projection at its weight precision, packing r column tiles
    into a pass; every other stage runs 8-bit, one column tile per pass.
    """
    n = params.n
    packed = arch is Arch.ADIP and spec.is_projection
    precision = Precision.from_bits(spec.weight_bits) if packed else Precision.W8
    tm = ceil_div(spec.m, n)
    tp = ceil_div(spec.p, n)
    passes = ceil_div(spec.count * ceil_div(spec.k, n) * tp, precision.r)
    per_pass = load_cycles(n, params.overlap_weights)
    per_pass += stream_cycles(n, tm * n, params.mac_stages, precision.reducer_stages)
    if arch is Arch.WS:
        per_pass += n - 1
    cycles = passes * per_pass
    bytes_out = 0
    if params.count_output_writes:
        bytes_out = spec.count * tm * tp * n**2 * params.output_bytes
    return StageCost(
        stage=spec.stage.label,
        arch=arch,
        cycles=cycles,
        energy_rel=cycles * params.power(arch),
        bytes_in=passes * tm * n**2,
        bytes_w=passes * n**2,
        bytes_out=bytes_out,
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
