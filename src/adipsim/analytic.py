"""Closed-form latency and throughput models for the array.

The distributed multiply composes an act_bits x weight_bits product from
`mul_count` parallel 2-bit multipliers, so its latency in cycles is

    dmul = ceil(act_bits * weight_bits / (mul_count * mul_width**2))

and a full n-row tile costs what the simulator's pass clock
(`array.stream_cycles`) gives for n * dmul streamed rows: one cycle per
row plus the fill of the n PE rows, the psum pipeline and the reducer.
The reducer depth defaults to the structural depth of the precision
(`Precision.reducer_stages`).

Tile-effective throughput divides the operation count (two ops per MAC,
times the parallel-matrix factor) by that latency; peak throughput is the
steady-state rate with fill and drain amortized away.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

from .array import stream_cycles
from .numerics import ceil_div
from .preprocess import Precision

SWEEP_CSV_COLUMNS = ("M", "precision", "dmul_cycles", "latency_cycles", "throughput_tops")


@dataclass(frozen=True)
class AnalyticParams:
    """Architecture knobs of the latency/throughput model."""

    size: int = 64
    mul_count: int = 16
    mul_width: int = 2
    act_bits: int = 8
    weight_bits: int = 8
    mac_stages: int = 1
    reduce_stages: int = 2

    def __post_init__(self) -> None:
        for name in ("size", "mul_count", "mul_width", "act_bits", "weight_bits"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.act_bits % 2 or self.weight_bits % 2:
            raise ValueError("operand widths must be multiples of 2 bits")
        if self.mac_stages < 0 or self.reduce_stages < 0:
            raise ValueError("pipeline stage counts must be non-negative")

    @classmethod
    def for_mode(cls, size: int, weight_bits: int, **overrides) -> "AnalyticParams":
        """Defaults matching the built hardware at a given weight precision."""
        reduce_stages = Precision.from_bits(weight_bits).reducer_stages
        return cls(**{"size": size, "weight_bits": weight_bits, "reduce_stages": reduce_stages, **overrides})


def dmul_latency(p: AnalyticParams) -> int:
    """Cycles to finish one distributed multiply."""
    return ceil_div(p.act_bits * p.weight_bits, p.mul_count * p.mul_width**2)


def parallel_factor(p: AnalyticParams) -> int:
    """How many full products the multiplier bank completes per cycle."""
    return ceil_div(p.mul_count * p.mul_width**2, p.act_bits * p.weight_bits)


def tile_latency(p: AnalyticParams) -> int:
    """Cycles from first streamed row to the last collected output row."""
    return stream_cycles(p.size, p.size * dmul_latency(p), p.mac_stages, p.reduce_stages)


def ops_per_cycle(p: AnalyticParams) -> float:
    """Tile-effective rate: 2 * parallel * size^3 ops over the tile latency."""
    return 2 * parallel_factor(p) * p.size**3 / tile_latency(p)


def throughput(p: AnalyticParams, clock_hz: float = 1e9) -> float:
    """Tile-effective ops/second at a clock frequency."""
    return ops_per_cycle(p) * clock_hz


def peak_throughput(p: AnalyticParams, clock_hz: float = 1e9) -> float:
    """Steady-state ops/second with back-to-back tiles (fill amortized)."""
    return 2 * parallel_factor(p) * p.size**2 * clock_hz


def precision_label(act_bits: int, weight_bits: int) -> str:
    return f"{act_bits}bx{weight_bits}b"


@dataclass(frozen=True)
class SweepRow:
    mul_count: int
    precision: str
    dmul_cycles: int
    latency_cycles: int
    throughput_tops: float


def sweep(
    size: int = 64,
    mul_counts: Sequence[int] = (2, 4, 8, 16),
    weight_bits_list: Sequence[int] = (8, 4, 2),
    clock_hz: float = 1e9,
    mac_stages: int = 1,
) -> list[SweepRow]:
    """Latency/throughput table across multiplier counts and precisions."""
    rows = []
    for m in mul_counts:
        for bits in weight_bits_list:
            p = AnalyticParams.for_mode(size, bits, mul_count=m, mac_stages=mac_stages)
            latency = tile_latency(p)
            rows.append(
                SweepRow(
                    mul_count=m,
                    precision=precision_label(p.act_bits, bits),
                    dmul_cycles=dmul_latency(p),
                    latency_cycles=latency,
                    # throughput(p, clock_hz), without forming the tile latency again
                    throughput_tops=2 * parallel_factor(p) * p.size**3 / latency * clock_hz / 1e12,
                )
            )
    return rows


def write_sweep_csv(rows: Iterable[SweepRow], fh: IO[str]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(SWEEP_CSV_COLUMNS)
    for row in rows:
        writer.writerow(
            [
                row.mul_count,
                row.precision,
                row.dmul_cycles,
                row.latency_cycles,
                f"{row.throughput_tops:.6f}",
            ]
        )
