"""Closed-form latency and throughput models for the array.

The distributed multiply composes an 8-bit x weight_bits product from
`mul_count` parallel 2-bit multipliers (`numerics.ACT_BITS`,
`numerics.SUBWORD_BITS`), so its latency in cycles is

    dmul = ceil(8 * weight_bits / (mul_count * 2**2))

and a full n-row tile costs what the simulator's pass clock
(`array.stream_cycles`) gives for n * dmul streamed rows: one cycle per
row plus the fill of the n PE rows, the psum pipeline and the reducer.
The parameters obey the simulator's rules: the size and multiplier count
are positive integers (`check_size`) and the weight width is 2, 4 or 8
(`Precision.from_bits`). The reducer depth is the structural depth of that
precision (`Precision.reducer_stages`), as on the array.

Tile-effective throughput divides the operation count (two ops per MAC,
times the parallel-matrix factor) by that latency; peak throughput is the
steady-state rate with fill and drain amortized away. A clock frequency
must be a positive finite real.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

from .array import stream_cycles
from .numerics import ACT_BITS, SUBWORD_BITS, ceil_div, check_size
from .preprocess import Precision

SWEEP_CSV_COLUMNS = ("M", "precision", "dmul_cycles", "latency_cycles", "throughput_tops")


@dataclass(frozen=True)
class AnalyticParams:
    """Architecture knobs of the latency/throughput model; anything the
    simulator would reject raises the simulator's ValueError."""

    size: int = 64
    mul_count: int = 16
    weight_bits: int = 8

    def __post_init__(self) -> None:
        check_size(self.size)
        check_size(self.mul_count, "mul_count")
        Precision.from_bits(self.weight_bits)

    @classmethod
    def for_mode(cls, size: int, weight_bits: int) -> "AnalyticParams":
        """The parameters of the built hardware at a given weight precision."""
        return cls(size=size, weight_bits=weight_bits)


def dmul_latency(p: AnalyticParams) -> int:
    """Cycles to finish one distributed multiply."""
    return ceil_div(ACT_BITS * p.weight_bits, p.mul_count * SUBWORD_BITS**2)


def parallel_factor(p: AnalyticParams) -> int:
    """How many full products the multiplier bank completes per cycle."""
    return ceil_div(p.mul_count * SUBWORD_BITS**2, ACT_BITS * p.weight_bits)


def tile_latency(p: AnalyticParams) -> int:
    """Cycles from first streamed row to the last collected output row."""
    return stream_cycles(p.size, p.size * dmul_latency(p), Precision(p.weight_bits))


def ops_per_cycle(p: AnalyticParams) -> float:
    """Tile-effective rate: 2 * parallel * size^3 ops over the tile latency."""
    return 2 * parallel_factor(p) * p.size**3 / tile_latency(p)


def _check_clock(clock_hz) -> float:
    """`clock_hz` as a float; ValueError unless it is a positive finite
    real (True is not a clock)."""
    if isinstance(clock_hz, bool) or not isinstance(clock_hz, numbers.Real) or not 0 < clock_hz < math.inf:
        raise ValueError(f"clock_hz must be a positive finite number, got {clock_hz!r}")
    return float(clock_hz)


def throughput(p: AnalyticParams, clock_hz: float = 1e9) -> float:
    """Tile-effective ops/second at a clock frequency."""
    return ops_per_cycle(p) * _check_clock(clock_hz)


def peak_throughput(p: AnalyticParams, clock_hz: float = 1e9) -> float:
    """Steady-state ops/second with back-to-back tiles (fill amortized)."""
    return 2 * parallel_factor(p) * p.size**2 * _check_clock(clock_hz)


@dataclass(frozen=True)
class SweepRow:
    mul_count: int
    precision: str
    dmul_cycles: int
    latency_cycles: int
    throughput_tops: float


def sweep(size: int = 64, mul_counts: Sequence[int] = (2, 4, 8, 16), clock_hz: float = 1e9) -> list[SweepRow]:
    """Latency/throughput table across multiplier counts and the three
    precisions, W8 first, of the built hardware."""
    clock_hz = _check_clock(clock_hz)
    rows = []
    widths = [precision.weight_bits for precision in Precision]
    for m in mul_counts:
        for bits in widths:
            p = AnalyticParams(size, m, bits)
            latency = tile_latency(p)
            rows.append(
                SweepRow(
                    mul_count=m,
                    precision=f"{ACT_BITS}bx{p.weight_bits}b",
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
