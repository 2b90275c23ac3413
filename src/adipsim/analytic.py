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
precision (`Precision.reducer_stages`), as on the array. `sweep` checks
its size and clock once and each multiplier count once, then reads its rows
from the rules that `dmul_latency`, `parallel_factor`, `tile_latency`
and `ops_per_cycle` call, with no `AnalyticParams` per row.

Tile-effective throughput divides the operation count (two ops per MAC,
times the parallel-matrix factor) by that latency; peak throughput is the
steady-state rate with fill and drain amortized away. A clock frequency
must be a positive finite real, and a rate that a clock or a large size
makes too large for a float raises ValueError, as a bad parameter does.
Sweep rows are immutable `SweepRow` named tuples.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass
from typing import IO, Iterable, NamedTuple, Sequence

from .array import stream_cycles
from .numerics import ACT_BITS, SUBWORD_BITS, ceil_div, check_size
from .preprocess import Precision

SWEEP_CSV_COLUMNS = ("M", "precision", "dmul_cycles", "latency_cycles", "throughput_tops")


@dataclass(frozen=True)
class AnalyticParams:
    """Architecture knobs of the latency/throughput model, held as Python
    ints; anything the simulator would reject raises its ValueError."""

    size: int = 64
    mul_count: int = 16
    weight_bits: int = 8

    def __post_init__(self) -> None:
        object.__setattr__(self, "size", check_size(self.size))
        object.__setattr__(self, "mul_count", check_size(self.mul_count, "mul_count"))
        object.__setattr__(self, "weight_bits", Precision.from_bits(self.weight_bits).weight_bits)

    @classmethod
    def for_mode(cls, size: int, weight_bits: int) -> "AnalyticParams":
        """The parameters of the built hardware at a given weight precision."""
        return cls(size=size, weight_bits=weight_bits)


def _dmul(mul_count: int, weight_bits: int) -> int:
    return ceil_div(ACT_BITS * weight_bits, mul_count * SUBWORD_BITS**2)


def _parallel(mul_count: int, weight_bits: int) -> int:
    return ceil_div(mul_count * SUBWORD_BITS**2, ACT_BITS * weight_bits)


def _tile_cycles(size: int, dmul: int, precision: Precision) -> int:
    return stream_cycles(size, size * dmul, precision)


def _tile_ops(size: int, mul_count: int, weight_bits: int) -> int:
    return 2 * _parallel(mul_count, weight_bits) * size**3


def dmul_latency(p: AnalyticParams) -> int:
    """Cycles to finish one distributed multiply."""
    return _dmul(p.mul_count, p.weight_bits)


def parallel_factor(p: AnalyticParams) -> int:
    """How many full products the multiplier bank completes per cycle."""
    return _parallel(p.mul_count, p.weight_bits)


def tile_latency(p: AnalyticParams) -> int:
    """Cycles from first streamed row to the last collected output row."""
    return _tile_cycles(p.size, dmul_latency(p), Precision(p.weight_bits))


def ops_per_cycle(p: AnalyticParams) -> float:
    """Tile-effective rate: 2 * parallel * size^3 ops over the tile latency."""
    return _rate(_tile_ops(p.size, p.mul_count, p.weight_bits), tile_latency(p))


def _check_clock(clock_hz) -> float:
    """`clock_hz` as a float; ValueError unless it is a positive finite
    real (True is not a clock)."""
    if isinstance(clock_hz, bool) or not isinstance(clock_hz, numbers.Real) or not 0 < clock_hz < math.inf:
        raise ValueError(f"clock_hz must be a positive finite number, got {clock_hz!r}")
    return float(clock_hz)


def _rate(ops: int, cycles: int, clock_hz: float = 1.0) -> float:
    """`ops` / `cycles` * `clock_hz`, the one place a rate is formed;
    ValueError when the quotient or the rate overflows a float."""
    try:
        per_cycle = ops / cycles
    except OverflowError:  # int / int past the largest float
        raise ValueError("the array size gives a rate that overflows a float") from None
    rate = per_cycle * clock_hz
    if rate == math.inf:
        raise ValueError(f"clock_hz {clock_hz!r} gives a rate that overflows a float")
    return rate


def throughput(p: AnalyticParams, clock_hz: float = 1e9) -> float:
    """Tile-effective ops/second at a clock frequency."""
    return _rate(_tile_ops(p.size, p.mul_count, p.weight_bits), tile_latency(p), _check_clock(clock_hz))


def peak_throughput(p: AnalyticParams, clock_hz: float = 1e9) -> float:
    """Steady-state ops/second with back-to-back tiles (fill amortized)."""
    return _rate(2 * parallel_factor(p) * p.size**2, 1, _check_clock(clock_hz))


class SweepRow(NamedTuple):
    """One row of `sweep`, its fields in `SWEEP_CSV_COLUMNS` order."""

    mul_count: int
    precision: str
    dmul_cycles: int
    latency_cycles: int
    throughput_tops: float


# Each precision of the sweep, W8 first, with its weight width and row label.
_SWEEP_PRECISIONS = tuple((p, p.weight_bits, f"{ACT_BITS}bx{p.weight_bits}b") for p in Precision)


def sweep(size: int = 64, mul_counts: Sequence[int] = (2, 4, 8, 16), clock_hz: float = 1e9) -> list[SweepRow]:
    """Latency/throughput table across multiplier counts and the three
    precisions, W8 first, of the built hardware; each row equals
    `dmul_latency`, `tile_latency` and `throughput` of its parameters."""
    size = check_size(size)
    clock_hz = _check_clock(clock_hz)
    rows = []
    for m in mul_counts:
        m = check_size(m, "mul_count")
        for precision, bits, label in _SWEEP_PRECISIONS:
            dmul = _dmul(m, bits)
            latency = _tile_cycles(size, dmul, precision)
            tops = _rate(_tile_ops(size, m, bits), latency, clock_hz) / 1e12
            rows.append(SweepRow(m, label, dmul, latency, tops))
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
