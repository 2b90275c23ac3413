"""Command-line frontend: analytic sweeps, simulator runs, workload reports.

`build_parser` registers one subcommand per report; `main` runs it and
turns a bad value or file into exit status 2 and an `adipsim:` message.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
from typing import IO, Iterator, Optional

import numpy as np

from . import analytic, cost, tiling, workload
from .array import SIZE_LIMIT
from .preprocess import (
    _HEADER_U16_MAX,
    Precision,
    check_mode,
    check_packable,
    prepare_weights,
    read_packed,
    unprepare_weights,
    write_packed,
)
from .numerics import ACT_BITS, VALID_WIDTHS, check_signed, signed_range

SWEEP_SIZES = (4, 8, 16, 32, 64)


# -- matrix text files --------------------------------------------------------


# One signed decimal integer in ASCII digits, and one decimal real number
# with an optional point and exponent. `int` and `float` alone would also
# take `1_0`, non-ASCII digits and surrounding spaces; every number in a
# matrix file or an option must match one of these first.
_DECIMAL = re.compile(r"[-+]?[0-9]+")
_DECIMAL_REAL = re.compile(r"[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")


def read_matrix(path: str) -> tuple[np.ndarray, int]:
    """Read a matrix text file, a header line `rows cols width` and then the
    row-major signed decimal elements, whitespace-separated; returns
    (matrix, width)."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if len(tokens) < 3:
        raise ValueError(f"{path}: missing matrix header")
    try:
        if not all(_DECIMAL.fullmatch(t) for t in tokens):
            raise ValueError
        rows, cols, width, *values = (int(t) for t in tokens)
    except ValueError:  # also a token longer than `int` converts
        raise ValueError(f"{path}: non-integer token") from None
    if rows < 0 or cols < 0:
        raise ValueError(f"{path}: negative matrix shape {rows}x{cols}")
    if width not in VALID_WIDTHS:
        raise ValueError(f"{path}: width {width} is not one of {VALID_WIDTHS}")
    if len(values) != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} elements, found {len(values)}")
    try:
        matrix = np.array(values, dtype=np.int64).reshape(rows, cols)
    except (OverflowError, ValueError) as exc:  # an element beyond int64, a shape beyond numpy
        raise ValueError(f"{path}: not an int64 matrix ({exc})") from None
    return check_signed(matrix, width, f"{path}: element"), width


def _read_matrices(paths: list[str], bits: int) -> list[np.ndarray]:
    """Read matrix files whose declared width is at most `bits`."""
    matrices = []
    for path in paths:
        matrix, width = read_matrix(path)
        if width > bits:
            raise ValueError(f"{path} is {width}-bit, mode allows {bits}")
        matrices.append(matrix)
    return matrices


def _check_no_generation_options(args: argparse.Namespace, names: tuple[str, ...], files: str) -> None:
    """ValueError naming each option of `names` that is given: with matrix
    `files`, the files give the matrices, and those options only generate them."""
    given = [f"--{name}" for name in names if getattr(args, name) is not None]
    if given:
        raise ValueError(f"{', '.join(given)} cannot be given with {files}")


@contextlib.contextmanager
def _open_out(path: Optional[str]) -> Iterator[IO[str]]:
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _number_option(pattern: re.Pattern, convert, accept, what: str):
    """An argparse type that reads a number written as `pattern` fully
    matches and that `accept` takes; any other text exits 2 naming it."""

    def parse(text: str):
        try:
            value = convert(text) if pattern.fullmatch(text) else None
        except ValueError:  # more digits than `int` converts
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value

    return parse


_positive_int = _number_option(_DECIMAL, int, lambda v: v >= 1, "a positive integer")
_non_negative_int = _number_option(_DECIMAL, int, lambda v: v >= 0, "a non-negative integer")
_positive_float = _number_option(_DECIMAL_REAL, float, lambda v: 0 < v < math.inf, "a positive finite number")


def _positive_int_list(text: str) -> list[int]:
    """Comma-separated positive integers; the error names the bad token."""
    return [_positive_int(token) for token in text.split(",")]


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _random_acts(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.integers(-128, 128, size=(rows, cols), dtype=np.int64)


def _random_weights(rng: np.random.Generator, rows: int, cols: int, bits: int) -> np.ndarray:
    lo, hi = signed_range(bits)
    return rng.integers(lo, hi + 1, size=(rows, cols), dtype=np.int64)


# -- subcommands --------------------------------------------------------------


def cmd_analytic(args: argparse.Namespace) -> int:
    rows = analytic.sweep(size=args.size, mul_counts=args.muls, clock_hz=args.clock_ghz * 1e9)
    with _open_out(args.out) as fh:
        analytic.write_sweep_csv(rows, fh)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    precision = Precision.from_name(args.mode)
    n = args.size
    if n >= SIZE_LIMIT:  # before any matrix is read or generated
        raise ValueError(f"--size {n} reaches the array's limit of {SIZE_LIMIT}")
    if bool(args.a) != bool(args.b):
        raise ValueError("--a and --b must be given together")
    if args.a:
        _check_no_generation_options(args, ("nw", "m", "k", "p", "seed"), "--a/--b")
        [a] = _read_matrices([args.a], ACT_BITS)
        weights = _read_matrices(args.b, precision.weight_bits)
    else:
        rng = _rng(args.seed or 0)
        m, k, p = (2 * n if v is None else v for v in (args.m, args.k, args.p))
        a = _random_acts(rng, m, k)
        weights = [
            _random_weights(rng, k, p, precision.weight_bits) for _ in range(args.nw or 1)
        ]

    job = tiling.MatMulJob(a=a, weights=weights, precision=precision, n=n)
    trace_ctx = open(args.trace, "w", encoding="utf-8") if args.trace else None
    try:
        result = tiling.run_tiled(job, trace=trace_ctx)
    except BaseException:
        if trace_ctx is not None:  # a run that raises leaves no partial trace file
            trace_ctx.close()
            if os.path.isfile(args.trace):
                os.remove(args.trace)
        raise
    finally:
        if trace_ctx is not None:
            trace_ctx.close()
    golden = tiling.oracle_matmul(job)

    m_dim, k_dim, p_dim = job.shape
    print(f"array {n}x{n}  mode {precision.name} nw={len(weights)}")
    print(f"job {m_dim}x{k_dim} . {k_dim}x{p_dim} x{len(weights)} matrices")
    print(f"passes {result.pass_count}  cycles {result.total_cycles}")
    for t, (got, want) in enumerate(zip(result.outputs, golden)):
        if not np.array_equal(got, want):
            i, j = np.argwhere(got != want)[0]
            print(
                f"FAIL matrix {t} first mismatch at ({i}, {j}): "
                f"got {got[i, j]}, expected {want[i, j]}"
            )
            return 1
    print(f"PASS all {len(weights)} output matrices match the oracle exactly")
    return 0


def cmd_workload(args: argparse.Namespace) -> int:
    try:
        cfg = workload.get_model(args.model)
    except ValueError:  # a built-in name wins over a file of that name
        if not (args.model.endswith(".json") or os.path.exists(args.model)):
            raise
        cfg = workload.load_config(args.model)
    params = cost.CostParams(n=args.size, output_bytes=args.output_bytes)
    info = cost.summary(cfg, params)  # fails on a bad size before anything is printed
    # --out is opened before the report is printed, so a bad path fails
    # with nothing on stdout
    with _open_out(args.out) as fh:
        print(
            f"model {cfg.name}: layers={cfg.layers} d_model={cfg.d_model} "
            f"heads={cfg.heads} d_k={cfg.d_k} seq_len={cfg.seq_len} "
            f"weights={cfg.weight_bits}b"
        )
        total = workload.total_ops(cfg)
        print(f"total matmul work: {total / 1e9:.2f} GOP")
        print("stage breakdown:")
        shares = workload.breakdown(cfg)
        for spec in workload.stages(cfg):
            kind = "proj" if spec.is_projection else "act-act"
            dims = f"{spec.m}x{spec.k}x{spec.p} x{spec.count}"
            print(
                f"  {spec.stage.label:<8} {kind:<7} {dims:<22}"
                f" {spec.ops / 1e9:10.2f} GOP  {100 * shares[spec.stage]:5.1f}%"
            )

        print(f"architecture comparison at {params.n}x{params.n}, {cost.CLOCK_HZ / 1e9:g} GHz:")
        for arch in cost.Arch:
            t = info["totals"][arch.label]
            print(
                f"  {arch.label:<5} cycles {t['cycles']:>15,} ({1e3 * t['seconds']:9.2f} ms)"
                f"  energy {t['energy_rel']:>18,.0f}"
                f"  memory {t['mem_bytes'] / 2**30:8.3f} GiB"
            )
        vs = info["vs_dip"]
        print(f"ADiP vs DiP: projection latency improvement {vs['projection_latency_improvement_pct']:.1f}%")
        print(f"ADiP vs DiP: total latency improvement {vs['latency_improvement_pct']:.1f}%")
        print(f"ADiP vs DiP: total energy improvement {vs['energy_improvement_pct']:.1f}%")
        print(f"ADiP vs DiP: total memory savings {vs['memory_savings_pct']:.1f}%")

        if args.format == "json":
            json.dump(info, fh, indent=2)
            fh.write("\n")
        else:
            rows = [c for arch in cost.Arch for c in cost.evaluate(cfg, arch, params)]
            cost.write_stage_csv(rows, fh)
    return 0


def cmd_interleave(args: argparse.Namespace) -> int:
    precision = Precision.from_name(args.mode)
    n = args.size
    if n > _HEADER_U16_MAX:  # before any matrix is read or generated
        raise ValueError(f"--size {n} exceeds the packed-file limit of {_HEADER_U16_MAX}")
    if args.infile:
        _check_no_generation_options(args, ("nw", "rows", "cols", "seed"), "--in")
        matrices = _read_matrices(args.infile, precision.weight_bits)
    else:
        nw = check_mode(precision, args.nw or 1)  # before generating nw matrices
        rng = _rng(args.seed or 0)
        rows, cols = (n if v is None else v for v in (args.rows, args.cols))
        matrices = [_random_weights(rng, rows, cols, precision.weight_bits) for _ in range(nw)]

    grid = prepare_weights(matrices, precision, n)
    check_packable(grid)  # before the output file is created
    with open(args.out, "wb") as fh:
        write_packed(grid, fh)
    print(
        f"packed {len(matrices)} matrices {matrices[0].shape[0]}x{matrices[0].shape[1]} "
        f"into {grid.tk}x{grid.tp} tiles of {n}x{n} words -> {args.out}"
    )
    for k, row in enumerate(grid):
        for j, tile in enumerate(row):
            print(f"tile {k} {j}")
            for word_row in tile:
                print(" ".join(f"{int(w):02x}" for w in word_row))

    if args.verify:
        with open(args.out, "rb") as fh:
            recovered = unprepare_weights(read_packed(fh))
        k_dim, p_dim = matrices[0].shape
        for t, matrix in enumerate(matrices):
            if not np.array_equal(recovered[t][:k_dim, :p_dim], matrix):
                print(f"FAIL round trip differs for matrix {t}")
                return 1
        print("PASS round trip recovers every matrix exactly")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    lines = ["size,mode,throughput_gain,peak_tops,power_factor\n"]
    for n in args.sizes:
        for precision in (Precision.W8, Precision.W4, Precision.W2):
            # r matrices of (2n x 2n) times an n x 2n input, unfused and fused
            shape = (n, 2 * n, 2 * n, precision.r)
            unfused = tiling.TiledPlan.from_shape(*shape, Precision.W8, n).pass_count
            fused = tiling.TiledPlan.from_shape(*shape, precision, n).pass_count
            gain = unfused // fused
            p = analytic.AnalyticParams.for_mode(n, precision.weight_bits)
            peak = analytic.peak_throughput(p, args.clock_ghz * 1e9) / 1e12
            factor = cost.ADIP_POWER_BY_SIZE.get(n, float("nan"))
            lines.append(f"{n},{precision.name},{gain},{peak:.3f},{factor}\n")
    with _open_out(args.out) as fh:
        fh.writelines(lines)
    return 0


# -- entry point ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adipsim",
        description="Adaptive-precision diagonal-input systolic array: "
        "simulator, analytic models and attention-workload costs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analytic", help="emit the multiplier-count sweep CSV")
    p.add_argument("--size", type=_positive_int, default=64, help="array dimension n")
    p.add_argument(
        "--muls", type=_positive_int_list, default="2,4,8,16", help="comma-separated 2-bit multiplier counts"
    )
    p.add_argument("--clock-ghz", type=_positive_float, default=1.0)
    p.add_argument("--out", default="-", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("simulate", help="run matrices through the cycle simulator and check them")
    p.add_argument("--size", type=_positive_int, default=8, help="array dimension n")
    p.add_argument("--mode", default="w8", choices=("w8", "w4", "w2"))
    p.add_argument("--nw", type=_positive_int, help="number of generated weight matrices (default 1)")
    p.add_argument("--m", type=_positive_int, help="input rows (default 2n)")
    p.add_argument("--k", type=_positive_int, help="shared dimension (default 2n)")
    p.add_argument("--p", type=_positive_int, help="output columns (default 2n)")
    p.add_argument("--seed", type=_non_negative_int, help="generator seed (default 0)")
    p.add_argument("--a", help="input matrix file (text format)")
    p.add_argument("--b", action="append", default=[], help="weight matrix file, repeatable")
    p.add_argument("--trace", help="write a per-cycle PE trace CSV here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("workload", help="attention workload breakdown and architecture comparison")
    p.add_argument("model", help="builtin model name or a JSON geometry file")
    p.add_argument("--size", type=_positive_int, default=32, help="array dimension n")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default="-", help="artifact path (default stdout)")
    p.add_argument(
        "--output-bytes", type=_non_negative_int, default=0, choices=(0, 1, 4),
        help="bytes billed per output element written: 0 (not counted), 1 or 4",
    )
    p.set_defaults(func=cmd_workload)

    p = sub.add_parser("interleave", help="permute and pack weight matrices, dump the tiles")
    p.add_argument("--size", type=_positive_int, default=4, help="array dimension n")
    p.add_argument("--mode", default="w8", choices=("w8", "w4", "w2"))
    p.add_argument("--nw", type=_positive_int, help="number of generated matrices (default 1)")
    p.add_argument("--rows", type=_positive_int, help="generated matrix rows (default n)")
    p.add_argument("--cols", type=_positive_int, help="generated matrix cols (default n)")
    p.add_argument("--seed", type=_non_negative_int, help="generator seed (default 0)")
    p.add_argument("--in", dest="infile", action="append", help="weight matrix file, repeatable")
    p.add_argument("--out", required=True, help="packed binary output path")
    p.add_argument("--verify", action="store_true", help="read back and round-trip check")
    p.set_defaults(func=cmd_interleave)

    p = sub.add_parser("sweep", help="per-size gain/throughput table across precisions")
    p.add_argument(
        "--sizes", type=_positive_int_list, default=",".join(map(str, SWEEP_SIZES)), help="comma-separated array sizes"
    )
    p.add_argument("--clock-ghz", type=_positive_float, default=1.0)
    p.add_argument("--out", default="-", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, OverflowError, MemoryError) as exc:  # numpy names an allocation it could not make
        print(f"adipsim: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
