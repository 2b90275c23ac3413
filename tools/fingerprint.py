"""One sha256 over many fixed-seed `run_tiled` runs, to show that a change
to the simulator is bit-exact and cycle-exact.

    PYTHONPATH=src python3 tools/fingerprint.py --configs 200

Each config draws n in 1..8, a precision, 1..2r weight matrices, M, K and
P in 0..3n, 1..3 MAC stages, 0..2 reducer stages above the structural
depth, weight loading overlapped or not, and inputs of magnitude at most
128, 16 or 2. It runs untraced and traced, at a psum limit of 2^31, 2^14
and 2^12, so the small limits make many runs overflow. The digest covers
every run's outputs with their dtype, its cycles and passes, or its
overflow message, and the sha256 of its trace text. Run it with the same
arguments on two checkouts and compare the last line.
"""

import argparse
import hashlib
import io

import numpy as np

from adipsim import array
from adipsim.pe import PsumOverflowError
from adipsim.preprocess import Precision
from adipsim.tiling import MatMulJob, run_tiled

LIMITS = (1 << 31, 1 << 14, 1 << 12)
INPUT_MAGNITUDES = (128, 16, 2)


def _config(rng):
    """One random job and the `run_tiled` options it runs with."""
    precision = Precision(int(rng.choice([8, 4, 2])))
    n = int(rng.integers(1, 9))
    m, k, p = (int(size) for size in rng.integers(0, 3 * n + 1, size=3))
    amax = int(rng.choice(INPUT_MAGNITUDES))
    half = 1 << (precision.weight_bits - 1)
    job = MatMulJob(
        a=rng.integers(-amax, min(amax, 127) + 1, size=(m, k)),
        weights=[rng.integers(-half, half, size=(k, p)) for _ in range(int(rng.integers(1, 2 * precision.r + 1)))],
        precision=precision,
        n=n,
    )
    options = {
        "overlap_weights": bool(rng.integers(2)),
        "mac_stages": int(rng.integers(1, 4)),
        "reduce_stages": precision.reducer_stages + int(rng.integers(3)),
    }
    return job, options


def _record(job, options, traced):
    """The bytes that one run adds to the digest, and whether it overflowed."""
    trace = io.StringIO() if traced else None
    try:
        result = run_tiled(job, trace=trace, **options)
    except PsumOverflowError as exc:
        outcome, overflowed = f"overflow {exc}".encode(), True
    else:
        outcome, overflowed = f"cycles {result.total_cycles} passes {result.pass_count}".encode(), False
        for output in result.outputs:
            outcome += f" {output.dtype} {output.shape}".encode() + output.tobytes()
    text = trace.getvalue() if traced else ""
    return outcome + b" trace " + hashlib.sha256(text.encode()).hexdigest().encode() + b"\n", overflowed


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--configs", type=int, default=200, help="random configs, each run 6 times")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.configs < 1:
        parser.error(f"--configs must be >= 1, got {args.configs}")
    rng = np.random.default_rng(args.seed)
    digest = hashlib.sha256()
    runs = overflows = 0
    saved = array._PSUM_LIMIT
    try:
        for _ in range(args.configs):
            job, options = _config(rng)
            for limit in LIMITS:
                array._PSUM_LIMIT = limit
                for traced in (False, True):
                    record, overflowed = _record(job, options, traced)
                    digest.update(record)
                    runs += 1
                    overflows += overflowed
    finally:
        array._PSUM_LIMIT = saved
    print(f"runs {runs} overflows {overflows}")
    print(f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
