"""One sha256 over many fixed-seed `run_tiled` runs, to show that a change
to the simulator is bit-exact and cycle-exact, and one over the cost reports.

    PYTHONPATH=src python3 tools/fingerprint.py --configs 200

Each config draws n in 1..8, a precision, 1..2r weight matrices, M, K and
P in 0..3n, weight loading overlapped or not, and inputs of magnitude at
most 128, 16 or 2; the pipeline depth is the precision's. It runs
untraced and traced, at a psum limit of 2^31, 2^14 and 2^12, so the small
limits make many runs overflow. The digest covers
every run's outputs with their dtype, its cycles and passes, or its
overflow message, and the sha256 of its trace text. The digest therefore
fixes `run_tiled`'s schedule too: column-block packing (every pass fills
the r weight fields of a word) moved it, and so did packing by columns
rather than whole column tiles. `run_digest` takes the run function, so
the same configs can go through another schedule, such as the grouped or
tile-packed ones that `tests/reference.py` replays for the older pins.

A second digest, printed on its own line first, covers the closed-form
models: `cost.summary` of each built-in model at n = 4, 8, 16, 32 and 64
under three `CostParams` variants (the defaults, output writes billed at
1 and at 4 bytes), then the rows of `analytic.sweep()`, each as JSON
with sorted keys.

A third, printed next, covers runs at the overflow edge, where random
configs rarely land: every mode at n = 1..8, every input and weight at
its most negative value, run untraced and traced at a psum limit equal
to the largest register the job forms (so it overflows) and one above
it (so it fits). Run the tool with the same arguments on two checkouts
and compare the output.
"""

import argparse
import hashlib
import io
import json
from dataclasses import asdict

import numpy as np

from adipsim import analytic, array, cost, workload
from adipsim.array import PsumOverflowError
from adipsim.preprocess import Precision
from adipsim.tiling import MatMulJob, run_tiled

LIMITS = (1 << 31, 1 << 14, 1 << 12)
INPUT_MAGNITUDES = (128, 16, 2)
COST_SIZES = (4, 8, 16, 32, 64)
COST_VARIANTS = (
    {},
    {"output_bytes": 1},
    {"output_bytes": 4},
)


def cost_digest() -> tuple[int, str]:
    """The number of documents and the sha256 over the cost reports and
    the sweep rows, one sorted-key JSON line each."""
    docs = [
        cost.summary(cfg, cost.CostParams(n=n, **variant))
        for cfg in workload.builtin_models()
        for n in COST_SIZES
        for variant in COST_VARIANTS
    ]
    docs += [asdict(row) for row in analytic.sweep()]
    digest = hashlib.sha256()
    for doc in docs:
        digest.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
    return len(docs), digest.hexdigest()


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
    return job, {"overlap_weights": bool(rng.integers(2))}


def _record(job, options, traced, run):
    """The bytes that one run of `run` adds to the digest, and whether it
    overflowed."""
    trace = io.StringIO() if traced else None
    try:
        result = run(job, trace=trace, **options)
    except PsumOverflowError as exc:
        outcome, overflowed = f"overflow {exc}".encode(), True
    else:
        outcome, overflowed = f"cycles {result.total_cycles} passes {result.pass_count}".encode(), False
        for output in result.outputs:
            outcome += f" {output.dtype} {output.shape}".encode() + output.tobytes()
    text = trace.getvalue() if traced else ""
    return outcome + b" trace " + hashlib.sha256(text.encode()).hexdigest().encode() + b"\n", overflowed


def _digest(cases, run=run_tiled) -> tuple[int, int, str]:
    """The number of runs, how many overflowed, and the sha256 over the
    records of each (job, options, limits) case, run by `run` untraced and
    traced at each limit."""
    digest = hashlib.sha256()
    runs = overflows = 0
    saved = array._PSUM_LIMIT
    try:
        for job, options, limits in cases:
            for limit in limits:
                array._PSUM_LIMIT = limit
                for traced in (False, True):
                    record, overflowed = _record(job, options, traced, run)
                    digest.update(record)
                    runs += 1
                    overflows += overflowed
    finally:
        array._PSUM_LIMIT = saved
    return runs, overflows, digest.hexdigest()


def run_digest(configs: int, seed: int, run=run_tiled) -> tuple[int, int, str]:
    """`_digest` over `configs` random configs drawn from `seed`, each run
    by `run`, a function with `run_tiled`'s arguments and result."""
    rng = np.random.default_rng(seed)
    return _digest(((*_config(rng), LIMITS) for _ in range(configs)), run)


def _edge_cases():
    """Per mode and n = 1..8, a 3n x 2n input times nw 2n x n weight
    matrices, all at their most negative value, with the limits at and one
    above the largest register. Every product is positive, so that register
    is the reducer's W8 fold of a column: n inputs of 128 times the
    stationary word, whose fields are nw weights of 2^(w-1). Three input
    rows at least, so that even at n = 1 a W2 pass folds one of them in
    reducer stage 2."""
    for precision in Precision:
        w = precision.weight_bits
        for nw in range(1, precision.r + 1):
            word = sum(1 << (w - 1 + w * t) for t in range(nw))
            for n in range(1, 9):
                largest = 128 * n * word
                job = MatMulJob(
                    a=np.full((3 * n, 2 * n), -128),
                    weights=[np.full((2 * n, n), -(1 << (w - 1)))] * nw,
                    precision=precision,
                    n=n,
                )
                yield job, {}, (largest, largest + 1)


def edge_digest() -> tuple[int, int, str]:
    """`_digest` over the overflow-edge runs of `_edge_cases`."""
    return _digest(_edge_cases())


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--configs", type=int, default=200, help="random configs, each run 6 times")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.configs < 1:
        parser.error(f"--configs must be >= 1, got {args.configs}")
    documents, cost_sha = cost_digest()
    print(f"cost reports and sweep rows {documents} sha256 {cost_sha}")
    runs, overflows, sha = edge_digest()
    print(f"overflow edge runs {runs} overflows {overflows} sha256 {sha}")
    runs, overflows, sha = run_digest(args.configs, args.seed)
    print(f"runs {runs} overflows {overflows}")
    print(f"sha256 {sha}")


if __name__ == "__main__":
    main()
