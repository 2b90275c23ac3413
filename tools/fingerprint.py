"""One sha256 over many fixed-seed `run_tiled` runs, to show that a change
to the simulator is bit-exact and cycle-exact, and others over the cost
reports and their stage rows.

    PYTHONPATH=src python3 tools/fingerprint.py --configs 200

Each config draws n in 1..8, a precision, 1..2r weight matrices, M, K
and P in 0..3n, and inputs of magnitude at most 128, 16 or 2; the
pipeline depth is the precision's, and every weight load is hidden
behind the pass before it. It runs untraced and traced, at an accumulator
limit of 2^31, 2^14 and 2^12, so the small limits make many runs overflow:
the one overflow check is on each output's running sum over the
reduction tiles, before the first pass streams. The
digest covers every run's outputs with their dtype, its cycles and
passes, or its overflow message, and the sha256 of its trace text. The
digest therefore fixes `run_tiled`'s schedule too: column-block packing
(every pass fills the r weight fields of a word) moved it, and so did
packing by columns rather than whole column tiles. `run_digest` takes
the run function, so the same configs can go through another schedule,
such as the grouped or tile-packed ones that `tests/reference.py`
replays for the older pins.

A second digest, printed on its own line first, covers the closed-form
models: `cost.summary` of each built-in model at n = 4, 8, 16, 32 and 64
under three `CostParams` variants (the defaults, output writes billed at
1 and at 4 bytes), then the rows of `analytic.sweep()`, each as JSON
with sorted keys.

A third, printed on the second line, covers the per-stage rows those
reports total: the stage CSV (`cost.write_stage_csv`) of `cost.evaluate`
for both architectures, each built-in model, the same five sizes and the
same three variants, so each stage's row and its split of traffic into
`bytes_in`, `bytes_w` and `bytes_out` are fixed too.

A fourth, printed next, covers runs at the overflow edge, where random
configs rarely land: every mode at n = 1..8, every input and weight at
its most negative value, run untraced and traced at an accumulator limit
equal to the largest running sum the job forms (so it overflows) and one
above it (so it fits). Run the tool with the same arguments on two
checkouts and compare the output.
"""

import argparse
import hashlib
import io
import json

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
    docs += [row._asdict() for row in analytic.sweep()]
    digest = hashlib.sha256()
    for doc in docs:
        digest.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
    return len(docs), digest.hexdigest()


def stage_digest() -> tuple[int, str]:
    """The number of stage CSVs and the sha256 over their text."""
    digest = hashlib.sha256()
    tables = 0
    for cfg in workload.builtin_models():
        for n in COST_SIZES:
            for variant in COST_VARIANTS:
                params = cost.CostParams(n=n, **variant)
                for arch in cost.Arch:
                    text = io.StringIO()
                    cost.write_stage_csv(cost.evaluate(cfg, arch, params), text)
                    digest.update(text.getvalue().encode())
                    tables += 1
    return tables, digest.hexdigest()


def _config(rng):
    """One random job."""
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
    return job


def _record(job, traced, run):
    """The bytes that one run of `run` adds to the digest, and whether it
    overflowed."""
    trace = io.StringIO() if traced else None
    try:
        result = run(job, trace=trace)
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
    records of each (job, limits) case, run by `run` untraced and traced at
    each limit."""
    digest = hashlib.sha256()
    runs = overflows = 0
    saved = array._PSUM_LIMIT
    try:
        for job, limits in cases:
            for limit in limits:
                array._PSUM_LIMIT = limit
                for traced in (False, True):
                    record, overflowed = _record(job, traced, run)
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
    return _digest(((_config(rng), LIMITS) for _ in range(configs)), run)


def _edge_cases():
    """Per mode and n = 1..8, a 3n x 2n input times nw 2n x n weight
    matrices, all at their most negative value, with the limits at and one
    above the largest running sum. Every product is 128 * 2^(w-1), so the
    largest running sum is every output, over both reduction tiles:
    K = 2n such products."""
    for precision in Precision:
        w = precision.weight_bits
        for nw in range(1, precision.r + 1):
            for n in range(1, 9):
                largest = 2 * n * 128 << (w - 1)
                job = MatMulJob(
                    a=np.full((3 * n, 2 * n), -128),
                    weights=[np.full((2 * n, n), -(1 << (w - 1)))] * nw,
                    precision=precision,
                    n=n,
                )
                yield job, (largest, largest + 1)


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
    tables, stage_sha = stage_digest()
    print(f"stage tables {tables} sha256 {stage_sha}")
    runs, overflows, sha = edge_digest()
    print(f"overflow edge runs {runs} overflows {overflows} sha256 {sha}")
    runs, overflows, sha = run_digest(args.configs, args.seed)
    print(f"runs {runs} overflows {overflows}")
    print(f"sha256 {sha}")


if __name__ == "__main__":
    main()
