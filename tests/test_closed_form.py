"""The closed-form registers of `ArraySim` against a per-cycle stepper.

`reference.SteppedArray` is the model `ArraySim` was before its registers
were formed in closed form, advanced one clock at a time. The properties
below run both on the same weights and inputs and require identical
outputs, cycles, trace text and accumulator-overflow errors.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import SteppedArray, check_accumulator, interleave, permute

from adipsim import array
from adipsim.array import ArraySim, PsumOverflowError
from adipsim.numerics import ceil_div
from adipsim.preprocess import Precision, prepare_weights
from adipsim.tiling import MatMulJob, plan, run_tiled


def stepped_run_tiled(job, trace):
    """Traced `run_tiled` as the plan's slot map lays it out, one clock at a
    time: the job's matrices side by side, P columns each, zero-padded to
    `virtual` runs of W = per * n columns, run v in weight field v of a
    word; each (j, k) tile of words interleaved from column tile j of every
    run, then loaded and streamed on `SteppedArray`, j outer, k inner,
    after `check_accumulator`. Returns (outputs, total cycles)."""
    n = job.n
    m_dim, k_dim, p_dim = job.shape
    the_plan = plan(job)
    tm, tk, per, virtual = the_plan.tm, the_plan.tk, the_plan.per, the_plan.virtual
    width = per * n
    a_pad = np.zeros((tm * n, tk * n), dtype=np.int64)
    a_pad[:m_dim, :k_dim] = job.a
    side = np.zeros((tk * n, virtual * width), dtype=np.int64)
    for t, w in enumerate(job.weights):
        side[:k_dim, t * p_dim : (t + 1) * p_dim] = w
    accum = np.zeros((tm * n, virtual * width), dtype=np.int64)
    sim = SteppedArray(n, job.precision, virtual, trace)
    check_accumulator(job.a, job.weights, n)
    for j in range(per):
        fields = [slice(v * width + j * n, v * width + (j + 1) * n) for v in range(virtual)]
        for k in range(tk):
            rows = slice(k * n, (k + 1) * n)
            sim.load_weights(permute(interleave([side[rows, c] for c in fields], job.precision.weight_bits)))
            for i, _, outs in sim.stream(a_pad[:, rows]):
                for c, out in zip(fields, outs):
                    accum[i, c] += out
    return [accum[:m_dim, t * p_dim : (t + 1) * p_dim] for t in range(len(job.weights))], sim.cycle


def _outcome(run, sink):
    """run()'s result, or the overflow message; then the trace text."""
    try:
        result = run()
    except PsumOverflowError as exc:
        return ("overflow", str(exc)), sink.getvalue()
    return result, sink.getvalue()


# Accumulator limits on a log scale from 2^5 up to 2^16, so that a run
# may overflow in its first reduction tile, in a later one or not at all.
_limits = st.one_of(
    st.none(),
    st.integers(6, 16).flatmap(lambda b: st.integers(1 << (b - 1), (1 << b) - 1)),
)


def _values(rng, shape, bits, full_scale):
    """Random signed `bits`-bit values, or (when `full_scale`) mostly the
    most negative one, which has the widest reach."""
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    values = rng.integers(lo, hi + 1, size=shape)
    if full_scale:
        values[rng.random(shape) < 0.8] = lo
    return values


@st.composite
def _stream_cases(draw):
    precision = draw(st.sampled_from(list(Precision)))
    n = draw(st.integers(1, 8))
    return {
        "precision": precision,
        "nw": draw(st.integers(1, precision.r)),
        "n": n,
        # row count and whether the rows are all zero; each stream is a pass
        # of its own, after the one weight load
        "streams": draw(st.lists(st.tuples(st.integers(0, 2 * n), st.booleans()), min_size=1, max_size=3)),
        "limit": draw(_limits),
        "full_scale": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(_stream_cases())
def test_streams_match_the_stepper(cfg):
    """One-tile `stream` against the stepper loading the tile and streaming
    the same rows, zero-padded to whole row tiles, once per stream."""
    precision, n = cfg["precision"], cfg["n"]
    rng = np.random.default_rng(cfg["seed"])
    weights = [_values(rng, (n, n), precision.weight_bits, cfg["full_scale"]) for _ in range(cfg["nw"])]
    packed = prepare_weights(weights, precision, n)
    streams = [_values(rng, (rows, n), 8, cfg["full_scale"]) * (not quiet) for rows, quiet in cfg["streams"]]
    with pytest.MonkeyPatch.context() as patch:
        if cfg["limit"] is not None:
            patch.setattr(array, "_PSUM_LIMIT", cfg["limit"])
        _check_streams(n, cfg, weights, packed, streams)


def _check_streams(n, cfg, weights, packed, streams):
    precision = cfg["precision"]
    sinks = io.StringIO(), io.StringIO()
    sim = ArraySim(n, precision, trace=sinks[0])
    ref = SteppedArray(n, precision, cfg["nw"], trace=sinks[1])
    sim.load_weights(packed)
    for rows in streams:

        def run_ref():
            padded = np.zeros((ceil_div(len(rows), n) * n, n), dtype=np.int64)
            padded[: len(rows)] = rows
            check_accumulator(padded, weights, n)
            ref.load_weights(permute(packed.words))
            return [outs for _, _, outs in ref.stream(padded)][: len(rows)]

        got = _outcome(lambda: sim.stream(rows).astype(np.int64).tolist(), sinks[0])
        assert got == _outcome(run_ref, sinks[1])
        assert sim.cycle == ref.cycle
        if got[0] and got[0][0] == "overflow":
            break


@st.composite
def _job_cases(draw):
    precision = draw(st.sampled_from(list(Precision)))
    n = draw(st.integers(1, 6))
    dims = st.integers(1, 3 * n)  # zero dims: tests/test_whole_pass.py
    return {
        "precision": precision,
        "nw": draw(st.integers(1, 2 * precision.r)),
        "n": n,
        "dims": (draw(dims), draw(dims), draw(dims)),
        "limit": draw(_limits),
        "full_scale": draw(st.booleans()),
        "block": draw(st.sampled_from([None, 1, 7, 40])),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_job_cases())
def test_traced_run_tiled_matches_the_stepper_pass_by_pass(cfg):
    """Traced `run_tiled` forms every pass of a fused group at once; it must
    write the stepper's trace, or raise the stepper's accumulator overflow
    after the same header."""
    precision, n = cfg["precision"], cfg["n"]
    rng = np.random.default_rng(cfg["seed"])
    m, k, p = cfg["dims"]
    job = MatMulJob(
        a=_values(rng, (m, k), 8, cfg["full_scale"]),
        weights=[_values(rng, (k, p), precision.weight_bits, cfg["full_scale"]) for _ in range(cfg["nw"])],
        precision=precision,
        n=n,
    )
    sinks = io.StringIO(), io.StringIO()

    def run_sim():
        result = run_tiled(job, trace=sinks[0])
        return [out.tolist() for out in result.outputs], result.total_cycles

    def run_ref():
        outputs, cycles = stepped_run_tiled(job, trace=sinks[1])
        return [out.tolist() for out in outputs], cycles

    with pytest.MonkeyPatch.context() as patch:
        if cfg["limit"] is not None:
            patch.setattr(array, "_PSUM_LIMIT", cfg["limit"])
        if cfg["block"] is not None:  # clocks per block, down to one
            patch.setattr(array, "_TRACE_BYTES", cfg["block"] * n * n * array._REGISTER_BYTES)
        assert _outcome(run_sim, sinks[0]) == _outcome(run_ref, sinks[1])


def _block_job():
    """W8 at n = 4, a 2 x 2 tile grid (four 13-cycle passes):
    every weight 1 except tile (k = 1, j = 1), the fourth pass, whose
    -128s add 4 * 128 * 128 = 65 536 to the running sums of -512 that
    tile (0, 1) leaves in the accumulator."""
    n = 4
    weights = np.ones((2 * n, 2 * n), dtype=np.int64)
    weights[n:, n:] = -128
    return MatMulJob(np.full((2 * n, 2 * n), -128), [weights], Precision.W8, n)


@pytest.mark.parametrize(
    "block_cycles",
    [
        26,  # two passes per block: the blocks split between passes
        39,  # three passes per block, then one
        5,  # 5 + 5 + 3 clocks per pass: the blocks split within each pass
        1,
    ],
)
@pytest.mark.parametrize("limit", [None, 60_000])
def test_blocks_split_between_and_within_passes(block_cycles, limit, monkeypatch):
    """Split into blocks or not, a traced group writes the same bytes and
    collects the same outputs and cycles; under a limit that only the
    second reduction tile's running sums reach, the accumulator check,
    however it blocks the tiles, raises the same error before any line."""
    job = _block_job()
    if limit is not None:
        monkeypatch.setattr(array, "_PSUM_LIMIT", limit)

    def run(block):
        monkeypatch.setattr(array, "_TRACE_BYTES", block * array._REGISTER_BYTES)
        sink = io.StringIO()

        def outputs_and_cycles():
            result = run_tiled(job, trace=sink)
            return [out.tolist() for out in result.outputs], result.total_cycles

        return _outcome(outputs_and_cycles, sink)

    whole = run(1 << 30)
    split = run(block_cycles * 4 * 4)
    assert split == whole
    if limit is None:
        assert whole[0][1] == 4 * 13
    else:
        limits = "[-60000, 59999]"
        assert whole[0] == ("overflow", f"accumulator overflow: a running sum over reduction tiles leaves {limits}")
        assert whole[1] == array.TRACE_HEADER + "\n"
