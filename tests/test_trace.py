"""Per-PE trace of the stepped reference `ArraySim`, pinned byte for byte.

The sha256 and line counts below were taken from the per-cycle trace
writer that formatted and wrote one cycle at a time; the pass-buffered
writer must reproduce them exactly.
"""

import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adipsim import array
from adipsim.array import ArraySim
from adipsim.pe import PsumOverflowError
from adipsim.preprocess import Precision
from adipsim.tiling import MatMulJob, oracle_matmul, run_tiled

PINNED_CASES = [
    # precision, nw, n, (m, k, p), mac_stages, extra reduce stages, overlap
    (Precision.W8, 2, 4, (5, 9, 6), 1, 0, True),
    (Precision.W8, 1, 3, (7, 4, 5), 2, 1, False),
    (Precision.W4, 3, 4, (6, 5, 7), 3, 0, False),
    (Precision.W4, 2, 2, (3, 3, 5), 1, 1, True),
    (Precision.W2, 5, 4, (9, 6, 4), 2, 0, True),
    (Precision.W2, 9, 3, (4, 7, 3), 3, 2, False),
    (Precision.W2, 1, 5, (11, 5, 8), 1, 0, False),
    (Precision.W2, 3, 1, (2, 3, 2), 2, 0, True),
]

PINNED_SHA256 = "063fbdd5db07fa37b6f223f0efb74063c9fe2b9b5d4c14511162da6e82e1661c"
PINNED_LINES = 7968


def _job(rng, precision, nw, n, dims):
    m, k, p = dims
    hi = 1 << (precision.weight_bits - 1)
    return MatMulJob(
        a=rng.integers(-128, 128, size=(m, k)),
        weights=[rng.integers(-hi, hi, size=(k, p)) for _ in range(nw)],
        precision=precision,
        n=n,
    )


def test_trace_bytes_are_pinned():
    rng = np.random.default_rng(404)
    digest = hashlib.sha256()
    lines = 0
    for precision, nw, n, dims, mac_stages, extra, overlap in PINNED_CASES:
        job = _job(rng, precision, nw, n, dims)
        sink = io.StringIO()
        result = run_tiled(
            job,
            overlap_weights=overlap,
            mac_stages=mac_stages,
            reduce_stages=precision.reducer_stages + extra,
            trace=sink,
        )
        for got, want in zip(result.outputs, oracle_matmul(job)):
            assert np.array_equal(got, want)
        text = sink.getvalue()
        assert int(text.rsplit("\n", 2)[-2].split(",", 1)[0]) == result.total_cycles
        digest.update(text.encode())
        lines += text.count("\n")
    assert (digest.hexdigest(), lines) == (PINNED_SHA256, PINNED_LINES)


@pytest.mark.parametrize("block_cycles", [2, 3, 5])
def test_long_passes_are_written_in_blocks(block_cycles, monkeypatch):
    """Passes longer than the trace block are written block by block, with
    the same bytes as in one write."""
    rng = np.random.default_rng(406)
    job = _job(rng, Precision.W2, 5, 4, (9, 6, 4))
    whole = io.StringIO()
    run_tiled(job, mac_stages=2, trace=whole)
    monkeypatch.setattr(array, "_TRACE_BYTES", block_cycles * 4 * 4 * array._REGISTER_BYTES)
    blocks = io.StringIO()
    run_tiled(job, mac_stages=2, trace=blocks)
    assert blocks.getvalue() == whole.getvalue()


class _WriteCounter(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("trace_bytes", [1, 1500])
def test_a_clock_above_the_bound_is_written_in_pe_row_slices(trace_bytes, monkeypatch):
    """When one clock's lines exceed `_TRACE_BYTES`, the block is one clock
    and its lines are written in slices of PE rows: more than one write per
    clock, with the same bytes as a run whose bound holds every pass."""
    rng = np.random.default_rng(407)
    job = _job(rng, Precision.W2, 4, 7, (9, 10, 12))
    monkeypatch.setattr(array, "_TRACE_BYTES", 1 << 30)
    whole = io.StringIO()
    result = run_tiled(job, mac_stages=2, trace=whole)
    monkeypatch.setattr(array, "_TRACE_BYTES", trace_bytes)
    sliced = _WriteCounter()
    run_tiled(job, mac_stages=2, trace=sliced)
    assert sliced.getvalue() == whole.getvalue()
    clocks = result.total_cycles  # overlapped loads: every cycle is traced
    assert whole.getvalue().count("\n") == 1 + clocks * 7 * 7
    assert sliced.writes > 1 + clocks
    if trace_bytes == 1:
        assert sliced.writes == 1 + clocks * 7  # the header, then one PE row a write


@pytest.mark.parametrize("block_cycles", [None, 3])
def test_overflow_mid_pass_keeps_the_cycles_before_it(block_cycles, monkeypatch):
    """A reducer overflow on cycle 35, in the third of four 13-cycle passes:
    the trace holds the header and cycles 1..34, as when every cycle was
    written on its own."""
    rng = np.random.default_rng(405)
    job = _job(rng, Precision.W4, 2, 4, (8, 8, 8))
    monkeypatch.setattr(array, "_PSUM_LIMIT", 30000)
    if block_cycles is not None:
        monkeypatch.setattr(array, "_TRACE_BYTES", block_cycles * 4 * 4 * array._REGISTER_BYTES)
    sink = io.StringIO()
    with pytest.raises(PsumOverflowError, match="reducer"):
        run_tiled(job, mac_stages=2, trace=sink)
    lines = sink.getvalue().splitlines()
    assert len(lines) == 1 + 34 * 4 * 4
    assert lines[-1].startswith("34,3,3,")


# Full-scale traces: every input -128 and every weight the value with the
# widest fold reach of its precision, so a W8 column at n = 32 drives its
# buses to five digits (128 * 3 * 32 = 12 288), and n >= 11 mixes one- and
# two-digit row and column numbers within one cycle.
FULL_SCALE_CASES = [
    # precision, nw, weight, n, (m, k, p), mac_stages, extra reduce stages, overlap
    (Precision.W8, 1, -65, 11, (13, 22, 11), 1, 0, False),
    (Precision.W8, 1, -65, 32, (40, 32, 32), 1, 0, False),
    (Precision.W4, 2, -5, 12, (12, 12, 12), 2, 1, True),
    (Precision.W2, 4, -2, 11, (11, 11, 11), 1, 0, False),
]

FULL_SCALE_SHA256 = "4c9c789ffdf2f461dbd711f798bf823883c8803e1cd7a6238820eee50ef64525"
FULL_SCALE_LINES = 113845


def test_full_scale_trace_bytes_are_pinned():
    digest = hashlib.sha256()
    lines = 0
    for precision, nw, weight, n, (m, k, p), mac_stages, extra, overlap in FULL_SCALE_CASES:
        job = MatMulJob(
            a=np.full((m, k), -128),
            weights=[np.full((k, p), weight)] * nw,
            precision=precision,
            n=n,
        )
        sink = io.StringIO()
        result = run_tiled(
            job,
            overlap_weights=overlap,
            mac_stages=mac_stages,
            reduce_stages=precision.reducer_stages + extra,
            trace=sink,
        )
        for got in result.outputs:
            assert np.array_equal(got, np.full((m, p), -128 * weight * k))
        text = sink.getvalue()
        digest.update(text.encode())
        lines += text.count("\n")
    assert (digest.hexdigest(), lines) == (FULL_SCALE_SHA256, FULL_SCALE_LINES)


def _reference_lines(n, history, after, steps):
    """The trace writer `ArraySim._write_trace` replaced: one `%d` per
    field, over the Python ints of the whole block."""
    line = "".join(f"%d,{r},{c},%d,%d,%d,%d,%d\n" for r in range(n) for c in range(n))
    values = np.empty((steps, n * n, 6), dtype=np.int64)
    values[:, :, 0] = np.arange(after + 1, after + 1 + steps)[:, None]
    values[:, :, 1:] = history[:steps].reshape(steps, 5, n * n).transpose(0, 2, 1)
    return (line * steps) % tuple(values.ravel().tolist())


# Register values around every digit-count boundary of the 32-bit range.
_EDGE_VALUES = [0, -(1 << 31), (1 << 31) - 1] + [
    sign * value for k in range(10) for value in (10**k, 10**k - 1) for sign in (1, -1)
]
_registers = st.one_of(st.sampled_from(_EDGE_VALUES), st.integers(-(1 << 31), (1 << 31) - 1))


@st.composite
def _trace_blocks(draw):
    """n, a history buffer (deeper than the block, by up to 3 stale
    cycles), `after` and `steps`. The cycles often cross 9 -> 10,
    99 -> 100 or 9999 -> 10000 inside the block; the registers are drawn
    from a small pool of values, so that short and long numbers mix."""
    n = draw(st.integers(1, 12))
    steps = draw(st.integers(1, 40))
    boundary = draw(st.sampled_from([10, 100, 10_000]))
    after = draw(
        st.one_of(
            st.integers(max(0, boundary - steps - 1), boundary),
            st.integers(0, 1 << 40),
        )
    )
    pool = np.array(draw(st.lists(_registers, min_size=1, max_size=12)), dtype=np.int64)
    depth = steps + draw(st.integers(0, 3))
    seed = draw(st.integers(0, (1 << 32) - 1))
    history = np.random.default_rng(seed).choice(pool, size=(depth, 5, n, n))
    return n, history, after, steps


@settings(max_examples=300, deadline=None)
@given(_trace_blocks())
def test_write_trace_matches_the_percent_formatter(block):
    n, history, after, steps = block
    sink = io.StringIO()
    sim = ArraySim(n, Precision.W8, trace=sink)
    sim._write_trace(history.transpose(0, 2, 3, 1), np.arange(after + 1, after + 1 + steps))
    # as lists of lines after the header, whose first difference pytest reports quickly
    got = sink.getvalue().splitlines(keepends=True)[1:]
    assert got == _reference_lines(n, history, after, steps).splitlines(keepends=True)


@settings(max_examples=200, deadline=None)
@given(_trace_blocks())
def test_write_trace_of_int32_registers_matches_the_percent_formatter(block):
    """The same blocks in int32, the dtype the engine forms registers in:
    the digits are cut at 32 bits, -2^31 and 2^31 - 1 included."""
    n, history, after, steps = block
    sink = io.StringIO()
    sim = ArraySim(n, Precision.W8, trace=sink)
    sim._write_trace(history.astype(np.int32).transpose(0, 2, 3, 1), np.arange(after + 1, after + 1 + steps))
    got = sink.getvalue().splitlines(keepends=True)[1:]
    assert got == _reference_lines(n, history, after, steps).splitlines(keepends=True)


@pytest.mark.parametrize("groups", [1, 2, 3])
def test_number_words_of_int32_match_the_percent_formatter(groups):
    """Every int32 edge value a number of `groups` words can hold, each
    followed by a comma, prints as `%d` does."""
    values = np.array([v for v in _EDGE_VALUES if len(str(abs(v))) <= 4 * groups], dtype=np.int32)
    out = np.empty((len(values), groups), dtype=np.uint64)
    array._number_words(values, groups, array._SECTION, out)
    assert out.tobytes().translate(None, b"\0").decode("ascii") == "".join("%d," % v for v in values.tolist())


# -- register width -----------------------------------------------------------


def test_registers_are_int32_at_every_array_size_a_run_allocates():
    """int32 is picked from int32's own range, not from `_PSUM_LIMIT`: for
    every precision at n = 1..64, and at the largest n whose registers
    fit; int64 one size above."""
    for precision in Precision:
        assert {array._register_dtype(n, precision) for n in range(1, 65)} == {np.int32}
        widest = ((1 << 31) - 1) // (128 * array._widest_reach(precision))
        assert array._register_dtype(widest, precision) is np.int32
        assert array._register_dtype(widest + 1, precision) is np.int64


def _traced_run(job, mac_stages, overlap):
    """Trace text, outputs and cycles of a traced run, or its trace text
    and overflow message."""
    sink = io.StringIO()
    try:
        result = run_tiled(job, overlap_weights=overlap, mac_stages=mac_stages, trace=sink)
    except PsumOverflowError as error:
        return sink.getvalue(), str(error)
    return sink.getvalue(), [out.tolist() for out in result.outputs], result.total_cycles


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    precision=st.sampled_from(list(Precision)),
    n=st.integers(1, 8),
    dims=st.tuples(st.integers(1, 17), st.integers(1, 17), st.integers(1, 17)),
    mac_stages=st.integers(1, 3),
    overlap=st.booleans(),
    limit=st.one_of(st.none(), st.integers(1, 1 << 16)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_int64_registers_give_the_same_run(precision, n, dims, mac_stages, overlap, limit, seed, data):
    """Forcing the int64 registers that only an array too large to allocate
    takes changes nothing: the same trace text, outputs and cycles, or the
    same overflow after the same trace lines, at the default limit and at
    a lowered `_PSUM_LIMIT`."""
    nw = data.draw(st.integers(1, precision.r), label="nw")
    job = _job(np.random.default_rng(seed), precision, nw, n, dims)
    with pytest.MonkeyPatch.context() as patch:
        if limit is not None:
            patch.setattr(array, "_PSUM_LIMIT", limit)
        int32 = _traced_run(job, mac_stages, overlap)
        patch.setattr(array, "_register_dtype", lambda n, precision: np.int64)
        int64 = _traced_run(job, mac_stages, overlap)
    assert int32 == int64


def test_register_blocks_of_a_traced_job_are_int32_within_the_trace_bound(monkeypatch):
    """Every register block of a traced n = 8 job is int32 and at most
    `_TRACE_BYTES`; stacked passes fill a block past half of it, so a
    block holds twice the clocks int64 registers would."""
    blocks = []

    def recording(*args):
        registers = form(*args)
        blocks.append(registers)
        return registers

    form = array._registers
    monkeypatch.setattr(array, "_registers", recording)
    rng = np.random.default_rng(408)
    job = _job(rng, Precision.W4, 2, 8, (20, 24, 40))
    result = run_tiled(job, trace=io.StringIO())
    assert all(np.array_equal(got, want) for got, want in zip(result.outputs, oracle_matmul(job)))
    assert blocks and all(b.dtype == np.int32 and b.nbytes <= array._TRACE_BYTES for b in blocks)
    assert max(b.nbytes for b in blocks) > array._TRACE_BYTES // 2
