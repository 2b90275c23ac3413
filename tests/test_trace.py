"""Per-PE trace of the stepped reference `ArraySim`, pinned byte for byte.

The first sha256 and line count below were taken from the per-cycle trace
writer that formatted and wrote one cycle at a time, under the schedule
that fused separate matrices r at a time; `reference.grouped_run_tiled`
replays that schedule, and the pass-buffered writer must reproduce them
exactly. The second pair pins the column-block schedule that packed
whole column tiles (`reference.tile_packed_run_tiled`) on the same jobs,
and the third `run_tiled`'s column-level packing; each was taken after the
same runs matched the per-cycle stepper of tests/test_closed_form.py byte
for byte, and the oracle. Every case runs at the precision's pipeline
depth; the code that still took two depth knobs gave the same three pairs
for these cases at its default depth. Every weight load is hidden behind
the pass before it: the three sha256s and the full-scale one below were
re-taken from the code that still had an `overlap_weights` switch, run
with it on for every case. No line count moved, since load cycles never
had trace lines; only cycle numbers did.
"""

import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import grouped_run_tiled, tile_packed_run_tiled

from adipsim import array
from adipsim.array import ArraySim
from adipsim.preprocess import Precision
from adipsim.tiling import MatMulJob, oracle_matmul, run_tiled

PINNED_CASES = [
    # precision, nw, n, (m, k, p)
    (Precision.W8, 2, 4, (5, 9, 6)),
    (Precision.W8, 1, 3, (7, 4, 5)),
    (Precision.W4, 3, 4, (6, 5, 7)),
    (Precision.W4, 2, 2, (3, 3, 5)),
    (Precision.W2, 5, 4, (9, 6, 4)),
    (Precision.W2, 9, 3, (4, 7, 3)),
    (Precision.W2, 1, 5, (11, 5, 8)),
    (Precision.W2, 3, 1, (2, 3, 2)),
]

PINNED_SHA256 = "67bec6f055bedbf90d093581876a71cdf02976daaac8d31352124f17d86e84e9"
PINNED_LINES = 7222
# Cases 3, 7 and 8 leave weight fields empty under the grouped schedule;
# packed by column tiles, they take fewer passes.
TILE_PACKED_SHA256 = "de2b854818fbc6cd2b7c50430241aa29ca5ecfb9bf91d85e79790ac5cdeea611"
TILE_PACKED_LINES = 6363
# Cases 1, 3, 4 and 6 hold more than one matrix whose P is not a multiple
# of n; packed by columns, they pad no tile per matrix.
PACKED_SHA256 = "8dcd356edc49ee942d2b64084499323e0daee1ea7f4610590422c46f4aa01353"
PACKED_LINES = 5739


def _job(rng, precision, nw, n, dims):
    m, k, p = dims
    hi = 1 << (precision.weight_bits - 1)
    return MatMulJob(
        a=rng.integers(-128, 128, size=(m, k)),
        weights=[rng.integers(-hi, hi, size=(k, p)) for _ in range(nw)],
        precision=precision,
        n=n,
    )


def _pinned_digest(run):
    """sha256 and line count of the traces of `PINNED_CASES` run by `run`,
    a function with `run_tiled`'s arguments and result; every output must
    equal the oracle's and every trace end on the run's last cycle."""
    rng = np.random.default_rng(404)
    digest = hashlib.sha256()
    lines = 0
    for precision, nw, n, dims in PINNED_CASES:
        job = _job(rng, precision, nw, n, dims)
        sink = io.StringIO()
        result = run(job, trace=sink)
        for got, want in zip(result.outputs, oracle_matmul(job), strict=True):
            assert np.array_equal(got, want)
        text = sink.getvalue()
        assert int(text.rsplit("\n", 2)[-2].split(",", 1)[0]) == result.total_cycles
        digest.update(text.encode())
        lines += text.count("\n")
    return digest.hexdigest(), lines


def test_trace_bytes_are_pinned():
    assert _pinned_digest(run_tiled) == (PACKED_SHA256, PACKED_LINES)


def test_grouped_schedule_keeps_the_old_trace_pin():
    """The engine and trace writer are unchanged: under the schedule they
    were pinned with, the same jobs give the same bytes."""
    assert _pinned_digest(grouped_run_tiled) == (PINNED_SHA256, PINNED_LINES)


def test_tile_packed_schedule_keeps_its_trace_pin():
    assert _pinned_digest(tile_packed_run_tiled) == (TILE_PACKED_SHA256, TILE_PACKED_LINES)


@pytest.mark.parametrize("block_cycles", [2, 3, 5])
def test_long_passes_are_written_in_blocks(block_cycles, monkeypatch):
    """Passes longer than the trace block are written block by block, with
    the same bytes as in one write."""
    rng = np.random.default_rng(406)
    job = _job(rng, Precision.W2, 5, 4, (9, 6, 4))
    whole = io.StringIO()
    run_tiled(job, trace=whole)
    monkeypatch.setattr(array, "_TRACE_BYTES", block_cycles * 4 * 4 * array._REGISTER_BYTES)
    blocks = io.StringIO()
    run_tiled(job, trace=blocks)
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
    result = run_tiled(job, trace=whole)
    monkeypatch.setattr(array, "_TRACE_BYTES", trace_bytes)
    sliced = _WriteCounter()
    run_tiled(job, trace=sliced)
    assert sliced.getvalue() == whole.getvalue()
    clocks = result.total_cycles  # every cycle is traced
    assert whole.getvalue().count("\n") == 1 + clocks * 7 * 7
    assert sliced.writes > 1 + clocks
    if trace_bytes == 1:
        assert sliced.writes == 1 + clocks * 7  # the header, then one PE row a write


# Full-scale traces: every input -128 and every weight the value with the
# widest fold reach of its precision, so a W8 column at n = 32 drives its
# buses to five digits (128 * 3 * 32 = 12 288), and n >= 11 mixes one- and
# two-digit row and column numbers within one cycle.
FULL_SCALE_CASES = [
    # precision, nw, weight, n, (m, k, p)
    (Precision.W8, 1, -65, 11, (13, 22, 11)),
    (Precision.W8, 1, -65, 32, (40, 32, 32)),
    (Precision.W4, 2, -5, 12, (12, 12, 12)),
    (Precision.W2, 4, -2, 11, (11, 11, 11)),
]

FULL_SCALE_SHA256 = "9c845c83438084eecfaed528001a6a68364e04e8b0f84e86faadbddd441c9332"
FULL_SCALE_LINES = 113557


def test_full_scale_trace_bytes_are_pinned():
    digest = hashlib.sha256()
    lines = 0
    for precision, nw, weight, n, (m, k, p) in FULL_SCALE_CASES:
        job = MatMulJob(
            a=np.full((m, k), -128),
            weights=[np.full((k, p), weight)] * nw,
            precision=precision,
            n=n,
        )
        sink = io.StringIO()
        result = run_tiled(job, trace=sink)
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
    values[:, :, 1:] = history.reshape(steps, 5, n * n).transpose(0, 2, 1)
    return (line * steps) % tuple(values.ravel().tolist())


# Register values around every digit-count boundary of the 32-bit range.
_EDGE_VALUES = [0, -(1 << 31), (1 << 31) - 1] + [
    sign * value for k in range(10) for value in (10**k, 10**k - 1) for sign in (1, -1)
]
_registers = st.one_of(st.sampled_from(_EDGE_VALUES), st.integers(-(1 << 31), (1 << 31) - 1))


@st.composite
def _trace_blocks(draw):
    """n, the registers of `steps` clocks, and `after`, the cycle before
    them. The cycles often cross 9 -> 10,
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
    seed = draw(st.integers(0, (1 << 32) - 1))
    history = np.random.default_rng(seed).choice(pool, size=(steps, 5, n, n))
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
    """Every array size `ArraySim` takes keeps every register that int8
    inputs can form, on any precision, within int32: 128 * n times the
    widest W8 fold reach of any word (W8's, the widest) stays below 2^31
    up to `SIZE_LIMIT` - 1, and reaches it at `SIZE_LIMIT`, which the
    array rejects."""
    reaches = {precision: array._widest_reach(precision) for precision in Precision}
    assert reaches == {Precision.W8: 191, Precision.W4: 187, Precision.W2: 170}
    assert array.SIZE_LIMIT == 87_839
    assert 128 * (array.SIZE_LIMIT - 1) * reaches[Precision.W8] < 1 << 31
    assert 128 * array.SIZE_LIMIT * reaches[Precision.W8] >= 1 << 31
    for precision in Precision:
        assert ArraySim(array.SIZE_LIMIT - 1, precision).n == array.SIZE_LIMIT - 1
        with pytest.raises(ValueError, match="87839"):
            ArraySim(array.SIZE_LIMIT, precision)


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
