"""Untraced against traced runs of the one group engine, `ArraySim.stream_grid`.

Untraced `run_tiled` forms no register; traced `run_tiled` forms and writes
every one. Both must agree on outputs, cycles, pass counts and on which
inputs overflow the 32-bit accumulator that sums each output over the
reduction tiles, and with which message; a brute-force int64 sum over the
tiles says which inputs do.
"""

import contextlib
import io
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import bit_fields_by_definition, running_sums

from adipsim import array
from adipsim.array import ArraySim, PsumOverflowError
from adipsim.numerics import ceil_div
from adipsim.preprocess import Precision, decode_slots, prepare_weights
from adipsim.tiling import MatMulJob, oracle_matmul, run_tiled

TESTS_DIR = Path(__file__).resolve().parent
SRC_DIR = TESTS_DIR.parent / "src"


class CountingSink:
    """Trace sink that keeps only a byte count."""

    def __init__(self):
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text)
        return len(text)

    def tell(self):
        return self.bytes


def _job(rng, precision, nw, n, m, k, p, a=None):
    lo, hi = -(1 << (precision.weight_bits - 1)), (1 << (precision.weight_bits - 1)) - 1
    return MatMulJob(
        a=rng.integers(-128, 128, size=(m, k)) if a is None else a,
        weights=[rng.integers(lo, hi + 1, size=(k, p)) for _ in range(nw)],
        precision=precision,
        n=n,
    )


def _both(job):
    return run_tiled(job), run_tiled(job, trace=CountingSink())


@st.composite
def _configs(draw):
    precision = draw(st.sampled_from(list(Precision)))
    n = draw(st.integers(1, 8))
    dims = st.integers(0, 3 * n)
    return {
        "precision": precision,
        "nw": draw(st.integers(1, 2 * precision.r)),
        "n": n,
        "m": draw(dims),
        "k": draw(dims),
        "p": draw(dims),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_configs())
def test_whole_pass_matches_stepped(cfg):
    rng = np.random.default_rng(cfg["seed"])
    job = _job(rng, cfg["precision"], cfg["nw"], cfg["n"], cfg["m"], cfg["k"], cfg["p"])
    fast, stepped = _both(job)
    assert fast.total_cycles == stepped.total_cycles
    assert fast.pass_count == stepped.pass_count
    assert len(fast.outputs) == len(stepped.outputs) == cfg["nw"]
    for got, want in zip(fast.outputs, stepped.outputs):
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_empty_input_keeps_stepped_cycle_count():
    """M = 0 still loads every tile and drains the pipeline on both paths."""
    rng = np.random.default_rng(0)
    job = _job(rng, Precision.W4, 2, 4, 0, 8, 4)
    fast, stepped = _both(job)
    assert fast.pass_count == stepped.pass_count == 2
    assert fast.total_cycles == stepped.total_cycles == 2 * (4 + 1 + 1 - 2)
    assert fast.outputs[0].shape == (0, 4)


@pytest.mark.parametrize(
    "a",
    [np.full((2, 4), 1000), np.full((2, 4), -129), np.ones(4, dtype=np.int64), np.ones((2, 5), dtype=np.int64)],
    ids=["above 8 bits", "below 8 bits", "1-D", "wrong K"],
)
def test_both_engines_check_the_group_input(a):
    """A W8 grid of one 4 x 4 tile: untraced and traced `stream_grid` reject
    an input outside 8 bits, of another rank or with another K, before the
    traced one writes any line; a list of rows is an input like its array."""
    grid = prepare_weights([np.eye(4, dtype=np.int64)], Precision.W8, 4)
    trace = io.StringIO()
    with pytest.raises(ValueError):
        ArraySim(4, Precision.W8).stream_grid(grid, a)
    with pytest.raises(ValueError):
        ArraySim(4, Precision.W8, trace=trace).stream_grid(grid, a)
    assert trace.getvalue() == array.TRACE_HEADER + "\n"
    rows = [[1, -2, 3, -128], [127, 0, 0, 5]]
    want = np.array(rows)[:, None, :]
    assert np.array_equal(ArraySim(4, Precision.W8).stream_grid(grid, rows), want)
    assert np.array_equal(ArraySim(4, Precision.W8, trace=io.StringIO()).stream_grid(grid, rows), want)


@pytest.mark.parametrize(
    "precision, n",
    [(Precision.W4, 4), (Precision.W2, 4), (Precision.W8, 2), (Precision.W8, 8)],
    ids=["W4 grid", "W2 grid", "size-2 grid", "size-8 grid"],
)
def test_stream_grid_rejects_another_precision_or_size(precision, n):
    """A W8 array of size 4 rejects a grid of another precision or tile
    size, untraced and traced, before the traced one writes any line."""
    grid = prepare_weights([np.ones((n, n), dtype=np.int64)] * precision.r, precision, n)
    a = np.ones((2, n), dtype=np.int64)
    trace = io.StringIO()
    with pytest.raises(ValueError):
        ArraySim(4, Precision.W8).stream_grid(grid, a)
    with pytest.raises(ValueError):
        ArraySim(4, Precision.W8, trace=trace).stream_grid(grid, a)
    assert trace.getvalue() == array.TRACE_HEADER + "\n"


def _raises(job, limit, monkeypatch):
    monkeypatch.setattr(array, "_PSUM_LIMIT", limit)
    outcomes = []
    for trace in (None, CountingSink()):
        try:
            run_tiled(job, trace=trace)
        except PsumOverflowError:
            outcomes.append(True)
        else:
            outcomes.append(False)
    return outcomes


def _smallest_passing_limit(job, monkeypatch):
    """Binary search for the smallest limit the traced path passes at; both
    paths must raise one below it and pass at it, and it must be the
    smallest L whose [-L, L-1] holds every brute-force running sum."""
    lo, hi = 1, 1 << 31  # the traced path raises at lo and passes at hi
    assert _raises(job, lo, monkeypatch) == [True, True]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _raises(job, mid, monkeypatch)[1]:
            lo = mid
        else:
            hi = mid
    assert _raises(job, hi, monkeypatch) == [False, False]
    assert _raises(job, lo, monkeypatch) == [True, True]
    sums = running_sums(job.a, job.weights, job.n)
    assert hi == max(-int(sums.min()), int(sums.max()) + 1)
    return hi


def _last_row_heavy(n, rows):
    """All-zero input except a full-scale last row."""
    a = np.zeros((rows, n), dtype=np.int64)
    a[-1] = -128
    return a


OVERFLOW_CASES = [
    # precision, nw, n, (m, k, p), last-row-heavy input
    (Precision.W8, 1, 4, (8, 8, 4), False),
    (Precision.W8, 1, 3, (5, 7, 3), False),
    (Precision.W4, 2, 4, (8, 4, 4), False),
    (Precision.W4, 2, 4, (4, 4, 4), True),
    (Precision.W4, 1, 4, (4, 4, 4), True),
    (Precision.W2, 4, 4, (8, 8, 4), False),
    (Precision.W2, 3, 4, (4, 4, 4), True),
    (Precision.W2, 4, 4, (4, 4, 4), True),
    (Precision.W2, 2, 2, (3, 4, 2), True),
]


@pytest.mark.parametrize("precision, nw, n, dims, heavy", OVERFLOW_CASES)
def test_overflow_raised_on_the_same_inputs(precision, nw, n, dims, heavy, monkeypatch):
    """Untraced and traced runs pass at the same smallest limit, the
    brute-force one, and raise one below it."""
    rng = np.random.default_rng(n * 100 + precision.value * 10 + nw)
    m, k, p = dims
    a = _last_row_heavy(k, m) if heavy else None
    _smallest_passing_limit(_job(rng, precision, nw, n, m, k, p, a=a), monkeypatch)


# W8 weights of -128 on n = 4 with K = 4: one reduction tile, so each output
# is its one running sum. An all-(-128) row gives 65 536 = K * 128 * 128,
# the gate's own bound, and an all-127 row -65 024.
BOUND_EDGE_CASES = [
    # input value, limit, raises
    (-128, 128 * 512, True),  # the sum reaches the limit: gate on, raise
    (-128, 128 * 512 - 1, True),
    (-128, 128 * 512 + 1, False),  # the bound is below the limit: gate off
    (127, 127 * 512, False),  # -limit fits the accumulator
    (127, 127 * 512 - 1, True),
]


@pytest.mark.parametrize("value, limit, raises", BOUND_EDGE_CASES)
def test_gated_checks_raise_on_the_same_cycle_at_the_bound(value, limit, raises, monkeypatch):
    """At and around the gate's bound, untraced and traced runs raise
    exactly where a running sum leaves [-L, L-1], before the first cycle:
    a raising traced run writes its header alone."""
    n = 4
    job = MatMulJob(np.full((2 * n, n), value), [np.full((n, n), -128)], Precision.W8, n)
    assert _raises(job, limit, monkeypatch) == [raises, raises]
    sink = io.StringIO()
    with pytest.raises(PsumOverflowError) if raises else contextlib.nullcontext():
        run_tiled(job, trace=sink)
    assert (sink.getvalue() == array.TRACE_HEADER + "\n") is raises


def test_overflow_guards_survive_optimize_flag():
    script = textwrap.dedent(
        """
        import numpy as np
        from adipsim import array
        from adipsim.array import PsumOverflowError
        from reference import PE
        from adipsim.preprocess import Precision
        from adipsim.tiling import MatMulJob, run_tiled

        class Sink:
            def write(self, text):
                return len(text)

            def tell(self):
                return 1

        assert False, "assert statements must be stripped under -O"
        array._PSUM_LIMIT = 1000
        job = MatMulJob(np.full((4, 4), 127), [np.full((4, 4), 127)], Precision.W8, 4)
        for trace in (None, Sink()):
            try:
                run_tiled(job, trace=trace)
            except PsumOverflowError:
                continue
            raise SystemExit(f"no overflow raised with trace={trace}")
        pe = PE(Precision.W8)
        pe.load_weight(1)
        try:
            pe.step(127, (2**31 - 1, 0, 0, 0))
        except PsumOverflowError:
            pass
        else:
            raise SystemExit("PE.step raised no overflow")
        """
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC_DIR), str(TESTS_DIR)]))
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stdout + result.stderr



@pytest.mark.parametrize(
    "precision, nw, heavy",
    [(Precision.W8, 1, -128), (Precision.W4, 2, -8), (Precision.W2, 4, -2)],
)
def test_batched_gate_with_one_tile_on(precision, nw, heavy, monkeypatch):
    """Three column tiles where only the middle tile of the first k-row
    holds large weights: its outputs set the smallest passing limit, which
    untraced and traced runs find whether the check takes one reduction
    tile per block or all of them at once."""
    n = 4
    weights = np.ones((2 * n, 3 * n), dtype=np.int64)
    weights[:n, n : 2 * n] = heavy
    job = MatMulJob(np.full((2 * n, 2 * n), -128), [weights] * nw, precision, n)
    for block in (1, 1 << 16):
        monkeypatch.setattr(array, "_TRACE_BYTES", block)
        _smallest_passing_limit(job, monkeypatch)


@pytest.mark.parametrize(
    "precision, opens_at",
    [(Precision.W8, 87_839), (Precision.W4, 89_718), (Precision.W2, 98_690)],
)
def test_gate_is_off_for_every_storable_tile_size(precision, opens_at):
    """The packed-file header holds n in 16 bits, so no storable tile column
    is longer than 65 535 rows, and `ArraySim` takes every such size. Under
    each precision, a full-scale column of the word with the widest W8
    fold reach could first take a register past 32 bits at `opens_at`;
    W8's is the lowest, and it is `SIZE_LIMIT`."""
    slots = decode_slots(np.arange(256), precision)  # [g, word]
    reach = (np.abs(slots) << (2 * np.arange(4))[:, None]).sum(axis=0)
    assert ceil_div(1 << 31, 128 * int(reach.max())) == opens_at
    assert (1 << 16) - 1 < array.SIZE_LIMIT <= opens_at


def _spy(calls, name, fn):
    """`fn`, recording `name` in `calls` on each call."""

    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return wrapper


def test_input_is_scanned_only_when_the_int8_bound_could_trip(monkeypatch):
    """The accumulator check reads the input only when K full-scale
    products could reach the limit: at the real limit a K = 5 job decodes
    its weight field once, for its outputs; under a lowered limit the check
    decodes it once more, for its one block of tiles, and passes."""
    job = MatMulJob(np.full((3, 5), -7), [np.ones((5, 6), dtype=np.int64)], Precision.W8, 4)
    calls = []
    monkeypatch.setattr(array, "decode_field", _spy(calls, "decode_field", array.decode_field))
    run_tiled(job)
    assert calls == ["decode_field"]
    monkeypatch.setattr(array, "_PSUM_LIMIT", 1000)
    assert np.array_equal(run_tiled(job).outputs[0], np.full((3, 6), -35))
    assert calls == ["decode_field"] * 3


def test_full_scale_block_is_exact():
    """The largest products and sums an n = 64 W8 pass forms (every input and
    weight -128, K = 4n) come out exact from the float64 matmul."""
    n = 64
    a = np.full((n, 4 * n), -128, dtype=np.int64)
    w = np.full((4 * n, n), -128, dtype=np.int64)
    job = MatMulJob(a, [w], Precision.W8, n)
    fast, stepped = _both(job)
    assert np.array_equal(fast.outputs[0], a @ w)
    assert np.array_equal(stepped.outputs[0], a @ w)
    assert fast.total_cycles == stepped.total_cycles
    assert int(fast.outputs[0].max()) == 4 * n * 128 * 128



@pytest.mark.parametrize(
    "precision, nw, heavy",
    [(Precision.W8, 1, -128), (Precision.W4, 2, -8), (Precision.W2, 4, -2)],
)
def test_gate_in_a_later_k_row_uses_that_rows_inputs(precision, nw, heavy, monkeypatch):
    """A 3 x 3 grid where only tile (k = 1, j = 2) holds large weights, and
    the k-rows after the first stream -128: the running sums of column
    tile 2 peak after the second reduction tile and fall back by the last.
    Both paths must catch that peak, which no final output reaches."""
    n = 4
    weights = np.ones((3 * n, 3 * n), dtype=np.int64)
    weights[n : 2 * n, 2 * n :] = heavy
    a = np.full((2 * n, 3 * n), -128, dtype=np.int64)
    a[:, :n] = 100
    job = MatMulJob(a, [weights] * nw, precision, n)
    peak = 400 + 4 * 128 * -heavy
    assert _smallest_passing_limit(job, monkeypatch) == peak + 1
    assert all(int(abs(out).max()) < peak for out in oracle_matmul(job))


def _float32_edge(k_dim):
    """W8 job with K = k_dim at n = 4 whose first output is
    (k_dim - 1) * 2^14 + 1, the largest that K allows with an odd sum."""
    rng = np.random.default_rng(k_dim)
    a = rng.integers(-128, 128, size=(3, k_dim))
    w = rng.integers(-128, 128, size=(k_dim, 5))
    a[0, :-1] = w[:-1, 0] = -128
    a[0, -1] = w[-1, 0] = 1
    a[1] = w[:, 1] = -128
    return MatMulJob(a, [w], Precision.W8, 4)


@pytest.mark.parametrize("k_dim, float32_exact", [(1024, True), (1025, False)])
def test_matmul_dtype_switches_at_the_float32_bound(k_dim, float32_exact):
    """At W8 the sums stay within float32's exact range while 2^14 * K <=
    2^24, so up to K = 1024; one row more and float32 gets them wrong. Both
    sides of the bound must equal int64 `a @ w` and the stepped path."""
    job = _float32_edge(k_dim)
    want = job.a.astype(np.int64) @ job.weights[0].astype(np.int64)
    assert int(want[0, 0]) == (k_dim - 1) * (1 << 14) + 1
    in_float32 = (job.a.astype(np.float32) @ job.weights[0].astype(np.float32)).astype(np.int64)
    assert np.array_equal(in_float32, want) is float32_exact
    fast, stepped = _both(job)
    assert np.array_equal(fast.outputs[0], want)
    assert np.array_equal(stepped.outputs[0], want)
    assert fast.total_cycles == stepped.total_cycles
    assert fast.pass_count == stepped.pass_count == ceil_div(k_dim, 4) * 2


@pytest.mark.parametrize("k_dim", [1024, 1025, 2048, 2049])
def test_w8_outputs_are_exact_at_the_chunk_edges(k_dim):
    """W8 sums K in float32 chunks of 2^10 rows: one chunk up to K = 1024,
    two up to 2048, three at 2049. At every edge, with the largest odd sum
    that K allows, both paths equal int64 `a @ w`."""
    job = _float32_edge(k_dim)
    want = job.a.astype(np.int64) @ job.weights[0].astype(np.int64)
    assert int(want[0, 0]) == (k_dim - 1) * (1 << 14) + 1
    fast, stepped = _both(job)
    assert np.array_equal(fast.outputs[0], want)
    assert np.array_equal(stepped.outputs[0], want)
    assert fast.total_cycles == stepped.total_cycles


@pytest.mark.parametrize("precision, nw, k_dim", [(Precision.W4, 1, (1 << 14) + 1), (Precision.W2, 4, (1 << 16) + 1)])
def test_narrow_outputs_are_exact_one_row_past_the_first_chunk(precision, nw, k_dim):
    """W4 and W2 chunks hold 2^14 and 2^16 rows of K. One row more, with the
    largest odd sum, one float32 matmul over the whole K rounds; the
    untraced run still equals int64 `a @ w` for every matrix."""
    bits = precision.weight_bits
    rng = np.random.default_rng(k_dim)
    lo = -(1 << (bits - 1))
    a = rng.integers(-128, 128, size=(3, k_dim))
    weights = [rng.integers(lo, -lo, size=(k_dim, 5)) for _ in range(nw)]
    a[0, :-1], a[0, -1] = -128, 1
    for w in weights:
        w[:-1, 0], w[-1, 0] = lo, 1
    job = MatMulJob(a, weights, precision, 4)
    result = run_tiled(job)
    for got, w in zip(result.outputs, weights, strict=True):
        want = a @ w
        assert int(want[0, 0]) == (k_dim - 1) * (1 << (6 + bits)) + 1
        in_float32 = (a.astype(np.float32) @ w.astype(np.float32)).astype(np.int64)
        assert not np.array_equal(in_float32, want)
        assert np.array_equal(got, want)



def _widest_word(precision):
    """The stationary word with the largest W8 fold reach under `precision`,
    and that reach."""
    slots = decode_slots(np.arange(256), precision)  # [g, word]
    reach = (np.abs(slots) << (2 * np.arange(4))[:, None]).sum(axis=0)
    return int(reach.argmax()), int(reach.max())


@st.composite
def _accumulator_cases(draw):
    """A job of r matrices whose inputs are of magnitude at most amax and
    whose weights are of the precision, a share `heavy` of each at its
    most negative value, and a limit around the gate's bound
    K * 128 * 2^(w-1), which an all-heavy job at amax = 128 forms
    (`BOUND_EDGE_CASES` pins that edge)."""
    precision = draw(st.sampled_from(list(Precision)))
    n, k = draw(st.integers(1, 8)), draw(st.integers(1, 24))
    heavy, amax = draw(st.floats(0, 1)), draw(st.integers(0, 128))
    offset = draw(st.integers(-2, 2) | st.integers(-(1 << 20), 1 << 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = -(1 << (precision.weight_bits - 1))
    a = rng.integers(-amax, amax + 1, size=(draw(st.integers(0, 2 * n)), k))
    a[rng.random(a.shape) < heavy] = -amax
    weights = rng.integers(lo, -lo, size=(precision.r, k, draw(st.integers(1, 2 * n))))
    weights[rng.random(weights.shape) < heavy] = lo
    return MatMulJob(a, list(weights), precision, n), max(1, k * 128 * -lo + offset)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_accumulator_cases())
@example((MatMulJob(np.full((1, 4), -128), [np.full((4, 1), -128)], Precision.W8, 4), 4 * 128 * 128))
def test_accumulator_gate_is_sound(case):
    """Whenever the gate is off, so that `_check_accumulator` decodes no
    weight field, no brute-force running sum over the reduction tiles
    leaves [-L, L-1]. The example is the bound itself: a sum of L."""
    job, limit = case
    grid = prepare_weights(job.weights, job.precision, job.n)
    calls = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(array, "_PSUM_LIMIT", limit)
        m.setattr(array, "decode_field", _spy(calls, "decode_field", array.decode_field))
        try:
            array._check_accumulator(grid, job.a)
        except PsumOverflowError:
            assert calls
    if not calls:
        sums = running_sums(job.a, job.weights, job.n)
        assert -limit <= sums.min() and sums.max() < limit


def _outcome(job, trace):
    """The run's outputs and cycles, or its overflow message."""
    try:
        result = run_tiled(job, trace=trace)
    except PsumOverflowError as exc:
        return str(exc)
    return [out.tolist() for out in result.outputs], result.total_cycles


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_accumulator_cases(), st.integers(0, 3))
def test_run_tiled_raises_iff_a_running_sum_leaves_the_range(case, shift):
    """At a lowered limit, untraced and traced `run_tiled` raise exactly
    when a brute-force running sum leaves [-L, L-1], with one message, and
    a raising traced run writes its header alone; otherwise both return
    the same outputs and cycles."""
    job, limit = case
    limit = max(1, limit >> shift)  # limits below the bound, where runs raise
    sums = running_sums(job.a, job.weights, job.n)
    sink = io.StringIO()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(array, "_PSUM_LIMIT", limit)
        untraced, traced = _outcome(job, None), _outcome(job, sink)
    assert untraced == traced
    raised = isinstance(untraced, str)
    assert raised is bool(sums.min() < -limit or sums.max() >= limit)
    if raised:
        assert untraced == f"accumulator overflow: a running sum over reduction tiles leaves [{-limit}, {limit - 1}]"
        assert sink.getvalue() == array.TRACE_HEADER + "\n"


@pytest.mark.parametrize("k_dim", [(1 << 17) - 1, 1 << 17, 131_136])
def test_full_scale_accumulator_edge(k_dim):
    """All -128, W8, n = 4: K products of 2^14 each. Below K = 2^17 the gate
    is off and every output, up to 2^31 - 2^14, fits; from K = 2^17 the
    last running sum reaches 2^31, and untraced and traced runs raise
    with one message before the traced one writes a line."""
    job = MatMulJob(np.full((1, k_dim), -128), [np.full((k_dim, 4), -128)], Precision.W8, 4)
    if k_dim < 1 << 17:
        assert np.array_equal(run_tiled(job).outputs[0], np.full((1, 4), (1 << 31) - (1 << 14)))
        return
    sink = io.StringIO()
    messages = []
    for trace in (None, sink):
        with pytest.raises(PsumOverflowError) as raised:
            run_tiled(job, trace=trace)
        messages.append(str(raised.value))
    assert messages == ["accumulator overflow: a running sum over reduction tiles leaves [-2147483648, 2147483647]"] * 2
    assert sink.getvalue() == array.TRACE_HEADER + "\n"


@pytest.mark.parametrize("n", [1, 8, 64])
def test_untraced_runs_at_the_real_limit_decode_no_slots(n, monkeypatch):
    """At the 32-bit limit, with full-scale -128 inputs and every word the
    widest one (or its low fields, for fewer matrices), untraced `run_tiled`
    decodes no 2-bit slots and forms no register (`ArraySim._run`) for any
    precision and nw: only a trace reads registers."""
    calls = []
    monkeypatch.setattr(array, "decode_slots", _spy(calls, "decode_slots", array.decode_slots))
    monkeypatch.setattr(ArraySim, "_run", _spy(calls, "_run", ArraySim._run))
    a = np.full((n, 2 * n), -128, dtype=np.int64)
    for precision in Precision:
        word = _widest_word(precision)[0]
        fields = bit_fields_by_definition(word, precision.weight_bits, precision.r, (True,) * precision.r)
        for nw in range(1, precision.r + 1):
            weights = [np.full((2 * n, n), fields[t]) for t in range(nw)]
            result = run_tiled(MatMulJob(a, weights, precision, n))
            assert all(np.array_equal(got, a @ w) for got, w in zip(result.outputs, weights))
    assert calls == []


def test_gated_untraced_rows_form_no_outputs(monkeypatch):
    """Under a limit that turns the accumulator check on but that no running
    sum reaches, untraced `run_tiled` checks the group once, forms no
    register and forms its outputs once; the traced run adds one `_run`
    for all its 4 x 3 passes, and its outputs equal the untraced run's."""
    job = _job(np.random.default_rng(3), Precision.W8, 1, 8, 16, 32, 24)
    monkeypatch.setattr(array, "_PSUM_LIMIT", 1 << 17)
    calls = []
    for name in ("_check_accumulator", "_group_outputs"):
        monkeypatch.setattr(array, name, _spy(calls, name, getattr(array, name)))
    monkeypatch.setattr(ArraySim, "_run", _spy(calls, "_run", ArraySim._run))
    untraced = run_tiled(job)
    assert calls == ["_check_accumulator", "_group_outputs"]
    traced = run_tiled(job, trace=CountingSink())
    assert calls[2:] == ["_check_accumulator", "_run", "_group_outputs"]
    assert (untraced.total_cycles, untraced.pass_count) == (traced.total_cycles, traced.pass_count)
    assert all(np.array_equal(u, t) for u, t in zip(untraced.outputs, traced.outputs, strict=True))


def test_untraced_and_traced_runs_raise_the_same_overflow(monkeypatch):
    """Both runs check the group's running sums before its first pass: at
    limit 75 the second reduction tile adds 55 * 39 to a sum of -14."""
    job = MatMulJob(
        a=[[1, 55, -20]],
        weights=[[[-14, -80, 66], [39, 99, -94], [93, -114, 37]]],
        precision=Precision.W8,
        n=1,
    )
    monkeypatch.setattr(array, "_PSUM_LIMIT", 75)
    messages = []
    for trace in (None, CountingSink()):
        with pytest.raises(PsumOverflowError) as raised:
            run_tiled(job, trace=trace)
        messages.append(str(raised.value))
    assert messages == ["accumulator overflow: a running sum over reduction tiles leaves [-75, 74]"] * 2
