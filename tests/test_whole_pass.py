"""Untraced against traced runs of the one group engine, `ArraySim.stream_grid`.

Untraced `run_tiled` forms a group's registers only where an overflow check
needs them; traced `run_tiled` forms and writes every one. Both must agree
on outputs, cycles, pass counts and on which inputs overflow the 32-bit
psum bus or reducer, and with which message.
"""

import io
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adipsim import array
from adipsim.array import ArraySim, PsumOverflowError
from adipsim.numerics import bit_fields, ceil_div
from adipsim.preprocess import Precision, decode_slots, prepare_weights
from adipsim.tiling import MatMulJob, run_tiled

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


def _both(job, **kwargs):
    return run_tiled(job, **kwargs), run_tiled(job, trace=CountingSink(), **kwargs)


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
        "overlap": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_configs())
def test_whole_pass_matches_stepped(cfg):
    rng = np.random.default_rng(cfg["seed"])
    job = _job(rng, cfg["precision"], cfg["nw"], cfg["n"], cfg["m"], cfg["k"], cfg["p"])
    fast, stepped = _both(job, overlap_weights=cfg["overlap"])
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
    fast, stepped = _both(job, overlap_weights=False)
    assert fast.pass_count == stepped.pass_count == 2
    assert fast.total_cycles == stepped.total_cycles == 2 * (4 + 4 + 1 + 1 - 2)
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


def _last_row_heavy(n, rows):
    """All-zero input except a full-scale last row: its stage-2 value is the
    largest one, and W4/W2 passes never form it."""
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
    """Find the smallest limit the stepped path passes at; the whole-pass
    path must pass there and raise one below, like the stepped path."""
    rng = np.random.default_rng(n * 100 + precision.value * 10 + nw)
    m, k, p = dims
    a = _last_row_heavy(k, m) if heavy else None
    job = _job(rng, precision, nw, n, m, k, p, a=a)
    lo, hi = 1, 1 << 31  # the stepped path raises at lo and passes at hi
    assert _raises(job, lo, monkeypatch) == [True, True]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _raises(job, mid, monkeypatch)[1]:
            lo = mid
        else:
            hi = mid
    assert _raises(job, hi, monkeypatch) == [False, False]
    assert _raises(job, lo, monkeypatch) == [True, True]


def test_last_row_stage2_is_never_formed_at_w4_and_w2(monkeypatch):
    """With the big value on the last row only, a limit between the largest
    bus value and its W8 fold trips the reducer at W8 but not at W4 or W2."""
    n = 4
    a = _last_row_heavy(n, n)
    for precision, nw, expected in ((Precision.W8, 1, True), (Precision.W4, 2, False), (Precision.W2, 4, False)):
        hi = (1 << (precision.weight_bits - 1)) - 1
        ones = np.full((n, n), -1 if precision is Precision.W2 else hi, dtype=np.int64)
        job = MatMulJob(a, [ones] * nw, precision, n)
        # bus values stay within 128 * 3 * n; folded W8 values reach 128 * 255 * n
        assert _raises(job, 128 * 3 * n + 1, monkeypatch) == [expected, expected]


def _outcome(run):
    """Whether `run(sink)` overflows, and the trace it wrote until then."""
    sink = io.StringIO()
    try:
        run(sink)
    except PsumOverflowError:
        return True, sink.getvalue()
    return False, sink.getvalue()


def _gated_and_every_cycle(run, monkeypatch):
    """`run`'s outcome with the bound-gated register checks, then with the
    bound forced on, so that every cycle is checked."""
    gated = _outcome(run)
    with monkeypatch.context() as m:
        m.setattr(array, "_row_may_overflow", lambda amax, n, precision: True)
        return gated, _outcome(run)


# W8 weights of -128 have slots (0, 0, 0, -2), so the fold reach of a 4-row
# column is 4 * 2 * 64 = 512; an all-(-128) row forms stage-2 values of
# 65536 = 128 * 512 and an all-127 row -65024 = -(127 * 512).
BOUND_EDGE_CASES = [
    # input value, limit, raises
    (-128, 128 * 512, True),  # the value reaches the limit: gate on, raise
    (-128, 128 * 512 - 1, True),
    (-128, 128 * 512 + 1, False),  # the bound is below the limit: gate off
    (127, 127 * 512, False),  # -limit fits the register
    (127, 127 * 512 - 1, True),
]


@pytest.mark.parametrize("value, limit, raises", BOUND_EDGE_CASES)
def test_gated_checks_raise_on_the_same_cycle_at_the_bound(value, limit, raises, monkeypatch):
    n = 4
    job = MatMulJob(np.full((2 * n, n), value), [np.full((n, n), -128)], Precision.W8, n)
    monkeypatch.setattr(array, "_PSUM_LIMIT", limit)
    gated, every_cycle = _gated_and_every_cycle(lambda sink: run_tiled(job, trace=sink), monkeypatch)
    assert gated == every_cycle
    assert gated[0] is raises
    assert _raises(job, limit, monkeypatch) == [raises, raises]


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


def _smallest_passing_limit(job, monkeypatch):
    """Binary search for the smallest limit the stepped path passes at; both
    paths must raise one below it and pass at it."""
    lo, hi = 1, 1 << 31  # the stepped path raises at lo and passes at hi
    assert _raises(job, lo, monkeypatch) == [True, True]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _raises(job, mid, monkeypatch)[1]:
            lo = mid
        else:
            hi = mid
    assert _raises(job, hi, monkeypatch) == [False, False]
    assert _raises(job, lo, monkeypatch) == [True, True]
    return hi


@pytest.mark.parametrize(
    "precision, nw, heavy",
    [(Precision.W8, 1, -128), (Precision.W4, 2, -8), (Precision.W2, 4, -2)],
)
def test_batched_gate_with_one_tile_on(precision, nw, heavy, monkeypatch):
    """Blocks of three tiles where, one below the smallest passing limit,
    only the middle tile of the first k-row can overflow: the untraced path
    must check that tile and raise on the same limits as the stepped
    path."""
    n = 4
    weights = np.ones((2 * n, 3 * n), dtype=np.int64)
    weights[:n, n : 2 * n] = heavy
    job = MatMulJob(np.full((2 * n, 2 * n), -128), [weights] * nw, precision, n)
    _smallest_passing_limit(job, monkeypatch)


@pytest.mark.parametrize(
    "precision, opens_at",
    [(Precision.W8, 87_839), (Precision.W4, 89_718), (Precision.W2, 98_690)],
)
def test_gate_is_off_for_every_storable_tile_size(precision, opens_at):
    """The packed-file header holds n in 16 bits, so no storable tile column
    is longer than 65 535 rows. The bound for a column of that length,
    streaming full-scale inputs, is off at the real 32-bit limit, so an
    untraced run forms no register of such a tile. It turns on once a
    column of the word with the widest W8 fold reach could reach the
    limit."""
    slots = decode_slots(np.arange(256), precision)  # [g, word]
    reach = (np.abs(slots) << (2 * np.arange(4))[:, None]).sum(axis=0)
    assert ceil_div(array._PSUM_LIMIT, 128 * int(reach.max())) == opens_at
    assert not array._row_may_overflow(128, (1 << 16) - 1, precision)
    assert not array._row_may_overflow(128, opens_at - 1, precision)
    assert array._row_may_overflow(128, opens_at, precision)


def test_input_is_scanned_only_when_the_int8_bound_could_trip(monkeypatch):
    """`stream_grid` evaluates the bound at |a| = 128 first: at the real
    limit that settles it, with no scan of the input. Under a lowered
    limit it scans, and gates on the input's own largest magnitude."""
    job = MatMulJob(np.full((3, 5), -7), [np.ones((5, 6), dtype=np.int64)], Precision.W8, 4)
    amaxes = []

    def spy(amax, n, precision):
        amaxes.append(amax)
        return bound(amax, n, precision)

    bound = array._row_may_overflow
    monkeypatch.setattr(array, "_row_may_overflow", spy)
    run_tiled(job)
    assert amaxes == [128]
    del amaxes[:]
    monkeypatch.setattr(array, "_PSUM_LIMIT", 1000)
    run_tiled(job)
    assert amaxes == [128, 7]


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
    """A 3 x 3 grid where, one below the smallest passing limit, only tile
    (k = 1, j = 2) can overflow, and only with the largest input of its own
    k-row (the other k-rows stream smaller inputs): the untraced path must
    check that pass and raise on the same limits as the stepped path."""
    n = 4
    weights = np.ones((3 * n, 3 * n), dtype=np.int64)
    weights[n : 2 * n, 2 * n :] = heavy
    a = np.full((2 * n, 3 * n), 100, dtype=np.int64)
    a[:, n : 2 * n] = -128
    job = MatMulJob(a, [weights] * nw, precision, n)
    _smallest_passing_limit(job, monkeypatch)


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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    precision=st.sampled_from(list(Precision)),
    n=st.integers(1, 8),
    tiles=st.integers(1, 3),
    heavy=st.floats(0, 1),
    amax=st.integers(0, 128),
    offset=st.integers(-2, 2) | st.integers(-(1 << 20), 1 << 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_pre_bound_is_sound(precision, n, tiles, heavy, amax, offset, seed):
    """Over random W = r jobs of `tiles` k-rows (a share `heavy` of the
    stationary words the widest one, and of the inputs -amax, the rest of
    magnitude at most amax) and limits around amax * n times the widest
    word's reach: whenever `_row_may_overflow` is off, a run that checks
    every register raises nothing. At W2 the widest word's slots are all
    -2, so an all-widest job on all -amax inputs forms that very value."""
    rng = np.random.default_rng(seed)
    word, reach = _widest_word(precision)
    words = rng.integers(0, 256, size=(tiles * n, n), dtype=np.uint8)
    words[rng.random(words.shape) < heavy] = word
    weights = list(bit_fields(words, precision.weight_bits, precision.r).astype(np.int64))
    a = rng.integers(-amax, amax + 1, size=(2 * n, tiles * n))
    a[rng.random(a.shape) < heavy] = -amax
    job = MatMulJob(a, weights, precision, n)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(array, "_PSUM_LIMIT", max(1, amax * n * reach + offset))
        if not array._row_may_overflow(amax, n, precision):
            m.setattr(array, "_row_may_overflow", lambda amax, n, precision: True)
            run_tiled(job)  # every register checked


@pytest.mark.parametrize("n", [1, 8, 64])
def test_untraced_runs_at_the_real_limit_decode_no_slots(n, monkeypatch):
    """At the 32-bit limit, with full-scale -128 inputs and every word the
    widest one (or its low fields, for fewer matrices), untraced `run_tiled`
    decodes no 2-bit slots and forms no register (`ArraySim._run`) for any
    precision and nw: the pre-bound keeps every group off the gated path."""
    calls = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for precision in Precision:  # the pre-bound's own decode, once per process
        array._widest_reach(precision)
    monkeypatch.setattr(array, "decode_slots", spy("decode_slots", array.decode_slots))
    monkeypatch.setattr(ArraySim, "_run", spy("_run", ArraySim._run))
    a = np.full((n, 2 * n), -128, dtype=np.int64)
    for precision in Precision:
        word = np.array(_widest_word(precision)[0], dtype=np.uint8)
        fields = bit_fields(word, precision.weight_bits, precision.r)
        for nw in range(1, precision.r + 1):
            weights = [np.full((2 * n, n), int(fields[t])) for t in range(nw)]
            result = run_tiled(MatMulJob(a, weights, precision, n))
            assert all(np.array_equal(got, a @ w) for got, w in zip(result.outputs, weights))
    assert calls == []


def test_gated_untraced_rows_form_no_outputs(monkeypatch):
    """Under a limit that turns the group's bound on but overflows no
    register, untraced `run_tiled` runs and checks all the group's passes
    with one `_run` and forms its outputs once, as the traced run does;
    its outputs equal the traced run's."""
    job = _job(np.random.default_rng(3), Precision.W8, 1, 8, 16, 32, 24)
    monkeypatch.setattr(array, "_PSUM_LIMIT", 1 << 17)
    calls = []

    def spy(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(array, "_group_outputs", spy("_group_outputs", array._group_outputs))
    monkeypatch.setattr(ArraySim, "_run", spy("_run", ArraySim._run))
    untraced = run_tiled(job)
    assert calls == ["_run", "_group_outputs"]  # all 4 x 3 passes checked in one run
    traced = run_tiled(job, trace=CountingSink())
    assert calls[2:] == ["_run", "_group_outputs"]
    assert (untraced.total_cycles, untraced.pass_count) == (traced.total_cycles, traced.pass_count)
    assert all(np.array_equal(u, t) for u, t in zip(untraced.outputs, traced.outputs, strict=True))


def test_untraced_and_traced_runs_raise_the_same_overflow(monkeypatch):
    """Both runs step a gated group's passes in one order, j then k, so the
    first register out of range is the same one: at limit 75 pass (j=0,
    k=1) puts 55 * 3 on a psum bus before pass (j=1, k=0) folds 1 * -80
    in the reducer."""
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
    assert messages == ["psum bus overflow", "psum bus overflow"]
