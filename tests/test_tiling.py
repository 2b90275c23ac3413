import io
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import tile_packed_run_tiled

from adipsim.analytic import AnalyticParams, tile_latency
from adipsim.array import TRACE_HEADER, ArraySim, stream_cycles
from adipsim.numerics import ceil_div
from adipsim.preprocess import Precision
from adipsim.tiling import MatMulJob, TiledPlan, oracle_matmul, plan, run_tiled

MODES = [
    (Precision.W8, 1),
    (Precision.W4, 1),
    (Precision.W4, 2),
    (Precision.W2, 1),
    (Precision.W2, 3),
    (Precision.W2, 4),
]


def _random_job(rng, precision, nw, n, dims=None):
    m, k, p = dims or (int(v) for v in rng.integers(1, 3 * n, 3))
    lo = -(1 << (precision.weight_bits - 1))
    hi = (1 << (precision.weight_bits - 1)) - 1
    return MatMulJob(
        a=rng.integers(-128, 128, size=(m, k)),
        weights=[rng.integers(lo, hi + 1, size=(k, p)) for _ in range(nw)],
        precision=precision,
        n=n,
    )


# -- oracle ---------------------------------------------------------------------


def test_oracle_identity_input():
    rng = np.random.default_rng(0)
    b = rng.integers(-128, 128, size=(6, 6))
    job = MatMulJob(np.eye(6, dtype=np.int64), [b], Precision.W8, 4)
    assert np.array_equal(oracle_matmul(job)[0], b)


def test_oracle_scalar_case():
    job = MatMulJob(np.array([[-7]]), [np.array([[9]])], Precision.W8, 4)
    assert oracle_matmul(job)[0].tolist() == [[-63]]


def test_oracle_matches_second_accumulation_order():
    """Cross-check the triple loop against numpy's independently ordered
    integer matmul on random shapes."""
    rng = np.random.default_rng(1)
    for _ in range(25):
        job = _random_job(rng, Precision.W8, 1, 4)
        golden = oracle_matmul(job)[0]
        assert np.array_equal(golden, job.a.astype(np.int64) @ job.weights[0].astype(np.int64))


# -- tiled runs -------------------------------------------------------------------


def test_square_multiple_pass_count_and_result():
    rng = np.random.default_rng(2)
    job = _random_job(rng, Precision.W8, 1, 4, dims=(8, 8, 8))
    result = run_tiled(job)
    assert result.pass_count == 4  # 2 x 2 weight tiles
    assert np.array_equal(result.outputs[0], oracle_matmul(job)[0])


def test_single_tile_is_one_pass():
    rng = np.random.default_rng(3)
    job = _random_job(rng, Precision.W8, 1, 4, dims=(4, 4, 4))
    assert run_tiled(job).pass_count == 1


def test_fused_pair_halves_passes():
    rng = np.random.default_rng(4)
    a = rng.integers(-128, 128, size=(8, 8))
    weights = [rng.integers(-8, 8, size=(8, 8)) for _ in range(2)]
    fused = run_tiled(MatMulJob(a, weights, Precision.W4, 4))
    unfused = run_tiled(MatMulJob(a, weights, Precision.W8, 4))
    assert fused.pass_count == 4
    assert unfused.pass_count == 8
    golden = oracle_matmul(MatMulJob(a, weights, Precision.W4, 4))
    for got, want in zip(fused.outputs, golden):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("precision, nw", MODES)
def test_random_shapes_match_oracle(precision, nw):
    rng = np.random.default_rng(precision.weight_bits * 100 + nw)
    for _ in range(8):
        job = _random_job(rng, precision, nw, 4)
        result = run_tiled(job)
        for got, want in zip(result.outputs, oracle_matmul(job)):
            assert np.array_equal(got, want)


def test_pass_count_ratio_equals_interleave_factor():
    rng = np.random.default_rng(5)
    for precision in (Precision.W4, Precision.W2):
        r = precision.r
        a = rng.integers(-128, 128, size=(8, 8))
        weights = [rng.integers(-2, 2, size=(8, 8)) for _ in range(r)]
        narrow = run_tiled(MatMulJob(a, weights, precision, 4))
        wide = run_tiled(MatMulJob(a, weights, Precision.W8, 4))
        assert wide.pass_count == r * narrow.pass_count


def test_three_matrices_at_w2_fuse_into_one_group():
    rng = np.random.default_rng(6)
    a = rng.integers(-128, 128, size=(4, 4))
    weights = [rng.integers(-2, 2, size=(4, 4)) for _ in range(3)]
    job = MatMulJob(a, weights, Precision.W2, 4)
    assert (plan(job).per, plan(job).virtual) == (1, 3)  # one tile each: matrix t in field t
    result = run_tiled(job)
    assert result.pass_count == 1
    assert len(result.outputs) == 3


def test_total_cycles_accounting():
    rng = np.random.default_rng(7)
    n = 4
    job = _random_job(rng, Precision.W8, 1, n, dims=(8, 8, 8))
    tm, passes = 2, 4
    per_pass = tm * n + n + 1 + 2 - 2
    assert run_tiled(job).total_cycles == passes * per_pass


def test_trace_cycles_rise_across_fused_groups():
    """Five W2 matrices of one column tile fill three virtual matrices of
    two: the fused group's second pass continues the first one's clock, so
    trace cycles never fall and end at the total."""
    rng = np.random.default_rng(11)
    job = _random_job(rng, Precision.W2, 5, 4, dims=(4, 4, 4))
    trace = io.StringIO()
    result = run_tiled(job, trace=trace)
    header, *lines = trace.getvalue().splitlines()
    cycles = [int(line.split(",", 1)[0]) for line in lines]
    assert (plan(job).per, plan(job).virtual, result.pass_count) == (2, 3, 2)
    assert header.startswith("cycle,") and not any(line.startswith("cycle,") for line in lines)
    assert all(a <= b for a, b in zip(cycles, cycles[1:]))
    assert cycles[-1] == result.total_cycles


class PipeSink:
    """Text sink that, like a pipe or stdout, cannot tell its position."""

    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)
        return len(text)

    def tell(self):
        raise io.UnsupportedOperation("not seekable")


def test_one_header_on_a_non_seekable_sink():
    """A job's passes write one header, whether or not the sink can tell
    its position."""
    rng = np.random.default_rng(12)
    job = _random_job(rng, Precision.W2, 5, 4, dims=(4, 4, 4))
    pipe, seekable = PipeSink(), io.StringIO()
    run_tiled(job, trace=pipe)
    run_tiled(job, trace=seekable)
    text = "".join(pipe.parts)
    assert text.count("cycle,") == 1
    assert text == seekable.getvalue()


def test_job_validation():
    with pytest.raises(ValueError):
        MatMulJob(np.zeros((2, 2)), [], Precision.W8, 4)
    with pytest.raises(ValueError):
        MatMulJob(np.zeros((2, 2)), [np.zeros((3, 2))], Precision.W8, 4)
    with pytest.raises(ValueError):
        MatMulJob(np.zeros((2, 2)), [np.zeros((2, 2)), np.zeros((2, 3))], Precision.W4, 4)
    with pytest.raises(ValueError):
        MatMulJob(np.full((2, 2), 300), [np.zeros((2, 2))], Precision.W8, 4)
    with pytest.raises(ValueError):
        MatMulJob(np.zeros((2, 2)), [np.full((2, 2), 3)], Precision.W2, 4)


@pytest.mark.parametrize(
    "a, w, what",
    [
        ([[1.5]], [[1.0]], "input element"),
        ([[1.0]], [[-0.25]], "weight"),
        ([[np.nan]], [[1.0]], "input element"),
        ([[1.0]], [[np.inf]], "weight"),
    ],
    ids=["fractional input", "fractional weight", "NaN input", "infinite weight"],
)
def test_job_rejects_non_integral_operands(a, w, what):
    """A float operand is accepted only when every element is a finite
    integer; otherwise the job names the operand instead of truncating."""
    with pytest.raises(ValueError, match=f"{what} not a finite integer"):
        MatMulJob(np.array(a), [np.array(w)], Precision.W8, 4)


_FORMS = {
    "int8": lambda x: x.astype(np.int8),
    "int16": lambda x: x.astype(np.int16),
    "int64": lambda x: x.astype(np.int64),
    "list": lambda x: x.tolist(),
    "float": lambda x: x.astype(np.float64),
}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    precision=st.sampled_from(list(Precision)),
    nw=st.integers(1, 3),
    n=st.integers(1, 5),
    dims=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)),
    seed=st.integers(0, 2**32 - 1),
)
def test_operand_dtype_does_not_change_the_job(precision, nw, n, dims, seed):
    """The same values given as int8, int16, int64, Python lists or integral
    floats make the same job: int8 operands, the same outputs, cycles and
    passes. Out-of-range values raise the same ValueError in every form
    that can hold them: an input of 200 and a weight one above the range."""
    rng = np.random.default_rng(seed)
    m, k, p = dims
    lo = -(1 << (precision.weight_bits - 1))
    a = rng.integers(-128, 128, size=(m, k))
    weights = [rng.integers(lo, -lo, size=(k, p)) for _ in range(nw)]
    results = []
    for form in _FORMS.values():
        job = MatMulJob(form(a), [form(w) for w in weights], precision, n)
        assert job.a.dtype == np.int8 and all(w.dtype == np.int8 for w in job.weights)
        results.append(run_tiled(job))
    for result in results[1:]:
        assert (result.total_cycles, result.pass_count) == (results[0].total_cycles, results[0].pass_count)
        assert all(np.array_equal(x, y) for x, y in zip(result.outputs, results[0].outputs, strict=True))
    bad_a, bad_w = a.copy(), weights[0].copy()
    bad_a[rng.integers(0, m), rng.integers(0, k)] = 200
    bad_w[rng.integers(0, k), rng.integers(0, p)] = -lo
    for what, x, ws in (("input element", bad_a, weights), ("weight", a, [bad_w] + weights[1:])):
        messages = set()
        for name, form in _FORMS.items():
            if name == "int8" and max(np.abs(x).max(), *(np.abs(w).max() for w in ws)) > 127:
                continue  # int8 cannot hold the value
            with pytest.raises(ValueError) as raised:
                MatMulJob(form(x), [form(w) for w in ws], precision, n)
            messages.add(str(raised.value))
        assert len(messages) == 1 and messages.pop().startswith(what)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    precision=st.sampled_from(list(Precision)),
    n=st.integers(1, 6),
    dims=st.tuples(st.integers(0, 14), st.integers(0, 14), st.integers(0, 14)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_random_jobs_are_exact_separate_and_clocked_by_the_closed_form(precision, n, dims, seed, data):
    """Any small job, zero M, K or P included, with 1 to r + 1 matrices:
    `run_tiled` gives one int64 M x P output per matrix, equal to the
    oracle's; writing into one output leaves every other unchanged; the
    traced run gives the same outputs and cycles; and the cycles are the
    pass count times the closed-form pass latency, `tile_latency` for n
    rows plus n cycles per further row tile, which is also the plan's own
    clock."""
    nw = data.draw(st.integers(1, precision.r + 1), label="nw")
    m, k, p = dims
    job = _random_job(np.random.default_rng(seed), precision, nw, n, dims)
    result = run_tiled(job)
    traced = run_tiled(job, trace=io.StringIO())
    golden = oracle_matmul(job)
    assert len(result.outputs) == len(traced.outputs) == nw
    for got, via_trace, want in zip(result.outputs, traced.outputs, golden):
        assert got.dtype == via_trace.dtype == np.int64 and got.shape == via_trace.shape == (m, p)
        assert np.array_equal(got, want) and np.array_equal(via_trace, want)
    for t in range(nw):
        before = [out.copy() for out in result.outputs]
        result.outputs[t][...] = 1 << 40
        assert all(np.array_equal(out, was) for u, (out, was) in enumerate(zip(result.outputs, before)) if u != t)
    the_plan = plan(job)
    per_pass = tile_latency(AnalyticParams.for_mode(n, precision.weight_bits)) + (the_plan.tm - 1) * n
    assert result.pass_count == traced.pass_count == the_plan.pass_count
    assert result.total_cycles == traced.total_cycles == the_plan.pass_count * per_pass
    assert result.total_cycles == traced.total_cycles == the_plan.cycles


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    mode=st.sampled_from(list(Precision)).flatmap(lambda p: st.tuples(st.just(p), st.integers(1, 2 * p.r + 1))),
    n=st.integers(1, 6),
    dims=st.tuples(st.integers(0, 14), st.integers(0, 14), st.integers(0, 14)),
    seed=st.integers(0, 2**32 - 1),
)
# one W2 matrix of 9 columns in three virtual matrices of 4, the last with
# one real column; three W4 matrices of 6 columns in two of 10, the second
# matrix across both, at M = 0; and nine W2 matrices with P = 0
@example(mode=(Precision.W2, 1), n=2, dims=(3, 3, 9), seed=1)
@example(mode=(Precision.W4, 3), n=2, dims=(0, 4, 6), seed=2)
@example(mode=(Precision.W2, 9), n=1, dims=(2, 2, 0), seed=3)
def test_packed_plan_fills_every_weight_field(mode, n, dims, seed):
    """Any small job with 1 to 2r + 1 matrices, zero M, K or P included:
    its columns fill at most r virtual matrices, each holding a real
    column; it takes tk * ceil(nw * P / (r * n)) passes, never more than
    the tk * ceil(nw * tp / r) of packing whole column tiles or the
    tk * tp * ceil(nw / r) of fusing whole matrices r at a time; its
    outputs equal the oracle's and are separate, also where a matrix spans
    virtual matrices; and traced and untraced runs take the same cycles."""
    precision, nw = mode
    job = _random_job(np.random.default_rng(seed), precision, nw, n, dims)
    the_plan = plan(job)
    tk, tp, per, virtual = the_plan.tk, the_plan.tp, the_plan.per, the_plan.virtual
    p, r = dims[2], precision.r
    assert the_plan.pass_count == tk * ceil_div(nw * p, r * n)
    assert the_plan.pass_count <= tk * ceil_div(nw * tp, r) <= tk * tp * ceil_div(nw, r)
    if p:  # each virtual matrix holds a real column
        assert virtual <= r and (virtual - 1) * per * n < nw * p <= virtual * per * n
    result = run_tiled(job)
    traced = run_tiled(job, trace=io.StringIO())
    assert result.pass_count == traced.pass_count == the_plan.pass_count
    assert result.total_cycles == traced.total_cycles
    for got, via_trace, want in zip(result.outputs, traced.outputs, oracle_matmul(job), strict=True):
        assert got.dtype == np.int64 and np.array_equal(got, want) and np.array_equal(via_trace, want)
    for t in range(nw):
        before = [out.copy() for out in result.outputs]
        result.outputs[t][...] = 1 << 40
        assert all(np.array_equal(out, was) for u, (out, was) in enumerate(zip(result.outputs, before)) if u != t)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    mode=st.sampled_from(list(Precision)).flatmap(lambda p: st.tuples(st.just(p), st.integers(1, 2 * p.r + 1))),
    n=st.integers(2, 6),
    shape=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(0, 3), st.integers(0, 5)),
    seed=st.integers(0, 2**32 - 1),
)
# six W2 matrices of 10 columns on 4 x 4: 60 columns in 4 passes a
# reduction tile, where whole column tiles (three a matrix) take 5
@example(mode=(Precision.W2, 6), n=4, shape=(3, 5, 2, 2), seed=4)
def test_column_packing_meets_the_pass_lower_bound(mode, n, shape, seed):
    """Jobs of 1 to 2r + 1 matrices with P = q * n + s, s < n, mostly
    ragged: each pass offers r * n output-column slots per reduction tile,
    and the job takes exactly tk * ceil(nw * P / (r * n)) passes, never
    more than the tk * ceil(nw * tp / r) of packing whole column tiles and
    equal to it when nw = 1 or n divides P, where the trace is that
    schedule's byte for byte. Outputs equal the oracle's, and the traced and
    untraced clocks are `TiledPlan.cycles`."""
    precision, nw = mode
    m, k, q, s = shape
    p = q * n + s % n
    job = _random_job(np.random.default_rng(seed), precision, nw, n, (m, k, p))
    the_plan = plan(job)
    r, tk = precision.r, the_plan.tk
    sinks = io.StringIO(), io.StringIO()
    result = run_tiled(job)
    traced = run_tiled(job, trace=sinks[0])
    tile_packed = tile_packed_run_tiled(job, trace=sinks[1])
    assert the_plan.pass_count == tk * ceil_div(nw * p, r * n) == result.pass_count == traced.pass_count
    assert tile_packed.pass_count == tk * ceil_div(nw * ceil_div(p, n), r) >= the_plan.pass_count
    if nw == 1 or p % n == 0:
        assert tile_packed.pass_count == the_plan.pass_count
        assert sinks[0].getvalue() == sinks[1].getvalue()
    assert result.total_cycles == traced.total_cycles == the_plan.cycles
    for got, via_trace, want in zip(result.outputs, traced.outputs, oracle_matmul(job), strict=True):
        assert np.array_equal(got, want) and np.array_equal(via_trace, want)


@st.composite
def _spoiled_operand(draw, x, lo, hi):
    """`x` (an int64 array with an element) in a form no job may accept:
    one element out of [lo, hi], non-integral or non-finite; or a complex
    or string array, or an object array with one such element."""
    x = x.copy()
    i = tuple(draw(st.integers(0, size - 1)) for size in x.shape)
    defect = draw(st.sampled_from(["range", "huge", "fraction", "non-finite", "complex", "string", "object"]))
    if defect == "range":
        x[i] = draw(st.one_of(st.integers(hi + 1, 1 << 62), st.integers(-(1 << 62), lo - 1)))
    elif defect == "huge":  # beyond int64: a list that numpy reads as objects
        x = x.tolist()
        row = x
        for j in i[:-1]:
            row = row[j]
        row[i[-1]] = draw(st.sampled_from([1, -1])) << 70
    elif defect == "fraction":
        x = x.astype(np.float64)
        x[i] += draw(st.sampled_from([0.5, -0.25, 1e-9]))
    elif defect == "non-finite":
        x = x.astype(np.float64)
        x[i] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    elif defect == "complex":  # rejected by its dtype, even with no imaginary part
        x = x.astype(np.complex128)
        x[i] += 1j * draw(st.integers(0, 3))
    elif defect == "string":  # rejected by its dtype, even when every element parses
        x = x.astype(str)
    else:
        x = x.astype(object)
        x[i] = draw(st.sampled_from([complex(x[i], 1), str(x[i]), None]))
    return x


@st.composite
def _invalid_jobs(draw):
    """The arguments of a small job with one defect: a spoiled input or
    weight element, a mismatched K, weights of mixed shapes, no weights,
    or an array size that is not a positive integer."""
    precision = draw(st.sampled_from(list(Precision)))
    nw = draw(st.integers(1, precision.r + 1))
    n = draw(st.integers(1, 5))
    m, k, p = draw(st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)))
    job = _random_job(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), precision, nw, n, (m, k, p))
    a, weights = job.a.astype(np.int64), [w.astype(np.int64) for w in job.weights]
    lo, hi = -(1 << (precision.weight_bits - 1)), (1 << (precision.weight_bits - 1)) - 1
    defect = draw(st.sampled_from(["input", "weight", "k", "shapes", "no weights", "n"]))
    if defect == "input":
        a = draw(_spoiled_operand(a, -128, 127))
    elif defect == "weight":
        t = draw(st.integers(0, nw - 1))
        weights[t] = draw(_spoiled_operand(weights[t], lo, hi))
    elif defect == "k":
        weights = [np.zeros((k + draw(st.sampled_from([-1, 1, 2])), p), dtype=np.int64)] * nw
    elif defect == "shapes":
        weights.insert(draw(st.integers(0, nw)), np.zeros((k, p + 1), dtype=np.int64))
    elif defect == "no weights":
        weights = []
    else:
        n = draw(st.sampled_from([0, -1, True, 4.0, "4", np.float64(4)]))
    return a, weights, precision, n


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_invalid_jobs())
def test_invalid_jobs_raise_value_error(job_args):
    """A job with a bad operand, shape or array size raises ValueError from
    `MatMulJob` or `run_tiled`: never another exception, a warning (every
    warning is an error here) or an output."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            run_tiled(MatMulJob(*job_args))


def test_run_tiled_peak_memory_scales_with_int8_operands():
    """A W8 job with K > 1024 (three float32 chunks of K) holds no wide copy
    of a whole operand: the peak traced allocation of `run_tiled` stays
    within three times the int8 operands plus the int64 outputs. A float64
    copy of the weights alone would be eight bytes a weight. W4 and W2 jobs
    of the same shape, whose fields are cut from the packed words, stay
    under the same bound, which an 8-byte-per-word temporary of the words,
    such as an index copy for a table lookup, would break."""
    m, k, p = 256, 2560, 1024
    rng = np.random.default_rng(0)
    a = rng.integers(-128, 128, size=(m, k), dtype=np.int8)
    for precision in (Precision.W8, Precision.W4, Precision.W2):
        hi = 1 << (precision.weight_bits - 1)
        job = MatMulJob(a, [rng.integers(-hi, hi, size=(k, p), dtype=np.int8)], precision, 32)
        tracemalloc.start()
        try:
            result = run_tiled(job)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.outputs[0].dtype == np.int64
        assert peak <= 3 * (m * k + k * p + 8 * m * p), precision


def test_plan_counts():
    job = MatMulJob(np.zeros((9, 5)), [np.zeros((5, 13))] * 2, Precision.W4, 4)
    p = plan(job)
    assert (p.tm, p.tk, p.tp) == (3, 2, 4)
    assert (p.per, p.virtual) == (4, 2)  # per == tp: virtual matrix t is matrix t
    assert p.pass_count == 8


def test_a_job_runs_on_one_array(monkeypatch):
    """A 5-matrix W2 job at n = 4, five columns each, packs its 25 columns
    into four virtual matrices of two column tiles, the last with seven
    zero columns: 2 passes per reduction tile, where whole column tiles
    (two per matrix) would take 3. It runs on one `ArraySim` of the job's
    precision: its trace has one header, and its clock runs on across the
    passes to the job's cycle count."""
    rng = np.random.default_rng(5)
    n = 4
    job = _random_job(rng, Precision.W2, 5, n, dims=(6, 7, 5))
    built = []
    init = ArraySim.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[:2])
        init(self, *args, **kwargs)

    monkeypatch.setattr(ArraySim, "__init__", counting_init)
    trace = io.StringIO()
    result = run_tiled(job, trace=trace)
    assert built == [(n, Precision.W2)]
    assert (plan(job).per, plan(job).virtual) == (2, 4)
    assert result.pass_count == 2 * 2
    clocks = stream_cycles(n, 2 * n, Precision.W2)
    assert result.total_cycles == result.pass_count * clocks
    header, *lines = trace.getvalue().splitlines()
    assert header == TRACE_HEADER
    assert len(lines) == result.pass_count * clocks * n * n
    cycles = [int(line.split(",", 1)[0]) for line in lines]
    assert cycles == sorted(cycles) and cycles[-1] == result.total_cycles
    assert all(np.array_equal(got, want) for got, want in zip(result.outputs, oracle_matmul(job), strict=True))



@pytest.mark.parametrize("precision, nw", MODES + [(Precision.W2, 9), (Precision.W8, 3)])
@pytest.mark.parametrize("dims", [(9, 5, 13), (0, 4, 4), (4, 0, 4), (4, 4, 0), (1, 1, 1), (16, 17, 3)])
def test_plan_from_shape_matches_plan_of_the_job(precision, nw, dims):
    m, k, p = dims
    job = MatMulJob(np.zeros((m, k)), [np.zeros((k, p))] * nw, precision, 4)
    assert TiledPlan.from_shape(m, k, p, nw, precision, 4) == plan(job)


def test_plan_from_shape_needs_no_matrices():
    """A shape whose matrices would not fit in memory still has a plan."""
    n = 1 << 40
    p = TiledPlan.from_shape(n, 2 * n, 2 * n, 4, Precision.W2, n)
    assert (p.tm, p.tk, p.tp, p.per, p.virtual, p.pass_count) == (1, 2, 2, 2, 4, 4)
    assert TiledPlan.from_shape(n, 2 * n, 2 * n, 4, Precision.W8, n).pass_count == 16


@pytest.mark.parametrize(
    "args, match",
    [
        ((4, 4, 4, 1, Precision.W8, 0), "array size"),
        ((4, 4, 4, 0, Precision.W8, 4), "at least one"),
        ((-1, 4, 4, 1, Precision.W8, 4), "negative"),
        ((4, 4, -4, 1, Precision.W8, 4), "negative"),
        ((4.5, 4, 4, 1, Precision.W8, 4), "dimension M must be an integer"),
        ((4, 4.0, 4, 1, Precision.W8, 4), "dimension K must be an integer"),
        ((4, 4, "4", 1, Precision.W8, 4), "dimension P must be an integer"),
        ((4, 4, 4, 1.5, Precision.W2, 4), "count must be an integer"),
        ((4, 4, 4, True, Precision.W8, 4), "count must be an integer"),
        ((4, 4, 4, 1, Precision.W8, 4.0), "array size must be an integer"),
    ],
)
def test_plan_from_shape_rejects_bad_shapes(args, match):
    with pytest.raises(ValueError, match=match):
        TiledPlan.from_shape(*args)

def _brute_force(job):
    """Independent golden results: a pure-Python triple loop over Python ints."""
    m_dim, k_dim, p_dim = job.shape
    a_rows = [[int(v) for v in row] for row in job.a]
    outputs = []
    for w in job.weights:
        b_rows = [[int(v) for v in row] for row in w]
        c = [[0] * p_dim for _ in range(m_dim)]
        for i in range(m_dim):
            for k in range(k_dim):
                a_ik = a_rows[i][k]
                for j in range(p_dim):
                    c[i][j] += a_ik * b_rows[k][j]
        outputs.append(np.array(c, dtype=np.int64).reshape(m_dim, p_dim))
    return outputs


@pytest.mark.parametrize("precision, nw", MODES)
def test_oracle_matches_brute_force_on_small_shapes(precision, nw):
    rng = np.random.default_rng(precision.value * 10 + nw)
    lo, hi = -(1 << (precision.weight_bits - 1)), 1 << (precision.weight_bits - 1)
    shapes = [(0, 3, 2), (3, 0, 2), (2, 3, 0), (1, 1, 1)] + [tuple(rng.integers(1, 9, 3)) for _ in range(6)]
    for m, k, p in shapes:
        a = rng.integers(-128, 128, size=(m, k))
        weights = [rng.integers(lo, hi, size=(k, p)) for _ in range(nw)]
        if m and k and p:  # the extremes of both ranges
            a[0] = -128
            weights[0][:, 0] = lo
        job = MatMulJob(a, weights, precision, 4)
        got, want = oracle_matmul(job), _brute_force(job)
        assert len(got) == len(want) == nw
        for g, w in zip(got, want):
            assert g.dtype == np.int64 and g.shape == (m, p)
            assert np.array_equal(g, w)


def test_oracle_rejects_values_whose_sums_could_leave_int64():
    """A job whose arrays were replaced after validation: |a| * |w| * K
    reaching 2^63 raises instead of wrapping."""
    job = MatMulJob(np.ones((1, 4)), [np.ones((4, 1))], Precision.W8, 4)
    job.a = np.full((1, 4), 1 << 40, dtype=np.int64)
    job.weights = [np.full((4, 1), 1 << 20, dtype=np.int64)]
    assert oracle_matmul(job)[0].tolist() == [[4 << 60]]
    job.weights = [np.full((4, 1), 1 << 21, dtype=np.int64)]
    with pytest.raises(ValueError, match="2\\^63"):
        oracle_matmul(job)


@pytest.mark.parametrize(
    "a, w, above, float64_rounds",
    [
        ([[(1 << 26) + 1, 1]], [[(1 << 26) - 1], [1]], False, False),  # |a| * |w| * K = 2^53 - 2
        ([[(1 << 27) + 1]], [[(1 << 26) + 1]], True, True),  # one odd product above 2^53
        ([[-(1 << 27) - 1, 2]], [[(1 << 26) + 1], [-1]], True, True),  # an odd sum below -2^53
        ([[1 << 27]], [[1 << 26]], True, False),  # |a| * |w| * K = 2^53 exactly
    ],
)
def test_oracle_is_exact_on_both_sides_of_the_float64_bound(a, w, above, float64_rounds):
    """Values beyond 8 bits, in a job-shaped object that `MatMulJob` would
    reject: below |a| * |w| * K = 2^53 float64 is exact, and at or above it
    the oracle must still equal the pure-Python sums where a float64
    matmul rounds."""
    a, w = np.array(a, dtype=np.int64), np.array(w, dtype=np.int64)
    job = SimpleNamespace(a=a, weights=[w], shape=(a.shape[0], a.shape[1], w.shape[1]))
    want = _brute_force(job)[0]
    assert (int(np.abs(a).max()) * int(np.abs(w).max()) * a.shape[1] >= 1 << 53) is above
    got = oracle_matmul(job)[0]
    assert got.dtype == np.int64 and np.array_equal(got, want)
    in_float64 = (a.astype(np.float64) @ w.astype(np.float64)).astype(np.int64)
    assert np.array_equal(in_float64, want) is not float64_rounds
