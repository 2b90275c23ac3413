"""The closed-form registers of `ArraySim` against a per-cycle stepper.

`SteppedArray` is the model `ArraySim` was before its registers were formed
in closed form: a deque of MAC pipeline registers, two reducer stages and
an output delay line, advanced one clock at a time, with every register
checked on every clock (no overflow gate) and each clock's trace lines
written with `%d`. The properties below run both on the same weights and
inputs and require identical registers, collected rows, cycles, trace
text and overflow errors.
"""

import io
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adipsim import array
from adipsim.array import TRACE_HEADER, ArraySim, load_cycles, resolve_stages, stream_cycles
from adipsim.pe import PsumOverflowError
from adipsim.preprocess import Precision, PrecisionMode, decode_slots, prepare_weights
from adipsim.tiling import MatMulJob, plan, run_tiled

STAGE1_FOLD = np.array([[1, 4, 0, 0], [0, 0, 1, 4]], dtype=np.int64)
STAGE2_FOLD = np.array([1, 16], dtype=np.int64)


class SteppedArray:
    """One clock at a time: the reference for `ArraySim`'s registers."""

    def __init__(self, n, mode, mac_stages=1, reduce_stages=None, overlap_weights=False, trace=None, start_cycle=None):
        self.n = n
        self.mode = mode
        self.mac_stages = mac_stages
        self.reduce_stages = resolve_stages(mode.precision, mac_stages, reduce_stages)
        self.overlap_weights = overlap_weights
        self.cycle = 0 if start_cycle is None else start_cycle
        self.trace = trace
        self.slots = np.zeros((4, n, n), dtype=np.int64)
        self._reset()
        if trace is not None and start_cycle is None:
            trace.write(TRACE_HEADER + "\n")

    def _reset(self):
        n = self.n
        self.regs = np.zeros((5, n, n), dtype=np.int64)  # input, then the four buses
        self.stage1 = np.zeros((2, n), dtype=np.int64)
        self.stage2 = np.zeros(n, dtype=np.int64)
        self.pre = deque(np.zeros((4, n), dtype=np.int64) for _ in range(self.mac_stages - 1))
        extra = self.reduce_stages - self.mode.precision.reducer_stages
        self.out_hist = deque(maxlen=extra + 1)

    def load_weights(self, packed):
        self.slots = decode_slots(packed.words, self.mode.precision).astype(np.int64)
        self._reset()
        self.cycle += load_cycles(self.n, self.overlap_weights)

    def step(self, row_in):
        prev = self.regs
        bottom = prev[1:, -1, :]
        if self.pre:
            self.pre.append(bottom.copy())
            feed = self.pre.popleft()
        else:
            feed = bottom
        self.stage2 = STAGE2_FOLD @ self.stage1
        self.stage1 = STAGE1_FOLD @ feed
        regs = np.empty_like(prev)
        regs[0, 0] = row_in
        # registered value at (r, c) moves to (r+1, (c-1) mod n)
        regs[0, 1:, :-1] = prev[0, :-1, 1:]
        regs[0, 1:, -1] = prev[0, :-1, 0]
        regs[1:] = regs[0] * self.slots
        regs[1:, 1:] += prev[1:, :-1]
        self.regs = regs
        self.cycle += 1
        array._check_register(regs[1:], "psum bus")
        array._check_register(self.stage2, "reducer")
        if self.trace is not None:
            cells = regs.reshape(5, -1).T.tolist()
            self.trace.write(
                "".join(
                    "%d,%d,%d,%d,%d,%d,%d,%d\n" % (self.cycle, i // self.n, i % self.n, *cell)
                    for i, cell in enumerate(cells)
                )
            )
        self.out_hist.append(self._tap())
        return self.out_hist[0]

    def _tap(self):
        precision, nw = self.mode.precision, self.mode.nw
        if precision is Precision.W8:
            return [self.stage2]
        if precision is Precision.W4:
            return list(self.stage1[:nw])
        if self.pre:
            return list(self.pre[0][:nw])
        return list(self.regs[1 : nw + 1, -1].copy())

    def stream(self, rows):
        """(index, cycle, outputs) of each row, as `ArraySim.stream` collects them."""
        rows = np.asarray(rows, dtype=np.int64)
        count = len(rows)
        total = stream_cycles(self.n, count, self.mac_stages, self.reduce_stages)
        first_valid = total - count + 1
        collected = []
        for s in range(1, total + 1):
            tap = self.step(rows[s - 1] if s <= count else np.zeros(self.n, dtype=np.int64))
            if 0 <= s - first_valid < count:
                collected.append((s - first_valid, self.cycle, [t.tolist() for t in tap]))
        return collected


def stepped_run_tiled(job, overlap_weights, mac_stages, reduce_stages, trace):
    """Traced `run_tiled` as it was: every pass loaded and streamed on
    `SteppedArray`, j outer, k inner. Returns (outputs, total cycles)."""
    n = job.n
    m_dim, k_dim, p_dim = job.shape
    the_plan = plan(job)
    tm, tk, tp = the_plan.tm, the_plan.tk, the_plan.tp
    a_pad = np.zeros((tm * n, tk * n), dtype=np.int64)
    a_pad[:m_dim, :k_dim] = job.a
    outputs, total_cycles, base = [], 0, 0
    for nw in the_plan.group_sizes:
        mode = PrecisionMode(job.precision, nw)
        grid = prepare_weights(job.weights[base : base + nw], mode, n)
        accum = np.zeros((nw, tm * n, tp * n), dtype=np.int64)
        sim = SteppedArray(n, mode, mac_stages, reduce_stages, overlap_weights, trace, total_cycles if base else None)
        for j in range(tp):
            for k in range(tk):
                start = sim.cycle
                sim.load_weights(grid[k][j])
                for i, _, outs in sim.stream(a_pad[:, k * n : (k + 1) * n]):
                    accum[:, i, j * n : (j + 1) * n] += outs
                total_cycles += sim.cycle - start
        outputs += list(accum[:, :m_dim, :p_dim])
        base += nw
    return outputs, total_cycles


def _outcome(run, sink):
    """run()'s result, or the overflow message; then the trace text."""
    try:
        result = run()
    except PsumOverflowError as exc:
        return ("overflow", str(exc)), sink.getvalue()
    return result, sink.getvalue()


# Register limits on a log scale from 2^5 up to 2^16, so that a run may
# overflow on a bus, on the reducer or not at all.
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
        "mode": PrecisionMode(precision, draw(st.integers(1, precision.r))),
        "n": n,
        "mac_stages": draw(st.integers(1, 3)),
        "extra_reduce": draw(st.integers(0, 2)),
        "overlap": draw(st.booleans()),
        # row count and whether the rows are all zero: a quiet stream still
        # folds the rows that an earlier one left in the pipeline
        "streams": draw(st.lists(st.tuples(st.integers(0, 2 * n), st.booleans()), min_size=1, max_size=3)),
        "limit": draw(_limits),
        "full_scale": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(_stream_cases())
def test_streams_match_the_stepper(cfg):
    mode, n = cfg["mode"], cfg["n"]
    rng = np.random.default_rng(cfg["seed"])
    weights = [_values(rng, (n, n), mode.weight_bits, cfg["full_scale"]) for _ in range(mode.nw)]
    packed = prepare_weights(weights, mode, n)[0][0]
    streams = [_values(rng, (rows, n), 8, cfg["full_scale"]) * (not quiet) for rows, quiet in cfg["streams"]]
    with pytest.MonkeyPatch.context() as patch:
        if cfg["limit"] is not None:
            patch.setattr(array, "_PSUM_LIMIT", cfg["limit"])
        _check_streams(n, mode, cfg, packed, streams)


def _check_streams(n, mode, cfg, packed, streams):
    stages = (cfg["mac_stages"], mode.precision.reducer_stages + cfg["extra_reduce"], cfg["overlap"])
    sinks = io.StringIO(), io.StringIO()
    sim, ref = ArraySim(n, mode.precision, *stages, trace=sinks[0]), SteppedArray(n, mode, *stages, trace=sinks[1])
    sim.load_weights(packed)
    ref.load_weights(packed)
    for rows in streams:

        def run_sim():
            return [(row.index, row.cycle, [o.tolist() for o in row.outputs]) for row in sim.stream(rows)]

        got, want = _outcome(run_sim, sinks[0]), _outcome(lambda: ref.stream(rows), sinks[1])
        assert got == want
        assert sim.cycle == ref.cycle
        if got[0] and got[0][0] == "overflow":
            break
        assert np.array_equal(sim.input_registers, ref.regs[0])
        assert np.array_equal(sim.psum_registers, ref.regs[1:])


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
        "mac_stages": draw(st.integers(1, 3)),
        "extra_reduce": draw(st.integers(0, 2)),
        "overlap": draw(st.booleans()),
        "limit": draw(_limits),
        "full_scale": draw(st.booleans()),
        "block": draw(st.sampled_from([None, 1, 7, 40])),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_job_cases())
def test_traced_run_tiled_matches_the_stepper_pass_by_pass(cfg):
    """Traced `run_tiled` forms every pass of a fused group at once; it must
    write the stepper's trace and raise its first overflow, in run order,
    after the same lines."""
    precision, n = cfg["precision"], cfg["n"]
    rng = np.random.default_rng(cfg["seed"])
    m, k, p = cfg["dims"]
    job = MatMulJob(
        a=_values(rng, (m, k), 8, cfg["full_scale"]),
        weights=[_values(rng, (k, p), precision.weight_bits, cfg["full_scale"]) for _ in range(cfg["nw"])],
        precision=precision,
        n=n,
    )
    kwargs = {
        "overlap_weights": cfg["overlap"],
        "mac_stages": cfg["mac_stages"],
        "reduce_stages": precision.reducer_stages + cfg["extra_reduce"],
    }
    sinks = io.StringIO(), io.StringIO()

    def run_sim():
        result = run_tiled(job, trace=sinks[0], **kwargs)
        return [out.tolist() for out in result.outputs], result.total_cycles

    def run_ref():
        outputs, cycles = stepped_run_tiled(job, trace=sinks[1], **kwargs)
        return [out.tolist() for out in outputs], cycles

    with pytest.MonkeyPatch.context() as patch:
        if cfg["limit"] is not None:
            patch.setattr(array, "_PSUM_LIMIT", cfg["limit"])
        if cfg["block"] is not None:  # clocks per block, down to one
            patch.setattr(array, "_TRACE_BLOCK", cfg["block"] * n * n)
        assert _outcome(run_sim, sinks[0]) == _outcome(run_ref, sinks[1])


def _block_job():
    """W8 at n = 4, a 2 x 2 tile grid (four 13-cycle passes, no overlap):
    every weight 1 except tile (k = 1, j = 1), the fourth pass, whose
    -128s reach 4 * 128 * 128 = 65 536 on the reducer."""
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
    """Split into blocks or not, a traced group writes the same bytes,
    collects the same outputs and cycles, and (under a limit that only the
    fourth pass reaches, on its reducer) raises the same error after the
    same lines."""
    job = _block_job()
    if limit is not None:
        monkeypatch.setattr(array, "_PSUM_LIMIT", limit)

    def run(block):
        monkeypatch.setattr(array, "_TRACE_BLOCK", block)
        sink = io.StringIO()

        def outputs_and_cycles():
            result = run_tiled(job, overlap_weights=False, trace=sink)
            return [out.tolist() for out in result.outputs], result.total_cycles

        return _outcome(outputs_and_cycles, sink)

    whole = run(1 << 30)
    split = run(block_cycles * 4 * 4)
    assert split == whole
    if limit is None:
        assert whole[0][1] == 4 * (4 + 13)
    else:
        # the header, three whole passes, then the fourth until stage 2
        # folds its first row, on its sixth clock
        assert whole[0] == ("overflow", "reducer overflow")
        assert whole[1].count("\n") == 1 + (3 * 13 + 5) * 16
