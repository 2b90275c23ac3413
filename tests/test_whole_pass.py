"""Whole-pass evaluation against the stepped reference `ArraySim`.

Untraced `run_tiled` evaluates passes in one shot; traced `run_tiled` steps
the reference model. Both must agree on outputs, cycles, pass counts and on
which inputs overflow the 32-bit psum bus or reducer.
"""

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
from adipsim.pe import PsumOverflowError
from adipsim.preprocess import Precision
from adipsim.tiling import MatMulJob, run_tiled

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


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
        "mac_stages": draw(st.integers(1, 3)),
        "extra_reduce": draw(st.integers(0, 2)),
        "overlap": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_configs())
def test_whole_pass_matches_stepped(cfg):
    rng = np.random.default_rng(cfg["seed"])
    job = _job(rng, cfg["precision"], cfg["nw"], cfg["n"], cfg["m"], cfg["k"], cfg["p"])
    fast, stepped = _both(
        job,
        overlap_weights=cfg["overlap"],
        mac_stages=cfg["mac_stages"],
        reduce_stages=cfg["precision"].reducer_stages + cfg["extra_reduce"],
    )
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


def _raises(job, limit, monkeypatch, **kwargs):
    monkeypatch.setattr(array, "_PSUM_LIMIT", limit)
    outcomes = []
    for trace in (None, CountingSink()):
        try:
            run_tiled(job, trace=trace, **kwargs)
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
    # precision, nw, n, (m, k, p), extra reduce stages, last-row-heavy input
    (Precision.W8, 1, 4, (8, 8, 4), 0, False),
    (Precision.W8, 1, 3, (5, 7, 3), 1, False),
    (Precision.W4, 2, 4, (8, 4, 4), 0, False),
    (Precision.W4, 2, 4, (4, 4, 4), 0, True),
    (Precision.W4, 1, 4, (4, 4, 4), 1, True),
    (Precision.W2, 4, 4, (8, 8, 4), 0, False),
    (Precision.W2, 3, 4, (4, 4, 4), 0, True),
    (Precision.W2, 4, 4, (4, 4, 4), 1, True),
    (Precision.W2, 2, 2, (3, 4, 2), 2, True),
]


@pytest.mark.parametrize("precision, nw, n, dims, extra, heavy", OVERFLOW_CASES)
def test_overflow_raised_on_the_same_inputs(precision, nw, n, dims, extra, heavy, monkeypatch):
    """Find the smallest limit the stepped path passes at; the whole-pass
    path must pass there and raise one below, like the stepped path."""
    rng = np.random.default_rng(n * 100 + precision.value * 10 + nw)
    m, k, p = dims
    a = _last_row_heavy(k, m) if heavy else None
    job = _job(rng, precision, nw, n, m, k, p, a=a)
    kwargs = {"reduce_stages": precision.reducer_stages + extra}
    lo, hi = 1, 1 << 31  # the stepped path raises at lo and passes at hi
    assert _raises(job, lo, monkeypatch, **kwargs) == [True, True]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _raises(job, mid, monkeypatch, **kwargs)[1]:
            lo = mid
        else:
            hi = mid
    assert _raises(job, hi, monkeypatch, **kwargs) == [False, False]
    assert _raises(job, lo, monkeypatch, **kwargs) == [True, True]


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


def test_overflow_guards_survive_optimize_flag():
    script = textwrap.dedent(
        """
        import numpy as np
        from adipsim import array
        from adipsim.pe import PE, PsumOverflowError
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
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stdout + result.stderr
