"""Per-PE trace of the stepped reference `ArraySim`, pinned byte for byte.

The sha256 and line counts below were taken from the per-cycle trace
writer that formatted and wrote one cycle at a time; the pass-buffered
writer must reproduce them exactly.
"""

import hashlib
import io

import numpy as np
import pytest

from adipsim import array
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
    monkeypatch.setattr(array, "_TRACE_BLOCK", block_cycles * 4 * 4)
    blocks = io.StringIO()
    run_tiled(job, mac_stages=2, trace=blocks)
    assert blocks.getvalue() == whole.getvalue()


@pytest.mark.parametrize("block_cycles", [None, 3])
def test_overflow_mid_pass_keeps_the_cycles_before_it(block_cycles, monkeypatch):
    """A reducer overflow on cycle 35, in the third of four 13-cycle passes:
    the trace holds the header and cycles 1..34, as when every cycle was
    written on its own."""
    rng = np.random.default_rng(405)
    job = _job(rng, Precision.W4, 2, 4, (8, 8, 8))
    monkeypatch.setattr(array, "_PSUM_LIMIT", 30000)
    if block_cycles is not None:
        monkeypatch.setattr(array, "_TRACE_BLOCK", block_cycles * 4 * 4)
    sink = io.StringIO()
    with pytest.raises(PsumOverflowError, match="reducer"):
        run_tiled(job, mac_stages=2, trace=sink)
    lines = sink.getvalue().splitlines()
    assert len(lines) == 1 + 34 * 4 * 4
    assert lines[-1].startswith("34,3,3,")
