"""adipsim benchmark: one workload, one process, one thread.

    python3 bench/run.py --workload prefill-w2x4-n16 --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from `src/` of the
same checkout. With `--trace 0` the run measures the end-to-end metrics
with no wrappers installed; with `--trace 1` it alternates untraced and
traced passes and reports the per-layer metrics (per pass over the
workload) and the tracing overhead. Spans of the traced passes go to
`bench/out/`. Every output is checked; the last line of standard output is
one JSON object, and the exit code is 1 if any check failed. See
bench/README.md for what each metric means and which layer should move it.
"""

import os

# Pin numpy's thread pools before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import itertools
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from hostclock import HostClock
from spans import Recorder, install
from workloads import WORKLOADS, Counts

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

SETUP_EVERY_S = 0.5

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "sim_macs_per_s": "MAC/s",
    "sim_cycles_per_s": "cycles/s",
    "job_ms.p50": "ms",
    "job_ms.p95": "ms",
    "reports_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_cycles": "cycles",
    "passes": "count",
    "mac_util": "ratio",
}

PER_LAYER = {
    "tiling.run_tiled.s": "s",
    "tiling.run_tiled.self_s": "s",
    "array.stream.s": "s",
    "array.stream.self_s": "s",
    "array.stream.cycles": "cycles",
    "array.stream.ns_per_cycle": "ns",
    "array.load_weights.s": "s",
    "array.load_weights.calls": "count",
    "pe.weight_slots.calls": "count",
    "array.ArraySim.instances": "count",
    "preprocess.prepare_weights.s": "s",
    "preprocess.prepare_weights.tiles": "count",
    "tiling.MatMulJob.s": "s",
    "tiling.oracle_matmul.s": "s",
    "tiling.oracle_matmul.calls": "count",
    "trace.write.s": "s",
    "trace.bytes": "B",
    "cost.summary.s": "s",
    "cost.summary.calls": "count",
    "analytic.sweep.s": "s",
    "workload.stages.calls": "count",
    "tracing.overhead_pct": "%",
    "model_gap_pct": "%",
}


class SetupError(RuntimeError):
    """The checkout holds no importable adipsim source tree."""


def import_adipsim():
    """Import adipsim afresh from this checkout's src/, never from elsewhere."""
    if not (SRC_DIR / "adipsim" / "__init__.py").is_file():
        raise SetupError(f"no adipsim package under {SRC_DIR}")
    if sys.path[0] != str(SRC_DIR):
        sys.path.insert(0, str(SRC_DIR))
    for name in [m for m in sys.modules if m == "adipsim" or m.startswith("adipsim.")]:
        del sys.modules[name]
    lib = importlib.import_module("adipsim")
    if Path(lib.__file__).resolve().parent != SRC_DIR / "adipsim":
        raise SetupError(f"imported adipsim from {lib.__file__}, not {SRC_DIR}")
    return lib


def setup(workload, inputs, clock):
    """One timed set-up: a fresh `import adipsim` through the built jobs."""
    t0 = clock.start()
    lib = import_adipsim()
    jobs = workload.build(lib, inputs)
    return clock.ms_since(t0) / 1e3, lib, jobs


def run_passes(seconds, run_pass, min_passes=1):
    """Call `run_pass()` until the next pass would end past `seconds`; returns the results."""
    results = []
    began = time.perf_counter()
    while True:
        results.append(run_pass())
        elapsed = time.perf_counter() - began
        typical = statistics.median(r.seconds for r in results)
        if len(results) >= min_passes and elapsed + typical > seconds:
            return results


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def job_latencies_ms(results) -> list[float]:
    """Each job's median latency over the run's passes, in job order.

    A single scaled sample still carries the host's noise (a pass of
    `prefill` reads 290-470 ms); the median over passes does not.
    """
    return [statistics.median(col) for col in zip(*(r.job_ms for r in results))]


def check_steady(results) -> int:
    """Simulated counts must repeat exactly on every pass; returns mismatching passes."""
    first = results[0].counts
    bad = sum(r.counts != first for r in results[1:])
    if bad:
        print("FAIL simulated counts changed between passes of one run", file=sys.stderr)
    return bad


def end_to_end(results, setup_s) -> dict:
    counts: Counts = results[0].counts
    jobs = job_latencies_ms(results)
    run_s = sum(jobs) / 1e3
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "sim_macs_per_s": counts.macs / run_s,
        "sim_cycles_per_s": counts.sim_cycles / run_s,
        "job_ms.p50": percentile(jobs, 50),
        "job_ms.p95": percentile(jobs, 95),
        "reports_per_s": len(jobs) / run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_cycles": counts.sim_cycles,
        "passes": counts.passes,
        "mac_util": counts.macs / counts.capacity,
    }


def per_layer(rec: Recorder, traced, untraced, speed: float) -> dict:
    """Per-layer values per traced pass; span times scaled by the run's host `speed`."""
    passes = len(traced)
    counts: Counts = traced[0].counts

    def secs(name):
        return rec.total_s(name) * speed / passes

    def calls(name):
        return rec.counters[name] / passes

    stream_cycles = calls("array.stream.cycles")
    untraced_s = sum(job_latencies_ms(untraced))
    traced_s = sum(job_latencies_ms(traced))
    return {
        "tiling.run_tiled.s": secs("tiling.run_tiled"),
        "tiling.run_tiled.self_s": rec.self_s("tiling.run_tiled") * speed / passes,
        "array.stream.s": secs("array.stream"),
        "array.stream.self_s": rec.self_s("array.stream") * speed / passes,
        "array.stream.cycles": stream_cycles,
        "array.stream.ns_per_cycle": secs("array.stream") / stream_cycles * 1e9 if stream_cycles else 0.0,
        "array.load_weights.s": secs("array.load_weights"),
        "array.load_weights.calls": calls("array.load_weights"),
        "pe.weight_slots.calls": calls("pe.weight_slots"),
        "array.ArraySim.instances": calls("array.ArraySim"),
        "preprocess.prepare_weights.s": secs("preprocess.prepare_weights"),
        "preprocess.prepare_weights.tiles": calls("preprocess.prepare_weights.tiles"),
        "tiling.MatMulJob.s": rec.total_s("tiling.MatMulJob") * speed,  # one set-up
        "tiling.oracle_matmul.s": secs("tiling.oracle_matmul"),
        "tiling.oracle_matmul.calls": calls("tiling.oracle_matmul"),
        "trace.write.s": rec.summed_s["trace.write"] * speed / passes,
        "trace.bytes": counts.trace_bytes,
        "cost.summary.s": secs("cost.summary"),
        "cost.summary.calls": calls("cost.summary"),
        "analytic.sweep.s": secs("analytic.sweep"),
        "workload.stages.calls": calls("workload.stages"),
        "tracing.overhead_pct": (traced_s - untraced_s) / untraced_s * 100,
        "model_gap_pct": counts.gap_cycles / counts.sim_cycles * 100 if counts.sim_cycles else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload]()
    inputs = workload.make_inputs(args.seed)
    reference = workload.reference(inputs)
    clock = HostClock()
    try:
        setup_s, lib, jobs = setup(workload, inputs, clock)
    except (SetupError, ImportError) as exc:
        print(f"bench: cannot set up adipsim: {exc}", file=sys.stderr)
        return 2
    expected = workload.expected(lib, jobs)
    # One untimed pass first, so caches and the interpreter's specialisation are warm.
    warm = workload.run_pass(lib, jobs, expected, reference, clock)

    print(
        f"env: python {platform.python_version()}, numpy {np.__version__}, "
        f"nproc {os.cpu_count()}, workload {args.workload}, seed {args.seed}"
    )
    if args.trace:
        rec = Recorder()
        undo = install(rec, lib)
        try:
            jobs = workload.build(lib, inputs)  # one traced set-up, for tiling.MatMulJob.s
        finally:
            undo()
        traced_turn = itertools.cycle((False, True))

        def one_pass():
            # Untraced and traced passes alternate, so both see the same host states.
            if not next(traced_turn):
                return workload.run_pass(lib, jobs, expected, reference, clock)
            undo = install(rec, lib)
            try:
                return workload.run_pass(lib, jobs, expected, reference, clock, rec)
            finally:
                undo()

        results = run_passes(args.seconds, one_pass, min_passes=2)
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        rec.write(out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl")
        metrics, units = per_layer(rec, results[1::2], results[0::2], clock.speed()), PER_LAYER
    else:
        setups = [setup_s]
        last_setup = time.perf_counter()

        def one_pass():
            # A set-up every SETUP_EVERY_S samples set-up over the whole run. Its
            # fresh modules are dropped: passes keep the warm ones.
            nonlocal last_setup
            if time.perf_counter() - last_setup >= SETUP_EVERY_S:
                setups.append(setup(workload, inputs, clock)[0])
                last_setup = time.perf_counter()
            return workload.run_pass(lib, jobs, expected, reference, clock)

        results = run_passes(args.seconds, one_pass)
        metrics, units = end_to_end(results, statistics.median(setups)), END_TO_END

    attempted = sum(r.attempted for r in [warm, *results])
    failed = sum(r.failed for r in [warm, *results]) + check_steady([warm, *results])
    counts = results[0].counts
    print(
        f"passes over the workload: {len(results)}; host speed {clock.speed():.3f} of the fast "
        f"state (reference kernel median {statistics.median(clock.ref_s) * 1e3:.3f} ms, "
        f"{len(clock.ref_s)} samples)"
    )
    for name, value in metrics.items():
        print(f"{name:34s} {value:>16.6g} {units[name]}")
    print(f"{'fail_rate':34s} {failed / attempted:>16.6g} ratio ({failed} of {attempted})")
    if not args.trace and counts.sim_cycles:
        gap = counts.gap_cycles / counts.sim_cycles * 100
        print(f"{'model_gap_pct':34s} {gap:>16.6g} %")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
