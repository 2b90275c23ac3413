"""The four benchmark workloads: inputs from a seed, set-up, one timed pass, checks.

Shapes are fixed per workload, so every simulated count is the same for
every seed; the seed draws the matrix values (and the order of the cost
reports). This module imports only numpy: the library is handed in as the
`lib` argument, so set-up can time `import adipsim` itself.

A pass is one run over the whole workload. A job is one top-level result a
user waits for: one checked `run_tiled` job, one `cost.summary` report, or
the `analytic.sweep()` table. Jobs are timed with the `clock` handed in.
"""

from __future__ import annotations

import sys
import traceback
from dataclasses import dataclass

import numpy as np

MODEL_SIZES = (4, 8, 16, 32, 64)

# Acceptance targets c08-c10 at n = 32: (value, tolerance) per vs-DiP key.
COST_TARGETS = {
    "gpt2-medium": {
        "latency_improvement_pct": (0.0, 0.0),
        "projection_latency_improvement_pct": (0.0, 0.0),
        "energy_improvement_pct": (-62.8, 1.5),
        "memory_savings_pct": (0.0, 0.0),
    },
    "bert-large": {
        "latency_improvement_pct": (40.0, 1.0),
        "projection_latency_improvement_pct": (50.0, 1.0),
        "energy_improvement_pct": (2.3, 1.5),
        "memory_savings_pct": (40.0, 2.5),
    },
    "bitnet-1.58b": {
        "latency_improvement_pct": (53.6, 1.0),
        "projection_latency_improvement_pct": (75.0, 1.0),
        "energy_improvement_pct": (24.4, 1.5),
        "memory_savings_pct": (53.6, 2.5),
    },
}

# Acceptance target c04: distributed-multiply cycles by (multipliers, precision).
DMUL_TARGETS = {
    (2, "8bx8b"): 8, (4, "8bx8b"): 4, (8, "8bx8b"): 2, (16, "8bx8b"): 1,
    (2, "8bx4b"): 4, (4, "8bx4b"): 2, (8, "8bx4b"): 1, (16, "8bx4b"): 1,
    (2, "8bx2b"): 2, (4, "8bx2b"): 1, (8, "8bx2b"): 1, (16, "8bx2b"): 1,
}


@dataclass
class Counts:
    """Simulated (or modelled) totals of one pass; identical on every pass."""

    sim_cycles: int = 0
    passes: int = 0
    macs: int = 0  # useful MACs, padding excluded
    capacity: int = 0  # n^2 * r * cycles: MACs the array could have done
    gap_cycles: int = 0  # sum over jobs of |cost.stage_latency - simulated|
    trace_bytes: int = 0  # depends on the values, so on the seed


@dataclass
class PassResult:
    seconds: float
    job_ms: list[float]
    attempted: int
    failed: int
    counts: Counts


def _report_failure(what: str) -> None:
    print(f"FAIL {what}", file=sys.stderr)


class ByteSink:
    """Text sink for `run_tiled(trace=...)` that counts bytes and keeps none."""

    def __init__(self) -> None:
        self.bytes = 0

    def write(self, text: str) -> int:
        self.bytes += len(text)  # the trace is ASCII: one byte per character
        return len(text)

    def tell(self) -> int:
        return self.bytes


@dataclass(frozen=True)
class JobSpec:
    n: int
    bits: int
    nw: int
    m: int
    k: int
    p: int


@dataclass
class _Expected:
    cycles: int
    passes: int
    macs: int
    model_cycles: int


class SimWorkload:
    """Jobs through `run_tiled`, checked against a numpy int64 reference.

    With `traced`, each job runs the `adipsim simulate --trace` flow: a
    per-PE trace into a byte-counting sink, then `oracle_matmul`.
    """

    def __init__(self, name: str, specs: list[JobSpec], traced: bool):
        self.name = name
        self.specs = specs
        self.traced = traced

    def make_inputs(self, seed: int) -> list[tuple[np.ndarray, list[np.ndarray]]]:
        rng = np.random.default_rng(seed)
        inputs = []
        for s in self.specs:
            lo, hi = -(1 << (s.bits - 1)), (1 << (s.bits - 1)) - 1
            a = rng.integers(-128, 128, size=(s.m, s.k), dtype=np.int64)
            ws = [rng.integers(lo, hi + 1, size=(s.k, s.p), dtype=np.int64) for _ in range(s.nw)]
            inputs.append((a, ws))
        return inputs

    def reference(self, inputs) -> list[list[np.ndarray]]:
        # Exact in int64: |a| * |w| * K <= 2**14 * K, far below 2**63 here.
        return [[a @ w for w in ws] for a, ws in inputs]

    def build(self, lib, inputs) -> list:
        return [
            lib.tiling.MatMulJob(a=a, weights=ws, precision=lib.Precision.from_bits(s.bits), n=s.n)
            for s, (a, ws) in zip(self.specs, inputs)
        ]

    def expected(self, lib, jobs) -> list[_Expected]:
        """Pass counts from `plan`, cycles from the closed-form tile latency."""
        out = []
        for s, job in zip(self.specs, jobs):
            the_plan = lib.tiling.plan(job)
            tile = lib.analytic.tile_latency(lib.analytic.AnalyticParams.for_mode(s.n, s.bits))
            per_pass = tile + (the_plan.tm - 1) * s.n  # tile_latency streams n rows
            cycles = the_plan.pass_count * per_pass
            spec = lib.workload.StageSpec(
                lib.workload.Stage.Q_PROJ, m=s.m, k=s.k, p=s.p, count=s.nw, weight_bits=s.bits
            )
            model = lib.cost.stage_latency(spec, lib.cost.Arch.ADIP, lib.cost.CostParams(n=s.n))
            out.append(
                _Expected(
                    cycles=cycles,
                    passes=the_plan.pass_count,
                    macs=s.m * s.k * s.p * s.nw,
                    model_cycles=model,
                )
            )
        return out

    def run_pass(self, lib, jobs, expected, reference, clock, rec=None) -> PassResult:
        job_ms = []
        failed = 0
        counts = Counts()
        for i, (s, job) in enumerate(zip(self.specs, jobs)):
            if rec is not None:
                rec.job = i
            t0 = clock.start()
            try:
                if self.traced:
                    sink = ByteSink()
                    result = lib.tiling.run_tiled(job, trace=sink)
                    golden = lib.tiling.oracle_matmul(job)
                else:
                    result = lib.tiling.run_tiled(job)
                    golden = None
            except Exception:  # a job that raises counts as failed; the run goes on
                job_ms.append(clock.ms_since(t0))
                _report_failure(f"{self.name} job {i} raised:\n{traceback.format_exc()}")
                failed += 1
                continue
            job_ms.append(clock.ms_since(t0))
            # Checks stay outside the job's latency and the pass time.
            if self.traced:
                counts.trace_bytes += sink.bytes
            exp = expected[i]
            problems = []
            if not all(np.array_equal(o, r) for o, r in zip(result.outputs, reference[i])):
                problems.append("outputs differ from numpy reference")
            if golden is not None and not all(
                np.array_equal(o, g) for o, g in zip(result.outputs, golden)
            ):
                problems.append("outputs differ from oracle_matmul")
            if len(result.outputs) != len(reference[i]):
                problems.append("wrong number of output matrices")
            if result.total_cycles != exp.cycles or result.pass_count != exp.passes:
                problems.append(
                    f"cycles/passes {result.total_cycles}/{result.pass_count}, "
                    f"plan and closed form give {exp.cycles}/{exp.passes}"
                )
            if problems:
                _report_failure(f"{self.name} job {i}: " + "; ".join(problems))
                failed += 1
            counts.sim_cycles += result.total_cycles
            counts.passes += result.pass_count
            counts.macs += exp.macs
            counts.capacity += s.n * s.n * (8 // s.bits) * result.total_cycles
            counts.gap_cycles += abs(exp.model_cycles - result.total_cycles)
        return PassResult(
            seconds=sum(job_ms) / 1e3,
            job_ms=job_ms,
            attempted=len(jobs),
            failed=failed,
            counts=counts,
        )


class CostWorkload:
    """`cost.summary` for the built-in models at every size, plus `analytic.sweep()`.

    No simulator runs. Reports at n = 32 are checked against acceptance
    targets c08-c10 and the sweep against c04; every report must equal the
    one the first pass produced.
    """

    name = "cost-report"

    def __init__(self) -> None:
        self._first = None  # the first pass's reports

    def make_inputs(self, seed: int) -> list[tuple[int, int]]:
        pairs = [(model, n) for model in range(3) for n in MODEL_SIZES]
        order = np.random.default_rng(seed).permutation(len(pairs))
        return [pairs[i] for i in order]

    def reference(self, inputs) -> dict:
        return COST_TARGETS

    def build(self, lib, inputs) -> list:
        models = lib.workload.builtin_models()
        return [(models[model], lib.cost.CostParams(n=n)) for model, n in inputs]

    def expected(self, lib, jobs) -> Counts:
        """Modelled totals of one pass: cycles, passes, useful MACs, capacity."""
        counts = Counts()
        for cfg, params in jobs:
            specs = lib.workload.stages(cfg)
            for arch in lib.cost.Arch:
                for spec, cost in zip(specs, lib.cost.evaluate(cfg, arch, params)):
                    packed = arch is lib.cost.Arch.ADIP and spec.is_projection
                    r = 8 // spec.weight_bits if packed else 1
                    counts.sim_cycles += cost.cycles
                    counts.passes += cost.bytes_w // params.n**2
                    counts.macs += spec.ops // 2
                    counts.capacity += params.n**2 * r * cost.cycles
        return counts

    def run_pass(self, lib, jobs, expected, reference, clock, rec=None) -> PassResult:
        job_ms = []
        reports = []
        for i, (cfg, params) in enumerate(jobs):
            if rec is not None:
                rec.job = i
            t0 = clock.start()
            reports.append(lib.cost.summary(cfg, params))
            job_ms.append(clock.ms_since(t0))
        if rec is not None:
            rec.job = len(jobs)
        t0 = clock.start()
        rows = lib.analytic.sweep()
        job_ms.append(clock.ms_since(t0))
        failed = self._check(reports, rows, reference)
        cycles = sum(t["cycles"] for rep in reports for t in rep["totals"].values())
        if cycles != expected.sim_cycles:
            _report_failure(f"cost-report: {cycles} modelled cycles, evaluate gives {expected.sim_cycles}")
            failed += 1
        counts = Counts(
            sim_cycles=cycles,
            passes=expected.passes,
            macs=expected.macs,
            capacity=expected.capacity,
        )
        return PassResult(
            seconds=sum(job_ms) / 1e3,
            job_ms=job_ms,
            attempted=len(jobs) + 1,
            failed=failed,
            counts=counts,
        )

    def _check(self, reports, rows, targets) -> int:
        failed = 0
        if self._first is None:
            self._first = reports
        for rep, first in zip(reports, self._first):
            bad = rep != first
            if rep["array_size"] == 32:
                for key, (want, tol) in targets[rep["model"]].items():
                    if abs(rep["vs_dip"][key] - want) > tol:
                        bad = True
            if bad:
                _report_failure(f"cost-report {rep['model']} n={rep['array_size']}: {rep['vs_dip']}")
                failed += 1
        table = {(r.mul_count, r.precision): r.dmul_cycles for r in rows}
        if table != DMUL_TARGETS:
            _report_failure(f"analytic.sweep dmul table {table}")
            failed += 1
        return failed


def _traced_specs() -> list[JobSpec]:
    """240 ragged jobs, 20 for each (n, mode) pair; shapes fixed."""
    modes = [(8, 1), (4, 1), (4, 2), (2, 1), (2, 3), (2, 4)]
    rng = np.random.default_rng(20251010)
    specs = []
    for _ in range(20):
        for n in (4, 8):
            for bits, nw in modes:
                m, k, p = (int(v) for v in rng.integers(1, 3 * n + 1, size=3))
                specs.append(JobSpec(n=n, bits=bits, nw=nw, m=m, k=k, p=p))
    return specs


WORKLOADS = {
    "prefill-w2x4-n16": lambda: SimWorkload(
        "prefill-w2x4-n16", [JobSpec(n=16, bits=2, nw=4, m=256, k=128, p=64)], traced=False
    ),
    "decode-w8-n64": lambda: SimWorkload(
        "decode-w8-n64", [JobSpec(n=64, bits=8, nw=1, m=32, k=256, p=384)], traced=False
    ),
    "simulate-traced": lambda: SimWorkload("simulate-traced", _traced_specs(), traced=True),
    "cost-report": CostWorkload,
}
