"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/steady.py --seeds 10 --seconds 20 [--workload NAME ...] [--trace 1]

Runs are sequential, one process at a time, from the repository root. For
every workload and metric it prints the median, the spread (distance
between the first and third quartile over the median, as
`statistics.quantiles(values, n=4)` gives them) and, for end-to-end
metrics, the bound from BENCHMARK.json. The exit code is 1 if a run
fails, if an end-to-end spread (setup_s aside) is over its bound, or if a
simulated count (units cycles, count and ratio, and model_gap_pct) differs
between seeds. trace.bytes depends on the matrix values, so it repeats
only for one seed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_UNITS = {"cycles", "count", "ratio"}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    bad = 0
    for workload in workloads:
        values: dict[str, list[float]] = {}
        units = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            bad += not result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"== {workload}: {args.seeds} seeds from {args.first_seed}, {args.seconds} s each")
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            note = ""
            exact = units[name] in EXACT_UNITS or name == "model_gap_pct"
            if exact and len(set(vals)) > 1:
                note = "  NOT EXACT"
                bad += 1
            elif bound is not None and name != "setup_s" and spread > bound:
                note = "  OVER BOUND"
                bad += 1
            elif bound is not None and name != "setup_s" and spread > bound / 3:
                note = "  over a third of bound"
            bound_txt = f"{bound:.3f}" if bound is not None else "  -  "
            print(f"  {name:34s} median {median:<14.6g} spread {spread:.4f} bound {bound_txt}{note}")
            print("      by seed: " + " ".join(f"{v:.6g}" for v in vals))
        sys.stdout.flush()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
