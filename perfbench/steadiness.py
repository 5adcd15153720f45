#!/usr/bin/env python3
"""Run the benchmark several times per workload and report each metric's spread.

The spread of a metric is (Q3 - Q1) / median of its values over the runs,
with the quartiles of ``statistics.quantiles(values, n=4)``.  A benchmark is
steady when every end-to-end spread except that of ``setup_s`` is below a
third of the metric's bound in BENCHMARK.json.

    python3 perfbench/steadiness.py --workload dense-diagnostics --seeds 1 2 3 4 5
    python3 perfbench/steadiness.py --seeds 11 12 13 14 15 16 17 18 19 20 --out evidence.json

Each run gets its own seed unless --repeat is given, which runs every seed
that many times.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def run_once(workload: str, seed: int, seconds: int):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} reported incorrect outputs:\n{proc.stdout}")
    env = next(json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("environment "))
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    raw = next(line for line in lines if line.strip().startswith("raw wall clock:"))
    for item in raw.split(":", 1)[1].split(","):
        name, value, _ = item.split()
        metrics[f"raw.{name}"] = float(value)
    return metrics, env


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, help="append the raw values and spreads as JSON lines")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs, envs = [], []
        for seed in args.seeds:
            for _ in range(args.repeat):
                metrics, env = run_once(workload, seed, args.seconds)
                runs.append((seed, metrics))
                envs.append(env)
        print(f"{workload}: {len(runs)} runs, seeds {args.seeds} x {args.repeat}")
        summary = {}
        for name, bound in bounds.items():
            values = [r[name] for _, r in runs]
            s = spread(values)
            ok = name == "setup_s" or s < bound / 3
            steady = steady and ok
            summary[name] = {"median": statistics.median(values), "spread": s, "bound": bound}
            print(f"  {name:14s} median {statistics.median(values):12.5g}  spread {s:7.4f}"
                  f"  bound/3 {bound / 3:7.4f}  {'ok' if ok else 'TOO WIDE'}")
        for name in sorted(n for n in runs[0][1] if n.startswith("raw.")):
            values = [r[name] for _, r in runs]
            summary[name] = {"median": statistics.median(values), "spread": spread(values)}
            print(f"  {name:14s} median {statistics.median(values):12.5g}  spread {spread(values):7.4f}"
                  "  (wall clock, not rescaled; no bound)")
        if args.out:
            with args.out.open("a") as fh:
                fh.write(json.dumps({"workload": workload, "seconds": args.seconds,
                                     "environment": envs[0],
                                     "runs": [{"seed": s, "metrics": r} for s, r in runs],
                                     "summary": summary}) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
