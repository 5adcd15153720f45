#!/usr/bin/env python3
"""Write perfbench/reference.json: the outputs the benchmark's ops are checked against.

Run it once, from the root of a checkout of the commit whose behaviour is the
reference; never regenerate it to make a failing check pass.

    python3 perfbench/capture_reference.py
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from qdini import scenarios  # noqa: E402

import workloads  # noqa: E402


def main():
    builtins = {}
    for name in sorted(scenarios.BUILTIN_SCENARIOS):
        exit_code, text = workloads.BuiltinSweep(0, {"builtin-sweep": {}}).run(name)
        builtins[name] = {"exit_code": exit_code, "report": json.loads(text)}
    # The dense-diagnostics inputs are random, but their construction fixes
    # the verdict: it must come out the same on every sampled input.
    statuses = set()
    for seed in (1, 2, 3):
        wl = workloads.DenseDiagnostics(seed, {"dense-diagnostics": {"truncation_criterion_status": None}})
        for i in range(4):
            statuses.add(wl.run(wl.describe(i))[1].status)
    if len(statuses) != 1:
        raise SystemExit(f"dense-diagnostics verdicts differ across inputs: {statuses}")
    reference = {
        "builtin-sweep": builtins,
        "dense-diagnostics": {"truncation_criterion_status": statuses.pop()},
    }
    (BENCH_DIR / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
