"""Tests of the benchmark itself; a broken benchmark fails here in seconds.

    python3 -m pytest perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _smoke():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


def test_smoke_passes_and_counts_repeat_across_processes():
    first, second = _smoke(), _smoke()
    assert first[-1] == {"smoke": True, "correct": True}
    assert [w["smoke"] for w in first[:-1]] == list(workloads.WORKLOADS)
    assert [w["counts"] for w in first[:-1]] == [w["counts"] for w in second[:-1]]


def test_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fuzz-channel",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_report_comparison_rules():
    ref = {"status": "consistent", "matched": True, "gap": "inf", "x": 1.0, "xs": [2.0, 3]}
    assert workloads.compare_json(ref, dict(ref, x=1.0 + 5e-10), "r") is None
    assert workloads.compare_json(ref, dict(ref, x=1.0 + 5e-9), "r") is not None
    assert workloads.compare_json(ref, dict(ref, x=math.nan), "r") is not None
    assert workloads.compare_json(ref, dict(ref, gap=1e308), "r") is not None
    assert workloads.compare_json(ref, dict(ref, matched=1), "r") is not None
    assert workloads.compare_json(ref, dict(ref, status="inconclusive"), "r") is not None
    assert workloads.compare_json(ref, dict(ref, xs=[2.0]), "r") is not None


def test_tracer_restores_everything_it_wraps():
    from qdini import cli, diagnostics, operators, truncation

    before = (diagnostics.approximation_gap_grid, truncation.eigh, np.linalg.eigh,
              operators.PositiveOperator.__init__, cli.run.callback)
    tracer = Tracer(operators.dense_materialization_count)
    tracer.install()
    assert truncation.eigh is not before[1] and np.linalg.eigh is not before[2]
    tracer.uninstall()
    after = (diagnostics.approximation_gap_grid, truncation.eigh, np.linalg.eigh,
             operators.PositiveOperator.__init__, cli.run.callback)
    assert all(a is b for a, b in zip(before, after))
    assert "main" not in vars(cli.main)


def test_calibration_kernel_is_invisible_to_the_tracer():
    import calibrate
    from qdini import operators

    tracer = Tracer(operators.dense_materialization_count)
    tracer.install()
    try:
        tracer.begin_op(0)
        before = tracer.counts()
        calibrate.kernel()
        assert tracer.counts() == before
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert calibrate.timed(2) > 0.0
