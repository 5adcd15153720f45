#!/usr/bin/env python3
"""qdini benchmark: one closed-loop client running qdini ops one at a time.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload builtin-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Untraced (``--trace 0``): set up (import, reference outputs, one warm-up op
of each kind), run ops for ``--seconds`` seconds (and at least MIN_OPS ops)
and check every op's output.  The calibration kernel of ``calibrate.py``
runs after every op, and every time is reported rescaled to the reference
host speed.  The set-up is repeated in SETUP_PROBES fresh processes at
evenly spaced pauses of the loop.  Prints the end-to-end metrics of
BENCHMARK.json, and the raw wall-clock figures on the lines before.

Traced (``--trace 1``): half the time untraced, then the same ops again under
``tracer.Tracer``.  Checks that both halves give identical outputs and that
a traced re-run gives identical per-op counts.  Prints the per-layer metrics
of BENCHMARK.json and writes the spans to ``.bench_out/``.

``--smoke`` runs a few ops of every workload through both modes, including
the correctness checks; it exits 1 on any failure.

Human-readable lines (environment, sample counts, failures) come first; the
last line of standard output is the JSON result.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before numpy and qdini load

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("builtin-sweep", "dense-diagnostics", "fuzz-channel")
MIN_OPS = 100          # so that at least ten samples lie beyond p90
HARD_STOP = 4.0        # a run never measures longer than this many times --seconds
SETUP_PROBES = 6       # extra set-ups in fresh processes; setup_s is the median of 7
SETUP_CAL_REPS = 5     # calibration kernel calls right after each set-up
DETERMINISM_ROUNDS = 2  # rounds of op kinds re-run to compare per-op counts


class Phase:
    """What one stretch of ops produced."""

    def __init__(self):
        self.latencies = []
        self.normalized = []  # latencies rescaled by the calibration kernel
        self.kernel_s = []    # calibration kernel time after each op
        self.kinds = []
        self.digests = []
        self.counts = []
        self.problems = []
        self.wall = 0.0

    @property
    def ops(self) -> int:
        return len(self.latencies)


def run_ops(wl, seconds, max_ops, min_ops=0, tracer=None, keep_digests=False, between=(),
            cal_reps=0) -> Phase:
    """Closed loop from op 0: the next op starts when the previous one and its check end.

    The calls in ``between`` run at evenly spaced points of the measured
    time, with the loop paused; their time is not measured.  With
    ``cal_reps``, the calibration kernel runs before the first op, after
    every pause and right after every op, and each latency is rescaled by
    the mean of the kernel times just before and just after the op.
    """
    phase = Phase()
    start = time.perf_counter()
    paused = 0.0
    pauses = [(seconds * (k + 1) / (len(between) + 1), call) for k, call in enumerate(between)]
    if cal_reps:
        kernel_before = calibrate.timed(cal_reps)
    i = 0
    while i < max_ops:
        elapsed = time.perf_counter() - start - paused
        if pauses and elapsed >= pauses[0][0]:
            pause_start = time.perf_counter()
            pauses.pop(0)[1]()
            if cal_reps:
                kernel_before = calibrate.timed(cal_reps)
            paused += time.perf_counter() - pause_start
            continue
        if (elapsed >= seconds and i >= min_ops) or elapsed >= HARD_STOP * seconds:
            break
        desc = wl.describe(i)
        if tracer is not None:
            before = tracer.counts()
            tracer.begin_op(i)
        t = time.perf_counter()
        try:
            out = wl.run(desc)
            problem = None
        except Exception as exc:  # a failed op is counted, and the loop goes on
            out, problem = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t
        phase.latencies.append(latency)
        if cal_reps:
            kernel_after = calibrate.timed(cal_reps)
            phase.kernel_s.append(kernel_after)
            phase.normalized.append(latency * calibrate.REF_MS * 1e-3
                                    / (0.5 * (kernel_before + kernel_after)))
            kernel_before = kernel_after
        if tracer is not None:
            tracer.end_op()
            phase.counts.append(tuple(b - a for a, b in zip(before, tracer.counts())))
        if problem is None:
            problem = wl.check(desc, out)
        if problem is not None:
            phase.problems.append(f"op {i} ({wl.kind(desc)}): {problem}")
        phase.kinds.append(wl.kind(desc))
        if keep_digests:
            phase.digests.append(None if out is None else wl.digest(out))
        i += 1
    phase.wall = time.perf_counter() - start - paused
    return phase


def set_up(name: str, seed: int):
    """Import qdini, load the reference outputs, run and check one warm-up op of each kind.

    Returns the workload, the problems found, the set-up time and the
    median calibration kernel time measured right after the set-up.
    """
    import workloads

    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    wl = workloads.WORKLOADS[name](seed, reference)
    problems = []
    for desc in wl.warmup():
        problem = wl.check(desc, wl.run(desc))
        if problem is not None:
            problems.append(f"warm-up ({wl.kind(desc)}): {problem}")
    setup_s = time.perf_counter() - T0
    kernel_s = statistics.median(calibrate.timed() for _ in range(SETUP_CAL_REPS))
    return wl, problems, setup_s, kernel_s


def setup_probe(name: str, seed: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    if result["problems"]:
        raise RuntimeError(f"set-up probe found problems: {result['problems']}")
    return result["setup_s"], result["kernel_s"]


def traced_phase(wl, seconds, max_ops, keep_digests=True):
    from qdini.operators import dense_materialization_count
    from tracer import Tracer

    tracer = Tracer(dense_materialization_count)
    tracer.install()
    try:
        phase = run_ops(wl, seconds, max_ops, tracer=tracer, keep_digests=keep_digests)
    finally:
        tracer.uninstall()
    return phase, tracer


def self_checks(wl, untraced: Phase, traced: Phase) -> list:
    """Traced and untraced outputs agree, and a traced re-run repeats every per-op count."""
    problems = []
    for i, (a, b) in enumerate(zip(untraced.digests, traced.digests)):
        if a != b:
            problems.append(f"op {i}: traced output differs from untraced output")
    rounds = DETERMINISM_ROUNDS * wl.ROUND
    again, _ = traced_phase(wl, float("inf"), min(rounds, traced.ops), keep_digests=False)
    for i, (a, b) in enumerate(zip(traced.counts, again.counts)):
        if a != b:
            problems.append(f"op {i}: per-op counts differ between two traced runs: {a} vs {b}")
    return problems + again.problems


# ---------------------------------------------------------------------------
# Reporting


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = sorted((ROOT / "src" / "qdini").glob("*.py"))
    return {
        "commit": git_commit(),
        "src_sha256": hashlib.sha256(b"".join(p.read_bytes() for p in src)).hexdigest()[:16],
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    }


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def percentiles_ms(latencies) -> dict:
    ms = [x * 1e3 for x in latencies]
    cuts = statistics.quantiles(ms, n=100, method="inclusive")
    return {p: (cuts[p - 1], sum(1 for x in ms if x > cuts[p - 1])) for p in (50, 90)}


def declared_metrics(key: str) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[key]]


def emit(metrics: dict, names: list, attempted: int, failed: int, correct: bool):
    missing = [n for n in names if n not in metrics]
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    for n in names:
        value, unit = metrics[n]
        print(f"  {n:45s} {value:16.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }))


def print_header(args, env):
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))


def print_problems(problems):
    for p in problems[:20]:
        print(f"FAILED {p}")
    if len(problems) > 20:
        print(f"FAILED ... and {len(problems) - 20} more")


def per_kind(phase: Phase):
    by_kind = {}
    for kind, lat in zip(phase.kinds, phase.latencies):
        by_kind.setdefault(kind, []).append(lat * 1e3)
    for kind, ms in sorted(by_kind.items()):
        print(f"  kind {kind:32s} {len(ms):6d} ops  median {statistics.median(ms):9.3f} ms")


# ---------------------------------------------------------------------------
# Modes


def untraced_run(args) -> int:
    wl, problems, *own_setup = set_up(args.workload, args.seed)
    setups = [tuple(own_setup)]

    def probe():
        setups.append(setup_probe(args.workload, args.seed))

    # The set-up is repeated across the measured time, not in one burst, so
    # that its median does not hang on the host's speed at a single moment.
    phase = run_ops(wl, args.seconds, float("inf"), min_ops=MIN_OPS,
                    between=[probe] * SETUP_PROBES, cal_reps=wl.CAL_REPS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems += phase.problems
    print_header(args, environment())
    per_kind(phase)
    raw, ref = percentiles_ms(phase.latencies), percentiles_ms(phase.normalized)
    failed = len(phase.problems)
    kernel_ms = statistics.median(phase.kernel_s) * 1e3
    print(f"  ops {phase.ops} in {phase.wall:.3f} s; failed_ops_ratio {failed / phase.ops:.6g} ratio"
          f" ({failed} of {phase.ops})")
    print(f"  calibration kernel median {kernel_ms:.4f} ms over {len(phase.kernel_s)} samples,"
          f" reference {calibrate.REF_MS} ms: host speed factor {calibrate.REF_MS / kernel_ms:.4f}")
    print(f"  raw wall clock: ops_per_s {phase.ops / phase.wall:.4f} 1/s, op_p50_ms {raw[50][0]:.4f} ms,"
          f" op_p90_ms {raw[90][0]:.4f} ms, setup_s {statistics.median(s for s, _ in setups):.4f} s")
    for p, (value, beyond) in ref.items():
        print(f"  op_p{p}_ref_ms from {phase.ops} samples, {beyond} beyond it")
    print(f"  setup_s median of {len(setups)} set-ups (raw s / kernel ms): "
          + ", ".join(f"{s:.4f}/{k * 1e3:.4f}" for s, k in setups))
    print_problems(problems)
    metrics = {
        "ops_per_ref_s": (phase.ops / sum(phase.normalized), "1/s"),
        "op_p50_ref_ms": (ref[50][0], "ms"),
        "op_p90_ref_ms": (ref[90][0], "ms"),
        "failed_ops_ratio": (failed / phase.ops, "ratio"),
        "setup_s": (statistics.median(s * calibrate.REF_MS * 1e-3 / k for s, k in setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    emit(metrics, declared_metrics("end_to_end"), phase.ops, failed, not problems)
    return 0


def traced_run(args) -> int:
    wl, problems, _, _ = set_up(args.workload, args.seed)
    untraced = run_ops(wl, args.seconds / 2, float("inf"), keep_digests=True)
    traced, tracer = traced_phase(wl, args.seconds / 2, float("inf"))
    metrics = tracer.metrics()
    rate_untraced, rate_traced = untraced.ops / untraced.wall, traced.ops / traced.wall
    metrics["trace.overhead_ratio"] = (1.0 - rate_traced / rate_untraced, "ratio")
    problems += untraced.problems + traced.problems + self_checks(wl, untraced, traced)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    print_header(args, environment())
    print(f"  ops_per_s untraced {rate_untraced:.4f} ({untraced.ops} ops),"
          f" traced {rate_traced:.4f} ({traced.ops} ops)")
    print(f"  {len(tracer.spans)} of {tracer.spans_total} spans written to {spans_path}")
    print_problems(problems)
    failed = len(untraced.problems) + len(traced.problems)
    emit(metrics, declared_metrics("per_layer"), untraced.ops + traced.ops, failed, not problems)
    return 0


def smoke() -> int:
    """A few ops of every workload through the untraced and traced paths."""
    from tracer import Tracer

    all_ok = True
    for name in WORKLOAD_NAMES:
        wl, problems, _, _ = set_up(name, 1)
        untraced = run_ops(wl, float("inf"), wl.ROUND, keep_digests=True)
        traced, tracer = traced_phase(wl, float("inf"), wl.ROUND)
        metrics = tracer.metrics()
        problems += untraced.problems + traced.problems + self_checks(wl, untraced, traced)
        missing = [n for n in declared_metrics("per_layer")
                   if n not in metrics and n != "trace.overhead_ratio"]
        if missing:
            problems.append(f"per-layer metrics not measured: {missing}")
        print_problems(problems)
        print(json.dumps({"smoke": name, "ops": untraced.ops, "problems": len(problems),
                          "counts": dict(zip(Tracer.COUNT_NAMES, map(list, zip(*traced.counts))))}))
        all_ok = all_ok and not problems
    print(json.dumps({"smoke": True, "correct": all_ok}))
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "qdini" / "__init__.py").is_file():
        print(f"perfbench: no qdini sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    sys.path.insert(0, str(src))
    if args.smoke:
        return smoke()
    if args.setup_probe:
        _, problems, setup_s, kernel_s = set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s, "kernel_s": kernel_s, "problems": problems}))
        return 0
    return traced_run(args) if args.trace else untraced_run(args)


if __name__ == "__main__":
    sys.exit(main())
