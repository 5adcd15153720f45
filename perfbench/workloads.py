"""The benchmark's three workloads: what one op is, and how its output is checked.

Every workload turns an op index into an input (``describe``), runs the op
through qdini's public interface (``run``) and checks the output (``check``).
Library calls go through module attributes (``dx.approximation_gap_grid``),
never through names bound here, so that the tracer's rebinding sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

from qdini import cli, diagnostics as dx, scenarios as sc, truncation as tr
from qdini.operators import DensityOperator

import oracle

# Relative tolerance of the reference and oracle comparisons, scaled by
# max(1, |expected|).
REPORT_TOL = 1e-9
ORACLE_TOL = 1e-8


class BuiltinSweep:
    """``qdini run <builtin> --seed S`` in-process via click, over a weighted cycle.

    The command runs through click's own entry point with standard output
    redirected to one reused buffer.  (click.testing.CliRunner is not used:
    click caches a text wrapper per output stream it sees, so a fresh stream
    per op leaks about 12 KB per op, and peak_rss_mb would grow with
    throughput.)

    The builtins cost from about 2.5 ms to 100 ms, in groups.  With equal
    weights p50 and p90 land on the boundary between two groups and jump
    between them from run to run.  The weights below put p50 in the middle
    of ``choi-rank-bound`` (cumulative share 40%..60%) and p90 inside
    ``simon-dct`` (73%..100%).  The reports do not depend on the seed: it
    is only echoed in the report's ``seed`` field.
    """

    name = "builtin-sweep"
    CYCLE = (
        "simon-dct", "re-domination-infcontrol", "choi-rank-bound",
        "re-domination-rescaled", "simon-dct", "re-domination",
        "choi-rank-bound", "re-sum-nonconv", "simon-dct", "appendix-ladder",
        "entropy-discontinuity", "re-sum", "simon-dct",
        "channel-mi-depolarizing", "choi-rank-bound",
    )
    ROUND = len(CYCLE)  # ops in one round of every kind
    CAL_REPS = 2  # calibration kernel calls after each op (see calibrate.py)

    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        self.reference = reference["builtin-sweep"]
        self._stdout = io.StringIO()
        self._verified = {}  # name -> report texts already found correct

    def warmup(self):
        return sorted(sc.BUILTIN_SCENARIOS)

    def describe(self, i: int):
        return self.CYCLE[i % len(self.CYCLE)]

    def kind(self, name) -> str:
        return name

    def run(self, name):
        self._stdout.seek(0)
        self._stdout.truncate()
        exit_code = None
        with contextlib.redirect_stdout(self._stdout):
            try:
                cli.main.main(["run", name, "--seed", str(self.seed)], prog_name="qdini")
            except SystemExit as exc:
                exit_code = 0 if exc.code is None else exc.code
        return exit_code, self._stdout.getvalue()

    def digest(self, out) -> str:
        return f"{out[0]}:" + hashlib.sha256(out[1].encode()).hexdigest()

    def check(self, name, out) -> str | None:
        exit_code, text = out
        ref = self.reference[name]
        if exit_code != ref["exit_code"]:
            return f"{name}: exit code {exit_code}, reference {ref['exit_code']}"
        seen = self._verified.setdefault(name, set())
        if text in seen:
            return None
        try:
            report = json.loads(text)
        except json.JSONDecodeError as exc:
            return f"{name}: report is not JSON ({exc})"
        expected = dict(ref["report"], seed=self.seed,
                        threads=os.environ.get("QDINI_THREADS", ""))
        problem = compare_json(expected, report, name)
        if problem is None:
            seen.add(text)
        return problem


def compare_json(expected, got, path: str) -> str | None:
    """First difference between two decoded reports, or None.

    Structure, strings (statuses, names, "inf") and booleans (``matched``)
    must match exactly; numbers within REPORT_TOL; NaN never matches.
    """
    if isinstance(expected, dict):
        if not isinstance(got, dict) or set(got) != set(expected):
            return f"{path}: keys differ"
        for key in expected:
            problem = compare_json(expected[key], got[key], f"{path}.{key}")
            if problem:
                return problem
        return None
    if isinstance(expected, list):
        if not isinstance(got, list) or len(got) != len(expected):
            return f"{path}: list length differs"
        for k, (e, g) in enumerate(zip(expected, got)):
            problem = compare_json(e, g, f"{path}[{k}]")
            if problem:
                return problem
        return None
    if isinstance(expected, bool) or isinstance(got, bool) or isinstance(expected, str) or expected is None:
        return None if got == expected and type(got) is type(expected) else f"{path}: {got!r} != {expected!r}"
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        return f"{path}: {got!r} is not a number"
    if not abs(got - expected) <= REPORT_TOL * max(1.0, abs(expected)):
        return f"{path}: {got!r} differs from {expected!r}"
    return None


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class DenseDiagnostics:
    """Gap grid, commuting schedule and truncation criterion on a fresh dense d = 16 pair.

    rho_n and sigma_n each have a Haar-random basis, fixed in n, and a
    geometric spectrum multiplied by (1 + 2^-n eps) with eps uniform in
    [-0.1, 0.1]; the ratios keep every spectrum full rank and strictly
    ordered.  The grid family is D(. || sigma_n).
    """

    name = "dense-diagnostics"
    DIM, N_MAX, M_MAX = 16, 8, 8
    RHO_RATIO, SIGMA_RATIO = 0.7, 0.8
    CELLS_CHECKED = 3
    ROUND = 1
    CAL_REPS = 8

    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        self.status = reference["dense-diagnostics"]["truncation_criterion_status"]

    def warmup(self):
        return [self.describe(-1)]

    def describe(self, i: int):
        rng = np.random.default_rng([self.seed, i + 1])
        d = self.DIM
        cells = [(int(rng.integers(0, self.N_MAX + 1)), int(rng.integers(1, self.M_MAX + 1)))
                 for _ in range(self.CELLS_CHECKED)]
        return {
            "u": haar_unitary(rng, d), "v": haar_unitary(rng, d),
            "eps": rng.uniform(-0.1, 0.1, d), "eta": rng.uniform(-0.1, 0.1, d),
            "cells": cells,
        }

    def kind(self, desc) -> str:
        return "dense"

    def _spectrum(self, ratio: float, pert: np.ndarray, n: int) -> np.ndarray:
        lam = ratio ** np.arange(self.DIM) * (1.0 + (0.5 ** n if n else 0.0) * pert)
        return lam / lam.sum()

    def matrices(self, desc, n: int):
        u, v = desc["u"], desc["v"]
        rho = (u * self._spectrum(self.RHO_RATIO, desc["eps"], n)) @ u.conj().T
        sigma = (v * self._spectrum(self.SIGMA_RATIO, desc["eta"], n)) @ v.conj().T
        return rho, sigma

    def run(self, desc):
        rho = tr.OperatorSequence(lambda n: DensityOperator(self.matrices(desc, n)[0]), self.DIM, "rho")
        sigma = tr.OperatorSequence(lambda n: DensityOperator(self.matrices(desc, n)[1]), self.DIM, "sigma")
        family = dx.relative_entropy_family(sigma)
        grid = dx.approximation_gap_grid(family, rho, tr.ApproximationScheme("spectral"),
                                         self.N_MAX, self.M_MAX)
        schedule = tr.commuting_schedule(rho, self.DIM, self.N_MAX)
        verdict = dx.truncation_criterion(family, rho, schedule, 1, self.N_MAX, self.M_MAX)
        return grid, verdict

    def digest(self, out) -> str:
        return hashlib.sha256(repr(out).encode()).hexdigest()

    def check(self, desc, out) -> str | None:
        grid, verdict = out
        if verdict.status != self.status:
            return f"truncation criterion is {verdict.status}, reference {self.status}"
        if len(grid.cells) != (self.N_MAX + 1) * self.M_MAX:
            return f"grid has {len(grid.cells)} cells"
        for n, m in desc["cells"]:
            cell = grid.cells[n * self.M_MAX + (m - 1)]
            want = oracle.gap_cell(*self.matrices(desc, n), m)
            for label, got, exp in zip(("mu", "gap", "tail"), (cell.mu, cell.gap, cell.tail), want):
                if not abs(got - exp) <= ORACLE_TOL * max(1.0, abs(exp)):
                    return f"cell (n, m) = ({n}, {m}): {label} {got!r}, oracle {exp!r}"
        return None


class FuzzChannel:
    """One ``qdini fuzz`` trial per op, round-robin over the channel-MI suites.

    The dimensions are those of the AC2 acceptance test.  Each trial's seed
    is derived from (workload seed, op index).
    """

    name = "fuzz-channel"
    SUITES = (("laa-channel-mi", 6), ("chain-rule", 6), ("mi-bound", 4))
    ROUND = len(SUITES)
    CAL_REPS = 1

    def __init__(self, seed: int, reference: dict):
        self.seed = seed

    def warmup(self):
        return [(suite, dim, self._trial_seed(-1 - k)) for k, (suite, dim) in enumerate(self.SUITES)]

    def _trial_seed(self, i: int) -> int:
        key = [self.seed, i] if i >= 0 else [self.seed, 2 ** 32 + i]
        return int(np.random.SeedSequence(key).generate_state(1)[0])

    def describe(self, i: int):
        suite, dim = self.SUITES[i % len(self.SUITES)]
        return suite, dim, self._trial_seed(i)

    def kind(self, desc) -> str:
        return desc[0]

    def run(self, desc):
        suite, dim, seed = desc
        return sc.inequality_fuzz(suite, dim, 1, seed)

    def digest(self, out) -> str:
        return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()

    def check(self, desc, report) -> str | None:
        if report["violations"] or not report["all_matched"]:
            return f"{desc}: violations {report['violations']}"
        bad = {k: v for k, v in report["worst_slack"].items() if not math.isfinite(v)}
        if bad or not report["worst_slack"]:
            return f"{desc}: non-finite or missing slacks {bad}"
        return None


WORKLOADS = {w.name: w for w in (BuiltinSweep, DenseDiagnostics, FuzzChannel)}
