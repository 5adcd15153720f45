"""The canonical reports of the 10 builtins and the 8 fuzz suites against reports frozen in tests/golden/.

``golden/builtin_reports_seed3.json`` maps each builtin name to the decoded
``report_to_json(run_scenario(builtin_scenario(name), seed=3))``, captured
with QDINI_THREADS unset before the spectra of operators were cached.  It is
the behavioural contract of every refactor below the report layer: statuses,
``matched`` flags, names and the "inf" marker must match exactly, and every
number must agree within 1e-12 * max(1, |golden|).  A mismatch is a change of
behaviour to explain, never a reason to recapture the file.

``golden/fuzz_reports_seed3.json`` maps each fuzz suite to the decoded
``dumps_canonical(inequality_fuzz(suite, dim, 200, 3))`` at the dimensions of
the acceptance test AC2, captured before the PSD checks were unified.  It
pins the seeded random generators and every worst slack the same way.

``golden/scenario_reports_seed3.json`` maps each scenario file of
tests/scenarios/ but the ``usage-*`` ones (which must exit 2 and have no
report) to its decoded report at seed 3, with QDINI_THREADS unset, captured
before the diagonal windows of other bases and of the dominated scheme
became rows windows; ``dominated-dense``, whose dense pairs take the
per-cell dominated path, was captured before the diagonal and dense
dominated windows shared one cut table.  The same rule applies.
"""

import json
from pathlib import Path

import pytest

from qdini import (
    BUILTIN_SCENARIOS,
    FUZZ_SUITES,
    builtin_scenario,
    inequality_fuzz,
    load_scenario,
    report_to_json,
    run_scenario,
)
from qdini.verdicts import dumps_canonical

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "builtin_reports_seed3.json").read_text())
GOLDEN_FUZZ = json.loads((GOLDEN_DIR / "fuzz_reports_seed3.json").read_text())
GOLDEN_SCENARIOS = json.loads((GOLDEN_DIR / "scenario_reports_seed3.json").read_text())
SCENARIO_DIR = Path(__file__).parent / "scenarios"
SCENARIO_FILES = sorted(path.stem for path in SCENARIO_DIR.glob("*.json") if not path.name.startswith("usage-"))
FUZZ_DIMS = {  # the dimensions of test_ac2_inequality_fuzz_suites
    "entropy": 6,
    "relative-entropy": 6,
    "mi-bound": 4,
    "laa-relative-entropy": 6,
    "laa-channel-mi": 6,
    "chain-rule": 6,
    "lindblad-ozawa": 6,
    "choi-rank": 6,
}
NUMBER_TOL = 1e-12


def first_difference(expected, got, path: str):
    """Path and description of the first disagreement, or None."""
    if isinstance(expected, dict):
        if not isinstance(got, dict) or set(got) != set(expected):
            return f"{path}: keys differ"
        for key in sorted(expected):
            problem = first_difference(expected[key], got[key], f"{path}.{key}")
            if problem:
                return problem
        return None
    if isinstance(expected, list):
        if not isinstance(got, list) or len(got) != len(expected):
            return f"{path}: list length differs"
        for k, (e, g) in enumerate(zip(expected, got)):
            problem = first_difference(e, g, f"{path}[{k}]")
            if problem:
                return problem
        return None
    if isinstance(expected, (bool, str)) or expected is None:
        same = got == expected and type(got) is type(expected)
        return None if same else f"{path}: {got!r} != {expected!r}"
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return f"{path}: {got!r} is not a number"
    if not abs(got - expected) <= NUMBER_TOL * max(1.0, abs(expected)):
        return f"{path}: {got!r} differs from {expected!r} by {abs(got - expected):.3e}"
    return None


def test_golden_covers_every_builtin():
    assert sorted(GOLDEN) == sorted(BUILTIN_SCENARIOS)


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_builtin_report_matches_golden(name, monkeypatch):
    monkeypatch.delenv("QDINI_THREADS", raising=False)
    report = json.loads(report_to_json(run_scenario(builtin_scenario(name), seed=3)))
    assert first_difference(GOLDEN[name], report, name) is None


def test_golden_covers_every_fuzz_suite():
    assert sorted(GOLDEN_FUZZ) == sorted(FUZZ_SUITES) == sorted(FUZZ_DIMS)


@pytest.mark.parametrize("suite", sorted(FUZZ_SUITES))
def test_fuzz_report_matches_golden(suite):
    report = json.loads(dumps_canonical(inequality_fuzz(suite, FUZZ_DIMS[suite], trials=200, seed=3)))
    assert first_difference(GOLDEN_FUZZ[suite], report, suite) is None


def test_golden_covers_every_scenario_file():
    assert sorted(GOLDEN_SCENARIOS) == SCENARIO_FILES


@pytest.mark.parametrize("name", SCENARIO_FILES)
def test_scenario_file_report_matches_golden(name, monkeypatch):
    monkeypatch.delenv("QDINI_THREADS", raising=False)
    report = json.loads(report_to_json(run_scenario(load_scenario(str(SCENARIO_DIR / f"{name}.json")), seed=3)))
    assert first_difference(GOLDEN_SCENARIOS[name], report, name) is None


def test_comparison_is_strict_on_statuses_and_inf():
    assert first_difference({"s": "consistent"}, {"s": "violated"}, "r")
    assert first_difference({"x": "inf"}, {"x": 1e300}, "r")
    assert first_difference({"m": True}, {"m": 1}, "r")
    assert first_difference({"x": 1.0}, {"x": 1.0 + 1e-9}, "r")
    assert first_difference({"x": 1.0}, {"x": 1.0 + 1e-13}, "r") is None
