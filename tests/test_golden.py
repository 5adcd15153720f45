"""The canonical reports of the 10 builtins against reports frozen in tests/golden/.

``golden/builtin_reports_seed3.json`` maps each builtin name to the decoded
``report_to_json(run_scenario(builtin_scenario(name), seed=3))``, captured
with QDINI_THREADS unset before the spectra of operators were cached.  It is
the behavioural contract of every refactor below the report layer: statuses,
``matched`` flags, names and the "inf" marker must match exactly, and every
number must agree within 1e-12 * max(1, |golden|).  A mismatch is a change of
behaviour to explain, never a reason to recapture the file.
"""

import json
from pathlib import Path

import pytest

from qdini import BUILTIN_SCENARIOS, builtin_scenario, report_to_json, run_scenario

GOLDEN = json.loads((Path(__file__).parent / "golden" / "builtin_reports_seed3.json").read_text())
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


def test_comparison_is_strict_on_statuses_and_inf():
    assert first_difference({"s": "consistent"}, {"s": "violated"}, "r")
    assert first_difference({"x": "inf"}, {"x": 1e300}, "r")
    assert first_difference({"m": True}, {"m": 1}, "r")
    assert first_difference({"x": 1.0}, {"x": 1.0 + 1e-9}, "r")
    assert first_difference({"x": 1.0}, {"x": 1.0 + 1e-13}, "r") is None
