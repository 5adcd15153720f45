"""Shared fixtures, the hypothesis profile, and one pass/fail summary line per acceptance criterion."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import settings

# property tests draw the same examples on every run and keep no example database
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def eigensolves(monkeypatch):
    """Counts of numpy's eigensolver calls by name; every reader looks them up at call time."""
    counts = Counter()
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def counted(*args, _solver=solver, _name=name, **kwargs):
            counts[_name] += 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


@pytest.fixture
def constructions(monkeypatch):
    """Counts of operators built, through ``HermitianOperator.__init__`` or the view constructor.

    Spectral views come from ``PositiveOperator._with_spectrum`` and never
    enter ``__init__``, so a count of ``__init__`` alone would miss them.
    """
    from qdini import HermitianOperator, PositiveOperator

    counts = Counter()
    init, view = HermitianOperator.__init__, PositiveOperator._with_spectrum.__func__

    def counted_init(self, *args, **kwargs):
        counts["operators"] += 1
        init(self, *args, **kwargs)

    def counted_view(cls, *args, **kwargs):
        counts["operators"] += 1
        return view(cls, *args, **kwargs)

    monkeypatch.setattr(HermitianOperator, "__init__", counted_init)
    monkeypatch.setattr(PositiveOperator, "_with_spectrum", classmethod(counted_view))
    return counts


ACCEPTANCE_LABELS = {
    "test_ac1_identity_channel_mi_doubles_entropy":
        "AC1 identity-channel mutual information equals 2 S(rho)",
    "test_ac2_inequality_fuzz_suites":
        "AC2 inequality fuzz suites, >= 1000 trials each, zero violations",
    "test_ac3_truncated_state_entropy_bound":
        "AC3 S([Psi_m(rho)]) <= ln m on 300 random pairs",
    "test_ac4_relative_entropy_truncation_gap":
        "AC4 truncation gap of D(.||sigma) closes and shrinks over stable indices",
    "test_ac5_regularized_log_ladder":
        "AC5 regularized-log ladder monotone and convergent",
    "test_ac6_entropy_discontinuity_scenario":
        "AC6 entropy-discontinuity scenario: jump band, tails, fast path",
    "test_ac7_simon_dct_scenario":
        "AC7 dominated-convergence scenario: trends and per-cell bounds",
    "test_ac8_diagonal_scenarios_closed_form":
        "AC8 diagonal scenarios match statuses and the closed-form values",
    "test_ac9_commuting_schedules":
        "AC9 commuting schedules pass all five consistency conditions",
    "test_ac10_reports_byte_identical":
        "AC10 reruns with the same seed give byte-identical reports",
}

_results = {}


def pytest_runtest_logreport(report):
    name = report.nodeid.rsplit("::", 1)[-1]
    if name in ACCEPTANCE_LABELS and report.when == "call":
        _results[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, label in ACCEPTANCE_LABELS.items():
        if name in _results:
            outcome = "PASS" if _results[name] == "passed" else "FAIL"
            terminalreporter.write_line(f"{label}: {outcome}")
