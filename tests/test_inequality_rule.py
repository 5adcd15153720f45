"""The one inequality rule: ``inequality_holds`` and ``inequality_check`` of ``verdicts``.

An inequality holds iff its slack is at least -INEQ_SLACK; a NaN slack never
holds.  Every inequality of the verdict procedures and of the fuzz suites is
decided by that rule, and a check over many cases is built by
``inequality_check``: it passes iff every case holds, reports the least slack
(+inf without cases) and the detail of the last failing case.  The appendix
reports margins, slack + INEQ_SLACK, which the golden files pin.  Only
``verdicts`` compares a slack with INEQ_SLACK.
"""

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

import qdini
from qdini import (
    CheckResult,
    OperatorSequence,
    PositiveOperator,
    Verdict,
    appendix_domination,
    builtin_scenario,
    check_dct_basic,
    entropy_family,
    inequality_fuzz,
    von_neumann_entropy,
)
from qdini import scenarios
from qdini.diagnostics import ZERO_MODULUS, FunctionalFamily
from qdini.entropies import _ladder_values, trace_neg_log_pairs
from qdini.verdicts import (
    INEQ_SLACK,
    INEQUALITY,
    TrendSummary,
    dumps_canonical,
    encode_number,
    inequality_check,
    inequality_holds,
)


def test_the_rule_holds_down_to_minus_the_slack():
    assert inequality_holds(-INEQ_SLACK)
    assert not inequality_holds(np.nextafter(-INEQ_SLACK, -math.inf))
    assert inequality_holds(0.0) and inequality_holds(math.inf)
    assert not inequality_holds(-math.inf)
    assert not inequality_holds(math.nan)


class TestInequalityCheck:
    def test_least_slack_and_the_last_failing_case(self):
        described = []

        def describe(slack, where):
            described.append(where)
            return f"{where} fails by {-slack:.3e}"

        cases = [(0.5, "a"), (-1.0, "b"), (-INEQ_SLACK, "c"), (-0.1, "d"), (2.0, "e")]
        check = inequality_check("name", cases, describe)
        assert check == CheckResult("name", False, -1.0, "d fails by 1.000e-01", INEQUALITY)
        assert described == ["d"]  # formatted for that case only

    def test_a_case_without_a_slack_fails_without_moving_the_slack(self):
        check = inequality_check("name", [(0.3, "x"), (None, "y"), (0.7, "z")],
                                 lambda slack, where: f"{where}: {slack}")
        assert (check.passed, check.slack, check.detail) == (False, 0.3, "y: None")

    def test_no_cases_pass_with_infinite_slack(self):
        check = inequality_check("name", [])
        assert (check.passed, check.slack, check.detail, check.role) == (True, math.inf, "", INEQUALITY)
        assert json.loads(dumps_canonical(check.to_json()))["slack"] == "inf"

    def test_every_case_holds(self):
        check = inequality_check("name", [(-INEQ_SLACK, 1), (0.25, 2)], lambda slack, where: "unused")
        assert (check.passed, check.slack, check.detail) == (True, -INEQ_SLACK, "")

    def test_a_nan_slack_fails_without_moving_the_slack(self):
        check = inequality_check("name", [(1.0,), (math.nan,)])
        assert (check.passed, check.slack, check.detail) == (False, 1.0, "")


def _compares_with_slack(tree) -> list:
    """Lines of the comparisons with INEQ_SLACK, by name or as a module attribute, anywhere in an operand."""
    def names_it(node):
        return (isinstance(node, ast.Name) and node.id == "INEQ_SLACK"
                or isinstance(node, ast.Attribute) and node.attr == "INEQ_SLACK")
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Compare) and any(names_it(sub) for sub in ast.walk(node)))


def test_only_the_rule_compares_a_slack_with_ineq_slack():
    package = Path(qdini.__file__).parent
    offenders, definitions = {}, []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        definitions += [path.name for node in ast.walk(tree) if isinstance(node, (ast.Assign, ast.AnnAssign))
                        for target in getattr(node, "targets", [getattr(node, "target", None)])
                        if isinstance(target, ast.Name) and target.id == "INEQ_SLACK"]
        lines = _compares_with_slack(tree)
        if path.name == "verdicts.py":
            (rule,) = [node for node in tree.body
                       if isinstance(node, ast.FunctionDef) and node.name == "inequality_holds"]
            assert len(_compares_with_slack(rule)) == 1
            lines = [line for line in lines if line not in _compares_with_slack(rule)]
        if lines:
            offenders[path.name] = lines
    assert offenders == {}
    assert definitions == ["verdicts.py"]


def test_the_scan_sees_both_conventions():
    assert _compares_with_slack(ast.parse("if slack < -dx.INEQ_SLACK:\n    pass\n")) == [1]
    assert _compares_with_slack(ast.parse("ok = d2 + INEQ_SLACK >= 0.0\n")) == [1]
    assert _compares_with_slack(ast.parse("margin = d2 + INEQ_SLACK\n")) == []


def test_appendix_ladder_reports_margins():
    seqs, _, _ = scenarios._resolve_bindings(builtin_scenario("appendix-ladder"))
    rho1, rho2, sigma1, sigma2 = (seqs[k] for k in ("rho1", "rho2", "sigma1", "sigma2"))
    ks, n_max = [1, 10, 100, 1000, 10000], 12
    verdict = appendix_domination(rho1, rho2, sigma1, sigma2, ks, n_max)
    checks = {c.name: c for c in verdict.hypothesis_checks}
    ns = range(n_max + 1)
    a1 = trace_neg_log_pairs([rho1(n) for n in ns], [sigma1(n) for n in ns])
    a2 = trace_neg_log_pairs([rho2(n) for n in ns], [sigma2(n) for n in ns])
    ladder = []
    for n in ns:
        d1 = a1[n] - np.array(_ladder_values(rho1(n), sigma1(n), ks)[1])
        d2 = a2[n] - np.array(_ladder_values(rho2(n), sigma2(n), ks)[1])
        ladder += [*d2, *(d1 - d2)]
    # the margin is the rule's least slack + INEQ_SLACK, to the last bit
    assert checks["ladder difference comparisons"].slack == min(ladder) + INEQ_SLACK
    assert checks["Tr H rho equals the eigenvector quadratic-form sum"].slack == 0.0 + INEQ_SLACK
    values = verdict.values
    bound = checks["windowed A_2 - a2_0 <= Delta"]
    assert bound.slack == values["Delta"] + INEQ_SLACK - (values["A_2"] - a2[0])
    assert bound.passed == inequality_holds(values["Delta"] - (values["A_2"] - a2[0]))
    # the margins of the golden report, to the last bit
    margins = [c.slack for c in checks.values() if c.name != "A_1 values finite on window"]
    assert margins == [0.0002596270272801679, 1e-08, 0.0003743204635667294]


def _member(n):
    lam = np.array([0.5, 0.3, 0.2]) + (0.5 ** n if n else 0.0) * np.array([0.05, -0.02, -0.03])
    return PositiveOperator(diagonal=lam)


# g_n is +inf on every state for even n and S + 1 > S for odd n, so each n fails domination in one way
ALTERNATING = FunctionalFamily(
    "Custom", "inf or S + 1",
    lambda n, op: math.inf if n % 2 == 0 else von_neumann_entropy(op) + 1.0,
    a_f=ZERO_MODULUS)


@pytest.mark.parametrize("n_max, detail", [
    (5, "|g| > f by 1.000e+00 at [Psi_3(rho_5)]"),
    (6, "|g| infinite with finite f at [Psi_3(rho_6)]"),
])
def test_dct_basic_names_the_last_failure_in_window_order(n_max, detail):
    seq = OperatorSequence(_member, 3)
    verdict = check_dct_basic(entropy_family(), ALTERNATING, seq, n_max, 3)
    (domination,) = [c for c in verdict.hypothesis_checks if c.name == "|g_n| <= f_n on window and truncations"]
    assert not domination.passed and domination.detail == detail
    assert domination.slack == pytest.approx(-1.0, abs=1e-12)  # the +inf cases do not move it
    assert verdict.status == "violated"


class TestStrictJson:
    def test_a_nan_slack_raises(self):
        verdict = Verdict("v", hypothesis_checks=(CheckResult("c", False, math.nan),))
        with pytest.raises(ValueError, match="not JSON compliant"):
            dumps_canonical(verdict.to_json())

    def test_infinities_are_encoded_with_their_sign(self):
        assert encode_number(math.inf) == "inf" and encode_number(-math.inf) == "-inf"
        trend = TrendSummary.from_residuals("t", [-math.inf, 1.0, math.inf]).to_json()
        assert trend["residuals"] == ["-inf", 1.0, "inf"]
        assert CheckResult("c", False, -math.inf).to_json()["slack"] == "-inf"
        assert '"slack":"-inf"' in dumps_canonical(CheckResult("c", False, -math.inf).to_json())

    def test_an_infinite_float_raises(self):
        with pytest.raises(ValueError, match="not JSON compliant"):
            dumps_canonical({"worst_slack": {"x": -math.inf}})

    def test_a_nan_fuzz_slack_is_a_violation_and_raises(self, monkeypatch):
        monkeypatch.setitem(scenarios.FUZZ_SUITES, "entropy", lambda rng, dim: {"nan": math.nan})
        report = inequality_fuzz("entropy", 2, 1, 0)
        assert not report["all_matched"] and len(report["violations"]) == 1
        with pytest.raises(ValueError, match="not JSON compliant"):
            dumps_canonical(report)
