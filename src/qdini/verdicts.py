"""Verdicts, diagnostic grids and the windowed trend rule.

A finite window can never certify a limit, so asymptotic claims are reported
with a fixed trend rule: a residual sequence "shrinks" iff its last value is
below half its first value and at least 60 percent of consecutive steps
decrease.  Every verdict's status follows one policy, ``Verdict.status``, and
reads only the records the verdict reports.  Each check has a role:
``inequality`` (an inequality the window must satisfy; a failure is
"violated"), ``hypothesis`` (a hypothesis or a finite value the conclusion
needs; a failure, +inf included, is "inconclusive") or ``note`` (reported
only).  Otherwise the trends that gate decide; trend-based conclusions are at
most "consistent" and carry trend_only = true.  Every inequality, in a
verdict or a fuzz suite, is decided by one rule, ``inequality_holds``, and
every check over many cases is built by ``inequality_check``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import ClassVar

CONSISTENT = "consistent"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"

# the roles of a check: what its failure makes of the status
HYPOTHESIS = "hypothesis"
INEQUALITY = "inequality"
NOTE = "note"

TREND_HALVING = 0.5
TREND_MAJORITY = 0.6
TREND_ZERO_TOL = 1e-12
"""A residual of at most this magnitude is zero: it moves every trend rule, so every status that trends decide."""

INEQ_SLACK = 1e-8
"""A slack of at least -INEQ_SLACK holds (``inequality_holds``): it moves every
inequality check, the appendix's windowed bound and every fuzz violation."""


def residual_shrinks(residuals) -> bool:
    """Fixed trend rule: last < first/2 and >= 60% of steps decrease.

    An all-zero window counts as shrunk; any non-finite entry does not.
    """
    res = [float(r) for r in residuals]
    if not res or any(not math.isfinite(r) for r in res):
        return False
    if max(abs(r) for r in res) <= TREND_ZERO_TOL:
        return True
    if len(res) < 2:
        return False
    steps = len(res) - 1
    # a step that has already reached (numerical) zero counts as decreasing,
    # so exactly-converged plateaus do not defeat the majority rule
    decreases = sum(
        1 for a, b in zip(res, res[1:])
        if b < a or (abs(a) <= TREND_ZERO_TOL and abs(b) <= TREND_ZERO_TOL)
    )
    return res[-1] < TREND_HALVING * res[0] and decreases >= TREND_MAJORITY * steps


def shrinks_toward_zero(values) -> bool:
    """Trend rule plus smallness: the last value must be near zero in scale.

    Used for tail sups, where halving alone is not evidence of vanishing.
    """
    vals = [float(v) for v in values]
    if not residual_shrinks(vals):
        return False
    if max(abs(v) for v in vals) <= TREND_ZERO_TOL:
        return True
    return vals[-1] <= max(0.05 * vals[0], 1e-6)


def windowed_sup(values, n_max: int) -> float:
    """Tail surrogate for a limsup: max over the last ceil(n_max/2) entries."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("windowed_sup needs at least one value: the window needs n_max >= 1")
    tail = max(1, math.ceil(n_max / 2))
    return max(vals[-tail:])


def inequality_holds(slack: float) -> bool:
    """The one inequality rule: a slack holds iff it is at least -INEQ_SLACK; a NaN slack never holds."""
    return slack >= -INEQ_SLACK


def inequality_check(name: str, cases, describe=None) -> CheckResult:
    """An ``inequality`` check over cases (slack, *where), passed iff every case holds; a slack of None fails.

    It reports the least slack (+inf without one) and ``describe(slack, *where)`` of the last failing case, or "".
    """
    least, failure = math.inf, None
    for slack, *where in cases:
        if slack is not None and slack < least:
            least = slack
        if slack is None or not inequality_holds(slack):
            failure = (slack, *where)
    detail = describe(*failure) if failure is not None and describe is not None else ""
    return CheckResult(name, failure is None, float(least), detail, INEQUALITY)


def encode_number(x) -> object:
    """JSON-safe scalar: +inf becomes the string 'inf' and -inf the string '-inf'."""
    v = float(x)
    if math.isinf(v):
        return "inf" if v > 0.0 else "-inf"
    return v


@dataclass(frozen=True)
class CheckResult:
    """A named boolean check with its worst slack, and its role in the status (not serialized)."""

    name: str
    passed: bool
    slack: float = 0.0
    detail: str = ""
    role: str = HYPOTHESIS

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "slack": encode_number(self.slack),
            "detail": self.detail,
        }


@dataclass(frozen=True)
class TrendSummary:
    """A residual sequence over the window with its trend classification.

    ``gates`` (not serialized): whether the trend takes part in the status.
    """

    name: str
    residuals: tuple
    shrinks: bool
    gates: bool = True

    @classmethod
    def from_residuals(cls, name: str, residuals, gates: bool = True) -> "TrendSummary":
        res = tuple(float(r) for r in residuals)
        return cls(name, res, residual_shrinks(res), gates)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "residuals": [encode_number(r) for r in self.residuals],
            "shrinks": self.shrinks,
        }


@dataclass(frozen=True)
class Verdict:
    """A procedure's checks and trends; its status is derived from them alone."""

    name: str
    hypothesis_checks: tuple = ()
    conclusion_trends: tuple = ()
    notes: tuple = ()
    values: dict = field(default_factory=dict)

    # a finite window never certifies a limit, so every verdict rests on trends
    trend_only: ClassVar[bool] = True

    @property
    def status(self) -> str:
        """The status policy, and the only place a status is decided.

        A failed ``inequality`` check is "violated"; else a failed
        ``hypothesis`` check is "inconclusive"; else "consistent" iff at
        least one trend gates and every gating trend shrinks.
        """
        failed = {c.role for c in self.hypothesis_checks if not c.passed}
        if INEQUALITY in failed:
            return VIOLATED
        if HYPOTHESIS in failed:
            return INCONCLUSIVE
        gating = [t.shrinks for t in self.conclusion_trends if t.gates]
        return CONSISTENT if gating and all(gating) else INCONCLUSIVE

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "trend_only": self.trend_only,
            "hypothesis_checks": [c.to_json() for c in self.hypothesis_checks],
            "conclusion_trends": [t.to_json() for t in self.conclusion_trends],
            "notes": list(self.notes),
            "values": {k: _encode_value(v) for k, v in sorted(self.values.items())},
        }


def _encode_value(v):
    if isinstance(v, (list, tuple)):
        return [_encode_value(x) for x in v]
    if isinstance(v, dict):
        return {k: _encode_value(x) for k, x in sorted(v.items())}
    if isinstance(v, bool) or isinstance(v, str):
        return v
    if isinstance(v, (int,)):
        return v
    return encode_number(v)


@dataclass(frozen=True)
class GridCell:
    n: int
    m: int
    mu: float
    gap: float  # may be +inf
    tail: float  # may be +inf
    flags: tuple = ()


@dataclass(frozen=True)
class DiagnosticsGrid:
    """Per-(n, m) masses, approximation gaps and tail terms."""

    n_range: tuple
    m_range: tuple
    cells: tuple  # GridCell in (n, m) lexicographic order

    def cell(self, n: int, m: int) -> GridCell:
        idx = self.n_range.index(n) * len(self.m_range) + self.m_range.index(m)
        return self.cells[idx]

    def to_rows(self):
        for c in self.cells:
            yield {
                "n": c.n,
                "m": c.m,
                "mu": encode_number(c.mu),
                "gap": encode_number(c.gap),
                "tail": encode_number(c.tail),
                "flags": ";".join(c.flags),
            }

    def to_json(self) -> dict:
        return {
            "n_range": list(self.n_range),
            "m_range": list(self.m_range),
            "cells": list(self.to_rows()),
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=["n", "m", "mu", "gap", "tail", "flags"], lineterminator="\n")
        writer.writeheader()
        for row in self.to_rows():
            writer.writerow(row)
        return buf.getvalue()


def dumps_canonical(obj: dict) -> str:
    """Deterministic strict JSON: sorted keys, fixed separators, trailing newline; a NaN or an infinite float raises ValueError."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
