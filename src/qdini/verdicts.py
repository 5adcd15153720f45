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
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

CONSISTENT = "consistent"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"
STATUSES = (CONSISTENT, VIOLATED, INCONCLUSIVE)  # every status a verdict can take

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


# the flags a grid cell can carry; a cell's flag code sets bit i for FLAG_NAMES[i]
FLAG_NAMES = ("ambiguous-m", "inf-gap", "inf-tail")
_FLAG_SETS = tuple(tuple(name for i, name in enumerate(FLAG_NAMES) if code >> i & 1)
                   for code in range(1 << len(FLAG_NAMES)))
_FLAG_STRINGS = tuple(";".join(flags) for flags in _FLAG_SETS)


class DiagnosticsGrid:
    """Per-(n, m) masses, approximation gaps and tail terms.

    The grid holds (N, M) columns over n of ``n_range`` and m of
    ``m_range``: ``mu``, ``gap`` and ``tail`` (gap and tail may be +inf)
    and ``flag_codes``, built from the three flag columns ``ambiguous``,
    ``inf_gap`` and ``inf_tail`` (bit i for FLAG_NAMES[i]).  ``to_rows``,
    ``to_json`` and ``to_csv`` emit the rows straight from the columns, in
    (n, m) lexicographic order, each cell's flags through a table of the
    8 flag strings.  ``cells`` and ``cell(n, m)`` build ``GridCell``
    records only when they are read.
    """

    __slots__ = ("n_range", "m_range", "mu", "gap", "tail", "flag_codes", "_cells")

    def __init__(self, n_range, m_range, mu, gap, tail, ambiguous, inf_gap, inf_tail):
        self.n_range, self.m_range = tuple(n_range), tuple(m_range)
        shape = (len(self.n_range), len(self.m_range))
        self.mu, self.gap, self.tail = (np.array(a, dtype=float).reshape(shape) for a in (mu, gap, tail))
        flags = (np.asarray(a, dtype=bool).reshape(shape) for a in (ambiguous, inf_gap, inf_tail))
        self.flag_codes = sum(f.astype(np.intp) << i for i, f in enumerate(flags))
        for a in (self.mu, self.gap, self.tail, self.flag_codes):
            a.flags.writeable = False
        self._cells = None

    @property
    def cells(self) -> tuple:
        """Every cell as a ``GridCell``, in (n, m) lexicographic order; built on first read."""
        if self._cells is None:
            self._cells = tuple(GridCell(n, m, mu, gap, tail, _FLAG_SETS[code]) for (n, m), mu, gap, tail, code
                                in zip(itertools.product(self.n_range, self.m_range), *self._columns()))
        return self._cells

    def cell(self, n: int, m: int) -> GridCell:
        """The cell at (n, m) as a ``GridCell``, built alone."""
        i, k = self.n_range.index(n), self.m_range.index(m)
        return GridCell(self.n_range[i], self.m_range[k], float(self.mu[i, k]), float(self.gap[i, k]),
                        float(self.tail[i, k]), _FLAG_SETS[int(self.flag_codes[i, k])])

    def _columns(self) -> tuple:
        """mu, gap, tail and the flag codes of every cell as flat lists, in row order."""
        return tuple(a.ravel().tolist() for a in (self.mu, self.gap, self.tail, self.flag_codes))

    def to_rows(self):
        *numbers, codes = self._columns()
        # encode_number changes only +-inf; a column without one is already JSON-safe
        mu, gap, tail = ([encode_number(x) for x in column] if any(map(math.isinf, column)) else column
                         for column in numbers)
        for (n, m), mu_nm, gap_nm, tail_nm, code in zip(itertools.product(self.n_range, self.m_range),
                                                        mu, gap, tail, codes):
            yield {"n": n, "m": m, "mu": mu_nm, "gap": gap_nm, "tail": tail_nm, "flags": _FLAG_STRINGS[code]}

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

    def __eq__(self, other):
        if not isinstance(other, DiagnosticsGrid):
            return NotImplemented
        return ((self.n_range, self.m_range) == (other.n_range, other.m_range)
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in ("mu", "gap", "tail", "flag_codes")))

    def __repr__(self):
        return f"DiagnosticsGrid(n_range={self.n_range!r}, m_range={self.m_range!r}, cells={self.cells!r})"


def dumps_canonical(obj: dict) -> str:
    """Deterministic strict JSON: sorted keys, fixed separators, trailing newline; a NaN or an infinite float raises ValueError."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
