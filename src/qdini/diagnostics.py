"""Convergence diagnostics over finite (n, m) windows.

Each procedure takes declared-limit sequences (index 0), evaluates an
entropic functional family across the window, and reports a Verdict: named
checks with slacks and residual trends, from which ``verdicts`` derives the
status.  A check's role says what its failure means: ``inequality``
(violated), ``hypothesis``, the default, for an unmet hypothesis or a +inf
(inconclusive), or ``note`` (reported only); a trend that does not gate is
reported only.  A +inf that the named checks do not cover appends a failed
hypothesis check, on that branch only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channels import (
    ChannelSequence,
    channel_mi_cuts,
    channel_mutual_information,
    coherent_information,
    coherent_information_cuts,
    output_entropy_cuts,
)
from .entropies import (
    SpectralCuts,
    _ladder_values,
    binary_entropy,
    binary_entropy_extension,
    entropy_cuts,
    relative_entropy,
    relative_entropy_cuts,
    relative_entropy_pairs,
    trace_neg_log,
    trace_neg_log_cuts,
    trace_neg_log_pairs,
    von_neumann_entropy,
)
from .extreal import ExtendedReal
from .operators import (
    DensityOperator,
    PositiveOperator,
    apply_spectral_function,
    compress,
    moore_penrose_inverse,
    ordering_slacks,
)
from .truncation import (
    ApproximationScheme,
    DominatedCuts,
    OperatorSequence,
    ProjectorSchedule,
    ambiguous_cuts,
    check_positive,
    coordinate_basis,
    normalize,
    schedule_checks,
    spectral_truncation,
    stable_index_set,
)
from .verdicts import (
    HYPOTHESIS,
    INEQ_SLACK,
    INEQUALITY,
    NOTE,
    CheckResult,
    DiagnosticsGrid,
    TrendSummary,
    Verdict,
    inequality_check,
    inequality_holds,
    shrinks_toward_zero,
    windowed_sup,
)


@dataclass(frozen=True)
class ModulusFunction:
    """Nonnegative modulus p -> a_f(p) with a_f(0) = 0, such as h2 or 2 h2."""

    name: str
    evaluator: object

    def __call__(self, p: float) -> float:
        return float(self.evaluator(float(p)))


ZERO_MODULUS = ModulusFunction("0", lambda p: 0.0)
H2_MODULUS = ModulusFunction("h2", binary_entropy)
TWO_H2_MODULUS = ModulusFunction("2*h2", lambda p: 2.0 * binary_entropy(p))


def g_c_linear(c: float) -> ModulusFunction:
    """G_c(x) = x/c, the concrete choice used by all registered families."""
    return ModulusFunction(f"x/{c}", lambda x: x / c)


class FunctionalFamily:
    """An index-dependent functional f_n on the positive cone.

    Evaluation returns an ExtendedReal; +inf is a legitimate value (support
    violations of the relative entropy), never an error.  A family that
    reads a state only through its spectrum and its weights in a fixed
    basis per n, or through a linear map of it (the channel families),
    also has ``rows``: (ns, SpectralCuts) -> f_n of every head
    and tail of the window, row j evaluated at n = ns[j], as a (2, N, M)
    float array with +inf.  The procedures do not choose between the forms
    themselves: ``_cut_values`` reads the cuts of one basis per n through
    rows when each basis is its operator's own spectrum or a diagonal
    basis of a diagonal operator, and through ``value`` cell by cell
    otherwise; the dominated scheme's grids on diagonal pairs also use
    rows.
    """

    __slots__ = ("kind", "label", "_value", "a_f", "b_f", "rows")

    def __init__(self, kind: str, label: str, value, a_f: ModulusFunction,
                 b_f: ModulusFunction | None = None, rows=None):
        self.kind = kind
        self.label = label
        self._value = value
        self.a_f = a_f
        self.b_f = b_f
        self.rows = rows

    def value(self, n: int, op: PositiveOperator) -> ExtendedReal:
        return self._value(n, op)

    def __repr__(self):
        return f"<FunctionalFamily {self.kind} {self.label!r}>"


def _homogeneous(state_value):
    """Extend a state functional to the cone: f~(rho) = Tr rho * f([rho])."""

    def value(n, op):
        if op.vanishes():
            return ExtendedReal(0.0)
        return state_value(n, normalize(op)) * op.trace()

    return value


def entropy_family() -> FunctionalFamily:
    return FunctionalFamily(
        "Entropy", "S",
        lambda n, op: von_neumann_entropy(op),
        a_f=ZERO_MODULUS, b_f=H2_MODULUS,
        rows=lambda ns, cuts: entropy_cuts(cuts),
    )


def relative_entropy_family(sigma_seq: OperatorSequence, label: str = "D(.||sigma_n)") -> FunctionalFamily:
    return FunctionalFamily(
        "RelativeEntropyVsSequence", label,
        lambda n, op: relative_entropy(op, sigma_seq(n)),
        a_f=H2_MODULUS, b_f=ZERO_MODULUS,
        rows=lambda ns, cuts: relative_entropy_cuts(cuts, [sigma_seq(n) for n in ns]),
    )


def trace_neg_log_family(sigma_seq: OperatorSequence, label: str = "Tr rho(-ln sigma_n)") -> FunctionalFamily:
    return FunctionalFamily(
        "TraceNegLogVsSequence", label,
        lambda n, op: trace_neg_log(op, sigma_seq(n)),
        a_f=ZERO_MODULUS, b_f=ZERO_MODULUS,
        rows=lambda ns, cuts: trace_neg_log_cuts(cuts, [sigma_seq(n) for n in ns]),
    )


def channel_mi_family(channel_seq: ChannelSequence, label: str = "I(Phi_n,.)") -> FunctionalFamily:
    return FunctionalFamily(
        "ChannelMI", label,
        _homogeneous(lambda n, state: channel_mutual_information(channel_seq(n), state)),
        a_f=ZERO_MODULUS, b_f=TWO_H2_MODULUS,
        rows=lambda ns, cuts: channel_mi_cuts(cuts, [channel_seq(n) for n in ns]),
    )


def coherent_info_family(channel_seq: ChannelSequence, label: str = "Ic(Phi_n,.)") -> FunctionalFamily:
    return FunctionalFamily(
        "CoherentInfo", label,
        _homogeneous(lambda n, state: ExtendedReal(coherent_information(channel_seq(n), state))),
        a_f=H2_MODULUS, b_f=H2_MODULUS,
        rows=lambda ns, cuts: coherent_information_cuts(cuts, [channel_seq(n) for n in ns]),
    )


def output_entropy_family(channel_seq: ChannelSequence, label: str = "S(Phi_n(.))") -> FunctionalFamily:
    return FunctionalFamily(
        "OutputEntropy", label,
        lambda n, op: von_neumann_entropy(channel_seq(n).apply(op)),
        a_f=ZERO_MODULUS, b_f=H2_MODULUS,
        rows=lambda ns, cuts: output_entropy_cuts(cuts, [channel_seq(n) for n in ns]),
    )


def _limit_trend(name: str, vals, gates: bool = True) -> TrendSummary:
    """Residuals |v_n - v_0| of finite values v_0, v_1, ... as a trend."""
    return TrendSummary.from_residuals(name, [abs(float(v) - float(vals[0])) for v in vals[1:]], gates)


# ---------------------------------------------------------------------------
# Approximation-gap grids


def approximation_gap_grid(family: FunctionalFamily, seq: OperatorSequence,
                           scheme: ApproximationScheme, n_max: int, m_max: int) -> DiagnosticsGrid:
    """Per-(n, m) masses mu, gaps f_n(rho_n) - f_n([Psi_m(rho_n)]) and tail terms.

    Cells where a value is +inf are flagged and kept; the grid is returned in
    full either way.  On the spectral scheme a family with rows reads
    f_n(rho_n) off the window itself: one more column, cut at rank rho_n
    and not normalized, whose head is rho_n's kept spectrum.  The
    dominated scheme and a family without rows call ``family.value`` once
    per n.
    """
    ns = range(n_max + 1)
    value = scheme.kind == "spectral" and family.rows is not None
    m_range, *window = _truncation_window(family, seq, scheme, ns, m_max, value=value)
    if value:
        f_rho = window[2][:, -1:]  # the head of the last column
        window = [a[:, :-1] for a in window]
    else:
        f_rho = _column([float(family.value(n, seq(n))) for n in ns])
    mass, ambiguous, f_head, tail_mass, f_tail = window
    no_head, no_tail = np.isnan(f_head), np.isnan(f_tail)
    inf_gap = ~no_head & (np.isinf(f_rho) | np.isinf(f_head))
    inf_tail = np.isinf(f_tail)
    with np.errstate(invalid="ignore"):  # inf - inf and 0 * inf land only in cells replaced below
        gap = np.where(no_head, f_rho, np.where(inf_gap, np.inf, f_rho - f_head))
        tail = np.where(no_tail, 0.0, np.where(inf_tail, np.inf, tail_mass * f_tail))
    return DiagnosticsGrid(ns, m_range, mass, gap, tail, ambiguous, inf_gap, inf_tail)


def truncation_lower_bound_slack(family: FunctionalFamily, seq: OperatorSequence,
                    scheme: ApproximationScheme, n_max: int, m_max: int) -> float:
    """Worst slack of f_n([rho_n]) >= mu f_n([Psi_m(rho_n)]) - a_f(1 - mu) per cell.

    The bound holds for states, so rho_n enters normalized: [rho_n] is
    the window's whole-state column, a cut at the rank.  mu is the
    truncated mass relative to Tr rho_n; cells with +inf values are
    skipped (the inequality presupposes finiteness), and so are the rows
    where f_n([rho_n]) is +inf.
    """
    ns = range(n_max + 1)
    _, mass, _, f_head, _, _ = _truncation_window(family, seq, scheme, ns, m_max, whole=True)
    f_state, mass, f_head = f_head[:, -1:], mass[:, :-1], f_head[:, :-1]
    counted = np.isfinite(f_head) & np.isfinite(f_state)
    t = np.broadcast_to(_column([seq(n).trace() for n in ns]), mass.shape)[counted]
    f = np.broadcast_to(f_state, mass.shape)[counted]
    mu = np.minimum(np.maximum(mass[counted] / t, 0.0), 1.0)
    a = np.array([family.a_f(x) for x in (1.0 - mu).tolist()])
    slack = f - mu * f_head[counted] + a
    return float(np.min(slack)) if slack.size else math.inf


def _column(values) -> np.ndarray:
    """Per-n values as an (N, 1) column, to broadcast along m."""
    return np.array(values, dtype=float).reshape(-1, 1)


def _truncation_window(family: FunctionalFamily, seq: OperatorSequence, scheme: ApproximationScheme,
                       ns, m_max: int, whole: bool = False, value: bool = False) -> tuple:
    """(m_range, mass, ambiguous, f_head, tail mass, f_tail) of Psi_m(rho_n), each an (N, M) array over n of ns and m of m_range.

    m_range runs from the scheme's smallest usable m to m_max.  f_head is
    f_n of the normalized head and f_tail of the normalized tail, +inf
    included, and NaN where that state does not exist.  With ``whole``,
    one more column after m_range cuts rho_n at its rank, so its head is
    [rho_n].  With ``value`` (spectral scheme only), one more column after
    those cuts rho_n at its rank without normalizing, so its head is
    f_n(rho_n).  The spectral scheme reads the window off ``_cut_values``.
    The dominated scheme reads it off one ``DominatedCuts`` table, whose
    cuts and flags both of its evaluators share: a family with rows on
    diagonal pairs evaluates the table's head and tail diagonals in one
    ``family.rows`` call; anything else (dense pairs, families without
    rows) truncates and evaluates each distinct cut pair of a row once,
    from operators.
    """
    if scheme.kind == "spectral":
        m_range = range(1, m_max + 1)
        # a cut at m >= rank keeps rho_n whole: [rho_n] with ``whole``, then rho_n itself with ``value``
        ms = list(m_range) + [seq.dim] * (whole + value)
        return (m_range, *_spectral_window(family, seq, ns, ms, np.arange(len(ms)) < len(m_range) + whole))
    table = scheme.dominated_cuts(seq, ns, m_max, whole)
    parts = table.diagonal_parts() if family.rows is not None else None
    if parts is not None:
        mass, f_head, tail_mass, f_tail = _dominated_diagonal_window(family, ns, *parts)
    else:
        mass, f_head, tail_mass, f_tail = _dominated_cells(family, ns, table)
    return table.m_range, mass, table.ambiguous, f_head, tail_mass, f_tail


def _dominated_cells(family: FunctionalFamily, ns, table: DominatedCuts) -> np.ndarray:
    """(head mass, f_head, tail mass, f_tail) of a dominated cut table from operators, each (N, M).

    Each distinct (n, rho cut, sigma cut) is truncated and evaluated once.
    """
    rho_cuts, sigma_cuts = table.cuts.tolist()
    window = []
    for j, n in enumerate(ns):
        keys = list(zip(rho_cuts[j], sigma_cuts[j] if table.cut_sigma[j] else [None] * len(rho_cuts[j])))
        cells = {}
        for i, key in enumerate(keys):
            if key not in cells:
                tr = table.truncation(j, i)
                cells[key] = (tr.mass, _state_value(family, n, tr.head),
                              tr.tail.trace(), _state_value(family, n, tr.tail))
            window.append(cells[key])
    return np.moveaxis(np.array(window, dtype=float).reshape(table.ambiguous.shape + (4,)), -1, 0)


def _spectral_window(family: FunctionalFamily, seq: OperatorSequence, ns, m_range, normalized=True) -> tuple:
    """``_truncation_window`` of the spectral scheme: rho_n's own spectrum cut at min(m, rank rho_n).

    A cut m below rank rho_n splits rho_n's kept spectrum into a head and a
    tail of positive mass.  A cut at or above the rank keeps rho_n itself
    and leaves no tail: the whole cell, whose mass is Tr of the kept
    spectrum, as in ``spectral_truncation``.  A vanishing rho_n has rank
    0, so its cells keep zero masses and no values.  ``normalized``, one
    bool for every m or one per m, is passed on to ``_cut_values``.
    """
    ops = [seq(n) for n in ns]
    spectra = [op.spectrum() for op in ops]
    kept = np.stack([spec.kept() for spec in spectra])
    ranks = np.array([[spec.rank] for spec in spectra])
    cuts = np.minimum(np.asarray(m_range, dtype=np.intp), ranks)
    j, zero = np.arange(len(ops))[:, None], np.zeros((len(ops), 1))
    head_mass = np.concatenate([zero, np.cumsum(kept, axis=1)], axis=1)[j, cuts]
    tail_mass = np.concatenate([np.cumsum(kept[:, ::-1], axis=1)[:, ::-1], zero], axis=1)[j, cuts]
    mass = np.where(cuts >= ranks, np.sum(kept, axis=1)[:, None], head_mass)
    f_head, f_tail = _cut_values(family, ns, ops, spectra, cuts, normalized)
    return mass, ambiguous_cuts(spectra, cuts), f_head, tail_mass, f_tail


def _dominated_diagonal_window(family: FunctionalFamily, ns, heads: np.ndarray, tails: np.ndarray) -> tuple:
    """(head mass, f_head, tail mass, f_tail) of the dominated scheme on diagonal pairs, each (N, M), in one ``family.rows`` call.

    ``heads`` and ``tails`` are the (N, M, d) diagonals of
    ``DominatedCuts.diagonal_parts``.  The heads of every row,
    then their tails, are the 2 N M rows of one ``SpectralCuts`` on the
    coordinate basis, each weighted by its diagonal and cut once after its
    last coordinate, normalized.  Every tail of that window is empty, so
    it evaluates heads only.  An empty window (m_max below the floor)
    makes no call.  The window counts every positive value of a
    diagonal, where the per-cell form decides the rank tolerance of each
    state again (see ``SpectralCuts``).
    """
    shape, d = heads.shape[:2], heads.shape[2]
    ops = np.concatenate([heads.reshape(-1, d), tails.reshape(-1, d)])
    count = len(ops)
    values = np.empty(0)
    if count:
        window = SpectralCuts((coordinate_basis(d),) * count, np.full((count, 1), d), True, ops, tails=False)
        op_ns = np.tile(np.repeat(np.asarray(ns), shape[1]), 2)
        values = np.where(window.vanishing, np.nan, family.rows(op_ns, window))[0, :, 0]
    (head_mass, tail_mass), (f_head, f_tail) = np.sum(ops, axis=1).reshape((2,) + shape), values.reshape((2,) + shape)
    return head_mass, f_head, tail_mass, f_tail


# ---------------------------------------------------------------------------
# The cut evaluator: f_n on the heads and tails of one basis per n


def _cut_values(family: FunctionalFamily, ns, ops, bases, cuts, normalized,
                heads: bool = True, tails: bool = True) -> np.ndarray:
    """f_{ns[j]} of the head P X P and the tail Pbar X Pbar of X = ops[j], for each prefix P of bases[j] cut at cuts[j].

    ``cuts`` has shape (N, M); the result is a (2, N, M) float array,
    heads in [0] and tails in [1], with +inf.  ``normalized`` is one bool
    for every column of cuts or one per column, shape (M,); in a
    normalized column each cut enters as its state [P X P].  An entry is
    NaN where that state does not exist (the cut vanishes, as
    ``normalize`` decides) or where its side was not asked for.  The
    inputs choose one of two forms:

    - the family has rows, and each basis is its operator's own spectrum
      or a diagonal basis of a diagonal operator: one ``family.rows``
      call over one ``SpectralCuts``, whose rows are weighted by the kept
      spectrum (a cut as ``split`` cuts it) or by the clamped diagonal in
      basis order (P X P is X's diagonal masked by P's), which holds the
      tails only when they are asked for, and where a state exists iff
      the cut's mass is positive.  On a diagonal basis
      the window counts every positive value of the diagonal, where the
      per-cell form drops those at or below the rank tolerance of their
      cut (see ``SpectralCuts``);
    - anything else, cell by cell: ``split`` on an operator's own
      spectrum, ``compress`` onto P or Pbar on any other basis, building
      only the sides asked for.  This form is the oracle of the other.
    """
    ns, cuts = list(ns), np.asarray(cuts, dtype=np.intp)
    normalized = np.broadcast_to(normalized, cuts.shape[1:])
    asked = np.array([heads, tails])
    own = [basis is op.spectrum() for op, basis in zip(ops, bases)]
    if family.rows is not None and all(mine or (op.is_diagonal and basis.diagonal)
                                       for mine, op, basis in zip(own, ops, bases)):
        weights = [basis.kept() if mine else op.diag[basis.basis] for mine, op, basis in zip(own, ops, bases)]
        window = SpectralCuts(bases, cuts, normalized, weights, tails)
        missing = ~asked[:window.sides, None, None] | (normalized & window.vanishing)
        values = np.where(missing, np.nan, family.rows(ns, window))
        return values if tails else np.concatenate([values, np.full_like(values, np.nan)])
    values = np.full((2,) + cuts.shape, np.nan)
    for j, (n, op, basis) in enumerate(zip(ns, ops, bases)):
        for i, k in enumerate(cuts[j].tolist()):
            if own[j]:
                parts = op.split(k)
            else:
                p = basis.projector(k)
                parts = (compress(op, p) if heads else None, compress(op, p.complement()) if tails else None)
            for side in np.flatnonzero(asked):
                part = parts[side]
                values[side, j, i] = _state_value(family, n, part) if normalized[i] else float(family.value(n, part))
    return values


def _state_value(family: FunctionalFamily, n: int, op: PositiveOperator) -> float:
    """f_n([op]) as a float with +inf, or NaN when op vanishes and has no state."""
    state = normalize(op)
    return math.nan if state is None else float(family.value(n, state))


# ---------------------------------------------------------------------------
# LAA spot checks shared by the windowed procedures


def laa_check(family: FunctionalFamily, n: int, rho: DensityOperator,
              sigma: DensityOperator, p: float):
    """(a-side slack, b-side slack or None) of the weakened convexity bounds."""
    mix = rho.scale(p).add(sigma.scale(1.0 - p))
    return _laa_slacks(family, p, *(float(family.value(n, op)) for op in (mix, rho, sigma)))


def _laa_slacks(family: FunctionalFamily, p: float, f_mix: float, f_rho: float, f_sigma: float):
    """``laa_check`` from the values f_n(p rho + (1 - p) sigma), f_n(rho) and f_n(sigma); (None, None) if one is +inf."""
    if math.isinf(f_mix) or math.isinf(f_rho) or math.isinf(f_sigma):
        return None, None
    combo = p * f_rho + (1.0 - p) * f_sigma
    a_slack = f_mix - combo + family.a_f(p)
    b_slack = None
    if family.b_f is not None:
        b_slack = combo + family.b_f(p) - f_mix
    return a_slack, b_slack


def _whole_values(family: FunctionalFamily, ns, ops) -> list:
    """f_{ns[j]}(ops[j]) for every j, as floats with +inf: the heads of ``_cut_values`` with each operator cut at its rank."""
    spectra = [op.spectrum() for op in ops]
    cuts = [[spec.rank] for spec in spectra]
    return _cut_values(family, ns, ops, spectra, cuts, normalized=False, tails=False)[0, :, 0].tolist()


# ---------------------------------------------------------------------------
# Dominated-convergence procedures


def check_dct_basic(f: FunctionalFamily, g: FunctionalFamily, seq: OperatorSequence,
                    n_max: int, m_max: int) -> Verdict:
    """Domination |g_n| <= f_n on the window plus the residual implication.

    Verifies domination on window members and their truncations, spot-checks
    the LAA bounds for both families, and reports whether shrinking residuals
    of f imply shrinking residuals of g.  Per family, the samples [rho_n]
    and [Psi_m(rho_n)] and f_n(rho_n), read off an unnormalized last
    column, are one truncation window, and the LAA values f_n([rho_0]) one
    ``_whole_values`` call.  Only the LAA mixtures are evaluated one by
    one: read through rows, each dense mixture would need an ``eigh`` of
    its own basis, and on ``choi-rank-bound`` that costs more eigensolves
    than the ``value`` calls it replaces.
    """
    ns = range(n_max + 1)
    ms = sorted({1, max(1, m_max // 2), m_max})
    base = normalize(seq(0))
    laa_ns = list(ns[1:]) if base is not None else []

    def evaluate(fam):
        # samples[n, i]: f_n([Psi_m(rho_n)]) at the i-th m, then f_n([rho_n]), then f_n(rho_n); NaN where there is no state
        samples = _spectral_window(fam, seq, ns, ms + [seq.dim] * 2, np.arange(len(ms) + 2) <= len(ms))[2]
        at_base = _whole_values(fam, laa_ns, [base] * len(laa_ns)) if laa_ns else []
        return samples[:, :-1], samples[:, -1].tolist(), at_base

    (f_samples, f_vals, f_base), (g_samples, g_vals, g_base) = evaluate(f), evaluate(g)
    # |g| = +inf at a finite f fails without a slack; a sample without a state or with f = +inf is no case
    domination = ((None if math.isinf(g_samples[n, i]) else f_samples[n, i] - abs(g_samples[n, i]),
                   f"rho_{n}" if i == len(ms) else f"[Psi_{ms[i]}(rho_{n})]")
                  for n in ns for i in (len(ms), *range(len(ms))) if math.isfinite(f_samples[n, i]))

    def laa_cases():
        for i, n in enumerate(laa_ns):
            state = normalize(seq(n))
            if state is None:
                continue
            mix = state.scale(0.5).add(base.scale(0.5))
            for fam, samples, at_base, tag in ((f, f_samples, f_base, "f"), (g, g_samples, g_base, "g")):
                slacks = _laa_slacks(fam, 0.5, float(fam.value(n, mix)), samples[n, -1], at_base[i])
                yield from ((slack, side, tag, n) for side, slack in zip("ab", slacks) if slack is not None)

    inf_in_f = any(math.isinf(v) for v in f_vals)
    inf_in_g = any(math.isinf(v) for v in g_vals)
    trends = []
    if not inf_in_f:
        trends.append(_limit_trend("|f_n(rho_n) - f_0(rho_0)|", f_vals))
    if not inf_in_g:
        trends.append(_limit_trend("|g_n(rho_n) - g_0(rho_0)|", g_vals))
    checks = [
        inequality_check("|g_n| <= f_n on window and truncations", domination,
                         lambda slack, at: f"|g| infinite with finite f at {at}" if slack is None
                         else f"|g| > f by {-slack:.3e} at {at}"),
        inequality_check("LAA bounds for f and g", laa_cases(),
                         lambda slack, side, tag, n: f"LAA {side}-side fails for {tag} at n = {n} by {-slack:.3e}"),
        CheckResult("f values finite on window", not inf_in_f, 0.0,
                     "" if not inf_in_f else "f hit +inf on the window"),
    ]
    if inf_in_g:
        checks.append(CheckResult("g values finite on window", False, detail="g hit +inf on the window"))
    if np.isinf(f_samples).any():
        checks.append(CheckResult("f finite on the samples [rho_n] and [Psi_m(rho_n)]", False,
                                  detail="f hit +inf on a sample"))
    return Verdict(name="dct-basic", hypothesis_checks=tuple(checks), conclusion_trends=tuple(trends))


def check_dct_simon(f: FunctionalFamily, rho_seq: OperatorSequence, tau_seq: OperatorSequence,
                    c: float, n_max: int, m_max: int) -> Verdict:
    """Dominated convergence with c rho_n <= tau_n and the A-bound conclusion.

    The windowed surrogate A of limsup f_n(tau_n) - f_0(tau_0) must control
    the conclusion residuals through A/c + G_c(A); per-cell truncation
    inequalities are asserted as genuine inequality checks.  c > 0.
    """
    check_positive("c", c)
    domination = _broken_orderings(range(n_max + 1), (rho_seq, tau_seq, c, "c*rho_n <= tau_n"))
    g_c = g_c_linear(c)
    tau_vals = [f.value(n, tau_seq(n)) for n in range(n_max + 1)]
    rho_vals = [f.value(n, rho_seq(n)) for n in range(n_max + 1)]
    inf_tau = any(v.is_inf for v in tau_vals)
    inf_rho = any(v.is_inf for v in rho_vals)
    checks = [CheckResult("f_0(tau_0) finite", not tau_vals[0].is_inf, 0.0)]
    trends = []
    values = {}
    if not inf_tau:
        a_window = max(0.0, windowed_sup([float(v) - float(tau_vals[0]) for v in tau_vals[1:]], n_max))
        values["A_window"] = a_window
        values["conclusion_bound"] = a_window / c + g_c(a_window)
        trends.append(_limit_trend("|f_n(tau_n) - f_0(tau_0)|", tau_vals))
        if not inf_rho:
            # reported for inspection only: on a finite window the surrogate
            # A can undershoot the limsup it stands in for, so the bound does
            # not gate the status
            values["conclusion_window"] = windowed_sup(
                [float(v) - float(rho_vals[0]) for v in rho_vals[1:]], n_max)
    if not inf_rho:
        trends.append(_limit_trend("|f_n(rho_n) - f_0(rho_0)|", rho_vals))
    checks.append(inequality_check("per-cell truncation lower bound", (
        (truncation_lower_bound_slack(f, seq, ApproximationScheme("spectral"), n_max, m_max),) for seq in (tau_seq, rho_seq))))
    checks.extend(domination)
    if inf_rho or any(v.is_inf for v in tau_vals[1:]):
        checks.append(CheckResult("f finite on rho_n and on tau_n for n >= 1", False,
                                  detail="f hit +inf on the window"))
    return Verdict(name="dct-simon", hypothesis_checks=tuple(checks), conclusion_trends=tuple(trends), values=values)


def check_convex_mixture(f: FunctionalFamily, rho_seq: OperatorSequence, sigma_seq: OperatorSequence,
                         p_seq, n_max: int, m_max: int) -> Verdict:
    """Mixture convergence from the two marginal convergences.

    Requires a nonempty intersection of the limit stable index sets within
    the window and checks the truncated-mixture convergences there.
    """
    p = mixture_weights(p_seq, n_max)
    rho_vals = [f.value(n, rho_seq(n)) for n in range(n_max + 1)]
    sigma_vals = [f.value(n, sigma_seq(n)) for n in range(n_max + 1)]
    inf_hyp = any(v.is_inf for v in rho_vals + sigma_vals)
    trends = []
    if not inf_hyp:
        trends.append(_limit_trend("|f_n(rho_n) - f_0(rho_0)|", rho_vals))
        trends.append(_limit_trend("|f_n(sigma_n) - f_0(sigma_0)|", sigma_vals))
    stable = sorted(set(stable_index_set(rho_seq(0), m_max)) & set(stable_index_set(sigma_seq(0), m_max)))
    checks = [
        CheckResult("hypothesis values finite", not inf_hyp, 0.0),
        CheckResult("stable index sets intersect within window", bool(stable), float(len(stable)),
                     "" if stable else "no shared stable index"),
    ]
    for m in stable[-3:]:
        vals = _finite_values(f, n_max, lambda n: _mixture(
            normalize(spectral_truncation(rho_seq(n), m).head),
            normalize(spectral_truncation(sigma_seq(n), m).head), p[n]))
        if vals is not None and len(vals) > 1:
            trends.append(_limit_trend(f"truncated-mixture residual, m = {m}", vals))
    mix_vals = _finite_values(f, n_max, lambda n: _mixture(rho_seq(n), sigma_seq(n), p[n]))
    if mix_vals is not None:
        trends.append(_limit_trend("|f_n(p_n rho_n + (1-p_n) sigma_n) - f_0(...)|", mix_vals))
    else:
        checks.append(CheckResult("mixture values finite", False, detail="f hit +inf on a mixture"))
    return Verdict(
        name="convex-mixture",
        hypothesis_checks=tuple(checks),
        conclusion_trends=tuple(trends),
        notes=("the shared stable index condition is checked only within the finite window",),
    )


def mixture_weights(p_seq, n_max: int) -> list:
    """The mixture weights p_seq as floats; ValueError unless p_0..p_n_max are given and all are numbers in [0, 1].

    A bool or a string is not a number here, though ``float`` would read one.
    """
    try:
        if any(isinstance(x, (bool, str)) for x in p_seq):
            raise TypeError
        p = [float(x) for x in p_seq]
    except (TypeError, ValueError):
        raise ValueError(f"the mixture weights must be a list of numbers, got {p_seq!r}") from None
    if len(p) < n_max + 1:
        raise ValueError(f"the mixture weights need {n_max + 1} entries, got {len(p)}")
    outside = [x for x in p if not 0.0 <= x <= 1.0]
    if outside:
        raise ValueError(f"mixture weight {outside[0]!r} lies outside [0, 1]")
    return p


def _mixture(rho, sigma, p: float):
    """p rho + (1 - p) sigma, or None when either state is missing."""
    if rho is None or sigma is None:
        return None
    return rho.scale(p).add(sigma.scale(1.0 - p))


def _finite_values(f: FunctionalFamily, n_max: int, op_at):
    """f_n(op_at(n)) for n = 0..n_max, or None from the first missing operator or +inf value on."""
    vals = []
    for n in range(n_max + 1):
        op = op_at(n)
        if op is None:
            return None
        val = f.value(n, op)
        if val.is_inf:
            return None
        vals.append(val)
    return vals


def truncation_criterion(family: FunctionalFamily, seq: OperatorSequence,
                         schedule: ProjectorSchedule, n_0: int, n_max: int, m_max: int) -> Verdict:
    """Head-convergence residuals and tail sups over a projector schedule.

    Consistent iff the schedule passes its four hard checks, head residuals
    shrink for each m, and the tail sups sup_{n >= n_0} f~_n(Pbar rho_n Pbar)
    decrease toward zero across the m-window.  The hard checks
    (``schedule_checks``: rank, mass, nesting, coverage) run on the
    schedule's own full m-window (its coverage condition lives there),
    independently of the m-window scanned for tails.  The probe-residual
    trend of P^n_m toward P^0_m does not gate the criterion; only
    ``validate_schedule`` reports it.  "finite values on window" reads the
    values the criterion uses: every head, and the tails from n_0 on.
    """
    if n_max > schedule.n_max:
        raise ValueError(f"n_max = {n_max} is past the schedule's n_max = {schedule.n_max}")
    if not 0 <= n_0 <= n_max:
        raise ValueError(f"n_0 = {n_0} is outside the window 0 <= n <= n_max = {n_max}")
    sched_violated = not all(c.passed for c in schedule_checks(schedule, seq, n_max=n_max))
    m_range = range(schedule.m_0, min(m_max, schedule.m_max) + 1)
    ns = range(n_max + 1)
    # f_n(P rho_n P) and f_n(Pbar rho_n Pbar), each (N, M) along m_range
    values = _cut_values(family, ns, [seq(n) for n in ns], schedule.bases[:len(ns)],
                         schedule.cuts[:len(ns), :len(m_range)], normalized=False)
    heads, tail_rows = values
    # the tail sups read only n >= n_0
    saw_inf = bool(np.isinf(heads).any() or np.isinf(tail_rows[n_0:]).any())
    trends = [_limit_trend(f"head residual, m = {m}", head_vals) for m, head_vals in zip(m_range, heads.T.tolist())
              if not any(math.isinf(v) for v in head_vals)]
    tails = np.max(tail_rows[n_0:], axis=0).tolist()
    trends.append(TrendSummary.from_residuals("tail sup over m", tails))
    tail_vanishes = shrinks_toward_zero(tails)
    checks = (
        CheckResult("schedule consistency", not sched_violated, 0.0,
                     "schedule failed validation" if sched_violated else "", INEQUALITY),
        CheckResult("finite values on window", not saw_inf, 0.0),
        CheckResult("tail sup decreases toward zero over m", tail_vanishes,
                     float(tails[-1]) if tails else 0.0),
    )
    return Verdict(
        name="truncation-criterion",
        hypothesis_checks=checks,
        conclusion_trends=tuple(trends),
        values={"tail_sup_per_m": tails},
    )


# ---------------------------------------------------------------------------
# Relative-entropy procedures


def relative_entropy_domination(rho1: OperatorSequence, rho2: OperatorSequence,
                                sigma1: OperatorSequence, sigma2: OperatorSequence,
                                c_rho: float = 1.0, c_sigma: float = 1.0,
                                n_max: int = 12) -> Verdict:
    """Convergence of D(rho2_n||sigma2_n) dominated by D(rho1_n||sigma1_n).

    Requires c_rho rho2_n <= rho1_n and c_sigma sigma1_n <= sigma2_n, with
    c_rho, c_sigma > 0; where one fails at some n >= 1 the verdict is
    inconclusive at once, with the failed check.  At the declared limit n = 0 they are only reported, so
    that an inconsistent limit can be detected as a violation.  Each
    ordering is decided over the whole window in one call, and each list
    of relative entropies comes from one ``relative_entropy_pairs`` call.
    """
    check_positive("c_rho", c_rho)
    check_positive("c_sigma", c_sigma)
    ns = range(n_max + 1)
    orderings = [(label, *ordering_slacks([upper(n) for n in ns], [lower(n) for n in ns], c)) for lower, upper, c, label
                 in ((rho2, rho1, c_rho, "c_rho*rho2_n <= rho1_n"), (sigma1, sigma2, c_sigma, "c_sigma*sigma1_n <= sigma2_n"))]
    limit_ok = all(passes[0] for _, passes, _ in orderings)
    limit_check = CheckResult("orderings hold at the declared limit", limit_ok, 0.0,
                              "" if limit_ok else "declared limit breaks an ordering", NOTE)
    broken = tuple(check for label, passes, lam_min in orderings
                   if (check := _first_break(label, ns[1:], passes[1:], lam_min[1:])))
    if broken:
        return Verdict("relative-entropy-domination", hypothesis_checks=(limit_check, *broken))
    hyp_vals = relative_entropy_pairs([rho1(n) for n in ns], [sigma1(n) for n in ns]).tolist()
    con_vals = relative_entropy_pairs([rho2(n) for n in ns], [sigma2(n) for n in ns]).tolist()
    inf_hyp = math.inf in hyp_vals
    checks = [limit_check, CheckResult("hypothesis D(rho1_n||sigma1_n) finite", not inf_hyp, 0.0)]
    trends = []
    values = {"hypothesis": hyp_vals, "conclusion": con_vals}
    if not inf_hyp:
        hyp_trend = _limit_trend("|D(rho1_n||sigma1_n) - D(rho1_0||sigma1_0)|", hyp_vals)
        trends.append(hyp_trend)
        if math.inf in con_vals:
            # the guarantee needs the hypothesis to converge
            checks.append(CheckResult(
                "conclusion finite where domination guarantees it", False, 0.0,
                f"D(rho2_n||sigma2_n) = +inf at n = {con_vals.index(math.inf)}",
                INEQUALITY if hyp_trend.shrinks else HYPOTHESIS))
        else:
            trends.append(_limit_trend("|D(rho2_n||sigma2_n) - D(rho2_0||sigma2_0)|", con_vals))
    return Verdict("relative-entropy-domination",
                   hypothesis_checks=tuple(checks), conclusion_trends=tuple(trends), values=values)


def relative_entropy_sum(rho_seq: OperatorSequence, sigma_seq: OperatorSequence,
                         omega_seq: OperatorSequence, n_max: int = 12,
                         theta_seq: OperatorSequence | None = None) -> Verdict:
    """Convergence of D(rho_n + sigma_n || omega_n) from the two marginals.

    Per-n sum inequalities are asserted as genuine checks; with theta_seq the
    shifted variant D(rho_n + sigma_n || omega_n + theta_n) is also tracked
    with D(sigma_n || theta_n) as its second hypothesis.  Each list of
    relative entropies comes from one ``relative_entropy_pairs`` call, and
    rho_n + sigma_n is built once per n.
    """
    ns = range(n_max + 1)
    rhos, sigmas, omegas = ([seq(n) for n in ns] for seq in (rho_seq, sigma_seq, omega_seq))
    sums = [rho.add(sigma) for rho, sigma in zip(rhos, sigmas)]
    d_rho, d_sigma, d_sum = (relative_entropy_pairs(ops, omegas).tolist() for ops in (rhos, sigmas, sums))
    inf_hyp = math.inf in d_rho or math.inf in d_sigma

    def sum_cases():
        for n in ns:
            if math.inf not in (d_rho[n], d_sigma[n], d_sum[n]):
                lower = d_rho[n] + d_sigma[n] - omegas[n].trace()
                upper = lower + binary_entropy_extension(rhos[n].trace(), sigmas[n].trace())
                yield from ((d_sum[n] - lower, "lower", n), (upper - d_sum[n], "upper", n))

    checks = [
        CheckResult("hypothesis values finite", not inf_hyp, 0.0),
        inequality_check("per-n sum inequalities", sum_cases(),
                         lambda slack, tag, n: f"sum {tag} bound fails at n = {n} by {-slack:.3e}"),
    ]
    trends = []
    values = {"conclusion": d_sum}
    if not inf_hyp:
        trends.append(_limit_trend("|D(rho_n||omega_n) - D(rho_0||omega_0)|", d_rho))
        trends.append(_limit_trend("|D(sigma_n||omega_n) - D(sigma_0||omega_0)|", d_sigma))
    inf_sum = math.inf in d_sum
    if not inf_sum:
        trends.append(_limit_trend("|D(rho_n+sigma_n||omega_n) - D(rho_0+sigma_0||omega_0)|", d_sum))
    if theta_seq is not None:
        thetas = [theta_seq(n) for n in ns]
        d_theta = relative_entropy_pairs(sigmas, thetas).tolist()
        d_shift = relative_entropy_pairs(sums, [omega.add(theta) for omega, theta in zip(omegas, thetas)]).tolist()
        values["shifted_conclusion"] = d_shift
        if math.inf not in d_theta:
            trends.append(_limit_trend("|D(sigma_n||theta_n) - D(sigma_0||theta_0)|", d_theta))
        else:
            checks.append(CheckResult("hypothesis D(sigma_n||theta_n) finite", False))
        if math.inf not in d_shift:
            trends.append(_limit_trend("|D(rho_n+sigma_n||omega_n+theta_n) - D(...limit...)|", d_shift))
        else:
            inf_sum = True
    # supp(rho_n + sigma_n) lies in supp omega_n when both marginals' supports do: only tolerance gets here
    if inf_sum and not inf_hyp:
        checks.append(CheckResult("conclusion values finite", False))
    return Verdict("relative-entropy-sum",
                   hypothesis_checks=tuple(checks), conclusion_trends=tuple(trends), values=values)


# ---------------------------------------------------------------------------
# Channel mutual information procedures


def channel_mi_checks(channel_seq: ChannelSequence, rho_seq: OperatorSequence,
                      sigma_seq: OperatorSequence, c: float, p_seq, n_max: int, m_max: int,
                      schedule: ProjectorSchedule | None = None) -> Verdict:
    """Domination, mixture and sufficient-condition checks for I(Phi_n, .).

    Bundles the dominated implication (c rho_n <= sigma_n, c > 0), the
    mixture conclusion for p_seq, the two entropy-based sufficient
    conditions, and an output-entropy tail check when a schedule is supplied.
    """
    check_positive("c", c)
    p = mixture_weights(p_seq, n_max)
    domination = _broken_orderings(range(n_max + 1), (rho_seq, sigma_seq, c, "c*rho_n <= sigma_n"))
    mi = channel_mi_family(channel_seq)
    ent = entropy_family()
    out_ent = output_entropy_family(channel_seq)
    ns = list(range(n_max + 1))
    rhos = [rho_seq(n) for n in ns]
    mi_vals = _whole_values(mi, ns + ns, [sigma_seq(n) for n in ns] + rhos)
    mi_sigma, mi_rho = mi_vals[:len(ns)], mi_vals[len(ns):]
    mix_vals = _whole_values(mi, ns, [_mixture(rho_seq(n), sigma_seq(n), p[n]) for n in ns])
    mi_trends = [
        _limit_trend("|I(Phi_n,sigma_n) - I(Phi_0,sigma_0)|", mi_sigma),
        _limit_trend("|I(Phi_n,rho_n) - I(Phi_0,rho_0)|", mi_rho),
        _limit_trend("|I(Phi_n,p_n rho_n + (1-p_n) sigma_n) - I(Phi_0,...)|", mix_vals),
    ]
    s_in = _whole_values(ent, ns, rhos)
    s_out = _whole_values(out_ent, ns, rhos)
    # the sufficient condition reads these trends through its check; they do not gate
    in_trend = _limit_trend("|S(rho_n) - S(rho_0)|", s_in, gates=False)
    out_trend = _limit_trend("|S(Phi_n(rho_n)) - S(Phi_0(rho_0))|", s_out, gates=False)
    trends = mi_trends + [in_trend, out_trend]
    checks = [
        CheckResult("entropy sufficient condition (inputs or outputs)",
                     in_trend.shrinks or out_trend.shrinks, 0.0),
    ]
    if schedule is not None:
        m_count = len(range(schedule.m_0, min(m_max, schedule.m_max) + 1))
        window = _cut_values(out_ent, ns, rhos, schedule.bases[:len(ns)], schedule.cuts[:len(ns), :m_count],
                             normalized=False, heads=False)
        tails = np.max(window[1], axis=0).tolist()
        trends.append(TrendSummary.from_residuals("output-entropy tail sup over m", tails, gates=False))
        checks.append(CheckResult("output-entropy tail decreases toward zero over m",
                                  shrinks_toward_zero(tails), 0.0))
    checks.extend(domination)
    return Verdict("channel-mi", hypothesis_checks=tuple(checks), conclusion_trends=tuple(trends))


# ---------------------------------------------------------------------------
# Appendix: regularized-log domination


def appendix_domination(rho1: OperatorSequence, rho2: OperatorSequence,
                        sigma1: OperatorSequence, sigma2: OperatorSequence,
                        k_schedule, n_max: int = 12) -> Verdict:
    """Windowed A_1/Delta/A_2 bound plus per-(n, k) ladder comparisons.

    Where rho2_n <= rho1_n or sigma1_n <= sigma2_n fails at some n, or A_1
    hits +inf, inconclusive at once.  Else checks the monotone ladder
    difference inequality 0 <= a2_n - a2_{k,n} <= a1_n - a1_{k,n}, the
    windowed bound A_2 - a2_0 <= Delta, and the spectral identity
    Tr H rho = sum of H-quadratic forms over rho's eigenvectors.  Each
    ordering is decided over the whole window in one call, and a1_n and
    a2_n each come from one ``trace_neg_log_pairs`` call.
    """
    ns = range(n_max + 1)
    broken = _broken_orderings(ns, (rho2, rho1, 1.0, "rho2_n <= rho1_n"), (sigma1, sigma2, 1.0, "sigma1_n <= sigma2_n"))
    if broken:
        return Verdict("appendix-domination", hypothesis_checks=broken)
    a1 = trace_neg_log_pairs([rho1(n) for n in ns], [sigma1(n) for n in ns]).tolist()
    a2 = trace_neg_log_pairs([rho2(n) for n in ns], [sigma2(n) for n in ns]).tolist()
    inf_hyp = math.inf in a1
    checks = [CheckResult("A_1 values finite on window", not inf_hyp, 0.0)]
    if inf_hyp:
        return Verdict("appendix-domination", hypothesis_checks=tuple(checks))

    def ladder_cases():
        for n in ns:
            ks, a1_k = _ladder_values(rho1(n), sigma1(n), k_schedule)
            for k, b1, b2 in zip(ks, a1_k, _ladder_values(rho2(n), sigma2(n), k_schedule)[1]):
                yield a2[n] - b2, "0 <= a2_n - a2_(k,n)", n, k
                yield (a1[n] - b1) - (a2[n] - b2), "a2 difference <= a1 difference", n, k

    ladder = inequality_check("ladder difference comparisons", ladder_cases(),
                              lambda slack, tag, n, k: f"{tag} fails at (n, k) = ({n}, {k})")
    identity = inequality_check("Tr H rho equals the eigenvector quadratic-form sum",
                                _spectral_form_slacks(rho1, sigma1, n_max))
    # the appendix reports margins, least slack + INEQ_SLACK, as its golden reports pin them
    checks += [replace(check, slack=check.slack + INEQ_SLACK) for check in (ladder, identity)]
    a1_window = windowed_sup(a1[1:], n_max)
    delta = max(0.0, a1_window - a1[0])
    a2_window = windowed_sup(a2[1:], n_max)
    checks.append(CheckResult("windowed A_2 - a2_0 <= Delta", inequality_holds(delta - (a2_window - a2[0])),
                              delta + INEQ_SLACK - (a2_window - a2[0])))
    trends = (
        _limit_trend("|a1_n - a1_0|", a1),
        _limit_trend("|a2_n - a2_0|", a2),
    )
    return Verdict("appendix-domination",
                   hypothesis_checks=tuple(checks), conclusion_trends=trends,
                   values={"A_1": a1_window, "A_2": a2_window, "Delta": delta})


def _spectral_form_slacks(rho_seq: OperatorSequence, sigma_seq: OperatorSequence, n_max: int):
    """Per n, minus the error of Tr H rho = sum_i lambda_i <v_i|H|v_i> with H = ln(I + sigma^+), relative to |Tr H rho| above 1."""
    for n in range(n_max + 1):
        h = apply_spectral_function(moore_penrose_inverse(sigma_seq(n)), math.log1p)
        rho = rho_seq(n)
        if rho.is_diagonal and h.is_diagonal:
            direct = float(np.sum(rho.diag * h.diag))
        else:
            direct = float(np.real(np.trace(h.matrix @ rho.matrix)))
        spec = rho.spectrum()
        via_vectors = float(np.sum(spec.values * spec.weights(h)))
        yield (-(abs(direct - via_vectors) / max(1.0, abs(direct))),)


# ---------------------------------------------------------------------------
# Shared PSD guards


def _first_break(label: str, ns, passes, lam_min) -> CheckResult | None:
    """The failed hypothesis check of an ordering at the first n of ns where it breaks the PSD rule, or None."""
    if passes.all():
        return None
    i = int(np.argmin(passes))
    lam = float(lam_min[i])
    return CheckResult(f"PSD domination {label}", False, lam,
                       f"fails at n = {ns[i]}: most negative eigenvalue {lam:.3e}")


def _broken_orderings(ns, *orderings) -> tuple:
    """A failed hypothesis check per ordering (lower, upper, c, label) where c lower_n <= upper_n breaks the PSD rule at some n of ns.

    Each names the first such n; its slack is the most negative eigenvalue of upper_n - c lower_n there.
    """
    checks = (_first_break(label, ns, *ordering_slacks([upper(n) for n in ns], [lower(n) for n in ns], c))
              for lower, upper, c, label in orderings)
    return tuple(check for check in checks if check is not None)
