"""Convergence diagnostics over finite (n, m) windows.

Each procedure takes declared-limit sequences (index 0), evaluates an
entropic functional family across the window, and reports a Verdict: named
hypothesis checks with slacks, residual trends, and a status.  Genuine
inequality failures beyond tolerance are "violated"; unmet or infinite
hypotheses are "inconclusive"; trend-certified conclusions are at most
"consistent" and always carry trend_only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import Channel, ChannelSequence, channel_mutual_information, coherent_information
from .entropies import (
    binary_entropy,
    binary_entropy_extension,
    regularized_log_ladder,
    relative_entropy,
    trace_neg_log,
    von_neumann_entropy,
)
from .extreal import ExtendedReal
from .operators import (
    DensityOperator,
    HermitianOperator,
    PositiveOperator,
    apply_spectral_function,
    compress,
    default_rank_tol,
    moore_penrose_inverse,
)
from .truncation import (
    ApproximationScheme,
    OperatorSequence,
    ProjectorSchedule,
    normalize,
    spectral_truncation,
    stable_index_set,
    validate_schedule,
)
from .verdicts import (
    CONSISTENT,
    INCONCLUSIVE,
    VIOLATED,
    CheckResult,
    DiagnosticsGrid,
    GridCell,
    TrendSummary,
    Verdict,
    shrinks_toward_zero,
    windowed_sup,
)

INEQ_SLACK = 1e-8


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
    violations of the relative entropy), never an error.
    """

    __slots__ = ("kind", "label", "_value", "a_f", "b_f", "signed")

    def __init__(self, kind: str, label: str, value, a_f: ModulusFunction,
                 b_f: ModulusFunction | None = None, signed: bool = False):
        self.kind = kind
        self.label = label
        self._value = value
        self.a_f = a_f
        self.b_f = b_f
        self.signed = signed

    def value(self, n: int, op: PositiveOperator) -> ExtendedReal:
        return self._value(n, op)

    def __repr__(self):
        return f"<FunctionalFamily {self.kind} {self.label!r}>"


def _homogeneous(state_value):
    """Extend a state functional to the cone: f~(rho) = Tr rho * f([rho])."""

    def value(n, op):
        t = op.trace()
        if t <= default_rank_tol(op.dim, op.operator_norm()):
            return ExtendedReal(0.0)
        return state_value(n, normalize(op)) * t

    return value


def entropy_family() -> FunctionalFamily:
    return FunctionalFamily(
        "Entropy", "S",
        lambda n, op: von_neumann_entropy(op),
        a_f=ZERO_MODULUS, b_f=H2_MODULUS,
    )


def relative_entropy_family(sigma_seq: OperatorSequence, label: str = "D(.||sigma_n)") -> FunctionalFamily:
    return FunctionalFamily(
        "RelativeEntropyVsSequence", label,
        lambda n, op: relative_entropy(op, sigma_seq(n)),
        a_f=H2_MODULUS, b_f=ZERO_MODULUS,
    )


def trace_neg_log_family(sigma_seq: OperatorSequence, label: str = "Tr rho(-ln sigma_n)") -> FunctionalFamily:
    return FunctionalFamily(
        "TraceNegLogVsSequence", label,
        lambda n, op: trace_neg_log(op, sigma_seq(n)),
        a_f=ZERO_MODULUS, b_f=ZERO_MODULUS,
    )


def channel_mi_family(channel_seq: ChannelSequence, label: str = "I(Phi_n,.)") -> FunctionalFamily:
    return FunctionalFamily(
        "ChannelMI", label,
        _homogeneous(lambda n, state: channel_mutual_information(channel_seq(n), state)),
        a_f=ZERO_MODULUS, b_f=TWO_H2_MODULUS,
    )


def coherent_info_family(channel_seq: ChannelSequence, label: str = "Ic(Phi_n,.)") -> FunctionalFamily:
    return FunctionalFamily(
        "CoherentInfo", label,
        _homogeneous(lambda n, state: ExtendedReal(coherent_information(channel_seq(n), state))),
        a_f=H2_MODULUS, b_f=H2_MODULUS, signed=True,
    )


def output_entropy_family(channel_seq: ChannelSequence, label: str = "S(Phi_n(.))") -> FunctionalFamily:
    return FunctionalFamily(
        "OutputEntropy", label,
        lambda n, op: von_neumann_entropy(channel_seq(n).apply(op)),
        a_f=ZERO_MODULUS, b_f=H2_MODULUS,
    )


def _fv(x: ExtendedReal) -> float:
    return float(x)


# ---------------------------------------------------------------------------
# Approximation-gap grids


def approximation_gap_grid(family: FunctionalFamily, seq: OperatorSequence,
                           scheme: ApproximationScheme, n_max: int, m_max: int) -> DiagnosticsGrid:
    """Per-(n, m) masses mu, gaps f_n(rho_n) - f_n([Psi_m(rho_n)]) and tail terms.

    Cells where a value is +inf are flagged and kept; the grid is returned in
    full either way.
    """
    m_lo = scheme.m_floor(seq)
    cells = []
    for n in range(n_max + 1):
        rho = seq(n)
        f_rho = family.value(n, rho)
        for m in range(m_lo, m_max + 1):
            tr = scheme.truncate(seq, n, m)
            flags = []
            if tr.ambiguous:
                flags.append("ambiguous-m")
            head_state = normalize(tr.head)
            tail_state = normalize(tr.tail)
            if head_state is None:
                gap = _fv(f_rho)
            else:
                f_head = family.value(n, head_state)
                if f_rho.is_inf or f_head.is_inf:
                    gap = math.inf
                    flags.append("inf-gap")
                else:
                    gap = _fv(f_rho) - _fv(f_head)
            tail_mass = tr.tail.trace()
            if tail_state is None or tail_mass <= 0.0:
                tail = 0.0
            else:
                f_tail = family.value(n, tail_state)
                if f_tail.is_inf:
                    tail = math.inf
                    flags.append("inf-tail")
                else:
                    tail = tail_mass * _fv(f_tail)
            cells.append(GridCell(n, m, tr.mass, gap, tail, tuple(flags)))
    return DiagnosticsGrid(tuple(range(n_max + 1)), tuple(range(m_lo, m_max + 1)), tuple(cells))


def truncation_lower_bound_slack(family: FunctionalFamily, seq: OperatorSequence,
                    scheme: ApproximationScheme, n_max: int, m_max: int) -> float:
    """Worst slack of f_n(rho_n) >= mu f_n([Psi_m(rho_n)]) - a_f(1 - mu) per cell.

    mu is the truncated mass relative to Tr rho_n; cells with +inf values are
    skipped (the inequality presupposes finiteness).
    """
    m_lo = scheme.m_floor(seq)
    worst = math.inf
    for n in range(n_max + 1):
        rho = seq(n)
        t = rho.trace()
        f_rho = family.value(n, rho)
        if f_rho.is_inf:
            continue
        for m in range(m_lo, m_max + 1):
            tr = scheme.truncate(seq, n, m)
            head_state = normalize(tr.head)
            if head_state is None:
                continue
            f_head = family.value(n, head_state)
            if f_head.is_inf:
                continue
            mu = min(max(tr.mass / t, 0.0), 1.0)
            slack = _fv(f_rho) - mu * _fv(f_head) + family.a_f(1.0 - mu)
            worst = min(worst, slack)
    return worst


# ---------------------------------------------------------------------------
# LAA spot checks shared by the windowed procedures


def laa_check(family: FunctionalFamily, n: int, rho: DensityOperator,
              sigma: DensityOperator, p: float):
    """(a-side slack, b-side slack or None) of the weakened convexity bounds."""
    mix = rho.scale(p).add(sigma.scale(1.0 - p))
    f_mix = family.value(n, mix)
    f_rho = family.value(n, rho)
    f_sigma = family.value(n, sigma)
    if f_mix.is_inf or f_rho.is_inf or f_sigma.is_inf:
        return None, None
    combo = p * _fv(f_rho) + (1.0 - p) * _fv(f_sigma)
    a_slack = _fv(f_mix) - combo + family.a_f(p)
    b_slack = None
    if family.b_f is not None:
        b_slack = combo + family.b_f(p) - _fv(f_mix)
    return a_slack, b_slack


# ---------------------------------------------------------------------------
# Dominated-convergence procedures


def check_dct_basic(f: FunctionalFamily, g: FunctionalFamily, seq: OperatorSequence,
                    n_max: int, m_max: int) -> Verdict:
    """Domination |g_n| <= f_n on the window plus the residual implication.

    Verifies domination on window members and their truncations, spot-checks
    the LAA bounds for both families, and reports whether shrinking residuals
    of f imply shrinking residuals of g.
    """
    samples = []
    for n in range(n_max + 1):
        rho = seq(n)
        state = normalize(rho)
        if state is not None:
            samples.append((n, state, f"rho_{n}"))
        for m in sorted({1, max(1, m_max // 2), m_max}):
            head = normalize(spectral_truncation(rho, m).head)
            if head is not None:
                samples.append((n, head, f"[Psi_{m}(rho_{n})]"))
    dom_ok, dom_slack, dom_detail = True, math.inf, ""
    saw_inf = False
    for n, state, tag in samples:
        fv = f.value(n, state)
        gv = g.value(n, state)
        if fv.is_inf:
            saw_inf = True
            continue
        if gv.is_inf:
            dom_ok, dom_detail = False, f"|g| infinite with finite f at {tag}"
            continue
        slack = _fv(fv) - abs(_fv(gv))
        if slack < dom_slack:
            dom_slack = slack
        if slack < -INEQ_SLACK:
            dom_ok, dom_detail = False, f"|g| > f by {-slack:.3e} at {tag}"
    laa_ok, laa_slack, laa_detail = True, math.inf, ""
    base = normalize(seq(0))
    for n in range(1, n_max + 1):
        state = normalize(seq(n))
        if state is None or base is None:
            continue
        for fam, tag in ((f, "f"), (g, "g")):
            a_slack, b_slack = laa_check(fam, n, state, base, 0.5)
            for side, slack in (("a", a_slack), ("b", b_slack)):
                if slack is None:
                    continue
                if slack < laa_slack:
                    laa_slack = slack
                if slack < -INEQ_SLACK:
                    laa_ok, laa_detail = False, f"LAA {side}-side fails for {tag} at n = {n} by {-slack:.3e}"
    f_vals = [f.value(n, seq(n)) for n in range(n_max + 1)]
    g_vals = [g.value(n, seq(n)) for n in range(n_max + 1)]
    inf_in_f = any(v.is_inf for v in f_vals)
    inf_in_g = any(v.is_inf for v in g_vals)
    trends = []
    f_trend = g_trend = None
    if not inf_in_f:
        f_trend = TrendSummary.from_residuals(
            "|f_n(rho_n) - f_0(rho_0)|",
            [abs(_fv(v) - _fv(f_vals[0])) for v in f_vals[1:]])
        trends.append(f_trend)
    if not inf_in_g:
        g_trend = TrendSummary.from_residuals(
            "|g_n(rho_n) - g_0(rho_0)|",
            [abs(_fv(v) - _fv(g_vals[0])) for v in g_vals[1:]])
        trends.append(g_trend)
    checks = (
        CheckResult("|g_n| <= f_n on window and truncations", dom_ok, float(dom_slack), dom_detail),
        CheckResult("LAA bounds for f and g", laa_ok, float(laa_slack), laa_detail),
        CheckResult("f values finite on window", not inf_in_f, 0.0,
                     "" if not inf_in_f else "f hit +inf on the window"),
    )
    if not dom_ok or not laa_ok:
        status = VIOLATED
    elif inf_in_f or inf_in_g or saw_inf:
        status = INCONCLUSIVE
    elif f_trend is not None and f_trend.shrinks and g_trend is not None and g_trend.shrinks:
        status = CONSISTENT
    else:
        status = INCONCLUSIVE
    return Verdict(
        name="dct-basic",
        status=status,
        hypothesis_checks=checks,
        conclusion_trends=tuple(trends),
        trend_only=True,
    )


def check_dct_simon(f: FunctionalFamily, rho_seq: OperatorSequence, tau_seq: OperatorSequence,
                    c: float, n_max: int, m_max: int) -> Verdict:
    """Dominated convergence with c rho_n <= tau_n and the A-bound conclusion.

    The windowed surrogate A of limsup f_n(tau_n) - f_0(tau_0) must control
    the conclusion residuals through A/c + G_c(A); per-cell truncation
    inequalities are asserted as genuine inequality checks.
    """
    _require_psd_domination(rho_seq, tau_seq, c, n_max, "c*rho_n <= tau_n")
    g_c = g_c_linear(c)
    tau_vals = [f.value(n, tau_seq(n)) for n in range(n_max + 1)]
    rho_vals = [f.value(n, rho_seq(n)) for n in range(n_max + 1)]
    inf_tau = any(v.is_inf for v in tau_vals)
    inf_rho = any(v.is_inf for v in rho_vals)
    checks = [CheckResult("f_0(tau_0) finite", not tau_vals[0].is_inf, 0.0)]
    trends = []
    values = {}
    if not inf_tau:
        a_window = max(0.0, windowed_sup([_fv(v) - _fv(tau_vals[0]) for v in tau_vals[1:]], n_max))
        values["A_window"] = a_window
        values["conclusion_bound"] = a_window / c + g_c(a_window)
        trends.append(TrendSummary.from_residuals(
            "|f_n(tau_n) - f_0(tau_0)|",
            [abs(_fv(v) - _fv(tau_vals[0])) for v in tau_vals[1:]]))
        if not inf_rho:
            # reported for inspection only: on a finite window the surrogate
            # A can undershoot the limsup it stands in for, so the bound does
            # not gate the status
            values["conclusion_window"] = windowed_sup(
                [_fv(v) - _fv(rho_vals[0]) for v in rho_vals[1:]], n_max)
    if not inf_rho:
        trends.append(TrendSummary.from_residuals(
            "|f_n(rho_n) - f_0(rho_0)|",
            [abs(_fv(v) - _fv(rho_vals[0])) for v in rho_vals[1:]]))
    slack = min(
        truncation_lower_bound_slack(f, tau_seq, ApproximationScheme("spectral"), n_max, m_max),
        truncation_lower_bound_slack(f, rho_seq, ApproximationScheme("spectral"), n_max, m_max),
    )
    cell_bound_ok = slack >= -INEQ_SLACK
    checks.append(CheckResult("per-cell truncation lower bound", cell_bound_ok, float(slack)))
    if not cell_bound_ok:
        status = VIOLATED
    elif inf_tau or inf_rho or tau_vals[0].is_inf:
        status = INCONCLUSIVE
    elif trends and all(t.shrinks for t in trends):
        status = CONSISTENT
    else:
        status = INCONCLUSIVE
    return Verdict(
        name="dct-simon",
        status=status,
        hypothesis_checks=tuple(checks),
        conclusion_trends=tuple(trends),
        trend_only=True,
        values=values,
    )


def check_convex_mixture(f: FunctionalFamily, rho_seq: OperatorSequence, sigma_seq: OperatorSequence,
                         p_seq, n_max: int, m_max: int) -> Verdict:
    """Mixture convergence from the two marginal convergences.

    Requires a nonempty intersection of the limit stable index sets within
    the window and checks the truncated-mixture convergences there.
    """
    p = [float(x) for x in p_seq]
    if len(p) < n_max + 1:
        raise ValueError(f"p_seq must supply {n_max + 1} entries, got {len(p)}")
    if any(not 0.0 <= x <= 1.0 for x in p):
        raise ValueError("p_seq entries must lie in [0, 1]")
    rho_vals = [f.value(n, rho_seq(n)) for n in range(n_max + 1)]
    sigma_vals = [f.value(n, sigma_seq(n)) for n in range(n_max + 1)]
    inf_hyp = any(v.is_inf for v in rho_vals + sigma_vals)
    trends = []
    if not inf_hyp:
        trends.append(TrendSummary.from_residuals(
            "|f_n(rho_n) - f_0(rho_0)|",
            [abs(_fv(v) - _fv(rho_vals[0])) for v in rho_vals[1:]]))
        trends.append(TrendSummary.from_residuals(
            "|f_n(sigma_n) - f_0(sigma_0)|",
            [abs(_fv(v) - _fv(sigma_vals[0])) for v in sigma_vals[1:]]))
    hyp_trends_ok = bool(trends) and all(t.shrinks for t in trends)
    stable = sorted(set(stable_index_set(rho_seq(0), m_max)) & set(stable_index_set(sigma_seq(0), m_max)))
    checks = [
        CheckResult("hypothesis values finite", not inf_hyp, 0.0),
        CheckResult("stable index sets intersect within window", bool(stable), float(len(stable)),
                     "" if stable else "no shared stable index"),
    ]
    sumrel_trends = []
    for m in stable[-3:]:
        residuals = []
        ok = True
        ref = None
        for n in range(n_max + 1):
            head_rho = normalize(spectral_truncation(rho_seq(n), m).head)
            head_sigma = normalize(spectral_truncation(sigma_seq(n), m).head)
            if head_rho is None or head_sigma is None:
                ok = False
                break
            val = f.value(n, head_rho.scale(p[n]).add(head_sigma.scale(1.0 - p[n])))
            if val.is_inf:
                ok = False
                break
            if n == 0:
                ref = _fv(val)
            else:
                residuals.append(abs(_fv(val) - ref))
        if ok and residuals:
            sumrel_trends.append(TrendSummary.from_residuals(
                f"truncated-mixture residual, m = {m}", residuals))
    trends.extend(sumrel_trends)
    mix_residuals = []
    mix_ref = None
    mix_inf = False
    for n in range(n_max + 1):
        mix = rho_seq(n).scale(p[n]).add(sigma_seq(n).scale(1.0 - p[n]))
        val = f.value(n, mix)
        if val.is_inf:
            mix_inf = True
            break
        if n == 0:
            mix_ref = _fv(val)
        else:
            mix_residuals.append(abs(_fv(val) - mix_ref))
    mix_trend = None
    if not mix_inf:
        mix_trend = TrendSummary.from_residuals(
            "|f_n(p_n rho_n + (1-p_n) sigma_n) - f_0(...)|", mix_residuals)
        trends.append(mix_trend)
    if inf_hyp or not hyp_trends_ok or not stable:
        status = INCONCLUSIVE
    elif mix_trend is not None and mix_trend.shrinks and all(t.shrinks for t in sumrel_trends):
        status = CONSISTENT
    else:
        status = INCONCLUSIVE
    return Verdict(
        name="convex-mixture",
        status=status,
        hypothesis_checks=tuple(checks),
        conclusion_trends=tuple(trends),
        trend_only=True,
        notes=("the shared stable index condition is checked only within the finite window",),
    )


def truncation_criterion(family: FunctionalFamily, seq: OperatorSequence,
                         schedule: ProjectorSchedule, n_0: int, n_max: int, m_max: int) -> Verdict:
    """Head-convergence residuals and tail sups over a projector schedule.

    Consistent iff the schedule validates, head residuals shrink for each m,
    and the tail sups sup_{n >= n_0} f~_n(Pbar rho_n Pbar) decrease toward
    zero across the m-window.  The schedule is validated on its own full
    m-window (its coverage condition lives there), independently of the
    m-window scanned for tails.
    """
    sched_verdict = validate_schedule(schedule, seq, n_max=n_max)
    m_hi = min(m_max, schedule.m_max)
    trends = []
    tails = []
    head_ok = True
    saw_inf = False
    for m in range(schedule.m_0, m_hi + 1):
        head_vals = []
        tail_vals = []
        for n in range(n_max + 1):
            rho = seq(n)
            p = schedule.projector(n, m)
            hv = family.value(n, compress(rho, p))
            tv = family.value(n, compress(rho, p.complement()))
            if hv.is_inf or tv.is_inf:
                saw_inf = True
            head_vals.append(hv)
            tail_vals.append(tv)
        if not any(v.is_inf for v in head_vals):
            trend = TrendSummary.from_residuals(
                f"head residual, m = {m}",
                [abs(_fv(v) - _fv(head_vals[0])) for v in head_vals[1:]])
            trends.append(trend)
            head_ok = head_ok and trend.shrinks
        else:
            head_ok = False
        window = [v for n, v in enumerate(tail_vals) if n >= n_0]
        tails.append(math.inf if any(v.is_inf for v in window) else max(_fv(v) for v in window))
    tail_trend = TrendSummary.from_residuals("tail sup over m", tails)
    trends.append(tail_trend)
    tail_vanishes = shrinks_toward_zero(tails)
    checks = (
        CheckResult("schedule consistency", sched_verdict.status != VIOLATED, 0.0,
                     "" if sched_verdict.status != VIOLATED else "schedule failed validation"),
        CheckResult("finite values on window", not saw_inf, 0.0),
        CheckResult("tail sup decreases toward zero over m", tail_vanishes,
                     float(tails[-1]) if tails else 0.0),
    )
    if sched_verdict.status == VIOLATED:
        status = VIOLATED
    elif saw_inf or not head_ok or not tail_vanishes:
        status = INCONCLUSIVE
    else:
        status = CONSISTENT
    return Verdict(
        name="truncation-criterion",
        status=status,
        hypothesis_checks=checks,
        conclusion_trends=tuple(trends),
        trend_only=True,
        values={"tail_sup_per_m": tails},
    )


# ---------------------------------------------------------------------------
# Relative-entropy procedures


def relative_entropy_domination(rho1: OperatorSequence, rho2: OperatorSequence,
                                sigma1: OperatorSequence, sigma2: OperatorSequence,
                                c_rho: float = 1.0, c_sigma: float = 1.0,
                                n_max: int = 12) -> Verdict:
    """Convergence of D(rho2_n||sigma2_n) dominated by D(rho1_n||sigma1_n).

    Requires c_rho rho2_n <= rho1_n and c_sigma sigma1_n <= sigma2_n; these
    orderings are enforced on n >= 1 and only reported at the declared limit
    n = 0, so that a deliberately inconsistent limit can be detected as a
    violation instead of an input error.
    """
    for n in range(1, n_max + 1):
        _psd_or_raise(rho1(n).sub(rho2(n).scale(c_rho)), f"c_rho*rho2_n <= rho1_n at n = {n}")
        _psd_or_raise(sigma2(n).sub(sigma1(n).scale(c_sigma)), f"c_sigma*sigma1_n <= sigma2_n at n = {n}")
    limit_rho_ok = _is_psd(rho1(0).sub(rho2(0).scale(c_rho)))
    limit_sigma_ok = _is_psd(sigma2(0).sub(sigma1(0).scale(c_sigma)))
    hyp_vals = [relative_entropy(rho1(n), sigma1(n)) for n in range(n_max + 1)]
    con_vals = [relative_entropy(rho2(n), sigma2(n)) for n in range(n_max + 1)]
    inf_hyp = any(v.is_inf for v in hyp_vals)
    checks = [
        CheckResult("orderings hold at the declared limit", limit_rho_ok and limit_sigma_ok, 0.0,
                     "" if limit_rho_ok and limit_sigma_ok else "declared limit breaks an ordering"),
        CheckResult("hypothesis D(rho1_n||sigma1_n) finite", not inf_hyp, 0.0),
    ]
    trends = []
    values = {
        "hypothesis": [(_fv(v) if not v.is_inf else math.inf) for v in hyp_vals],
        "conclusion": [(_fv(v) if not v.is_inf else math.inf) for v in con_vals],
    }
    if inf_hyp:
        return Verdict("relative-entropy-domination", INCONCLUSIVE,
                       hypothesis_checks=tuple(checks), trend_only=True, values=values)
    trends.append(TrendSummary.from_residuals(
        "|D(rho1_n||sigma1_n) - D(rho1_0||sigma1_0)|",
        [abs(_fv(v) - _fv(hyp_vals[0])) for v in hyp_vals[1:]]))
    hyp_ok = trends[0].shrinks
    inf_cells = [n for n, v in enumerate(con_vals) if v.is_inf]
    if inf_cells:
        checks.append(CheckResult(
            "conclusion finite where domination guarantees it", False, 0.0,
            f"D(rho2_n||sigma2_n) = +inf at n = {inf_cells[0]}"))
        status = VIOLATED if hyp_ok else INCONCLUSIVE
        return Verdict("relative-entropy-domination", status,
                       hypothesis_checks=tuple(checks), conclusion_trends=tuple(trends),
                       trend_only=True, values=values)
    con_trend = TrendSummary.from_residuals(
        "|D(rho2_n||sigma2_n) - D(rho2_0||sigma2_0)|",
        [abs(_fv(v) - _fv(con_vals[0])) for v in con_vals[1:]])
    trends.append(con_trend)
    status = CONSISTENT if hyp_ok and con_trend.shrinks else INCONCLUSIVE
    return Verdict("relative-entropy-domination", status,
                   hypothesis_checks=tuple(checks), conclusion_trends=tuple(trends),
                   trend_only=True, values=values)


def relative_entropy_sum(rho_seq: OperatorSequence, sigma_seq: OperatorSequence,
                         omega_seq: OperatorSequence, n_max: int = 12,
                         theta_seq: OperatorSequence | None = None) -> Verdict:
    """Convergence of D(rho_n + sigma_n || omega_n) from the two marginals.

    Per-n sum inequalities are asserted as genuine checks; with theta_seq the
    shifted variant D(rho_n + sigma_n || omega_n + theta_n) is also tracked
    with D(sigma_n || theta_n) as its second hypothesis.
    """
    d_rho = [relative_entropy(rho_seq(n), omega_seq(n)) for n in range(n_max + 1)]
    d_sigma = [relative_entropy(sigma_seq(n), omega_seq(n)) for n in range(n_max + 1)]
    d_sum = [relative_entropy(rho_seq(n).add(sigma_seq(n)), omega_seq(n)) for n in range(n_max + 1)]
    inf_hyp = any(v.is_inf for v in d_rho + d_sigma)
    guard_ok, guard_slack, guard_detail = True, math.inf, ""
    for n in range(n_max + 1):
        if d_rho[n].is_inf or d_sigma[n].is_inf or d_sum[n].is_inf:
            continue
        tr_omega = omega_seq(n).trace()
        lower = _fv(d_rho[n]) + _fv(d_sigma[n]) - tr_omega
        upper = lower + binary_entropy_extension(rho_seq(n).trace(), sigma_seq(n).trace())
        lo_slack = _fv(d_sum[n]) - lower
        hi_slack = upper - _fv(d_sum[n])
        for tag, slack in (("lower", lo_slack), ("upper", hi_slack)):
            if slack < guard_slack:
                guard_slack = slack
            if slack < -INEQ_SLACK:
                guard_ok, guard_detail = False, f"sum {tag} bound fails at n = {n} by {-slack:.3e}"
    checks = [
        CheckResult("hypothesis values finite", not inf_hyp, 0.0),
        CheckResult("per-n sum inequalities", guard_ok, float(guard_slack), guard_detail),
    ]
    trends = []
    values = {"conclusion": [(_fv(v) if not v.is_inf else math.inf) for v in d_sum]}
    if not inf_hyp:
        trends.append(TrendSummary.from_residuals(
            "|D(rho_n||omega_n) - D(rho_0||omega_0)|",
            [abs(_fv(v) - _fv(d_rho[0])) for v in d_rho[1:]]))
        trends.append(TrendSummary.from_residuals(
            "|D(sigma_n||omega_n) - D(sigma_0||omega_0)|",
            [abs(_fv(v) - _fv(d_sigma[0])) for v in d_sigma[1:]]))
    inf_sum = any(v.is_inf for v in d_sum)
    if not inf_sum:
        trends.append(TrendSummary.from_residuals(
            "|D(rho_n+sigma_n||omega_n) - D(rho_0+sigma_0||omega_0)|",
            [abs(_fv(v) - _fv(d_sum[0])) for v in d_sum[1:]]))
    if theta_seq is not None:
        d_theta = [relative_entropy(sigma_seq(n), theta_seq(n)) for n in range(n_max + 1)]
        d_shift = [relative_entropy(rho_seq(n).add(sigma_seq(n)), omega_seq(n).add(theta_seq(n)))
                   for n in range(n_max + 1)]
        values["shifted_conclusion"] = [(_fv(v) if not v.is_inf else math.inf) for v in d_shift]
        if not any(v.is_inf for v in d_theta):
            trends.append(TrendSummary.from_residuals(
                "|D(sigma_n||theta_n) - D(sigma_0||theta_0)|",
                [abs(_fv(v) - _fv(d_theta[0])) for v in d_theta[1:]]))
        else:
            inf_hyp = True
        if not any(v.is_inf for v in d_shift):
            trends.append(TrendSummary.from_residuals(
                "|D(rho_n+sigma_n||omega_n+theta_n) - D(...limit...)|",
                [abs(_fv(v) - _fv(d_shift[0])) for v in d_shift[1:]]))
        else:
            inf_sum = True
    if not guard_ok:
        status = VIOLATED
    elif inf_hyp or inf_sum or not trends:
        status = INCONCLUSIVE
    elif all(t.shrinks for t in trends):
        status = CONSISTENT
    else:
        status = INCONCLUSIVE
    return Verdict("relative-entropy-sum", status,
                   hypothesis_checks=tuple(checks), conclusion_trends=tuple(trends),
                   trend_only=True, values=values)


# ---------------------------------------------------------------------------
# Channel mutual information procedures


def channel_mi_checks(channel_seq: ChannelSequence, rho_seq: OperatorSequence,
                      sigma_seq: OperatorSequence, c: float, p_seq, n_max: int, m_max: int,
                      schedule: ProjectorSchedule | None = None) -> Verdict:
    """Domination, mixture and sufficient-condition checks for I(Phi_n, .).

    Bundles the dominated implication (c rho_n <= sigma_n), the mixture
    conclusion for p_seq, the two entropy-based sufficient conditions, and an
    output-entropy tail check when a schedule is supplied.
    """
    _require_psd_domination(rho_seq, sigma_seq, c, n_max, "c*rho_n <= sigma_n")
    p = [float(x) for x in p_seq]
    mi = channel_mi_family(channel_seq)
    ent = entropy_family()
    out_ent = output_entropy_family(channel_seq)
    mi_sigma = [mi.value(n, sigma_seq(n)) for n in range(n_max + 1)]
    mi_rho = [mi.value(n, rho_seq(n)) for n in range(n_max + 1)]
    trends = [
        TrendSummary.from_residuals(
            "|I(Phi_n,sigma_n) - I(Phi_0,sigma_0)|",
            [abs(_fv(v) - _fv(mi_sigma[0])) for v in mi_sigma[1:]]),
        TrendSummary.from_residuals(
            "|I(Phi_n,rho_n) - I(Phi_0,rho_0)|",
            [abs(_fv(v) - _fv(mi_rho[0])) for v in mi_rho[1:]]),
    ]
    mix_vals = [mi.value(n, rho_seq(n).scale(p[n]).add(sigma_seq(n).scale(1.0 - p[n])))
                for n in range(n_max + 1)]
    trends.append(TrendSummary.from_residuals(
        "|I(Phi_n,p_n rho_n + (1-p_n) sigma_n) - I(Phi_0,...)|",
        [abs(_fv(v) - _fv(mix_vals[0])) for v in mix_vals[1:]]))
    s_in = [ent.value(n, rho_seq(n)) for n in range(n_max + 1)]
    s_out = [out_ent.value(n, rho_seq(n)) for n in range(n_max + 1)]
    in_trend = TrendSummary.from_residuals(
        "|S(rho_n) - S(rho_0)|", [abs(_fv(v) - _fv(s_in[0])) for v in s_in[1:]])
    out_trend = TrendSummary.from_residuals(
        "|S(Phi_n(rho_n)) - S(Phi_0(rho_0))|", [abs(_fv(v) - _fv(s_out[0])) for v in s_out[1:]])
    trends.extend([in_trend, out_trend])
    checks = [
        CheckResult("entropy sufficient condition (inputs or outputs)",
                     in_trend.shrinks or out_trend.shrinks, 0.0),
    ]
    tail_trend = None
    tail_ok = True
    if schedule is not None:
        tails = []
        for m in range(schedule.m_0, min(m_max, schedule.m_max) + 1):
            vals = [out_ent.value(n, compress(rho_seq(n), schedule.projector(n, m).complement()))
                    for n in range(n_max + 1)]
            tails.append(max(_fv(v) for v in vals))
        tail_trend = TrendSummary.from_residuals("output-entropy tail sup over m", tails)
        trends.append(tail_trend)
        tail_ok = shrinks_toward_zero(tails)
        checks.append(CheckResult("output-entropy tail decreases toward zero over m", tail_ok, 0.0))
    core_ok = all(t.shrinks for t in trends[:3])
    sufficient_ok = in_trend.shrinks or out_trend.shrinks
    status = CONSISTENT if core_ok and sufficient_ok and tail_ok else INCONCLUSIVE
    return Verdict("channel-mi", status,
                   hypothesis_checks=tuple(checks), conclusion_trends=tuple(trends),
                   trend_only=True)


# ---------------------------------------------------------------------------
# Appendix: regularized-log domination


def appendix_domination(rho1: OperatorSequence, rho2: OperatorSequence,
                        sigma1: OperatorSequence, sigma2: OperatorSequence,
                        k_schedule, n_max: int = 12) -> Verdict:
    """Windowed A_1/Delta/A_2 bound plus per-(n, k) ladder comparisons.

    Checks rho1_n >= rho2_n and sigma1_n <= sigma2_n, the monotone ladder
    difference inequality 0 <= a2_n - a2_{k,n} <= a1_n - a1_{k,n}, the
    windowed bound A_2 - a2_0 <= Delta, and the spectral identity
    Tr H rho = sum of H-quadratic forms over rho's eigenvectors.
    """
    for n in range(n_max + 1):
        _psd_or_raise(rho1(n).sub(rho2(n)), f"rho2_n <= rho1_n at n = {n}")
        _psd_or_raise(sigma2(n).sub(sigma1(n)), f"sigma1_n <= sigma2_n at n = {n}")
    a1 = [trace_neg_log(rho1(n), sigma1(n)) for n in range(n_max + 1)]
    a2 = [trace_neg_log(rho2(n), sigma2(n)) for n in range(n_max + 1)]
    inf_hyp = any(v.is_inf for v in a1)
    checks = [CheckResult("A_1 values finite on window", not inf_hyp, 0.0)]
    if inf_hyp:
        return Verdict("appendix-domination", INCONCLUSIVE,
                       hypothesis_checks=tuple(checks), trend_only=True)
    ladder_ok, ladder_slack, ladder_detail = True, math.inf, ""
    for n in range(n_max + 1):
        l1 = regularized_log_ladder(rho1(n), sigma1(n), k_schedule)
        l2 = regularized_log_ladder(rho2(n), sigma2(n), k_schedule)
        for i, k in enumerate(l1.k_values):
            d1 = _fv(a1[n]) - l1.a_k[i]
            d2 = _fv(a2[n]) - l2.a_k[i]
            for tag, slack in (("0 <= a2_n - a2_(k,n)", d2 + INEQ_SLACK),
                               ("a2 difference <= a1 difference", d1 - d2 + INEQ_SLACK)):
                if slack < ladder_slack:
                    ladder_slack = slack
                if slack < 0.0:
                    ladder_ok, ladder_detail = False, f"{tag} fails at (n, k) = ({n}, {k})"
    checks.append(CheckResult("ladder difference comparisons", ladder_ok, float(ladder_slack), ladder_detail))
    sq_ok, sq_slack = _spectral_form_identity(rho1, sigma1, n_max)
    checks.append(CheckResult("Tr H rho equals the eigenvector quadratic-form sum", sq_ok, sq_slack))
    a1_window = windowed_sup([_fv(v) for v in a1[1:]], n_max)
    delta = max(0.0, a1_window - _fv(a1[0]))
    a2_window = windowed_sup([_fv(v) for v in a2[1:]], n_max)
    bound_slack = delta + INEQ_SLACK - (a2_window - _fv(a2[0]))
    bound_ok = bound_slack >= 0.0
    checks.append(CheckResult("windowed A_2 - a2_0 <= Delta", bound_ok, bound_slack))
    trends = (
        TrendSummary.from_residuals("|a1_n - a1_0|", [abs(_fv(v) - _fv(a1[0])) for v in a1[1:]]),
        TrendSummary.from_residuals("|a2_n - a2_0|", [abs(_fv(v) - _fv(a2[0])) for v in a2[1:]]),
    )
    if not ladder_ok or not sq_ok:
        status = VIOLATED
    elif bound_ok and all(t.shrinks for t in trends):
        status = CONSISTENT
    else:
        status = INCONCLUSIVE
    return Verdict("appendix-domination", status,
                   hypothesis_checks=tuple(checks), conclusion_trends=trends,
                   trend_only=True,
                   values={"A_1": a1_window, "A_2": a2_window, "Delta": delta})


def _spectral_form_identity(rho_seq: OperatorSequence, sigma_seq: OperatorSequence, n_max: int):
    """Verify Tr H rho = sum_i lambda_i <v_i|H|v_i> with H = ln(I + sigma^+)."""
    worst = math.inf
    ok = True
    for n in range(n_max + 1):
        h = apply_spectral_function(moore_penrose_inverse(sigma_seq(n)), math.log1p)
        rho = rho_seq(n)
        if rho.is_diagonal and h.is_diagonal:
            direct = float(np.sum(rho.diag * h.diag))
            via_vectors = direct
        else:
            direct = float(np.real(np.trace(h.matrix @ rho.matrix)))
            spec = rho.spectrum()
            via_vectors = float(np.sum(spec.values * spec.weights(h)))
        slack = INEQ_SLACK - abs(direct - via_vectors)
        worst = min(worst, slack)
        if slack < 0.0:
            ok = False
    return ok, float(worst)


# ---------------------------------------------------------------------------
# Shared PSD guards


def _require_psd_domination(lower: OperatorSequence, upper: OperatorSequence,
                            c: float, n_max: int, label: str):
    for n in range(n_max + 1):
        _psd_or_raise(upper(n).sub(lower(n).scale(c)), f"{label} at n = {n}")


def _psd_or_raise(diff: HermitianOperator, label: str):
    lam_min = float(np.min(diff.diag)) if diff.is_diagonal else float(np.min(np.linalg.eigvalsh(diff.matrix)))
    scale = diff.operator_norm()
    if lam_min < -(1e-10 * max(scale, 1e-30) + 1e-15):
        raise ValueError(f"PSD domination fails ({label}): most negative eigenvalue {lam_min:.3e}")


def _is_psd(diff: HermitianOperator) -> bool:
    lam_min = float(np.min(diff.diag)) if diff.is_diagonal else float(np.min(np.linalg.eigvalsh(diff.matrix)))
    scale = diff.operator_norm()
    return lam_min >= -(1e-10 * max(scale, 1e-30) + 1e-15)
