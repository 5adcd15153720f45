"""Status table: (procedure, branch) -> status for every reachable branch.

A verdict's status is derived from the checks and trends it reports, each
by its role: a failed ``inequality`` check is "violated", a failed
``hypothesis`` check (an unmet or infinite hypothesis) is "inconclusive", a
``note`` check is only reported, and otherwise the trends that gate decide
("consistent" iff there is one and all of them shrink).  Every case below
drives one procedure down one of those branches on a small window, on
diagonal inputs and, where the branch does not depend on the coordinate
basis, on the same inputs rotated into a dense basis, and names the record
that decides it: that record fails, or, for a consistent case, shrinks while
no gating record fails.  Every report, here, of the builtins and of the
scenario files, explains a status other than consistent by a failed check
or a trend that does not shrink.

A few cases need a hand-written functional family, because no registered
family can reach the branch (an infinite g with finite f at the same state,
an infinite mixture of two finite states, a functional that breaks its own
LAA or truncation bounds).

The gap grid has no status; the last tests pin an input on which it must
return its full grid instead of raising, and a broken domination or ordering
that must read as a failed hypothesis check instead of raising.
"""

import ast
import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest
from click.testing import CliRunner

from qdini import (
    ApproximationScheme,
    Channel,
    CheckResult,
    ChannelSequence,
    OperatorSequence,
    PositiveOperator,
    ProjectorSchedule,
    appendix_domination,
    approximation_gap_grid,
    channel_mi_checks,
    check_convex_mixture,
    check_dct_basic,
    check_dct_simon,
    commuting_schedule,
    constant_sequence,
    depolarizing_channel,
    entropy_family,
    fixed_basis_schedule,
    identity_channel,
    relative_entropy_domination,
    relative_entropy_family,
    relative_entropy_sum,
    trace_neg_log_family,
    truncation_criterion,
    validate_schedule,
    von_neumann_entropy,
)
from qdini.cli import main
from qdini.diagnostics import ZERO_MODULUS, FunctionalFamily
from qdini.scenarios import (
    BUILTIN_SCENARIOS,
    _entropy_jump_probe,
    builtin_scenario,
    load_scenario,
    report_to_json,
    run_scenario,
)
from qdini.verdicts import HYPOTHESIS, INEQUALITY, NOTE

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "qdini"
SCENARIOS = pathlib.Path(__file__).resolve().parent / "scenarios"

DIAGONAL = "diagonal"
DENSE = "dense"
BOTH = (DIAGONAL, DENSE)


def _rotation(dim):
    q, _ = np.linalg.qr(np.random.default_rng(dim).standard_normal((dim, dim)))
    return q


def _op(lam, basis):
    lam = np.asarray(lam, dtype=float)
    if basis == DIAGONAL:
        return PositiveOperator(diagonal=lam)
    u = _rotation(lam.size)
    return PositiveOperator((u * lam) @ u.T)


def _seq(limit, pert, basis, rate=0.5):
    """Members limit + rate^n pert; rate = 1 keeps them at a fixed distance."""
    limit = np.asarray(limit, dtype=float)
    pert = np.asarray(pert, dtype=float)
    ops = {}

    def member(n):
        if n not in ops:
            ops[n] = _op(limit if n == 0 else limit + rate ** n * pert, basis)
        return ops[n]

    return OperatorSequence(member, limit.size)


def _const(lam, basis):
    return constant_sequence(_op(lam, basis))


def _scaled(seq, c):
    return OperatorSequence(lambda n: seq(n).scale(c), seq.dim)


def _family(value, label="custom"):
    return FunctionalFamily("Custom", label, value, a_f=ZERO_MODULUS)


NEG_ENTROPY = _family(lambda n, op: -von_neumann_entropy(op), "-S")


def _entropy_unless(pred, label):
    """S, but +inf on operators where pred holds."""
    return _family(lambda n, op: math.inf if pred(op) else von_neumann_entropy(op), label)


# a converging pair on three levels, and a pair stuck away from its limit
CONV = ([0.5, 0.3, 0.2], [0.05, -0.02, -0.03])
STUCK = ([0.5, 0.3, 0.2], [0.1, -0.05, -0.05])


# ---------------------------------------------------------------------------
# dct-basic


def dct_basic_consistent(b):
    seq = _seq(*CONV, b)
    return check_dct_basic(entropy_family(), entropy_family(), seq, n_max=8, m_max=3)


def dct_basic_violated_domination(b):
    # g = Tr rho(-ln 0.1 I) = ln 10 exceeds f = S at pure truncations
    seq = _seq([0.5, 0.5, 0.0], [0.2, -0.2, 0.0], b)
    g = trace_neg_log_family(_const([0.1, 0.1, 0.1], b))
    return check_dct_basic(entropy_family(), g, seq, n_max=6, m_max=3)


def dct_basic_violated_laa(b):
    # |g| = |-S| = f, so domination holds, but -S is convex: its a-side fails
    seq = _seq(*CONV, b)
    return check_dct_basic(entropy_family(), NEG_ENTROPY, seq, n_max=6, m_max=3)


def dct_basic_inf_f(b):
    sigma = _const([1.0, 0.0, 0.0], b)
    seq = _seq([0.4, 0.3, 0.3], [0.1, -0.05, -0.05], b)
    return check_dct_basic(relative_entropy_family(sigma), entropy_family(), seq, n_max=6, m_max=3)


def dct_basic_inf_g_only(b):
    # g is +inf on the unnormalized window members (trace 2) only
    seq = _scaled(_seq(*CONV, b), 2.0)
    g = _entropy_unless(lambda op: op.trace() > 1.5, "S unless Tr > 1.5")
    return check_dct_basic(entropy_family(), g, seq, n_max=6, m_max=3)


def dct_basic_inf_f_on_samples(b):
    # f is +inf on the normalized samples only, finite on the window members
    seq = _scaled(_seq(*CONV, b), 2.0)
    f = _entropy_unless(lambda op: abs(op.trace() - 1.0) < 1e-9, "S unless Tr = 1")
    return check_dct_basic(f, entropy_family(), seq, n_max=6, m_max=3)


def dct_basic_trends(b):
    seq = _seq(*STUCK, b, rate=1.0)
    return check_dct_basic(entropy_family(), entropy_family(), seq, n_max=6, m_max=3)


# ---------------------------------------------------------------------------
# dct-simon


def dct_simon_consistent(b):
    seq = _seq(*CONV, b)
    return check_dct_simon(entropy_family(), seq, seq, 1.0, 8, 3)


def dct_simon_domination_fails(b):
    # 2 rho_n <= rho_n fails for every nonzero rho_n: an unmet hypothesis
    seq = _seq(*CONV, b)
    return check_dct_simon(entropy_family(), seq, seq, 2.0, 8, 3)


def dct_simon_violated(b):
    # -S(rho) >= mu (-S([Psi_1 rho])) = 0 fails for every mixed rho
    seq = _seq(*CONV, b)
    return check_dct_simon(NEG_ENTROPY, seq, seq, 1.0, 6, 3)


def dct_simon_inf(b):
    f = relative_entropy_family(_const([0.5, 0.5, 0.0], b))
    seq = _seq(*CONV, b)
    return check_dct_simon(f, seq, seq, 1.0, 6, 3)


def dct_simon_inf_rho_only(b):
    # rho_n = tau_n / 2 satisfies the domination; f is +inf on rho_n alone
    tau = _seq(*CONV, b)
    f = _entropy_unless(lambda op: op.trace() < 0.9, "S unless Tr < 0.9")
    return check_dct_simon(f, _scaled(tau, 0.5), tau, 1.0, 6, 3)


def dct_simon_trends(b):
    seq = _seq(*STUCK, b, rate=1.0)
    return check_dct_simon(entropy_family(), seq, seq, 1.0, 6, 3)


# ---------------------------------------------------------------------------
# convex-mixture

MIX_RHO = ([0.6, 0.25, 0.15], [0.05, -0.03, -0.02])
MIX_SIGMA = ([0.2, 0.5, 0.3], [-0.02, 0.05, -0.03])
MIX_P = [0.5] + [0.5 + 0.1 * 0.5 ** n for n in range(1, 9)]


def convex_mixture_consistent(b):
    return check_convex_mixture(entropy_family(), _seq(*MIX_RHO, b), _seq(*MIX_SIGMA, b),
                                MIX_P, n_max=8, m_max=3)


def convex_mixture_inf(b):
    f = relative_entropy_family(_const([0.5, 0.5, 0.0], b))
    return check_convex_mixture(f, _seq(*MIX_RHO, b), _seq(*MIX_SIGMA, b), MIX_P, n_max=8, m_max=3)


def convex_mixture_hypothesis_trends(b):
    return check_convex_mixture(entropy_family(), _seq(*STUCK, b, rate=1.0), _seq(*MIX_SIGMA, b),
                                MIX_P, n_max=8, m_max=3)


def convex_mixture_no_stable_index(b):
    # the top eigenvalue of both limits is doubly degenerate and m_max = 1
    rho = _seq([0.4, 0.4, 0.2], [0.02, -0.01, -0.01], b)
    sigma = _seq([0.35, 0.35, 0.3], [-0.01, 0.02, -0.01], b)
    return check_convex_mixture(entropy_family(), rho, sigma, MIX_P, n_max=8, m_max=1)


def convex_mixture_mixture_trend(b):
    p = [0.5] + [0.2 if n % 2 else 0.8 for n in range(1, 9)]
    return check_convex_mixture(entropy_family(), _seq(*MIX_RHO, b), _seq(*MIX_SIGMA, b),
                                p, n_max=8, m_max=3)


def convex_mixture_mixture_inf(b):
    # rank-2 states on disjoint supports are finite; their mixtures are not
    f = _entropy_unless(lambda op: op.rank() > 2, "S unless rank > 2")
    rho = _seq([0.6, 0.4, 0.0, 0.0], [0.02, -0.02, 0.0, 0.0], b)
    sigma = _seq([0.0, 0.0, 0.7, 0.3], [0.0, 0.0, -0.02, 0.02], b)
    return check_convex_mixture(f, rho, sigma, MIX_P, n_max=8, m_max=2)


# ---------------------------------------------------------------------------
# truncation-criterion

TC_SEQ = ([0.7, 0.2, 0.06, 0.04], [0.02, -0.01, -0.005, -0.005])


def _schedule(seq, basis, n_max):
    if basis == DIAGONAL:
        return fixed_basis_schedule(seq.dim, seq.dim, seq, n_max=n_max)
    return commuting_schedule(seq, m_max=seq.dim, n_max=n_max)


def truncation_criterion_consistent(b):
    seq = _seq(*TC_SEQ, b)
    return truncation_criterion(entropy_family(), seq, _schedule(seq, b, 8), n_0=1, n_max=8, m_max=4)


def _planted(sched, n, m, cut):
    """``sched`` with P^n_m replaced by the prefix of its basis cut at ``cut``."""
    cuts = sched.cuts.copy()
    cuts[n, m - sched.m_0] = cut
    return dataclasses.replace(sched, cuts=cuts)


def truncation_criterion_violated(b):
    # a planted rank-3 projector at slot m = 2 fails schedule validation
    seq = _seq(*TC_SEQ, b)
    sched = _planted(_schedule(seq, b, 6), 1, 2, 3)
    return truncation_criterion(entropy_family(), seq, sched, n_0=1, n_max=6, m_max=4)


def truncation_criterion_inf(b):
    seq = _seq(*TC_SEQ, b)
    f = relative_entropy_family(_const([0.5, 0.3, 0.2, 0.0], b))
    return truncation_criterion(f, seq, _schedule(seq, b, 6), n_0=1, n_max=6, m_max=4)


def truncation_criterion_head_trends(b):
    seq = _seq(TC_SEQ[0], [0.1, -0.05, -0.03, -0.02], b, rate=1.0)
    return truncation_criterion(entropy_family(), seq, _schedule(seq, b, 6), n_0=1, n_max=6, m_max=4)


def truncation_criterion_tails(b):
    # flat spectrum: entropy tails halve but stay far from zero
    seq = _const(np.full(8, 1.0 / 8), b)
    sched = fixed_basis_schedule(8, 8, seq, n_max=6)
    return truncation_criterion(entropy_family(), seq, sched, n_0=1, n_max=6, m_max=4)


# ---------------------------------------------------------------------------
# relative-entropy-domination

RD_RHO1 = ([0.4, 0.35, 0.25], [0.02, -0.01, -0.01])
RD_SIGMA1 = ([0.3, 0.3, 0.4], [0.01, 0.01, -0.02])


def re_domination_consistent(b):
    rho1, sigma1 = _seq(*RD_RHO1, b), _seq(*RD_SIGMA1, b)
    return relative_entropy_domination(rho1, _scaled(rho1, 0.5), sigma1, _scaled(sigma1, 2.0), n_max=8)


def re_domination_inf_hypothesis(b):
    rho1 = _seq(*RD_RHO1, b)
    sigma1 = _seq([0.5, 0.5, 0.0], [0.01, -0.01, 0.0], b)
    return relative_entropy_domination(rho1, _scaled(rho1, 0.5), sigma1, _scaled(sigma1, 2.0), n_max=8)


def _planted_inf_conclusion(b, rate):
    # D(rho2_0||sigma2_0) = +inf at the declared limit only
    rho1 = _seq([0.5, 0.3, 0.0], [0.02, -0.01, 0.05], b, rate=rate)
    sigma1 = _seq([0.3, 0.3, 0.0], [0.01, -0.01, 0.05], b)
    limit = _op([0.25, 0.15, 0.05], b)
    rho2 = OperatorSequence(lambda n: limit if n == 0 else rho1(n).scale(0.5), 3)
    return relative_entropy_domination(rho1, rho2, sigma1, _scaled(sigma1, 2.0), n_max=8)


def re_domination_violated(b):
    return _planted_inf_conclusion(b, 0.5)


def re_domination_inf_conclusion_trends(b):
    # the same planted +inf, but the hypothesis does not converge
    return _planted_inf_conclusion(b, 1.0)


def re_domination_ordering_fails(b):
    # rho2_n = rho1_0 - 2^-n pert exceeds rho1_n on two levels for n >= 1; the limits coincide
    rho1, sigma1 = _seq(*RD_RHO1, b), _seq(*RD_SIGMA1, b)
    rho2 = _seq(RD_RHO1[0], [-x for x in RD_RHO1[1]], b)
    return relative_entropy_domination(rho1, rho2, sigma1, _scaled(sigma1, 2.0), n_max=8)


def re_domination_limit_ordering_only(b):
    # 2 rho2_n = rho1_n for n >= 1, but the declared rho2_0 permutes the levels of rho1_0 / 2, so
    # 2 rho2_0 <= rho1_0 fails at the limit alone; sigma2 is a multiple of I, so D(rho2_n||sigma2_n)
    # reads only the spectrum and still converges: the limit check is a note and decides nothing
    rho1 = _seq(*RD_RHO1, b)
    limit = _op([0.125, 0.175, 0.2], b)
    rho2 = OperatorSequence(lambda n: limit if n == 0 else rho1(n).scale(0.5), 3)
    sigma1 = _const([1 / 3] * 3, b)
    return relative_entropy_domination(rho1, rho2, sigma1, _scaled(sigma1, 2.0), c_rho=2.0, n_max=8)


def re_domination_trends(b):
    rho1, sigma1 = _seq(*RD_RHO1, b, rate=1.0), _seq(*RD_SIGMA1, b)
    return relative_entropy_domination(rho1, _scaled(rho1, 0.5), sigma1, _scaled(sigma1, 2.0), n_max=8)


# ---------------------------------------------------------------------------
# relative-entropy-sum

RS_RHO = ([0.3, 0.2, 0.1], [0.02, -0.01, -0.01])
RS_SIGMA = ([0.1, 0.2, 0.3], [-0.01, 0.02, -0.01])
RS_OMEGA = ([0.4, 0.3, 0.3], [0.01, -0.01, 0.0])
RS_THETA = ([0.2, 0.3, 0.4], [0.0, 0.01, -0.01])


def re_sum_consistent(b):
    return relative_entropy_sum(_seq(*RS_RHO, b), _seq(*RS_SIGMA, b), _seq(*RS_OMEGA, b), n_max=8)


def re_sum_shifted_consistent(b):
    return relative_entropy_sum(_seq(*RS_RHO, b), _seq(*RS_SIGMA, b), _seq(*RS_OMEGA, b), n_max=8,
                                theta_seq=_seq(*RS_THETA, b))


def re_sum_inf(b):
    omega = _seq([0.4, 0.6, 0.0], [0.01, -0.01, 0.0], b)
    return relative_entropy_sum(_seq(*RS_RHO, b), _seq(*RS_SIGMA, b), omega, n_max=8)


def re_sum_inf_theta(b):
    theta = _seq([0.5, 0.5, 0.0], [0.01, -0.01, 0.0], b)
    return relative_entropy_sum(_seq(*RS_RHO, b), _seq(*RS_SIGMA, b), _seq(*RS_OMEGA, b), n_max=8,
                                theta_seq=theta)


def re_sum_trends(b):
    return relative_entropy_sum(_seq(*RS_RHO, b), _seq(RS_SIGMA[0], [0.05, -0.02, 0.0], b, rate=1.0),
                                _seq(*RS_OMEGA, b), n_max=8)


# ---------------------------------------------------------------------------
# channel-mi


def _depolarizing(rate=0.5):
    return ChannelSequence(lambda n: depolarizing_channel(0.5 + (rate ** n if n else 0.0) * 0.2, 2), 2, 2)


def _replacement(omega):
    """Phi(rho) = Tr(rho) omega, Kraus sqrt(omega_i)|i><j|."""
    d = len(omega)
    kraus = [math.sqrt(w) * np.outer(np.eye(d)[i], np.eye(d)[j]) for i, w in enumerate(omega) for j in range(d)]
    return Channel(kraus)


CM_RHO = ([0.75, 0.25], [0.05, -0.05])
CM_P = [0.5] + [0.5 + 0.25 * 0.5 ** n for n in range(1, 9)]


def channel_mi_consistent(b):
    rho = _seq(*CM_RHO, b)
    return channel_mi_checks(_depolarizing(), rho, _scaled(rho, 2.0), 0.5, CM_P, 8, 2)


def channel_mi_domination_fails(b):
    # 4 rho_n <= 2 rho_n fails: an unmet hypothesis
    rho = _seq(*CM_RHO, b)
    return channel_mi_checks(_depolarizing(), rho, _scaled(rho, 2.0), 4.0, CM_P, 8, 2)


def channel_mi_core_trends(b):
    rho = _seq(*CM_RHO, b)
    p = [0.5] + [0.1 if n % 2 else 0.9 for n in range(1, 9)]
    sigma = _const([0.5, 0.5], b)
    return channel_mi_checks(_depolarizing(), rho, sigma, 0.5, p, 8, 2)


def _replacements(late):
    """Replacement channels preparing diag(0.5, 0.5) at n = 0 and diag(late) after."""
    return ChannelSequence(lambda n: _replacement([0.5, 0.5] if n == 0 else late), 2, 2)


def channel_mi_sufficient_condition(b):
    # replacement channels carry no information (every MI is 0), but the
    # inputs and the prepared outputs both stay away from their limits
    rho = _seq(*CM_RHO, b, rate=1.0)
    return channel_mi_checks(_replacements([0.9, 0.1]), rho, _scaled(rho, 2.0), 0.5, CM_P, 8, 2)


def channel_mi_outputs_stuck(b):
    # the prepared outputs stay away from their limit, the inputs converge: the sufficient
    # condition holds through the inputs, and the output-entropy trend does not gate
    rho = _seq(*CM_RHO, b)
    return channel_mi_checks(_replacements([0.9, 0.1]), rho, _scaled(rho, 2.0), 0.5, CM_P, 8, 2)


def channel_mi_inputs_stuck(b):
    # the inputs stay away from their limit, the outputs are fixed: the sufficient condition
    # holds through the outputs, and the input-entropy trend does not gate
    rho = _seq(*CM_RHO, b, rate=1.0)
    return channel_mi_checks(_replacements([0.5, 0.5]), rho, _scaled(rho, 2.0), 0.5, CM_P, 8, 2)


def channel_mi_tail(b):
    # identity channel on a flat spectrum: output-entropy tails stay large
    rho = _const(np.full(6, 1.0 / 6), b)
    chans = ChannelSequence(lambda n: identity_channel(6), 6, 6)
    sched = fixed_basis_schedule(6, 6, rho, n_max=6)
    return channel_mi_checks(chans, rho, _scaled(rho, 2.0), 0.5, CM_P, 6, 3, schedule=sched)


# ---------------------------------------------------------------------------
# appendix-domination

AP_RHO1 = ([0.5, 0.3, 0.2], [0.02, -0.01, -0.01])
AP_SIGMA1 = ([0.2, 0.3, 0.5], [0.01, -0.01, 0.0])
K_SCHEDULE = [1, 10, 100, 1000]


def appendix_consistent(b):
    rho1, sigma1 = _seq(*AP_RHO1, b), _seq(*AP_SIGMA1, b)
    return appendix_domination(rho1, _scaled(rho1, 0.6), sigma1, _scaled(sigma1, 1.5), K_SCHEDULE, n_max=8)


def appendix_inf(b):
    rho1 = _seq([0.5, 0.5], [0.02, -0.02], b)
    sigma = _const([1.0, 0.0], b)
    return appendix_domination(rho1, _scaled(rho1, 0.5), sigma, sigma, [1, 10], n_max=4)


def appendix_trends(b):
    rho1, sigma1 = _seq(AP_RHO1[0], [0.1, -0.05, -0.05], b, rate=1.0), _seq(*AP_SIGMA1, b)
    return appendix_domination(rho1, _scaled(rho1, 0.6), sigma1, _scaled(sigma1, 1.5), K_SCHEDULE, n_max=8)


def appendix_ordering_fails(b):
    # rho2_n = 1.5 rho1_n is not <= rho1_n at any n
    rho1, sigma1 = _seq(*AP_RHO1, b), _seq(*AP_SIGMA1, b)
    return appendix_domination(rho1, _scaled(rho1, 1.5), sigma1, _scaled(sigma1, 1.5), K_SCHEDULE, n_max=8)


def appendix_large_trace(b):
    # the spectral identity Tr H rho = sum_i lambda_i <v_i|H|v_i> holds to
    # rounding relative to |Tr H rho|, which for a dense rho of trace 1e10
    # exceeds an absolute 1e-8
    rho1, sigma1 = _scaled(_seq(*AP_RHO1, b), 1e10), _seq(*AP_SIGMA1, b)
    return appendix_domination(rho1, _scaled(rho1, 0.6), sigma1, _scaled(sigma1, 1.5), K_SCHEDULE, n_max=4)


# ---------------------------------------------------------------------------
# entropy-jump-probe and schedule-consistency

JP_SEQ = ([1.0, 0.0, 0.0], [-0.4, 0.2, 0.2])


def jump_probe_consistent(b):
    return _entropy_jump_probe(_seq(*JP_SEQ, b), 6, -1.0, 1.0, 3)


def jump_probe_out_of_band(b):
    return _entropy_jump_probe(_seq(*JP_SEQ, b), 6, 0.9, 1.1, 3)


def jump_probe_trends(b):
    return _entropy_jump_probe(_seq(*JP_SEQ, b, rate=1.0), 6, -1.0, 1.0, 3)


def schedule_consistent(b):
    seq = _seq(*TC_SEQ, b)
    return validate_schedule(_schedule(seq, b, 6), seq, n_max=6)


def schedule_violated_rank(b):
    seq = _seq(*TC_SEQ, b)
    sched = _planted(_schedule(seq, b, 2), 1, 2, 3)
    return validate_schedule(sched, seq, n_max=2)


def schedule_violated_nesting(b):
    seq = _seq(*TC_SEQ, b)
    # P^1_3 cut at 1 lies below P^1_2, cut at 2
    sched = _planted(_schedule(seq, b, 2), 1, 3, 1)
    return validate_schedule(sched, seq, n_max=2)


def schedule_probe_trends(b):
    # P^n_1 alternates between two coordinates, so it never approaches P^0_1
    seq = _const([0.5, 0.5, 0.0], b)
    first, second = (_op(lam, DIAGONAL).spectrum() for lam in ([0.5, 0.3, 0.2], [0.3, 0.5, 0.2]))
    bases = [second if n % 2 else first for n in range(6)]
    return validate_schedule(ProjectorSchedule(1, 2, 5, bases, np.tile([1, 2], (6, 1))), seq)


CONSISTENT, VIOLATED, INCONCLUSIVE = "consistent", "violated", "inconclusive"

# (procedure, branch) -> (case, expected status, the record that decides it, bases it runs on)
STATUS_TABLE = {
    ("dct-basic", "trends shrink"):
        (dct_basic_consistent, CONSISTENT, "|g_n(rho_n) - g_0(rho_0)|", BOTH),
    ("dct-basic", "domination fails"):
        (dct_basic_violated_domination, VIOLATED, "|g_n| <= f_n on window and truncations", BOTH),
    ("dct-basic", "LAA bound fails"):
        (dct_basic_violated_laa, VIOLATED, "LAA bounds for f and g", BOTH),
    ("dct-basic", "+inf in f"):
        (dct_basic_inf_f, INCONCLUSIVE, "f values finite on window", BOTH),
    ("dct-basic", "+inf in g only"):
        (dct_basic_inf_g_only, INCONCLUSIVE, "g values finite on window", BOTH),
    ("dct-basic", "+inf in f at a sample only"):
        (dct_basic_inf_f_on_samples, INCONCLUSIVE, "f finite on the samples [rho_n] and [Psi_m(rho_n)]", BOTH),
    ("dct-basic", "trends do not shrink"):
        (dct_basic_trends, INCONCLUSIVE, "|g_n(rho_n) - g_0(rho_0)|", BOTH),
    ("dct-simon", "trends shrink"):
        (dct_simon_consistent, CONSISTENT, "|f_n(rho_n) - f_0(rho_0)|", BOTH),
    ("dct-simon", "per-cell bound fails"):
        (dct_simon_violated, VIOLATED, "per-cell truncation lower bound", BOTH),
    ("dct-simon", "domination fails"):
        (dct_simon_domination_fails, INCONCLUSIVE, "PSD domination c*rho_n <= tau_n", BOTH),
    ("dct-simon", "+inf"):
        (dct_simon_inf, INCONCLUSIVE, "f_0(tau_0) finite", BOTH),
    ("dct-simon", "+inf in rho only"):
        (dct_simon_inf_rho_only, INCONCLUSIVE, "f finite on rho_n and on tau_n for n >= 1", BOTH),
    ("dct-simon", "trends do not shrink"):
        (dct_simon_trends, INCONCLUSIVE, "|f_n(tau_n) - f_0(tau_0)|", BOTH),
    ("convex-mixture", "trends shrink"):
        (convex_mixture_consistent, CONSISTENT, "|f_n(p_n rho_n + (1-p_n) sigma_n) - f_0(...)|", BOTH),
    ("convex-mixture", "+inf in a hypothesis"):
        (convex_mixture_inf, INCONCLUSIVE, "hypothesis values finite", BOTH),
    ("convex-mixture", "hypothesis trends do not shrink"):
        (convex_mixture_hypothesis_trends, INCONCLUSIVE, "|f_n(rho_n) - f_0(rho_0)|", BOTH),
    ("convex-mixture", "no shared stable index"):
        (convex_mixture_no_stable_index, INCONCLUSIVE, "stable index sets intersect within window", BOTH),
    ("convex-mixture", "mixture trend does not shrink"):
        (convex_mixture_mixture_trend, INCONCLUSIVE, "|f_n(p_n rho_n + (1-p_n) sigma_n) - f_0(...)|", BOTH),
    ("convex-mixture", "+inf in the mixture only"):
        (convex_mixture_mixture_inf, INCONCLUSIVE, "mixture values finite", BOTH),
    ("truncation-criterion", "trends shrink"):
        (truncation_criterion_consistent, CONSISTENT, "tail sup over m", BOTH),
    ("truncation-criterion", "schedule violated"):
        (truncation_criterion_violated, VIOLATED, "schedule consistency", BOTH),
    ("truncation-criterion", "+inf"):
        (truncation_criterion_inf, INCONCLUSIVE, "finite values on window", BOTH),
    ("truncation-criterion", "head trends do not shrink"):
        (truncation_criterion_head_trends, INCONCLUSIVE, "head residual, m = 2", BOTH),
    ("truncation-criterion", "tails do not vanish"):
        (truncation_criterion_tails, INCONCLUSIVE, "tail sup decreases toward zero over m", (DIAGONAL,)),
    ("re-domination", "trends shrink"):
        (re_domination_consistent, CONSISTENT, "|D(rho2_n||sigma2_n) - D(rho2_0||sigma2_0)|", BOTH),
    ("re-domination", "+inf in the hypothesis"):
        (re_domination_inf_hypothesis, INCONCLUSIVE, "hypothesis D(rho1_n||sigma1_n) finite", BOTH),
    ("re-domination", "+inf conclusion, converging hypothesis"):
        (re_domination_violated, VIOLATED, "conclusion finite where domination guarantees it", BOTH),
    ("re-domination", "+inf conclusion, stuck hypothesis"):
        (re_domination_inf_conclusion_trends, INCONCLUSIVE, "|D(rho1_n||sigma1_n) - D(rho1_0||sigma1_0)|", BOTH),
    ("re-domination", "trends do not shrink"):
        (re_domination_trends, INCONCLUSIVE, "|D(rho1_n||sigma1_n) - D(rho1_0||sigma1_0)|", BOTH),
    ("re-domination", "ordering fails at the declared limit only"):
        (re_domination_limit_ordering_only, CONSISTENT, "|D(rho2_n||sigma2_n) - D(rho2_0||sigma2_0)|", BOTH),
    ("re-domination", "ordering fails at n >= 1"):
        (re_domination_ordering_fails, INCONCLUSIVE, "PSD domination c_rho*rho2_n <= rho1_n", BOTH),
    ("re-sum", "trends shrink"):
        (re_sum_consistent, CONSISTENT, "|D(rho_n+sigma_n||omega_n) - D(rho_0+sigma_0||omega_0)|", BOTH),
    ("re-sum", "shifted trends shrink"):
        (re_sum_shifted_consistent, CONSISTENT, "|D(rho_n+sigma_n||omega_n+theta_n) - D(...limit...)|", BOTH),
    ("re-sum", "+inf in a hypothesis"):
        (re_sum_inf, INCONCLUSIVE, "hypothesis values finite", BOTH),
    ("re-sum", "+inf in D(sigma||theta)"):
        (re_sum_inf_theta, INCONCLUSIVE, "hypothesis D(sigma_n||theta_n) finite", BOTH),
    ("re-sum", "trends do not shrink"):
        (re_sum_trends, INCONCLUSIVE, "|D(sigma_n||omega_n) - D(sigma_0||omega_0)|", BOTH),
    ("channel-mi", "trends shrink"):
        (channel_mi_consistent, CONSISTENT, "|I(Phi_n,p_n rho_n + (1-p_n) sigma_n) - I(Phi_0,...)|", BOTH),
    ("channel-mi", "MI trends do not shrink"):
        (channel_mi_core_trends, INCONCLUSIVE, "|I(Phi_n,p_n rho_n + (1-p_n) sigma_n) - I(Phi_0,...)|", BOTH),
    ("channel-mi", "domination fails"):
        (channel_mi_domination_fails, INCONCLUSIVE, "PSD domination c*rho_n <= sigma_n", BOTH),
    ("channel-mi", "sufficient condition fails"):
        (channel_mi_sufficient_condition, INCONCLUSIVE, "entropy sufficient condition (inputs or outputs)",
         (DIAGONAL,)),
    ("channel-mi", "inputs converge, outputs do not"):
        (channel_mi_outputs_stuck, CONSISTENT, "entropy sufficient condition (inputs or outputs)", BOTH),
    ("channel-mi", "outputs converge, inputs do not"):
        (channel_mi_inputs_stuck, CONSISTENT, "entropy sufficient condition (inputs or outputs)", BOTH),
    ("channel-mi", "output tails do not vanish"):
        (channel_mi_tail, INCONCLUSIVE, "output-entropy tail decreases toward zero over m", (DIAGONAL,)),
    ("appendix-domination", "trends shrink"):
        (appendix_consistent, CONSISTENT, "|a2_n - a2_0|", BOTH),
    ("appendix-domination", "+inf in A_1"):
        (appendix_inf, INCONCLUSIVE, "A_1 values finite on window", BOTH),
    ("appendix-domination", "trends do not shrink"):
        (appendix_trends, INCONCLUSIVE, "|a1_n - a1_0|", BOTH),
    ("appendix-domination", "trends shrink at trace 1e10"):
        (appendix_large_trace, CONSISTENT, "Tr H rho equals the eigenvector quadratic-form sum", BOTH),
    ("appendix-domination", "ordering fails"):
        (appendix_ordering_fails, INCONCLUSIVE, "PSD domination rho2_n <= rho1_n", BOTH),
    ("entropy-jump-probe", "distances shrink, gap in band"):
        (jump_probe_consistent, CONSISTENT, "trace distance to the declared limit", BOTH),
    ("entropy-jump-probe", "gap out of band"):
        (jump_probe_out_of_band, INCONCLUSIVE, "entropy gap within [0.9, 1.1] for n >= 3", BOTH),
    ("entropy-jump-probe", "distances do not shrink"):
        (jump_probe_trends, INCONCLUSIVE, "trace distance to the declared limit", BOTH),
    ("schedule-consistency", "probe trends shrink"):
        (schedule_consistent, CONSISTENT, "probe residual ||(P^n_m - P^0_m)v||, m = 4", BOTH),
    ("schedule-consistency", "rank condition fails"):
        (schedule_violated_rank, VIOLATED, "rank P^n_m <= m", BOTH),
    ("schedule-consistency", "nesting fails"):
        (schedule_violated_nesting, VIOLATED, "P^n_m <= P^n_(m+1)", BOTH),
    ("schedule-consistency", "probe trends do not shrink"):
        (schedule_probe_trends, INCONCLUSIVE, "probe residual ||(P^n_m - P^0_m)v||, m = 1", (DIAGONAL,)),
}

CASES = [
    pytest.param(case, expected, record, basis, id=f"{proc}: {branch} [{basis}]")
    for (proc, branch), (case, expected, record, bases) in STATUS_TABLE.items()
    for basis in bases
]


def _failed_records(verdict):
    """The records that keep a status off consistent: failed checks but notes, gating trends that do not shrink."""
    return ([c for c in verdict.hypothesis_checks if not c.passed and c.role != NOTE]
            + [t for t in verdict.conclusion_trends if t.gates and not t.shrinks])


def _report_explains(verdict: dict) -> bool:
    """From the JSON alone: a status other than consistent shows a failed check or a trend that does not shrink."""
    return (verdict["status"] == CONSISTENT
            or any(not c["passed"] for c in verdict["hypothesis_checks"])
            or any(not t["shrinks"] for t in verdict["conclusion_trends"]))


@pytest.mark.parametrize("case, expected, record, basis", CASES)
def test_status_table(case, expected, record, basis):
    verdict = case(basis)
    assert verdict.status == expected
    assert verdict.to_json()["status"] == expected
    assert _report_explains(verdict.to_json())
    (deciding,) = [r for r in verdict.hypothesis_checks + verdict.conclusion_trends if r.name == record]
    failed = _failed_records(verdict)
    if expected == CONSISTENT:
        assert not failed
        assert deciding.passed if isinstance(deciding, CheckResult) else deciding.gates and deciding.shrinks
    elif expected == VIOLATED:
        assert deciding in failed and deciding.role == INEQUALITY
    else:
        assert deciding in failed and (not isinstance(deciding, CheckResult) or deciding.role == HYPOTHESIS)


# every builtin, and every scenario file but the usage-*.json files, which are refused before any report
REPORTS = sorted(BUILTIN_SCENARIOS) + sorted(
    p.name for p in SCENARIOS.glob("*.json") if not p.name.startswith("usage-"))


@pytest.mark.parametrize("source", REPORTS)
def test_scenario_report_explains_its_status(source):
    scenario = load_scenario(str(SCENARIOS / source)) if source.endswith(".json") else builtin_scenario(source)
    report = json.loads(report_to_json(run_scenario(scenario, seed=3)))
    for entry in report["checks"]:
        if "verdict" in entry:
            assert _report_explains(entry["verdict"]), entry["name"]


def test_every_procedure_reaches_each_status_it_can():
    reached = {}
    for (proc, _), (_, expected, _, _) in STATUS_TABLE.items():
        reached.setdefault(proc, set()).add(expected)
    # re-sum cannot reach "violated" (its per-n sum inequalities are theorems
    # of the relative entropy), nor can appendix-domination (its ladder
    # comparisons are theorems once its orderings hold, it returns
    # inconclusive where they do not, and its spectral identity is checked
    # relative to |Tr H rho|), and neither can
    # convex-mixture, channel-mi or the entropy-jump probe, which assert no
    # inequality
    for proc in ("dct-basic", "dct-simon", "truncation-criterion", "re-domination",
                 "schedule-consistency"):
        assert reached[proc] == {CONSISTENT, VIOLATED, INCONCLUSIVE}, proc
    for proc in ("convex-mixture", "re-sum", "channel-mi", "entropy-jump-probe", "appendix-domination"):
        assert reached[proc] == {CONSISTENT, INCONCLUSIVE}, proc


def _status_name_references(path):
    tree = ast.parse(path.read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in ("CONSISTENT", "INCONCLUSIVE"):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and node.attr in ("CONSISTENT", "INCONCLUSIVE"):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
            found.extend((a.name, node.lineno) for a in node.names
                         if a.name in ("CONSISTENT", "INCONCLUSIVE"))
    return found


def test_only_verdicts_names_a_status():
    """No module but verdicts decides a status: none names CONSISTENT or INCONCLUSIVE.

    The package __init__ may re-export the names for callers; it uses neither.
    """
    offenders = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "verdicts.py":
            continue
        refs = _status_name_references(path)
        if refs:
            offenders[path.name] = refs
    assert not offenders


# ---------------------------------------------------------------------------
# The dominated gap grid when the sigma limit vanishes

# tau_n = rho_n / 2 + 2^-n diag(0.1, 0.05, 0), so sigma_0 = tau_0 - rho_0 / 2 = 0
# while sigma_n does not vanish: the paper's domination with equality in the limit
VANISHING_SIGMA_LIMIT = ([0.5, 0.3, 0.2], ([0.25, 0.15, 0.1], [0.1, 0.05, 0.0]), 0.5)


@pytest.mark.parametrize("basis", BOTH)
def test_vanishing_sigma_limit_adds_no_multiplicity_floor(basis):
    """Every m is a stable index of the zero sigma limit, so rows and m_floor start at m = 1."""
    rho_diag, tau_parts, c = VANISHING_SIGMA_LIMIT
    tau = _seq(*tau_parts, basis)
    scheme = ApproximationScheme("dominated", c, _const(rho_diag, basis))
    assert scheme.m_floor(tau) == 1
    grid = approximation_gap_grid(entropy_family(), tau, scheme, 6, 3)
    assert grid.m_range == (1, 2, 3)
    assert len(grid.cells) == 7 * 3
    assert not any(cell.flags for cell in grid.cells)
    # sigma_0 = 0 is not cut, so the n = 0 row is c Psi_m(rho_0); sigma_n adds its top value at m = 1
    assert [cell.mu for cell in grid.cells[:4]] == pytest.approx([0.25, 0.4, 0.5, 0.25 + 0.05])


def test_vanishing_sigma_limit_scenario_exits_zero():
    result = CliRunner().invoke(main, ["run", str(SCENARIOS / "vanishing-sigma-limit.json")])
    assert result.exit_code == 0, result.output
    assert '"m_range":[1,2,3]' in result.output


def test_near_tie_chain_scenario_exits_zero():
    # rho_0 = diag(1, 1 - 0.6 GAP, 1 - 1.2 GAP, 0.5, 0.25, 0.1): the chain of near-ties is one
    # multiplicity group, so the commuting schedule and the dominated grid both start at m = 3
    result = CliRunner().invoke(main, ["run", str(SCENARIOS / "near-tie-chain.json")])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    criterion = report["checks"][0]
    assert criterion["matched"] and criterion["verdict"]["status"] == "consistent"
    assert [g["grid"]["m_range"] for g in report["grids"]] == [[3, 4, 5, 6]]


# ---------------------------------------------------------------------------
# A broken domination c rho_n <= tau_n is an unmet hypothesis, not an error


@pytest.mark.parametrize("case, name", [
    (dct_simon_domination_fails, "PSD domination c*rho_n <= tau_n"),
    (channel_mi_domination_fails, "PSD domination c*rho_n <= sigma_n"),
])
@pytest.mark.parametrize("basis", BOTH)
def test_broken_domination_is_a_failed_hypothesis_check(case, name, basis):
    verdict = case(basis)
    failed = [check for check in verdict.hypothesis_checks if not check.passed]
    assert [check.name for check in failed] == [name]
    assert failed[0].slack < 0.0 and failed[0].detail.startswith("fails at n = 0")
    assert verdict.hypothesis_checks[-1] is failed[0]


@pytest.mark.parametrize("case", [dct_simon_consistent, channel_mi_consistent])
def test_held_domination_adds_no_check(case):
    assert not any(check.name.startswith("PSD domination") for check in case(DIAGONAL).hypothesis_checks)


@pytest.mark.parametrize("case, name, n", [
    (re_domination_ordering_fails, "PSD domination c_rho*rho2_n <= rho1_n", 1),
    (appendix_ordering_fails, "PSD domination rho2_n <= rho1_n", 0),
])
@pytest.mark.parametrize("basis", BOTH)
def test_broken_ordering_returns_before_any_inequality(case, name, n, basis):
    verdict = case(basis)
    failed = [check for check in verdict.hypothesis_checks if not check.passed]
    assert [check.name for check in failed] == [name]
    assert failed[0].slack < 0.0 and failed[0].detail.startswith(f"fails at n = {n}:")
    # nothing that rests on the ordering is evaluated, so nothing can read violated
    assert verdict.status != VIOLATED and not verdict.conclusion_trends and not verdict.values


def test_simon_dct_at_c5_scenario_exits_zero():
    result = CliRunner().invoke(main, ["run", str(SCENARIOS / "simon-dct-c5.json")])
    assert result.exit_code == 0, result.output
    assert '"status":"inconclusive"' in result.output
    assert '"name":"PSD domination c*rho_n <= tau_n","passed":false' in result.output


def test_subnormalized_dct_simon_scenario_exits_zero():
    # Tr rho_n = 0.1 and Tr tau_n = 0.2: the truncation lower bound reads the normalized states
    result = CliRunner().invoke(main, ["run", str(SCENARIOS / "dct-simon-subnormalized.json")])
    assert result.exit_code == 0, result.output
    assert '"status":"consistent"' in result.output
    assert '"name":"per-cell truncation lower bound","passed":true' in result.output


def test_channel_mi_fixed_basis_scenario_exits_zero():
    # the output-entropy tails on a basis that is not rho_n's own take the per-cell form end to end
    result = CliRunner().invoke(main, ["run", str(SCENARIOS / "channel-mi-fixed-basis.json")])
    assert result.exit_code == 0, result.output
    assert '"status":"consistent"' in result.output
    assert '"name":"output-entropy tail decreases toward zero over m","passed":true' in result.output


@pytest.mark.parametrize("name, status", [("convex-mixture", "consistent"),
                                          ("convex-mixture-nonconv", "inconclusive")])
def test_convex_mixture_scenarios_exit_zero(name, status):
    # the negative control's sigma_n oscillates, so |f_n(sigma_n) - f_0(sigma_0)| does not shrink
    result = CliRunner().invoke(main, ["run", str(SCENARIOS / f"{name}.json")])
    assert result.exit_code == 0, result.output
    (check,) = json.loads(result.output)["checks"]
    assert check["matched"] and check["verdict"]["status"] == status
    trends = {trend["name"]: trend["shrinks"] for trend in check["verdict"]["conclusion_trends"]}
    assert trends["|f_n(sigma_n) - f_0(sigma_0)|"] == (status == "consistent")


def test_n_0_past_the_window_is_a_usage_error():
    # entropy-discontinuity with n_0 = 99 and n_max = 6: no tail sup exists
    result = CliRunner().invoke(main, ["run", str(SCENARIOS / "usage-n0-past-window.json")])
    assert result.exit_code == 2, result.output
    assert "n_0 = 99 is outside the window 0 <= n <= n_max = 6" in result.output
