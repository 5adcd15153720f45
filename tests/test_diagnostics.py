import math
import pathlib

import numpy as np
import pytest

from qdini import (
    ApproximationScheme,
    ChannelSequence,
    DensityOperator,
    OperatorSequence,
    PositiveOperator,
    Spectrum,
    appendix_domination,
    approximation_gap_grid,
    channel_mi_checks,
    channel_mi_family,
    check_convex_mixture,
    check_dct_basic,
    check_dct_simon,
    constant_sequence,
    dominated_truncation,
    depolarizing_channel,
    entropy_family,
    fixed_basis_schedule,
    g_c_linear,
    laa_check,
    truncation_lower_bound_slack,
    random_density,
    relative_entropy_domination,
    relative_entropy_family,
    relative_entropy_sum,
    residual_shrinks,
    shrinks_toward_zero,
    trace_neg_log_family,
    truncation_criterion,
    von_neumann_entropy,
    windowed_sup,
    binary_entropy_extension,
    builtin_scenario,
    run_scenario,
)
from qdini import diagnostics, entropies
from qdini.diagnostics import ZERO_MODULUS, FunctionalFamily
from qdini.scenarios import BUILTIN_SCENARIOS, load_scenario
from qdini.verdicts import CONSISTENT, INCONCLUSIVE, VIOLATED

SCENARIOS = pathlib.Path(__file__).resolve().parent / "scenarios"


def _diag_seq(limit, pert, rate=0.5):
    limit = np.asarray(limit, dtype=float)
    pert = np.asarray(pert, dtype=float)

    def member(n):
        if n == 0:
            return PositiveOperator(diagonal=limit)
        return PositiveOperator(diagonal=limit + rate ** n * pert)

    return OperatorSequence(member, limit.size)


class TestTrendRule:
    def test_halving_with_majority_decrease(self):
        assert residual_shrinks([1.0, 0.8, 0.6, 0.4, 0.2])

    def test_last_not_halved_fails(self):
        assert not residual_shrinks([1.0, 0.9, 0.8, 0.7, 0.6])

    def test_majority_rule(self):
        # last < first/2 but most steps increase
        assert not residual_shrinks([1.0, 2.0, 3.0, 4.0, 0.3])

    def test_all_zero_counts_as_shrunk(self):
        assert residual_shrinks([0.0, 0.0, 0.0])

    def test_zero_plateau_steps_count_as_decreasing(self):
        vals = [1.0, 1.0] + [0.0] * 9
        assert residual_shrinks(vals)

    def test_nonfinite_never_shrinks(self):
        assert not residual_shrinks([1.0, math.inf, 0.1])

    def test_toward_zero_needs_small_last_value(self):
        # halves but plateaus far from zero
        assert not shrinks_toward_zero([10.0, 8.0, 6.0, 5.0, 4.5, 4.0])
        assert shrinks_toward_zero([10.0, 5.0, 2.0, 1.0, 0.5, 0.2])

    def test_windowed_sup_uses_tail_half(self):
        # tail length ceil(n_max/2) = 2
        assert windowed_sup([5.0, 4.0, 3.0, 2.0, 1.0], 4) == 2.0

    def test_windowed_sup_refuses_an_empty_window(self):
        with pytest.raises(ValueError, match="the window needs n_max >= 1"):
            windowed_sup([], 0)


class TestGapGrid:
    def test_gap_vanishes_at_full_rank_cut(self):
        rho = DensityOperator(diagonal=[0.5, 0.3, 0.2])
        grid = approximation_gap_grid(entropy_family(), constant_sequence(rho),
                                      ApproximationScheme(), n_max=2, m_max=3)
        cell = grid.cell(0, 3)
        assert abs(cell.gap) < 1e-12
        assert abs(cell.mu - 1.0) < 1e-12
        assert cell.tail == 0.0

    def test_gap_closed_form_at_m_one(self):
        lam = np.array([0.6, 0.4])
        rho = DensityOperator(diagonal=lam)
        grid = approximation_gap_grid(entropy_family(), constant_sequence(rho),
                                      ApproximationScheme(), n_max=0, m_max=2)
        s = float(-np.sum(lam * np.log(lam)))
        # S([Psi_1]) = 0 for the pure truncated state
        assert abs(grid.cell(0, 1).gap - s) < 1e-12

    def test_inf_cells_flagged_not_fatal(self):
        sigma = constant_sequence(PositiveOperator(diagonal=[1.0, 0.0]))
        rho = DensityOperator(diagonal=[0.5, 0.5])
        grid = approximation_gap_grid(relative_entropy_family(sigma), constant_sequence(rho),
                                      ApproximationScheme(), n_max=0, m_max=2)
        flagged = [c for c in grid.cells if "inf-gap" in c.flags or "inf-tail" in c.flags]
        assert flagged

    def test_csv_shape(self):
        rho = DensityOperator(diagonal=[0.7, 0.3])
        grid = approximation_gap_grid(entropy_family(), constant_sequence(rho),
                                      ApproximationScheme(), n_max=1, m_max=2)
        lines = grid.to_csv().strip().split("\n")
        assert lines[0] == "n,m,mu,gap,tail,flags"
        assert len(lines) == 1 + 2 * 2


class TestTruncationBoundAndLaa:
    def test_entropy_lower_bound_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            rho = random_density(rng, 5)
            slack = truncation_lower_bound_slack(entropy_family(), constant_sequence(rho),
                                    ApproximationScheme(), n_max=0, m_max=5)
            assert slack >= -1e-9

    def test_laa_entropy_sides(self):
        rng = np.random.default_rng(1)
        fam = entropy_family()
        for _ in range(20):
            rho = random_density(rng, 4)
            sigma = random_density(rng, 4)
            a_slack, b_slack = laa_check(fam, 0, rho, sigma, 0.3)
            # entropy is concave (a_f = 0) with mixing defect bounded by h2
            assert a_slack >= -1e-9
            assert b_slack >= -1e-9

    def test_g_c_linear(self):
        g = g_c_linear(0.5)
        assert g(1.0) == 2.0


class TestDctBasic:
    def test_entropy_dominates_itself(self):
        seq = _diag_seq([0.5, 0.3, 0.2], [0.1, -0.05, -0.05])
        v = check_dct_basic(entropy_family(), entropy_family(), seq, n_max=10, m_max=3)
        assert v.status == CONSISTENT
        assert v.trend_only

    def test_infinite_f_is_inconclusive(self):
        sigma = constant_sequence(PositiveOperator(diagonal=[1.0, 0.0, 0.0]))
        seq = _diag_seq([0.4, 0.3, 0.3], [0.1, -0.05, -0.05])
        v = check_dct_basic(relative_entropy_family(sigma), entropy_family(), seq,
                            n_max=6, m_max=3)
        assert v.status == INCONCLUSIVE

    def test_domination_failure_is_violated(self):
        # g = S + const cannot be dominated by f = S at pure truncations
        seq = _diag_seq([0.5, 0.5, 0.0], [0.2, -0.2, 0.0])
        sigma = constant_sequence(PositiveOperator(diagonal=[0.1, 0.1, 0.1]))
        v = check_dct_basic(entropy_family(), trace_neg_log_family(sigma), seq,
                            n_max=6, m_max=3)
        assert v.status == VIOLATED
        dom = next(c for c in v.hypothesis_checks if c.name.startswith("|g_n|"))
        assert not dom.passed


class TestDctSimon:
    def test_rejects_broken_domination(self):
        # an unmet hypothesis is a failed check, not an error; the per-cell
        # bound reads the normalized [tau_n], so it holds on this trace-0.2
        # tau and the failed domination alone keeps the status off consistent
        rho = _diag_seq([0.5, 0.5], [0.1, -0.1])
        tau = constant_sequence(PositiveOperator(diagonal=[0.1, 0.1]))
        v = check_dct_simon(entropy_family(), rho, tau, 1.0, 4, 2)
        assert v.status == INCONCLUSIVE
        dom = v.hypothesis_checks[-1]
        assert dom.name == "PSD domination c*rho_n <= tau_n" and not dom.passed
        assert dom.slack == pytest.approx(-0.4) and "n = 0" in dom.detail

    def test_subnormalized_pair_is_not_violated(self):
        # 0.5 rho_n <= tau_n holds with Tr rho_n = 0.1 and Tr tau_n = 0.2; the
        # truncation lower bound compares f_n([rho_n]), so operators that
        # are not states no longer read a false violation
        rho = _diag_seq([0.06, 0.04], [0.01, -0.01])
        tau = _diag_seq([0.12, 0.08], [0.01, -0.01])
        v = check_dct_simon(entropy_family(), rho, tau, 0.5, 6, 2)
        bound = v.hypothesis_checks[1]
        assert bound.name == "per-cell truncation lower bound" and bound.passed
        assert bound.slack >= -1e-12
        assert v.status == CONSISTENT

    def test_lower_bound_is_homogeneous(self):
        rho = _diag_seq([0.5, 0.3, 0.2], [0.05, -0.02, -0.03])
        scaled = OperatorSequence(lambda n: rho(n).scale(0.2), 3)
        scheme = ApproximationScheme("spectral")
        assert truncation_lower_bound_slack(entropy_family(), scaled, scheme, 6, 3) == pytest.approx(
            truncation_lower_bound_slack(entropy_family(), rho, scheme, 6, 3), abs=1e-12)

    def test_self_domination_consistent(self):
        seq = _diag_seq([0.5, 0.3, 0.2], [0.05, -0.02, -0.03])
        v = check_dct_simon(entropy_family(), seq, seq, 1.0, 10, 3)
        assert v.status == CONSISTENT
        assert "A_window" in v.values

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_a_family_value_off_the_extended_reals_is_refused(self, bad):
        # +inf is a value; NaN and -inf are not, whatever a custom family returns
        seq = _diag_seq([0.5, 0.3, 0.2], [0.05, -0.02, -0.03])
        family = FunctionalFamily("Custom", "bad", lambda n, op: bad, a_f=ZERO_MODULUS)
        with pytest.raises(ValueError, match=r"expected a value in \(-inf, \+inf\]"):
            check_dct_simon(family, seq, seq, 1.0, 4, 2)


class TestConvexMixture:
    def test_consistent_on_converging_pair(self):
        rho = _diag_seq([0.6, 0.25, 0.15], [0.05, -0.03, -0.02])
        sigma = _diag_seq([0.2, 0.5, 0.3], [-0.02, 0.05, -0.03])
        p = [0.5] + [0.5 + 0.1 * 0.5 ** n for n in range(1, 11)]
        v = check_convex_mixture(entropy_family(), rho, sigma, p, n_max=10, m_max=3)
        assert v.status == CONSISTENT

    def test_rejects_short_p_seq(self):
        rho = _diag_seq([0.6, 0.4], [0.05, -0.05])
        with pytest.raises(ValueError):
            check_convex_mixture(entropy_family(), rho, rho, [0.5, 0.5], n_max=4, m_max=2)


@pytest.mark.parametrize("p_seq, match", [
    ([0.5, 0.5], "need 5 entries, got 2"),
    ([0.5, 1.5, 0.5, 0.5, 0.5], "1.5 lies outside"),
    ([0.5, 0.5, -0.1, 0.5, 0.5], "-0.1 lies outside"),
    ([0.5, 0.5, 0.5, float("nan"), 0.5], "nan lies outside"),
])
def test_mixture_checks_refuse_bad_weights(p_seq, match):
    rho = _diag_seq([0.6, 0.4], [0.05, -0.05])
    sigma = constant_sequence(PositiveOperator(diagonal=[0.5, 0.5]))
    channels = ChannelSequence(lambda n: depolarizing_channel(0.1), 2, 2)
    with pytest.raises(ValueError, match=match):
        check_convex_mixture(entropy_family(), rho, sigma, p_seq, n_max=4, m_max=2)
    with pytest.raises(ValueError, match=match):
        channel_mi_checks(channels, rho, sigma, 0.5, p_seq, n_max=4, m_max=2)


# domination constants that are not finite and > 0: each entry point refuses them with one message
BAD_CONSTANTS = pytest.mark.parametrize("c", [0.0, -0.5, math.nan, math.inf], ids=["0", "-0.5", "nan", "inf"])


@BAD_CONSTANTS
def test_scheme_refuses_a_bad_constant(c):
    with pytest.raises(ValueError, match=r"^c must be finite and > 0, got "):
        ApproximationScheme("dominated", c, _diag_seq([0.6, 0.4], [0.05, -0.05]))


@BAD_CONSTANTS
def test_dominated_truncation_refuses_a_bad_constant(c):
    rho = PositiveOperator(diagonal=[0.6, 0.4])
    with pytest.raises(ValueError, match=r"^c must be finite and > 0, got "):
        dominated_truncation(rho.scale(2.0), rho, c, 1, rho, rho)


@BAD_CONSTANTS
def test_dct_simon_refuses_a_bad_constant(c):
    rho = _diag_seq([0.6, 0.4], [0.05, -0.05])
    with pytest.raises(ValueError, match=r"^c must be finite and > 0, got "):
        check_dct_simon(entropy_family(), rho, rho, c, 4, 2)


@BAD_CONSTANTS
def test_channel_mi_checks_refuse_a_bad_constant(c):
    rho = _diag_seq([0.6, 0.4], [0.05, -0.05])
    channels = ChannelSequence(lambda n: depolarizing_channel(0.1), 2, 2)
    with pytest.raises(ValueError, match=r"^c must be finite and > 0, got "):
        channel_mi_checks(channels, rho, rho, c, [0.5] * 5, n_max=4, m_max=2)


@BAD_CONSTANTS
@pytest.mark.parametrize("name", ["c_rho", "c_sigma"])
def test_relative_entropy_domination_refuses_a_bad_constant(name, c):
    rho1, rho2, sigma1, sigma2 = TestRelativeEntropyDomination()._pair()
    with pytest.raises(ValueError, match=rf"^{name} must be finite and > 0, got "):
        relative_entropy_domination(rho1, rho2, sigma1, sigma2, n_max=4, **{name: c})


class TestTruncationCriterion:
    def test_consistent_when_tails_vanish(self):
        seq = _diag_seq([0.7, 0.2, 0.06, 0.04], [0.02, -0.01, -0.005, -0.005])
        sched = fixed_basis_schedule(4, 4, seq, n_max=8)
        v = truncation_criterion(entropy_family(), seq, sched, n_0=1, n_max=8, m_max=4)
        assert v.status == CONSISTENT
        tails = v.values["tail_sup_per_m"]
        assert tails[-1] < 1e-10

    def test_inconclusive_when_tails_stay_large(self):
        # flat spectrum: entropy tails halve but stay far from zero over the
        # scanned m-window, so the toward-zero test fails
        seq = constant_sequence(DensityOperator(diagonal=np.full(8, 1.0 / 8)))
        sched = fixed_basis_schedule(8, 8, seq, n_max=6)
        v = truncation_criterion(entropy_family(), seq, sched, n_0=1, n_max=6, m_max=4)
        assert v.status == INCONCLUSIVE
        tail_check = next(c for c in v.hypothesis_checks if "tail sup" in c.name)
        assert not tail_check.passed


class TestRelativeEntropyDomination:
    def _pair(self):
        rho1 = _diag_seq([0.4, 0.35, 0.25], [0.02, -0.01, -0.01])
        rho2 = _diag_seq([0.2, 0.175, 0.125], [0.01, -0.005, -0.005])
        sigma1 = _diag_seq([0.3, 0.3, 0.4], [0.01, 0.01, -0.02])
        sigma2 = _diag_seq([0.6, 0.6, 0.8], [0.02, 0.02, -0.04])
        return rho1, rho2, sigma1, sigma2

    def test_consistent_on_ordered_quadruple(self):
        v = relative_entropy_domination(*self._pair(), n_max=10)
        assert v.status == CONSISTENT
        assert len(v.values["hypothesis"]) == 11

    def test_broken_ordering_on_members_is_inconclusive(self):
        rho1, rho2, sigma1, sigma2 = self._pair()
        v = relative_entropy_domination(rho2, rho1, sigma1, sigma2, n_max=4)
        assert v.status == INCONCLUSIVE
        assert [c.name for c in v.hypothesis_checks if not c.passed] == [
            "orderings hold at the declared limit", "PSD domination c_rho*rho2_n <= rho1_n"]
        assert v.hypothesis_checks[-1].detail.startswith("fails at n = 1")

    def test_planted_infinite_conclusion_is_violated(self):
        # conclusion hits +inf at the declared limit while the hypothesis
        # converges: reported as a violation, not an input error
        rho1 = _diag_seq([0.5, 0.3, 0.0], [0.02, -0.01, 0.05])
        sigma1 = _diag_seq([0.3, 0.3, 0.0], [0.01, -0.01, 0.05])

        def rho2_member(n):
            if n == 0:
                return PositiveOperator(diagonal=[0.25, 0.15, 0.05])
            return PositiveOperator(diagonal=[0.25, 0.15, 0.04 * 0.5 ** n])

        rho2 = OperatorSequence(rho2_member, 3)
        sigma2 = OperatorSequence(lambda n: sigma1(n).scale(2.0), 3)
        v = relative_entropy_domination(rho1, rho2, sigma1, sigma2, n_max=10)
        assert v.status == VIOLATED


class TestRelativeEntropySum:
    def test_per_n_inequalities_and_trends(self):
        rho = _diag_seq([0.3, 0.2, 0.1], [0.02, -0.01, -0.01])
        sigma = _diag_seq([0.1, 0.2, 0.3], [-0.01, 0.02, -0.01])
        omega = _diag_seq([0.4, 0.3, 0.3], [0.01, -0.01, 0.0])
        v = relative_entropy_sum(rho, sigma, omega, n_max=10)
        assert v.status == CONSISTENT
        guard = next(c for c in v.hypothesis_checks if "sum inequalities" in c.name)
        assert guard.passed
        assert guard.slack >= -1e-9

    def test_shifted_variant_tracked(self):
        rho = _diag_seq([0.3, 0.2, 0.1], [0.02, -0.01, -0.01])
        sigma = _diag_seq([0.1, 0.2, 0.3], [-0.01, 0.02, -0.01])
        omega = _diag_seq([0.4, 0.3, 0.3], [0.01, -0.01, 0.0])
        theta = _diag_seq([0.2, 0.3, 0.4], [0.0, 0.01, -0.01])
        v = relative_entropy_sum(rho, sigma, omega, n_max=10, theta_seq=theta)
        assert "shifted_conclusion" in v.values
        assert v.status == CONSISTENT


class TestAppendixDomination:
    def test_consistent_with_monotone_ladder(self):
        rho1 = _diag_seq([0.5, 0.3, 0.2], [0.02, -0.01, -0.01])
        rho2 = OperatorSequence(lambda n: rho1(n).scale(0.6), 3)
        sigma1 = _diag_seq([0.2, 0.3, 0.5], [0.01, -0.01, 0.0])
        sigma2 = OperatorSequence(lambda n: sigma1(n).scale(1.5), 3)
        v = appendix_domination(rho1, rho2, sigma1, sigma2,
                                k_schedule=[1, 10, 100, 1000], n_max=8)
        assert v.status == CONSISTENT
        assert v.values["A_2"] - v.values["Delta"] <= float(v.values["A_1"]) + 1e-6

    def test_unordered_inputs_are_inconclusive(self):
        rho1 = _diag_seq([0.5, 0.5], [0.0, 0.0])
        rho2 = OperatorSequence(lambda n: rho1(n).scale(2.0), 2)
        v = appendix_domination(rho1, rho2, rho1, rho1, k_schedule=[1, 10], n_max=2)
        assert v.status == INCONCLUSIVE
        (check,) = v.hypothesis_checks
        assert check.name == "PSD domination rho2_n <= rho1_n" and not check.passed
        assert check.slack == pytest.approx(-0.5) and check.detail.startswith("fails at n = 0")

    def test_spectral_identity_is_checked_on_diagonal_pairs(self, monkeypatch):
        rho1 = _diag_seq([0.5, 0.3, 0.2], [0.02, -0.01, -0.01])
        rho2 = OperatorSequence(lambda n: rho1(n).scale(0.6), 3)
        sigma1 = _diag_seq([0.2, 0.3, 0.5], [0.01, -0.01, 0.0])
        sigma2 = OperatorSequence(lambda n: sigma1(n).scale(1.5), 3)
        assert rho1(0).is_diagonal and sigma1(0).is_diagonal
        weights = Spectrum.weights
        monkeypatch.setattr(Spectrum, "weights", lambda spec, a: weights(spec, a) * (1.0 + 1e-6))
        v = appendix_domination(rho1, rho2, sigma1, sigma2, k_schedule=[1, 10], n_max=4)
        identity = next(c for c in v.hypothesis_checks if c.name.startswith("Tr H rho"))
        assert not identity.passed and identity.slack < 0.0
        assert v.status == VIOLATED

    def test_ladders_compute_no_limit_estimate_and_keep_their_checks(self, monkeypatch):
        rho1 = _diag_seq([0.5, 0.3, 0.2], [0.02, -0.01, -0.01])
        rho2 = OperatorSequence(lambda n: rho1(n).scale(0.6), 3)
        sigma1 = _diag_seq([0.2, 0.3, 0.5], [0.01, -0.01, 0.0])
        sigma2 = OperatorSequence(lambda n: sigma1(n).scale(1.5), 3)
        # a1_n and a2_n come from the pair kernel: no ladder computes the scalar limit estimate
        monkeypatch.setattr(entropies, "trace_neg_log", None)
        v = appendix_domination(rho1, rho2, sigma1, sigma2, k_schedule=[1, 10, 100], n_max=4)
        assert v.status == CONSISTENT
        with pytest.raises(ValueError, match="k_values must be strictly increasing positive integers"):
            appendix_domination(rho1, rho2, sigma1, sigma2, k_schedule=[10, 10], n_max=4)

    def test_infinite_hypothesis_inconclusive(self):
        rho1 = _diag_seq([0.5, 0.5], [0.02, -0.02])
        rho2 = OperatorSequence(lambda n: rho1(n).scale(0.5), 2)
        sigma = constant_sequence(PositiveOperator(diagonal=[1.0, 0.0]))
        v = appendix_domination(rho1, rho2, sigma, sigma, k_schedule=[1, 10], n_max=4)
        assert v.status == INCONCLUSIVE


def _check(verdict, name: str):
    (check,) = [c for c in verdict.hypothesis_checks if c.name == name]
    return check


def _passes_on_builtin(builtin: str, name: str) -> bool:
    """Whether the named check passes in the report of a builtin, or of a scenario file under tests/scenarios."""
    scenario = builtin_scenario(builtin) if builtin in BUILTIN_SCENARIOS else load_scenario(str(SCENARIOS / builtin))
    verdicts = [entry["verdict"] for entry in run_scenario(scenario, seed=3)["checks"] if "verdict" in entry]
    (check,) = [c for v in verdicts for c in v["hypothesis_checks"] if c["name"] == name]
    return check["passed"]


def _only_failing_record(verdict) -> str:
    """The name of the one failed check or gating trend that does not shrink; the status rests on it alone."""
    (record,) = ([c.name for c in verdict.hypothesis_checks if not c.passed]
                 + [t.name for t in verdict.conclusion_trends if t.gates and not t.shrinks])
    return record


def _infinite_where(pred, label: str) -> FunctionalFamily:
    """S(op), but +inf at the (n, op) where pred holds."""
    return FunctionalFamily("Custom", label, lambda n, op: math.inf if pred(n, op)
                            else von_neumann_entropy(op), a_f=ZERO_MODULUS)


def _zero_last_level_at(seq: OperatorSequence, k: int) -> OperatorSequence:
    """seq with the last diagonal entry of member k set to 0."""
    def member(n):
        if n != k:
            return seq(n)
        d = seq(n).diag.copy()
        d[-1] = 0.0
        return PositiveOperator(diagonal=d)
    return OperatorSequence(member, seq.dim)


class TestPinnedChecks:
    """Each check fails on an input made to break it, and passes on its builtin.

    The status is derived from the reported records, so where an input
    makes a check the only failing record, the status rests on that check
    alone and a check that reads passed would read consistent.
    """

    def test_re_domination_infinite_hypothesis(self):
        name = "hypothesis D(rho1_n||sigma1_n) finite"
        rho1 = _diag_seq([0.4, 0.35, 0.25], [0.02, -0.01, -0.01])
        rho2 = OperatorSequence(lambda n: rho1(n).scale(0.5), 3)
        # sigma1_3 misses a level that rho1_3 fills; sigma2_3 = 2 sigma1_3 keeps the ordering
        sigma1 = _zero_last_level_at(_diag_seq([0.3, 0.3, 0.4], [0.01, 0.01, -0.02]), 3)
        sigma2 = OperatorSequence(lambda n: sigma1(n).scale(2.0), 3)
        v = relative_entropy_domination(rho1, rho2, sigma1, sigma2, n_max=8)
        assert math.isinf(v.values["hypothesis"][3]) and not _check(v, name).passed
        assert v.status == INCONCLUSIVE
        assert _passes_on_builtin("re-domination", name)

    def test_re_sum_infinite_hypothesis(self):
        name = "hypothesis values finite"
        rho = _diag_seq([0.3, 0.2, 0.1], [0.02, -0.01, -0.01])
        sigma = _diag_seq([0.1, 0.2, 0.3], [-0.01, 0.02, -0.01])
        omega = _zero_last_level_at(_diag_seq([0.4, 0.3, 0.3], [0.01, -0.01, 0.0]), 2)
        v = relative_entropy_sum(rho, sigma, omega, n_max=8)
        assert not _check(v, name).passed and v.status == INCONCLUSIVE
        assert _passes_on_builtin("re-sum", name)

    def test_re_sum_broken_inequality(self, monkeypatch):
        name = "per-n sum inequalities"
        rho = _diag_seq([0.3, 0.2, 0.1], [0.02, -0.01, 0.01])  # Tr rho_n = 0.6 + 0.02 / 2^n tells n apart
        sigma = _diag_seq([0.1, 0.2, 0.3], [-0.01, 0.02, -0.01])
        omega = _diag_seq([0.4, 0.3, 0.3], [0.01, -0.01, 0.0])
        at_3 = (rho(3).trace(), sigma(3).trace())
        # the upper bound of n = 3 lowered by 1 falls below D(rho_3 + sigma_3||omega_3)
        monkeypatch.setattr(diagnostics, "binary_entropy_extension",
                            lambda x, y: binary_entropy_extension(x, y) - ((x, y) == at_3))
        v = relative_entropy_sum(rho, sigma, omega, n_max=8)
        check = _check(v, name)
        assert not check.passed and check.slack < -0.5
        assert check.detail.startswith("sum upper bound fails at n = 3 by ")
        assert v.status == VIOLATED
        monkeypatch.undo()
        assert _passes_on_builtin("re-sum", name)

    def test_appendix_infinite_a1(self):
        name = "A_1 values finite on window"
        rho1 = _diag_seq([0.5, 0.3, 0.2], [0.02, -0.01, -0.01])
        rho2 = OperatorSequence(lambda n: rho1(n).scale(0.6), 3)
        sigma1 = _zero_last_level_at(_diag_seq([0.2, 0.3, 0.5], [0.01, -0.01, 0.0]), 5)
        sigma2 = OperatorSequence(lambda n: sigma1(n).scale(1.5), 3)
        v = appendix_domination(rho1, rho2, sigma1, sigma2, k_schedule=[1, 10], n_max=8)
        assert not _check(v, name).passed and v.status == INCONCLUSIVE
        assert _passes_on_builtin("appendix-ladder", name)

    def test_dct_basic_infinite_f_on_members(self):
        name = "f values finite on window"
        # Tr rho_n = 2: f is +inf on the members only, finite on every normalized sample and LAA mixture
        seq = OperatorSequence(lambda n: _diag_seq([0.5, 0.3, 0.2], [0.05, -0.02, -0.03])(n).scale(2.0), 3)
        f = _infinite_where(lambda n, op: op.trace() > 1.5, "S unless Tr > 1.5")
        v = check_dct_basic(f, entropy_family(), seq, n_max=6, m_max=3)
        assert _only_failing_record(v) == name and v.status == INCONCLUSIVE
        assert _passes_on_builtin("choi-rank-bound", name)

    def test_dct_simon_infinite_f_at_tau_0(self):
        name = "f_0(tau_0) finite"
        # rho_n = tau_n / 2, so [rho_0] = [tau_0] and f_0 is +inf there: only the per-cell bound's
        # normalized cells at n = 0 and f_0(tau_0) itself are +inf, and the bound skips +inf cells
        tau = _diag_seq([0.5, 0.3, 0.2], [0.05, -0.02, -0.03])
        rho = OperatorSequence(lambda n: tau(n).scale(0.5), 3)
        f = _infinite_where(lambda n, op: n == 0 and op.trace() > 0.9, "S unless n = 0 and Tr > 0.9")
        v = check_dct_simon(f, rho, tau, 1.0, 6, 3)
        assert _only_failing_record(v) == name and v.status == INCONCLUSIVE
        assert _passes_on_builtin("simon-dct", name)

    def test_convex_mixture_infinite_hypothesis(self):
        name = "hypothesis values finite"
        # f is +inf on rank-2 states: on rho_n, but on no mixture with the full-rank sigma_n
        rho = _diag_seq([0.6, 0.4, 0.0], [0.05, -0.05, 0.0])
        sigma = _diag_seq([0.2, 0.5, 0.3], [-0.02, 0.05, -0.03])
        f = _infinite_where(lambda n, op: op.rank() < 3, "S unless rank < 3")
        p = [0.5] + [0.5 + 0.1 * 0.5 ** n for n in range(1, 9)]
        v = check_convex_mixture(f, rho, sigma, p, n_max=8, m_max=3)
        assert _only_failing_record(v) == name and v.status == INCONCLUSIVE
        assert _passes_on_builtin("convex-mixture.json", name)

    def test_truncation_criterion_infinite_head(self):
        name = "finite values on window"
        # f is +inf on the heads P^n_1 rho_n P^n_1 (trace near 0.7) only: their head trend drops
        # out, and every other head and every tail stays finite
        seq = _diag_seq([0.7, 0.2, 0.06, 0.04], [0.02, -0.01, -0.005, -0.005])
        f = _infinite_where(lambda n, op: 0.6 < op.trace() < 0.8, "S unless 0.6 < Tr < 0.8")
        schedule = fixed_basis_schedule(4, 4, seq, n_max=8)
        v = truncation_criterion(f, seq, schedule, n_0=1, n_max=8, m_max=4)
        assert _only_failing_record(v) == name and v.status == INCONCLUSIVE
        assert _passes_on_builtin("entropy-discontinuity", name)

    def test_truncation_criterion_infinite_tail_before_n_0(self):
        name = "finite values on window"
        # f is +inf on the tails at n = 0 only (trace at most 0.3): the tail sups read n >= n_0 = 1
        # and never see them, so the check passes; from n_0 = 0 on they are read and it fails
        seq = _diag_seq([0.7, 0.2, 0.06, 0.04], [0.02, -0.01, -0.005, -0.005])
        f = _infinite_where(lambda n, op: n == 0 and op.trace() < 0.5, "S unless n = 0 and Tr < 0.5")
        schedule = fixed_basis_schedule(4, 4, seq, n_max=8)
        v = truncation_criterion(f, seq, schedule, n_0=1, n_max=8, m_max=4)
        assert _check(v, name).passed and v.status == CONSISTENT
        v = truncation_criterion(f, seq, schedule, n_0=0, n_max=8, m_max=4)
        assert not _check(v, name).passed and v.status == INCONCLUSIVE

    def test_appendix_windowed_bound(self):
        name = "windowed A_2 - a2_0 <= Delta"
        # a1_n is constant, so Delta = 0, while a2_n > a2_0 converges from above: every trend
        # shrinks and the windowed surrogate of limsup a2_n - a2_0 <= Delta fails alone
        rho1 = constant_sequence(PositiveOperator(diagonal=[0.5, 0.3, 0.2]))
        rho2 = _diag_seq([0.25, 0.15, 0.1], [0.0, 0.0, 0.1])
        sigma = constant_sequence(PositiveOperator(diagonal=[0.2, 0.3, 0.5]))
        v = appendix_domination(rho1, rho2, sigma, sigma, k_schedule=[1, 10, 100], n_max=8)
        assert _only_failing_record(v) == name and v.status == INCONCLUSIVE
        assert _check(v, name).slack < -1e-3
        assert _passes_on_builtin("appendix-ladder", name)


class TestChannelMiFamily:
    def test_homogeneous_extension(self):
        from qdini import ChannelSequence, identity_channel

        seq = ChannelSequence(lambda n: identity_channel(2), 2, 2)
        fam = channel_mi_family(seq)
        rho = DensityOperator(diagonal=[0.5, 0.5])
        scaled = PositiveOperator(diagonal=[1.5, 1.5])
        assert abs(float(fam.value(0, scaled)) - 3.0 * float(fam.value(0, rho))) < 1e-9
