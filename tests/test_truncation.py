import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qdini import (
    ApproximationScheme,
    DensityOperator,
    OperatorSequence,
    PositiveOperator,
    Projector,
    approximation_gap_grid,
    commutator_norm,
    commuting_schedule,
    constant_sequence,
    coordinate_projector,
    dominated_truncation,
    entropy_family,
    fixed_basis_schedule,
    largest_stable_index,
    largest_stable_indices,
    normalize,
    random_density,
    random_unitary,
    spectral_truncation,
    stable_index_set,
    top_multiplicity,
    truncated_state_entropy_bound,
    truncation_lower_bound_slack,
    validate_schedule,
    von_neumann_entropy,
)
from qdini.operators import GAP_REL_TOL
from qdini.truncation import ambiguous_cuts


class TestSpectralTruncation:
    def test_head_keeps_top_eigenvalues(self):
        rho = PositiveOperator(diagonal=[0.1, 0.5, 0.2, 0.2])
        res = spectral_truncation(rho, 1)
        assert np.allclose(res.head.diag, [0.0, 0.5, 0.0, 0.0])
        assert abs(res.mass - 0.5) < 1e-14
        assert np.allclose(res.head.diag + res.tail.diag, rho.diag)

    def test_m_at_or_above_rank_returns_input(self):
        rho = PositiveOperator(diagonal=[0.6, 0.4, 0.0])
        res = spectral_truncation(rho, 2)
        assert np.allclose(res.head.diag, rho.diag)
        assert res.tail.trace() < 1e-14

    def test_ambiguous_flag_inside_multiplicity(self):
        rho = PositiveOperator(diagonal=[0.4, 0.4, 0.2])
        assert spectral_truncation(rho, 1).ambiguous
        assert not spectral_truncation(rho, 2).ambiguous

    def test_dense_matches_diagonal_after_rotation(self):
        rng = np.random.default_rng(0)
        lam = np.array([0.5, 0.3, 0.15, 0.05])
        u = random_unitary(rng, 4)
        rho = PositiveOperator((u * lam) @ u.conj().T)
        res = spectral_truncation(rho, 2)
        v2 = u[:, :2]
        expect = (v2 * lam[:2]) @ v2.conj().T
        assert np.allclose(res.head.matrix, expect, atol=1e-10)

    def test_rejects_m_below_one(self):
        with pytest.raises(ValueError):
            spectral_truncation(PositiveOperator(diagonal=[1.0]), 0)

    def test_entropy_bound_holds(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            rho = random_density(rng, 6)
            m = int(rng.integers(1, 7))
            assert truncated_state_entropy_bound(rho, m)


class TestStableIndices:
    def test_matches_index_loop(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            d = int(rng.integers(1, 9))
            # repeated levels and zeros make ties and rank-deficient tails
            lam = np.sort(rng.choice([0.0, 0.1, 0.25, 0.25 + 1e-12, 0.5], size=d))[::-1]
            rho = PositiveOperator(diagonal=lam)
            m_max = int(rng.integers(0, d + 3))
            assert stable_index_set(rho, m_max) == _stable_index_loop(lam, m_max)

    def test_simple_spectrum_all_stable(self):
        rho = PositiveOperator(diagonal=[0.5, 0.3, 0.2])
        assert stable_index_set(rho, 3) == [1, 2, 3]

    def test_multiplicity_blocks_interior_cuts(self):
        rho = PositiveOperator(diagonal=[0.4, 0.3, 0.3])
        assert stable_index_set(rho, 3) == [1, 3]
        assert largest_stable_index(rho, 2) == 1
        assert largest_stable_index(rho, 3) == 3

    def test_rank_deficient_tail_is_stable(self):
        rho = PositiveOperator(diagonal=[0.6, 0.4, 0.0, 0.0])
        assert stable_index_set(rho, 4) == [1, 2, 3, 4]

    def test_top_multiplicity(self):
        assert top_multiplicity(PositiveOperator(diagonal=[0.4, 0.4, 0.2])) == 2
        assert top_multiplicity(PositiveOperator(diagonal=[0.5, 0.3, 0.2])) == 1

    def test_no_stable_index_below_multiplicity(self):
        rho = PositiveOperator(diagonal=[0.5, 0.5])
        assert largest_stable_index(rho, 1) is None


def _largest_stable_index_loop(limit, m, m_max=None):
    """The per-m reference: the stable index set up to min(m, cap) rebuilt for each m."""
    cap = limit.dim if m_max is None else m_max
    candidates = [s for s in stable_index_set(limit, min(m, cap)) if s <= m]
    return candidates[-1] if candidates else None


# steps between neighbouring values, in units of GAP_REL_TOL * top: a step
# of exactly 1 is a tie at the gap tolerance, the others fall either side of it
GAP_STEPS = (0.0, 0.5, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 2.0, 1e6, 1e8)


@st.composite
def planted_spectra(draw):
    """Non-increasing spectra whose neighbours sit at, just inside and just outside the gap tolerance, some reaching 0."""
    d = draw(st.integers(1, 8))
    steps = draw(st.lists(st.sampled_from(GAP_STEPS), min_size=d - 1, max_size=d - 1))
    lam = [1.0]
    for step in steps:
        lam.append(max(lam[-1] - step * GAP_REL_TOL, 0.0))
    return np.array(lam)


@given(planted_spectra(), st.lists(st.integers(-1, 10), max_size=12), st.sampled_from([None, 0, 1, 3, 8, 12]))
@example(np.array([1.0, 1.0 - GAP_REL_TOL, 1.0 - 2 * GAP_REL_TOL]), [1, 2, 3], None)
@example(np.array([0.5, 0.5]), [0, 1, 2, 3], None)
def test_largest_stable_indices_match_the_per_m_loop(lam, ms, m_max):
    limit = PositiveOperator(diagonal=lam)
    got = largest_stable_indices(limit, ms, m_max)
    assert got.shape == (len(ms),)
    assert [int(x) or None for x in got] == [_largest_stable_index_loop(limit, m, m_max) for m in ms]
    assert [largest_stable_index(limit, m, m_max) for m in ms] == [int(x) or None for x in got]


@given(planted_spectra())
@example(np.array([1.0, 1.0 - 0.6 * GAP_REL_TOL, 1.0 - 1.2 * GAP_REL_TOL, 0.5, 0.25, 0.1]))
def test_one_gap_test_decides_groups_floors_and_ambiguity(lam):
    # on a chain of near-ties the top group, the first stable index and the ambiguous cuts must agree
    rho = PositiveOperator(diagonal=lam)
    spec, d = rho.spectrum(), lam.size
    stable = stable_index_set(rho, d)
    assert top_multiplicity(rho) == stable[0]
    assert all(stop in stable for _, stop in spec.multiplicity_groups if stop < spec.rank)
    ms = np.arange(1, d + 1)
    want = [bool(m < spec.rank and m not in stable) for m in ms]
    assert [spectral_truncation(rho, int(m)).ambiguous for m in ms] == want
    assert ambiguous_cuts([spec], ms[None, :])[0].tolist() == want
    commuting_schedule(constant_sequence(rho), d, 1)


class TestNormalize:
    def test_divides_by_trace(self):
        rho = PositiveOperator(diagonal=[0.2, 0.3])
        state = normalize(rho)
        assert np.allclose(state.diag, [0.4, 0.6])

    def test_zero_gives_none(self):
        assert normalize(PositiveOperator(diagonal=[0.0, 0.0])) is None

    @pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
    def test_a_subnormal_trace_gives_its_state(self, dense):
        # 1 / 1e-310 overflows; the operator is rescaled by a power of two first, exactly
        diagonal = np.array([1e-310, 0.0])
        rho = PositiveOperator(np.diag(diagonal).astype(complex)) if dense else PositiveOperator(diagonal=diagonal)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = normalize(rho)
        assert state.diag.tolist() == [1.0, 0.0]


class TestDominatedTruncation:
    def test_tau_equals_rho_reduces_to_spectral(self):
        # tau = rho, c = 1: head is Psi_m(rho) at stable m
        rho = PositiveOperator(diagonal=[0.5, 0.3, 0.2])
        res = dominated_truncation(rho, rho, 1.0, 2, rho, PositiveOperator(diagonal=np.zeros(3)))
        expect = spectral_truncation(rho, 2)
        assert np.allclose(res.head.diag, expect.head.diag)

    def test_disjoint_diagonal_supports_split(self):
        # tau = c rho + sigma with disjoint supports: independent truncations
        rho = PositiveOperator(diagonal=[0.6, 0.4, 0.0, 0.0])
        sigma = PositiveOperator(diagonal=[0.0, 0.0, 0.5, 0.1])
        c = 0.5
        tau = PositiveOperator(diagonal=c * rho.diag + sigma.diag)
        res = dominated_truncation(tau, rho, c, 2, rho, sigma)
        head_expect = c * spectral_truncation(rho, 2).head.diag + spectral_truncation(sigma, 2).head.diag
        assert np.allclose(res.head.diag, head_expect)

    def test_large_m_returns_tau_exactly(self):
        rho = PositiveOperator(diagonal=[0.6, 0.4, 0.0])
        sigma = PositiveOperator(diagonal=[0.0, 0.0, 0.3])
        tau = PositiveOperator(diagonal=0.5 * rho.diag + sigma.diag)
        res = dominated_truncation(tau, rho, 0.5, 3, rho, sigma)
        assert np.allclose(res.head.diag, tau.diag)
        assert res.tail.trace() < 1e-14

    def test_rejects_non_psd_difference(self):
        rho = PositiveOperator(diagonal=[1.0, 0.0])
        tau = PositiveOperator(diagonal=[0.2, 0.5])
        with pytest.raises(ValueError):
            dominated_truncation(tau, rho, 1.0, 1, rho, tau)

    def test_rejects_m_below_multiplicity_floor(self):
        rho = PositiveOperator(diagonal=[0.5, 0.5, 0.0])
        with pytest.raises(ValueError):
            dominated_truncation(rho, rho, 1.0, 1, rho, PositiveOperator(diagonal=np.zeros(3)))


class TestSchemes:
    def test_spectral_scheme_delegates(self):
        seq = constant_sequence(PositiveOperator(diagonal=[0.5, 0.3, 0.2]))
        assert ApproximationScheme().m_floor(seq) == 1

    def test_dominated_grid_builds_sigma_once_per_n(self, eigensolves):
        # dense d = 6: sigma_n = tau_n - c rho_n is checked (one eigvalsh) and
        # its basis solved (one eigh) once per n, whatever the number of cells
        rng = np.random.default_rng(4)
        d, c, n_max = 6, 0.5, 4
        u, w = random_unitary(rng, d), random_unitary(rng, d)

        def rho_member(n):
            lam = 0.6 ** np.arange(d) * (1.0 + (0.5 ** n if n else 0.0) * 0.1)
            return PositiveOperator((u * lam) @ u.conj().T)

        def tau_member(n):
            s = 0.7 ** np.arange(d) * (1.0 + (0.5 ** n if n else 0.0) * 0.05)
            return PositiveOperator(c * rho_seq(n).matrix + (w * s) @ w.conj().T)

        rho_seq, tau_seq = OperatorSequence(rho_member, d), OperatorSequence(tau_member, d)
        for m_max in (3, 6):
            for n in range(n_max + 1):
                tau_seq(n)
                rho_seq(n).spectrum().basis
            eigensolves.clear()
            scheme = ApproximationScheme("dominated", c, rho_seq)
            grid = approximation_gap_grid(entropy_family(), tau_seq, scheme, n_max, m_max)
            cells = len(grid.cells)
            assert cells == (n_max + 1) * m_max
            assert eigensolves["eigh"] == n_max + 1
            # sigma_0 once (the limit is row 0's sigma_n), each other sigma_n once;
            # each cell's head and tail sum c rho + sigma once
            assert eigensolves["eigvalsh"] == 1 + n_max + 2 * cells

    def test_dominated_grid_evaluates_each_cut_pair_once(self, eigensolves):
        # dense d = 6 with rho_n and sigma_n of rank 3: every m >= 3 cuts both
        # at their ranks, so a row of 6 cells has 3 distinct cut pairs, and
        # only those sum their head and tail (one eigvalsh each)
        rng = np.random.default_rng(9)
        d, c, n_max, m_max = 6, 0.5, 4, 6
        u, w = random_unitary(rng, d), random_unitary(rng, d)

        def rank_three(basis, ratio, n):
            lam = np.zeros(d)
            lam[:3] = ratio ** np.arange(3) * (1.0 + (0.5 ** n if n else 0.0) * 0.1)
            return (basis * lam) @ basis.conj().T

        rho_seq = OperatorSequence(lambda n: PositiveOperator(rank_three(u, 0.6, n)), d)
        tau_seq = OperatorSequence(lambda n: PositiveOperator(c * rho_seq(n).matrix + rank_three(w, 0.7, n)), d)
        for n in range(n_max + 1):
            tau_seq(n)
            rho_seq(n).spectrum().basis
        eigensolves.clear()
        grid = approximation_gap_grid(entropy_family(), tau_seq, ApproximationScheme("dominated", c, rho_seq),
                                      n_max, m_max)
        assert len(grid.cells) == (n_max + 1) * m_max
        pairs = (n_max + 1) * 3
        assert eigensolves["eigh"] == n_max + 1
        assert eigensolves["eigvalsh"] == 1 + n_max + 2 * pairs
        for n in range(n_max + 1):
            row = [(cell.mu, cell.gap, cell.tail, cell.flags) for cell in grid.cells if cell.n == n]
            assert row[2:] == [row[2]] * (m_max - 2)

    def test_dominated_scheme_floor(self):
        rho = PositiveOperator(diagonal=[0.4, 0.4, 0.2, 0.0])
        sigma = PositiveOperator(diagonal=[0.0, 0.0, 0.0, 0.3])
        tau = PositiveOperator(diagonal=0.5 * rho.diag + sigma.diag)
        scheme = ApproximationScheme(kind="dominated", c=0.5,
                                     dominated=constant_sequence(rho))
        seq = constant_sequence(tau)
        assert scheme.m_floor(seq) == 2  # top multiplicity of rho

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ApproximationScheme(kind="other")

    @pytest.mark.parametrize("kind", ("diagonal", "dense"))
    def test_dominated_scheme_reused_across_sequences_matches_fresh_schemes(self, kind):
        # one scheme on two tau sequences, each twice: tau_a with sigma_0 != 0 and
        # a top-multiplicity floor of 2, tau_b with sigma_0 = 0 (equality in the limit)
        d, c, n_max, m_max = 4, 0.5, 5, 4
        u = np.eye(d) if kind == "diagonal" else random_unitary(np.random.default_rng(7), d)

        def members(limit, pert):
            def member(n):
                lam = np.asarray(limit) + (0.5 ** n if n else 0.0) * np.asarray(pert)
                return PositiveOperator(diagonal=lam) if kind == "diagonal" else PositiveOperator((u * lam) @ u.conj().T)
            return OperatorSequence(member, d)

        rho = members([0.4, 0.3, 0.2, 0.1], [0.0, 0.05, -0.05, 0.0])
        sigma_a = members([0.3, 0.3, 0.1, 0.0], [0.05, 0.0, 0.0, 0.02])
        sigma_b = members([0.0] * d, [0.1, 0.05, 0.0, 0.0])
        tau_a, tau_b = (OperatorSequence(lambda n, s=s: PositiveOperator.of(rho(n).scale(c).add(s(n))), d)
                        for s in (sigma_a, sigma_b))
        family = entropy_family()

        def window(scheme, tau):
            return (approximation_gap_grid(family, tau, scheme, n_max, m_max),
                    truncation_lower_bound_slack(family, tau, scheme, n_max, m_max))

        shared = ApproximationScheme("dominated", c, rho)
        got = [window(shared, tau) for tau in (tau_a, tau_b, tau_a, tau_b)]
        want = [window(ApproximationScheme("dominated", c, rho), tau) for tau in (tau_a, tau_b)]
        assert got == want * 2
        assert want[0][0].m_range == (2, 3, 4) and want[1][0].m_range == (1, 2, 3, 4)
        assert [f.name for f in dataclasses.fields(ApproximationScheme)] == ["kind", "c", "dominated"]


class TestFixedBasisSchedule:
    def test_error_when_mass_vanishes(self):
        # state supported on coordinates {3, 4}: every P_m with m <= 2 misses it
        rho = DensityOperator(diagonal=[0.0, 0.0, 0.0, 0.5, 0.5])
        seq = constant_sequence(rho)
        with pytest.raises(ValueError, match=r"vanishes at \(n, m\) = \(0, 1\)"):
            fixed_basis_schedule(5, 2, seq, n_max=3)

    def test_validates_on_covering_window(self):
        rho = DensityOperator(diagonal=[0.4, 0.3, 0.2, 0.1])
        seq = constant_sequence(rho)
        sched = fixed_basis_schedule(4, 4, seq, n_max=6)
        v = validate_schedule(sched, seq, n_max=6)
        assert all(c.passed for c in v.hypothesis_checks)
        assert v.status == "consistent"
        assert v.trend_only

    def test_planted_overranked_projector_named(self):
        rho = DensityOperator(diagonal=[0.4, 0.3, 0.2, 0.1])
        seq = constant_sequence(rho)
        sched = fixed_basis_schedule(4, 4, seq, n_max=2)
        # plant a rank-(m+1) projector at slot m = 2
        cuts = sched.cuts.copy()
        cuts[1, 1] = 3
        v = validate_schedule(dataclasses.replace(sched, cuts=cuts), seq, n_max=2)
        rank_check = next(c for c in v.hypothesis_checks if c.name == "rank P^n_m <= m")
        assert not rank_check.passed
        assert "(1, 2)" in rank_check.detail
        assert v.status == "violated"

    def test_members_are_coordinate_prefixes(self):
        seq = constant_sequence(DensityOperator(diagonal=[0.1, 0.4, 0.3, 0.2]))
        sched = fixed_basis_schedule(4, 3, seq, n_max=2)
        assert sched.cuts.tolist() == [[1, 2, 3]] * 3
        for n in range(3):
            for m in range(1, 4):
                assert sched.projector(n, m).diag.tolist() == coordinate_projector(4, range(m)).diag.tolist()

    def test_rejects_malformed_cuts(self):
        sched = fixed_basis_schedule(4, 4, constant_sequence(DensityOperator(diagonal=[0.4, 0.3, 0.2, 0.1])),
                                     n_max=2)
        with pytest.raises(ValueError, match="cuts of shape"):
            dataclasses.replace(sched, cuts=sched.cuts[:, :3])
        with pytest.raises(ValueError, match="cuts must lie in"):
            dataclasses.replace(sched, cuts=sched.cuts + 1)
        with pytest.raises(ValueError):
            sched.cuts[0, 0] = 2
        with pytest.raises(KeyError):
            sched.projector(0, 0)


class TestCommutingSchedule:
    def test_full_rank_window_validates(self):
        rng = np.random.default_rng(2)
        u = random_unitary(rng, 5)
        def member(n):
            lam = np.array([0.35, 0.25, 0.2, 0.12, 0.08]) + (0.5 ** n if n else 0.0) * np.array(
                [0.02, -0.01, 0.01, -0.01, -0.01])
            lam = lam / lam.sum()
            return PositiveOperator((u * lam) @ u.conj().T)
        seq = OperatorSequence(member, 5)
        sched = commuting_schedule(seq, m_max=5, n_max=10)
        v = validate_schedule(sched, seq, n_max=10, m_max=5)
        assert v.status == "consistent"
        worst = max(
            commutator_norm(sched.projector(n, m), seq(n))
            for n in range(11) for m in range(sched.m_0, 6)
        )
        assert worst <= 1e-12

    def test_mixed_rank_direct_sum_restriction(self):
        rng = np.random.default_rng(5)
        u, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        def member(n):
            if n == 0:
                d = np.array([0.5, 0.3, 0.2, 0.0])
            elif n <= 2:
                d = np.array([0.55, 0.45, 0.0, 0.0])
            else:
                d = np.array([0.5, 0.3, 0.2 - 0.2 * 0.5 ** n, 0.0])
                d = d / d.sum()
            return PositiveOperator((u * d) @ u.T)
        seq = OperatorSequence(member, 4, "mixed-rank")
        sched = commuting_schedule(seq, m_max=4, n_max=12)
        v = validate_schedule(sched, seq, n_max=12, m_max=4)
        assert v.status == "consistent"
        assert all(c.passed for c in v.hypothesis_checks)
        worst = max(
            commutator_norm(sched.projector(n, m), seq(n))
            for n in range(13) for m in range(sched.m_0, 5)
        )
        assert worst <= 1e-12

    def test_rejects_zero_member(self):
        def member(n):
            return PositiveOperator(diagonal=[0.0, 0.0] if n == 1 else [0.5, 0.5])
        seq = OperatorSequence(member, 2)
        with pytest.raises(ValueError):
            commuting_schedule(seq, m_max=2, n_max=2)

    def test_m_max_below_multiplicity_floor(self):
        seq = constant_sequence(DensityOperator(diagonal=[0.5, 0.5]))
        with pytest.raises(ValueError):
            commuting_schedule(seq, m_max=1, n_max=2)

    def test_validation_window_below_m_0_is_named(self):
        seq = constant_sequence(DensityOperator(diagonal=[0.4, 0.4, 0.2]))
        sched = commuting_schedule(seq, m_max=3, n_max=2)
        assert sched.m_0 == 2
        with pytest.raises(ValueError, match=r"m_max = 1 .* m_0 = 2"):
            validate_schedule(sched, seq, m_max=1)

    def test_commutator_exactly_zero_on_diagonal(self):
        p = coordinate_projector(3, [0])
        rho = PositiveOperator(diagonal=[0.5, 0.3, 0.2])
        assert commutator_norm(p, rho) == 0.0


class TestSequenceCaching:
    def test_members_cached(self):
        calls = []
        def member(n):
            calls.append(n)
            return PositiveOperator(diagonal=[1.0, 0.0])
        seq = OperatorSequence(member, 2)
        seq(3)
        seq(3)
        assert calls == [3]

    def test_dim_mismatch_raises(self):
        seq = OperatorSequence(lambda n: PositiveOperator(diagonal=[1.0]), 2)
        with pytest.raises(ValueError):
            seq(0)


def _stable_index_loop(lam, m_max):
    """Reference: stable ranks of a clamped non-increasing spectrum, one index at a time."""
    lam = np.clip(lam, 0.0, None)
    rank_tol = lam.size * 1e-14 * lam[0]
    lam = np.where(lam > rank_tol, lam, 0.0)
    gap_tol = 1e-9 * lam[0]
    out = []
    for m in range(1, min(m_max, lam.size) + 1):
        nxt = lam[m] if m < lam.size else 0.0
        if nxt < lam[m - 1] - gap_tol or lam[m - 1] <= rank_tol:
            out.append(m)
    return out
