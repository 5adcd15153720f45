import math

import numpy as np
import pytest

from qdini import (
    ApproximationScheme,
    DensityOperator,
    OperatorSequence,
    PositiveOperator,
    Projector,
    commutator_norm,
    commuting_schedule,
    constant_sequence,
    coordinate_projector,
    dominated_truncation,
    fixed_basis_schedule,
    largest_stable_index,
    normalize,
    random_density,
    random_unitary,
    spectral_truncation,
    stable_index_set,
    top_multiplicity,
    truncated_state_entropy_bound,
    validate_schedule,
    von_neumann_entropy,
)


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


class TestNormalize:
    def test_divides_by_trace(self):
        rho = PositiveOperator(diagonal=[0.2, 0.3])
        state = normalize(rho)
        assert np.allclose(state.diag, [0.4, 0.6])

    def test_zero_gives_none(self):
        assert normalize(PositiveOperator(diagonal=[0.0, 0.0])) is None


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
        scheme = ApproximationScheme()
        res = scheme.truncate(seq, 0, 2)
        assert abs(res.mass - 0.8) < 1e-14
        assert scheme.m_floor(seq) == 1

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


class TestFixedBasisSchedule:
    def test_error_when_mass_vanishes(self):
        # state supported on coordinates {3, 4}: every P_m with m <= 2 misses it
        rho = DensityOperator(diagonal=[0.0, 0.0, 0.0, 0.5, 0.5])
        seq = constant_sequence(rho)
        with pytest.raises(ValueError):
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
        sched.projectors[(1, 2)] = coordinate_projector(4, [0, 1, 2])
        v = validate_schedule(sched, seq, n_max=2)
        rank_check = next(c for c in v.hypothesis_checks if c.name == "rank P^n_m <= m")
        assert not rank_check.passed
        assert "(1, 2)" in rank_check.detail
        assert v.status == "violated"


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
