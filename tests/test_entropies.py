import math

import numpy as np
import pytest

from qdini import (
    ChannelSequence,
    DensityOperator,
    PositiveOperator,
    Projector,
    binary_entropy,
    binary_entropy_extension,
    channel_mutual_information,
    check_entropy_subadditivity_pair,
    coherent_information,
    compressed_entropy_pair,
    environment_entropy,
    eta,
    output_entropy,
    quantum_mutual_information,
    random_channel,
    random_density,
    random_positive,
    random_unitary,
    regularized_log_ladder,
    relative_entropy,
    trace_neg_log,
    von_neumann_entropy,
)
from qdini import diagnostics
from qdini.entropies import SpectralCuts, entropy_cuts, relative_entropy_cuts, trace_neg_log_cuts
from qdini.truncation import constant_sequence
from test_rows import FAMILIES, _family, _per_cell, _same_cut


def _scalar_entropy(lam):
    lam = np.asarray(lam, dtype=float)
    t = lam.sum()
    return float(sum(eta(x) for x in lam) - eta(t))


class TestScalarHelpers:
    def test_eta_endpoints(self):
        assert eta(0.0) == 0.0
        assert abs(eta(1.0)) == 0.0
        assert abs(eta(0.5) - 0.5 * math.log(2.0)) < 1e-15

    def test_eta_rejects_negative(self):
        with pytest.raises(ValueError):
            eta(-1e-3)

    def test_binary_entropy_peak_and_edges(self):
        assert abs(binary_entropy(0.5) - math.log(2.0)) < 1e-15
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_binary_extension_homogeneous(self):
        # H(cx, cy) = c H(x, y)
        base = binary_entropy_extension(0.3, 0.9)
        assert abs(binary_entropy_extension(0.6, 1.8) - 2.0 * base) < 1e-12
        assert binary_entropy_extension(0.0, 0.0) == 0.0


class TestVonNeumannEntropy:
    def test_diagonal_matches_scalar_formula(self):
        lam = [0.5, 0.3, 0.2]
        rho = DensityOperator(diagonal=lam)
        assert abs(float(von_neumann_entropy(rho)) - _scalar_entropy(lam)) < 1e-12

    def test_basis_invariance(self):
        rng = np.random.default_rng(0)
        lam = np.array([0.4, 0.35, 0.15, 0.1])
        u = random_unitary(rng, 4)
        rho = DensityOperator((u * lam) @ u.conj().T)
        assert abs(float(von_neumann_entropy(rho)) - _scalar_entropy(lam)) < 1e-10

    def test_homogeneity_on_cone(self):
        rng = np.random.default_rng(1)
        rho = random_positive(rng, 5)
        s1 = float(von_neumann_entropy(rho))
        s2 = float(von_neumann_entropy(rho.scale(3.0)))
        assert abs(s2 - 3.0 * s1) < 1e-9

    def test_zero_operator(self):
        assert float(von_neumann_entropy(PositiveOperator(diagonal=[0.0, 0.0]))) == 0.0

    def test_pure_state_zero(self):
        assert abs(float(von_neumann_entropy(DensityOperator(diagonal=[1.0, 0.0])))) < 1e-14

    def test_maximally_mixed(self):
        d = 7
        rho = DensityOperator(diagonal=np.full(d, 1.0 / d))
        assert abs(float(von_neumann_entropy(rho)) - math.log(d)) < 1e-12


class TestTraceNegLog:
    def test_diagonal_closed_form(self):
        rho = PositiveOperator(diagonal=[0.7, 0.3])
        sigma = PositiveOperator(diagonal=[0.5, 0.25])
        expect = -(0.7 * math.log(0.5) + 0.3 * math.log(0.25))
        assert abs(float(trace_neg_log(rho, sigma)) - expect) < 1e-14

    def test_infinite_on_support_violation(self):
        rho = PositiveOperator(diagonal=[0.5, 0.5])
        sigma = PositiveOperator(diagonal=[1.0, 0.0])
        assert math.isinf(trace_neg_log(rho, sigma))

    def test_finite_when_support_contained(self):
        rho = PositiveOperator(diagonal=[1.0, 0.0])
        sigma = PositiveOperator(diagonal=[0.5, 0.0])
        assert abs(float(trace_neg_log(rho, sigma)) + math.log(0.5)) < 1e-14

    def test_dense_matches_diagonal_after_rotation(self):
        rng = np.random.default_rng(2)
        u = random_unitary(rng, 3)
        p = np.array([0.5, 0.3, 0.2])
        q = np.array([0.6, 0.3, 0.1])
        rho = PositiveOperator((u * p) @ u.conj().T)
        sigma = PositiveOperator((u * q) @ u.conj().T)
        expect = float(-np.sum(p * np.log(q)))
        assert abs(float(trace_neg_log(rho, sigma)) - expect) < 1e-10


class TestRelativeEntropy:
    def test_diagonal_closed_form_on_cone(self):
        p = np.array([0.4, 0.6, 0.5])
        q = np.array([0.2, 0.3, 0.9])
        rho = PositiveOperator(diagonal=p)
        sigma = PositiveOperator(diagonal=q)
        expect = float(np.sum(p * np.log(p / q)) + q.sum() - p.sum())
        assert abs(float(relative_entropy(rho, sigma)) - expect) < 1e-12

    def test_zero_first_argument(self):
        rho = PositiveOperator(diagonal=[0.0, 0.0])
        sigma = PositiveOperator(diagonal=[0.3, 0.4])
        assert abs(float(relative_entropy(rho, sigma)) - 0.7) < 1e-12

    def test_identical_states_give_zero(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 4)
        assert abs(float(relative_entropy(rho, rho))) < 1e-9

    def test_support_violation_is_infinite(self):
        rho = DensityOperator(diagonal=[0.5, 0.5])
        sigma = PositiveOperator(diagonal=[1.0, 0.0])
        assert math.isinf(relative_entropy(rho, sigma))

    def test_equal_supports_at_large_scale_are_finite(self):
        # rounding leaves about 3e-10 of a trace-1e7 rho off the common
        # support; the support test allows SUPPORT_TOL relative to Tr rho
        p = np.array([0.5, 0.3, 0.2, 0.0, 0.0, 0.0])
        q = np.array([0.4, 0.35, 0.25, 0.0, 0.0, 0.0])
        want = 1e7 * float(np.sum(p[:3] * np.log(p[:3] / q[:3])))
        for seed in range(50):
            u = random_unitary(np.random.default_rng(seed), 6)
            rho = PositiveOperator(1e7 * (u * p) @ u.conj().T)
            sigma = PositiveOperator(1e7 * (u * q) @ u.conj().T)
            assert abs(float(relative_entropy(rho, sigma)) - want) <= 1e-9 * want
            assert not math.isinf(trace_neg_log(rho, sigma))
            spec = rho.spectrum()
            cuts = SpectralCuts([spec], [[1, 2]], normalized=False)
            assert np.all(np.isfinite(relative_entropy_cuts(cuts, [sigma])))
            assert np.all(np.isfinite(trace_neg_log_cuts(cuts, [sigma])))

    def test_klein_inequality_random(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            rho = random_density(rng, 5)
            sigma = random_density(rng, 5)
            assert float(relative_entropy(rho, sigma)) >= -1e-10

    def test_cone_lower_bound(self):
        # D(rho||sigma) >= Tr rho ln(Tr rho / Tr sigma) + Tr sigma - Tr rho
        rng = np.random.default_rng(5)
        for _ in range(50):
            rho = random_positive(rng, 4)
            sigma = random_positive(rng, 4)
            tr, ts = rho.trace(), sigma.trace()
            lower = tr * math.log(tr / ts) + ts - tr
            assert float(relative_entropy(rho, sigma)) >= lower - 1e-9


class TestMutualInformation:
    def test_product_state_zero(self):
        rng = np.random.default_rng(6)
        a = random_density(rng, 3)
        b = random_density(rng, 2)
        ab = DensityOperator(np.kron(a.matrix, b.matrix))
        assert abs(float(quantum_mutual_information(ab, 3, 2))) < 1e-10

    def test_maximally_entangled(self):
        d = 3
        vec = np.zeros(d * d, dtype=complex)
        for i in range(d):
            vec[i * d + i] = 1.0 / math.sqrt(d)
        rho = DensityOperator(np.outer(vec, vec.conj()))
        assert abs(float(quantum_mutual_information(rho, d, d)) - 2.0 * math.log(d)) < 1e-10

    def test_dim_mismatch(self):
        rho = DensityOperator(diagonal=np.full(6, 1.0 / 6))
        with pytest.raises(ValueError):
            quantum_mutual_information(rho, 2, 2)


class TestRegularizedLogLadder:
    def test_monotone_and_converges_full_rank(self):
        rng = np.random.default_rng(7)
        rho = random_density(rng, 4)
        sigma = random_density(rng, 4)
        res = regularized_log_ladder(rho, sigma, [1, 10, 100, 1000, 10**6, 10**9])
        diffs = np.diff(res.a_k)
        assert np.all(diffs >= -1e-10)
        assert not math.isinf(res.limit_estimate)
        assert abs(res.a_k[-1] - float(res.limit_estimate)) < 1e-6

    def test_diverges_on_support_violation(self):
        rho = PositiveOperator(diagonal=[0.5, 0.5])
        sigma = PositiveOperator(diagonal=[1.0, 0.0])
        res = regularized_log_ladder(rho, sigma, [1, 10, 100])
        assert math.isinf(res.limit_estimate)
        # a_k grows like 0.5 ln k on the unsupported coordinate
        assert res.a_k[-1] > res.a_k[0] + 0.5 * math.log(50)

    def test_rejects_nonincreasing_schedule(self):
        rho = PositiveOperator(diagonal=[1.0])
        with pytest.raises(ValueError):
            regularized_log_ladder(rho, rho, [10, 10])


class TestSubadditivityPair:
    def test_slacks_nonnegative_random(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            rho = random_positive(rng, 4)
            sigma = random_positive(rng, 4)
            lo, hi = check_entropy_subadditivity_pair(rho, sigma)
            assert lo >= -1e-9
            assert hi >= -1e-9

    def test_orthogonal_supports_saturate_upper(self):
        rho = PositiveOperator(diagonal=[0.3, 0.0])
        sigma = PositiveOperator(diagonal=[0.0, 0.7])
        lo, hi = check_entropy_subadditivity_pair(rho, sigma)
        # S(rho + sigma) = S(rho) + S(sigma) + H({0.3, 0.7}); upper slack 0
        assert abs(hi) < 1e-12
        assert abs(lo - binary_entropy_extension(0.3, 0.7)) < 1e-12


class TestCompressedEntropyPair:
    def test_diagonal_split(self):
        rho = DensityOperator(diagonal=[0.4, 0.3, 0.2, 0.1])
        p = Projector(diagonal=[1.0, 1.0, 0.0, 0.0])
        s_head, s_tail = compressed_entropy_pair(rho, p)
        assert abs(s_head - _scalar_entropy([0.4, 0.3])) < 1e-12
        assert abs(s_tail - _scalar_entropy([0.2, 0.1])) < 1e-12

    def test_sum_bounded_by_entropy(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            rho = random_density(rng, 5)
            k = int(rng.integers(1, 5))
            p = Projector(diagonal=(np.arange(5) < k).astype(float))
            s_head, s_tail = compressed_entropy_pair(rho, p)
            assert s_head + s_tail <= float(von_neumann_entropy(rho)) + 1e-9


class TestSubnormalCutMass:
    # the tail at cut 1 has mass 1e-310, below 1 / DBL_MAX, so 1 / mass overflows
    OPERATOR = PositiveOperator(diagonal=[1e-300, 1e-310])
    SPECTRUM = OPERATOR.spectrum()

    def test_states_of_the_cuts_are_pure(self):
        cuts = SpectralCuts([self.SPECTRUM], [[1]], True)
        assert np.isfinite(cuts.scale).all()
        np.testing.assert_allclose(cuts.scale * cuts.mass, 1.0, rtol=1e-15)
        # head [e_0] and tail [e_1]: S = 0, and D = ln 2 against I/2
        np.testing.assert_allclose(entropy_cuts(cuts), 0.0, atol=1e-15)
        np.testing.assert_allclose(relative_entropy_cuts(cuts, [PositiveOperator(diagonal=[0.5, 0.5])]),
                                   math.log(2.0), rtol=1e-14)

    def test_unnormalized_cuts_keep_their_masses_exactly(self):
        cuts = SpectralCuts([self.SPECTRUM], [[1]], False)
        assert (cuts.scale * cuts.mass).ravel().tolist() == [1e-300, 1e-310]

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_the_per_cell_form_agrees_with_the_window(self, kind):
        family = _family(kind, constant_sequence(PositiveOperator(diagonal=[0.5, 0.5])))
        for normalized in (False, True):
            got, want = (diagnostics._cut_values(fam, [0], [self.OPERATOR], [self.SPECTRUM], [[0, 1, 2]], normalized)
                         for fam in (family, _per_cell(family)))
            assert all(map(_same_cut, got.ravel(), want.ravel())), (normalized, got, want)

    def test_a_finite_reciprocal_is_the_scale_bitwise(self):
        spectrum = PositiveOperator(diagonal=[1e-300, 3e-301, 1e-305]).spectrum()
        cuts = SpectralCuts([spectrum], [[0, 1, 2, 3]], True)
        positive = cuts.mass > 0.0
        assert np.array_equal(cuts.values, spectrum.kept()[None, :])
        assert np.array_equal(cuts.scale[positive], 1.0 / cuts.mass[positive])
        assert np.all(cuts.scale[~positive] == 1.0)


@pytest.mark.parametrize("dense", [False, True])
@pytest.mark.parametrize("support_break", [False, True])
def test_scalar_functionals_return_floats(dense, support_break):
    """Every scalar functional gives a Python float, +inf as math.inf and only on a support break."""
    rng = np.random.default_rng(11)
    u = random_unitary(rng, 4)
    lam, s = np.array([0.4, 0.3, 0.2, 0.1]), np.array([0.5, 0.3, 0.2, 0.0 if support_break else 0.1])
    rho, sigma = ((DensityOperator((u * lam) @ u.conj().T), PositiveOperator((u * s) @ u.conj().T)) if dense
                  else (DensityOperator(diagonal=lam), PositiveOperator(diagonal=s)))
    phi = random_channel(rng, 4, 2, 3)
    channels = ChannelSequence(lambda n: phi, 4, 2)
    sigmas = constant_sequence(sigma)
    may_break = [
        trace_neg_log(rho, sigma),
        relative_entropy(rho, sigma),
        regularized_log_ladder(rho, sigma, [1, 10]).limit_estimate,
        diagnostics.relative_entropy_family(sigmas).value(0, rho),
        diagnostics.trace_neg_log_family(sigmas).value(0, rho),
    ]
    finite = [
        von_neumann_entropy(rho),
        von_neumann_entropy(rho.scale(0.0)),
        relative_entropy(rho.scale(0.0), sigma),
        quantum_mutual_information(rho, 2, 2),
        channel_mutual_information(phi, rho),
        coherent_information(phi, rho),
        output_entropy(phi, rho),
        environment_entropy(phi, rho),
        diagnostics.entropy_family().value(0, rho),
        diagnostics.channel_mi_family(channels).value(0, rho.scale(2.0)),
        diagnostics.coherent_info_family(channels).value(0, rho.scale(2.0)),
        diagnostics.output_entropy_family(channels).value(0, rho),
    ]
    assert all(type(v) is float for v in may_break + finite)
    assert [v == math.inf for v in may_break] == [support_break] * len(may_break)
    assert all(math.isfinite(v) for v in finite)
