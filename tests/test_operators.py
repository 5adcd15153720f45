import math

import numpy as np
import pytest

from qdini.extreal import INFINITY, ExtendedReal, finite
from qdini import (
    DensityOperator,
    HermitianOperator,
    PositiveOperator,
    Projector,
    apply_spectral_function,
    coordinate_projector,
    default_rank_tol,
    dense_materialization_count,
    eigh,
    identity,
    moore_penrose_inverse,
    operator_from_json,
    operator_to_json,
    partial_trace,
    purify,
    support_projector,
    tensor,
    trace_norm_distance,
)
from qdini.operators import _canonical_phase


class TestExtendedReal:
    def test_rejects_nan_and_negative_infinity(self):
        with pytest.raises(ValueError):
            ExtendedReal(float("nan"))
        with pytest.raises(ValueError):
            ExtendedReal(float("-inf"))

    def test_infinity_absorbs_addition(self):
        assert (INFINITY + finite(3.0)).is_inf
        assert (finite(2.0) + finite(3.0)) == finite(5.0)

    def test_undefined_subtractions_raise(self):
        with pytest.raises(ArithmeticError):
            INFINITY - INFINITY
        with pytest.raises(ArithmeticError):
            finite(1.0) - INFINITY

    def test_inf_times_zero_is_zero(self):
        assert float(INFINITY * 0.0) == 0.0

    def test_ordering(self):
        assert finite(1.0) < INFINITY
        assert not INFINITY < INFINITY
        assert finite(-2.0) < finite(0.0)


class TestConstruction:
    def test_non_hermitian_input_is_symmetrized(self):
        m = np.array([[1.0, 2.0], [0.0, 3.0]])
        h = HermitianOperator(m)
        assert np.allclose(h.matrix, 0.5 * (m + m.T))

    def test_psd_rejects_negative_spectrum(self):
        with pytest.raises(ValueError):
            PositiveOperator(np.diag([1.0, -0.1]))
        with pytest.raises(ValueError):
            PositiveOperator(diagonal=[1.0, -0.1])

    def test_psd_tolerates_tiny_negative(self):
        PositiveOperator(diagonal=[1.0, -1e-13])

    def test_density_trace_check(self):
        with pytest.raises(ValueError):
            DensityOperator(diagonal=[0.6, 0.6])
        DensityOperator(diagonal=[0.5, 0.5])

    def test_projector_idempotence_check(self):
        with pytest.raises(ValueError):
            Projector(np.array([[0.5, 0.0], [0.0, 1.0]]))
        p = coordinate_projector(3, [0, 2])
        assert p.rank == 2
        assert p.complement().rank == 1

    def test_coordinate_projector_reads_indices_once(self):
        p = coordinate_projector(4, iter([0, 1]))
        assert p.rank == 2
        assert np.array_equal(p.diag, [1.0, 1.0, 0.0, 0.0])

    def test_projector_leq(self):
        p1 = coordinate_projector(3, [0])
        p2 = coordinate_projector(3, [0, 1])
        assert p1.leq(p2)
        assert not p2.leq(p1)


class TestEigh:
    def test_eigenvalues_descending_and_reconstruction(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = HermitianOperator(z @ z.conj().T)
        dec = eigh(h)
        assert np.all(np.diff(dec.eigenvalues) <= 1e-12)
        assert np.allclose(dec.reconstruct(), h.matrix, atol=1e-10)

    def test_deterministic_on_repeats(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        a = eigh(HermitianOperator(m))
        b = eigh(HermitianOperator(m))
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_multiplicity_groups(self):
        dec = eigh(HermitianOperator(diagonal=[3.0, 3.0, 1.0]))
        assert dec.multiplicity_groups == [(0, 2), (2, 3)]

    def test_diagonal_path_avoids_dense(self):
        before = dense_materialization_count()
        eigh(HermitianOperator(diagonal=np.linspace(1, 2, 50)))
        assert dense_materialization_count() == before

    def test_canonical_phase_matches_column_loop(self):
        rng = np.random.default_rng(6)
        for trial in range(200):
            d = int(rng.integers(2, 33))
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            if trial % 3 == 0:
                # leading rows near zero push the pivot down the column
                z[: d // 2] = 1e-13 * rng.standard_normal((d // 2, d))
            _, v = np.linalg.eigh(z + z.conj().T)
            v = v[:, ::-1]
            assert np.array_equal(_canonical_phase(v), _canonical_phase_loop(v))


def _canonical_phase_loop(vectors):
    """Reference: rotate each column so its first component above 1e-12 is positive real."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size:
            pivot = col[nz[0]]
            out[:, j] = col * (np.conj(pivot) / abs(pivot))
    return out


class TestSpectralCalculus:
    def test_apply_spectral_function_matches_scalar(self):
        rho = PositiveOperator(diagonal=[4.0, 1.0, 0.0])
        sq = apply_spectral_function(rho, math.sqrt)
        assert np.allclose(sq.diag, [2.0, 1.0, 0.0])

    def test_apply_spectral_function_rejects_nonfinite(self):
        rho = PositiveOperator(diagonal=[1.0, 0.0])
        with pytest.raises(Exception):
            apply_spectral_function(rho, lambda x: math.log(x))

    def test_moore_penrose_inverse_on_support(self):
        rho = PositiveOperator(diagonal=[2.0, 0.5, 0.0])
        inv = moore_penrose_inverse(rho)
        assert np.allclose(inv.diag, [0.5, 2.0, 0.0])

    def test_moore_penrose_dense_oracle(self):
        rng = np.random.default_rng(1)
        v = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        lam = np.array([2.0, 1.0, 0.5, 0.0])
        rho = PositiveOperator((v * lam) @ v.T)
        inv = moore_penrose_inverse(rho)
        expect = np.linalg.pinv(rho.matrix, rcond=1e-12)
        assert np.allclose(inv.matrix, expect, atol=1e-10)

    def test_support_projector_rank(self):
        rho = PositiveOperator(diagonal=[1.0, 1e-20, 0.0])
        assert support_projector(rho).rank == 1


class TestTensorAndPartialTrace:
    def test_partial_trace_of_product(self):
        rng = np.random.default_rng(2)
        a = _random_density(rng, 3)
        b = _random_density(rng, 2)
        ab = PositiveOperator(np.kron(a.matrix, b.matrix))
        red_a = partial_trace(ab, "A", 3, 2)
        red_b = partial_trace(ab, "B", 3, 2)
        assert np.allclose(red_a.matrix, a.matrix, atol=1e-12)
        assert np.allclose(red_b.matrix, b.matrix, atol=1e-12)

    def test_partial_trace_preserves_trace(self):
        rng = np.random.default_rng(3)
        rho = _random_density(rng, 6)
        red = partial_trace(rho, "A", 2, 3)
        assert abs(red.trace() - 1.0) < 1e-12

    def test_tensor_diagonal_stays_diagonal(self):
        t = tensor(HermitianOperator(diagonal=[1.0, 2.0]), HermitianOperator(diagonal=[3.0, 4.0]))
        assert t.is_diagonal
        assert np.allclose(t.diag, [3.0, 4.0, 6.0, 8.0])


class TestPurify:
    def test_reduced_state_recovers_input(self):
        rng = np.random.default_rng(4)
        rho = _random_density(rng, 4)
        psi = purify(rho)
        r = psi.dim // 4
        red = partial_trace(psi, "A", 4, r)
        assert np.allclose(red.matrix, rho.matrix, atol=1e-10)

    def test_minimal_environment(self):
        rho = DensityOperator(diagonal=[0.5, 0.5, 0.0])
        psi = purify(rho)
        assert psi.dim == 3 * 2  # environment dimension equals rank


class TestMetricsAndJson:
    def test_trace_norm_distance_oracle(self):
        a = HermitianOperator(diagonal=[1.0, 0.0])
        b = HermitianOperator(diagonal=[0.0, 1.0])
        assert abs(trace_norm_distance(a, b) - 2.0) < 1e-14

    def test_json_round_trip_dense(self):
        rng = np.random.default_rng(5)
        rho = _random_density(rng, 3)
        back = operator_from_json(operator_to_json(rho), DensityOperator)
        assert np.allclose(back.matrix, rho.matrix, atol=1e-15)

    def test_json_round_trip_diagonal(self):
        rho = PositiveOperator(diagonal=[0.25, 0.75])
        obj = operator_to_json(rho)
        assert "diag" in obj
        back = operator_from_json(obj, PositiveOperator)
        assert back.is_diagonal

    def test_json_dim_mismatch(self):
        with pytest.raises(ValueError):
            operator_from_json({"dim": 3, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]})

    def test_rank_tolerance_scales(self):
        assert default_rank_tol(10, 2.0) == 10 * 1e-14 * 2.0
        assert identity(3).rank == 3


def _random_density(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = z @ z.conj().T
    return DensityOperator(m / np.trace(m).real)
