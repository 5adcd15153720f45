"""The cached spectrum: each operator is decomposed at most once.

The diagonal fast path is a second implementation of every spectral reader,
so each reader is checked against the dense path on the same operator.
Eigensolves are counted by wrapping numpy's solvers, which every reader
looks up at call time.
"""

import math

import numpy as np
import pytest

from qdini import (
    ApproximationScheme,
    DensityOperator,
    OperatorSequence,
    PositiveOperator,
    approximation_gap_grid,
    eigh,
    moore_penrose_inverse,
    normalize,
    random_unitary,
    relative_entropy,
    relative_entropy_family,
    spectral_truncation,
    stable_index_set,
    support_projector,
    top_multiplicity,
    trace_neg_log,
    von_neumann_entropy,
)

TOL = 1e-12

# (name, spectrum, permutation placing spectrum[i] at coordinate perm[i])
SPECTRA = [
    ("full-rank", [0.35, 0.25, 0.2, 0.12, 0.08], [2, 0, 3, 1, 4]),
    ("rank-deficient", [0.5, 0.3, 0.2, 0.0, 0.0], [4, 1, 0, 3, 2]),
    ("tied", [0.3, 0.3, 0.15, 0.15, 0.1], [1, 3, 0, 4, 2]),
]


def both_paths(lam, perm):
    """The same operator built with diagonal= and as a dense matrix V diag(lam) V^T."""
    lam = np.asarray(lam, dtype=float)
    d = lam.size
    v = np.zeros((d, d))
    v[perm, np.arange(d)] = 1.0
    diag = np.zeros(d)
    diag[perm] = lam
    return PositiveOperator(diagonal=diag), PositiveOperator((v * lam) @ v.T)


def close(a, b) -> bool:
    a, b = float(a), float(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= TOL * max(1.0, abs(a))


class TestDiagonalAgainstDense:
    @pytest.mark.parametrize("name, lam, perm", SPECTRA)
    def test_entropy(self, name, lam, perm):
        diag, dense = both_paths(lam, perm)
        assert close(von_neumann_entropy(diag), von_neumann_entropy(dense))

    @pytest.mark.parametrize("rho_case", SPECTRA)
    @pytest.mark.parametrize("sigma_case", SPECTRA)
    def test_relative_entropy_and_trace_neg_log(self, rho_case, sigma_case):
        rhos = both_paths(*rho_case[1:])
        sigmas = both_paths(*sigma_case[1:])
        ref_tnl = trace_neg_log(rhos[0], sigmas[0])
        ref_d = relative_entropy(rhos[0], sigmas[0])
        for rho in rhos:
            for sigma in sigmas:
                assert close(trace_neg_log(rho, sigma), ref_tnl)
                assert close(relative_entropy(rho, sigma), ref_d)

    def test_support_violation_is_infinite_on_every_path(self):
        rhos = both_paths([0.4, 0.3, 0.2, 0.1, 0.0], [0, 1, 2, 3, 4])
        sigmas = both_paths([0.5, 0.3, 0.2, 0.0, 0.0], [4, 1, 0, 3, 2])
        for rho in rhos:
            for sigma in sigmas:
                assert math.isinf(trace_neg_log(rho, sigma))
                assert math.isinf(relative_entropy(rho, sigma))

    @pytest.mark.parametrize("name, lam, perm", SPECTRA)
    def test_truncation(self, name, lam, perm):
        diag, dense = both_paths(lam, perm)
        for m in range(1, diag.dim + 1):
            a = spectral_truncation(diag, m)
            b = spectral_truncation(dense, m)
            assert close(a.mass, b.mass)
            assert a.ambiguous == b.ambiguous
            assert np.allclose(a.head.eigenvalues(), b.head.eigenvalues(), rtol=0, atol=TOL)
            assert np.allclose(a.tail.eigenvalues(), b.tail.eigenvalues(), rtol=0, atol=TOL)

    @pytest.mark.parametrize("name, lam, perm", SPECTRA)
    def test_indices_support_and_inverse(self, name, lam, perm):
        diag, dense = both_paths(lam, perm)
        assert stable_index_set(diag, diag.dim) == stable_index_set(dense, dense.dim)
        assert top_multiplicity(diag) == top_multiplicity(dense)
        assert support_projector(diag).rank == support_projector(dense).rank
        assert np.allclose(moore_penrose_inverse(diag).matrix, moore_penrose_inverse(dense).matrix,
                           rtol=0, atol=TOL)


class TestDecomposeOnce:
    def test_dense_construction_keeps_its_eigenvalues(self, eigensolves):
        rng = np.random.default_rng(0)
        u = random_unitary(rng, 6)
        rho = DensityOperator((u * rng.dirichlet(np.ones(6))) @ u.conj().T)
        assert eigensolves == {"eigvalsh": 1}
        von_neumann_entropy(rho)
        rho.rank()
        rho.operator_norm()
        stable_index_set(rho, 6)
        assert eigensolves == {"eigvalsh": 1}
        for _ in range(3):
            eigh(rho)
            support_projector(rho)
        assert eigensolves == {"eigvalsh": 1, "eigh": 1}

    def test_truncations_and_states_are_views(self, eigensolves):
        rng = np.random.default_rng(1)
        u = random_unitary(rng, 8)
        rho = PositiveOperator((u * 0.6 ** np.arange(8)) @ u.conj().T)
        sigma = DensityOperator((u * np.full(8, 1 / 8)) @ u.conj().T)
        for m in range(1, 9):
            res = spectral_truncation(rho, m)
            for part in (res.head, res.tail):
                state = normalize(part)
                if state is not None:
                    von_neumann_entropy(state)
                    relative_entropy(state, sigma)
                    spectral_truncation(state, 1)
        moore_penrose_inverse(rho)
        assert eigensolves == {"eigvalsh": 2, "eigh": 2}

    def test_views_match_a_fresh_decomposition(self):
        rng = np.random.default_rng(2)
        u = random_unitary(rng, 6)
        rho = PositiveOperator((u * 0.5 ** np.arange(6)) @ u.conj().T)
        res = spectral_truncation(rho, 2)
        for view in (res.head, res.tail, normalize(res.head), moore_penrose_inverse(rho)):
            fresh = PositiveOperator(view.matrix)
            assert np.allclose(view.eigenvalues(), fresh.eigenvalues(), rtol=0, atol=1e-12)

    def test_cached_arrays_are_read_only(self):
        rho = PositiveOperator(diagonal=[0.2, 0.5, 0.3])
        spec = rho.spectrum()
        with pytest.raises(ValueError):
            spec.values[0] = 1.0
        with pytest.raises(ValueError):
            spec.basis[0] = 1

    def test_diagonal_spectrum_waits_for_first_read(self):
        rho = PositiveOperator(diagonal=[0.2, 0.5, 0.3])
        assert rho._spectrum is None
        assert rho.spectrum().basis.tolist() == [1, 2, 0]
        assert rho.spectrum() is rho.spectrum()


def test_gap_grid_decomposes_each_operator_once(eigensolves):
    """Dense D(.||sigma_n) gap grid: at most 2 eigensolves per (n, operator)."""
    d, n_max, m_max = 8, 4, 4
    rng = np.random.default_rng(3)
    u, v = random_unitary(rng, d), random_unitary(rng, d)
    eps, eta = rng.uniform(-0.1, 0.1, d), rng.uniform(-0.1, 0.1, d)

    def state(basis, ratio, pert, n):
        lam = ratio ** np.arange(d) * (1.0 + (0.5 ** n if n else 0.0) * pert)
        return DensityOperator((basis * (lam / lam.sum())) @ basis.conj().T)

    rho = OperatorSequence(lambda n: state(u, 0.7, eps, n), d)
    sigma = OperatorSequence(lambda n: state(v, 0.8, eta, n), d)
    grid = approximation_gap_grid(relative_entropy_family(sigma), rho, ApproximationScheme("spectral"),
                                  n_max, m_max)
    assert len(grid.cells) == (n_max + 1) * m_max
    assert sum(eigensolves.values()) <= 4 * (n_max + 1)
    assert eigensolves["eigh"] <= 2 * (n_max + 1)
