"""Range projectors: schedule projectors kept as column ranges of a spectrum's basis.

Every reader that works on the range is checked against the dense path on
the same projector (rebuilt from its materialised matrix, so the range is
forgotten), and every materialised range projector against the dense
P^2 = P and trace checks.  Eigensolves are counted by wrapping numpy's
solvers, which every reader looks up at call time.
"""

from collections import Counter

import numpy as np
import pytest

from qdini import (
    ApproximationScheme,
    DensityOperator,
    LinearAlgebraError,
    OperatorSequence,
    PositiveOperator,
    Projector,
    Spectrum,
    approximation_gap_grid,
    binary_entropy_extension,
    commuting_schedule,
    compress,
    compressed_entropy_pair,
    entropy_family,
    inequality_fuzz,
    random_unitary,
    relative_entropy_family,
    support_projector,
    truncation_criterion,
    validate_schedule,
    von_neumann_entropy,
)
from qdini import operators, truncation
from qdini.truncation import _probe_residual, _projected_mass

TOL = 1e-12

SPECTRA = [
    ("full-rank", [0.35, 0.25, 0.2, 0.12, 0.08]),
    ("rank-deficient", [0.5, 0.3, 0.2, 0.0, 0.0]),
    # cuts at 1 and 3 fall inside a multiplicity group
    ("tied", [0.3, 0.3, 0.15, 0.15, 0.1]),
    ("huge-trace", [3.5e7, 2.5e7, 2e7, 1.2e7, 8e6]),
    ("tiny-trace", [3.5e-9, 2.5e-9, 2e-9, 0.0, 0.0]),
]


def dense_operator(lam, seed):
    """V diag(lam) V* for a Haar-random V."""
    lam = np.asarray(lam, dtype=float)
    u = random_unitary(np.random.default_rng(seed), lam.size)
    return PositiveOperator((u * lam) @ u.conj().T)


def dense_copy(p: Projector) -> Projector:
    """The same projector on the dense path: built from its matrix, no range."""
    return Projector(p.matrix, rank=p.rank)


def close(a, b, scale=None) -> bool:
    """|a - b| <= TOL * max(1, scale), with scale the largest |b| by default."""
    a, b = np.asarray(a), np.asarray(b)
    scale = float(np.max(np.abs(b))) if scale is None else scale
    return bool(np.all(np.abs(a - b) <= TOL * max(1.0, scale)))


@pytest.fixture
def eigensolves(monkeypatch):
    counts = Counter()
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def counted(*args, _solver=solver, _name=name, **kwargs):
            counts[_name] += 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


@pytest.mark.parametrize("name, lam", SPECTRA)
class TestRangeAgainstDense:
    def test_compress_head_and_tail(self, name, lam):
        rho = dense_operator(lam, 1)
        norm = rho.operator_norm()
        for k in range(rho.dim + 1):
            head = rho.spectrum().projector(k)
            for p in (head, head.complement()):
                view, fresh = compress(rho, p), compress(rho, dense_copy(p))
                assert close(view.eigenvalues(), fresh.eigenvalues(), norm)
                assert close(view.matrix, fresh.matrix, norm)
                assert close(float(von_neumann_entropy(view)), float(von_neumann_entropy(fresh)))
                assert close(view.trace(), fresh.trace())

    def test_ranges_of_another_spectrum_take_the_dense_path(self, name, lam):
        rho, other = dense_operator(lam, 11), dense_operator(lam, 12)
        norm = rho.operator_norm()
        for k in range(rho.dim + 1):
            p = other.spectrum().projector(k)
            assert close(compress(rho, p).matrix, compress(rho, dense_copy(p)).matrix, norm)
            assert close(_projected_mass(p, rho), _projected_mass(dense_copy(p), rho), norm)

    def test_compress_makes_no_eigensolve(self, name, lam, eigensolves):
        rho = dense_operator(lam, 2)
        spec = rho.spectrum()
        spec.basis  # solved before counting: the views read it
        eigensolves.clear()
        for k in range(rho.dim + 1):
            compress(rho, spec.projector(k))
            compress(rho, spec.projector(k).complement())
        assert not eigensolves

    def test_leq(self, name, lam):
        ranges = []
        for rho in (dense_operator(lam, 3), dense_operator(lam, 13)):
            heads = [rho.spectrum().projector(k) for k in range(rho.dim + 1)]
            ranges += heads + [p.complement() for p in heads] + [support_projector(rho)]
        for p in ranges:
            for q in ranges:
                assert p.leq(q) == dense_copy(p).leq(dense_copy(q)), (p.span[1:], q.span[1:])

    def test_complement(self, name, lam):
        rho = dense_operator(lam, 4)
        for k in range(rho.dim + 1):
            p = rho.spectrum().projector(k)
            comp = p.complement()
            assert comp.span[0] is rho.spectrum()
            assert comp.rank == rho.dim - k
            assert close(comp.matrix, dense_copy(p).complement().matrix)
            assert comp.complement().rank == k
            assert close(comp.complement().matrix, p.matrix)

    def test_projected_mass(self, name, lam):
        rho = dense_operator(lam, 5)
        for k in range(rho.dim + 1):
            for p in (rho.spectrum().projector(k), rho.spectrum().projector(k).complement()):
                mass = _projected_mass(p, rho)
                assert close(mass, _projected_mass(dense_copy(p), rho))

    def test_probe_residual(self, name, lam):
        rho_0 = dense_operator(lam, 6)
        rho_n = PositiveOperator(rho_0.matrix + 1e-3 * dense_operator(lam, 7).matrix)
        probes = rho_0.spectrum().vectors()
        d = rho_0.dim
        for k, j in ((k, j) for k in range(d + 1) for j in (k, min(k + 1, d))):
            p0, pn = rho_0.spectrum().projector(j), rho_n.spectrum().projector(k)
            for a, b in ((pn, p0), (pn.complement(), p0.complement()), (pn, p0.complement())):
                res = _probe_residual(a, b, probes)
                assert close(res, _probe_residual(dense_copy(a), dense_copy(b), probes))


@pytest.mark.parametrize("name, lam", SPECTRA)
def test_materialised_ranges_pass_the_dense_checks(name, lam):
    rho = dense_operator(lam, 8)
    for k in range(rho.dim + 1):
        for p in (rho.spectrum().projector(k), rho.spectrum().projector(k).complement()):
            m = p.matrix
            assert np.allclose(m @ m, m, atol=1e-10)
            assert abs(np.real(np.trace(m)) - p.rank) <= 1e-8
            assert Projector(m, rank=p.rank).rank == p.rank


def test_materialising_a_range_of_a_bad_basis_fails():
    basis = np.eye(3, dtype=complex)
    basis[0, 1] = 0.1  # columns 0 and 1 overlap
    p = Spectrum([0.5, 0.3, 0.2], diagonal=False, basis=basis).projector(2)
    with pytest.raises(ValueError, match="P\\^2 != P"):
        p.matrix


def test_solved_basis_is_checked_for_orthonormality(monkeypatch):
    real_eigh = operators._eigh

    def skewed(matrix):
        w, v = real_eigh(matrix)
        v = v.copy()
        v[:, 1] += 1e-9 * v[:, 0]
        return w, v

    monkeypatch.setattr(operators, "_eigh", skewed)
    rho = dense_operator([0.5, 0.3, 0.2], 9)
    with pytest.raises(LinearAlgebraError, match="not orthonormal"):
        rho.spectrum().basis


def test_diagonal_spectra_keep_diagonal_projectors():
    rho = PositiveOperator(diagonal=[0.2, 0.5, 0.3])
    p = rho.spectrum().projector(2)
    assert p.is_diagonal and p.span is None
    assert p.diag.tolist() == [0.0, 1.0, 1.0]


def test_compress_stays_importable_from_diagnostics():
    from qdini import diagnostics

    assert diagnostics.compress is compress


def test_lindblad_ozawa_pair_uses_compress():
    rho = dense_operator([0.4, 0.3, 0.2, 0.1], 10)
    p = rho.spectrum().projector(2)
    s_head, s_tail = compressed_entropy_pair(rho, p)
    fresh_head, fresh_tail = compressed_entropy_pair(rho, dense_copy(p))
    assert close(s_head, fresh_head) and close(s_tail, fresh_tail)
    # for an eigenprojector the Lindblad-Ozawa slack is the binary entropy of the split
    slack = binary_entropy_extension(0.7, 0.3)
    assert close(float(von_neumann_entropy(rho)) - s_head - s_tail, slack)


def window(d, n_max, seed):
    rng = np.random.default_rng(seed)
    u, v = random_unitary(rng, d), random_unitary(rng, d)
    eps, eta = rng.uniform(-0.1, 0.1, d), rng.uniform(-0.1, 0.1, d)

    def state(basis, ratio, pert, n):
        lam = ratio ** np.arange(d) * (1.0 + (0.5 ** n if n else 0.0) * pert)
        return DensityOperator((basis * (lam / lam.sum())) @ basis.conj().T)

    rho = OperatorSequence(lambda n: state(u, 0.7, eps, n), d)
    sigma = OperatorSequence(lambda n: state(v, 0.8, eta, n), d)
    return rho, sigma


@pytest.mark.parametrize("with_sigma", [False, True])
def test_schedule_checks_decompose_each_member_once(eigensolves, with_sigma):
    """commuting_schedule + validate_schedule + truncation_criterion: 2 eigensolves per member."""
    d, n_max = 8, 6
    rho, sigma = window(d, n_max, 4)
    family = relative_entropy_family(sigma) if with_sigma else entropy_family()
    schedule = commuting_schedule(rho, d, n_max)
    assert validate_schedule(schedule, rho).status != "violated"
    verdict = truncation_criterion(family, rho, schedule, 1, n_max, d)
    assert verdict.status != "violated"
    members = (n_max + 1) * (2 if with_sigma else 1)
    assert sum(eigensolves.values()) <= 2 * members
    assert eigensolves["eigh"] <= members
    assert all(p._mat is None for p in schedule.projectors.values())


def test_dominated_scheme_builds_its_limits_once(monkeypatch):
    calls = Counter()
    for name in ("largest_stable_index", "top_multiplicity"):
        fn = getattr(truncation, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(truncation, name, counted)
    n_max, m_max = 4, 3
    rho = OperatorSequence(lambda n: PositiveOperator(diagonal=[0.5, 0.3, 0.2 + 0.1 / (n + 1), 0.0]), 4)
    tau = OperatorSequence(lambda n: PositiveOperator(diagonal=[0.5, 0.4, 0.2 + 0.1 / (n + 1), 0.1]), 4)
    scheme = ApproximationScheme("dominated", 1.0, rho)
    grid = approximation_gap_grid(entropy_family(), tau, scheme, n_max, m_max)
    assert len(grid.cells) == (n_max + 1) * len(grid.m_range)
    # one per limit and per (limit, m), not one per (n, m) cell
    assert calls["top_multiplicity"] <= 2
    assert calls["largest_stable_index"] <= 2 * m_max


def test_mi_bound_trial_solves_six_spectra(eigensolves):
    inequality_fuzz("mi-bound", 4, 1, 11)
    assert sum(eigensolves.values()) == 6
