"""Cuts of a spectrum: splits against dense products, and prefix projectors.

``PositiveOperator.split`` gives the head and tail of rho's kept spectrum
as spectral views; each is checked against P rho P from the materialised
prefix projector P.  Prefix projectors of a dense spectrum are built and
checked at once, and the schedule readers (prefix masses, probe residuals,
the coverage rule cut >= rank) are checked against dense projector
matrices.  Eigensolves are counted by wrapping numpy's solvers, which every
reader looks up at call time.
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
from qdini.truncation import _prefix_masses, _probe_residual

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


def close(a, b, scale=None) -> bool:
    """|a - b| <= TOL * max(1, scale), with scale the largest |b| by default."""
    a, b = np.asarray(a), np.asarray(b)
    scale = float(np.max(np.abs(b))) if scale is None else scale
    return bool(np.all(np.abs(a - b) <= TOL * max(1.0, scale)))


@pytest.mark.parametrize("name, lam", SPECTRA)
class TestCutsAgainstDense:
    def test_split_matches_dense_compressions(self, name, lam):
        rho = dense_operator(lam, 1)
        spec = rho.spectrum()
        # relative to the operator's own scale, so the 1e-9 spectrum is held as tightly as the 1e7 one
        tol = TOL * rho.operator_norm()
        for k in range(rho.dim + 1):
            p = spec.projector(k).matrix
            pbar = np.eye(rho.dim) - p
            head, tail = rho.split(k)
            for view, want in ((head, p @ rho.matrix @ p), (tail, pbar @ rho.matrix @ pbar)):
                assert np.max(np.abs(view.matrix - want)) <= tol, (k, view is head)
                assert abs(view.trace() - np.real(np.trace(want))) <= tol
                assert np.max(np.abs(view.eigenvalues() - np.linalg.eigvalsh(want)[::-1])) <= tol
            if k >= spec.rank:
                # at or past the rank: rho itself and a zero tail
                assert head is rho and not tail.eigenvalues().any()

    def test_split_makes_no_eigensolve(self, name, lam, eigensolves):
        rho = dense_operator(lam, 2)
        rho.spectrum().basis  # solved before counting: the views read it
        eigensolves.clear()
        for k in range(rho.dim + 1):
            rho.split(k)
        assert not eigensolves

    def test_prefix_inclusion_is_cut_order(self, name, lam):
        rho = dense_operator(lam, 3)
        spec = rho.spectrum()
        heads = [spec.projector(k) for k in range(rho.dim + 1)]
        for k, p in enumerate(heads):
            assert [p.leq(q) for q in heads] == [k <= j for j in range(rho.dim + 1)]
        # the coverage rule of validate_schedule on rho's own basis
        support = support_projector(rho)
        assert [support.leq(q) for q in heads] == [j >= spec.rank for j in range(rho.dim + 1)]

    def test_prefix_masses(self, name, lam):
        rho = dense_operator(lam, 5)
        # rho's own basis, another dense basis and the coordinate basis
        for spec in (rho.spectrum(), dense_operator(lam, 15).spectrum(), PositiveOperator(diagonal=lam).spectrum()):
            masses = _prefix_masses(spec, rho)
            assert masses[0] == 0.0
            for k in range(rho.dim + 1):
                p = spec.projector(k)
                assert close(masses[k], np.real(np.trace(p.matrix @ rho.matrix)), rho.trace())

    def test_probe_residual(self, name, lam):
        rho_0 = dense_operator(lam, 6)
        rho_n = PositiveOperator(rho_0.matrix + 1e-3 * dense_operator(lam, 7).matrix)
        spectra = (rho_n.spectrum(), rho_0.spectrum(), PositiveOperator(diagonal=lam[::-1]).spectrum())
        probes = rho_0.spectrum().vectors()
        d = rho_0.dim
        for spec_n in spectra:
            for spec_0 in spectra:
                for k, j in ((k, j) for k in range(d + 1) for j in (k, min(k + 1, d))):
                    res = _probe_residual(spec_n, k, spec_0, j, probes)
                    if spec_n is spec_0 and k == j:
                        assert res == 0.0
                        continue
                    # two diagonal bases are compared entrywise: the residual on coordinate probes
                    v = np.eye(d) if spec_n.diagonal and spec_0.diagonal else probes
                    diff = spec_n.projector(k).matrix - spec_0.projector(j).matrix
                    assert close(res, np.max(np.linalg.norm(diff @ v, axis=0)))


@pytest.mark.parametrize("name, lam", SPECTRA)
def test_dense_prefix_projectors_pass_the_checks(name, lam):
    rho = dense_operator(lam, 8)
    for k in range(rho.dim + 1):
        for p in (rho.spectrum().projector(k), rho.spectrum().projector(k).complement()):
            m = p.matrix
            assert not p.is_diagonal
            assert np.allclose(m @ m, m, atol=1e-10)
            assert abs(np.real(np.trace(m)) - p.rank) <= 1e-8
            assert Projector(m, rank=p.rank).rank == p.rank


def test_prefix_projector_of_a_bad_basis_fails_at_once():
    basis = np.eye(3, dtype=complex)
    basis[0, 1] = 0.1  # columns 0 and 1 overlap
    with pytest.raises(ValueError, match="P\\^2 != P"):
        Spectrum([0.5, 0.3, 0.2], diagonal=False, basis=basis).projector(2)


def test_solved_basis_is_checked_for_orthonormality(monkeypatch):
    real_eigh = operators._eigh

    def skewed(matrices):
        w, v = real_eigh(matrices)
        v = v.copy()
        v[1, :, 1] += 1e-9 * v[1, :, 0]  # one member of the stack only
        return w, v

    monkeypatch.setattr(operators, "_eigh", skewed)
    window = [dense_operator([0.5, 0.3, 0.2], seed) for seed in (9, 10, 11)]
    with pytest.raises(LinearAlgebraError, match="dim-3 operator are not orthonormal"):
        operators.solve_bases([rho.spectrum() for rho in window])


def test_diagonal_spectra_keep_diagonal_projectors():
    rho = PositiveOperator(diagonal=[0.2, 0.5, 0.3])
    p = rho.spectrum().projector(2)
    assert p.is_diagonal
    assert p.diag.tolist() == [0.0, 1.0, 1.0]


def test_compress_stays_importable_from_diagnostics():
    from qdini import diagnostics

    assert diagnostics.compress is compress


def test_lindblad_ozawa_pair_uses_compress():
    rho = dense_operator([0.4, 0.3, 0.2, 0.1], 10)
    p = rho.spectrum().projector(2)
    s_head, s_tail = compressed_entropy_pair(rho, p)
    head, tail = rho.split(2)
    assert close(s_head, float(von_neumann_entropy(head))) and close(s_tail, float(von_neumann_entropy(tail)))
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
def test_schedule_checks_decompose_each_member_once(eigensolves, monkeypatch, with_sigma):
    """commuting_schedule + validate_schedule + truncation_criterion: 2 eigensolves per member.

    No projector is built either: coverage is read off the cuts.
    """
    built = []
    init = Projector.__init__
    monkeypatch.setattr(Projector, "__init__", lambda p, *args, **kwargs: built.append(p) or init(p, *args, **kwargs))
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
    assert not built


def test_dense_window_solves_its_bases_in_one_eigensolve(eigensolves):
    """The gap grid of D(.||sigma_n) solves every rho_n and sigma_n basis in one eigh; nothing after it solves again."""
    d, n_max = 8, 6
    rho, sigma = window(d, n_max, 4)
    for n in range(n_max + 1):
        rho(n), sigma(n)  # fresh pairs: built, their bases not yet solved
    eigensolves.clear()
    family = relative_entropy_family(sigma)
    approximation_gap_grid(family, rho, ApproximationScheme("spectral"), n_max, d)
    assert eigensolves == {"eigh": 1}
    eigensolves.clear()
    schedule = commuting_schedule(rho, d, n_max)
    truncation_criterion(family, rho, schedule, 1, n_max, d)
    assert not eigensolves


def test_dominated_scheme_builds_its_limits_once(monkeypatch):
    calls = Counter()
    for name in ("largest_stable_indices", "stable_index_set", "top_multiplicity"):
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
    # one per limit, not one per (n, m) cell
    assert calls["top_multiplicity"] <= 2
    assert calls["largest_stable_indices"] <= 2
    # one stable index set per limit, whatever the number of m
    assert calls["stable_index_set"] <= 2


def test_mi_bound_trial_solves_six_spectra(eigensolves):
    inequality_fuzz("mi-bound", 4, 1, 11)
    assert sum(eigensolves.values()) == 6


def test_relative_entropy_trial_reuses_scaled_spectra(eigensolves):
    # one eigvalsh per random state and per sum or cut built from them, one
    # eigh per second argument; c rho and c sigma are views of rho and sigma
    inequality_fuzz("relative-entropy", 6, 1, 11)
    assert eigensolves == {"eigvalsh": 7, "eigh": 4}


@pytest.mark.parametrize("suite, solves", [("entropy", 6), ("laa-relative-entropy", 5), ("lindblad-ozawa", 3)])
def test_fuzz_trials_scale_by_views(eigensolves, suite, solves):
    inequality_fuzz(suite, 6, 1, 11)
    assert sum(eigensolves.values()) == solves
