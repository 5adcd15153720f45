"""Prefix-schedule validation against the per-projector reference.

A schedule stores one basis per n and an int array of cuts, and
``validate_schedule`` reads its hard checks off the cut array and one
prefix-mass row per member, building no projector.  The reference below
is the per-projector loop it replaced: one ``Projector`` per (n, m),
Tr P rho_n by the diagonal or dense path, nesting and coverage by
``Projector.leq`` (coverage as supp rho_n <= the last projector), and
probe residuals by the diagonal or dense path.  Random windows mix
diagonal and dense members (some rank deficient) with five kinds of basis
per n (the member's own spectrum, a shared coordinate basis, a random
permutation, a random dense basis, or the basis of n - 1), and plant cuts
above m and cuts that decrease in m.  Pass flags, details and statuses
must agree exactly; slacks and residuals within 1e-12 of scale.  The
schedule decides coverage by mass: the join covers supp rho_n iff
Tr (I - P) rho_n is at most SUPPORT_TOL max(1, Tr rho_n).  On these
windows an uncovered member leaves mass far above that, so the range
inclusion of the reference decides alike; the planted-mass tests at the
end pin the tolerance itself on three kinds of basis and three traces.
On the same windows, ``truncation_criterion`` gates on the hard checks
alone: its schedule check agrees with ``validate_schedule``, and it
computes no probe residual.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdini.truncation
from qdini import (
    OperatorSequence,
    PositiveOperator,
    Projector,
    ProjectorSchedule,
    Spectrum,
    commuting_schedule,
    entropy_family,
    fixed_basis_schedule,
    random_unitary,
    support_projector,
    truncation_criterion,
    validate_schedule,
)
from qdini.entropies import SUPPORT_TOL
from qdini.truncation import coordinate_basis, schedule_checks
from qdini.verdicts import INEQUALITY, CheckResult, TrendSummary, Verdict

TOL = 1e-12
BASES = ("own", "coordinates", "permutation", "dense", "previous")


def reference_validate(schedule, seq, n_max=None, m_max=None) -> Verdict:
    """The per-projector validation loop: every check cell by cell, the last failing cell named."""
    n_hi = schedule.n_max if n_max is None else min(n_max, schedule.n_max)
    m_hi = schedule.m_max if m_max is None else min(m_max, schedule.m_max)
    m_lo = schedule.m_0
    checks = []
    rank_ok, rank_slack, rank_detail = True, math.inf, ""
    mass_ok, mass_slack, mass_detail = True, math.inf, ""
    nest_ok, nest_detail = True, ""
    cover_ok, cover_detail = True, ""
    for n in range(n_hi + 1):
        rho = seq(n)
        for m in range(m_lo, m_hi + 1):
            p = schedule.projector(n, m)
            slack = m - p.rank
            if slack < rank_slack:
                rank_slack = slack
            if p.rank > m:
                rank_ok, rank_detail = False, f"rank {p.rank} > m at (n, m) = ({n}, {m})"
            mass = _projected_mass(p, rho)
            if mass < mass_slack:
                mass_slack = mass
            if mass <= 0.0:
                mass_ok, mass_detail = False, f"Tr P rho_n = {mass:.3e} at (n, m) = ({n}, {m})"
            if m < m_hi and not p.leq(schedule.projector(n, m + 1)):
                nest_ok, nest_detail = False, f"P^n_m not below P^n_(m+1) at (n, m) = ({n}, {m})"
        q_n = support_projector(rho)
        if not q_n.leq(schedule.projector(n, m_hi)):
            cover_ok, cover_detail = False, f"support of rho_n not covered at n = {n}, m = {m_hi}"
    checks.append(CheckResult("rank P^n_m <= m", rank_ok, float(rank_slack), rank_detail, INEQUALITY))
    checks.append(CheckResult("Tr P^n_m rho_n > 0", mass_ok, float(mass_slack), mass_detail, INEQUALITY))
    checks.append(CheckResult("P^n_m <= P^n_(m+1)", nest_ok, 0.0, nest_detail, INEQUALITY))
    checks.append(CheckResult("join of P^n_m covers supp rho_n", cover_ok, 0.0, cover_detail, INEQUALITY))
    probes = seq(0).spectrum().vectors()
    trends = []
    for m in range(m_lo, m_hi + 1):
        p0 = schedule.projector(0, m)
        res = [_probe_residual(schedule.projector(n, m), p0, probes) for n in range(1, n_hi + 1)]
        trends.append(TrendSummary.from_residuals(f"probe residual ||(P^n_m - P^0_m)v||, m = {m}", res))
    return Verdict(
        name="schedule-consistency",
        hypothesis_checks=tuple(checks),
        conclusion_trends=tuple(trends),
    )


def _projected_mass(p: Projector, rho: PositiveOperator) -> float:
    if p.is_diagonal and rho.is_diagonal:
        return float(np.sum(rho.diag[p.diag > 0.5]))
    return float(np.real(np.trace(p.matrix @ rho.matrix)))


def _probe_residual(pn: Projector, p0: Projector, probes: np.ndarray) -> float:
    if pn.is_diagonal and p0.is_diagonal:
        return float(np.max(np.abs(pn.diag - p0.diag)))
    d = pn.matrix - p0.matrix
    return float(np.max(np.linalg.norm(d @ probes, axis=0)))


@st.composite
def windows(draw):
    """A schedule with mixed bases and planted cuts, and the sequence it is validated on."""
    d = draw(st.integers(2, 5))
    n_max = draw(st.integers(0, 3))
    m_0 = draw(st.integers(1, 2))
    m_max = draw(st.integers(m_0, d + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u = random_unitary(rng, d)
    members = []
    for _ in range(n_max + 1):
        lam = rng.uniform(0.05, 1.0, d)
        if draw(st.booleans()):
            lam[rng.permutation(d)[:rng.integers(1, d)]] = 0.0
        if draw(st.booleans()):
            basis = u if draw(st.booleans()) else random_unitary(rng, d)
            members.append(PositiveOperator((basis * lam) @ basis.conj().T))
        else:
            members.append(PositiveOperator(diagonal=lam))
    coordinates = PositiveOperator(diagonal=np.ones(d)).spectrum()
    bases = []
    for n, rho in enumerate(members):
        kind = draw(st.sampled_from(BASES if n else BASES[:-1]))
        if kind == "own":
            bases.append(rho.spectrum())
        elif kind == "coordinates":
            bases.append(coordinates)
        elif kind == "permutation":
            bases.append(Spectrum(np.ones(d), diagonal=True, basis=rng.permutation(d)))
        elif kind == "dense":
            bases.append(Spectrum(np.ones(d), diagonal=False, basis=random_unitary(rng, d)))
        else:
            bases.append(bases[-1])
    ms = np.arange(m_0, m_max + 1)
    cuts = np.tile(np.minimum(ms, d), (n_max + 1, 1))
    plants = st.tuples(st.integers(0, n_max), st.integers(0, ms.size - 1), st.integers(0, d))
    for n, i, k in draw(st.lists(plants, max_size=3)):
        cuts[n, i] = k
    seq = OperatorSequence(lambda n: members[n], d)
    return ProjectorSchedule(m_0, m_max, n_max, bases, cuts), seq


def _close(got, want, scale=1.0) -> bool:
    return abs(got - want) <= TOL * max(1.0, scale)


@settings(max_examples=200)
@given(windows(), st.none() | st.integers(0, 3), st.none() | st.integers(1, 6))
def test_prefix_validation_matches_per_projector_reference(window, n_max, m_max):
    schedule, seq = window
    if m_max is not None:
        m_max = max(m_max, schedule.m_0)
    got = validate_schedule(schedule, seq, n_max=n_max, m_max=m_max)
    want = reference_validate(schedule, seq, n_max=n_max, m_max=m_max)
    assert got.status == want.status
    assert len(got.hypothesis_checks) == len(want.hypothesis_checks)
    for g, w in zip(got.hypothesis_checks, want.hypothesis_checks):
        assert (g.name, g.passed, g.detail) == (w.name, w.passed, w.detail)
        assert _close(g.slack, w.slack, abs(w.slack))
    assert len(got.conclusion_trends) == len(want.conclusion_trends)
    for g, w in zip(got.conclusion_trends, want.conclusion_trends):
        assert (g.name, g.shrinks) == (w.name, w.shrinks)
        assert all(map(_close, g.residuals, w.residuals))


@settings(max_examples=200)
@given(windows(), st.integers(0, 3))
def test_criterion_schedule_check_matches_validation(window, n_max):
    schedule, seq = window
    n_max = min(n_max, schedule.n_max)
    full = validate_schedule(schedule, seq, n_max=n_max)
    criterion = truncation_criterion(entropy_family(), seq, schedule, min(1, n_max), n_max, schedule.m_max)
    check = criterion.hypothesis_checks[0]
    assert check.name == "schedule consistency"
    assert check.passed == (full.status != "violated")
    assert (criterion.status == "violated") == (full.status == "violated")


def test_criterion_computes_no_probe_residual(monkeypatch):
    def probe_residual(*args):
        raise AssertionError("truncation_criterion computed a probe residual")

    monkeypatch.setattr(qdini.truncation, "_probe_residual", probe_residual)
    d, n_max = 4, 3
    rng = np.random.default_rng(5)
    u = random_unitary(rng, d)
    lam = np.array([0.4, 0.3, 0.2, 0.1])
    pert = np.array([0.04, -0.01, -0.01, -0.02])
    members = [PositiveOperator((u * (lam + (0.5 ** n if n else 0.0) * pert)) @ u.conj().T) for n in range(n_max + 1)]
    seq = OperatorSequence(lambda n: members[n], d)
    schedule = commuting_schedule(seq, d, n_max)
    assert not schedule.bases[0].diagonal
    verdict = truncation_criterion(entropy_family(), seq, schedule, 1, n_max, d)
    assert verdict.hypothesis_checks[0].passed


@pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
def test_fixed_basis_validation_builds_no_dense_probes(monkeypatch, dense):
    """Every basis of a fixed-basis schedule is diagonal, so no pair reads a probe vector."""
    d, n_max = 5, 3
    rng = np.random.default_rng(9)
    u = random_unitary(rng, d)
    lam = np.array([0.3, 0.25, 0.2, 0.15, 0.1])
    pert = np.array([0.02, -0.01, 0.01, -0.01, -0.01])

    def member(n):
        x = lam + (0.5 ** n if n else 0.0) * pert
        return PositiveOperator((u * x) @ u.conj().T) if dense else PositiveOperator(diagonal=x)

    seq = OperatorSequence(member, d)
    schedule = fixed_basis_schedule(d, d, seq, n_max)

    def vectors(self):
        raise AssertionError("validate_schedule built a dense probe matrix")

    monkeypatch.setattr(Spectrum, "vectors", vectors)
    verdict = validate_schedule(schedule, seq)
    assert verdict.status != "violated"
    assert len(verdict.conclusion_trends) == d



def _no_projector(self, k):
    raise AssertionError("a projector was built")


def _planted_window(basis_kind, trace, planted):
    """A two-member window of dim 3 cut at [1, 2]: rho_0 lies in the last prefix, rho_1 has ``planted`` mass past it."""
    u = random_unitary(np.random.default_rng(11), 3)
    lams = [trace * np.array([0.6, 0.4, 0.0]), trace * np.array([0.6, 0.4, 0.0]) + planted * np.array([0.0, -1.0, 1.0])]
    if basis_kind == "coordinates":
        members = [PositiveOperator(diagonal=lam) for lam in lams]
        bases = (coordinate_basis(3),) * 2
    else:
        members = [PositiveOperator((u * lam) @ u.conj().T) for lam in lams]
        if basis_kind == "own":
            bases = tuple(rho.spectrum() for rho in members)
        else:
            bases = (Spectrum(np.ones(3), diagonal=False, basis=u),) * 2
    seq = OperatorSequence(lambda n: members[n], 3)
    return ProjectorSchedule(1, 2, 1, bases, [[1, 2], [1, 2]]), seq


@pytest.mark.parametrize("trace", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("basis_kind", ["own", "coordinates", "dense"])
@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_coverage_is_the_mass_past_the_last_cut(monkeypatch, basis_kind, trace, factor):
    # the join covers supp rho_n iff Tr (I - P) rho_n <= SUPPORT_TOL max(1, Tr rho_n), on every basis,
    # read off the prefix masses with no projector built
    schedule, seq = _planted_window(basis_kind, trace, factor * SUPPORT_TOL * max(1.0, trace))
    if basis_kind == "own":
        assert seq(1).spectrum().rank == 3  # the planted mass is inside the support, past the cut
    monkeypatch.setattr(Spectrum, "projector", _no_projector)
    checks = schedule_checks(schedule, seq)
    cover = checks[3]
    assert cover.name == "join of P^n_m covers supp rho_n"
    assert (cover.passed, cover.detail) == ((True, "") if factor < 1.0 else
                                            (False, "support of rho_n not covered at n = 1, m = 2"))
    assert all(check.passed for check in checks[:3])
    assert (validate_schedule(schedule, seq).status == "violated") == (factor > 1.0)


@pytest.mark.parametrize("basis_kind", ["own", "coordinates"])
@pytest.mark.parametrize("small, covered", [(1e-11, True), (1e-9, False)])
def test_a_cut_below_the_rank_reads_covered_within_the_tolerance(basis_kind, small, covered):
    rho = PositiveOperator(diagonal=[1.0, small])
    basis = rho.spectrum() if basis_kind == "own" else coordinate_basis(2)
    assert rho.spectrum().rank == 2
    schedule = ProjectorSchedule(1, 1, 0, (basis,), [[1]])
    assert schedule_checks(schedule, OperatorSequence(lambda n: rho, 2))[3].passed == covered


def test_own_basis_rows_are_kept_values():
    # 199 values just below the rank tolerance (d RANK_REL_TOL = 2e-12 of the top) hold 3.8e-10, above the
    # coverage tolerance: rho_n's own row reads them as 0, as ``split`` does, so a cut at the rank covers;
    # the coordinate basis reads rho_n's diagonal and counts them
    d = 200
    rho = PositiveOperator(diagonal=np.concatenate([[1.0], np.full(d - 1, 1.9e-12)]))
    assert rho.spectrum().rank == 1
    seq = OperatorSequence(lambda n: rho, d)
    for basis, covered in ((rho.spectrum(), True), (coordinate_basis(d), False)):
        assert schedule_checks(ProjectorSchedule(1, 1, 0, (basis,), [[1]]), seq)[3].passed == covered


@pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
def test_truncation_criterion_builds_no_projector(monkeypatch, dense):
    """A commuting schedule reads rho_n's own spectra and a fixed-basis one diagonal members: both are rows windows."""
    d, n_max = 4, 3
    u = random_unitary(np.random.default_rng(5), d)
    lam = np.array([0.4, 0.3, 0.2, 0.1])
    pert = np.array([0.04, -0.01, -0.01, -0.02])

    def member(n):
        x = lam + (0.5 ** n if n else 0.0) * pert
        return PositiveOperator((u * x) @ u.conj().T) if dense else PositiveOperator(diagonal=x)

    seq = OperatorSequence(member, d)
    schedule = commuting_schedule(seq, d, n_max) if dense else fixed_basis_schedule(d, d, seq, n_max)
    monkeypatch.setattr(Spectrum, "projector", _no_projector)
    verdict = truncation_criterion(entropy_family(), seq, schedule, 1, n_max, d)
    assert verdict.hypothesis_checks[0].passed
