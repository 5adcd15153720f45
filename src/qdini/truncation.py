"""Spectral truncation, stable indices and consistent projector schedules.

Psi_m compresses a positive operator onto its m largest-eigenvalue
directions.  Stable indices are the ranks m where a spectral gap makes the
projector basis-independent.  Projector schedules are double-indexed families
P^n_m validated against five consistency conditions: rank P^n_m <= m,
Tr P^n_m rho_n > 0, nesting in m, support coverage, and convergence of P^n_m
to P^0_m (the last one only as a finite-window trend).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .entropies import von_neumann_entropy
from .operators import (
    DensityOperator,
    HermitianOperator,
    PositiveOperator,
    Projector,
    coordinate_projector,
    default_rank_tol,
    eigh,  # noqa: F401  kept importable from here: perfbench's tracer test wraps truncation.eigh
    support_projector,
)
from .verdicts import (
    CheckResult,
    TrendSummary,
    Verdict,
    combine_status,
)

class OperatorSequence:
    """Indexed family n -> PositiveOperator; index 0 is the declared limit."""

    __slots__ = ("generator", "dim", "label", "_cache")

    def __init__(self, generator, dim: int, label: str = ""):
        self.generator = generator
        self.dim = int(dim)
        self.label = label
        self._cache = {}

    def __call__(self, n: int) -> PositiveOperator:
        if n not in self._cache:
            op = self.generator(n)
            if op.dim != self.dim:
                raise ValueError(f"member {n} has dim {op.dim}, expected {self.dim}")
            self._cache[n] = op
        return self._cache[n]


def constant_sequence(op: PositiveOperator, label: str = "") -> OperatorSequence:
    return OperatorSequence(lambda n: op, op.dim, label)


def normalize(sigma: PositiveOperator):
    """[sigma] = sigma / Tr sigma; returns None for (numerically) zero input."""
    t = sigma.trace()
    if t <= default_rank_tol(sigma.dim, sigma.operator_norm()):
        return None
    return sigma.rescaled(1.0 / t, DensityOperator)


@dataclass(frozen=True)
class TruncationResult:
    head: PositiveOperator
    tail: PositiveOperator
    mass: float
    ambiguous: bool = False  # m fell inside a multiplicity group


def spectral_truncation(rho: PositiveOperator, m: int) -> TruncationResult:
    """Psi_m(rho) = P^rho_m rho with the deterministic eigenvalue tie-break.

    If m >= rank rho the head is rho itself.  When m cuts through a
    multiplicity group the result carries the ambiguous flag.  Head and
    tail are spectral views of rho: they reuse its eigenbasis.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    spec = rho.spectrum()
    lam = spec.kept()
    if m >= spec.rank:
        return TruncationResult(rho, rho.rescaled(0.0), float(np.sum(lam)))
    d = rho.dim
    ambiguous = lam[m - 1] - lam[m] <= spec.gap_tol
    head = spec.reordered(np.concatenate([lam[:m], np.zeros(d - m)])).operator()
    # the tail lists rho's eigenvectors from m on first, then the head's
    tail_order = np.concatenate([np.arange(m, d), np.arange(m)])
    tail = spec.reordered(np.concatenate([lam[m:], np.zeros(m)]), tail_order).operator()
    return TruncationResult(head, tail, float(np.sum(lam[:m])), ambiguous)


def truncated_state_entropy_bound(rho: PositiveOperator, m: int) -> bool:
    """S([Psi_m(rho)]) <= ln m within 1e-10."""
    head = spectral_truncation(rho, m).head
    state = normalize(head)
    if state is None:
        return True
    return float(von_neumann_entropy(state)) <= math.log(m) + 1e-10


def stable_index_set(rho: PositiveOperator, m_max: int, gap_tol: float | None = None):
    """Ranks m where lambda_{m+1} < lambda_m - gap_tol, or lambda_m is zero-rank."""
    spec = rho.spectrum()
    lam = spec.kept()
    tol = spec.gap_tol if gap_tol is None else gap_tol
    nxt = np.append(lam[1:], 0.0)
    stable = (nxt < lam - tol) | (lam <= spec.rank_tol)
    return [int(m) + 1 for m in np.flatnonzero(stable[:max(m_max, 0)])]


def largest_stable_index(limit: PositiveOperator, m: int, m_max: int | None = None):
    """m-hat: the largest stable index of the limit operator not exceeding m."""
    cap = limit.dim if m_max is None else m_max
    candidates = [s for s in stable_index_set(limit, min(m, cap)) if s <= m]
    return candidates[-1] if candidates else None


def top_multiplicity(rho: PositiveOperator) -> int:
    """Multiplicity of the maximal eigenvalue (within the gap tolerance)."""
    return rho.spectrum().multiplicity_groups[0][1]


def dominated_truncation(tau: PositiveOperator, rho: PositiveOperator, c: float, m: int,
                         rho_limit: PositiveOperator, sigma_limit: PositiveOperator) -> TruncationResult:
    """Truncation of tau = c rho + sigma along stable indices of the limits.

    head = c Psi_{m-hat(rho_limit)}(rho) + Psi_{m-hat(sigma_limit)}(sigma)
    with sigma = tau - c rho; m must reach the top-eigenvalue multiplicities
    of both limit operators.
    """
    return _dominated_truncation(tau, rho, c, m, _LimitCuts(rho_limit, sigma_limit))


class _LimitCuts:
    """The limit operators of a dominated truncation, with their cut indices memoized.

    ``which`` names a limit: "rho" (rho_0) or "sigma" (sigma_0 = tau_0 - c rho_0).
    """

    __slots__ = ("rho", "sigma", "_memo")

    def __init__(self, rho_limit: PositiveOperator, sigma_limit: PositiveOperator):
        self.rho = rho_limit
        self.sigma = sigma_limit
        self._memo = {}

    def top_multiplicity(self, which: str) -> int:
        return self._memoized(which, None, top_multiplicity)

    def stable_index(self, which: str, m: int):
        return self._memoized(which, m, lambda limit: largest_stable_index(limit, m))

    def _memoized(self, which, m, compute):
        key = (which, m)
        if key not in self._memo:
            self._memo[key] = compute(getattr(self, which))
        return self._memo[key]


def _dominated_truncation(tau: PositiveOperator, rho: PositiveOperator, c: float, m: int,
                          cuts: _LimitCuts) -> TruncationResult:
    if tau.dim != rho.dim:
        raise ValueError(f"dimension mismatch: {tau.dim} vs {rho.dim}")
    diff = tau.sub(rho.scale(c))
    lam_min = float(np.min(diff.diag)) if diff.is_diagonal else float(np.min(np.linalg.eigvalsh(diff.matrix)))
    psd_tol = 1e-10 * max(tau.operator_norm(), 1e-30)
    if lam_min < -psd_tol:
        raise ValueError(f"tau - c*rho is not PSD: most negative eigenvalue {lam_min:.3e}")
    sigma = _clip_positive(diff)
    sigma_zero = sigma.trace() <= default_rank_tol(sigma.dim, sigma.operator_norm())
    m_star = cuts.top_multiplicity("rho")
    if not sigma_zero:
        m_star = max(m_star, cuts.top_multiplicity("sigma"))
    if m < m_star:
        raise ValueError(f"m = {m} is below the multiplicity floor m_* = {m_star}")
    mh_rho = cuts.stable_index("rho", m)
    if mh_rho is None:
        raise ValueError(f"no stable index of the rho limit at or below m = {m}")
    head_rho = spectral_truncation(rho, mh_rho)
    if sigma_zero:
        head = head_rho.head.scale(c)
        return TruncationResult(head, head_rho.tail.scale(c), head.trace(), head_rho.ambiguous)
    mh_sigma = cuts.stable_index("sigma", m)
    if mh_sigma is None:
        raise ValueError(f"no stable index of the sigma limit at or below m = {m}")
    head_sigma = spectral_truncation(sigma, mh_sigma)
    head = head_rho.head.scale(c).add(head_sigma.head)
    tail = head_rho.tail.scale(c).add(head_sigma.tail)
    return TruncationResult(head, tail, head.trace(), head_rho.ambiguous or head_sigma.ambiguous)


def _clip_positive(h: HermitianOperator) -> PositiveOperator:
    if h.is_diagonal:
        return PositiveOperator(diagonal=np.clip(h.diag, 0.0, None))
    return PositiveOperator(h.matrix)


@dataclass(frozen=True)
class ApproximationScheme:
    """Psi_m family: plain spectral truncation or the dominated composite map.

    The dominated kind truncates tau_n = c rho_n + sigma_n by cutting rho_n
    and sigma_n = tau_n - c rho_n separately at stable indices of the limit
    operators.  The limit operators and their cut indices are worked out
    once per sequence.
    """

    kind: str = "spectral"  # "spectral" or "dominated"
    c: float = 1.0
    dominated: OperatorSequence | None = None
    _cuts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("spectral", "dominated"):
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.kind == "dominated" and self.dominated is None:
            raise ValueError("dominated scheme needs the dominated sequence")

    def truncate(self, seq: OperatorSequence, n: int, m: int) -> TruncationResult:
        if self.kind == "spectral":
            return spectral_truncation(seq(n), m)
        return _dominated_truncation(seq(n), self.dominated(n), self.c, m, self._limit_cuts(seq))

    def m_floor(self, seq: OperatorSequence) -> int:
        """Smallest usable m: 1 for spectral, the multiplicity floor otherwise."""
        if self.kind == "spectral":
            return 1
        cuts = self._limit_cuts(seq)
        m_star = cuts.top_multiplicity("rho")
        sigma_limit = cuts.sigma
        if sigma_limit.trace() > default_rank_tol(sigma_limit.dim, sigma_limit.operator_norm()):
            m_star = max(m_star, cuts.top_multiplicity("sigma"))
        return m_star

    def _limit_cuts(self, seq: OperatorSequence) -> _LimitCuts:
        # keyed by id; the entry holds seq itself, so the id stays its own
        entry = self._cuts.get(id(seq))
        if entry is None:
            rho_limit = self.dominated(0)
            sigma_limit = _clip_positive(seq(0).sub(rho_limit.scale(self.c)))
            entry = self._cuts[id(seq)] = (seq, _LimitCuts(rho_limit, sigma_limit))
        return entry[1]


@dataclass(frozen=True)
class ProjectorSchedule:
    """Double-indexed projector family (n, m) -> Projector on [0..n_max] x [m_0..m_max]."""

    m_0: int
    m_max: int
    n_max: int
    projectors: dict = field(repr=False)  # (n, m) -> Projector
    commuting: bool = False
    label: str = ""

    def projector(self, n: int, m: int) -> Projector:
        return self.projectors[(n, m)]


def fixed_basis_schedule(dim: int, m_max: int, seq: OperatorSequence,
                         n_max: int = 12, m_0: int = 1) -> ProjectorSchedule:
    """P^n_m = projector onto the first m coordinates, constant in n."""
    projs = {}
    for m in range(m_0, m_max + 1):
        p = coordinate_projector(dim, range(m))
        for n in range(n_max + 1):
            rho = seq(n)
            mass = float(np.sum(rho.diag[:m])) if rho.is_diagonal else float(np.real(np.trace(p.matrix @ rho.matrix)))
            if mass <= default_rank_tol(dim, rho.operator_norm()):
                raise ValueError(f"Tr P_m rho_n vanishes at (n, m) = ({n}, {m})")
            projs[(n, m)] = p
    return ProjectorSchedule(m_0, m_max, n_max, projs, commuting=False, label="fixed-basis")


def commuting_schedule(seq: OperatorSequence, m_max: int, n_max: int) -> ProjectorSchedule:
    """Schedule of spectral projectors of rho_n, cut at stable indices of the limit.

    Full-rank windows use P^n_m = top-(m-hat of rho_0) eigenprojector of
    rho_n.  If any member is rank deficient, the limit is first extended by a
    direct sum with an auxiliary full-rank state whose spectrum lies strictly
    below every positive eigenvalue in the window, so the induced cut always
    lands inside rho_n's spectrum and the restricted projectors stay nested.
    """
    dim = seq.dim
    members = [seq(n) for n in range(n_max + 1)]
    spectra = [op.spectrum() for op in members]
    ranks = [spec.rank for spec in spectra]
    if any(op.trace() <= default_rank_tol(dim, op.operator_norm()) for op in members):
        raise ValueError("commuting_schedule requires every window member to be nonzero")
    full_rank = all(r == dim for r in ranks)
    if full_rank:
        limit = members[0]
        m_0 = top_multiplicity(limit)
    else:
        limit = _extended_limit(spectra)
        m_0 = top_multiplicity(limit)
    if m_0 > m_max:
        raise ValueError(f"m_max = {m_max} is below the starting index m_0 = {m_0}; enlarge the window")
    projs = {}
    for m in range(m_0, m_max + 1):
        mh = largest_stable_index(limit, m, m_max=limit.dim)
        if mh is None:
            raise ValueError(f"no stable index of the limit at or below m = {m}; enlarge m_max")
        for n in range(n_max + 1):
            projs[(n, m)] = spectra[n].projector(min(mh, ranks[n]))
    return ProjectorSchedule(m_0, m_max, n_max, projs, commuting=True, label="commuting")


def _extended_limit(spectra) -> PositiveOperator:
    """rho_0 (+) auxiliary state with a geometric spectrum below the window."""
    dim = spectra[0].values.size
    min_pos = min(float(spec.values[spec.rank - 1]) for spec in spectra)
    # fractional part of sqrt(2): keeps the auxiliary spectrum numerically
    # disjoint from the window spectra while staying strictly below them
    scale = (math.sqrt(2.0) - 1.0) * min_pos
    aux = scale * 0.5 ** np.arange(dim)
    return PositiveOperator(diagonal=np.concatenate([spectra[0].kept(), aux]))


def validate_schedule(schedule: ProjectorSchedule, seq: OperatorSequence,
                      n_max: int | None = None, m_max: int | None = None) -> Verdict:
    """Check the five consistency conditions of a schedule on a finite window.

    The first four are hard checks; convergence of P^n_m to P^0_m is reported
    only as a probe-vector residual trend over n, never as a proof.
    """
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
    checks.append(CheckResult("rank P^n_m <= m", rank_ok, float(rank_slack), rank_detail))
    checks.append(CheckResult("Tr P^n_m rho_n > 0", mass_ok, float(mass_slack), mass_detail))
    checks.append(CheckResult("P^n_m <= P^n_(m+1)", nest_ok, 0.0, nest_detail))
    checks.append(CheckResult("join of P^n_m covers supp rho_n", cover_ok, 0.0, cover_detail))
    probes = _probe_vectors(seq(0))
    trends = []
    trends_ok = True
    for m in range(m_lo, m_hi + 1):
        p0 = schedule.projector(0, m)
        res = []
        for n in range(1, n_hi + 1):
            pn = schedule.projector(n, m)
            res.append(_probe_residual(pn, p0, probes))
        trend = TrendSummary.from_residuals(f"probe residual ||(P^n_m - P^0_m)v||, m = {m}", res)
        trends.append(trend)
        trends_ok = trends_ok and trend.shrinks
    hypothesis_ok = rank_ok and mass_ok and nest_ok and cover_ok
    status = combine_status(True, not hypothesis_ok, trends_ok)
    return Verdict(
        name="schedule-consistency",
        status=status,
        hypothesis_checks=tuple(checks),
        conclusion_trends=tuple(trends),
        trend_only=True,
        notes=("projector convergence is certified only as a finite-window trend",),
    )


def _projected_mass(p: Projector, rho: PositiveOperator) -> float:
    if p.span is not None and p.span[0] is rho.spectrum():
        spec, lo, hi = p.span
        return float(np.sum(spec.values[lo:hi]))
    if p.is_diagonal and rho.is_diagonal:
        return float(np.sum(rho.diag[p.diag > 0.5]))
    return float(np.real(np.trace(p.matrix @ rho.matrix)))


def _probe_vectors(rho_0: PositiveOperator) -> np.ndarray:
    return rho_0.spectrum().vectors()


def _probe_residual(pn: Projector, p0: Projector, probes: np.ndarray) -> float:
    if pn.span is not None and p0.span is not None:
        (spec_n, lo_n, hi_n), (spec_0, lo_0, hi_0) = pn.span, p0.span
        v = spec_n.basis[:, lo_n:hi_n]
        w = spec_0.basis[:, lo_0:hi_0]
        d = v @ (v.conj().T @ probes) - w @ (w.conj().T @ probes)
        return float(np.max(np.linalg.norm(d, axis=0)))
    if pn.is_diagonal and p0.is_diagonal:
        diff = np.abs(pn.diag - p0.diag)
        return float(np.max(diff))
    d = pn.matrix - p0.matrix
    return float(np.max(np.linalg.norm(d @ probes, axis=0)))


def commutator_norm(p: Projector, rho: PositiveOperator) -> float:
    """||[P, rho]||_1, used to certify commuting schedules."""
    if p.is_diagonal and rho.is_diagonal:
        return 0.0
    c = p.matrix @ rho.matrix - rho.matrix @ p.matrix
    sv = np.linalg.svd(c, compute_uv=False)
    return float(np.sum(sv))
