"""Spectral truncation, stable indices and consistent projector schedules.

Psi_m compresses a positive operator onto its m largest-eigenvalue
directions.  Stable indices are the ranks m where a spectral gap makes the
projector basis-independent.  Projector schedules are double-indexed families
P^n_m validated against five consistency conditions: four hard checks
(rank P^n_m <= m, Tr P^n_m rho_n > 0, nesting in m, support coverage) and
convergence of P^n_m to P^0_m, the last one only as a finite-window trend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .entropies import _TINY_MASS, _binary_units, _support_tol, von_neumann_entropy
from .operators import (
    DensityOperator,
    PositiveOperator,
    Projector,
    Spectrum,
    default_rank_tol,
    default_rank_tols,
    diagonal_spectra,
    eigh,  # noqa: F401  kept importable from here: perfbench's tracer test wraps truncation.eigh
    group_ends,
    positive_diagonal,
)
from .verdicts import INEQUALITY, CheckResult, TrendSummary, Verdict

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


def check_positive(name: str, c: float) -> None:
    """Refuse a domination constant c that is not a finite number > 0: ValueError naming it."""
    if not (math.isfinite(c) and c > 0.0):
        raise ValueError(f"{name} must be finite and > 0, got {c!r}")


def normalize(sigma: PositiveOperator):
    """[sigma] = sigma / Tr sigma, a trace below ``_TINY_MASS`` first taken in ``_binary_units``; None for (numerically) zero input."""
    if sigma.vanishes():
        return None
    if sigma.trace() < _TINY_MASS:
        data = _binary_units(sigma.diag if sigma.is_diagonal else sigma.matrix, sigma.operator_norm())[0]
        sigma = PositiveOperator(diagonal=data) if sigma.is_diagonal else PositiveOperator(data)
    return sigma.rescaled(1.0 / sigma.trace(), DensityOperator)


@dataclass(frozen=True)
class TruncationResult:
    head: PositiveOperator
    tail: PositiveOperator
    mass: float
    ambiguous: bool = False  # m fell inside a multiplicity group


def spectral_truncation(rho: PositiveOperator, m: int) -> TruncationResult:
    """Psi_m(rho) = P^rho_m rho with the deterministic eigenvalue tie-break.

    Head and tail are ``rho.split(m)``: spectral views of rho's kept
    values, so if m >= rank rho the head is rho itself.  When m cuts through
    a multiplicity group the result carries the ambiguous flag.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    spec = rho.spectrum()
    lam = spec.kept()
    head, tail = rho.split(m)
    if m >= spec.rank:
        return TruncationResult(head, tail, float(np.sum(lam)))
    return TruncationResult(head, tail, float(np.sum(lam[:m])), not spec.stable[m - 1])


def truncated_state_entropy_bound(rho: PositiveOperator, m: int) -> bool:
    """S([Psi_m(rho)]) <= ln m within 1e-10."""
    head = spectral_truncation(rho, m).head
    state = normalize(head)
    if state is None:
        return True
    return float(von_neumann_entropy(state)) <= math.log(m) + 1e-10


def stable_index_set(rho: PositiveOperator, m_max: int):
    """Ranks m <= m_max where a multiplicity group ends (lambda_{m+1} < lambda_m - gap_tol), or m is past the rank."""
    return [int(m) + 1 for m in np.flatnonzero(rho.spectrum().stable[:max(m_max, 0)])]


def largest_stable_index(limit: PositiveOperator, m: int, m_max: int | None = None):
    """m-hat: the largest stable index of the limit operator not exceeding m (nor m_max, default its dim); None if there is none."""
    return int(largest_stable_indices(limit, [m], m_max)[0]) or None


def largest_stable_indices(limit: PositiveOperator, ms, m_max: int | None = None) -> np.ndarray:
    """``largest_stable_index`` at every m of ms as an int array, 0 where there is none.

    The stable index set up to m_max is computed once and each m found
    in it by ``np.searchsorted``.
    """
    stable = np.array(stable_index_set(limit, limit.dim if m_max is None else m_max), dtype=np.intp)
    found = np.searchsorted(stable, np.asarray(ms, dtype=np.intp), side="right")
    return np.concatenate([[0], stable])[found]


def top_multiplicity(rho: PositiveOperator) -> int:
    """Size of the top multiplicity group: the first stable index, 1 for a zero operator."""
    return int(np.argmax(rho.spectrum().stable)) + 1


def dominated_truncation(tau: PositiveOperator, rho: PositiveOperator, c: float, m: int,
                         rho_limit: PositiveOperator, sigma_limit: PositiveOperator) -> TruncationResult:
    """Truncation of tau = c rho + sigma along stable indices of the limits.

    head = c Psi_{m-hat(rho_limit)}(rho) + Psi_{m-hat(sigma_limit)}(sigma)
    with sigma = tau - c rho, c > 0; m must reach the top-eigenvalue
    multiplicity of each limit operator (1 for a zero limit), or of the
    rho limit alone when sigma vanishes.  It is the one cell of the cut
    table of the pair (rho, sigma) at m.
    """
    check_positive("c", c)
    if tau.dim != rho.dim:
        raise ValueError(f"dimension mismatch: {tau.dim} vs {rho.dim}")
    sigma = _sigma_part(tau, rho, c)
    limits = (rho_limit, sigma_limit)
    floors = _limit_floors(limits)
    m_star = floors[0] if sigma.vanishes() else max(floors)
    if m < m_star:
        raise ValueError(f"m = {m} is below the multiplicity floor m_* = {m_star}")
    return _cut_table(limits, range(m, m + 1), c, [rho], [sigma]).truncation(0, 0)


def _limit_floors(limits) -> tuple:
    """The multiplicity floor of each limit (rho_0, sigma_0): its first stable index, the least m with an m-hat."""
    return tuple(top_multiplicity(limit) for limit in limits)


def ambiguous_cuts(spectra, cuts: np.ndarray) -> np.ndarray:
    """``spectral_truncation``'s ambiguous flag for every cut k >= 1 of ``cuts``, from the spectra alone.

    ``cuts`` has shape (N, M), row j cutting spectra[j].  A cut is ambiguous iff it
    is below the rank, where values are kept values, and no group ends at it.
    """
    return _ambiguous_cuts(*_stacked(spectra), cuts)


def _stacked(spectra) -> tuple:
    """(values (N, d), ranks (N,), gap tolerances (N, 1)) of a list of spectra."""
    return (np.array([spec.values for spec in spectra]), np.array([spec.rank for spec in spectra]),
            np.array([[spec.gap_tol] for spec in spectra]))


def _ambiguous_cuts(values: np.ndarray, ranks: np.ndarray, gap_tols: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """``ambiguous_cuts`` from stacked spectra: values (N, d), ranks (N,) and gap tolerances (N, 1)."""
    ends = group_ends(values, gap_tols)
    return (cuts < ranks[:, None]) & ~ends[np.arange(len(values))[:, None], cuts - 1]


@dataclass(frozen=True, eq=False)
class DominatedCuts:
    """The cut table of the dominated scheme: rows n of pairs (rho_n, sigma_n = tau_n - c rho_n), columns m of m_range.

    ``cuts[0, j, i]`` is m-hat of the rho limit at the i-th m, clipped at
    rank rho_n (at least 1), and ``cuts[1, j, i]`` the same for the sigma
    limit and sigma_n.  A cut at or past the rank truncates to the
    operator itself, so the clip changes no truncation.  A table built
    with ``whole`` has one more column, each operator cut at its rank,
    whose head is tau_n.  Where sigma_n vanishes (``cut_sigma[j]`` false)
    only rho_n is cut.  ``ambiguous[j, i]`` flags a cut inside a
    multiplicity group, of rho_n or of a sigma_n that is cut.  Two
    evaluators read the table: ``diagonal_parts`` from arrays and
    ``truncation`` from operators, the oracle of the other.
    """

    m_range: range
    c: float
    rhos: tuple
    sigmas: tuple  # each an operator, or the clamped diagonal of a diagonal pair
    cuts: np.ndarray  # ints, shape (2, N, M)
    cut_sigma: np.ndarray  # bools, shape (N,)
    ambiguous: np.ndarray  # bools, shape (N, M)
    # (clamped diagonals, stable argsorts, ranks) of every rho_n, then sigma_n, if all are diagonal
    diagonals: tuple | None

    def diagonal_parts(self):
        """(heads, tails): the diagonals of the head and the tail of c Psi(rho_n) + Psi(sigma_n) at every cell, (N, M, d); None unless every pair is diagonal.

        A cut keeps the first values of its row, and a cut at or past the
        rank the whole row; the tail keeps the other kept values.  A
        diagonal sigma_n that vanishes is 0 (a sum of non-negative values
        never rounds below its largest), so adding its parts moves no bit.
        """
        if self.diagonals is None:
            return None
        both, order, ranks = self.diagonals
        count, d = both.shape
        cuts = self.cuts.reshape(count, -1)
        position = np.empty_like(order)  # coordinate i is the position[j, i]-th value of row j
        position[np.arange(count)[:, None], order] = np.arange(d)
        in_head = (position[:, None, :] < cuts[:, :, None]) | (cuts >= ranks[:, None])[:, :, None]
        heads = np.where(in_head, both[:, None, :], 0.0)
        tails = np.where(in_head | (position >= ranks[:, None])[:, None, :], 0.0, both[:, None, :])
        n = count // 2
        return self.c * heads[:n] + heads[n:], self.c * tails[:n] + tails[n:]

    def truncation(self, j: int, i: int) -> TruncationResult:
        """c Psi(rho_n) + Psi(sigma_n) at row j and column i from operators: c rho_n.split(k) + sigma_n.split(l), each sum checked by ``add``."""
        rho_head, rho_tail = self.rhos[j].split(int(self.cuts[0, j, i]))
        head, tail = rho_head.scale(self.c), rho_tail.scale(self.c)
        if self.cut_sigma[j]:
            sigma_head, sigma_tail = self._sigma_operators[j].split(int(self.cuts[1, j, i]))
            head, tail = head.add(sigma_head), tail.add(sigma_tail)
        return TruncationResult(head, tail, head.trace(), bool(self.ambiguous[j, i]))

    @cached_property
    def _sigma_operators(self) -> tuple:
        """sigma_n as an operator: a diagonal pair's clamped diagonal is built into one here, on the first per-cell read."""
        return tuple(PositiveOperator(diagonal=s) if isinstance(s, np.ndarray) else s for s in self.sigmas)


def _cut_table(limits, m_range, c: float, rhos, sigmas, whole: bool = False) -> DominatedCuts:
    """The ``DominatedCuts`` of the pairs (rhos[j], sigmas[j]) over m_range, cut at the m-hats of the limits (rho_0, sigma_0).

    Each sigma_n is an operator, or the clamped diagonal of a diagonal
    pair.  Every rho_n and sigma_n enters as its stacked spectrum (values,
    rank, gap tolerance): one stable argsort of the diagonals when every
    pair is diagonal, each operator's own spectrum otherwise.  sigma_n
    vanishes as ``vanishes()`` decides, from its trace and largest value.
    """
    count = len(rhos)
    if all(isinstance(sigma, np.ndarray) for sigma in sigmas):
        both = np.array([rho.diag for rho in rhos] + list(sigmas))
        order, values, ranks, gap_tols = diagonal_spectra(both)
        diagonals, traces = (both, order, ranks), both[count:].sum(axis=1)
    else:
        sigmas = [PositiveOperator(diagonal=s) if isinstance(s, np.ndarray) else s for s in sigmas]
        values, ranks, gap_tols = _stacked([op.spectrum() for op in [*rhos, *sigmas]])
        diagonals, traces = None, np.array([sigma.trace() for sigma in sigmas])
    clip = np.maximum(ranks, 1)[:, None]
    m_hats = np.stack([largest_stable_indices(limit, m_range) for limit in limits])
    cuts = np.minimum(np.repeat(m_hats, count, axis=0), clip)
    if whole:
        cuts = np.concatenate([cuts, clip], axis=1)
    cut_sigma = traces > default_rank_tols(values.shape[1], values[count:, 0])
    flags = _ambiguous_cuts(values, ranks, gap_tols, cuts)
    ambiguous = flags[:count] | (cut_sigma[:, None] & flags[count:])
    return DominatedCuts(m_range, c, tuple(rhos), tuple(sigmas), cuts.reshape(2, count, -1), cut_sigma, ambiguous,
                         diagonals)


def _sigma_part(tau: PositiveOperator, rho: PositiveOperator, c: float, row: bool = False):
    """sigma = tau - c rho, checked by the PSD rule; with ``row``, a diagonal pair gives its ``positive_diagonal`` instead."""
    try:
        if row and tau.is_diagonal and rho.is_diagonal:
            return positive_diagonal(tau.diag - rho.diag * c)
        return PositiveOperator.of(tau.sub(rho.scale(c)))
    except ValueError as exc:
        raise ValueError(f"tau - c*rho: {exc}") from None


@dataclass(frozen=True)
class ApproximationScheme:
    """Psi_m family: plain spectral truncation or the dominated composite map.

    The dominated kind truncates tau_n = c rho_n + sigma_n by cutting rho_n
    and sigma_n = tau_n - c rho_n separately at stable indices of the limit
    operators (c > 0).  One ``dominated_cuts`` call builds the limits, the
    members and the cut table of a whole window; the scheme holds no cache.
    """

    kind: str = "spectral"  # "spectral" or "dominated"
    c: float = 1.0
    dominated: OperatorSequence | None = None

    def __post_init__(self):
        if self.kind not in ("spectral", "dominated"):
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.kind == "dominated" and self.dominated is None:
            raise ValueError("dominated scheme needs the dominated sequence")
        check_positive("c", self.c)

    def dominated_cuts(self, seq: OperatorSequence, ns, m_max: int, whole: bool = False) -> DominatedCuts:
        """The ``DominatedCuts`` of rows n of ns and of the m-range from the multiplicity floor to m_max, plus the whole column with ``whole``.

        The floor is the first stable index of each limit, so every m of
        the range has a cut pair.  rho_n and tau_n are generated in n order,
        and sigma_n = tau_n - c rho_n passes the PSD rule before the next n
        is generated, so the first failing n or member raises.  A diagonal
        pair builds no operator; n = 0 reads the sigma limit.
        """
        limits = self._limits(seq)
        m_range = range(max(_limit_floors(limits)), m_max + 1)
        limit = limits[1].diag if limits[1].is_diagonal else limits[1]  # row 0's sigma_n
        rhos, sigmas = [], []
        for n in ns:
            rhos.append(self.dominated(n))
            sigmas.append(_sigma_part(seq(n), rhos[-1], self.c, row=True) if n else limit)
        return _cut_table(limits, m_range, self.c, rhos, sigmas, whole)

    def m_floor(self, seq: OperatorSequence) -> int:
        """Smallest usable m: 1 for spectral, the multiplicity floor otherwise."""
        if self.kind == "spectral":
            return 1
        return max(_limit_floors(self._limits(seq)))

    def _limits(self, seq: OperatorSequence) -> tuple:
        """The limits (rho_0, sigma_0 = tau_0 - c rho_0) of the dominated scheme on seq."""
        rho_limit = self.dominated(0)
        return rho_limit, _sigma_part(seq(0), rho_limit, self.c)


@dataclass(frozen=True, eq=False)
class ProjectorSchedule:
    """Double-indexed projector family P^n_m on [0..n_max] x [m_0..m_max].

    Each member is a prefix of one basis per n: P^n_m projects onto the
    first cuts[n, m - m_0] vectors of ``bases[n]``.  Cuts above m or
    decreasing in m can be stored, so that validation can reject them.
    """

    m_0: int
    m_max: int
    n_max: int
    bases: tuple  # one Spectrum per n
    cuts: np.ndarray = field(repr=False)  # ints, shape (n_max + 1, m_max - m_0 + 1)

    def __post_init__(self):
        cuts = np.array(self.cuts, dtype=np.intp)
        shape = (self.n_max + 1, self.m_max - self.m_0 + 1)
        if len(self.bases) != shape[0] or cuts.shape != shape:
            raise ValueError(f"expected {shape[0]} bases and cuts of shape {shape}, got {len(self.bases)} and {cuts.shape}")
        if np.any((cuts < 0) | (cuts > self.bases[0].values.size)):
            raise ValueError("cuts must lie in [0, dim]")
        cuts.flags.writeable = False
        object.__setattr__(self, "cuts", cuts)

    def projector(self, n: int, m: int) -> Projector:
        if not self.m_0 <= m <= self.m_max:
            raise KeyError((n, m))
        return self.bases[n].projector(int(self.cuts[n, m - self.m_0]))


def coordinate_basis(dim: int) -> Spectrum:
    """The coordinate basis e_0, ..., e_{dim-1}, in order, as a diagonal spectrum of unit values; no operator is built."""
    return Spectrum(np.ones(dim), diagonal=True, basis=np.arange(dim))


def fixed_basis_schedule(dim: int, m_max: int, seq: OperatorSequence, n_max: int = 12) -> ProjectorSchedule:
    """P^n_m = projector onto the first m coordinates, constant in n."""
    coordinates = coordinate_basis(dim)
    masses = np.array([_prefix_masses(coordinates, seq(n))[1:m_max + 1] for n in range(n_max + 1)])
    tols = np.array([[default_rank_tol(dim, seq(n).operator_norm())] for n in range(n_max + 1)])
    vanishing = np.argwhere((masses <= tols).T)  # (m, n) order: the first vanishing cell by m
    if vanishing.size:
        m, n = vanishing[0]
        raise ValueError(f"Tr P_m rho_n vanishes at (n, m) = ({n}, {m + 1})")
    cuts = np.tile(np.arange(1, m_max + 1), (n_max + 1, 1))
    return ProjectorSchedule(1, m_max, n_max, (coordinates,) * (n_max + 1), cuts)


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
    if any(op.vanishes() for op in members):
        raise ValueError("commuting_schedule requires every window member to be nonzero")
    limit = members[0] if all(r == dim for r in ranks) else _extended_limit(spectra)
    m_0 = top_multiplicity(limit)
    if m_0 > m_max:
        raise ValueError(f"m_max = {m_max} is below the starting index m_0 = {m_0}; enlarge the window")
    m_hats = largest_stable_indices(limit, range(m_0, m_max + 1))  # every m from m_0 on has one
    cuts = np.minimum(m_hats[None, :], np.array(ranks)[:, None])
    return ProjectorSchedule(m_0, m_max, n_max, tuple(spectra), cuts)


def _extended_limit(spectra) -> PositiveOperator:
    """rho_0 (+) auxiliary state with a geometric spectrum below the window."""
    dim = spectra[0].values.size
    min_pos = min(float(spec.values[spec.rank - 1]) for spec in spectra)
    # fractional part of sqrt(2): keeps the auxiliary spectrum numerically
    # disjoint from the window spectra while staying strictly below them
    scale = (math.sqrt(2.0) - 1.0) * min_pos
    aux = scale * 0.5 ** np.arange(dim)
    return PositiveOperator(diagonal=np.concatenate([spectra[0].kept(), aux]))


def schedule_checks(schedule: ProjectorSchedule, seq: OperatorSequence,
                    n_max: int | None = None, m_max: int | None = None) -> tuple:
    """The four hard consistency checks of a schedule on a finite window.

    rank P^n_m <= m, Tr P^n_m rho_n > 0, nesting in m and support coverage,
    each read off the cut array and naming its last failing cell.  Each
    member reads one prefix-mass row (``_prefix_masses``): Tr P^n_m rho_n
    at its cuts, and coverage at its last cut.  The join P covers
    supp rho_n iff Tr (I - P) rho_n, the row's total less its mass at the
    last cut, is at most ``entropies._support_tol`` of the total, the rule
    under which mass off supp sigma leaves D(rho||sigma) finite; it is the
    same on every basis.  A schedule is violated iff one of the checks
    fails; no projector is built and no probe residual is computed.
    """
    n_hi, ms = _schedule_window(schedule, n_max, m_max)
    m_lo, m_hi = int(ms[0]), int(ms[-1])
    bases, cuts = schedule.bases, schedule.cuts[:n_hi + 1, :ms.size]
    prefix = np.array([_prefix_masses(bases[n], seq(n)) for n in range(n_hi + 1)])
    masses = prefix[np.arange(n_hi + 1)[:, None], cuts]
    total = prefix[:, -1]
    rank_bad = cuts > ms
    mass_bad = masses <= 0.0
    # prefixes of one basis are nested iff the cut does not decrease
    nest_bad = cuts[:, :-1] > cuts[:, 1:]
    uncovered = np.flatnonzero(total - masses[:, -1] > _support_tol(total))
    cover_detail = f"support of rho_n not covered at n = {uncovered[-1]}, m = {m_hi}" if uncovered.size else ""
    return (
        CheckResult("rank P^n_m <= m", not rank_bad.any(), float(np.min(ms - cuts)),
                    _last_failure(rank_bad, m_lo, lambda n, i: f"rank {cuts[n, i]} > m"), INEQUALITY),
        CheckResult("Tr P^n_m rho_n > 0", not mass_bad.any(), float(np.min(masses)),
                    _last_failure(mass_bad, m_lo, lambda n, i: f"Tr P rho_n = {masses[n, i]:.3e}"), INEQUALITY),
        CheckResult("P^n_m <= P^n_(m+1)", not nest_bad.any(), 0.0,
                    _last_failure(nest_bad, m_lo, lambda n, i: "P^n_m not below P^n_(m+1)"), INEQUALITY),
        CheckResult("join of P^n_m covers supp rho_n", not uncovered.size, 0.0, cover_detail, INEQUALITY),
    )


def validate_schedule(schedule: ProjectorSchedule, seq: OperatorSequence,
                      n_max: int | None = None, m_max: int | None = None) -> Verdict:
    """Check the five consistency conditions of a schedule on a finite window.

    The first four are the hard checks of ``schedule_checks``, which alone
    decide whether the schedule is violated.  Convergence of P^n_m to P^0_m
    is reported only here, as a probe-vector residual trend over n, never
    as a proof; ``truncation_criterion`` gates on the hard checks and
    computes no probe residual.
    """
    checks = schedule_checks(schedule, seq, n_max, m_max)
    n_hi, ms = _schedule_window(schedule, n_max, m_max)
    bases, cuts = schedule.bases, schedule.cuts
    # only a pair with a dense basis reads the probes; diagonal pairs compare coordinates
    dense = not all(basis.diagonal for basis in bases[:n_hi + 1])
    probes = seq(0).spectrum().vectors() if dense else None
    trends = []
    for i, m in enumerate(ms):
        res = [_probe_residual(bases[n], cuts[n, i], bases[0], cuts[0, i], probes) for n in range(1, n_hi + 1)]
        trends.append(TrendSummary.from_residuals(f"probe residual ||(P^n_m - P^0_m)v||, m = {m}", res))
    return Verdict(
        name="schedule-consistency",
        hypothesis_checks=checks,
        conclusion_trends=tuple(trends),
        notes=("projector convergence is certified only as a finite-window trend",),
    )


def _schedule_window(schedule: ProjectorSchedule, n_max, m_max) -> tuple:
    """The last n and the m values of the window, clipped to the schedule's own."""
    n_hi = schedule.n_max if n_max is None else min(n_max, schedule.n_max)
    m_hi = schedule.m_max if m_max is None else min(m_max, schedule.m_max)
    if m_hi < schedule.m_0:
        raise ValueError(f"m_max = {m_hi} is below the schedule's starting index m_0 = {schedule.m_0}")
    return n_hi, np.arange(schedule.m_0, m_hi + 1)


def _last_failure(bad: np.ndarray, m_lo: int, describe) -> str:
    """describe(n, i) at the last cell of ``bad`` in (n, m) order, i = m - m_lo; "" if none fails."""
    cells = np.argwhere(bad)
    if not cells.size:
        return ""
    n, i = (int(x) for x in cells[-1])
    return f"{describe(n, i)} at (n, m) = ({n}, {m_lo + i})"


def _prefix_masses(basis: Spectrum, rho: PositiveOperator) -> np.ndarray:
    """Tr P_k rho for the projector P_k onto the first k vectors of ``basis``, k = 0..d.

    On rho's own spectrum these are the cumulative sums of its kept values,
    as ``PositiveOperator.split`` cuts it, so no mass lies past the rank;
    any other basis reads rho's weights along it.
    """
    masses = basis.kept() if basis is rho.spectrum() else basis.weights(rho)
    return np.concatenate([[0.0], np.cumsum(masses)])


def _probe_residual(spec_n: Spectrum, cut_n: int, spec_0: Spectrum, cut_0: int, probes: np.ndarray) -> float:
    """max_v ||(P^n - P^0) v|| over the probe columns v, for prefix projectors of two bases.

    Exactly 0 for the same basis and cut.  Two diagonal bases give the
    largest entry of |P^n - P^0|: the residual on coordinate probes.
    """
    if spec_n is spec_0 and cut_n == cut_0:
        return 0.0
    if spec_n.diagonal and spec_0.diagonal:
        index = np.arange(spec_n.values.size)
        return float(np.max(np.abs(spec_n.compose(index < cut_n) - spec_0.compose(index < cut_0))))
    v = spec_n.vectors()[:, :cut_n]
    w = spec_0.vectors()[:, :cut_0]
    d = v @ (v.conj().T @ probes) - w @ (w.conj().T @ probes)
    return float(np.max(np.linalg.norm(d, axis=0)))


def commutator_norm(p: Projector, rho: PositiveOperator) -> float:
    """||[P, rho]||_1, used to certify commuting schedules."""
    if p.is_diagonal and rho.is_diagonal:
        return 0.0
    c = p.matrix @ rho.matrix - rho.matrix @ p.matrix
    sv = np.linalg.svd(c, compute_uv=False)
    return float(np.sum(sv))
