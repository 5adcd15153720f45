"""Entropic functionals on positive operators.

Everything here works on the positive cone, not just on states: the von
Neumann entropy uses its homogeneous extension S(rho) = Tr eta(rho) -
eta(Tr rho), and the relative entropy uses the Lindblad extension
D(rho||sigma) = sum <i| rho ln rho - rho ln sigma |i> + Tr sigma - Tr rho,
with D(0||sigma) = Tr sigma and +inf on support violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .extreal import INFINITY, ExtendedReal, finite
from .operators import (
    DensityOperator,
    HermitianOperator,
    PositiveOperator,
    Projector,
    compress,
    default_rank_tol,
    partial_trace,
    support_projector,
)

SUPPORT_TOL = 1e-10


def eta(x: float) -> float:
    """eta(x) = -x ln x with eta(0) = 0."""
    if x < 0:
        raise ValueError(f"eta is only defined for x >= 0, got {x}")
    return 0.0 if x == 0.0 else -x * math.log(x)


def binary_entropy_extension(x: float, y: float) -> float:
    """Homogeneous binary entropy eta(x) + eta(y) - eta(x + y); (0,0) gives 0."""
    if x < 0 or y < 0:
        raise ValueError(f"inputs must be nonnegative, got ({x}, {y})")
    return eta(x) + eta(y) - eta(x + y)


def binary_entropy(p: float) -> float:
    """h2(p) = eta(p) + eta(1-p) for p in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return eta(p) + eta(1.0 - p)


def von_neumann_entropy(rho: PositiveOperator) -> ExtendedReal:
    """Homogeneous entropy on the cone; equals Tr eta(rho) for states, 0 at rho = 0."""
    spec = rho.spectrum()
    lam = spec.values[:spec.rank]
    t = float(np.sum(lam))
    if t == 0.0:
        return finite(0.0)
    return finite(float(-np.sum(lam * np.log(lam))) - eta(t))


def trace_neg_log(rho: PositiveOperator, sigma: PositiveOperator) -> ExtendedReal:
    """Tr rho (-ln sigma) on supp sigma; +inf if rho has mass outside supp sigma."""
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    spec = sigma.spectrum()
    # rho's mass along each sigma eigenvector
    weights = np.clip(spec.weights(rho), 0.0, None)
    r = spec.rank
    if float(np.sum(weights[r:])) > SUPPORT_TOL:
        return INFINITY
    return finite(float(-np.sum(weights[:r] * np.log(spec.values[:r]))))


def relative_entropy(rho: PositiveOperator, sigma: PositiveOperator) -> ExtendedReal:
    """Lindblad relative entropy on the cone.

    Uses the representation D = Tr rho(-ln sigma) + Tr rho ln rho + Tr sigma
    - Tr rho, where Tr rho ln rho = -S(rho) - eta(Tr rho) via the homogeneous
    extension; D(0||sigma) = Tr sigma.
    """
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    tr_rho = rho.trace()
    tr_sigma = sigma.trace()
    if tr_rho <= default_rank_tol(rho.dim, rho.operator_norm()):
        return finite(tr_sigma)
    tnl = trace_neg_log(rho, sigma)
    if tnl.is_inf:
        return INFINITY
    s = float(von_neumann_entropy(rho))
    return finite(float(tnl) - s - eta(tr_rho) + tr_sigma - tr_rho)


def quantum_mutual_information(rho_ab: DensityOperator, d_a: int, d_b: int) -> ExtendedReal:
    """I(A:B) = S(rho_A) + S(rho_B) - S(rho_AB), always finite here."""
    if rho_ab.dim != d_a * d_b:
        raise ValueError(f"dim {rho_ab.dim} != d_a*d_b = {d_a * d_b}")
    rho_a = partial_trace(rho_ab, "A", d_a, d_b)
    rho_b = partial_trace(rho_ab, "B", d_a, d_b)
    s_a = float(von_neumann_entropy(_as_pos(rho_a)))
    s_b = float(von_neumann_entropy(_as_pos(rho_b)))
    s_ab = float(von_neumann_entropy(rho_ab))
    return finite(s_a + s_b - s_ab)


def _as_pos(h: HermitianOperator) -> PositiveOperator:
    if h.is_diagonal:
        return PositiveOperator(diagonal=np.clip(h.diag, 0.0, None))
    return PositiveOperator(h.matrix)


@dataclass(frozen=True)
class LadderResult:
    """Monotone regularized-log values a_k = -Tr rho ln(sigma + I/k)."""

    k_values: tuple
    a_k: tuple
    limit_estimate: ExtendedReal

    def __post_init__(self):
        ks = tuple(int(k) for k in self.k_values)
        if any(k <= 0 for k in ks) or any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError("k_values must be strictly increasing positive integers")
        diffs = np.diff(np.asarray(self.a_k, dtype=float))
        if diffs.size and float(np.min(diffs)) < -1e-10:
            raise ValueError(f"ladder not non-decreasing: min step {float(np.min(diffs)):.3e}")


def regularized_log_ladder(rho: PositiveOperator, sigma: PositiveOperator, k_schedule) -> LadderResult:
    """Evaluate a_k = -Tr rho ln(sigma + I/k) along a strictly increasing k schedule.

    sup_k a_k = Tr rho (-ln sigma), so limit_estimate is trace_neg_log(rho, sigma).
    """
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    ks = [int(k) for k in k_schedule]
    spec = sigma.spectrum()
    weights = np.clip(spec.weights(rho), 0.0, None)
    vals = [float(-np.sum(weights * np.log(spec.values + 1.0 / k))) for k in ks]
    return LadderResult(tuple(ks), tuple(vals), trace_neg_log(rho, sigma))


def check_entropy_subadditivity_pair(rho: PositiveOperator, sigma: PositiveOperator):
    """Slacks of S(rho)+S(sigma) <= S(rho+sigma) <= S(rho)+S(sigma)+H({Tr rho, Tr sigma})."""
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    s_sum = float(von_neumann_entropy(rho.add(sigma)))
    s_rho = float(von_neumann_entropy(rho))
    s_sigma = float(von_neumann_entropy(sigma))
    h = binary_entropy_extension(rho.trace(), sigma.trace())
    slack_lower = s_sum - s_rho - s_sigma
    slack_upper = s_rho + s_sigma + h - s_sum
    return slack_lower, slack_upper


def compressed_entropy_pair(rho: PositiveOperator, p: Projector):
    """(S(P rho P), S(P_perp rho P_perp)) for the Lindblad-Ozawa comparison."""
    head = compress(rho, p)
    tail = compress(rho, p.complement())
    return float(von_neumann_entropy(head)), float(von_neumann_entropy(tail))
