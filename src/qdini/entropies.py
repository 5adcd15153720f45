"""Entropic functionals on positive operators.

Everything here works on the positive cone, not just on states: the von
Neumann entropy uses its homogeneous extension S(rho) = Tr eta(rho) -
eta(Tr rho), and the relative entropy uses the Lindblad extension
D(rho||sigma) = sum <i| rho ln rho - rho ln sigma |i> + Tr sigma - Tr rho,
with D(0||sigma) = Tr sigma and +inf on support violation.

S has one formula (``_entropies``), so its error does not grow with the
trace.  The window forms follow the scalar rules: ``entropy_of_diagonals``
on stacked spectra, the ``*_pairs`` functions on lists of pairs
(rho_n, sigma_n), and ``SpectralCuts`` with the ``*_cuts`` functions on
every head and tail of a window.  ``tests/test_accuracy.py`` holds every
form to a 60-digit ``decimal`` oracle: S within 2e-15 max(|S|, Tr rho), D
within 2e-14 max(|D|, Tr rho + Tr sigma), Tr rho(-ln sigma) within
2e-15 max(|T|, Tr rho).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .extreal import finite
from .operators import (
    DensityOperator,
    PositiveOperator,
    Projector,
    compress,
    default_rank_tols,
    dense_overlaps,
    partial_trace,
    solve_bases,
)

SUPPORT_TOL = 1e-10
"""Mass of X off supp sigma up to this times max(1, Tr X) counts as on it: it moves where
D(X||sigma) and Tr X(-ln sigma) are +inf, and so every finite-value check on them.  The
same rule decides schedule coverage: mass of rho_n past the last cut up to this times
max(1, Tr rho_n) counts as covered (``truncation.schedule_checks``)."""


_TINY_MASS = 1.0 / np.finfo(float).max
"""The least mass whose reciprocal is finite, about 5.6e-309."""


def _binary_units(x, top) -> tuple:
    """(2^-e x, e), e the binary exponent of ``top`` (0 at top = 0): exact, and 1 / mass is finite for a mass below ``_TINY_MASS``."""
    e = np.frexp(top)[1]
    if np.iscomplexobj(x):
        return np.ldexp(x.real, -e) + 1j * np.ldexp(x.imag, -e), e
    return np.ldexp(x, -e), e


def _support_tol(trace):
    """The mass of X off supp sigma that still counts as on it: SUPPORT_TOL, relative above Tr X = 1."""
    return SUPPORT_TOL * np.maximum(1.0, trace)


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


def von_neumann_entropy(rho: PositiveOperator) -> float:
    """Homogeneous entropy on the cone; equals Tr eta(rho) for states, 0 at rho = 0."""
    # ``_entropies`` written out on this one spectrum: a one-row array call costs three times as much
    spec = rho.spectrum()
    lam = spec.values[:spec.rank]
    if lam.size == 0:
        return 0.0
    r, mass = float(lam[0]), float(lam.sum())
    return finite(mass * math.log(mass / r) - float(lam @ np.log(lam / r)))


def _entropies(v, r, sums) -> np.ndarray:
    """The one entropy formula S = M ln(M / r) - sums(v ln(v / r)), M = sums(v), r (..., 1) the largest v of each row.

    ``sums`` maps an array shaped as v >= 0 (rows on the last axis) to its row or cut sums, broadcasting against r.
    No term depends on the scale of v; a zero weight or mass takes ln 1 = 0, so a sum of mass 0 gives 0.
    """
    r = np.where(r > 0.0, r, 1.0)
    mass = sums(v)
    x, m = v / r, mass / r
    return mass * np.log(np.where(m > 0.0, m, 1.0)) - sums(v * np.log(np.where(x > 0.0, x, 1.0)))


def entropy_of_diagonals(x: np.ndarray, dims=None) -> np.ndarray:
    """``von_neumann_entropy`` of each row of x, shape (..., d), read as the diagonal of a positive operator.

    Each row is sorted and clamped at 0, and its values above the rank
    tolerance of its top value enter ``_entropies``.  ``dims`` broadcasts to
    x's leading shape and gives each row's own dimension when rows are
    zero-padded spectra: the row's largest dims values are read, with the
    rank tolerance of that dimension.
    """
    lam = np.maximum(-np.sort(-x, axis=-1), 0.0)
    if dims is None:
        dims = x.shape[-1]
    else:
        dims = np.broadcast_to(dims, x.shape[:-1])
        lam = np.where(np.arange(x.shape[-1]) < dims[..., None], lam, 0.0)
    lam = np.where(lam > default_rank_tols(dims, lam[..., 0])[..., None], lam, 0.0)
    return _entropies(lam, lam[..., :1], lambda v: v.sum(axis=-1, keepdims=True))[..., 0]


def trace_neg_log(rho: PositiveOperator, sigma: PositiveOperator) -> float:
    """Tr rho (-ln sigma) on supp sigma; math.inf if rho has mass outside supp sigma."""
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    spec = sigma.spectrum()
    # rho's mass along each sigma eigenvector
    weights = np.clip(spec.weights(rho), 0.0, None)
    r = spec.rank
    if float(np.sum(weights[r:])) > _support_tol(rho.trace()):
        return math.inf
    return finite(-np.sum(weights[:r] * np.log(spec.values[:r])))


def relative_entropy(rho: PositiveOperator, sigma: PositiveOperator) -> float:
    """Lindblad relative entropy on the cone.

    Uses the representation D = Tr rho(-ln sigma) + Tr rho ln rho + Tr sigma
    - Tr rho, where Tr rho ln rho = -S(rho) - eta(Tr rho) via the homogeneous
    extension; D(0||sigma) = Tr sigma.
    """
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    tr_rho = rho.trace()
    tr_sigma = sigma.trace()
    if rho.vanishes():
        return finite(tr_sigma)
    tnl = trace_neg_log(rho, sigma)
    if math.isinf(tnl):
        return math.inf
    return finite(tnl - von_neumann_entropy(rho) - eta(tr_rho) + tr_sigma - tr_rho)


def _support_table(values) -> np.ndarray:
    """[-ln s, 0] per value s of sigma on supp sigma (the rule of ``Spectrum.rank``), [0, 1] off it: (N, d, 2) for sorted ``values`` (N, d)."""
    on_support = values > default_rank_tols(values.shape[1], values[:, :1])
    return np.stack([np.where(on_support, -np.log(np.where(on_support, values, 1.0)), 0.0),
                     np.where(on_support, 0.0, 1.0)], axis=-1)


def _pair_sums(rhos, sigmas):
    """Tr rho (-ln sigma) on supp sigma, the mass of rho off supp sigma, and Tr rho, for every pair: arrays of shape (N,).

    Row i reads rho_i's weights along sigma_i's basis, in the order of
    sigma_i's non-increasing values.  When every operator is diagonal they
    are gathered from rho's diagonal by the stable argsort of sigma's;
    otherwise the pending bases of the sigmas are solved in one call and
    each spectrum reads its weights.  Both weigh ``_support_table``.
    """
    if len(rhos) != len(sigmas):
        raise ValueError(f"{len(rhos)} operators rho against {len(sigmas)} operators sigma")
    dims = {op.dim for op in [*rhos, *sigmas]}
    if len(dims) != 1:
        raise ValueError(f"dimension mismatch: {sorted(dims)}")
    # np.array, not np.stack: the rows share one shape, and np.stack's checks cost more than the sums below
    if all(op.is_diagonal for op in rhos) and all(op.is_diagonal for op in sigmas):
        s = np.array([sigma.diag for sigma in sigmas])
        order = np.argsort(-s, axis=1, kind="stable")
        rows = np.arange(len(sigmas))[:, None]
        values, weights = s[rows, order], np.array([rho.diag for rho in rhos])[rows, order]
    else:
        specs = [sigma.spectrum() for sigma in sigmas]
        solve_bases(specs)
        values = np.array([spec.values for spec in specs])
        weights = np.clip(np.array([spec.weights(rho) for spec, rho in zip(specs, rhos)]), 0.0, None)
    table = _support_table(values)
    # along each row's contiguous last axis: another axis rounds differently for d >= 8
    cost, outside = ((weights * table[..., i]).sum(axis=1) for i in (0, 1))
    return cost, outside, np.array([rho.trace() for rho in rhos])


def _beyond_support(values, outside, tr):
    """``values`` with +inf where the mass ``outside`` off supp sigma exceeds ``_support_tol(tr)``: the +inf test of every form."""
    return np.where(outside > _support_tol(tr), np.inf, values)


def _relative_entropies(cost, outside, tr, entropy, tr_sigma, vanishing) -> np.ndarray:
    """D(X||sigma) of the pair and cut forms, as ``relative_entropy`` decides it: Tr sigma where X vanishes, before the support test."""
    eta_tr = -tr * np.log(np.where(tr > 0.0, tr, 1.0))
    d = cost - entropy - eta_tr + tr_sigma - tr
    return np.where(vanishing, tr_sigma, _beyond_support(d, outside, tr))


def trace_neg_log_pairs(rhos, sigmas) -> np.ndarray:
    """``trace_neg_log(rhos[i], sigmas[i])`` for every pair, one array pass for all; +inf as np.inf.

    The pairs share one dimension.  The scalar function decides the same +inf, row for row.
    """
    return _beyond_support(*_pair_sums(rhos, sigmas))


def relative_entropy_pairs(rhos, sigmas) -> np.ndarray:
    """``relative_entropy(rhos[i], sigmas[i])`` for every pair, one array pass for all; +inf as np.inf.

    Row for row the scalar rules (``_relative_entropies``), with S(rho)
    from ``entropy_of_diagonals`` of rho's diagonal or eigenvalues.  The
    pairs share one dimension.  The scalar function decides the same +inf and vanishing, row for row.
    """
    cost, outside, tr_rho = _pair_sums(rhos, sigmas)
    lam = np.array([rho.diag if rho.is_diagonal else rho.spectrum().values for rho in rhos])
    tr_sigma = np.array([sigma.trace() for sigma in sigmas])
    # rho's operator norm is its largest value
    vanishing = tr_rho <= default_rank_tols(lam.shape[1], lam.max(axis=1))
    return _relative_entropies(cost, outside, tr_rho, entropy_of_diagonals(lam), tr_sigma, vanishing)


class SpectralCuts:
    """The heads and tails of one weighted basis per row of a window, each cut at several indices at once.

    ``spectra`` holds the spectrum whose basis each row reads, N in all,
    and ``values`` V, of shape (N, d), the row weights: row j pairs
    V[j, i] with basis vector u_i of spectra[j].  ``weights`` defaults to
    the kept values of each spectrum, an operator's own spectrum cut as
    ``PositiveOperator.split`` cuts it; a diagonal operator on another
    diagonal basis passes its clamped diagonal in basis order.  ``cuts``
    is an int array of shape (N, M).  The head at cut k of row j is
    X = c sum_{i < k} V[j, i] |u_i><u_i| and the tail is the same sum over
    i >= k, with c = 1, or c = 1 / Tr X when the cut's column is
    normalized and Tr X > 0.  ``normalized`` is one bool for every column
    or one per column, shape (M,).  Arrays indexed by cut have shape
    (2, N, M): heads in [0], tails in [1].  With ``tails`` false they have
    shape (1, N, M) and hold the heads only, so a window whose tails are
    not read costs nothing for them.

    ``values`` holds V, ``mass`` each cut's sum of it and ``scale`` c, so
    Tr X = scale * mass.  A row with a positive cut mass whose reciprocal
    overflows (a subnormal mass) is held instead in units of 2^e, e the
    binary exponent of its largest weight: its ``values`` and ``mass`` are
    exactly 2^-e times V and its sums, and its unnormalized scale is 2^e.
    No scale overflows then, unless a row's weights span more than the
    float range, which kept values never do; other rows are unchanged.

    The window functionals below read a head off a forward cumulative sum
    along each row of V and a tail off a reversed one, so a whole window of
    cuts costs a few array passes.  They count every positive weight.  Kept
    values are 0 from the rank on, so on an operator's own spectrum the
    sums meet only values that the scalar functionals count.  On other
    weights the scalar functionals decide the rank tolerance of each cut
    again and drop a value at or below d RANK_REL_TOL times the cut's top;
    the window counts it, which moves f by at most
    d RANK_REL_TOL (1 + |ln(d RANK_REL_TOL)|) Tr X per such value.
    """

    __slots__ = ("spectra", "values", "cuts", "sides", "scale", "mass", "vanishing", "_rows")

    def __init__(self, spectra, cuts, normalized, weights=None, tails=True):
        v = np.stack([spec.kept() for spec in spectra]) if weights is None else np.asarray(weights, dtype=float)
        self.spectra = tuple(spectra)
        self.cuts = np.asarray(cuts, dtype=np.intp)
        self.sides = 1 + bool(tails)
        self._rows = np.arange(v.shape[0])[:, None]  # gathers prefix[j, k[j, i]] with k
        mass = self.sums(v)
        self.scale = np.ones_like(mass)
        tiny = (mass < _TINY_MASS) & (mass > 0.0)
        if tiny.any():
            v, e = _binary_units(v, np.where(tiny.any(axis=(0, 2)), v.max(axis=1), 0.0)[:, None])
            mass = self.sums(v)
            self.scale = np.broadcast_to(np.ldexp(1.0, e), mass.shape).copy()
        self.values, self.mass = v, mass
        # a cut of zero mass (the empty tail at the rank) has no state and stays unscaled
        np.divide(1.0, mass, out=self.scale, where=np.logical_and(normalized, mass > 0.0))
        # ``vanishes()`` on each cut: Tr X <= d RANK_REL_TOL * top with
        # d RANK_REL_TOL < 1, and a sum of non-negative values never rounds
        # below its largest, so only a cut of mass 0 vanishes
        self.vanishing = self.mass <= 0.0

    def sums(self, x) -> np.ndarray:
        """Sums of a per-eigenvector quantity x (shape (N, d) or (N, d, p), real or complex) over every head and tail."""
        x = np.asarray(x)
        d = x.shape[1]
        # [0, j, k]: the sum over i < k; [1, j, k]: over i >= k
        prefix = np.zeros((self.sides, x.shape[0], d + 1) + x.shape[2:], dtype=x.dtype)
        np.cumsum(x, axis=1, out=prefix[0, :, 1:])
        if self.sides == 2:
            np.cumsum(x[:, ::-1], axis=1, out=prefix[1, :, d - 1::-1])
        return prefix[:, self._rows, self.cuts]


def entropy_cuts(cuts: SpectralCuts, scale=None) -> np.ndarray:
    """``von_neumann_entropy`` of every head and tail of ``cuts`` taken at ``scale`` (default ``cuts.scale``): S(c X) = c S(X)."""
    v = cuts.values
    return (cuts.scale if scale is None else scale) * _entropies(v, np.max(v, axis=1, keepdims=True), cuts.sums)


def _support_sums(cuts: SpectralCuts, sigmas):
    """Tr X (-ln sigma) on supp sigma and the mass of X outside it, for every head and tail X of row j and sigma = sigmas[j].

    Each eigenvector u_i of row j reads <u_i|-ln sigma|u_i> and its weight
    off supp sigma, sums of ``_support_table`` over sigma's eigenvectors s
    weighted by the overlaps |<s|u_i>|^2, in one stacked pass for the
    window.  When every basis is diagonal each overlap is 0 or 1, so the
    table is gathered into each row's basis order and no unitary is built.
    Otherwise the pending bases are solved in one call and the overlaps
    are one (N, d, d) product (``dense_overlaps``) of the bases as
    unitaries (``Spectrum.vectors``).
    """
    for spectrum, sigma in zip(cuts.spectra, sigmas):
        if spectrum.values.size != sigma.dim:
            raise ValueError(f"dimension mismatch: {spectrum.values.size} vs {sigma.dim}")
    specs = [sigma.spectrum() for sigma in sigmas]
    bases = cuts.spectra + tuple(specs)
    g = _support_table(np.array([spec.values for spec in specs]))
    if all(spec.diagonal for spec in bases):
        # position[j, c]: the index of coordinate c in sigma_j's basis order
        rows, d = np.arange(len(specs))[:, None], g.shape[1]
        position = np.empty((len(specs), d), dtype=np.intp)
        position[rows, np.array([spec.basis for spec in specs])] = np.arange(d)
        per_vector = g[rows, position[rows, np.array([spectrum.basis for spectrum in cuts.spectra])]]
    else:
        solve_bases(bases)
        overlaps = dense_overlaps(np.array([spec.vectors() for spec in specs]),
                                  np.array([spectrum.vectors() for spectrum in cuts.spectra]))
        per_vector = np.swapaxes(overlaps, -1, -2) @ g
    sums = cuts.scale[..., None] * cuts.sums(cuts.values[..., None] * per_vector)
    return sums[..., 0], sums[..., 1]


def trace_neg_log_cuts(cuts: SpectralCuts, sigmas) -> np.ndarray:
    """``trace_neg_log(X, sigmas[j])`` of every head and tail X of row j of ``cuts``; +inf as np.inf."""
    return _beyond_support(*_support_sums(cuts, sigmas), cuts.scale * cuts.mass)


def relative_entropy_cuts(cuts: SpectralCuts, sigmas) -> np.ndarray:
    """``relative_entropy(X, sigmas[j])`` of every head and tail X of row j of ``cuts``; +inf as np.inf."""
    tr_sigma = np.array([sigma.trace() for sigma in sigmas])[:, None]
    return _relative_entropies(*_support_sums(cuts, sigmas), cuts.scale * cuts.mass, entropy_cuts(cuts), tr_sigma,
                               cuts.vanishing)


def quantum_mutual_information(rho_ab: DensityOperator, d_a: int, d_b: int) -> float:
    """I(A:B) = S(rho_A) + S(rho_B) - S(rho_AB), always finite here."""
    if rho_ab.dim != d_a * d_b:
        raise ValueError(f"dim {rho_ab.dim} != d_a*d_b = {d_a * d_b}")
    rho_a = partial_trace(rho_ab, "A", d_a, d_b)
    rho_b = partial_trace(rho_ab, "B", d_a, d_b)
    s_a = von_neumann_entropy(PositiveOperator.of(rho_a))
    s_b = von_neumann_entropy(PositiveOperator.of(rho_b))
    return finite(s_a + s_b - von_neumann_entropy(rho_ab))


@dataclass(frozen=True)
class LadderResult:
    """Monotone regularized-log values a_k = -Tr rho ln(sigma + I/k)."""

    k_values: tuple
    a_k: tuple
    limit_estimate: float

    def __post_init__(self):
        _check_ladder(self.k_values, self.a_k)


def _check_ladder(k_values, a_k):
    """Refuse a k schedule that is not strictly increasing and positive, or a ladder that decreases."""
    ks = tuple(int(k) for k in k_values)
    if any(k <= 0 for k in ks) or any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("k_values must be strictly increasing positive integers")
    diffs = np.diff(np.asarray(a_k, dtype=float))
    if diffs.size and float(np.min(diffs)) < -1e-10:
        raise ValueError(f"ladder not non-decreasing: min step {float(np.min(diffs)):.3e}")


def _ladder_values(rho: PositiveOperator, sigma: PositiveOperator, k_schedule) -> tuple:
    """(k values, a_k values) of a_k = -Tr rho ln(sigma + I/k), checked as ``LadderResult`` checks them."""
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    ks = tuple(int(k) for k in k_schedule)
    spec = sigma.spectrum()
    weights = np.clip(spec.weights(rho), 0.0, None)
    vals = tuple(float(-np.sum(weights * np.log(spec.values + 1.0 / k))) for k in ks)
    _check_ladder(ks, vals)
    return ks, vals


def regularized_log_ladder(rho: PositiveOperator, sigma: PositiveOperator, k_schedule) -> LadderResult:
    """Evaluate a_k = -Tr rho ln(sigma + I/k) along a strictly increasing k schedule.

    sup_k a_k = Tr rho (-ln sigma), so limit_estimate is trace_neg_log(rho, sigma).
    """
    return LadderResult(*_ladder_values(rho, sigma, k_schedule), trace_neg_log(rho, sigma))


def check_entropy_subadditivity_pair(rho: PositiveOperator, sigma: PositiveOperator):
    """Slacks of S(rho)+S(sigma) <= S(rho+sigma) <= S(rho)+S(sigma)+H({Tr rho, Tr sigma})."""
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    s_sum = von_neumann_entropy(rho.add(sigma))
    s_rho = von_neumann_entropy(rho)
    s_sigma = von_neumann_entropy(sigma)
    h = binary_entropy_extension(rho.trace(), sigma.trace())
    slack_lower = s_sum - s_rho - s_sigma
    slack_upper = s_rho + s_sigma + h - s_sum
    return slack_lower, slack_upper


def compressed_entropy_pair(rho: PositiveOperator, p: Projector):
    """(S(P rho P), S(P_perp rho P_perp)) for the Lindblad-Ozawa comparison."""
    head = compress(rho, p)
    tail = compress(rho, p.complement())
    return von_neumann_entropy(head), von_neumann_entropy(tail)
