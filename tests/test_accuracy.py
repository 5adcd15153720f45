"""Every form of S, D and Tr rho(-ln sigma) against the 60-digit ``decimal`` oracle (``decimal_oracle``).

The inputs are diagonals of dimension 2-16 at traces 1e-8 ... 1e8, over
four decades of values, with a planted tie, a zero and a value at 0.5,
0.99, 1.01 or 2 times the rank tolerance (``planted_diagonal``).  Pairs add
rho's mass off supp sigma: none, 0.5 or 1.5 times the support tolerance,
or all of it (``planted_pair``).  Each error is relative to the value or to
the mass it scales with:

- S, every form (scalar, rows of a stack, padded rows as the channel
  kernels hold them, and every head of a window): within
  2e-15 * max(|S|, Tr rho) on diagonals, and 5e-15 on their rotations;
  every tail of a window within 5e-15 * max(|S|, Tr X), X the tail.  A
  window takes every log relative to its row's top value, so a small tail
  sums terms of |ln(v / r)| up to about 32: relative to its own mass its
  error reached 3.1e-15 on 2000 draws, and 4.2e-16 relative to its row's
  trace;
- D, on the scalar, pair and cut forms: within
  2e-14 * max(|D|, Tr rho + Tr sigma) on diagonals, and 2e-13 on a pair
  rotated by one unitary;
- Tr rho(-ln sigma), on the same forms: within 2e-15 * max(|T|, Tr rho)
  on diagonals.

+inf falls in exactly the oracle's positions.  A rotation moves each small
eigenvalue by the eigensolver's absolute error, about eps ||rho||, which a
log weighs by |ln lambda| (S) or 1 / lambda (-ln sigma): so a rotated input
plants its value at 0.5 times the rank tolerance only, which is dropped on
either side of that error, and a rotated sigma spans one decade.
"""

from decimal import Decimal

import numpy as np
import pytest

import decimal_oracle as oracle
from qdini import PositiveOperator, relative_entropy, trace_neg_log, von_neumann_entropy
from qdini.entropies import (
    SUPPORT_TOL,
    SpectralCuts,
    entropy_cuts,
    entropy_of_diagonals,
    relative_entropy_cuts,
    relative_entropy_pairs,
    trace_neg_log_cuts,
    trace_neg_log_pairs,
)
from qdini.operators import RANK_REL_TOL, positive_eigenvalues

TRACES = (1e-8, 1e-4, 1.0, 1e4, 1e8)
DIMS = range(2, 17)
PER_DIM = 4
TOL_FACTORS = (0.5, 0.99, 1.01, 2.0)
OFF_SUPPORT = ("none", "below", "above", "all")


def planted_diagonal(rng, d: int, trace: float, decades: float = 4.0, factors=TOL_FACTORS) -> np.ndarray:
    """A diagonal of dimension d and this trace, its values over ``decades`` decades.

    About half the draws tie two values, half zero one, and for d > 2 most
    put one at a factor from ``factors`` times the rank tolerance.
    """
    v = 10.0 ** rng.uniform(-decades, 0.0, d)
    j = rng.permutation(d)
    if d > 2 and rng.random() < 0.5:
        v[j[1]] = v[j[0]]
    if rng.random() < 0.5:
        v[j[-1]] = 0.0
    if d > 2 and rng.random() < 0.7:
        v[j[-2]] = rng.choice(factors) * d * RANK_REL_TOL * np.delete(v, j[-2]).max()
    return v * (trace / v.sum())


def planted_pair(rng, d: int, trace: float, rotated: bool = False) -> tuple:
    """(rho, sigma) diagonals: rho as ``planted_diagonal`` at this trace, sigma at a random trace.

    rho's mass off supp sigma (where sigma is at or below its rank
    tolerance) is one of ``OFF_SUPPORT``: none, 0.5 or 1.5 times the
    support tolerance spread over it, or what rho draws there.  For a
    rotated pair sigma spans one decade and both plant at 0.5 times the
    rank tolerance only.
    """
    factors = (0.5,) if rotated else TOL_FACTORS
    rho = planted_diagonal(rng, d, trace, factors=factors)
    sigma = planted_diagonal(rng, d, 10.0 ** rng.integers(-8, 9), decades=1.0 if rotated else 4.0, factors=factors)
    off = sigma <= d * RANK_REL_TOL * sigma.max()
    case = rng.choice(OFF_SUPPORT)
    if off.any() and case != "all":
        rho[off] = 0.0
        if case != "none":
            rho[off] = (0.5 if case == "below" else 1.5) * SUPPORT_TOL * max(1.0, rho.sum()) / off.sum()
    return rho, sigma


def _inputs(trace: float, draw):
    """PER_DIM draws per dimension of ``DIMS``, grouped by dimension, from a generator seeded by the trace."""
    rng = np.random.default_rng([3, int(round(np.log10(trace))) + 8])
    return [[draw(rng, d, trace) for _ in range(PER_DIM)] for d in DIMS]


def _trace(diagonal) -> Decimal:
    return sum((Decimal(max(float(x), 0.0)) for x in diagonal), Decimal(0))


def _check(errors: list, bound: float):
    """Assert that every (label, relative error) is within ``bound``."""
    worst = max(errors, key=lambda e: e[1])
    assert worst[1] <= Decimal(bound), f"{worst[0]}: relative error {float(worst[1]):.3e} > {bound:g}"


def _cut_diagonals(v, k: int) -> tuple:
    """The head and the tail of the diagonal v cut at k, as ``SpectralCuts`` cuts its operator's kept spectrum."""
    order = np.argsort(-v, kind="stable")
    kept = np.where(v > v.size * RANK_REL_TOL * v.max(), v, 0.0)
    head, tail = np.zeros(v.size), np.zeros(v.size)
    head[order[:k]], tail[order[k:]] = kept[order[:k]], kept[order[k:]]
    return head, tail


def _entropy_errors(group, ops, eigenvalues, tails: bool) -> tuple:
    """(label, error) lists of every S form on one dimension's diagonals: (wholes and heads, tails).

    ``ops`` are the operators of the diagonals and ``eigenvalues`` their spectra, one row each.
    """
    errors, tail_errors = [], []
    d = eigenvalues.shape[1]
    rows = entropy_of_diagonals(eigenvalues)
    padded = np.zeros((len(group), max(DIMS)))
    padded[:, :d] = eigenvalues
    # the channel kernels' stacks: leading axes, zero-padded rows, and a dimension per row
    stacked = entropy_of_diagonals(padded.reshape(2, -1, padded.shape[1]), np.full((2, 1), d)).ravel()
    cuts = SpectralCuts([op.spectrum() for op in ops], np.tile(np.arange(d + 1), (len(ops), 1)), False, tails=tails)
    by_cut = entropy_cuts(cuts)
    for i, v in enumerate(group):
        want, scale = oracle.entropy(v), _trace(v)
        for label, got in (("von_neumann_entropy", von_neumann_entropy(ops[i])), ("entropy_of_diagonals", rows[i]),
                           ("padded entropy_of_diagonals", stacked[i])):
            errors.append((f"{label}, d = {d}, row {i}", oracle.relative_error(float(got), want, scale)))
        for k in range(d + 1):
            for side, part in enumerate(_cut_diagonals(v, k)[:cuts.sides]):
                error = oracle.relative_error(float(by_cut[side, i, k]), oracle.entropy(part), _trace(part))
                (errors, tail_errors)[side].append((f"entropy_cuts, d = {d}, row {i}, side {side}, cut {k}", error))
    return errors, tail_errors


@pytest.mark.parametrize("trace", TRACES)
def test_entropy_forms_match_the_oracle_on_diagonals(trace):
    errors, tail_errors = [], []
    for group in _inputs(trace, planted_diagonal):
        more, more_tails = _entropy_errors(group, [PositiveOperator(diagonal=v) for v in group], np.array(group), True)
        errors, tail_errors = errors + more, tail_errors + more_tails
    _check(errors, 2e-15)
    _check(tail_errors, 5e-15)


@pytest.mark.parametrize("trace", TRACES)
def test_entropy_forms_match_the_oracle_on_rotations(trace):
    """Heads only: a tail's mass can be as small as the eigensolver's error."""
    errors = []
    for group in _inputs(trace, lambda rng, d, t: planted_diagonal(rng, d, t, factors=(0.5,))):
        ops = [PositiveOperator(oracle.rotated(v)) for v in group]
        errors += _entropy_errors(group, ops, positive_eigenvalues(np.array([op.matrix for op in ops])), False)[0]
    _check(errors, 5e-15)


def _pair_errors(group, rotated: bool) -> list:
    """(label, D error, T error) of the scalar and pair forms on one dimension's pairs; of the cut forms too on diagonals."""
    make = (lambda v: PositiveOperator(oracle.rotated(v))) if rotated else (lambda v: PositiveOperator(diagonal=v))
    rhos, sigmas = [make(r) for r, _ in group], [make(s) for _, s in group]
    d = rhos[0].dim
    pairs_d, pairs_t = relative_entropy_pairs(rhos, sigmas), trace_neg_log_pairs(rhos, sigmas)
    cuts = SpectralCuts([rho.spectrum() for rho in rhos], np.tile(np.arange(d + 1), (len(rhos), 1)), False)
    cuts_d, cuts_t = relative_entropy_cuts(cuts, sigmas), trace_neg_log_cuts(cuts, sigmas)
    rows = []
    for i, (r, s) in enumerate(group):
        forms = [("scalar", r, relative_entropy(rhos[i], sigmas[i]), trace_neg_log(rhos[i], sigmas[i])),
                 ("pairs", r, pairs_d[i], pairs_t[i])]
        if not rotated:
            forms += [(f"cuts, side {side}, cut {k}", part, cuts_d[side, i, k], cuts_t[side, i, k])
                      for k in range(d + 1) for side, part in enumerate(_cut_diagonals(r, k))]
        for label, x, got_d, got_t in forms:
            rows.append((f"{label}, d = {d}, pair {i}",
                         oracle.relative_error(float(got_d), oracle.relative_entropy(x, s), _trace(x) + _trace(s)),
                         oracle.relative_error(float(got_t), oracle.trace_neg_log(x, s), _trace(x))))
    return rows


@pytest.mark.parametrize("trace", TRACES)
def test_relative_entropy_forms_match_the_oracle_on_diagonals(trace):
    rows, infinite = [], 0
    for group in _inputs(trace, planted_pair):
        rows += _pair_errors(group, rotated=False)
        infinite += sum(oracle.trace_neg_log(r, s) == oracle.INFINITY for r, s in group)
    # relative_error is +inf where exactly one side is +inf
    _check([(label, e) for label, e, _ in rows], 2e-14)
    _check([(label, e) for label, _, e in rows], 2e-15)
    assert 0 < infinite < len(DIMS) * PER_DIM


@pytest.mark.parametrize("trace", TRACES)
def test_relative_entropy_forms_match_the_oracle_on_rotations(trace):
    rows = []
    for group in _inputs(trace, lambda rng, d, t: planted_pair(rng, d, t, rotated=True)):
        rows += _pair_errors(group, rotated=True)
    _check([(label, e) for label, e, _ in rows], 2e-13)
