"""The pair kernels of ``entropies`` against the scalar functionals, rule for rule.

``relative_entropy_pairs(rhos, sigmas)`` and ``trace_neg_log_pairs`` give
one value per pair (rho_i, sigma_i) in one array pass; the relative-entropy
procedures read their per-n lists from them.  Each row must follow the
scalar rules: D(0||sigma) = Tr sigma where rho vanishes, +inf where rho's
mass off supp sigma exceeds the support tolerance, and sigma's support
decided by its rank tolerance.  The pairs here plant each rule's boundary on
both sides, at traces from 1e-8 to 1e8, on diagonal pairs (the gather path)
and on Haar-rotated, independently rotated and half-diagonal pairs (the
solved-basis path).  The +inf positions agree exactly and every finite value
within 1e-12 * max(1, |x|).  Both forms compute S by the one formula of
``entropies``; the accuracy of each is held to the 60-digit ``decimal``
oracle in ``test_accuracy.py``, so the scalar here is a reference for the
rules, not for the digits.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdini import PositiveOperator, relative_entropy, trace_neg_log
from qdini.entropies import SUPPORT_TOL, relative_entropy_pairs, trace_neg_log_pairs
from qdini.operators import RANK_REL_TOL
from qdini.scenarios import random_unitary
from test_operators import MEMBER_CASES, _stack_member
from test_truncation import planted_spectra

# the planted boundaries, and whether each makes both functionals +inf on a pair that keeps sigma's basis
CASES = {
    "generic": False,
    "vanishing": False,
    "mass-above-support-tol": True,
    "mass-below-support-tol": False,
    "sigma-above-rank-tol": False,
    "sigma-below-rank-tol": True,
}
BASES = ("diagonal", "shared", "independent", "mixed")


def _planted_pair(rng, d: int, case: str, rho_trace: float, sigma_scale: float):
    """The diagonals (r, s) of one pair of a case, in a common basis.

    The support cases zero the first third of s and put 1.5 or 0.5 times
    the support tolerance of Tr rho there; the rank cases put s[0] at 2 or
    0.5 times sigma's rank tolerance, under the full mass rho has there.
    """
    r = rng.uniform(0.1, 1.0, d)
    s = rng.uniform(0.1, 1.0, d) * sigma_scale
    r *= rho_trace / r.sum()
    if case == "vanishing":
        r[:] = 0.0
    elif case.startswith("mass-"):
        k = max(1, d // 3)
        factor = 1.5 if case == "mass-above-support-tol" else 0.5
        s[:k] = 0.0
        r[:k] = factor * SUPPORT_TOL * max(1.0, rho_trace) / k
    elif case.startswith("sigma-"):
        factor = 2.0 if case == "sigma-above-rank-tol" else 0.5
        s[0] = factor * d * RANK_REL_TOL * s[1:].max()
    return r, s


def _operators(rng, basis: str, r, s):
    """(rho, sigma) with diagonals r and s rotated as ``basis`` says."""
    d = r.size
    u = random_unitary(rng, d)
    w = u if basis == "shared" else random_unitary(rng, d)
    rho = PositiveOperator(diagonal=r) if basis in ("diagonal", "mixed") else PositiveOperator((u * r) @ u.conj().T)
    sigma = PositiveOperator(diagonal=s) if basis == "diagonal" else PositiveOperator((w * s) @ w.conj().T)
    return rho, sigma


def _assert_matches_scalars(rhos, sigmas):
    """Both kernels against their scalar functions, row by row; returns which rows are +inf (the same for both)."""
    for kernel, scalar in ((relative_entropy_pairs, relative_entropy), (trace_neg_log_pairs, trace_neg_log)):
        got = kernel(rhos, sigmas)
        want = np.array([float(scalar(rho, sigma)) for rho, sigma in zip(rhos, sigmas)])
        assert got.shape == want.shape
        assert np.array_equal(np.isinf(got), np.isinf(want)), (kernel.__name__, got, want)
        finite = np.isfinite(want)
        assert np.all(np.abs(got[finite] - want[finite]) <= 1e-12 * np.maximum(1.0, np.abs(want[finite]))), \
            (kernel.__name__, got, want)
    return np.isinf(want)


@st.composite
def planted_pairs(draw):
    """(d, basis, [(case, log10 Tr rho, log10 scale of sigma)], seed) of a stack of 1-6 pairs."""
    d = draw(st.integers(2, 16))
    pair = st.tuples(st.sampled_from(sorted(CASES)), st.integers(-8, 8), st.integers(-8, 8))
    return d, draw(st.sampled_from(BASES)), draw(st.lists(pair, min_size=1, max_size=6)), draw(st.integers(0, 2 ** 16))


@settings(max_examples=200, deadline=None)
@given(planted_pairs())
@example((16, "shared", [(case, 8, -8) for case in sorted(CASES)], 0))
@example((2, "diagonal", [(case, -8, 8) for case in sorted(CASES)], 1))
def test_pair_kernels_match_the_scalars_on_planted_boundaries(stack):
    d, basis, pairs, seed = stack
    rng = np.random.default_rng(seed)
    ops = [_operators(rng, basis, *_planted_pair(rng, d, case, 10.0 ** a, 10.0 ** b)) for case, a, b in pairs]
    inf = _assert_matches_scalars([rho for rho, _ in ops], [sigma for _, sigma in ops])
    if basis in ("diagonal", "shared"):
        # the planted boundaries fall on the side they were put on
        assert inf.tolist() == [CASES[case] for case, _, _ in pairs]


@settings(max_examples=100, deadline=None)
@given(planted_spectra(), st.lists(st.sampled_from(MEMBER_CASES), min_size=1, max_size=4), st.booleans(),
       st.integers(0, 2 ** 16))
def test_pair_kernels_match_the_scalars_on_planted_spectra(lam, cases, dense, seed):
    """sigma with near-tied values, some reaching 0, against the members of the stacked-solve tests as rho."""
    rng = np.random.default_rng(seed)
    d = lam.size
    if dense:
        u = random_unitary(rng, d)
        sigma = PositiveOperator((u * lam) @ u.conj().T)
        rhos = [PositiveOperator(_stack_member(rng, d, case)) for case in cases]
    else:
        sigma = PositiveOperator(diagonal=lam)
        rhos = [PositiveOperator(diagonal=_stack_member(rng, d, case).diagonal().real.copy()) for case in cases]
    _assert_matches_scalars(rhos, [sigma] * len(rhos))


def test_dense_pairs_solve_their_bases_in_one_call(eigensolves):
    rng = np.random.default_rng(2)
    rhos = [PositiveOperator(_stack_member(rng, 5, "generic")) for _ in range(4)]
    sigmas = [PositiveOperator(_stack_member(rng, 5, "rank-deficient")) for _ in range(4)]
    eigensolves.clear()
    relative_entropy_pairs(rhos, sigmas)
    trace_neg_log_pairs(rhos, sigmas)
    assert eigensolves == {"eigh": 1}


def test_pairs_of_different_dimensions_are_refused():
    rho, sigma = PositiveOperator(diagonal=[0.5, 0.5]), PositiveOperator(diagonal=[0.2, 0.3, 0.5])
    with pytest.raises(ValueError, match="dimension mismatch"):
        relative_entropy_pairs([rho], [sigma])
    with pytest.raises(ValueError, match="dimension mismatch"):
        trace_neg_log_pairs([rho, sigma], [rho, sigma])
