"""The window forms of the cut evaluator against its per-cell form.

Every procedure reads f_n on the cuts of one basis per n through
``diagnostics._cut_values``: the head P X P and the tail Pbar X Pbar of
X = ops[j] for each prefix P of bases[j], as one (2, N, M) array.  Its
inputs choose the form.  When every basis is the operator's own spectrum,
a family with ``rows`` evaluates the whole window in one call,
(ns, SpectralCuts) -> f_n of every head and tail, from cumulative sums
along the stacked kept spectra.  The entropy, relative-entropy,
trace-neg-log and entropy-plus-log families carry rows, and so do the
channel families (mutual information, coherent information, output
entropy): by linearity every channel output of a head or tail is a
cumulative sum of the images of rank-one projectors, and one stacked
eigensolve gives all their spectra.  A diagonal operator on another
diagonal basis is a rows window too, each row weighted by the operator's
diagonal in basis order (a fixed-basis schedule on diagonal members), and
so is the dominated scheme's window when every rho_n and sigma_n is
diagonal: one row per head and per tail c Psi(rho_n) + Psi(sigma_n) on
the coordinate basis, cut once after its last coordinate.  Anything else
goes cell by cell through the scalar functionals.  The same family
without ``rows`` (``_per_cell``) takes the per-cell form everywhere and
is the oracle here.  Numbers agree within 1e-12 * max(1, |x|), or with
Tr X in the max where a value scales with the trace; flags, NaN and +inf
agree exactly.  On a diagonal basis a window counts every positive
value, where the per-cell form drops one at or below the rank tolerance
of its cut; the last tests pin that difference.
"""

import csv
import io
import itertools
import math
import pathlib
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdini import (
    BUILTIN_SCENARIOS,
    ApproximationScheme,
    ChannelSequence,
    FunctionalFamily,
    GridCell,
    OperatorSequence,
    PositiveOperator,
    approximation_gap_grid,
    builtin_scenario,
    channel_mi_checks,
    channel_mi_family,
    check_dct_basic,
    coherent_info_family,
    commuting_schedule,
    entropy_family,
    fixed_basis_schedule,
    largest_stable_index,
    load_scenario,
    normalize,
    output_entropy_family,
    random_channel,
    random_unitary,
    relative_entropy_family,
    report_to_csv,
    report_to_json,
    run_scenario,
    spectral_truncation,
    top_multiplicity,
    trace_neg_log_family,
    truncation_criterion,
    truncation_lower_bound_slack,
)
from qdini import Scenario, channels, diagnostics, entropies, scenarios, truncation
from qdini.entropies import SpectralCuts
from qdini.operators import RANK_REL_TOL, Spectrum
from qdini.truncation import coordinate_basis
from qdini.verdicts import encode_number

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent / "scenarios"

TOL = 1e-12
SEEDS = range(4)
FAMILIES = ("entropy", "relative-entropy", "trace-neg-log")
ROWS_FAMILIES = FAMILIES + ("output-entropy", "channel-mi")
CASES = ("generic", "rank-deficient", "ties", "scaled-up", "scaled-down", "support-break")


def _family(kind, sigma_seq):
    if kind == "entropy":
        return entropy_family()
    if kind == "relative-entropy":
        return relative_entropy_family(sigma_seq)
    return trace_neg_log_family(sigma_seq)


def _rows_family(kind, sigma_seq):
    """A family with rows: one of ``_family``, or a channel family of fixed random channels from C^d to C^2."""
    if kind in FAMILIES:
        return _family(kind, sigma_seq)
    d = sigma_seq.dim
    return _channel_family(kind, ChannelSequence(lambda n: random_channel(np.random.default_rng([d, n]), d, 2, d), d, 2))


def _per_cell(family):
    """The same family without its rows form."""
    return FunctionalFamily(family.kind, family.label, family.value, family.a_f, family.b_f)


def _window(case, dense, seed, d=None):
    """Converging sequences rho_n and sigma_n of one random window, with its n_max.

    rank-deficient: rho_n has zero eigenvalues; ties: rho_n's spectrum has
    repeated values, so cuts fall inside multiplicity groups; scaled-*: both
    spectra times 1e7 or 1e-7; support-break: sigma_n has zero eigenvalues
    in directions where rho_n has mass, so some heads and tails give +inf.
    ``dense`` is False (both diagonal), True (both dense) or "mixed": rho_n
    dense and sigma_n diagonal on even seeds, the other way round on odd.
    """
    mixed = dense == "mixed"
    rng = np.random.default_rng([seed, CASES.index(case), 2 if mixed else int(dense)])
    d = int(rng.integers(3, 8)) if d is None else d
    n_max = int(rng.integers(2, 5))
    base = rng.uniform(0.05, 1.0, d)
    if case == "ties":
        base = rng.choice([0.4, 0.2, 0.1], d)
    if case == "rank-deficient":
        base[rng.permutation(d)[:rng.integers(1, d - 1)]] = 0.0
    sigma_base = rng.uniform(0.05, 1.0, d)
    if case == "support-break":
        sigma_base[rng.permutation(d)[:rng.integers(1, d - 1)]] = 0.0
    scale = {"scaled-up": 1e7, "scaled-down": 1e-7}.get(case, 1.0)
    # ties survive a common factor; the other cases move every eigenvalue
    pert = rng.uniform(-0.1, 0.1, 1 if case == "ties" else d)
    sigma_pert = rng.uniform(-0.1, 0.1, d)
    u = random_unitary(rng, d)
    # sharing rho's basis puts whole eigenvectors of rho inside and outside supp sigma
    w = u if case == "support-break" else random_unitary(rng, d)
    perm, sigma_perm = rng.permutation(d), rng.permutation(d)

    def member(lam, basis, order, dense):
        if dense:
            return PositiveOperator((basis * lam) @ basis.conj().T)
        return PositiveOperator(diagonal=lam[order])

    def rho(n):
        return member(scale * base * (1.0 + (0.5 ** n if n else 0.0) * pert), u, perm,
                      seed % 2 == 0 if mixed else dense)

    def sigma(n):
        return member(scale * sigma_base * (1.0 + (0.5 ** n if n else 0.0) * sigma_pert), w, sigma_perm,
                      seed % 2 == 1 if mixed else dense)

    return OperatorSequence(rho, d), OperatorSequence(sigma, d), n_max


def _close(got, want, trace=1.0, tol=TOL) -> bool:
    """Equal infinities, or numbers within tol * max(1, |want|, trace): ``trace`` bounds Tr X of a value that scales with it."""
    if math.isinf(got) or math.isinf(want):
        return got == want
    return abs(got - want) <= tol * max(1.0, abs(want), trace)


def _same_cut(got, want, trace=1.0, tol=TOL) -> bool:
    """``_close`` on two entries of ``_cut_values``, where NaN (no state, or a side not asked for) must meet NaN."""
    if math.isnan(got) or math.isnan(want):
        return math.isnan(got) and math.isnan(want)
    return _close(got, want, trace, tol)


@pytest.mark.parametrize("dense", [False, True, "mixed"], ids=["diagonal", "dense", "mixed"])
@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("kind", FAMILIES)
def test_gap_grid_rows_match_cells(kind, case, dense):
    flags = Counter()
    for seed in SEEDS:
        rho_seq, sigma_seq, n_max = _window(case, dense, seed)
        family = _family(kind, sigma_seq)
        assert family.rows is not None
        scheme = ApproximationScheme("spectral")
        rows = approximation_gap_grid(family, rho_seq, scheme, n_max, rho_seq.dim)
        cells = approximation_gap_grid(_per_cell(family), rho_seq, scheme, n_max, rho_seq.dim)
        assert rows.m_range == cells.m_range and len(rows.cells) == len(cells.cells)
        for got, want in zip(rows.cells, cells.cells):
            where = f"seed {seed}, (n, m) = ({want.n}, {want.m})"
            assert (got.n, got.m, got.flags) == (want.n, want.m, want.flags), where
            for label in ("mu", "gap", "tail"):
                assert _close(getattr(got, label), getattr(want, label)), f"{label} at {where}"
            # both grids share the window's masses and flags; the scalar truncation is their oracle
            truncated = spectral_truncation(rho_seq(want.n), want.m)
            assert _close(want.mu, truncated.mass) and ("ambiguous-m" in want.flags) == truncated.ambiguous, where
            flags.update(want.flags)
        slack_rows = truncation_lower_bound_slack(family, rho_seq, scheme, n_max, rho_seq.dim)
        slack_cells = truncation_lower_bound_slack(_per_cell(family), rho_seq, scheme, n_max, rho_seq.dim)
        assert _close(slack_rows, slack_cells), f"slack at seed {seed}"
    # the windows reach the branches they are built for
    if case == "ties":
        assert flags["ambiguous-m"]
    if case == "support-break" and kind != "entropy":
        assert flags["inf-gap"] and flags["inf-tail"]


@pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("kind", FAMILIES)
def test_commuting_criterion_rows_match_cells(kind, case, dense):
    for seed in SEEDS:
        rho_seq, sigma_seq, n_max = _window(case, dense, seed)
        family = _family(kind, sigma_seq)
        schedule = commuting_schedule(rho_seq, rho_seq.dim, n_max)
        m_range = range(schedule.m_0, schedule.m_max + 1)
        ns = range(n_max + 1)
        ops = [rho_seq(n) for n in ns]
        # every column as is, every column as its state, and every other column as its state
        for normalized in (False, True, np.arange(len(m_range)) % 2 == 0):
            got, want = (diagnostics._cut_values(fam, ns, ops, schedule.bases, schedule.cuts, normalized)
                         for fam in (family, _per_cell(family)))
            for (side, n, i), w in np.ndenumerate(want):
                g = got[side, n, i]
                where = f"{('head', 'tail')[side]} at seed {seed}, (n, m) = ({n}, {m_range[i]}), normalized {normalized}"
                assert _same_cut(g, w), f"{where}: {g!r} vs {w!r}"
        rows = truncation_criterion(family, rho_seq, schedule, 1, n_max, rho_seq.dim)
        cells = truncation_criterion(_per_cell(family), rho_seq, schedule, 1, n_max, rho_seq.dim)
        assert rows.status == cells.status
        assert all(map(_close, rows.values["tail_sup_per_m"], cells.values["tail_sup_per_m"]))


@pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
def test_commuting_criterion_takes_the_row_path(monkeypatch, dense):
    rho_seq, sigma_seq, n_max = _window("generic", dense, 0)
    schedule = commuting_schedule(rho_seq, rho_seq.dim, n_max)
    calls = Counter()
    compress, split = diagnostics.compress, PositiveOperator.split
    monkeypatch.setattr(diagnostics, "compress", lambda rho, p: calls.update(["compress"]) or compress(rho, p))
    monkeypatch.setattr(PositiveOperator, "split", lambda rho, k: calls.update(["split"]) or split(rho, k))
    family = relative_entropy_family(sigma_seq)
    truncation_criterion(family, rho_seq, schedule, 1, n_max, rho_seq.dim)
    assert not calls
    # the per-cell path splits rho_n's own spectrum once per cell and compresses nothing
    truncation_criterion(_per_cell(family), rho_seq, schedule, 1, n_max, rho_seq.dim)
    assert calls == {"split": (n_max + 1) * len(range(schedule.m_0, schedule.m_max + 1))}


def test_dense_grid_row_builds_no_operator_and_reads_no_weights_per_cell(monkeypatch, constructions):
    rho_seq, sigma_seq, _ = _window("generic", True, 0, d=16)
    n_max = m_max = 8
    for n in range(n_max + 1):
        rho_seq(n), sigma_seq(n)
    constructions.clear()
    counts = Counter()
    weights = Spectrum.weights

    def counted_weights(self, a):
        counts["weights"] += 1
        return weights(self, a)

    monkeypatch.setattr(Spectrum, "weights", counted_weights)
    relative_entropy = diagnostics.relative_entropy
    monkeypatch.setattr(diagnostics, "relative_entropy",
                        lambda rho, sigma: counts.update(["relative_entropy"]) or relative_entropy(rho, sigma))
    grid = approximation_gap_grid(relative_entropy_family(sigma_seq), rho_seq,
                                  ApproximationScheme("spectral"), n_max, m_max)
    assert len(grid.cells) == (n_max + 1) * m_max
    # f_n(rho_n) is the window's rank column, not a scalar call per row
    assert counts["weights"] == 0 and counts["relative_entropy"] == 0
    assert constructions["operators"] == 0


@pytest.mark.parametrize("dense", [False, True, "mixed"], ids=["diagonal", "dense", "mixed"])
@pytest.mark.parametrize("case", ("support-break", "ties", "scaled-up", "scaled-down", "rank-deficient"))
@pytest.mark.parametrize("kind", FAMILIES)
def test_spectral_value_column_matches_the_family_value(kind, case, dense):
    # the unnormalized column cut at rank rho_n, from which the spectral grid reads f_n(rho_n)
    saw_inf = False
    for seed in SEEDS:
        rho_seq, sigma_seq, n_max = _window(case, dense, seed)
        family = _family(kind, sigma_seq)
        ns = range(n_max + 1)
        window = diagnostics._truncation_window(family, rho_seq, ApproximationScheme("spectral"), ns,
                                                rho_seq.dim, value=True)
        for n, got in zip(ns, window[3][:, -1].tolist()):
            want = float(family.value(n, rho_seq(n)))
            assert math.isinf(got) == math.isinf(want) and _close(got, want), (seed, n, got, want)
            saw_inf |= math.isinf(want)
    assert saw_inf == (case == "support-break" and kind != "entropy")


@pytest.mark.parametrize("rows", ["own", "coordinates"])
@pytest.mark.parametrize("dense", [False, True, "mixed"], ids=["diagonal", "dense", "mixed"])
@pytest.mark.parametrize("case", CASES)
def test_stacked_support_sums_match_per_row_expectations(monkeypatch, case, dense, rows):
    # the reference reads each row's overlaps |V_sigma* U|^2 from the two bases as unitaries, one row at a time;
    # rows on the coordinate basis weigh X's diagonal, as a fixed-basis window does
    saw_outside, saw_diagonal = False, False
    for seed in SEEDS:
        rho_seq, sigma_seq, n_max = _window(case, dense, seed)
        ns, d = range(n_max + 1), rho_seq.dim
        ops, sigmas = [rho_seq(n) for n in ns], [sigma_seq(n) for n in ns]
        if rows == "own":
            spectra, weights = [op.spectrum() for op in ops], None
        else:
            spectra, weights = [coordinate_basis(d)] * len(ops), [op.diag for op in ops]
        cuts = SpectralCuts(spectra, np.tile(np.arange(d + 1), (len(ops), 1)), np.arange(d + 1) % 2 == 0, weights)
        per_vector = []
        for spectrum, sigma in zip(spectra, sigmas):
            spec = sigma.spectrum()
            g = np.zeros((d, 2))
            g[:spec.rank, 0] = -np.log(spec.values[:spec.rank])
            g[spec.rank:, 1] = 1.0
            overlaps = np.abs(spec.vectors().conj().T @ spectrum.vectors()) ** 2  # [k, i] = |<s_k|u_i>|^2
            per_vector.append(overlaps.T @ g)
        sums = cuts.scale[..., None] * cuts.sums(cuts.values[..., None] * np.array(per_vector))
        diagonal = all(spec.diagonal for spec in [*spectra, *(sigma.spectrum() for sigma in sigmas)])
        if diagonal:
            def vectors(self):
                raise AssertionError("an all-diagonal window built a unitary")

            monkeypatch.setattr(Spectrum, "vectors", vectors)
        got = entropies._support_sums(cuts, sigmas)
        monkeypatch.undo()
        for x, want in zip(got, (sums[..., 0], sums[..., 1])):
            assert np.all(np.abs(x - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), (seed, x, want)
        saw_outside |= bool(np.any(sums[..., 1] > 0.0))
        saw_diagonal |= diagonal
    # support breaks put mass off supp sigma; every window of the diagonal case, and the coordinate rows
    # of the mixed one when sigma is diagonal, take the gather
    assert saw_outside == (case == "support-break")
    assert saw_diagonal == (dense is False or (dense == "mixed" and rows == "coordinates"))


@pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
@pytest.mark.parametrize("case", CASES)
def test_own_basis_prefix_masses_match_the_weights(dense, case):
    saw_zero = False
    for seed in SEEDS:
        rho_seq, _, n_max = _window(case, dense, seed)
        for n in range(n_max + 1):
            rho = rho_seq(n)
            spec = rho.spectrum()
            got = truncation._prefix_masses(spec, rho)
            want = np.concatenate([[0.0], np.cumsum(spec.weights(rho))])
            assert np.all(np.abs(got - want) <= 1e-12 * max(1.0, rho.trace())), (seed, n, got, want)
            saw_zero |= spec.rank < rho.dim
    assert saw_zero == (case == "rank-deficient")


@pytest.mark.parametrize("dense", [False, True, "mixed"], ids=["diagonal", "dense", "mixed"])
@pytest.mark.parametrize("case", ("support-break", "ties", "scaled-up", "scaled-down", "rank-deficient"))
def test_window_vanishing_is_the_vanishing_of_each_split(case, dense):
    # SpectralCuts decides vanishing as mass <= 0 on the kept values; that
    # must be ``vanishes()`` of both views of ``split(k)`` at every cut k,
    # on a zero operator too
    saw = Counter()
    for seed in SEEDS:
        rho_seq, _, n_max = _window(case, dense, seed)
        d = rho_seq.dim
        ops = [rho_seq(n) for n in range(n_max + 1)] + [PositiveOperator(diagonal=np.zeros(d))]
        cuts = SpectralCuts([op.spectrum() for op in ops], np.tile(np.arange(d + 1), (len(ops), 1)),
                            np.arange(d + 1) % 2 == 0)
        for j, op in enumerate(ops):
            for k in range(d + 1):
                for side, part in enumerate(op.split(k)):
                    assert cuts.vanishing[side, j, k] == part.vanishes(), (seed, j, k, side)
                    saw[bool(cuts.vanishing[side, j, k])] += 1
    assert saw[True] and saw[False]


def test_criterion_tails_at_the_rank_are_finite_at_large_scale():
    # equal supports of rank 3 in dim 6 at trace 1e7: at a cut equal to the
    # rank the tail is 0, not the eigensolver's noise off the support, so
    # D(tail||sigma) = Tr sigma on the row path and on the per-cell path
    p = np.array([0.5, 0.3, 0.2, 0.0, 0.0, 0.0])
    q = np.array([0.4, 0.35, 0.25, 0.0, 0.0, 0.0])
    for seed in range(50):
        u = random_unitary(np.random.default_rng(seed), 6)
        rho = PositiveOperator(1e7 * (u * p) @ u.conj().T)
        sigma = PositiveOperator(1e7 * (u * q) @ u.conj().T)
        rho_seq, sigma_seq = OperatorSequence(lambda n: rho, 6), OperatorSequence(lambda n: sigma, 6)
        schedule = commuting_schedule(rho_seq, 6, 2)
        assert schedule.cuts.max() == 3
        family = relative_entropy_family(sigma_seq)
        for fam in (family, _per_cell(family)):
            tails = truncation_criterion(fam, rho_seq, schedule, 1, 2, 6).values["tail_sup_per_m"]
            assert np.all(np.isfinite(tails)), (seed, fam.rows is None, tails)
            assert tails[-1] == pytest.approx(sigma.trace(), rel=1e-12)


# ---------------------------------------------------------------------------
# The dominated scheme on diagonal pairs


def _dominated_grids(rho_diags, sigma_diags, c, scale, family):
    """The dominated gap grid of tau_n = c rho_n + sigma_n and its lower-bound slack, or the ValueError raised."""
    d, n_max = len(rho_diags[0]), len(rho_diags) - 1
    rho = _diagonal_sequence(rho_diags, scale)
    tau = OperatorSequence(lambda n: PositiveOperator(
        diagonal=scale * (c * np.array(rho_diags[n]) + np.array(sigma_diags[n]))), d)
    scheme = ApproximationScheme("dominated", c, rho)
    try:
        # m_max past d, so past both ranks
        grid = approximation_gap_grid(family, tau, scheme, n_max, d + 1)
        slack = truncation_lower_bound_slack(family, tau, scheme, n_max, d + 1)
    except ValueError as exc:
        return str(exc)
    return grid, slack


def _diagonal_sequence(diags, scale):
    """The diagonal operators scale * diags[n] as a sequence."""
    return OperatorSequence(lambda n: PositiveOperator(diagonal=scale * np.array(diags[n])), len(diags[0]))


def _dominated_row_matches_cells(rho_diags, sigma_diags, c, scale, kind="entropy", tol=TOL) -> Counter | None:
    """Assert that the window takes the rows path and equals the per-cell path; the flags seen, None if the window raised.

    The family's sigma_n, where it has one, is the sigma_n of the window.
    Each number of row n agrees within tol * max(1, |x|, Tr tau_n).
    """
    calls = Counter()
    family = _counted(_rows_family(kind, _diagonal_sequence(sigma_diags, scale)), calls)
    got = _dominated_grids(rho_diags, sigma_diags, c, scale, family)
    want = _dominated_grids(rho_diags, sigma_diags, c, scale, _per_cell(family))
    if isinstance(want, str):
        assert got == want
        return None
    assert calls == {"rows": 2}  # the grid's window and the slack's
    (rows, slack_rows), (cells, slack_cells) = got, want
    assert rows.m_range == cells.m_range and len(rows.cells) == len(cells.cells)
    traces = [scale * (c * sum(r) + sum(s)) for r, s in zip(rho_diags, sigma_diags)]
    flags = Counter()
    for g, w in zip(rows.cells, cells.cells):
        where = f"(n, m) = ({w.n}, {w.m})"
        assert (g.n, g.m, g.flags) == (w.n, w.m, w.flags), where
        for label in ("mu", "gap", "tail"):
            assert _close(getattr(g, label), getattr(w, label), traces[w.n], tol), f"{label} at {where}"
        flags.update(w.flags)
    assert _close(slack_rows, slack_cells, max(traces), tol)
    return flags


# rho_n ties at cuts the limit's gaps put there (ambiguous-m); rho_n and
# sigma_n have zero values (rank deficient); the last member is all zero
TIED_WINDOW = (
    [[0.4, 0.3, 0.2, 0.1, 0.0], [0.3, 0.3, 0.2, 0.2, 0.0], [0.35, 0.25, 0.25, 0.1, 0.0], [0.0] * 5],
    [[0.0, 0.2, 0.0, 0.3, 0.1], [0.0, 0.2, 0.2, 0.3, 0.1], [0.0, 0.25, 0.0, 0.3, 0.1], [0.0] * 5],
    0.5, 1.0,
)
LATTICE = (0.0, 1e-17, 0.1, 0.2, 0.4)


@st.composite
def dominated_windows(draw):
    """Diagonals of rho_n and sigma_n for n = 0..n_max, a c and a common scale of the traces.

    Values come from a small lattice, whose zeros and values below the rank
    tolerance make members rank deficient and whose repeats put ties at
    cuts, or from a continuous range.
    """
    d = draw(st.integers(2, 7))
    n_max = draw(st.integers(1, 3))
    value = st.one_of(st.sampled_from(LATTICE), st.floats(0.01, 1.0))
    members = st.lists(st.lists(value, min_size=d, max_size=d), min_size=n_max + 1, max_size=n_max + 1)
    return (draw(members), draw(members), draw(st.sampled_from([0.25, 0.5, 1.0, 3.0])),
            draw(st.sampled_from([1.0, 1e7, 1e-7])))


@pytest.mark.parametrize("kind", ROWS_FAMILIES)
@settings(max_examples=150, deadline=None)
@given(dominated_windows())
@example(TIED_WINDOW)
@example((TIED_WINDOW[0], TIED_WINDOW[1], 3.0, 1e7))
@example((TIED_WINDOW[0], TIED_WINDOW[1], 0.25, 1e-7))
def test_dominated_rows_match_cells(kind, window):
    _dominated_row_matches_cells(*window, kind)


def test_dominated_row_flags_ties_at_a_cut():
    assert _dominated_row_matches_cells(*TIED_WINDOW)["ambiguous-m"]


def _window_states_match_normalize(rho_diags, sigma_diags, c, scale, monkeypatch) -> Counter:
    """Assert that the ``vanishing`` of the dominated window finds no state exactly where ``normalize`` does, on every head and tail it holds."""
    windows = []
    spectral_cuts = diagnostics.SpectralCuts
    monkeypatch.setattr(diagnostics, "SpectralCuts",
                        lambda *args, **kwargs: windows.append(spectral_cuts(*args, **kwargs)) or windows[-1])
    if isinstance(_dominated_grids(rho_diags, sigma_diags, c, scale, entropy_family()), str):
        return Counter()
    assert windows
    seen = Counter()
    for window in windows:
        for j, row in enumerate(window.values):
            # the weights are in basis order, a permutation of the diagonal: ``normalize`` does not see it
            for i, k in enumerate(window.cuts[j].tolist()):
                in_head = np.arange(row.size) < k
                parts = (np.where(in_head, row, 0.0), np.where(in_head, 0.0, row))[:window.sides]
                for side, part in enumerate(parts):
                    no_state = normalize(PositiveOperator(diagonal=part)) is None
                    assert window.vanishing[side, j, i] == no_state, (part, side)
                    seen[no_state] += 1
    return seen


@settings(max_examples=60)
@given(dominated_windows(), st.sampled_from([0.25, 3.0]))
def test_dominated_window_finds_no_state_where_normalize_does(window, c):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _window_states_match_normalize(window[0], window[1], c, window[3], monkeypatch)


@pytest.mark.parametrize("c", [0.25, 3.0])
def test_dominated_window_meets_states_and_vanishing_rows(monkeypatch, c):
    # the tied window's last member is 0, so its rows vanish, and the others have states
    seen = _window_states_match_normalize(TIED_WINDOW[0], TIED_WINDOW[1], c, 1.0, monkeypatch)
    assert seen[True] and seen[False]


def test_simon_dct_grid_builds_no_operator_per_cell(constructions):
    sc = builtin_scenario("simon-dct").to_json()
    sc["checks"] = [check for check in sc["checks"] if check["op"] == "gap-grid"]
    built = []
    for m_max in (4, 16):
        constructions.clear()
        report = run_scenario(Scenario.from_json(sc), m_max=m_max)
        assert len(report["grids"][0]["grid"]["cells"]) == 13 * m_max
        built.append(constructions["operators"])
    # per n: tau_n and rho_n; the limits add c rho_0, tau_0 - c rho_0 and
    # sigma_0; whatever the number of cells, as the window reads arrays
    assert built[0] == built[1] <= 2 * 13 + 3


def _grid_forms_agree(grid) -> Counter:
    """Assert that ``cells``, ``cell(n, m)``, ``to_json`` and ``to_csv`` of one grid agree cell by cell; the flags seen."""
    rows = grid.to_json()["cells"]
    csv_rows = list(csv.DictReader(io.StringIO(grid.to_csv())))
    assert len(grid.cells) == len(rows) == len(csv_rows) == len(grid.n_range) * len(grid.m_range)
    assert [(cell.n, cell.m) for cell in grid.cells] == list(itertools.product(grid.n_range, grid.m_range))
    flags = Counter()
    for cell, row, csv_row in zip(grid.cells, rows, csv_rows):
        assert grid.cell(cell.n, cell.m) == cell
        assert row == {"n": cell.n, "m": cell.m, "mu": encode_number(cell.mu), "gap": encode_number(cell.gap),
                       "tail": encode_number(cell.tail), "flags": ";".join(cell.flags)}
        assert csv_row == {key: str(value) for key, value in row.items()}
        flags.update(cell.flags)
    return flags


def test_simon_dct_run_builds_no_grid_cell_and_every_grid_form_agrees(monkeypatch):
    built, grids = Counter(), []
    init = GridCell.__init__
    monkeypatch.setattr(GridCell, "__init__", lambda self, *args: built.update(["cells"]) or init(self, *args))
    grid_of = diagnostics.approximation_gap_grid
    monkeypatch.setattr(diagnostics, "approximation_gap_grid", lambda *args: grids.append(grid_of(*args)) or grids[-1])
    report = run_scenario(builtin_scenario("simon-dct"), seed=3)
    report_to_json(report), report_to_csv(report)
    assert len(grids) == 1 and not built
    # every builtin grid, the scenario files' grids, and dense spectral grids with +inf and tied cells
    for name in BUILTIN_SCENARIOS:
        run_scenario(builtin_scenario(name), seed=3)
    for name in ("near-tie-chain", "vanishing-sigma-limit"):
        run_scenario(load_scenario(SCENARIO_DIR / f"{name}.json"), seed=3)
    for case in ("support-break", "ties"):
        rho_seq, sigma_seq, n_max = _window(case, True, 0)
        grids.append(approximation_gap_grid(relative_entropy_family(sigma_seq), rho_seq, ApproximationScheme("spectral"),
                                            n_max, rho_seq.dim))
    assert len(grids) == 1 + 1 + 2 + 2
    flags = sum((_grid_forms_agree(grid) for grid in grids), Counter())
    assert set(flags) == {"ambiguous-m", "inf-gap", "inf-tail"}


def test_dominated_window_evaluates_heads_only(monkeypatch):
    # every row of the window is cut after its last coordinate: its tail
    # side would be empty, so the channel stacks hold the heads alone
    shapes = []
    solve = channels.positive_eigenvalues

    def recorded(stack):
        stack = np.asarray(stack)
        shapes.append(stack.shape)
        # [output or environment, side, row, cut, :, :]: no side is all zero
        assert all(np.any(stack[:, side]) for side in range(stack.shape[1]))
        return solve(stack)

    monkeypatch.setattr(channels, "positive_eigenvalues", recorded)
    _dominated_row_matches_cells(*TIED_WINDOW, "channel-mi")
    # the grid's 4 n x 6 m heads and tails, then the slack's with its whole column
    assert shapes == [(2, 1, 48, 1, 5, 5), (2, 1, 56, 1, 5, 5)]


@pytest.mark.parametrize("name", ["choi-rank-bound", "channel-mi-depolarizing"])
def test_whole_values_evaluate_heads_only(monkeypatch, name):
    # f_n of whole operators cuts each at its rank: its tails are empty, so
    # the channel stacks of these builtins hold no side that is all zero
    stacks = []
    solve = channels.positive_eigenvalues
    monkeypatch.setattr(channels, "positive_eigenvalues",
                        lambda stack: stacks.append(np.asarray(stack)) or solve(stack))
    run_scenario(builtin_scenario(name), seed=3)
    assert stacks
    for stack in stacks:
        # [output or environment,] side, row, cut, :, :
        sides = np.moveaxis(stack, stack.ndim - 5, 0)
        assert all(np.any(side) for side in sides), stack.shape


# rho_n and tau_n with tau_n - rho_n not PSD first at n = 2, by -0.1, and again at n = 3, by -0.05
NOT_PSD_AT_2 = ([[0.5, 0.3, 0.2]] * 4,
                [[0.1, 0.1, 0.1], [0.1, 0.2, 0.1], [0.2, -0.1, 0.1], [-0.05, 0.2, 0.1]])


@pytest.mark.parametrize("kind", ROWS_FAMILIES)
def test_dominated_window_raises_the_first_failing_n_on_both_paths(kind):
    rho_diags, sigma_diags = NOT_PSD_AT_2
    got = _dominated_row_matches_cells(rho_diags, sigma_diags, 1.0, 1.0, kind)
    assert got is None  # both paths raised the same text
    rho, tau = (PositiveOperator(diagonal=np.array(x)) for x in (rho_diags[2], np.add(rho_diags[2], sigma_diags[2])))
    with pytest.raises(ValueError) as scalar:
        PositiveOperator.of(tau.sub(rho))
    want = f"tau - c*rho: {scalar.value}"
    assert "min eigenvalue -1.000e-01" in want
    family = _rows_family(kind, _diagonal_sequence(sigma_diags, 1.0))
    for fam in (family, _per_cell(family)):
        assert _dominated_grids(rho_diags, sigma_diags, 1.0, 1.0, fam) == want


@pytest.mark.parametrize("broken", [3, 2])
def test_dominated_window_raises_in_member_order_when_a_member_fails(broken):
    # tau_n's generator raises at n = broken: past the failing n = 2 both paths
    # report tau_2 - rho_2, and at n = 2 the generator's own error
    rho_diags, sigma_diags = NOT_PSD_AT_2

    def tau_member(n):
        if n == broken:
            raise ValueError(f"member {n} cannot be built")
        return PositiveOperator(diagonal=np.add(rho_diags[n], sigma_diags[n]))

    rho, tau = _diagonal_sequence(rho_diags, 1.0), OperatorSequence(tau_member, 3)
    want = "min eigenvalue -1.000e-01" if broken == 3 else "member 2 cannot be built"
    for family in (entropy_family(), _per_cell(entropy_family())):
        with pytest.raises(ValueError, match=want):
            approximation_gap_grid(family, tau, ApproximationScheme("dominated", 1.0, rho), 3, 3)


@pytest.mark.parametrize("kind", ROWS_FAMILIES)
def test_dominated_window_below_the_floor_is_empty_on_both_paths(kind):
    # rho_0 has a top multiplicity of 2: m_max = 1 is below the floor, so
    # the grid has no m; the slack reads only the whole column and has no cell
    rho_diags, sigma_diags = [[0.3, 0.3, 0.2]] * 3, [[0.2, 0.1, 0.05]] * 3
    rho, tau = _diagonal_sequence(rho_diags, 1.0), _diagonal_sequence(np.add(rho_diags, sigma_diags), 1.0)
    scheme = ApproximationScheme("dominated", 1.0, rho)
    calls = Counter()
    family = _counted(_rows_family(kind, _diagonal_sequence(sigma_diags, 1.0)), calls)
    for fam in (family, _per_cell(family)):
        grid = approximation_gap_grid(fam, tau, scheme, 2, 1)
        assert (grid.m_range, grid.cells, grid.to_json()["cells"]) == ((), (), [])
        assert truncation_lower_bound_slack(fam, tau, scheme, 2, 1) == math.inf
    assert calls == {"rows": 1}  # the slack's whole column; the empty grid makes no call


@pytest.mark.parametrize("kind", ROWS_FAMILIES)
@pytest.mark.parametrize("c", [0.5, 1.0])
def test_dominated_window_with_sigma_vanishing_past_the_limit(kind, c):
    # sigma_1 = 0 exactly (tau_1 = c rho_1 at these c), sigma_0 != 0 with a tie
    # its m-hat cuts through at n = 2: only rho_1 is cut on both paths
    rho_diags = [[0.4, 0.3, 0.2, 0.1], [0.35, 0.3, 0.25, 0.1], [0.4, 0.2, 0.2, 0.2]]
    sigma_diags = [[0.3, 0.2, 0.2, 0.0], [0.0] * 4, [0.25, 0.25, 0.1, 0.1]]
    rho = _diagonal_sequence(rho_diags, 1.0)
    tau = OperatorSequence(lambda n: PositiveOperator(diagonal=c * np.array(rho_diags[n]) + np.array(sigma_diags[n])), 4)
    table = ApproximationScheme("dominated", c, rho).dominated_cuts(tau, range(3), 5)
    assert table.cut_sigma.tolist() == [True, False, True]
    assert _dominated_row_matches_cells(rho_diags, sigma_diags, c, 1.0, kind)["ambiguous-m"]


# ---------------------------------------------------------------------------
# One call per window


def _sequences(rho_diags, sigma_diags, scale, dense):
    """rho_n and sigma_n with the given spectra times scale, diagonal or in two fixed dense bases."""
    d = len(rho_diags[0])
    rng = np.random.default_rng(d)
    bases = (random_unitary(rng, d), random_unitary(rng, d)) if dense else (None, None)

    def sequence(diags, u):
        def member(n):
            lam = scale * np.array(diags[n])
            if u is None:
                return PositiveOperator(diagonal=lam)
            return PositiveOperator((u * lam) @ u.conj().T)

        return OperatorSequence(member, d)

    return sequence(rho_diags, bases[0]), sequence(sigma_diags, bases[1])


def _reference_cut_table(rho, tau, c, ns, m_max, whole):
    """(m_range, cuts, cut_sigma, flags) of a dominated window from operators alone, as plain lists.

    sigma_n = tau_n - c rho_n is built by ``PositiveOperator.of``; each m-hat
    comes from ``largest_stable_index`` of its limit, clipped at the rank
    (at least 1); each flag is ``spectral_truncation(rho_n, k).ambiguous``,
    or the same for sigma_n where sigma_n does not vanish.
    """
    limits = (rho(0), PositiveOperator.of(tau(0).sub(rho(0).scale(c))))
    m_range = range(max(top_multiplicity(limit) for limit in limits), m_max + 1)
    cuts, cut_sigma, flags = ([], []), [], []
    for n in ns:
        pair = (rho(n), PositiveOperator.of(tau(n).sub(rho(n).scale(c))))
        rows = [[min(largest_stable_index(limit, m), max(op.rank(), 1)) for m in m_range] + [max(op.rank(), 1)] * whole
                for limit, op in zip(limits, pair)]
        cut_sigma.append(not pair[1].vanishes())
        flags.append([spectral_truncation(pair[0], k).ambiguous
                      or (cut_sigma[-1] and spectral_truncation(pair[1], l).ambiguous) for k, l in zip(*rows)])
        for side, row in zip(cuts, rows):
            side.append(row)
    return m_range, [list(side) for side in cuts], cut_sigma, flags


@pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
@settings(max_examples=100, deadline=None)
@given(dominated_windows(), st.booleans())
@example(TIED_WINDOW, False)
@example(TIED_WINDOW, True)
def test_dominated_cut_table_matches_the_operator_reference(dense, window, whole):
    """The table's m-range, cut pairs, vanishing rows and ambiguous flags against ``_reference_cut_table``, exactly."""
    rho_diags, sigma_diags, c, scale = window
    rho, sigma = _sequences(rho_diags, sigma_diags, scale, dense)
    tau = OperatorSequence(lambda n: PositiveOperator.of(rho(n).scale(c).add(sigma(n))), rho.dim)
    ns, m_max = range(len(rho_diags)), rho.dim + 1
    try:
        m_range, cuts, cut_sigma, flags = _reference_cut_table(rho, tau, c, ns, m_max, whole)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(f"tau - c*rho: {exc}")):
            ApproximationScheme("dominated", c, rho).dominated_cuts(tau, ns, m_max, whole)
        return
    table = ApproximationScheme("dominated", c, rho).dominated_cuts(tau, ns, m_max, whole)
    assert table.m_range == m_range
    assert table.cut_sigma.tolist() == cut_sigma
    assert table.cuts[0].tolist() == cuts[0]
    assert [row for row, cut in zip(table.cuts[1].tolist(), cut_sigma) if cut] == \
        [row for row, cut in zip(cuts[1], cut_sigma) if cut]
    assert table.ambiguous.tolist() == flags


@settings(max_examples=100, deadline=None)
@given(dominated_windows(), st.sampled_from(FAMILIES), st.booleans(), st.booleans())
@example(TIED_WINDOW, "entropy", False, False)
@example(TIED_WINDOW, "relative-entropy", True, False)
@example(TIED_WINDOW, "trace-neg-log", False, True)
def test_window_slack_and_grid_match_cells(window, kind, dense, single):
    """The spectral window against the per-cell oracle.

    The lattice values make the rank vary with n, the tied window's last
    member vanishes, ``single`` keeps n_max = 0, and m runs one past d, so
    every row has cuts at and past its rank.
    """
    rho_diags, sigma_diags, _, scale = window
    if single:
        rho_diags, sigma_diags = rho_diags[:1], sigma_diags[:1]
    rho_seq, sigma_seq = _sequences(rho_diags, sigma_diags, scale, dense)
    family = _family(kind, sigma_seq)
    n_max, m_max = len(rho_diags) - 1, rho_seq.dim + 1
    scheme = ApproximationScheme("spectral")
    got = truncation_lower_bound_slack(family, rho_seq, scheme, n_max, m_max)
    want = truncation_lower_bound_slack(_per_cell(family), rho_seq, scheme, n_max, m_max)
    assert _close(got, want), (got, want)
    rows = approximation_gap_grid(family, rho_seq, scheme, n_max, m_max)
    cells = approximation_gap_grid(_per_cell(family), rho_seq, scheme, n_max, m_max)
    assert len(rows.cells) == len(cells.cells) == (n_max + 1) * m_max
    for g, w in zip(rows.cells, cells.cells):
        assert (g.n, g.m, g.flags) == (w.n, w.m, w.flags)
        for label in ("mu", "gap", "tail"):
            assert _close(getattr(g, label), getattr(w, label)), f"{label} at (n, m) = ({w.n}, {w.m})"


def _counted(family, calls: Counter):
    """``family`` with its rows form counting its calls in ``calls``."""
    def rows(ns, cuts):
        calls["rows"] += 1
        return family.rows(ns, cuts)

    return FunctionalFamily(family.kind, family.label, family.value, family.a_f, family.b_f, rows=rows)


@pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
@pytest.mark.parametrize("kind", FAMILIES)
def test_spectral_procedures_make_one_rows_call_per_window(kind, dense):
    rho_seq, sigma_seq, n_max = _window("rank-deficient", dense, 1)
    calls = Counter()
    family = _counted(_family(kind, sigma_seq), calls)
    scheme = ApproximationScheme("spectral")
    approximation_gap_grid(family, rho_seq, scheme, n_max, rho_seq.dim)
    assert calls == {"rows": 1}
    truncation_lower_bound_slack(family, rho_seq, scheme, n_max, rho_seq.dim)
    assert calls == {"rows": 2}
    truncation_criterion(family, rho_seq, commuting_schedule(rho_seq, rho_seq.dim, n_max), 1, n_max, rho_seq.dim)
    assert calls == {"rows": 3}


def test_dominated_diagonal_grid_makes_one_rows_call_per_window():
    rho_diags, sigma_diags, c, _ = TIED_WINDOW
    d, n_max = len(rho_diags[0]), len(rho_diags) - 1
    rho = OperatorSequence(lambda n: PositiveOperator(diagonal=np.array(rho_diags[n])), d)
    tau = OperatorSequence(lambda n: PositiveOperator(
        diagonal=c * np.array(rho_diags[n]) + np.array(sigma_diags[n])), d)
    calls = Counter()
    family = _counted(entropy_family(), calls)
    scheme = ApproximationScheme("dominated", c, rho)
    grid = approximation_gap_grid(family, tau, scheme, n_max, d)
    assert calls == {"rows": 1} and len(grid.cells) == (n_max + 1) * len(grid.m_range)
    truncation_lower_bound_slack(family, tau, scheme, n_max, d)
    assert calls == {"rows": 2}


def test_criterion_refuses_n_max_past_the_schedule():
    rho_seq, sigma_seq, n_max = _window("generic", False, 0)
    schedule = commuting_schedule(rho_seq, rho_seq.dim, n_max)
    with pytest.raises(ValueError, match="past the schedule's n_max"):
        truncation_criterion(entropy_family(), rho_seq, schedule, 1, n_max + 1, rho_seq.dim)


@pytest.mark.parametrize("shift", [1, -1], ids=["past n_max", "negative"])
def test_criterion_refuses_n_0_outside_the_window(monkeypatch, shift):
    rho_seq, _, n_max = _window("generic", False, 0)
    schedule = commuting_schedule(rho_seq, rho_seq.dim, n_max)
    n_0 = n_max + 1 if shift > 0 else -1
    # refused before any window work: no schedule check runs
    monkeypatch.setattr(diagnostics, "schedule_checks", None)
    with pytest.raises(ValueError, match=rf"n_0 = {n_0} is outside the window 0 <= n <= n_max = {n_max}"):
        truncation_criterion(entropy_family(), rho_seq, schedule, n_0, n_max, rho_seq.dim)


# ---------------------------------------------------------------------------
# The channel families by linearity

CHANNEL_FAMILIES = ("channel-mi", "coherent-info", "output-entropy")


def _channel_family(kind, channel_seq):
    if kind == "channel-mi":
        return channel_mi_family(channel_seq)
    if kind == "coherent-info":
        return coherent_info_family(channel_seq)
    if kind == "output-entropy":
        return output_entropy_family(channel_seq)
    return scenarios._build_family({"kind": "entropy-plus-log", "k": 2}, {}, {})


@st.composite
def channel_windows(draw, scales=(1.0, 1e7, 1e-7)):
    """(d_in, d_out, Kraus count per n, case, dense, scale, seed) of one random channel window.

    d_out may differ from d_in, and each Phi_n has its own count of 1 to 4
    Kraus operators (at least ceil(d_in / d_out), so that a random isometry
    exists).  The cases are those of ``_window``: rank-deficient rho_n and
    spectra with ties at the cuts; the scale, one of ``scales``,
    multiplies every trace.
    """
    d_in, d_out = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    n_max = draw(st.integers(0, 3))
    k_min = -(-d_in // d_out)
    kraus_counts = draw(st.lists(st.integers(k_min, 4), min_size=n_max + 1, max_size=n_max + 1))
    case = draw(st.sampled_from(("generic", "rank-deficient", "ties")))
    return (d_in, d_out, kraus_counts, case, draw(st.booleans()),
            draw(st.sampled_from(scales)), draw(st.integers(0, 2 ** 16)))


def _channel_window(d_in, d_out, kraus_counts, case, dense, scale, seed):
    """The channel sequence, rho_n and n_max of ``channel_windows``."""
    rng = np.random.default_rng(seed)
    channels = [random_channel(rng, d_in, d_out, k) for k in kraus_counts]
    base = rng.uniform(0.05, 1.0, d_in)
    if case == "ties":
        base = rng.choice([0.4, 0.2], d_in)
    if case == "rank-deficient":
        base[rng.permutation(d_in)[:rng.integers(1, d_in)]] = 0.0
    # ties survive a common factor; the other cases move every eigenvalue.
    # The rate is off the trend rule's halving threshold: under a common
    # factor the residuals of a homogeneous family shrink at exactly the
    # rate, and at 0.5 rounding alone would decide each trend
    pert = rng.uniform(-0.1, 0.1, 1 if case == "ties" else d_in)
    u, perm = random_unitary(rng, d_in), rng.permutation(d_in)

    def rho(n):
        lam = scale * base * (1.0 + (0.45 ** n if n else 0.0) * pert)
        return PositiveOperator((u * lam) @ u.conj().T) if dense else PositiveOperator(diagonal=lam[perm])

    return ChannelSequence(lambda n: channels[n], d_in, d_out), OperatorSequence(rho, d_in), len(kraus_counts) - 1


TIED_CHANNEL_WINDOW = (3, 2, [2, 4, 3], "ties", True, 1.0, 5)


@settings(max_examples=80, deadline=None)
@given(channel_windows(), st.sampled_from(CHANNEL_FAMILIES + ("entropy-plus-log",)), st.booleans())
@example(TIED_CHANNEL_WINDOW, "channel-mi", True)
@example((4, 1, [4, 4], "rank-deficient", False, 1e7, 1), "coherent-info", False)
@example((2, 3, [1, 4], "generic", True, 1e-7, 2), "output-entropy", True)
def test_channel_rows_match_values_on_every_head_and_tail(window, kind, normalized):
    """Each rows form against ``value`` on every head and tail of ``split``, every cut 0..d of every rho_n."""
    channel_seq, rho_seq, n_max = _channel_window(*window)
    family = _channel_family(kind, channel_seq)
    assert family.rows is not None
    ns, d = range(n_max + 1), rho_seq.dim
    cuts = np.tile(np.arange(d + 1), (n_max + 1, 1))
    got = family.rows(ns, SpectralCuts([rho_seq(n).spectrum() for n in ns], cuts, normalized=normalized))
    assert got.shape == (2, n_max + 1, d + 1)
    for n in ns:
        for k in range(d + 1):
            for side, op in enumerate(rho_seq(n).split(k)):
                state = normalize(op) if normalized else None
                cut = op if state is None else state
                want = float(family.value(n, cut))
                # values are homogeneous in the cut, and the mutual and coherent
                # informations cancel entropies of its size: the error scales with Tr
                assert abs(got[side, n, k] - want) <= TOL * max(1.0, abs(want), cut.trace()), \
                    (n, k, side, got[side, n, k], want)


def _json_difference(got, want, path="verdict"):
    """The first place two report fragments differ: structure, strings and flags exactly, numbers within TOL of scale."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return path
        return next((d for key in sorted(want) if (d := _json_difference(got[key], want[key], f"{path}.{key}"))), None)
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return path
        return next((d for i, (g, w) in enumerate(zip(got, want))
                     if (d := _json_difference(g, w, f"{path}[{i}]"))), None)
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        return None if _close(float(got), want) else f"{path}: {got!r} vs {want!r}"
    return None if got == want and type(got) is type(want) else f"{path}: {got!r} vs {want!r}"


# Whole checks at traces up to 1: a trend of values that vanish up to
# rounding (the mutual information through a one-dimensional output) has
# residuals of about 1e-16 * Tr, which at Tr = 1e7 pass the trend rule's
# absolute zero tolerance, so rounding would decide it on either path
CHECK_WINDOWS = channel_windows(scales=(1.0, 1e-7))


@settings(max_examples=40, deadline=None)
@given(CHECK_WINDOWS, st.sampled_from(("entropy-plus-log",) + CHANNEL_FAMILIES),
       st.sampled_from(CHANNEL_FAMILIES), st.integers(1, 5))
@example(TIED_CHANNEL_WINDOW, "entropy-plus-log", "output-entropy", 2)
@example(TIED_CHANNEL_WINDOW, "channel-mi", "coherent-info", 3)
def test_dct_basic_rows_match_cells(window, f_kind, g_kind, m_max):
    channel_seq, rho_seq, n_max = _channel_window(*window)
    f, g = (_channel_family(kind, channel_seq) for kind in (f_kind, g_kind))
    got = check_dct_basic(f, g, rho_seq, n_max, m_max).to_json()
    want = check_dct_basic(_per_cell(f), _per_cell(g), rho_seq, n_max, m_max).to_json()
    assert _json_difference(got, want) is None, (got, want)


@settings(max_examples=30, deadline=None)
@given(CHECK_WINDOWS, st.booleans())
@example(TIED_CHANNEL_WINDOW, True)
def test_channel_mi_checks_rows_match_cells(window, with_schedule):
    """``channel_mi_checks`` builds its families itself, so the per-cell run swaps in their ``_per_cell`` forms."""
    channel_seq, rho_seq, n_max = _channel_window(*window)
    d = rho_seq.dim
    sigma = PositiveOperator(diagonal=np.full(d, window[5] / d))
    sigma_seq = OperatorSequence(lambda n: sigma, d)
    schedule = commuting_schedule(rho_seq, d, n_max) if with_schedule else None

    def run():
        return channel_mi_checks(channel_seq, rho_seq, sigma_seq, 0.5, [0.5] * (n_max + 1), n_max, d,
                                 schedule=schedule).to_json()

    got = run()
    with pytest.MonkeyPatch.context() as patch:
        for name in ("channel_mi_family", "entropy_family", "output_entropy_family"):
            patch.setattr(diagnostics, name, lambda *args, _make=getattr(diagnostics, name): _per_cell(_make(*args)))
        want = run()
    assert _json_difference(got, want) is None, (got, want)


def test_choi_rank_bound_check_builds_no_operator_per_sample_cut(monkeypatch, constructions):
    sc = builtin_scenario("choi-rank-bound")
    seqs, _, fams = scenarios._resolve_bindings(sc)
    check = sc.checks[0]
    rho, n_max = seqs["rho"], check["n_max"]
    for n in range(n_max + 1):
        rho(n).spectrum().basis  # the members and their bases, built beforehand
    constructions.clear()
    split = PositiveOperator.split
    monkeypatch.setattr(PositiveOperator, "split", lambda op, k: constructions.update(["split"]) or split(op, k))
    verdict = check_dct_basic(fams["f"], fams["g"], rho, n_max, check["m_max"])
    assert verdict.status == "consistent"
    # [rho_0] once; per n >= 1 only the LAA mixture: [rho_n], the halves of
    # [rho_n] and [rho_0], their sum and Phi_n of it
    assert constructions == {"operators": 1 + 5 * n_max}


def test_choi_rank_bound_check_solves_its_bases_in_one_eigensolve(eigensolves):
    sc = builtin_scenario("choi-rank-bound")
    seqs, _, fams = scenarios._resolve_bindings(sc)
    check = sc.checks[0]
    rho, n_max = seqs["rho"], check["n_max"]
    for n in range(n_max + 1):
        rho(n)  # the members, built beforehand; their bases are not solved yet
    eigensolves.clear()
    check_dct_basic(fams["f"], fams["g"], rho, n_max, check["m_max"])
    # the 13 rho_n bases of the output-entropy rows, solved together
    assert eigensolves["eigh"] == 1


@pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
@pytest.mark.parametrize("kind", CHANNEL_FAMILIES)
def test_channel_rows_make_one_stacked_eigensolve(monkeypatch, kind, dense):
    channel_seq, rho_seq, n_max = _channel_window(3, 2, [2, 4, 3], "generic", dense, 1.0, 3)
    ns = range(n_max + 1)
    spectra = [rho_seq(n).spectrum() for n in ns]
    for spec in spectra:
        spec.basis
    calls = Counter()
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *args, _name=name, _solver=solver, **kwargs:
                            calls.update([(_name, np.shape(a))]) or _solver(a, *args, **kwargs))
    cuts = SpectralCuts(spectra, np.tile(np.arange(4), (n_max + 1, 1)), normalized=True)
    _channel_family(kind, channel_seq).rows(ns, cuts)
    # the output states are 2 x 2; with the environment states, up to 4 x 4, both in one stack
    shape = (2, n_max + 1, 4, 2, 2) if kind == "output-entropy" else (2, 2, n_max + 1, 4, 4, 4)
    assert calls == {("eigvalsh", shape): 1}


def test_channel_rows_raise_the_psd_error_of_a_failing_row():
    from qdini.operators import positive_eigenvalues
    stack = np.zeros((2, 3, 2, 2))
    stack[:, :] = np.eye(2)
    stack[1, 2] = np.diag([1.0, -1e-3])
    with pytest.raises(ValueError, match="operator is not PSD: min eigenvalue -1.000e-03"):
        PositiveOperator(stack[1, 2])
    with pytest.raises(ValueError, match="operator is not PSD: min eigenvalue -1.000e-03"):
        positive_eigenvalues(stack)
    assert positive_eigenvalues(stack[0]).tolist() == [[1.0, 1.0]] * 3


# ---------------------------------------------------------------------------
# Fixed-basis criterion windows on diagonal members


SIDES = ((True, True), (False, True), (True, False))


def _fixed_basis_matches_cells(kind, rho_diags, sigma_diags, scale, bases, cuts, normalized, sides, tol=TOL):
    """Assert that ``_cut_values`` of the diagonal rho_n on ``bases`` takes the rows path and equals the per-cell form.

    The family's sigma_n, where it has one, is the diagonal sigma_n of
    ``sigma_diags``.  Row n agrees within tol * max(1, |x|, Tr rho_n).
    """
    rho_seq = _diagonal_sequence(rho_diags, scale)
    calls = Counter()
    family = _counted(_rows_family(kind, _diagonal_sequence(sigma_diags, scale)), calls)
    ns = range(len(rho_diags))
    ops = [rho_seq(n) for n in ns]
    got, want = (diagnostics._cut_values(fam, ns, ops, bases, cuts, normalized, *sides)
                 for fam in (family, _per_cell(family)))
    assert calls == {"rows": 1}
    assert np.isnan(got[[not side for side in sides]]).all()
    for n in ns:
        for side in (0, 1):
            assert all(_same_cut(g, w, ops[n].trace(), tol) for g, w in zip(got[side, n], want[side, n])), \
                (n, side, got[side, n], want[side, n])


@pytest.mark.parametrize("kind", ROWS_FAMILIES)
@settings(max_examples=80, deadline=None)
@given(dominated_windows(), st.booleans(), st.integers(0, 2 ** 16), st.sampled_from((False, True, "mixed")),
       st.sampled_from(SIDES))
@example(TIED_WINDOW, False, 0, False, SIDES[0])
@example(TIED_WINDOW, True, 1, False, SIDES[0])
@example(TIED_WINDOW, True, 2, True, SIDES[1])
@example(TIED_WINDOW, True, 3, "mixed", SIDES[0])
def test_fixed_basis_window_matches_cells(kind, window, permuted, seed, normalized, sides):
    """The rows form of ``_cut_values`` on diagonal members and other diagonal bases against its per-cell form.

    Coordinate or permuted bases, any cuts, the cuts or their states (or
    the states of some columns), both sides or one.
    """
    rho_diags, sigma_diags, _, scale = window
    d, n_count = len(rho_diags[0]), len(rho_diags)
    rng = np.random.default_rng(seed)
    bases = [PositiveOperator(diagonal=rng.permutation(d) + 1.0).spectrum() if permuted else coordinate_basis(d)
             for _ in range(n_count)]
    cuts = rng.integers(0, d + 1, size=(n_count, int(rng.integers(1, d + 2))))
    if isinstance(normalized, str):
        normalized = rng.integers(0, 2, cuts.shape[1]).astype(bool)
    _fixed_basis_matches_cells(kind, rho_diags, sigma_diags, scale, bases, cuts, normalized, sides)


def test_fixed_basis_criterion_makes_one_rows_call_and_no_compression(monkeypatch):
    seq = scenarios._seq_entropy_discontinuity({"n_cap": 6})
    schedule = fixed_basis_schedule(seq.dim, 413, seq, n_max=6)
    compress = diagnostics.compress
    calls = Counter()
    monkeypatch.setattr(diagnostics, "compress", lambda rho, p: calls.update(["compress"]) or compress(rho, p))
    family = _counted(entropy_family(), calls)
    rows = truncation_criterion(family, seq, schedule, 1, 6, 12)
    assert calls == {"rows": 1}
    cells = truncation_criterion(_per_cell(family), seq, schedule, 1, 6, 12)
    assert calls == {"rows": 1, "compress": 2 * 7 * 12}
    assert rows.status == cells.status
    assert all(map(_close, rows.values["tail_sup_per_m"], cells.values["tail_sup_per_m"]))


# ---------------------------------------------------------------------------
# A value below the rank tolerance of its cut on a diagonal basis

PLANT = 0.99  # the planted value's fraction of d RANK_REL_TOL times the top of its cut


def _rank_edge(d) -> float:
    """d RANK_REL_TOL (1 + |ln(d RANK_REL_TOL)|): how far one value at the rank tolerance of a cut moves f, per unit Tr X."""
    t = d * RANK_REL_TOL
    return t * (1.0 + abs(math.log(t)))


@pytest.mark.parametrize("kind", ROWS_FAMILIES)
@pytest.mark.parametrize("d", [3, 7, 16])
def test_fixed_basis_window_counts_a_value_below_the_rank_tolerance(kind, d):
    # coordinate 1 holds PLANT d RANK_REL_TOL times coordinate 0, the top of
    # every head from k = 2 on: a window counts it there, ``compress`` drops it
    rho = 0.5 ** np.arange(d) * 2.6
    rho[1] = PLANT * d * RANK_REL_TOL * rho[0]
    sigma = np.full(d, 1.0 / d)
    assert PositiveOperator(diagonal=rho).rank() == d - 1
    rho_diags = [(rho * (1.0 + 0.1 * 0.5 ** n)).tolist() for n in range(3)]
    cuts = np.tile(np.arange(d + 1), (3, 1))
    for normalized in (False, True):
        _fixed_basis_matches_cells(kind, rho_diags, [sigma.tolist()] * 3, 1.0, [coordinate_basis(d)] * 3, cuts,
                                   normalized, SIDES[0], _rank_edge(d))
    seq = _diagonal_sequence(rho_diags, 1.0)
    schedule = fixed_basis_schedule(d, d, seq, n_max=2)
    family = _rows_family(kind, _diagonal_sequence([sigma.tolist()] * 3, 1.0))
    rows, cells = (truncation_criterion(fam, seq, schedule, 1, 2, d) for fam in (family, _per_cell(family)))
    assert rows.status == cells.status


@pytest.mark.parametrize("kind", ROWS_FAMILIES)
@pytest.mark.parametrize("d", [3, 7, 16])
def test_dominated_window_counts_a_value_below_the_rank_tolerance(kind, d):
    # rho_n's last value is above rho_n's own rank tolerance, so its heads
    # keep it, but PLANT d RANK_REL_TOL times 3, the top c rho_n + sigma_n
    # of every head that holds it: a window counts it, the per-cell form drops it
    rho = 0.5 ** np.arange(d)
    rho[-1] = PLANT * d * RANK_REL_TOL * 3.0
    sigma = np.concatenate([[2.0], 0.3 * 0.6 ** np.arange(d - 2), [0.0]])
    assert PositiveOperator(diagonal=rho).rank() == d and PositiveOperator(diagonal=rho + sigma).rank() == d - 1
    window = ([rho.tolist()] * 3, [sigma.tolist()] * 3, 1.0, 1.0)
    assert _dominated_row_matches_cells(*window, kind, _rank_edge(d)) is not None
