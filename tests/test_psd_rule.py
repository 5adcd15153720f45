"""The one PSD rule: ``PositiveOperator``, ``PositiveOperator.of`` and ``is_psd``.

An operator is positive iff lambda_min >= -(PSD_REL_TOL * max(lambda_max, 0)
+ 1e-15).  Every ordering the verdict procedures assume (c rho_n <= tau_n,
rho2 <= rho1, sigma1 <= sigma2) is decided by that rule, so a diagonal
input and the same input rotated into a dense basis must get the same
verdict.  Only ``operators`` may call numpy's eigensolvers.
"""

import ast
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import qdini
from qdini import (
    ApproximationScheme,
    HermitianOperator,
    OperatorSequence,
    PositiveOperator,
    appendix_domination,
    approximation_gap_grid,
    check_dct_simon,
    constant_sequence,
    dominated_truncation,
    entropy_family,
    is_psd,
    random_unitary,
    relative_entropy_domination,
)
from qdini.diagnostics import _broken_orderings
from qdini.operators import PSD_REL_TOL, positive_eigenvalues

KINDS = ("diagonal", "dense")


def hermitian(values, kind: str) -> HermitianOperator:
    """diag(values), or the same spectrum rotated into a dense basis."""
    values = np.asarray(values, dtype=float)
    if kind == "diagonal":
        return HermitianOperator(diagonal=values)
    u = random_unitary(np.random.default_rng(values.size), values.size)
    return HermitianOperator((u * values) @ u.conj().T)


def positive(values, kind: str) -> PositiveOperator:
    return PositiveOperator.of(hermitian(values, kind))


def sequence(limit, pert, kind: str, rate: float = 0.5) -> OperatorSequence:
    """limit + rate^n pert for n >= 1 and the limit at n = 0, in one fixed basis."""
    limit = np.asarray(limit, dtype=float)
    pert = np.asarray(pert, dtype=float)
    return OperatorSequence(lambda n: positive(limit + (rate ** n if n else 0.0) * pert, kind), limit.size)


class TestNonPsdDominatedLimit:
    """rho_0 = diag(0.6, 0.4), tau_0 = diag(0.2, 0.8), c = 1: tau_0 - rho_0 is not PSD."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_multiplicity_floor_rejects_it(self, kind):
        scheme = ApproximationScheme("dominated", 1.0, constant_sequence(positive([0.6, 0.4], kind)))
        with pytest.raises(ValueError, match="not PSD"):
            scheme.m_floor(constant_sequence(positive([0.2, 0.8], kind)))

    @pytest.mark.parametrize("kind", KINDS)
    def test_gap_grid_rejects_it(self, kind):
        # members n >= 1 are ordered; only the declared limit breaks the ordering
        rho = sequence([0.6, 0.4], [-0.5, 0.0], kind)
        tau = sequence([0.2, 0.8], [0.5, 0.0], kind)
        assert is_psd(tau(1).sub(rho(1)))
        with pytest.raises(ValueError, match="not PSD"):
            approximation_gap_grid(entropy_family(), tau, ApproximationScheme("dominated", 1.0, rho), 2, 2)


class TestRejectionOnBothPaths:
    """The diagonal rejection tests of the verdict procedures, diagonal and rotated."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_dominated_truncation(self, kind):
        rho = positive([1.0, 0.0], kind)
        tau = positive([0.2, 0.5], kind)
        with pytest.raises(ValueError, match="tau - c\\*rho: operator is not PSD"):
            dominated_truncation(tau, rho, 1.0, 1, rho, tau)

    @pytest.mark.parametrize("kind", KINDS)
    def test_check_dct_simon(self, kind):
        rho = sequence([0.5, 0.5], [0.1, -0.1], kind)
        tau = constant_sequence(positive([0.1, 0.1], kind))
        # reported as a failed hypothesis check on both paths, not raised
        dom = check_dct_simon(entropy_family(), rho, tau, 1.0, 4, 2).hypothesis_checks[-1]
        assert dom.name == "PSD domination c*rho_n <= tau_n" and not dom.passed
        assert dom.slack == pytest.approx(-0.4, abs=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_relative_entropy_domination(self, kind):
        rho1 = sequence([0.4, 0.35, 0.25], [0.02, -0.01, -0.01], kind)
        rho2 = sequence([0.2, 0.175, 0.125], [0.01, -0.005, -0.005], kind)
        sigma1 = sequence([0.3, 0.3, 0.4], [0.01, 0.01, -0.02], kind)
        sigma2 = sequence([0.6, 0.6, 0.8], [0.02, 0.02, -0.04], kind)
        assert relative_entropy_domination(rho1, rho2, sigma1, sigma2, n_max=4).status == "consistent"
        # reported as a failed hypothesis check on both paths, not raised
        verdict = relative_entropy_domination(rho2, rho1, sigma1, sigma2, n_max=4)
        assert verdict.status == "inconclusive"
        dom = verdict.hypothesis_checks[-1]
        assert dom.name == "PSD domination c_rho*rho2_n <= rho1_n" and not dom.passed
        assert dom.slack == pytest.approx(-0.205, abs=1e-12)  # 0.205 - 0.41 at n = 1

    @pytest.mark.parametrize("kind", KINDS)
    def test_appendix_domination(self, kind):
        rho1 = sequence([0.5, 0.5], [0.0, 0.0], kind)
        rho2 = OperatorSequence(lambda n: rho1(n).scale(2.0), 2)
        verdict = appendix_domination(rho1, rho2, rho1, rho1, k_schedule=[1, 10], n_max=2)
        assert verdict.status == "inconclusive"
        (dom,) = verdict.hypothesis_checks
        assert dom.name == "PSD domination rho2_n <= rho1_n" and not dom.passed
        assert dom.slack == pytest.approx(-0.5, abs=1e-12)


RHO1 = ([0.4, 0.35, 0.25], [0.02, -0.01, -0.01])


def planted_break(kind: str, breaks) -> tuple:
    """rho1_n and rho2_n = rho1_n / 2, except at each n of breaks, where 0.45 more on the first level breaks c rho2_n <= rho1_n for c >= 0.8."""
    rho1 = sequence(*RHO1, kind)

    def rho2_member(n):
        values = 0.5 * (np.array(RHO1[0]) + (0.5 ** n if n else 0.0) * np.array(RHO1[1]))
        values[0] += 0.45 if n in breaks else 0.0
        return positive(values, kind)

    return rho1, OperatorSequence(rho2_member, 3)


class TestPlantedOrderingBreak:
    """One PSD-rule call per ordering over the window still names the first break and its eigenvalue."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("breaks", [{1}, {4}, {4, 6}, {0, 3}])
    @pytest.mark.parametrize("c", [1.0, 0.8])
    def test_the_check_names_the_first_break_and_its_eigenvalue(self, kind, breaks, c):
        rho1, rho2 = planted_break(kind, breaks)
        k = min(breaks)
        (check,) = _broken_orderings(range(7), (rho2, rho1, c, "rho2_n <= rho1_n"))
        lam = float(rho1(k).sub(rho2(k).scale(c)).eigenvalues()[-1])
        assert lam < 0.0 and check.slack == lam and not check.passed
        assert check.name == "PSD domination rho2_n <= rho1_n"
        assert check.detail == f"fails at n = {k}: most negative eigenvalue {lam:.3e}"
        assert _broken_orderings(range(7), (rho1, rho1, c, "rho1_n <= rho1_n")) == ()

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_break_at_a_member_makes_domination_inconclusive(self, kind):
        rho1, rho2 = planted_break(kind, {3})
        sigma1 = sequence([0.3, 0.3, 0.4], [0.01, 0.01, -0.02], kind)
        sigma2 = OperatorSequence(lambda n: sigma1(n).scale(2.0), 3)
        verdict = relative_entropy_domination(rho1, rho2, sigma1, sigma2, n_max=6)
        assert verdict.status == "inconclusive"
        limit, dom = verdict.hypothesis_checks
        assert limit.passed and not dom.passed and dom.detail.startswith("fails at n = 3:")
        assert dom.slack == float(rho1(3).sub(rho2(3)).eigenvalues()[-1])

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_break_only_at_the_limit_stays_a_limit_check(self, kind):
        # rho2_0 puts mass where rho1_0 and sigma2_0 have none; every member n >= 1 is ordered
        rho1 = sequence([0.5, 0.3, 0.0], [0.02, -0.01, 0.05], kind)
        sigma1 = sequence([0.3, 0.3, 0.0], [0.01, -0.01, 0.05], kind)
        rho2 = OperatorSequence(lambda n: positive([0.25, 0.15, 0.05], kind) if n == 0 else rho1(n).scale(0.5), 3)
        sigma2 = OperatorSequence(lambda n: sigma1(n).scale(2.0), 3)
        verdict = relative_entropy_domination(rho1, rho2, sigma1, sigma2, n_max=8)
        assert [c.name for c in verdict.hypothesis_checks if not c.passed] == [
            "orderings hold at the declared limit", "conclusion finite where domination guarantees it"]
        assert verdict.status == "violated"


TOL_AT_ONE = PSD_REL_TOL * 1.0 + 1e-15  # the rule's tolerance when lambda_max = 1
TOL_AT_ZERO = 1e-15  # and when lambda_max <= 0


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("top, tol", [(1.0, TOL_AT_ONE), (0.0, TOL_AT_ZERO)])
@pytest.mark.parametrize("factor, inside", [(0.9, True), (1.1, False)])
def test_constructor_and_is_psd_agree_at_the_boundary(kind, top, tol, factor, inside):
    h = hermitian([top, 0.5 * top, -factor * tol], kind)
    assert is_psd(h) is inside
    if not inside:
        with pytest.raises(ValueError, match="not PSD"):
            PositiveOperator.of(h)
        return
    op = PositiveOperator.of(h)
    assert op.is_diagonal == (kind == "diagonal")
    assert np.all(op.eigenvalues() >= 0.0)
    if kind == "diagonal":
        # a diagonal positive operator stores its diagonal clamped at 0
        assert op.diag.tolist() == [top, 0.5 * top, 0.0]


def test_positive_arithmetic_reads_the_clamped_diagonal():
    rho = PositiveOperator(diagonal=[0.5, -1e-11])
    assert rho.diag.tolist() == [0.5, 0.0]
    assert rho.trace() == 0.5
    assert rho.scale(2.0).diag.tolist() == [1.0, 0.0]
    assert rho.add(rho).diag.tolist() == [1.0, 0.0]


@pytest.mark.parametrize("value", [0.1, np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind, entry", [("diagonal", (1, 1)), ("dense", (1, 1)), ("dense", (0, 1))],
                         ids=["diagonal", "dense-on-diagonal", "dense-off-diagonal"])
def test_entry_points_agree_on_non_finite_entries(value, kind, entry):
    # diag(0.5, 0.5, 0.25) with one entry replaced; 0.1 is the finite control
    m = np.diag([0.5, 0.5, 0.25]).astype(complex)
    m[entry] = value
    finite = bool(np.isfinite(value))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # symmetrizing an infinite entry makes a NaN part, silently
        h = HermitianOperator(diagonal=np.real(np.diagonal(m))) if kind == "diagonal" else HermitianOperator(m)
        assert is_psd(h) is finite
        if finite:
            PositiveOperator.of(h)
            positive_eigenvalues(np.stack([np.eye(3), m]))
            return
        with pytest.raises(ValueError, match=f"not PSD: non-finite entry {value}" if kind == "diagonal"
                           else "not PSD: non-finite entry"):
            PositiveOperator.of(h)
        if kind == "dense":
            # the error names the entry as given, not as symmetrized
            with pytest.raises(ValueError, match=re.escape(f"not PSD: non-finite entry {m[entry]}")):
                PositiveOperator(m)
        with pytest.raises(ValueError, match=re.escape(f"not PSD: non-finite entry {m[entry]}")):
            positive_eigenvalues(np.stack([np.eye(3), m]))


def test_scale_by_one_is_the_operator_itself():
    for op in (PositiveOperator(diagonal=[0.5, 0.25]), PositiveOperator(np.array([[0.5, 0.1], [0.1, 0.25]]))):
        assert op.scale(1.0) is op
        assert op.scale(0.5) is not op


def _dense_dominated_pair(d: int, n_max: int):
    """rho_n and tau_n = rho_n / 2 + sigma_n, dense, with every member built."""
    rng = np.random.default_rng(5)
    u, w = random_unitary(rng, d), random_unitary(rng, d)
    eps = rng.uniform(-0.1, 0.1, d)

    def spectrum(ratio, pert, n):
        lam = ratio ** np.arange(d) * (1.0 + (0.5 ** n if n else 0.0) * pert)
        return lam / lam.sum()

    def rho_n(n):
        return PositiveOperator((u * spectrum(0.7, eps, n)) @ u.conj().T)

    def tau_n(n):
        sigma = (w * (0.3 * spectrum(0.6, eps[::-1], n))) @ w.conj().T
        return PositiveOperator(0.5 * rho(n).matrix + sigma)

    rho = OperatorSequence(rho_n, d)
    tau = OperatorSequence(tau_n, d)
    for n in range(n_max + 1):
        rho(n), tau(n)
    return rho, tau


def test_dense_guards_solve_once_per_ordering(eigensolves):
    n_max = 6
    rho, tau = _dense_dominated_pair(6, n_max)
    eigensolves.clear()
    check_dct_simon(entropy_family(), rho, tau, 0.5, n_max, 3)
    # the guard c rho_n <= tau_n is the only eigvalsh, one stacked call for the window:
    # the members' spectra are cached
    assert eigensolves["eigvalsh"] == 1


def test_dense_dominated_cell_costs_three_eigvalsh_and_one_eigh(eigensolves):
    n_max, m_max = 6, 6
    rho, tau = _dense_dominated_pair(6, n_max)
    scheme = ApproximationScheme("dominated", 0.5, rho)
    eigensolves.clear()  # the members are built; the grid builds the limit sigma_0 itself, inside the count
    grid = approximation_gap_grid(entropy_family(), tau, scheme, n_max, m_max)
    cells = len(grid.cells)
    assert cells == (n_max + 1) * m_max
    # sigma_n = tau_n - c rho_n once, then the head and tail sums; sigma_n's eigenvectors
    assert eigensolves["eigvalsh"] <= 3 * cells
    assert eigensolves["eigh"] <= cells


def _eigensolver_calls(tree: ast.AST) -> list:
    """Line numbers of np.linalg.eigh / eigvalsh references, or of their import from numpy.linalg."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ("eigh", "eigvalsh")
                and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            if any(alias.name in ("eigh", "eigvalsh") for alias in node.names):
                lines.append(node.lineno)
    return lines


def test_only_operators_calls_the_eigensolvers():
    package = Path(qdini.__file__).parent
    offenders = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.name == "operators.py":
            # there only _eigh and _eigvalsh call them, so every solver failure is converted in one place
            solvers = [node for node in tree.body
                       if isinstance(node, ast.FunctionDef) and node.name in ("_eigh", "_eigvalsh")]
            assert len(solvers) == 2 and all(_eigensolver_calls(node) for node in solvers)
            inside = {line for node in solvers for line in _eigensolver_calls(node)}
            lines = [line for line in _eigensolver_calls(tree) if line not in inside]
        else:
            lines = _eigensolver_calls(tree)
        if lines:
            offenders[path.name] = lines
    assert offenders == {}


def test_the_structural_check_sees_a_call():
    assert _eigensolver_calls(ast.parse("import numpy as np\nnp.linalg.eigvalsh(m)\n")) == [2]
    assert _eigensolver_calls(ast.parse("from numpy.linalg import eigh\n")) == [1]


def _broad_handlers(tree: ast.AST) -> list:
    """Line numbers of bare ``except:`` handlers and of those that name Exception or BaseException, alone or in a tuple."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(t is None or (isinstance(t, ast.Name) and t.id in ("Exception", "BaseException")) for t in caught):
                lines.append(node.lineno)
    return lines


def test_no_module_catches_every_exception():
    # one failure policy: an input's ValueError crosses to the scenario boundary,
    # and no handler in the library swallows or replays a failure of any type
    package = Path(qdini.__file__).parent
    offenders = {path.name: _broad_handlers(ast.parse(path.read_text())) for path in sorted(package.glob("*.py"))}
    assert {name: lines for name, lines in offenders.items() if lines} == {}


def test_the_handler_check_sees_broad_handlers():
    source = ("try:\n    f()\nexcept:\n    pass\ntry:\n    f()\nexcept Exception:\n    pass\n"
              "try:\n    f()\nexcept (KeyError, BaseException):\n    pass\ntry:\n    f()\nexcept ValueError:\n    pass\n")
    assert _broad_handlers(ast.parse(source)) == [3, 7, 11]
