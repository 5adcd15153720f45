import copy
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdini.extreal import INFINITY, ExtendedReal, finite
from qdini import (
    DensityOperator,
    HermitianOperator,
    PositiveOperator,
    Projector,
    apply_spectral_function,
    coordinate_projector,
    default_rank_tol,
    dense_materialization_count,
    eigh,
    identity,
    moore_penrose_inverse,
    operator_from_json,
    operator_to_json,
    partial_trace,
    purify,
    support_projector,
    trace_norm_distance,
)
from qdini.operators import GAP_REL_TOL, LinearAlgebraError, _canonical_phase, _eigh, solve_bases
from qdini.scenarios import random_unitary
from qdini.truncation import normalize


class TestExtendedReal:
    def test_rejects_nan_and_negative_infinity(self):
        with pytest.raises(ValueError):
            ExtendedReal(float("nan"))
        with pytest.raises(ValueError):
            ExtendedReal(float("-inf"))

    def test_infinity_absorbs_addition(self):
        assert (INFINITY + finite(3.0)).is_inf
        assert (finite(2.0) + finite(3.0)) == finite(5.0)

    def test_undefined_subtractions_raise(self):
        with pytest.raises(ArithmeticError):
            INFINITY - INFINITY
        with pytest.raises(ArithmeticError):
            finite(1.0) - INFINITY

    def test_inf_times_zero_is_zero(self):
        assert float(INFINITY * 0.0) == 0.0

    def test_ordering(self):
        assert finite(1.0) < INFINITY
        assert not INFINITY < INFINITY
        assert finite(-2.0) < finite(0.0)

    def test_is_an_immutable_value(self):
        x = ExtendedReal(value=np.float64(2.5))
        assert type(x.value) is float and x == ExtendedReal(2.5) and x != ExtendedReal(3.0)
        assert hash(x) == hash(ExtendedReal(2.5)) and len({x, ExtendedReal(2.5), INFINITY}) == 2
        assert x != 2.5 and repr(x) == "ExtendedReal(2.5)" and repr(INFINITY) == "ExtendedReal(+inf)"
        with pytest.raises(AttributeError):
            x.value = 3.0
        with pytest.raises(AttributeError):
            del x.value
        with pytest.raises(AttributeError):
            x.other = 1.0
        assert x.value == 2.5
        assert copy.copy(x) == x and copy.deepcopy(INFINITY).is_inf and pickle.loads(pickle.dumps(x)) == x


class TestConstruction:
    def test_non_hermitian_input_is_symmetrized(self):
        m = np.array([[1.0, 2.0], [0.0, 3.0]])
        h = HermitianOperator(m)
        assert np.allclose(h.matrix, 0.5 * (m + m.T))

    def test_psd_rejects_negative_spectrum(self):
        with pytest.raises(ValueError):
            PositiveOperator(np.diag([1.0, -0.1]))
        with pytest.raises(ValueError):
            PositiveOperator(diagonal=[1.0, -0.1])

    def test_psd_tolerates_tiny_negative(self):
        PositiveOperator(diagonal=[1.0, -1e-13])

    def test_density_trace_check(self):
        with pytest.raises(ValueError):
            DensityOperator(diagonal=[0.6, 0.6])
        DensityOperator(diagonal=[0.5, 0.5])

    def test_projector_idempotence_check(self):
        with pytest.raises(ValueError):
            Projector(np.array([[0.5, 0.0], [0.0, 1.0]]))
        p = coordinate_projector(3, [0, 2])
        assert p.rank == 2
        assert p.complement().rank == 1

    def test_coordinate_projector_reads_indices_once(self):
        p = coordinate_projector(4, iter([0, 1]))
        assert p.rank == 2
        assert np.array_equal(p.diag, [1.0, 1.0, 0.0, 0.0])

    def test_trace_is_summed_once_on_every_constructor(self, monkeypatch):
        rng = np.random.default_rng(7)
        rho = _random_density(rng, 4)
        ops = [
            HermitianOperator(rho.matrix),
            PositiveOperator(diagonal=[0.5, 0.2, 0.0]),
            rho,
            rho.rescaled(0.5),                         # PositiveOperator._with_spectrum
            support_projector(rho),                    # dense Projector
            support_projector(rho).complement(),
        ]
        ops += list(rho.split(2)) + [moore_penrose_inverse(rho), purify(rho)]  # the other spectral views
        firsts = [op.trace() for op in ops]
        assert firsts == [float(np.sum(op.diag)) for op in ops]

        def no_read(op):
            raise AssertionError("trace() read the diagonal again")

        monkeypatch.setattr(HermitianOperator, "diag", property(no_read))
        with pytest.raises(AssertionError, match="read the diagonal again"):
            HermitianOperator(diagonal=[1.0]).trace()  # the hook sees every first read
        assert [op.trace() for op in ops] == firsts

    def test_projector_leq(self):
        p1 = coordinate_projector(3, [0])
        p2 = coordinate_projector(3, [0, 1])
        assert p1.leq(p2)
        assert not p2.leq(p1)


class TestEigh:
    def test_eigenvalues_descending_and_reconstruction(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = HermitianOperator(z @ z.conj().T)
        dec = eigh(h)
        assert np.all(np.diff(dec.eigenvalues) <= 1e-12)
        v = dec.eigenvectors
        assert np.allclose((v * dec.eigenvalues) @ v.conj().T, h.matrix, atol=1e-10)

    def test_deterministic_on_repeats(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        a = eigh(HermitianOperator(m))
        b = eigh(HermitianOperator(m))
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_multiplicity_groups(self):
        dec = eigh(HermitianOperator(diagonal=[3.0, 3.0, 1.0]))
        assert dec.multiplicity_groups == [(0, 2), (2, 3)]

    def test_diagonal_path_avoids_dense(self):
        before = dense_materialization_count()
        eigh(HermitianOperator(diagonal=np.linspace(1, 2, 50)))
        assert dense_materialization_count() == before

    def test_canonical_phase_matches_column_loop(self):
        rng = np.random.default_rng(6)
        for trial in range(200):
            d = int(rng.integers(2, 33))
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            if trial % 3 == 0:
                # leading rows near zero push the pivot down the column
                z[: d // 2] = 1e-13 * rng.standard_normal((d // 2, d))
            _, v = np.linalg.eigh(z + z.conj().T)
            v = v[:, ::-1]
            assert np.array_equal(_canonical_phase(v[None])[0], _canonical_phase_loop(v))

    def test_canonical_phase_matches_column_loop_on_a_split_pivot(self):
        # the 'ties' member after three 'zero-leading' ones (seed 0, d = 4): one
        # pivot's phase rounds apart in the last bit as a scalar and an array division
        rng = np.random.default_rng(0)
        member = [_stack_member(rng, 4, case) for case in ("zero-leading",) * 3 + ("ties",)][-1]
        _, v = np.linalg.eigh(member)
        v = v[:, ::-1]
        assert np.array_equal(_canonical_phase(v[None])[0], _canonical_phase_loop(v))


def _canonical_phase_loop(vectors):
    """Reference: rotate each column so its first component above 1e-12 is positive real.

    The pivot stays a 1-element array: numpy's complex scalar and array
    divisions can round apart in the last bit, and ``_canonical_phase``
    divides arrays.
    """
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size:
            pivot = col[nz[:1]]
            out[:, j] = col * (np.conj(pivot) / np.abs(pivot))
    return out


MEMBER_CASES = ("generic", "ties", "rank-deficient", "zero-leading")


@st.composite
def hermitian_stacks(draw):
    """(dims, cases, seed) of a stack of 1-9 Hermitian matrices with d <= 8, in at most two dimensions."""
    dims = st.sampled_from(sorted({draw(st.integers(1, 8)), draw(st.integers(1, 8))}))
    k = draw(st.integers(1, 9))
    return (draw(st.lists(dims, min_size=k, max_size=k)),
            draw(st.lists(st.sampled_from(MEMBER_CASES), min_size=k, max_size=k)),
            draw(st.integers(0, 2 ** 16)))


def _stack_member(rng, d, case):
    """A d x d positive matrix of one case.

    ``ties`` plants a pair of values GAP_REL_TOL apart relative to the top
    and an exact double value; ``rank-deficient`` zeroes half the values;
    ``zero-leading`` makes the eigenvectors of the lower block vanish on
    the leading coordinates, so their phase pivot moves down the column.
    """
    lam = rng.uniform(0.1, 1.0, d)
    u = random_unitary(rng, d)
    if case == "ties":
        lam[1:] = np.minimum(lam[1:], lam[0])
        if d > 1:
            lam[1] = lam[0] * (1.0 - GAP_REL_TOL)
        if d > 3:
            lam[3] = lam[2]
    elif case == "rank-deficient":
        lam[d // 2:] = 0.0
    elif case == "zero-leading":
        h = d // 2
        u = np.eye(d, dtype=complex)
        u[h:, h:] = random_unitary(rng, d - h)
    return (u * lam) @ u.conj().T


@settings(max_examples=150, deadline=None)
@given(hermitian_stacks())
def test_stacked_solve_equals_solving_each_member_alone(stack):
    """One eigensolve per dimension, bitwise equal to one eigensolve per member."""
    dims, cases, seed = stack
    rng = np.random.default_rng(seed)
    members = [_stack_member(rng, d, case) for d, case in zip(dims, cases)]
    for d in set(dims):
        group = np.stack([m for m in members if m.shape[0] == d])
        values, vectors = _eigh(group)
        for m, w, v in zip(group, values, vectors):
            w_alone, v_alone = _eigh(m[None])
            assert np.array_equal(w, w_alone[0]) and np.array_equal(v, v_alone[0])
            w_np, v_np = np.linalg.eigh(m)
            assert np.array_equal(w, w_np[::-1]) and np.array_equal(v, _canonical_phase_loop(v_np[:, ::-1]))
    together = [PositiveOperator(m) for m in members]
    views = [op.spectrum().scaled(2.0) for op in together]  # each resolves through its parent
    solve_bases(views + [op.spectrum() for op in together[::2]])
    for m, op, view in zip(members, together, views):
        alone = PositiveOperator(m).spectrum().basis
        assert np.array_equal(op.spectrum().basis, alone) and view.basis is op.spectrum().basis


def test_stacked_solve_counts_one_eigh_per_dimension(eigensolves):
    rng = np.random.default_rng(3)
    ops = [PositiveOperator(_stack_member(rng, d, "generic")) for d in (3, 4, 3, 4, 3)]
    eigensolves.clear()
    solve_bases([op.spectrum() for op in ops])
    assert eigensolves == {"eigh": 2}
    solve_bases([op.spectrum() for op in ops])
    assert eigensolves == {"eigh": 2}


def test_stack_failure_names_the_failing_member(monkeypatch):
    """numpy's eigh fails on every stack of several members here, and on any member with an entry above 100."""
    rng = np.random.default_rng(4)
    members = [_stack_member(rng, 3, "generic") for _ in range(3)]
    solved = _eigh(np.stack(members))
    solver = np.linalg.eigh

    def failing(matrices):
        if len(matrices) > 1 or np.any(np.abs(matrices) > 100.0):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return solver(matrices)

    monkeypatch.setattr(np.linalg, "eigh", failing)
    # every member solves alone: the stack is solved member by member, to the same result
    values, vectors = _eigh(np.stack(members))
    assert np.array_equal(values, solved[0]) and np.array_equal(vectors, solved[1])
    members[1] = members[1] * 1e3
    norm = float(np.linalg.norm(members[1]))
    with pytest.raises(LinearAlgebraError, match=re.escape(f"eigensolver failed for dim-3 operator (frobenius norm {norm:.3e})")):
        solve_bases([PositiveOperator(m).spectrum() for m in members])


def _views(parent):
    """The spectral views of ``parent``: rescaled, pseudoinverse, rebuilt from its spectrum,
    both parts of every split below the rank, and, unless it vanishes, normalized and purified."""
    spec = parent.spectrum()
    views = [parent.rescaled(0.5), parent.rescaled(0.0), moore_penrose_inverse(parent), spec.operator()]
    for k in range(spec.rank):
        views += parent.split(k)
    if not parent.vanishes():
        state = normalize(parent)
        views += [state, purify(state)]
    return views


@settings(max_examples=60, deadline=None)
@given(hermitian_stacks())
def test_views_hold_fresh_exactly_hermitian_data(stack):
    """A view stores its data as given, so that data must be exactly Hermitian and shared with nothing."""
    dims, cases, seed = stack
    rng = np.random.default_rng(seed)
    for d, case in zip(dims, cases):
        member = _stack_member(rng, d, case)
        diagonal = member.diagonal().real.copy()
        for given_data, parent in ((member, PositiveOperator(member)), (diagonal, PositiveOperator(diagonal=diagonal))):
            spec = parent.spectrum()
            held = [given_data, parent._mat if parent._mat is not None else parent._diag, spec.values, spec.basis]
            views = _views(parent)
            data = [view._diag if view.is_diagonal else view._mat for view in views]
            for view, m in zip(views, data):
                if view.is_diagonal:
                    assert m.dtype == float and m.ndim == 1 and (m >= 0.0).all()
                else:
                    assert np.array_equal(m, m.conj().T)
                assert not any(np.shares_memory(m, a) for a in held)
            for i, m in enumerate(data):
                assert not any(np.shares_memory(m, other) for other in data[i + 1:])


class TestSpectralCalculus:
    def test_apply_spectral_function_matches_scalar(self):
        rho = PositiveOperator(diagonal=[4.0, 1.0, 0.0])
        sq = apply_spectral_function(rho, math.sqrt)
        assert np.allclose(sq.diag, [2.0, 1.0, 0.0])

    def test_apply_spectral_function_rejects_nonfinite(self):
        rho = PositiveOperator(diagonal=[1.0, 0.0])
        with pytest.raises(Exception):
            apply_spectral_function(rho, lambda x: math.log(x))

    def test_moore_penrose_inverse_on_support(self):
        rho = PositiveOperator(diagonal=[2.0, 0.5, 0.0])
        inv = moore_penrose_inverse(rho)
        assert np.allclose(inv.diag, [0.5, 2.0, 0.0])

    def test_moore_penrose_dense_oracle(self):
        rng = np.random.default_rng(1)
        v = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        lam = np.array([2.0, 1.0, 0.5, 0.0])
        rho = PositiveOperator((v * lam) @ v.T)
        inv = moore_penrose_inverse(rho)
        expect = np.linalg.pinv(rho.matrix, rcond=1e-12)
        assert np.allclose(inv.matrix, expect, atol=1e-10)

    def test_support_projector_rank(self):
        rho = PositiveOperator(diagonal=[1.0, 1e-20, 0.0])
        assert support_projector(rho).rank == 1


class TestTensorAndPartialTrace:
    def test_partial_trace_of_product(self):
        rng = np.random.default_rng(2)
        a = _random_density(rng, 3)
        b = _random_density(rng, 2)
        ab = PositiveOperator(np.kron(a.matrix, b.matrix))
        red_a = partial_trace(ab, "A", 3, 2)
        red_b = partial_trace(ab, "B", 3, 2)
        assert np.allclose(red_a.matrix, a.matrix, atol=1e-12)
        assert np.allclose(red_b.matrix, b.matrix, atol=1e-12)

    def test_partial_trace_preserves_trace(self):
        rng = np.random.default_rng(3)
        rho = _random_density(rng, 6)
        red = partial_trace(rho, "A", 2, 3)
        assert abs(red.trace() - 1.0) < 1e-12


class TestPurify:
    def test_reduced_state_recovers_input(self):
        rng = np.random.default_rng(4)
        rho = _random_density(rng, 4)
        psi = purify(rho)
        r = psi.dim // 4
        red = partial_trace(psi, "A", 4, r)
        assert np.allclose(red.matrix, rho.matrix, atol=1e-10)

    def test_minimal_environment(self):
        rho = DensityOperator(diagonal=[0.5, 0.5, 0.0])
        psi = purify(rho)
        assert psi.dim == 3 * 2  # environment dimension equals rank


class TestMetricsAndJson:
    def test_trace_norm_distance_oracle(self):
        a = HermitianOperator(diagonal=[1.0, 0.0])
        b = HermitianOperator(diagonal=[0.0, 1.0])
        assert abs(trace_norm_distance(a, b) - 2.0) < 1e-14

    def test_json_round_trip_dense(self):
        rng = np.random.default_rng(5)
        rho = _random_density(rng, 3)
        back = operator_from_json(operator_to_json(rho), DensityOperator)
        assert np.allclose(back.matrix, rho.matrix, atol=1e-15)

    def test_json_round_trip_diagonal(self):
        rho = PositiveOperator(diagonal=[0.25, 0.75])
        obj = operator_to_json(rho)
        assert "diag" in obj
        back = operator_from_json(obj, PositiveOperator)
        assert back.is_diagonal

    def test_json_dim_mismatch(self):
        with pytest.raises(ValueError):
            operator_from_json({"dim": 3, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]})

    def test_rank_tolerance_scales(self):
        assert default_rank_tol(10, 2.0) == 10 * 1e-14 * 2.0
        assert identity(3).rank == 3


def _random_density(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = z @ z.conj().T
    return DensityOperator(m / np.trace(m).real)
