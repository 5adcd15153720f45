"""Dense Hermitian linear algebra with a diagonal fast path.

Operators are immutable after construction.  Diagonal operators store only
their diagonal; spectral operations on them never build the dense matrix,
which keeps large diagonal scenario states cheap.  Materializing the dense
matrix of a diagonal operator is tracked so scenarios can assert the fast
path was never left.

Every positive operator is decomposed at most once.  Its ``Spectrum`` holds
the clamped non-increasing eigenvalues, the rank and gap tolerances, the
multiplicity groups and the basis, and every functional, truncation and
check reads it.  A dense operator keeps the eigenvalues its PSD validation
computes and solves for eigenvectors only when they are read: one basis on
first request, or every pending basis of a window at once through
``solve_bases``, one stacked eigensolve per dimension, bitwise the same as
solving each alone.  A diagonal operator sorts its diagonal on first
spectral read.  Truncation heads and tails, rescaled and normalized
states and pseudoinverses are spectral views of their parent: they carry
a spectrum derived from the parent's and cost no eigensolve.
``PositiveOperator._with_spectrum`` is the one constructor of views.  Its
data is freshly allocated, shares memory with no parent or caller, and is
exactly Hermitian (a composed V diag(lambda) V* is symmetrized once, as it
rounds apart from its adjoint), so a view is never re-wrapped: it is not copied,
symmetrized or validated again.  ``PositiveOperator.split`` is the one cut
of a spectrum into a head and a tail: both read the kept values, and a cut
at or past the rank leaves the operator itself and a zero tail.  A
projector cut from a dense spectrum is built and checked at once, like any
other projector.

One PSD rule decides positivity, and this is the only module that calls
numpy's eigensolvers.  ``PositiveOperator`` enforces the rule,
``PositiveOperator.of`` turns a Hermitian result (a difference, a partial
trace) into a checked positive operator, and ``is_psd`` answers the same
question without building one.  ``ordering_slacks`` answers it for the
differences upper_n - c lower_n of a whole window of orderings in one
call, and ``positive_eigenvalues`` applies the rule
to a whole stack of matrices with one eigensolve, for the window
functionals that need many small spectra and no operators.
``positive_diagonal`` applies it to one diagonal, and
``diagonal_spectra`` sorts a stack of diagonals as
``PositiveOperator.spectrum`` sorts each, with one stable argsort; neither
builds an operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PSD_REL_TOL = 1e-10
TRACE_ONE_TOL = 1e-10
GAP_REL_TOL = 1e-9
RANK_REL_TOL = 1e-14  # per dimension, relative to the largest eigenvalue
PROJECTOR_TOL = 1e-10


class LinearAlgebraError(Exception):
    """Raised on eigensolver failures and ill-posed spectral calls."""


# Count of dense materializations of diagonal operators; scenarios with
# diagonal states assert this stays constant across a run.
_DENSE_MATERIALIZATIONS = 0


def dense_materialization_count() -> int:
    return _DENSE_MATERIALIZATIONS


class HermitianOperator:
    """A d x d Hermitian matrix, symmetrized at construction."""

    __slots__ = ("dim", "is_diagonal", "_diag", "_mat", "_trace")

    def __init__(self, matrix=None, *, diagonal=None):
        if (matrix is None) == (diagonal is None):
            raise ValueError("provide exactly one of matrix= or diagonal=")
        if diagonal is not None:
            d = np.asarray(diagonal, dtype=float).copy()
            if d.ndim != 1 or d.size == 0:
                raise ValueError("diagonal must be a nonempty 1-d array")
            self.dim = int(d.size)
            self.is_diagonal = True
            self._diag = d
            self._mat = None
        else:
            m = np.asarray(matrix, dtype=complex)
            if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
                raise ValueError(f"matrix must be square and nonempty, got shape {m.shape}")
            with np.errstate(invalid="ignore"):  # an infinite entry symmetrizes to a NaN part, refused later
                m = _hermitian_part(m)
            self.dim = int(m.shape[0])
            self.is_diagonal = False
            self._diag = None
            self._mat = m
        self._trace = None

    @property
    def matrix(self) -> np.ndarray:
        global _DENSE_MATERIALIZATIONS
        if self._mat is None:
            _DENSE_MATERIALIZATIONS += 1
            self._mat = np.diag(self._diag).astype(complex)
        return self._mat

    @property
    def diag(self) -> np.ndarray:
        """Real diagonal entries (works for dense operators too)."""
        if self.is_diagonal:
            return self._diag
        return np.real(np.diagonal(self.matrix))

    def trace(self) -> float:
        """Sum of the diagonal, computed on first call: operators are immutable."""
        if self._trace is None:
            self._trace = float(self.diag.sum())
        return self._trace

    def operator_norm(self) -> float:
        if self.is_diagonal:
            return float(np.abs(self._diag).max())
        return float(np.max(np.abs(_eigvalsh(self.matrix))))

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in non-increasing order."""
        if self.is_diagonal:
            return np.sort(self._diag)[::-1].copy()
        return _eigvalsh(self.matrix)[::-1].copy()

    def add(self, other: "HermitianOperator") -> "HermitianOperator":
        self._check_dim(other)
        if self.is_diagonal and other.is_diagonal:
            return HermitianOperator(diagonal=self._diag + other._diag)
        return HermitianOperator(self.matrix + other.matrix)

    def sub(self, other: "HermitianOperator") -> "HermitianOperator":
        self._check_dim(other)
        if self.is_diagonal and other.is_diagonal:
            return HermitianOperator(diagonal=self._diag - other._diag)
        return HermitianOperator(self.matrix - other.matrix)

    def scale(self, c: float) -> "HermitianOperator":
        if self.is_diagonal:
            return HermitianOperator(diagonal=c * self._diag)
        return HermitianOperator(c * self.matrix)

    def _check_dim(self, other: "HermitianOperator"):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __repr__(self):
        kind = "diagonal" if self.is_diagonal else "dense"
        return f"<{type(self).__name__} dim={self.dim} {kind}>"


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M*) / 2 over the last two axes: an exactly Hermitian fresh array, or a stack of them."""
    return 0.5 * (m + np.swapaxes(m, -1, -2).conj())


def default_rank_tol(dim: int, lam_max: float) -> float:
    return dim * RANK_REL_TOL * max(lam_max, 0.0)


def default_rank_tols(dim: int, lam_max: np.ndarray) -> np.ndarray:
    """``default_rank_tol`` elementwise."""
    return dim * RANK_REL_TOL * np.maximum(lam_max, 0.0)


class Spectrum:
    """Eigenvalues of a positive operator, clamped at 0 and non-increasing, with their basis.

    ``rank`` counts the values above ``rank_tol``; ``kept()`` sets the
    others to 0.  ``group_ends`` of the kept values decides the multiplicity
    groups and the stable indices.  ``basis`` pairs ``values[i]`` with column i of a
    unitary (dense) or with coordinate ``basis[i]`` (diagonal, where the
    basis is the stable argsort permutation).  A dense basis is solved for
    once, on first request or with the other pending bases of a window
    (``solve_bases``), checked for orthonormality, and shared with every
    spectrum scaled from this one.  All arrays are read-only.
    """

    __slots__ = ("values", "diagonal", "rank_tol", "gap_tol", "rank", "_basis", "_source")

    def __init__(self, values, *, diagonal: bool, basis=None, source=None):
        values = np.asarray(values, dtype=float)
        values.flags.writeable = False
        top = float(values[0])
        self.values = values
        self.diagonal = diagonal
        self.rank_tol = default_rank_tol(values.size, top)
        self.gap_tol = GAP_REL_TOL * top
        self.rank = int(np.count_nonzero(values > self.rank_tol))
        if basis is not None:
            basis.flags.writeable = False
        self._basis = basis
        self._source = source  # matrix to diagonalize, or the spectrum whose basis this shares

    @property
    def basis(self) -> np.ndarray:
        if self._basis is None:
            solve_bases([self])
        return self._basis

    @property
    def stable(self) -> np.ndarray:
        """Whether each cut m = i + 1 is a stable index: a multiplicity group ends at i, or i is past the rank."""
        return group_ends(self.kept(), self.gap_tol) | (np.arange(self.values.size) >= self.rank)

    @property
    def multiplicity_groups(self) -> list:
        """(start, stop) index ranges of the multiplicity groups of the kept values."""
        return _groups(self.kept(), self.gap_tol)

    def kept(self) -> np.ndarray:
        """The values with those at or below the rank tolerance set to 0."""
        out = self.values.copy()
        out[self.rank:] = 0.0
        return out

    def vectors(self) -> np.ndarray:
        """The basis as the columns of a dense unitary."""
        basis = self.basis
        if not self.diagonal:
            return basis
        vec = np.zeros((basis.size, basis.size), dtype=complex)
        vec[basis, np.arange(basis.size)] = 1.0
        return vec

    def weights(self, a: HermitianOperator) -> np.ndarray:
        """<v_i|a|v_i> for every basis vector, in the order of the values."""
        basis = self.basis
        if self.diagonal:
            return a.diag[basis]
        if a.is_diagonal:
            return a.diag @ np.abs(basis) ** 2
        return np.real(np.sum(basis.conj() * (a.matrix @ basis), axis=0))

    def compose(self, vals) -> np.ndarray:
        """sum_i vals[i] |v_i><v_i|: the diagonal (diagonal basis) or the dense matrix."""
        basis = self.basis
        vals = np.asarray(vals, dtype=float)
        if self.diagonal:
            out = np.zeros(basis.size)
            out[basis] = vals
            return out
        nonzero = np.flatnonzero(vals)
        k = int(nonzero[-1]) + 1 if nonzero.size else 0
        v = basis[:, :k]
        return (v * vals[:k]) @ v.conj().T

    def scaled(self, c: float) -> "Spectrum":
        """The spectrum of c times the operator (c >= 0), sharing this basis."""
        if self._basis is not None:
            return Spectrum(self.values * c, diagonal=self.diagonal, basis=self._basis)
        return Spectrum(self.values * c, diagonal=self.diagonal, source=self)

    def reordered(self, values, order=None) -> "Spectrum":
        """Non-increasing ``values`` paired with this basis, its vectors taken in ``order``."""
        basis = self.basis
        if order is not None:
            basis = basis[order] if self.diagonal else basis[:, order]
        return Spectrum(values, diagonal=self.diagonal, basis=basis)

    def operator(self) -> "PositiveOperator":
        """The positive operator with this spectrum; no eigensolve."""
        data = self.compose(self.values)
        if self.diagonal:
            return PositiveOperator._with_spectrum(self, diagonal=data)
        # V diag(lambda) V* rounds apart from its adjoint
        return PositiveOperator._with_spectrum(self, matrix=_hermitian_part(data))

    def projector(self, k: int) -> "Projector":
        """Projector onto the first k basis vectors, checked as it is built."""
        if not self.diagonal:
            v = self.basis[:, :k]
            return Projector(v @ v.conj().T, rank=k)
        d = np.zeros(self.values.size)
        d[self.basis[:k]] = 1.0
        return Projector(diagonal=d, rank=k)


def dense_overlaps(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """|<v_j|w_i>|^2 at [..., j, i] for the columns v_j of v and w_i of w: two dense bases, or two stacks of them."""
    return np.abs(np.swapaxes(v.conj(), -1, -2) @ w) ** 2


def solve_bases(spectra) -> None:
    """Solve the pending dense bases of ``spectra`` together: one eigensolve per dimension.

    A spectrum scaled from another reads its parent's basis, so the parent
    is solved once for all its views.  Solved and diagonal bases are left
    as they are; a window reader calls this on all its spectra before it
    reads any basis.
    """
    roots = []
    for spec in spectra:
        root = spec
        while root._basis is None and isinstance(root._source, Spectrum):
            root = root._source
        roots.append(root)
    pending = {}
    for root in roots:
        if root._basis is None:
            pending.setdefault(root.values.size, {})[id(root)] = root
    for group in pending.values():
        members = list(group.values())
        _, bases = _solve(np.stack([root._source for root in members]))
        bases.flags.writeable = False
        for root, basis in zip(members, bases):
            root._basis, root._source = basis, None
    for spec, root in zip(spectra, roots):
        if spec._basis is None:
            spec._basis, spec._source = root._basis, None


def _solve(matrices: np.ndarray) -> tuple:
    """``_eigh`` of a stack of matrices, its eigenvectors checked by ``_check_orthonormal``."""
    values, vectors = _eigh(matrices)
    _check_orthonormal(vectors)
    return values, vectors


def _check_orthonormal(bases: np.ndarray):
    """||V*V - I||_F <= PROJECTOR_TOL / 2 for every solved eigenbasis V of a stack, else the solve is refused.

    Every spectral view, split and pseudoinverse reads V as a unitary
    without checking it again, so a basis that is not one would corrupt
    them silently.  The bound also keeps every prefix projector V_k V_k*
    inside the projector checks: with E = V*V - I and e = ||E||_F, each
    entry of P^2 - P = V_k E_kk V_k* is at most (1 + e) e < PROJECTOR_TOL,
    and Tr P - k = Tr E_kk is at most sqrt(k) e.  The first basis of the
    stack that fails is named.
    """
    d = bases.shape[2]
    err = np.linalg.norm((np.conj(bases).swapaxes(1, 2) @ bases - np.eye(d)).reshape(len(bases), -1), axis=1)
    failing = np.flatnonzero(err > PROJECTOR_TOL / 2)
    if failing.size:
        raise LinearAlgebraError(f"eigenvectors of a dim-{d} operator are not orthonormal: "
                                 f"||V*V - I||_F = {err[failing[0]]:.3e}")


def _extreme_eigenvalues(h: HermitianOperator):
    """(lambda_min, lambda_max, all eigenvalues ascending or None for a diagonal h); NaN for a dense h with a non-finite entry."""
    if h.is_diagonal:
        d = h._diag
        return float(d.min()), float(d.max()), None
    if not np.isfinite(h.matrix).all():  # LAPACK can return finite values for a NaN entry
        return math.nan, math.nan, None
    eigs = _eigvalsh(h.matrix)
    return float(eigs[0]), float(eigs[-1]), eigs


def _psd_tol(lam_max):
    """The tolerance of the PSD rule at lambda_max; elementwise on an array."""
    # max() on a float: np.maximum would cost a microsecond on every operator built
    top = np.maximum(lam_max, 0.0) if isinstance(lam_max, np.ndarray) else max(lam_max, 0.0)
    return PSD_REL_TOL * top + 1e-15


def _passes_psd(lam_min, lam_max):
    """The PSD rule, elementwise on arrays: lambda_min >= -_psd_tol(lambda_max) with lambda_max finite, so NaN and +inf fail."""
    if isinstance(lam_max, np.ndarray):
        return (lam_min >= -_psd_tol(lam_max)) & np.isfinite(lam_max)
    return lam_min >= -_psd_tol(lam_max) and math.isfinite(lam_max)


def _not_psd(lam_min: float, lam_max: float, entries: np.ndarray) -> ValueError:
    """The PSD rule's error: the first non-finite value of ``entries`` if there is one, else lambda_min."""
    bad = entries[~np.isfinite(entries)]
    if bad.size:
        return ValueError(f"operator is not PSD: non-finite entry {bad[0]}")
    return ValueError(f"operator is not PSD: min eigenvalue {lam_min:.3e} < -{_psd_tol(lam_max):.3e}")


def is_psd(h: HermitianOperator) -> bool:
    """Whether h passes the PSD rule of ``PositiveOperator``; builds no operator."""
    return _passes_psd(*_extreme_eigenvalues(h)[:2])


def ordering_slacks(uppers, lowers, c: float) -> tuple:
    """Whether c lowers[i] <= uppers[i] passes the PSD rule for each pair, and lambda_min of uppers[i] - c lowers[i]: one rule call.

    The differences are those of ``uppers[i].sub(lowers[i].scale(c))``
    and the rule that of ``is_psd``.  Pairs of diagonal operators read the
    row min and max of the stacked differences of their diagonals; the
    other pairs' symmetrized dense differences go through one stacked
    eigensolve, and a difference with a non-finite entry fails with NaN.
    """
    lam_min, lam_max = np.full(len(uppers), math.nan), np.full(len(uppers), math.nan)
    diagonal = np.array([u.is_diagonal and l.is_diagonal for u, l in zip(uppers, lowers)], dtype=bool)
    rows = np.flatnonzero(diagonal)
    if rows.size:
        diffs = np.array([uppers[i].diag for i in rows]) - np.array([lowers[i].diag for i in rows]) * c
        lam_min[rows], lam_max[rows] = diffs.min(axis=1), diffs.max(axis=1)
    rows = np.flatnonzero(~diagonal)
    if rows.size:
        diffs = np.array([uppers[i].matrix for i in rows]) - np.array([lowers[i].matrix for i in rows]) * c
        with np.errstate(invalid="ignore"):  # as in ``HermitianOperator``: a non-finite difference fails as NaN
            diffs = _hermitian_part(diffs)
        finite = np.isfinite(diffs).all(axis=(1, 2))
        if finite.any():
            eigs = _eigvalsh(diffs[finite])
            lam_min[rows[finite]], lam_max[rows[finite]] = eigs[:, 0], eigs[:, -1]
    return _passes_psd(lam_min, lam_max), lam_min


def positive_eigenvalues(matrices) -> np.ndarray:
    """The spectra of a stack of d x d matrices as ``PositiveOperator`` would hold them: one eigensolve for the stack.

    ``matrices`` has shape (..., d, d).  Each matrix is symmetrized and
    checked by the PSD rule, the first that fails raising the error
    ``PositiveOperator`` raises; the result, of shape (..., d), holds each
    spectrum clamped at 0 and non-increasing.
    """
    m = np.asarray(matrices, dtype=complex)
    if not np.isfinite(m).all():  # before the eigensolve, as in ``_extreme_eigenvalues``
        raise _not_psd(math.nan, math.nan, m)
    m = _hermitian_part(m)
    eigs = _eigvalsh(m)
    failing = np.flatnonzero(np.logical_not(_passes_psd(eigs[..., 0], eigs[..., -1])))
    if failing.size:
        first = np.unravel_index(failing[0], eigs.shape[:-1])
        raise _not_psd(eigs[first][0], eigs[first][-1], m[first])
    return np.maximum(eigs[..., ::-1], 0.0)


def positive_diagonal(diagonal: np.ndarray) -> np.ndarray:
    """One diagonal as ``PositiveOperator(diagonal=...)`` stores it, clamped at 0, with no operator built.

    The PSD rule reads its min and max and raises the error ``PositiveOperator`` raises.
    """
    lam_min, lam_max = float(diagonal.min()), float(diagonal.max())
    if not _passes_psd(lam_min, lam_max):
        raise _not_psd(lam_min, lam_max, diagonal)
    return np.maximum(diagonal, 0.0)


def diagonal_spectra(diagonals: np.ndarray) -> tuple:
    """(order, values, ranks, gap_tols) of a stack of clamped diagonals (N, d), row j as ``PositiveOperator.spectrum`` sorts it.

    order[j] is the stable argsort of -diagonals[j], the spectrum's basis,
    values[j] the sorted diagonal, ranks[j] its rank and gap_tols[j, 0]
    its gap tolerance: one argsort for the stack, no operator built.
    """
    order = np.argsort(-diagonals, axis=1, kind="stable")
    values = np.take_along_axis(diagonals, order, axis=1)
    top = values[:, :1]
    ranks = np.count_nonzero(values > default_rank_tols(values.shape[1], top), axis=1)
    return order, values, ranks, GAP_REL_TOL * top


class PositiveOperator(HermitianOperator):
    """Hermitian operator passing the PSD rule; its eigenvalues clamp to 0.

    The rule (see ``is_psd``) allows lambda_min down to
    -(PSD_REL_TOL * max(lambda_max, 0) + 1e-15) and refuses a non-finite
    entry, which the error names.  A dense operator keeps its
    matrix and clamps the spectrum it checked with; a diagonal operator
    stores its diagonal clamped at 0, and so does every diagonal view, so
    sorting the diagonal gives its spectrum.
    """

    __slots__ = ("_spectrum",)

    def __init__(self, matrix=None, *, diagonal=None):
        super().__init__(matrix, diagonal=diagonal)
        lam_min, lam_max, eigs = _extreme_eigenvalues(self)
        if not _passes_psd(lam_min, lam_max):
            raise _not_psd(lam_min, lam_max, self._diag if self.is_diagonal else np.asarray(matrix))
        if self.is_diagonal:
            np.maximum(self._diag, 0.0, out=self._diag)  # the constructor's own copy
            self._spectrum = None  # sorted on first spectral read
        else:
            self._spectrum = Spectrum(np.maximum(eigs[::-1], 0.0), diagonal=False, source=self._mat)

    @classmethod
    def of(cls, h: HermitianOperator) -> "PositiveOperator":
        """h as a positive operator, checked by the PSD rule; a diagonal h stays diagonal."""
        if h.is_diagonal:
            return cls(diagonal=h.diag)
        return cls(h.matrix)

    @classmethod
    def _with_spectrum(cls, spectrum: Spectrum | None, matrix=None, diagonal=None):
        """A spectral view: an operator whose spectrum is already known, the one constructor of views.

        The caller hands over a freshly allocated array that no one else
        holds: a real non-negative diagonal, or a complex matrix that is
        exactly Hermitian.  It is stored as given, with no validation, copy,
        symmetrization or eigensolve.
        """
        op = cls.__new__(cls)
        if diagonal is not None:
            op.dim, op.is_diagonal, op._diag, op._mat = diagonal.size, True, diagonal, None
        else:
            op.dim, op.is_diagonal, op._diag, op._mat = matrix.shape[0], False, None, matrix
        op._trace = None
        op._spectrum = spectrum
        return op

    def spectrum(self) -> Spectrum:
        spec = self._spectrum
        if spec is None:
            order = np.argsort(-self._diag, kind="stable")
            spec = self._spectrum = Spectrum(self._diag[order], diagonal=True, basis=order)
        return spec

    def operator_norm(self) -> float:
        if self.is_diagonal:
            return super().operator_norm()
        return float(self._spectrum.values[0])

    def eigenvalues(self) -> np.ndarray:
        """Clamped eigenvalues in non-increasing order."""
        return self.spectrum().values.copy()

    def rank(self) -> int:
        return self.spectrum().rank

    def vanishes(self) -> bool:
        """Whether the trace is at or below the rank tolerance: the operator is numerically 0."""
        return self.trace() <= default_rank_tol(self.dim, self.operator_norm())

    def rescaled(self, c: float, cls=None) -> "PositiveOperator":
        """c * self for c >= 0, with its spectrum scaled from this one (no eigensolve).

        A diagonal operator whose spectrum was never read passes that on:
        the result sorts its own diagonal on first spectral read.
        """
        cls = PositiveOperator if cls is None else cls
        spec = None if self._spectrum is None else self._spectrum.scaled(c)
        if self.is_diagonal:
            return cls._with_spectrum(spec, diagonal=self._diag * c)
        return cls._with_spectrum(spec, matrix=self._mat * c)

    def scale(self, c: float) -> HermitianOperator:
        """c * self; positive (a spectral view) for c >= 0, and self itself for c = 1: operators are immutable."""
        if c == 1.0:
            return self
        if c >= 0.0:
            return self.rescaled(c)
        return super().scale(c)

    def split(self, k: int) -> tuple:
        """(head, tail) of the kept spectrum cut at index k, as spectral views (no eigensolve).

        The head keeps the first k kept values and the tail the rest, both
        paired with this basis; the tail lists the vectors from k on first.
        A cut at or past the rank gives the operator itself and a zero tail.
        """
        spec = self.spectrum()
        if k >= spec.rank:
            return self, self.rescaled(0.0)
        lam, d = spec.kept(), self.dim
        head = spec.reordered(np.concatenate([lam[:k], np.zeros(d - k)])).operator()
        order = np.concatenate([np.arange(k, d), np.arange(k)])
        return head, spec.reordered(np.concatenate([lam[k:], np.zeros(k)]), order).operator()

    def add(self, other: HermitianOperator) -> HermitianOperator:
        """self + other; positive when other is."""
        if not isinstance(other, PositiveOperator):
            return super().add(other)
        self._check_dim(other)
        if self.is_diagonal and other.is_diagonal:
            return PositiveOperator(diagonal=self._diag + other._diag)
        return PositiveOperator(self.matrix + other.matrix)


class DensityOperator(PositiveOperator):
    """Trace-one positive operator (a quantum state)."""

    __slots__ = ()

    def __init__(self, matrix=None, *, diagonal=None):
        super().__init__(matrix, diagonal=diagonal)
        t = self.trace()
        if abs(t - 1.0) > TRACE_ONE_TOL:
            raise ValueError(f"density operator must have unit trace, got {t!r}")


class Projector(HermitianOperator):
    """Orthogonal projector with known rank, checked at construction."""

    __slots__ = ("rank",)

    def __init__(self, matrix=None, *, diagonal=None, rank: int | None = None):
        super().__init__(matrix, diagonal=diagonal)
        if self.is_diagonal:
            d = self._diag
            if not np.all((np.abs(d) < PROJECTOR_TOL) | (np.abs(d - 1.0) < PROJECTOR_TOL)):
                raise ValueError("diagonal projector entries must be 0 or 1")
            inferred = int(np.count_nonzero(d > 0.5))
        else:
            m = self._mat
            if not np.allclose(m @ m, m, atol=PROJECTOR_TOL):
                raise ValueError(f"P^2 != P beyond tolerance {PROJECTOR_TOL:g}")
            inferred = int(round(self.trace()))
        if rank is None:
            rank = inferred
        if abs(self.trace() - rank) > 1e-8:
            raise ValueError(f"trace {self.trace()} does not match rank {rank}")
        self.rank = rank

    def complement(self) -> "Projector":
        if self.is_diagonal:
            return Projector(diagonal=1.0 - self._diag, rank=self.dim - self.rank)
        return Projector(np.eye(self.dim) - self.matrix, rank=self.dim - self.rank)

    def leq(self, other: "Projector") -> bool:
        """Range inclusion: P <= Q iff QP = P."""
        if self.is_diagonal and other.is_diagonal:
            return bool(np.all(other._diag[self._diag > 0.5] > 0.5))
        return bool(np.allclose(other.matrix @ self.matrix, self.matrix, atol=1e-9))


def compress(rho: PositiveOperator, p: Projector) -> PositiveOperator:
    """P rho P as a positive operator: a diagonal pair stays diagonal, anything else is the dense product.

    For P a prefix of rho's own spectrum, ``rho.split`` gives P rho P and its
    complement as spectral views instead.
    """
    if rho.is_diagonal and p.is_diagonal:
        return PositiveOperator(diagonal=rho.diag * p.diag)
    pm = p.matrix
    return PositiveOperator(pm @ rho.matrix @ pm)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in non-increasing order with phase-canonicalized eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns; eigenvectors[:, i] pairs with eigenvalues[i]
    multiplicity_groups: list = field(default_factory=list)  # (start, stop) index ranges


def _canonical_phase(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column of each matrix of a stack (k, d, d) so its first component above 1e-12 is positive real."""
    nonzero = np.abs(vectors) > 1e-12
    first = np.argmax(nonzero, axis=1)
    at = (np.arange(len(vectors))[:, None], first, np.arange(vectors.shape[2]))
    pivot, found = vectors[at], nonzero[at]
    phase = np.conj(pivot) / np.abs(np.where(found, pivot, 1.0))
    return vectors * np.where(found, phase, 1.0)[:, None, :]


def _eigh(matrices: np.ndarray) -> tuple:
    """Eigenvalues non-increasing and their phase-canonicalized eigenvectors, for a stack (k, d, d) in one eigensolve.

    numpy does not say which member of a stack it failed on, so on a
    failure the members are solved one at a time and the first that fails
    alone is named.
    """
    try:
        w, v = np.linalg.eigh(matrices)
    except np.linalg.LinAlgError as exc:
        if len(matrices) == 1:
            raise _solver_failure(matrices) from exc
        solved = [_eigh(m[None]) for m in matrices]
        return np.concatenate([w for w, _ in solved]), np.concatenate([v for _, v in solved])
    return w[:, ::-1].copy(), _canonical_phase(v[..., ::-1])


def _eigvalsh(matrices: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a matrix or a stack (..., d, d) in one eigensolve; a failure raises as in ``_eigh``."""
    try:
        return np.linalg.eigvalsh(matrices)
    except np.linalg.LinAlgError as exc:
        raise _solver_failure(matrices) from exc


def _solver_failure(matrices: np.ndarray) -> LinearAlgebraError:
    return LinearAlgebraError(f"eigensolver failed for dim-{matrices.shape[-1]} operator "
                              f"(frobenius norm {float(np.linalg.norm(matrices)):.3e})")


def group_ends(values: np.ndarray, gap_tol) -> np.ndarray:
    """The one gap test: a group of the values (..., d) ends at i iff values[i + 1], 0 past the end, < values[i] - gap_tol."""
    nxt = np.concatenate([values[..., 1:], np.zeros_like(values[..., :1])], axis=-1)
    return nxt < values - gap_tol


def _groups(values: np.ndarray, gap_tol: float) -> list:
    """(start, stop) index ranges of the multiplicity groups of ``values``; the last group closes at the end."""
    stops = np.append(np.flatnonzero(group_ends(values, gap_tol)[:-1]) + 1, values.size).tolist()
    return list(zip([0] + stops[:-1], stops))


def eigh(a: HermitianOperator) -> SpectralDecomposition:
    """Spectral decomposition, eigenvalues sorted non-increasing.

    Ordering is deterministic: descending eigenvalues with stable index
    tie-break, eigenvector phases canonicalized to a positive-real pivot.
    A positive operator answers from its cached spectrum, so its
    eigenvalues come back clamped at 0.
    """
    if isinstance(a, PositiveOperator):
        spec = a.spectrum()
        return SpectralDecomposition(spec.values.copy(), spec.vectors(), spec.multiplicity_groups)
    if a.is_diagonal:
        order = np.argsort(-a.diag, kind="stable")
        lam = a.diag[order].copy()
        vec = np.zeros((a.dim, a.dim), dtype=complex)
        vec[order, np.arange(a.dim)] = 1.0
    else:
        lam, vec = (x[0] for x in _solve(a.matrix[None]))
    lam_max = float(np.max(np.abs(lam)))
    return SpectralDecomposition(lam, vec, _groups(lam, GAP_REL_TOL * lam_max))


def apply_spectral_function(a: PositiveOperator, f) -> HermitianOperator:
    """V f(Lambda) V*; eigenvalues at or below the rank tolerance become exactly 0."""
    spec = a.spectrum()
    lam = spec.kept()
    vals = np.array([float(f(x)) for x in lam])
    bad = ~np.isfinite(vals)
    if np.any(bad):
        idx = int(np.flatnonzero(bad)[0])
        raise LinearAlgebraError(f"scalar function undefined at eigenvalue {lam[idx]!r}")
    if spec.diagonal:
        return HermitianOperator(diagonal=spec.compose(vals))
    return HermitianOperator(spec.compose(vals))


def support_projector(a: PositiveOperator) -> Projector:
    """Projector onto the eigenvectors with eigenvalue above the rank tolerance."""
    spec = a.spectrum()
    return spec.projector(spec.rank)


def moore_penrose_inverse(a: PositiveOperator) -> PositiveOperator:
    """Pseudoinverse: invert eigenvalues above the rank tolerance, zero the rest."""
    spec = a.spectrum()
    r = spec.rank
    # 1/lambda grows along the support, so the inverse lists it reversed
    order = np.concatenate([np.arange(r)[::-1], np.arange(r, a.dim)])
    inv = np.zeros(a.dim)
    inv[:r] = 1.0 / spec.values[:r][::-1]
    return spec.reordered(inv, order).operator()


def partial_trace(a: HermitianOperator, keep: str, d_a: int, d_b: int) -> HermitianOperator:
    """Reduced operator on the kept factor ('A' or 'B'); trace is preserved."""
    if a.dim != d_a * d_b:
        raise ValueError(f"dim {a.dim} != d_a*d_b = {d_a * d_b}")
    if keep not in ("A", "B"):
        raise ValueError("keep must be 'A' or 'B'")
    if a.is_diagonal:
        grid = a.diag.reshape(d_a, d_b)
        red = grid.sum(axis=1) if keep == "A" else grid.sum(axis=0)
        return HermitianOperator(diagonal=red)
    t = a.matrix.reshape(d_a, d_b, d_a, d_b)
    red = np.einsum("ikjk->ij", t) if keep == "A" else np.einsum("kikj->ij", t)
    return HermitianOperator(red)


def trace_norm_distance(a: HermitianOperator, b: HermitianOperator) -> float:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.is_diagonal and b.is_diagonal:
        return float(np.sum(np.abs(a.diag - b.diag)))
    return float(np.sum(np.abs(_eigvalsh(a.matrix - b.matrix))))
