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
computes and solves for eigenvectors on first request only; a diagonal
operator sorts its diagonal on first spectral read.  Truncation heads and
tails, normalized states and pseudoinverses are spectral views of their
parent: they carry a spectrum derived from the parent's and cost no
eigensolve.  A projector cut from a dense spectrum is a range of that
spectrum's basis: compressions onto it, nesting and mass tests read the
range, and its matrix is built (and checked) only when someone asks for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HERMITIAN_TOL = 1e-12
PSD_REL_TOL = 1e-10
TRACE_ONE_TOL = 1e-10
GAP_REL_TOL = 1e-9
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

    __slots__ = ("dim", "is_diagonal", "_diag", "_mat")

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
            m = 0.5 * (m + m.conj().T)
            self.dim = int(m.shape[0])
            self.is_diagonal = False
            self._diag = None
            self._mat = m

    @property
    def matrix(self) -> np.ndarray:
        if self._mat is None:
            self._mat = self._materialize()
        return self._mat

    def _materialize(self) -> np.ndarray:
        global _DENSE_MATERIALIZATIONS
        _DENSE_MATERIALIZATIONS += 1
        return np.diag(self._diag).astype(complex)

    @property
    def diag(self) -> np.ndarray:
        """Real diagonal entries (works for dense operators too)."""
        if self.is_diagonal:
            return self._diag
        return np.real(np.diagonal(self.matrix))

    def trace(self) -> float:
        return float(np.sum(self.diag))

    def trace_norm(self) -> float:
        if self.is_diagonal:
            return float(np.sum(np.abs(self._diag)))
        return float(np.sum(np.abs(np.linalg.eigvalsh(self.matrix))))

    def operator_norm(self) -> float:
        if self.is_diagonal:
            return float(np.max(np.abs(self._diag))) if self.dim else 0.0
        return float(np.max(np.abs(np.linalg.eigvalsh(self.matrix))))

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in non-increasing order."""
        if self.is_diagonal:
            return np.sort(self._diag)[::-1].copy()
        return np.linalg.eigvalsh(self.matrix)[::-1].copy()

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

    def allclose(self, other: "HermitianOperator", atol=1e-10) -> bool:
        if self.is_diagonal and other.is_diagonal:
            return bool(np.allclose(self._diag, other._diag, atol=atol))
        return bool(np.allclose(self.matrix, other.matrix, atol=atol))

    def __repr__(self):
        kind = "diagonal" if self.is_diagonal else "dense"
        return f"<{type(self).__name__} dim={self.dim} {kind}>"


def default_rank_tol(dim: int, lam_max: float) -> float:
    return dim * 1e-14 * max(lam_max, 0.0)


class Spectrum:
    """Eigenvalues of a positive operator, clamped at 0 and non-increasing, with their basis.

    ``rank`` counts the values above ``rank_tol``; ``kept()`` sets the
    others to 0.  Neighbouring values closer than ``gap_tol`` share a
    multiplicity group.  ``basis`` pairs ``values[i]`` with column i of a
    unitary (dense) or with coordinate ``basis[i]`` (diagonal, where the
    basis is the stable argsort permutation).  A dense basis is solved for
    on first request, once, checked for orthonormality, and shared with
    every spectrum scaled from this one.  All arrays are read-only.
    """

    __slots__ = ("values", "diagonal", "rank_tol", "gap_tol", "rank", "_basis", "_source", "_groups")

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
        self._groups = None

    @property
    def basis(self) -> np.ndarray:
        if self._basis is None:
            src = self._source
            if isinstance(src, Spectrum):
                self._basis = src.basis
            else:
                basis = _eigh(src)[1]
                _check_orthonormal(basis)
                basis.flags.writeable = False
                self._basis = basis
            self._source = None
        return self._basis

    @property
    def multiplicity_groups(self) -> list:
        """(start, stop) index ranges of values within gap_tol of the group's first."""
        if self._groups is None:
            self._groups = _multiplicity_groups(self.values, self.gap_tol)
        return self._groups

    def rank_at(self, rank_tol: float | None = None) -> int:
        if rank_tol is None:
            return self.rank
        return int(np.count_nonzero(self.values > rank_tol))

    def kept(self, rank_tol: float | None = None) -> np.ndarray:
        """The values with those at or below the rank tolerance set to 0."""
        out = self.values.copy()
        out[self.rank_at(rank_tol):] = 0.0
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
        return PositiveOperator._with_spectrum(self, matrix=data)

    def projector(self, k: int) -> "Projector":
        """Projector onto the span of the first k basis vectors.

        Dense spectra give the range projector of columns [0, k), which
        solves for no basis and builds no matrix until one is read.
        """
        if not self.diagonal:
            return Projector._range(self, 0, k)
        d = np.zeros(self.values.size)
        d[self.basis[:k]] = 1.0
        return Projector(diagonal=d, rank=k)


def _check_orthonormal(basis: np.ndarray):
    """||V*V - I||_F <= PROJECTOR_TOL / 2, so every range projector passes the projector checks.

    With E = V*V - I and e = ||E||_F, a range projector P = V_k V_k* has
    P^2 - P = V_k E_kk V_k*, so every entry of P^2 - P is at most
    ||V_k||^2 ||E_kk|| <= (1 + e) e < PROJECTOR_TOL, and Tr P - k = Tr E_kk
    is at most sqrt(k) e, far inside the trace tolerance.
    """
    d = basis.shape[1]
    err = float(np.linalg.norm(basis.conj().T @ basis - np.eye(d)))
    if err > PROJECTOR_TOL / 2:
        raise LinearAlgebraError(f"eigenvectors of a dim-{d} operator are not orthonormal: "
                                 f"||V*V - I||_F = {err:.3e}")


class PositiveOperator(HermitianOperator):
    """Hermitian operator with spectrum >= -tau_psd; eigenvalues clamp to 0 on read."""

    __slots__ = ("_spectrum",)

    def __init__(self, matrix=None, *, diagonal=None):
        super().__init__(matrix, diagonal=diagonal)
        if self.is_diagonal:
            lam_min = float(self._diag.min())
            lam_max = float(self._diag.max())
            self._spectrum = None  # sorted on first spectral read
        else:
            eigs = np.linalg.eigvalsh(self._mat)
            lam_min = float(eigs[0])
            lam_max = float(eigs[-1])
            self._spectrum = Spectrum(np.maximum(eigs[::-1], 0.0), diagonal=False, source=self._mat)
        tol = PSD_REL_TOL * max(lam_max, 0.0) + 1e-15
        if lam_min < -tol:
            raise ValueError(f"operator is not PSD: min eigenvalue {lam_min:.3e} < -{tol:.3e}")

    @classmethod
    def _with_spectrum(cls, spectrum: Spectrum | None, matrix=None, diagonal=None):
        """An operator whose spectrum is already known: no validation, no eigensolve."""
        op = cls.__new__(cls)
        HermitianOperator.__init__(op, matrix, diagonal=diagonal)
        op._spectrum = spectrum
        return op

    def spectrum(self) -> Spectrum:
        spec = self._spectrum
        if spec is None:
            order = np.argsort(-self._diag, kind="stable")
            spec = self._spectrum = Spectrum(np.maximum(self._diag[order], 0.0), diagonal=True, basis=order)
        return spec

    def trace_norm(self) -> float:
        return float(np.sum(self.spectrum().values))

    def operator_norm(self) -> float:
        if self.is_diagonal:
            return super().operator_norm()
        return float(self._spectrum.values[0])

    def eigenvalues(self) -> np.ndarray:
        """Clamped eigenvalues in non-increasing order."""
        return self.spectrum().values.copy()

    def rank(self, rank_tol: float | None = None) -> int:
        return self.spectrum().rank_at(rank_tol)

    def rescaled(self, c: float, cls=None) -> "PositiveOperator":
        """c * self for c >= 0, with its spectrum scaled from this one (no eigensolve).

        A diagonal operator whose spectrum was never read passes that on:
        the result sorts its own diagonal on first spectral read.
        """
        cls = PositiveOperator if cls is None else cls
        spec = None if self._spectrum is None else self._spectrum.scaled(c)
        if self.is_diagonal:
            return cls._with_spectrum(spec, diagonal=np.clip(self._diag, 0.0, None) * c)
        return cls._with_spectrum(spec, matrix=self._mat * c)

    def scale(self, c: float) -> HermitianOperator:
        """c * self; positive (a spectral view) for c >= 0."""
        if c >= 0.0:
            return self.rescaled(c)
        return super().scale(c)

    def add(self, other: HermitianOperator) -> HermitianOperator:
        """self + other; positive when other is."""
        if not isinstance(other, PositiveOperator):
            return super().add(other)
        self._check_dim(other)
        if self.is_diagonal and other.is_diagonal:
            return PositiveOperator(diagonal=np.clip(self._diag, 0.0, None) + np.clip(other._diag, 0.0, None))
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
    """Orthogonal projector with known rank.

    A projector cut from a dense spectrum is a range projector: ``span`` is
    (spectrum, lo, hi), a leading (lo = 0) or trailing (hi = dim) range of
    the spectrum's basis columns, and the projector is the sum of
    |v_i><v_i| over lo <= i < hi.  Its matrix is built on first read, when
    the P^2 = P and trace checks run; the basis orthonormality check covers
    it before that.  Every other projector has span None and is checked at
    construction.
    """

    __slots__ = ("rank", "span")

    def __init__(self, matrix=None, *, diagonal=None, rank: int | None = None):
        super().__init__(matrix, diagonal=diagonal)
        self.span = None
        if self.is_diagonal:
            d = self._diag
            if not np.all((np.abs(d) < PROJECTOR_TOL) | (np.abs(d - 1.0) < PROJECTOR_TOL)):
                raise ValueError("diagonal projector entries must be 0 or 1")
            inferred = int(np.count_nonzero(d > 0.5))
        else:
            _check_idempotent(self._mat)
            inferred = int(round(self.trace()))
        if rank is None:
            rank = inferred
        _check_trace(self.trace(), rank)
        self.rank = rank

    @classmethod
    def _range(cls, spectrum: Spectrum, lo: int, hi: int) -> "Projector":
        """The range projector onto basis columns [lo, hi) of a dense spectrum."""
        p = cls.__new__(cls)
        p.dim = spectrum.values.size
        p.is_diagonal = False
        p._diag = None
        p._mat = None
        p.rank = hi - lo
        p.span = (spectrum, lo, hi)
        return p

    def _materialize(self) -> np.ndarray:
        if self.span is None:
            return super()._materialize()
        spec, lo, hi = self.span
        v = spec.basis[:, lo:hi]
        m = v @ v.conj().T
        m = 0.5 * (m + m.conj().T)  # symmetrized as the constructor symmetrizes
        _check_idempotent(m)
        _check_trace(float(np.sum(np.real(np.diagonal(m)))), self.rank)
        return m

    def complement(self) -> "Projector":
        if self.span is not None:
            spec, lo, hi = self.span
            # the complement of a leading range is the trailing one, and back
            return Projector._range(spec, *((hi, self.dim) if lo == 0 else (0, lo)))
        if self.is_diagonal:
            return Projector(diagonal=1.0 - self._diag, rank=self.dim - self.rank)
        return Projector(np.eye(self.dim) - self.matrix, rank=self.dim - self.rank)

    def leq(self, other: "Projector", atol=1e-9) -> bool:
        """Range inclusion: P <= Q iff QP = P."""
        if self.span is not None and other.span is not None and self.span[0] is other.span[0]:
            _, lo, hi = self.span
            _, other_lo, other_hi = other.span
            return lo == hi or other_lo <= lo and hi <= other_hi
        if self.is_diagonal and other.is_diagonal:
            return bool(np.all(other._diag[self._diag > 0.5] > 0.5))
        return bool(np.allclose(other.matrix @ self.matrix, self.matrix, atol=atol))


def _check_idempotent(m: np.ndarray):
    if not np.allclose(m @ m, m, atol=PROJECTOR_TOL):
        raise ValueError(f"P^2 != P beyond tolerance {PROJECTOR_TOL:g}")


def _check_trace(trace: float, rank: int):
    if abs(trace - rank) > 1e-8:
        raise ValueError(f"trace {trace} does not match rank {rank}")


def compress(rho: PositiveOperator, p: Projector) -> PositiveOperator:
    """P rho P as a positive operator.

    A range projector cut from rho's own spectrum gives a spectral view (no
    eigensolve): rho's values on the range, then zeros, paired with the
    range's basis vectors first, as ``spectral_truncation`` builds heads and
    tails.  A diagonal pair stays diagonal; anything else is the dense product.
    """
    if p.span is not None and p.span[0] is rho.spectrum():
        spec, lo, hi = p.span
        values = np.concatenate([spec.values[lo:hi], np.zeros(rho.dim - (hi - lo))])
        order = np.concatenate([np.arange(lo, hi), np.arange(lo), np.arange(hi, rho.dim)])
        return spec.reordered(values, order).operator()
    if rho.is_diagonal and p.is_diagonal:
        return PositiveOperator(diagonal=np.clip(rho.diag * p.diag, 0.0, None))
    pm = p.matrix
    return PositiveOperator(pm @ rho.matrix @ pm)


def identity(dim: int) -> Projector:
    return Projector(diagonal=np.ones(dim), rank=dim)


def coordinate_projector(dim: int, indices) -> Projector:
    idx = list(indices)
    d = np.zeros(dim)
    d[idx] = 1.0
    return Projector(diagonal=d, rank=len(idx))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in non-increasing order with phase-canonicalized eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns; eigenvectors[:, i] pairs with eigenvalues[i]
    multiplicity_groups: list = field(default_factory=list)  # (start, stop) index ranges

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def _canonical_phase(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first component above 1e-12 is positive real."""
    cols = np.arange(vectors.shape[1])
    nonzero = np.abs(vectors) > 1e-12
    first = np.argmax(nonzero, axis=0)
    pivot = vectors[first, cols]
    found = nonzero[first, cols]
    phase = np.conj(pivot) / np.abs(np.where(found, pivot, 1.0))
    return vectors * np.where(found, phase, 1.0)


def _eigh(matrix: np.ndarray):
    """Eigenvalues non-increasing and their phase-canonicalized eigenvectors."""
    try:
        w, v = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        norm = float(np.linalg.norm(matrix))
        raise LinearAlgebraError(
            f"eigensolver failed for dim-{matrix.shape[0]} operator (frobenius norm {norm:.3e})"
        ) from exc
    return w[::-1].copy(), _canonical_phase(v[:, ::-1])


def _multiplicity_groups(lam: np.ndarray, gap_tol: float) -> list:
    groups = []
    start = 0
    for i in range(1, lam.size + 1):
        if i == lam.size or lam[start] - lam[i] > gap_tol:
            groups.append((start, i))
            start = i
    return groups


def eigh(a: HermitianOperator, gap_tol: float | None = None) -> SpectralDecomposition:
    """Spectral decomposition, eigenvalues sorted non-increasing.

    Ordering is deterministic: descending eigenvalues with stable index
    tie-break, eigenvector phases canonicalized to a positive-real pivot.
    A positive operator answers from its cached spectrum, so its
    eigenvalues come back clamped at 0.
    """
    if isinstance(a, PositiveOperator):
        spec = a.spectrum()
        groups = spec.multiplicity_groups if gap_tol is None else _multiplicity_groups(spec.values, gap_tol)
        return SpectralDecomposition(spec.values.copy(), spec.vectors(), list(groups))
    if a.is_diagonal:
        order = np.argsort(-a.diag, kind="stable")
        lam = a.diag[order].copy()
        vec = np.zeros((a.dim, a.dim), dtype=complex)
        vec[order, np.arange(a.dim)] = 1.0
    else:
        lam, vec = _eigh(a.matrix)
    lam_max = float(np.max(np.abs(lam))) if lam.size else 0.0
    tol = GAP_REL_TOL * lam_max if gap_tol is None else gap_tol
    return SpectralDecomposition(lam, vec, _multiplicity_groups(lam, tol))


def apply_spectral_function(a: PositiveOperator, f, rank_tol: float | None = None) -> HermitianOperator:
    """V f(Lambda) V*; eigenvalues at or below the rank tolerance become exactly 0."""
    spec = a.spectrum()
    lam = spec.kept(rank_tol)
    vals = np.array([float(f(x)) for x in lam])
    bad = ~np.isfinite(vals)
    if np.any(bad):
        idx = int(np.flatnonzero(bad)[0])
        raise LinearAlgebraError(f"scalar function undefined at eigenvalue {lam[idx]!r}")
    if spec.diagonal:
        return HermitianOperator(diagonal=spec.compose(vals))
    return HermitianOperator(spec.compose(vals))


def support_projector(a: PositiveOperator, rank_tol: float | None = None) -> Projector:
    """Projector onto the span of eigenvectors with eigenvalue above the rank tolerance."""
    spec = a.spectrum()
    return spec.projector(spec.rank_at(rank_tol))


def moore_penrose_inverse(a: PositiveOperator, rank_tol: float | None = None) -> PositiveOperator:
    """Pseudoinverse: invert eigenvalues above the rank tolerance, zero the rest."""
    spec = a.spectrum()
    r = spec.rank_at(rank_tol)
    # 1/lambda grows along the support, so the inverse lists it reversed
    order = np.concatenate([np.arange(r)[::-1], np.arange(r, a.dim)])
    inv = np.zeros(a.dim)
    inv[:r] = 1.0 / spec.values[:r][::-1]
    return spec.reordered(inv, order).operator()


def tensor(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    if a.is_diagonal and b.is_diagonal:
        return HermitianOperator(diagonal=np.kron(a.diag, b.diag))
    return HermitianOperator(np.kron(a.matrix, b.matrix))


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


def purify(rho: DensityOperator, rank_tol: float | None = None) -> DensityOperator:
    """Minimal purification on H_A (x) H_R with dim(R) = rank(rho).

    The purifying vector is built in the non-increasing eigenbasis so the
    construction is reproducible.  The result is a pure state, so its
    spectrum (1, 0, ..., 0) is known without an eigensolve.
    """
    spec = rho.spectrum()
    r = spec.rank_at(rank_tol)
    v = spec.vectors()[:, :r]
    # sum_i sqrt(lambda_i) v_i (x) e_i, with index (a, i) at a * r + i
    psi = (v * np.sqrt(spec.values[:r])).reshape(rho.dim * r)
    psi /= np.linalg.norm(psi)
    matrix = np.outer(psi, psi.conj())
    pure = np.zeros(rho.dim * r)
    pure[0] = 1.0
    return DensityOperator._with_spectrum(Spectrum(pure, diagonal=False, source=matrix), matrix=matrix)


def trace_norm_distance(a: HermitianOperator, b: HermitianOperator) -> float:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.is_diagonal and b.is_diagonal:
        return float(np.sum(np.abs(a.diag - b.diag)))
    return float(np.sum(np.abs(np.linalg.eigvalsh(a.matrix - b.matrix))))


# ---------------------------------------------------------------------------
# JSON matrix format: {"dim": d, "re": [[...]], "im": [[...]]} with the
# diagonal shorthand {"diag": [...]}.

def operator_to_json(a: HermitianOperator) -> dict:
    if a.is_diagonal:
        return {"diag": [float(x) for x in a.diag]}
    m = a.matrix
    return {
        "dim": a.dim,
        "re": np.real(m).tolist(),
        "im": np.imag(m).tolist(),
    }


def operator_from_json(obj: dict, cls=HermitianOperator) -> HermitianOperator:
    if "diag" in obj:
        return cls(diagonal=np.asarray(obj["diag"], dtype=float))
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=float)
    m = re + 1j * im
    if "dim" in obj and m.shape != (obj["dim"], obj["dim"]):
        raise ValueError(f"declared dim {obj['dim']} does not match shape {m.shape}")
    return cls(m)
