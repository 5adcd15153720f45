"""A 60-digit reference for S, D and Tr rho(-ln sigma) of diagonal operators, on the stdlib ``decimal`` module.

Every float input is read exactly (``Decimal(float)`` is exact), and every
sum, product and log is taken with 60 significant digits, so a value here
is exact far below a float's ulp: the error of a float form is its
distance from this value.  The functionals are the package's, on the
positive cone, with its rules:

- a diagonal is clamped at 0, and only its values above the rank tolerance
  d RANK_REL_TOL times its largest value are counted (``Spectrum.rank``);
- S(rho) = -sum lam ln lam - eta(sum lam) over the counted values, 0 if
  there are none;
- Tr rho(-ln sigma) = -sum r_i ln s_i over supp sigma (the counted values
  of sigma), and +inf when rho's mass off it exceeds
  SUPPORT_TOL * max(1, Tr rho);
- D(rho||sigma) = Tr sigma where rho vanishes (Tr rho at or below its rank
  tolerance), else Tr rho(-ln sigma) - S(rho) - eta(Tr rho) + Tr sigma -
  Tr rho, +inf with Tr rho(-ln sigma).

A rotated input is a diagonal conjugated by the fixed unitary of its
dimension (``rotated``); its value is that of the diagonal, since each
functional is unitarily invariant.
"""

from decimal import Decimal, localcontext
from functools import lru_cache

import numpy as np

from qdini.entropies import SUPPORT_TOL
from qdini.operators import RANK_REL_TOL

DIGITS = 60
INFINITY = Decimal("Infinity")


def _decimals(diagonal) -> list:
    """The entries of a diagonal clamped at 0, each read exactly."""
    return [Decimal(max(float(x), 0.0)) for x in np.asarray(diagonal, dtype=float)]


def _counted(values: list) -> list:
    """Whether each value lies above the rank tolerance of its list."""
    tol = len(values) * Decimal(RANK_REL_TOL) * max(values)
    return [v > tol for v in values]


@lru_cache(maxsize=1 << 14)
def _ln(x: Decimal) -> Decimal:
    """ln x at ``DIGITS`` digits, kept: the cuts of one operator meet the same values again and again."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return x.ln()


def _eta(x: Decimal) -> Decimal:
    return -x * _ln(x) if x > 0 else Decimal(0)


def entropy(diagonal) -> Decimal:
    """S of the positive diagonal operator with this diagonal."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        values = _decimals(diagonal)
        lam = [v for v, kept in zip(values, _counted(values)) if kept]
        return sum((_eta(v) for v in lam), Decimal(0)) - _eta(sum(lam, Decimal(0)))


def trace_neg_log(rho_diagonal, sigma_diagonal) -> Decimal:
    """Tr rho(-ln sigma) of two diagonal operators, ``INFINITY`` on a support violation."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        r, s = _decimals(rho_diagonal), _decimals(sigma_diagonal)
        on_support = _counted(s)
        outside = sum((ri for ri, on in zip(r, on_support) if not on), Decimal(0))
        if outside > Decimal(SUPPORT_TOL) * max(Decimal(1), sum(r, Decimal(0))):
            return INFINITY
        return -sum((ri * _ln(si) for ri, si, on in zip(r, s, on_support) if on and ri > 0), Decimal(0))


def relative_entropy(rho_diagonal, sigma_diagonal) -> Decimal:
    """D(rho||sigma) of two diagonal operators, ``INFINITY`` on a support violation."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        r, s = _decimals(rho_diagonal), _decimals(sigma_diagonal)
        tr_rho, tr_sigma = sum(r, Decimal(0)), sum(s, Decimal(0))
        if tr_rho <= len(r) * Decimal(RANK_REL_TOL) * max(r):
            return tr_sigma
        cost = trace_neg_log(rho_diagonal, sigma_diagonal)
        if cost == INFINITY:
            return INFINITY
        return cost - entropy(rho_diagonal) - _eta(tr_rho) + tr_sigma - tr_rho


def fixed_unitary(d: int) -> np.ndarray:
    """The unitary that ``rotated`` conjugates by in dimension d: the Q of a complex Gaussian matrix seeded by d."""
    rng = np.random.default_rng([7, d])
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotated(diagonal) -> np.ndarray:
    """U diag(diagonal) U*, U = ``fixed_unitary`` of its dimension, as a dense matrix."""
    u = fixed_unitary(len(diagonal))
    return (u * np.asarray(diagonal, dtype=float)) @ u.conj().T


def relative_error(got: float, want: Decimal, scale: Decimal) -> Decimal:
    """|got - want| / max(|want|, scale), exact; 0 when both are +inf or both 0, and +inf when only one is."""
    if want == INFINITY or got == float("inf"):
        return Decimal(0) if want == INFINITY and got == float("inf") else INFINITY
    with localcontext() as ctx:
        ctx.prec = DIGITS
        error, scale = abs(Decimal(got) - want), max(abs(want), scale)
        if scale == 0:
            return INFINITY if error else Decimal(0)
        return error / scale
