"""Plain-numpy oracle for one cell of a relative-entropy approximation-gap grid.

It shares no code with qdini.  The truncation Psi_m(rho) keeps the m largest
eigenvalues of rho, so the head and tail spectra come straight from one
eigendecomposition of rho, and only Tr x ln sigma needs sigma's eigenbasis.
"""

from __future__ import annotations

import numpy as np


def _neg_entropy_of(spectrum: np.ndarray) -> float:
    """sum_i p_i ln p_i over the positive entries of a spectrum."""
    p = spectrum[spectrum > 0.0]
    return float(np.sum(p * np.log(p)))


def _relative_entropy(x: np.ndarray, x_spectrum: np.ndarray, sigma_w: np.ndarray,
                      sigma_v: np.ndarray) -> float:
    """Lindblad D(x||sigma) = Tr x ln x - Tr x ln sigma + Tr sigma - Tr x for full-rank sigma."""
    weights = np.real(np.einsum("ij,ik,kj->j", sigma_v.conj(), x, sigma_v))
    tr_x_ln_sigma = float(np.sum(weights * np.log(sigma_w)))
    return (_neg_entropy_of(x_spectrum) - tr_x_ln_sigma
            + float(np.sum(sigma_w)) - float(np.sum(x_spectrum)))


def gap_cell(rho: np.ndarray, sigma: np.ndarray, m: int) -> tuple[float, float, float]:
    """(mu, gap, tail) of a grid cell for f = D(. || sigma) and spectral truncation at m.

    mu is the mass of Psi_m(rho), gap = f(rho) - f(head / Tr head) and
    tail = Tr tail * f(tail / Tr tail).  rho and sigma must be full rank, with
    rank(rho) > m so that the tail is nonzero.
    """
    w, v = np.linalg.eigh(rho)
    w, v = w[::-1], v[:, ::-1]
    sigma_w, sigma_v = np.linalg.eigh(sigma)
    head_w, tail_w = w[:m], w[m:]
    mu = float(np.sum(head_w))
    tail_mass = float(np.sum(tail_w))
    head = (v[:, :m] * (head_w / mu)) @ v[:, :m].conj().T
    tail = (v[:, m:] * (tail_w / tail_mass)) @ v[:, m:].conj().T
    f_rho = _relative_entropy(rho, w, sigma_w, sigma_v)
    f_head = _relative_entropy(head, head_w / mu, sigma_w, sigma_v)
    f_tail = _relative_entropy(tail, tail_w / tail_mass, sigma_w, sigma_v)
    return mu, f_rho - f_head, tail_mass * f_tail
