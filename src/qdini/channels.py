"""Quantum channels in Kraus form with Choi and Stinespring views.

A Channel maps d_in to d_out via rho -> sum_i K_i rho K_i*, with its Kraus
operators stored as one read-only (k, d_out, d_in) array, so applying,
composing and taking the Choi matrix are single batched products.  The
Choi matrix lives on d_out x d_in, and the complementary channel sends
inputs to the minimal Stinespring environment.  The channel mutual
information is read off three small spectra,
I(Phi, rho) = S(rho) + S(Phi(rho)) - S(Phi^(rho)), where
Phi^(rho)_ij = Tr K_i rho K_j* is the k x k environment state: no
purification and no operator larger than max(d_out, k).
"""

from __future__ import annotations

import numpy as np

from .extreal import ExtendedReal, finite
from .operators import (
    DensityOperator,
    PositiveOperator,
    trace_norm_distance,
)
from .entropies import von_neumann_entropy

TP_TOL = 1e-9


class Channel:
    """Completely positive trace-preserving map given by Kraus operators."""

    __slots__ = ("d_in", "d_out", "kraus")

    def __init__(self, kraus):
        try:
            ops = np.array(kraus, dtype=complex)
        except ValueError as exc:
            raise ValueError(f"inconsistent Kraus shapes: {exc}") from exc
        if ops.size == 0:
            raise ValueError("a channel needs at least one Kraus operator")
        if ops.ndim != 3:
            raise ValueError(f"Kraus operators must stack to shape (k, d_out, d_in), got {ops.shape}")
        d_in = ops.shape[2]
        stacked = ops.reshape(-1, d_in)  # the Stinespring isometry, rows (i, a)
        deficit = float(np.linalg.norm(stacked.conj().T @ stacked - np.eye(d_in)))
        if deficit > TP_TOL:
            raise ValueError(f"channel is not trace preserving: deficit norm {deficit:.3e}")
        ops.flags.writeable = False
        self.d_in = int(d_in)
        self.d_out = int(ops.shape[1])
        self.kraus = ops

    def apply(self, rho: PositiveOperator) -> PositiveOperator:
        if rho.dim != self.d_in:
            raise ValueError(f"input dim {rho.dim} != channel d_in {self.d_in}")
        k = self.kraus
        if rho.is_diagonal:
            out = np.einsum("iab,b,icb->ac", k, rho.diag, k.conj())
        else:
            out = (k @ rho.matrix @ k.conj().transpose(0, 2, 1)).sum(0)
        return PositiveOperator(out)

    def choi_rank(self) -> int:
        return choi_matrix(self).rank()

    def compose(self, inner: "Channel") -> "Channel":
        """self after inner: rho -> self(inner(rho)), Kraus A_i B_j at index i * len(inner) + j."""
        if inner.d_out != self.d_in:
            raise ValueError(f"cannot compose: inner d_out {inner.d_out} != d_in {self.d_in}")
        return Channel((self.kraus[:, None] @ inner.kraus[None, :]).reshape(-1, self.d_out, inner.d_in))

    def __repr__(self):
        return f"<Channel {self.d_in}->{self.d_out}, {len(self.kraus)} Kraus ops>"


def identity_channel(dim: int) -> Channel:
    return Channel([np.eye(dim)])


def depolarizing_channel(p: float, dim: int = 2) -> Channel:
    """Qubit depolarizing map rho -> (1-p) rho + p I/2 in standard Kraus form."""
    if dim != 2:
        raise ValueError("depolarizing_channel is implemented for qubits only")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    i2 = np.eye(2)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    return Channel([
        np.sqrt(1 - 3 * p / 4) * i2,
        np.sqrt(p / 4) * x,
        np.sqrt(p / 4) * y,
        np.sqrt(p / 4) * z,
    ])


def phase_damping_channel(gamma: float) -> Channel:
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, 0], [0, np.sqrt(gamma)]], dtype=complex)
    return Channel([k0, k1])


def choi_matrix(phi: Channel) -> PositiveOperator:
    """(Phi (x) Id)(|Omega><Omega|) with |Omega> = sum_a |a>|a> unnormalized."""
    # row i is vec of (K_i (x) I)|Omega>: component (b, a) is K_i[b, a]
    vecs = phi.kraus.reshape(len(phi.kraus), -1)
    return PositiveOperator(vecs.T @ vecs.conj())


def reduced_kraus(phi: Channel, rank_tol: float | None = None) -> np.ndarray:
    """Linearly independent Kraus set, stacked (k, d_out, d_in), from the Choi eigendecomposition."""
    spec = choi_matrix(phi).spectrum()
    k = spec.rank_at(rank_tol)
    vecs = spec.vectors()[:, :k] * np.sqrt(spec.values[:k])
    return vecs.T.reshape(k, phi.d_out, phi.d_in)


def complementary_channel(phi: Channel) -> Channel:
    """Channel to the environment of the minimal Stinespring dilation.

    With reduced Kraus {K_i}, the isometry is V|psi> = sum_i K_i|psi> (x) |i>,
    so the environment output is (Phi_c(rho))_{ij} = Tr(K_i rho K_j*); its
    Kraus operators are K~_l[i, :] = K_i[l, :] for l in range(d_out).
    """
    return Channel(reduced_kraus(phi).transpose(1, 0, 2))


def _environment_state(phi: Channel, rho: PositiveOperator) -> PositiveOperator:
    """Phi^(rho)_ij = Tr K_i rho K_j*: complementary_channel(phi)(rho) up to an isometry."""
    k = phi.kraus
    k_rho = k * rho.diag if rho.is_diagonal else k @ rho.matrix
    return PositiveOperator(k_rho.reshape(len(k), -1) @ k.reshape(len(k), -1).conj().T)


def channel_mutual_information(phi: Channel, rho: DensityOperator) -> ExtendedReal:
    """I(Phi, rho) = S(rho) + S(Phi(rho)) - S(Phi^(rho)), always finite.

    Equals the mutual information of (Phi (x) Id_R)(rho_hat) for any
    purification rho_hat of rho: Phi^ is the complementary channel, whose
    output has the entropy of the purified joint output.
    """
    return finite(float(von_neumann_entropy(rho)) + coherent_information(phi, rho))


def coherent_information(phi: Channel, rho: DensityOperator) -> float:
    """I_c(Phi, rho) = S(Phi(rho)) - S(Phi^(rho)) = I(Phi, rho) - S(rho); at most S(rho) in modulus."""
    return output_entropy(phi, rho) - environment_entropy(phi, rho)


def output_entropy(phi: Channel, rho: PositiveOperator) -> float:
    return float(von_neumann_entropy(phi.apply(rho)))


def environment_entropy(phi: Channel, rho: PositiveOperator) -> float:
    """S(Phi^(rho)), the entropy the complementary channel outputs."""
    return float(von_neumann_entropy(_environment_state(phi, rho)))


class ChannelSequence:
    """Indexed family n -> Channel with index 0 the declared limit."""

    __slots__ = ("generator", "d_in", "d_out", "label")

    def __init__(self, generator, d_in: int, d_out: int, label: str = ""):
        self.generator = generator
        self.d_in = int(d_in)
        self.d_out = int(d_out)
        self.label = label

    def __call__(self, n: int) -> Channel:
        phi = self.generator(n)
        if phi.d_in != self.d_in or phi.d_out != self.d_out:
            raise ValueError(f"member {n} has dims {phi.d_in}->{phi.d_out}, expected {self.d_in}->{self.d_out}")
        return phi


def strong_convergence_probe(seq: ChannelSequence, probes, n_max: int) -> np.ndarray:
    """Grid of ||Phi_n(rho) - Phi_0(rho)||_1 over probes x n in [1, n_max]."""
    phi_0 = seq(0)
    grid = np.zeros((len(probes), n_max))
    for j, rho in enumerate(probes):
        ref = phi_0.apply(rho)
        for n in range(1, n_max + 1):
            grid[j, n - 1] = trace_norm_distance(seq(n).apply(rho), ref)
    return grid


def channel_to_json(phi: Channel) -> dict:
    return {
        "d_in": phi.d_in,
        "d_out": phi.d_out,
        "kraus": [
            {
                "re": np.real(k).tolist(),
                "im": np.imag(k).tolist(),
            }
            for k in phi.kraus
        ],
    }


def channel_from_json(obj: dict) -> Channel:
    ops = []
    for kj in obj["kraus"]:
        re = np.asarray(kj["re"], dtype=float)
        im = np.asarray(kj.get("im", np.zeros_like(re)), dtype=float)
        ops.append(re + 1j * im)
    phi = Channel(ops)
    if phi.d_in != obj["d_in"] or phi.d_out != obj["d_out"]:
        raise ValueError("declared channel dims do not match Kraus shapes")
    return phi
