"""Quantum channels in Kraus form with Choi and Stinespring views.

A Channel maps d_in to d_out via rho -> sum_i K_i rho K_i*.  The Choi matrix
lives on d_out x d_in, the complementary channel sends inputs to the minimal
Stinespring environment, and the channel mutual information uses the minimal
rank-of-rho purification so results are reproducible.
"""

from __future__ import annotations

import numpy as np

from .extreal import ExtendedReal
from .operators import (
    DensityOperator,
    PositiveOperator,
    purify,
    trace_norm_distance,
)
from .entropies import quantum_mutual_information, von_neumann_entropy

TP_TOL = 1e-9


class Channel:
    """Completely positive trace-preserving map given by Kraus operators."""

    __slots__ = ("d_in", "d_out", "kraus")

    def __init__(self, kraus):
        ops = [np.asarray(k, dtype=complex) for k in kraus]
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        d_out, d_in = ops[0].shape
        for k in ops:
            if k.shape != (d_out, d_in):
                raise ValueError(f"inconsistent Kraus shapes: {k.shape} vs {(d_out, d_in)}")
        gram = sum(k.conj().T @ k for k in ops)
        deficit = float(np.linalg.norm(gram - np.eye(d_in)))
        if deficit > TP_TOL:
            raise ValueError(f"channel is not trace preserving: deficit norm {deficit:.3e}")
        self.d_in = int(d_in)
        self.d_out = int(d_out)
        self.kraus = tuple(k.copy() for k in ops)

    def apply(self, rho: PositiveOperator) -> PositiveOperator:
        if rho.dim != self.d_in:
            raise ValueError(f"input dim {rho.dim} != channel d_in {self.d_in}")
        m = rho.matrix
        out = np.zeros((self.d_out, self.d_out), dtype=complex)
        for k in self.kraus:
            out += k @ m @ k.conj().T
        return PositiveOperator(out)

    def choi_rank(self) -> int:
        return reduced_kraus(self).__len__()

    def compose(self, inner: "Channel") -> "Channel":
        """self after inner: rho -> self(inner(rho))."""
        if inner.d_out != self.d_in:
            raise ValueError(f"cannot compose: inner d_out {inner.d_out} != d_in {self.d_in}")
        return Channel([a @ b for a in self.kraus for b in inner.kraus])

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
    d_in, d_out = phi.d_in, phi.d_out
    j = np.zeros((d_out * d_in, d_out * d_in), dtype=complex)
    for k in phi.kraus:
        # vec of (K (x) I)|Omega>: component (b, a) is K[b, a]
        v = k.reshape(d_out * d_in)
        j += np.outer(v, v.conj())
    return PositiveOperator(j)


def reduced_kraus(phi: Channel, rank_tol: float | None = None):
    """Linearly independent Kraus set recovered from the Choi eigendecomposition."""
    spec = choi_matrix(phi).spectrum()
    k = spec.rank_at(rank_tol)
    vecs = spec.vectors()[:, :k] * np.sqrt(spec.values[:k])
    return [vecs[:, i].reshape(phi.d_out, phi.d_in) for i in range(k)]


def complementary_channel(phi: Channel) -> Channel:
    """Channel to the environment of the minimal Stinespring dilation.

    With reduced Kraus {K_i}, the isometry is V|psi> = sum_i K_i|psi> (x) |i>,
    so the environment output is (Phi_c(rho))_{ij} = Tr(K_i rho K_j*); its
    Kraus operators are K~_l[i, :] = K_i[l, :] for l in range(d_out).
    """
    ks = reduced_kraus(phi)
    d_env = len(ks)
    comp = []
    for l in range(phi.d_out):
        kt = np.zeros((d_env, phi.d_in), dtype=complex)
        for i, k in enumerate(ks):
            kt[i, :] = k[l, :]
        comp.append(kt)
    return Channel(comp)


def channel_mutual_information(phi: Channel, rho: DensityOperator) -> ExtendedReal:
    """I(Phi, rho): mutual information of (Phi (x) Id_R)(rho_hat), minimal R."""
    if rho.dim != phi.d_in:
        raise ValueError(f"input dim {rho.dim} != channel d_in {phi.d_in}")
    rho_hat = purify(rho)
    d_r = rho_hat.dim // rho.dim
    ext = Channel([np.kron(k, np.eye(d_r)) for k in phi.kraus])
    out = ext.apply(rho_hat)
    return quantum_mutual_information(
        DensityOperator(out.matrix), phi.d_out, d_r
    )


def coherent_information(phi: Channel, rho: DensityOperator) -> float:
    """I_c(Phi, rho) = I(Phi, rho) - S(rho); bounded by S(rho) in modulus."""
    mi = channel_mutual_information(phi, rho)
    return float(mi) - float(von_neumann_entropy(rho))


def output_entropy(phi: Channel, rho: PositiveOperator) -> float:
    return float(von_neumann_entropy(phi.apply(rho)))


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
