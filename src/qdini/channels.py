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

Both maps are linear, so on the heads and tails of a spectral window
(``SpectralCuts``) the outputs are cumulative sums of the images of the
basis vectors' rank-one projectors, and the window forms below read all
their spectra off one stacked eigensolve.
"""

from __future__ import annotations

import numpy as np

from .extreal import finite
from .operators import (
    DensityOperator,
    PositiveOperator,
    positive_eigenvalues,
    solve_bases,
    trace_norm_distance,
)
from .entropies import SpectralCuts, entropy_cuts, entropy_of_diagonals, von_neumann_entropy

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
        if not np.isfinite(ops).all():
            k, i, j = np.argwhere(~np.isfinite(ops))[0]
            raise ValueError(f"Kraus operator {k} has a non-finite entry {ops[k, i, j]} at ({i}, {j})")
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


def reduced_kraus(phi: Channel) -> np.ndarray:
    """Linearly independent Kraus set, stacked (k, d_out, d_in), from the Choi eigendecomposition."""
    spec = choi_matrix(phi).spectrum()
    k = spec.rank
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


def channel_mutual_information(phi: Channel, rho: DensityOperator) -> float:
    """I(Phi, rho) = S(rho) + S(Phi(rho)) - S(Phi^(rho)), always finite.

    Equals the mutual information of (Phi (x) Id_R)(rho_hat) for any
    purification rho_hat of rho: Phi^ is the complementary channel, whose
    output has the entropy of the purified joint output.
    """
    return finite(von_neumann_entropy(rho) + coherent_information(phi, rho))


def coherent_information(phi: Channel, rho: DensityOperator) -> float:
    """I_c(Phi, rho) = S(Phi(rho)) - S(Phi^(rho)) = I(Phi, rho) - S(rho); at most S(rho) in modulus."""
    return output_entropy(phi, rho) - environment_entropy(phi, rho)


def output_entropy(phi: Channel, rho: PositiveOperator) -> float:
    return von_neumann_entropy(phi.apply(rho))


def environment_entropy(phi: Channel, rho: PositiveOperator) -> float:
    """S(Phi^(rho)), the entropy the complementary channel outputs."""
    return von_neumann_entropy(_environment_state(phi, rho))


def output_entropy_cuts(cuts: SpectralCuts, channels) -> np.ndarray:
    """``output_entropy(channels[j], X)`` of every head and tail X of row j of ``cuts``."""
    out, _ = _cut_spectra(cuts, channels, cuts.scale, environment=False)
    return entropy_of_diagonals(out)


def coherent_information_cuts(cuts: SpectralCuts, channels) -> np.ndarray:
    """Tr X * I_c(Phi_j, [X]) of every head and tail X of row j of ``cuts``, 0 where X vanishes."""
    s_out, s_env = _normalized_output_entropies(cuts, channels, _unit(cuts))
    return _homogeneous_cuts(cuts, s_out - s_env)


def channel_mi_cuts(cuts: SpectralCuts, channels) -> np.ndarray:
    """Tr X * I(Phi_j, [X]) of every head and tail X of row j of ``cuts``, 0 where X vanishes."""
    unit = _unit(cuts)
    s_out, s_env = _normalized_output_entropies(cuts, channels, unit)
    return _homogeneous_cuts(cuts, entropy_cuts(cuts, unit) + (s_out - s_env))


def _unit(cuts: SpectralCuts) -> np.ndarray:
    """1 / Tr X of every cut X before its scale, 0 for an empty cut."""
    unit = np.zeros_like(cuts.mass)
    np.divide(1.0, cuts.mass, out=unit, where=cuts.mass > 0.0)
    return unit


def _homogeneous_cuts(cuts: SpectralCuts, state_values: np.ndarray) -> np.ndarray:
    """The homogeneous extension Tr X * f([X]) from the values f([X]) of the normalized cuts, 0 where X vanishes."""
    return np.where(cuts.vanishing, 0.0, state_values * (cuts.scale * cuts.mass))


def _normalized_output_entropies(cuts: SpectralCuts, channels, unit: np.ndarray) -> tuple:
    """S(Phi_j([X])) and S(Phi^_j([X])) of every head and tail X of row j of ``cuts``."""
    out, env = _cut_spectra(cuts, channels, unit, environment=True)
    kraus_counts = [[len(phi.kraus)] for phi in channels]
    return entropy_of_diagonals(out, channels[0].d_out), entropy_of_diagonals(env, kraus_counts)


def _cut_spectra(cuts: SpectralCuts, channels, scale: np.ndarray, environment: bool) -> tuple:
    """Spectra of Phi_j(c X) and, with ``environment``, of Phi^_j(c X) for every head and tail X of row j, c = ``scale``.

    Each output is the cumulative sum, weighted by the kept values, of
    the images of row j's rank-one projectors u_i u_i*.  Every output of
    the window enters one ``positive_eigenvalues`` call; with the
    environment states, both kinds are zero-padded to one common size,
    which adds zeros to each spectrum, so only the leading d_out or k_j
    values of a spectrum are its own.  Returns (outputs, environments or
    None), each of shape (2, N, M, size), size = d_out without the
    environments.
    """
    images = _rank_one_images(cuts.spectra, channels, environment)
    d_out = images[0].shape[-1]
    flat = np.concatenate([x.reshape(x.shape[:2] + (-1,)) for x in images], axis=-1)
    sums = cuts.sums(cuts.values[..., None] * flat) * scale[..., None]
    window = sums.shape[:-1]
    out = sums[..., :d_out * d_out].reshape(window + (d_out, d_out))
    if not environment:
        return positive_eigenvalues(out), None
    k_max = images[1].shape[-1]
    size = max(d_out, k_max)
    stack = np.zeros((2,) + window + (size, size), dtype=complex)
    stack[0, ..., :d_out, :d_out] = out
    stack[1, ..., :k_max, :k_max] = sums[..., d_out * d_out:].reshape(window + (k_max, k_max))
    out_spectra, env_spectra = positive_eigenvalues(stack)
    return out_spectra, env_spectra


def _rank_one_images(spectra, channels, environment: bool) -> tuple:
    """Phi_j(u_i u_i*), and with ``environment`` Phi^_j(u_i u_i*), for every basis vector u_i of spectra[j].

    The bases of ``spectra`` are solved in one call.  Shapes
    (N, d_in, d_out, d_out) and (N, d_in, k, k).  Every Kraus set
    is zero-padded to the largest count k, which pads each environment
    state with zeros.  With w_a = K_a u_i, Phi(u_i u_i*) = sum_a w_a w_a*
    and Phi^(u_i u_i*)_ab = <w_b, w_a>.
    """
    d_in = channels[0].d_in
    for spec in spectra:
        if spec.values.size != d_in:
            raise ValueError(f"input dim {spec.values.size} != channel d_in {d_in}")
    solve_bases(spectra)
    kraus = np.zeros((len(channels), max(len(phi.kraus) for phi in channels), channels[0].d_out, d_in), dtype=complex)
    for j, phi in enumerate(channels):
        kraus[j, :len(phi.kraus)] = phi.kraus
    w = kraus @ np.stack([spec.vectors() for spec in spectra])[:, None]  # w[j, a, :, i] = K_a u_i
    by_output = w.transpose(0, 3, 2, 1)  # [j, i, b, a]
    images = (by_output @ by_output.conj().swapaxes(-1, -2),)
    if environment:
        by_kraus = w.transpose(0, 3, 1, 2)  # [j, i, a, b]
        images += (by_kraus @ by_kraus.conj().swapaxes(-1, -2),)
    return images


class ChannelSequence:
    """Indexed family n -> Channel with index 0 the declared limit.

    Channels are immutable, so each member is built once and kept.
    """

    __slots__ = ("generator", "d_in", "d_out", "label", "_cache")

    def __init__(self, generator, d_in: int, d_out: int, label: str = ""):
        self.generator = generator
        self.d_in = int(d_in)
        self.d_out = int(d_out)
        self.label = label
        self._cache = {}

    def __call__(self, n: int) -> Channel:
        if n not in self._cache:
            phi = self.generator(n)
            if phi.d_in != self.d_in or phi.d_out != self.d_out:
                raise ValueError(f"member {n} has dims {phi.d_in}->{phi.d_out}, expected {self.d_in}->{self.d_out}")
            self._cache[n] = phi
        return self._cache[n]


def strong_convergence_probe(seq: ChannelSequence, probes, n_max: int) -> np.ndarray:
    """Grid of ||Phi_n(rho) - Phi_0(rho)||_1 over probes x n in [1, n_max]."""
    phi_0 = seq(0)
    grid = np.zeros((len(probes), n_max))
    for j, rho in enumerate(probes):
        ref = phi_0.apply(rho)
        for n in range(1, n_max + 1):
            grid[j, n - 1] = trace_norm_distance(seq(n).apply(rho), ref)
    return grid
