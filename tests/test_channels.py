import math
import re
import warnings
from collections import Counter

import numpy as np
import pytest

from qdini import diagnostics
from qdini import (
    Channel,
    ChannelSequence,
    DensityOperator,
    FunctionalFamily,
    PositiveOperator,
    Scenario,
    builtin_scenario,
    channel_from_json,
    channel_mutual_information,
    channel_to_json,
    choi_matrix,
    coherent_information,
    complementary_channel,
    dense_materialization_count,
    depolarizing_channel,
    identity_channel,
    output_entropy,
    phase_damping_channel,
    purify,
    random_channel,
    random_density,
    random_unitary,
    reduced_kraus,
    run_scenario,
    strong_convergence_probe,
    von_neumann_entropy,
)

TOL = 1e-12


def entropy(m) -> float:
    """Plain-numpy S of a state matrix; eigenvalues below 1e-300 contribute 0."""
    lam = np.linalg.eigvalsh(m)
    lam = lam[lam > 1e-300]
    return float(-np.sum(lam * np.log(lam)))


def environment_entropy(phi, rho) -> float:
    """S(Phi^(rho)) with Phi^(rho)_ij = Tr K_i rho K_j* on phi's own Kraus set."""
    k = np.asarray(phi.kraus)
    return entropy(np.einsum("iab,bc,jac->ij", k, rho.matrix, k.conj()))


def mi_by_purification(phi, rho) -> float:
    """The oracle route: I(B:R) of (Phi (x) Id_R)(rho_hat) for the minimal purification rho_hat."""
    rho_hat = purify(rho).matrix
    d_r = rho_hat.shape[0] // rho.dim
    joint = np.zeros((phi.d_out * d_r, phi.d_out * d_r), dtype=complex)
    for k in phi.kraus:
        ext = np.kron(k, np.eye(d_r))
        joint += ext @ rho_hat @ ext.conj().T
    t = joint.reshape(phi.d_out, d_r, phi.d_out, d_r)
    return entropy(np.einsum("ikjk->ij", t)) + entropy(np.einsum("kikj->ij", t)) - entropy(joint)


@pytest.fixture
def eigensolves(monkeypatch):
    """Counts numpy's eigensolver calls and records the largest matrix each one saw."""
    counts = Counter()
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def counted(a, *args, _solver=solver, _name=name, **kwargs):
            counts[_name] += 1
            counts["max_dim"] = max(counts["max_dim"], int(np.shape(a)[-1]))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


class TestChannelBasics:
    def test_rejects_non_trace_preserving(self):
        with pytest.raises(ValueError):
            Channel([np.eye(2) * 0.5])

    def test_identity_acts_trivially(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng, 3)
        out = identity_channel(3).apply(rho)
        assert np.allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_apply_preserves_trace(self):
        rng = np.random.default_rng(1)
        phi = random_channel(rng, 3, 4, 2)
        rho = random_density(rng, 3)
        assert abs(phi.apply(rho).trace() - 1.0) < 1e-10

    def test_compose_matches_sequential_application(self):
        rng = np.random.default_rng(2)
        inner = random_channel(rng, 2, 3, 2)
        outer = random_channel(rng, 3, 2, 2)
        rho = random_density(rng, 2)
        a = outer.compose(inner).apply(rho)
        b = outer.apply(inner.apply(rho))
        assert np.allclose(a.matrix, b.matrix, atol=1e-12)

    def test_depolarizing_closed_form(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 2)
        p = 0.37
        out = depolarizing_channel(p).apply(rho)
        expect = (1 - p) * rho.matrix + p * np.eye(2) / 2
        assert np.allclose(out.matrix, expect, atol=1e-12)

    def test_phase_damping_kills_coherences(self):
        rho = DensityOperator(np.array([[0.5, 0.5], [0.5, 0.5]]))
        out = phase_damping_channel(1.0).apply(rho)
        assert abs(out.matrix[0, 1]) < 1e-12
        assert np.allclose(np.diag(out.matrix).real, [0.5, 0.5], atol=1e-12)


class TestChoiAndComplementary:
    def test_choi_of_identity_is_maximally_entangled(self):
        j = choi_matrix(identity_channel(2))
        vec = np.array([1, 0, 0, 1], dtype=complex)
        assert np.allclose(j.matrix, np.outer(vec, vec), atol=1e-14)

    def test_choi_rank_counts_independent_kraus(self):
        # redundant Kraus decomposition of the identity still has Choi rank 1
        k = np.eye(2) / math.sqrt(2)
        phi = Channel([k, k])
        assert phi.choi_rank() == 1
        assert depolarizing_channel(0.5).choi_rank() == 4

    def test_reduced_kraus_reproduces_channel(self):
        rng = np.random.default_rng(4)
        phi = random_channel(rng, 3, 3, 4)
        red = Channel(reduced_kraus(phi))
        rho = random_density(rng, 3)
        assert np.allclose(phi.apply(rho).matrix, red.apply(rho).matrix, atol=1e-10)

    def test_complementary_output_entropy_matches(self):
        # S(Phi_c(rho)) = S((Phi (x) Id)(rho_hat)) restricted to environment,
        # which for the minimal dilation equals the exchange entropy; for pure
        # inputs both output entropies agree
        rng = np.random.default_rng(5)
        phi = random_channel(rng, 3, 3, 3)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v /= np.linalg.norm(v)
        rho = DensityOperator(np.outer(v, v.conj()))
        s_out = output_entropy(phi, rho)
        s_env = output_entropy(complementary_channel(phi), rho)
        assert abs(s_out - s_env) < 1e-9


class TestInformationMeasures:
    def test_identity_channel_mi_doubles_entropy(self):
        rng = np.random.default_rng(6)
        rho = random_density(rng, 4)
        mi = float(channel_mutual_information(identity_channel(4), rho))
        assert abs(mi - 2.0 * float(von_neumann_entropy(rho))) < 1e-9

    def test_fully_depolarizing_mi_zero(self):
        rng = np.random.default_rng(7)
        rho = random_density(rng, 2)
        mi = float(channel_mutual_information(depolarizing_channel(1.0), rho))
        assert abs(mi) < 1e-9

    def test_mi_on_pure_input_is_zero(self):
        rng = np.random.default_rng(8)
        phi = random_channel(rng, 2, 2, 2)
        rho = DensityOperator(diagonal=[1.0, 0.0])
        assert abs(float(channel_mutual_information(phi, rho))) < 1e-9

    def test_coherent_information_bounds(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            phi = random_channel(rng, 3, 3, 2)
            rho = random_density(rng, 3)
            ic = coherent_information(phi, rho)
            s = float(von_neumann_entropy(rho))
            assert -s - 1e-9 <= ic <= s + 1e-9

    def test_identity_coherent_information_saturates(self):
        rng = np.random.default_rng(10)
        rho = random_density(rng, 3)
        ic = coherent_information(identity_channel(3), rho)
        assert abs(ic - float(von_neumann_entropy(rho))) < 1e-9


class TestSequencesAndJson:
    def test_strong_convergence_probe_shrinks(self):
        seq = ChannelSequence(lambda n: depolarizing_channel(0.0 if n == 0 else 1.0 / n), 2, 2)
        rng = np.random.default_rng(11)
        probes = [random_density(rng, 2) for _ in range(3)]
        grid = strong_convergence_probe(seq, probes, 8)
        assert grid.shape == (3, 8)
        assert np.all(np.diff(grid, axis=1) <= 1e-12)

    def test_sequence_dim_check(self):
        seq = ChannelSequence(lambda n: identity_channel(3), 2, 2)
        with pytest.raises(ValueError):
            seq(0)

    def test_json_round_trip(self):
        rng = np.random.default_rng(12)
        phi = random_channel(rng, 2, 3, 2)
        back = channel_from_json(channel_to_json(phi))
        rho = random_density(rng, 2)
        assert np.allclose(phi.apply(rho).matrix, back.apply(rho).matrix, atol=1e-12)

    def test_json_dim_mismatch(self):
        obj = channel_to_json(identity_channel(2))
        obj["d_in"] = 3
        with pytest.raises(ValueError):
            channel_from_json(obj)


def _states(rng, d):
    """A full-rank, a rank-deficient, a pure and a diagonal rank-deficient state on C^d."""
    u = random_unitary(rng, d)
    r = max(1, d - 1)
    lam = np.zeros(d)
    lam[:r] = rng.dirichlet(np.ones(r))
    diag = np.zeros(d)
    diag[rng.permutation(d)[:r]] = rng.dirichlet(np.ones(r))
    return {
        "full-rank": random_density(rng, d),
        "rank-deficient": DensityOperator((u * lam) @ u.conj().T),
        "pure": DensityOperator(np.outer(u[:, 0], u[:, 0].conj())),
        "diagonal": DensityOperator(diagonal=diag),
    }


def _channels(rng):
    out = {}
    for d_in, d_out in ((2, 3), (3, 2), (4, 3), (2, 5)):
        for k in range(1, 5):
            if d_out * k >= d_in:
                out[f"random {d_in}->{d_out} k={k}"] = random_channel(rng, d_in, d_out, k)
    iso = random_unitary(rng, 3)
    out["[K/sqrt2, K/sqrt2]"] = Channel([iso / math.sqrt(2), iso / math.sqrt(2)])
    twice = random_channel(rng, 3, 2, 2).kraus
    out["random 3->2 k=2 listed twice"] = Channel(np.concatenate([twice, twice]) / math.sqrt(2))
    out["composed 3->3 k=9"] = random_channel(rng, 3, 3, 3).compose(random_channel(rng, 3, 3, 3))
    out["composed 2->3->2 k=9"] = random_channel(rng, 3, 2, 3).compose(random_channel(rng, 2, 3, 3))
    return out


def _cases():
    rng = np.random.default_rng(2024)
    cases = []
    for phi_name, phi in _channels(rng).items():
        for rho_name, rho in _states(rng, phi.d_in).items():
            cases.append(pytest.param(phi, rho, id=f"{phi_name}, {rho_name}"))
    return cases


CASES = _cases()


def close(a, b) -> bool:
    return abs(float(a) - float(b)) <= TOL * max(1.0, abs(float(b)))


class TestThreeSpectraAgainstPurification:
    @pytest.mark.parametrize("phi, rho", CASES)
    def test_mutual_information(self, phi, rho):
        assert close(channel_mutual_information(phi, rho), mi_by_purification(phi, rho))

    @pytest.mark.parametrize("phi, rho", CASES)
    def test_coherent_information(self, phi, rho):
        expect = mi_by_purification(phi, rho) - entropy(rho.matrix)
        assert close(coherent_information(phi, rho), expect)

    @pytest.mark.parametrize("phi, rho", CASES)
    def test_complementary_output_is_the_environment_state(self, phi, rho):
        s_env = environment_entropy(phi, rho)
        assert close(output_entropy(complementary_channel(phi), rho), s_env)
        assert close(output_entropy(phi, rho) - coherent_information(phi, rho), s_env)


class TestMutualInformationCost:
    @pytest.mark.parametrize("d_in, d_out, k", [(4, 3, 5), (3, 5, 2), (2, 2, 1)])
    def test_dense_input_takes_two_small_eigensolves(self, eigensolves, d_in, d_out, k):
        rng = np.random.default_rng(d_in * 100 + d_out * 10 + k)
        phi = random_channel(rng, d_in, d_out, k)
        rho = random_density(rng, d_in)
        eigensolves.clear()
        channel_mutual_information(phi, rho)
        assert eigensolves["eigh"] + eigensolves["eigvalsh"] <= 2
        assert eigensolves["max_dim"] <= max(d_out, k)

    def test_composed_channel_stays_at_the_kraus_count(self, eigensolves):
        rng = np.random.default_rng(13)
        phi = random_channel(rng, 6, 6, 3).compose(random_channel(rng, 6, 6, 3))
        rho = random_density(rng, 6)
        eigensolves.clear()
        coherent_information(phi, rho)
        assert eigensolves["eigh"] + eigensolves["eigvalsh"] <= 2
        assert eigensolves["max_dim"] == 9

    def test_diagonal_input_is_never_materialized(self, eigensolves):
        rng = np.random.default_rng(14)
        phi = random_channel(rng, 4, 4, 3)
        rho = DensityOperator(diagonal=rng.dirichlet(np.ones(4)))
        before = dense_materialization_count()
        mi = channel_mutual_information(phi, rho)
        assert dense_materialization_count() == before
        assert eigensolves["eigh"] + eigensolves["eigvalsh"] <= 2
        dense = DensityOperator(np.diag(rho.diag))
        assert close(mi, channel_mutual_information(phi, dense))
        assert np.allclose(phi.apply(rho).matrix, phi.apply(dense).matrix, atol=1e-15)

    def test_choi_rank_reads_the_validation_spectrum(self, eigensolves):
        rng = np.random.default_rng(15)
        phi = random_channel(rng, 3, 3, 2)
        assert phi.choi_rank() == 2
        assert eigensolves == {"eigvalsh": 1, "max_dim": 9}


class TestKrausArray:
    def test_kraus_is_one_read_only_array(self):
        phi = depolarizing_channel(0.3)
        assert phi.kraus.shape == (4, 2, 2)
        with pytest.raises(ValueError):
            phi.kraus[0, 0, 0] = 1.0

    def test_rejects_inconsistent_shapes(self):
        with pytest.raises(ValueError):
            Channel([np.eye(2), np.eye(3)])
        with pytest.raises(ValueError):
            Channel([])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_entry(self, value):
        # the trace-preservation test reads a NaN deficit as passing, so such a channel used to build
        message = re.escape(f"Kraus operator 0 has a non-finite entry {complex(value, 0.0)} at (1, 0)")
        kraus = np.eye(2, dtype=complex)
        kraus[1, 0] = value
        obj = channel_to_json(identity_channel(2))
        obj["kraus"][0]["re"][1][0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                Channel([kraus])
            with pytest.raises(ValueError, match=message):
                channel_from_json(obj)

    def test_compose_lists_outer_kraus_first(self):
        rng = np.random.default_rng(16)
        inner = random_channel(rng, 2, 3, 2)
        outer = random_channel(rng, 3, 2, 3)
        expect = [a @ b for a in outer.kraus for b in inner.kraus]
        assert np.allclose(outer.compose(inner).kraus, expect, atol=1e-15)

    def test_choi_matrix_matches_the_vectorized_kraus_sum(self):
        rng = np.random.default_rng(17)
        phi = random_channel(rng, 2, 3, 3)
        expect = sum(np.outer(k.reshape(-1), k.reshape(-1).conj()) for k in phi.kraus)
        assert np.allclose(choi_matrix(phi).matrix, expect, atol=1e-15)


def _coherent_info_by_hand(kraus, rho) -> float:
    out = sum(k @ rho @ k.conj().T for k in kraus)
    env = np.array([[np.trace(ki @ rho @ kj.conj().T) for kj in kraus] for ki in kraus])
    return entropy(out) - entropy(env)


class TestCoherentInfoFamily:
    SCENARIO = {
        "name": "coherent-info-phase-damping",
        "sequences": {"rho": {"builder": "qubit-coherent", "params": {
            "a": 0.7, "c0": 0.3, "amp": 0.1, "rate": 0.5}}},
        "channels": {"pd": {"builder": "phase-damping-geometric", "params": {
            "gamma": 0.3, "amp": 0.2, "rate": 0.5}}},
        "families": {
            "f": {"kind": "entropy-plus-log", "k": 2},
            "ic": {"kind": "coherent-info", "channels": "pd"},
        },
        "checks": [
            {"op": "gap-grid", "family": "ic", "sequence": "rho", "n_max": 6, "m_max": 1},
            {"op": "dct-basic", "f": "f", "g": "ic", "sequence": "rho", "n_max": 6, "m_max": 2},
        ],
    }

    @staticmethod
    def member(n):
        """rho_n and the Kraus operators of Phi_n, written out from the builders' definitions."""
        c = 0.3 if n == 0 else 0.3 + 0.5 ** n * 0.1
        g = 0.3 if n == 0 else 0.3 + 0.5 ** n * 0.2
        rho = np.array([[0.7, c], [c, 0.3]])
        kraus = [np.array([[1.0, 0.0], [0.0, math.sqrt(1 - g)]]), np.array([[0.0, 0.0], [0.0, math.sqrt(g)]])]
        return rho, kraus

    def test_report_values_match_an_independent_computation(self):
        report = run_scenario(Scenario.from_json(self.SCENARIO), seed=0)
        assert report["all_matched"]
        ic = []
        cells = report["grids"][0]["grid"]["cells"]
        for n, cell in enumerate(cells):
            rho, kraus = self.member(n)
            lam, vec = np.linalg.eigh(rho)
            head, tail = np.outer(vec[:, 1], vec[:, 1]), np.outer(vec[:, 0], vec[:, 0])
            ic.append(_coherent_info_by_hand(kraus, rho))
            assert (cell["n"], cell["m"]) == (n, 1)
            assert close(cell["mu"], lam[1])
            assert close(cell["gap"], ic[n] - _coherent_info_by_hand(kraus, head))
            assert close(cell["tail"], lam[0] * _coherent_info_by_hand(kraus, tail))
        verdict = report["checks"][1]["verdict"]
        assert verdict["status"] in ("consistent", "inconclusive")
        g_trend = verdict["conclusion_trends"][1]
        assert g_trend["name"] == "|g_n(rho_n) - g_0(rho_0)|"
        for n, res in enumerate(g_trend["residuals"], start=1):
            assert close(res, abs(ic[n] - ic[0]))


class TestChannelSequenceMemo:
    """A ChannelSequence builds each member once, however often a check reads it."""

    @pytest.mark.parametrize("name, n_max", [("choi-rank-bound", 12), ("channel-mi-depolarizing", 12)])
    def test_builtin_builds_each_channel_once(self, monkeypatch, name, n_max):
        calls = Counter()
        init = ChannelSequence.__init__

        def counted_init(self, generator, *args, **kwargs):
            def counted(n):
                calls[n] += 1
                return generator(n)

            init(self, counted, *args, **kwargs)

        monkeypatch.setattr(ChannelSequence, "__init__", counted_init)
        report = run_scenario(builtin_scenario(name), seed=0)
        assert report["all_matched"] and len(report["checks"]) == 1
        assert calls == {n: 1 for n in range(n_max + 1)}

    def test_member_is_the_same_object(self):
        seq = ChannelSequence(lambda n: depolarizing_channel(0.5 ** (n + 1)), 2, 2)
        assert seq(3) is seq(3)


class TestOutputEntropyTails:
    """The output-entropy tails of ``channel_mi_checks`` go through ``_cut_values``, tails only."""

    @staticmethod
    def counted_cuts(monkeypatch):
        calls = Counter()
        split, compress = PositiveOperator.split, diagnostics.compress

        def counted_compress(rho, p):
            calls["compress", p.rank] += 1
            return compress(rho, p)

        monkeypatch.setattr(PositiveOperator, "split", lambda rho, k: calls.update(["split"]) or split(rho, k))
        monkeypatch.setattr(diagnostics, "compress", counted_compress)
        return calls

    def test_own_spectrum_takes_the_rows_path(self, monkeypatch):
        calls = self.counted_cuts(monkeypatch)
        assert run_scenario(builtin_scenario("channel-mi-depolarizing"), seed=0)["all_matched"]
        # a commuting schedule: every head and tail is read off one rows call, none is built
        assert not calls

    def test_other_basis_compresses_only_the_tails(self, monkeypatch):
        sc = builtin_scenario("channel-mi-depolarizing").to_json()
        sc["checks"][0]["schedule"] = {"type": "fixed-basis", "m_max": 2}
        calls = self.counted_cuts(monkeypatch)
        run_scenario(Scenario.from_json(sc), seed=0)
        # diagonal members on the coordinate basis: one rows window, no cut is built
        assert not calls
        # the per-cell form: P^n_m is the first m of 2 coordinates, so Pbar has rank 2 - m; no head is built
        # (and the whole values S(Phi_n(rho_n)) split each rho_n at its rank)
        make = diagnostics.output_entropy_family
        monkeypatch.setattr(diagnostics, "output_entropy_family", lambda *args: FunctionalFamily(
            *(getattr(make(*args), name) for name in ("kind", "label", "value", "a_f", "b_f"))))
        run_scenario(Scenario.from_json(sc), seed=0)
        assert calls == {("compress", 1): 13, ("compress", 0): 13, "split": 13}
