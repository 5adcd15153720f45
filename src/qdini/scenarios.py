"""Built-in scenarios, declarative scenario files, fuzzing and reports.

Scenarios are declarative: sequences and channels are named constructors
with parameter objects, so a scenario serializes to JSON and round-trips to
an equal Scenario.  Reports are canonical JSON (sorted keys, no wall-clock
timing inside the payload) so a rerun with the same seed is byte-identical.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics as dx
from .channels import (
    Channel,
    ChannelSequence,
    choi_matrix,
    depolarizing_channel,
    environment_entropy,
    identity_channel,
    output_entropy,
    phase_damping_channel,
)
from .entropies import (
    binary_entropy,
    check_entropy_subadditivity_pair,
    compressed_entropy_pair,
    regularized_log_ladder,
    relative_entropy,
    trace_neg_log,
    von_neumann_entropy,
)
from .extreal import ExtendedReal
from .operators import (
    DensityOperator,
    PositiveOperator,
    Projector,
    partial_trace,
    tensor,
    trace_norm_distance,
)
from .truncation import (
    ApproximationScheme,
    OperatorSequence,
    commuting_schedule,
    fixed_basis_schedule,
    spectral_truncation,
)
from .verdicts import (
    CONSISTENT,
    INCONCLUSIVE,
    CheckResult,
    TrendSummary,
    Verdict,
    dumps_canonical,
    residual_shrinks,
)

TOOL_VERSION = "0.1.0"
DEFAULT_BUDGET = 2e10


class ScenarioError(Exception):
    """Raised for unknown names, schema violations and budget refusals."""


# ---------------------------------------------------------------------------
# Sequence constructors (declarative, deterministic)


def _geometric_state(dim: int, ratio: float) -> np.ndarray:
    lam = ratio ** np.arange(dim)
    return lam / lam.sum()


def _seq_entropy_discontinuity(params) -> OperatorSequence:
    """Diagonal family with p_n ln d_n = 1: trace distance -> 0, entropy jumps.

    rho_0 is uniform on the first 9 coordinates; rho_n mixes in a uniform
    block of dimension d_n = ceil(e^n) on disjoint coordinates with weight
    p_n = 1 / ln d_n.
    """
    n_cap = int(params.get("n_cap", 6))
    base_dim = int(params.get("base_dim", 9))
    d_cap = math.ceil(math.exp(n_cap))
    dim = base_dim + d_cap

    def gen(n):
        diag = np.zeros(dim)
        if n == 0:
            diag[:base_dim] = 1.0 / base_dim
            return DensityOperator(diagonal=diag)
        if n > n_cap:
            raise ScenarioError(f"index {n} beyond the window cap {n_cap}")
        d_n = math.ceil(math.exp(n))
        p_n = 1.0 / math.log(d_n)
        diag[:base_dim] = (1.0 - p_n) / base_dim
        diag[base_dim:base_dim + d_n] = p_n / d_n
        return DensityOperator(diagonal=diag)

    return OperatorSequence(gen, dim, "entropy-discontinuity")


def _seq_truncated_thermal(params) -> OperatorSequence:
    """tau_n = normalized top-(2+n) truncation of a geometric-spectrum state."""
    dim = int(params.get("dim", 16))
    ratio = float(params.get("ratio", 0.5))
    offset = int(params.get("offset", 2))
    tau_0 = _geometric_state(dim, ratio)

    def gen(n):
        if n == 0:
            return DensityOperator(diagonal=tau_0)
        r = min(dim, offset + n)
        diag = np.zeros(dim)
        diag[:r] = tau_0[:r] / tau_0[:r].sum()
        return DensityOperator(diagonal=diag)

    return OperatorSequence(gen, dim, "truncated-thermal")


def _seq_simon_compressed(params) -> OperatorSequence:
    """rho_n = (1 - 2^-n) [P_h tau_0] + 2^-n tau_n, dominated by tau_n at c = 1/2.

    The head rank h is capped at the truncation rank of tau_n so the support
    of rho_n never leaves the support of tau_n.
    """
    dim = int(params.get("dim", 16))
    ratio = float(params.get("ratio", 0.5))
    offset = int(params.get("offset", 2))
    head = int(params.get("head", 8))
    thermal = _seq_truncated_thermal({"dim": dim, "ratio": ratio, "offset": offset})
    tau_0 = thermal(0).diag

    def head_state(h):
        base = np.zeros(dim)
        base[:h] = tau_0[:h] / tau_0[:h].sum()
        return base

    def gen(n):
        if n == 0:
            return DensityOperator(diagonal=head_state(head))
        eps = 0.5 ** n
        h = min(head, min(dim, offset + n))
        return DensityOperator(diagonal=(1.0 - eps) * head_state(h) + eps * thermal(n).diag)

    return OperatorSequence(gen, dim, "simon-compressed")


def _seq_diag_perturbed(params) -> OperatorSequence:
    """op_n = base + rate^n * pert (diagonal); the limit at n = 0 is base itself."""
    base = np.asarray(params["base"], dtype=float)
    pert = np.asarray(params["pert"], dtype=float)
    rate = float(params.get("rate", 0.5))

    def gen(n):
        if n == 0:
            return PositiveOperator(diagonal=base)
        return PositiveOperator(diagonal=base + rate ** n * pert)

    return OperatorSequence(gen, base.size, "diag-perturbed")


def _seq_diag_planted_limit(params) -> OperatorSequence:
    """Members base + rate^n * pert but a deliberately different declared limit."""
    limit = np.asarray(params["limit"], dtype=float)
    base = np.asarray(params["base"], dtype=float)
    pert = np.asarray(params["pert"], dtype=float)
    rate = float(params.get("rate", 0.5))

    def gen(n):
        if n == 0:
            return PositiveOperator(diagonal=limit)
        return PositiveOperator(diagonal=base + rate ** n * pert)

    return OperatorSequence(gen, base.size, "diag-planted-limit")


def _seq_diag_oscillating(params) -> OperatorSequence:
    """Non-convergent control: base + pert on odd n, base on even n."""
    base = np.asarray(params["base"], dtype=float)
    pert = np.asarray(params["pert"], dtype=float)

    def gen(n):
        if n % 2 == 1:
            return PositiveOperator(diagonal=base + pert)
        return PositiveOperator(diagonal=base)

    return OperatorSequence(gen, base.size, "diag-oscillating")


def _seq_constant_diag(params) -> OperatorSequence:
    diag = np.asarray(params["diag"], dtype=float)

    def gen(n):
        return PositiveOperator(diagonal=diag)

    return OperatorSequence(gen, diag.size, "constant-diag")


def _seq_qubit_coherent(params) -> OperatorSequence:
    """Real qubit states [[a, c_n], [c_n, 1-a]] with c_n = c0 + rate^n * amp."""
    a = float(params.get("a", 0.7))
    c0 = float(params.get("c0", 0.3))
    amp = float(params.get("amp", 0.1))
    rate = float(params.get("rate", 0.5))

    def gen(n):
        c = c0 if n == 0 else c0 + rate ** n * amp
        return DensityOperator(np.array([[a, c], [c, 1.0 - a]]))

    return OperatorSequence(gen, 2, "qubit-coherent")


SEQUENCE_BUILDERS = {
    "entropy-discontinuity-states": _seq_entropy_discontinuity,
    "truncated-thermal": _seq_truncated_thermal,
    "simon-compressed": _seq_simon_compressed,
    "diag-perturbed": _seq_diag_perturbed,
    "diag-planted-limit": _seq_diag_planted_limit,
    "diag-oscillating": _seq_diag_oscillating,
    "constant-diag": _seq_constant_diag,
    "qubit-coherent": _seq_qubit_coherent,
}


def _chan_depolarizing_inverse(params) -> ChannelSequence:
    """Phi_n = qubit depolarizing with p = 1/n; Phi_0 = identity."""

    def gen(n):
        if n == 0:
            return depolarizing_channel(0.0)
        return depolarizing_channel(1.0 / n)

    return ChannelSequence(gen, 2, 2, "depolarizing-1/n")


def _chan_phase_damping(params) -> ChannelSequence:
    gamma = float(params.get("gamma", 0.3))
    amp = float(params.get("amp", 0.2))
    rate = float(params.get("rate", 0.5))

    def gen(n):
        g = gamma if n == 0 else gamma + rate ** n * amp
        return phase_damping_channel(g)

    return ChannelSequence(gen, 2, 2, "phase-damping")


def _chan_identity(params) -> ChannelSequence:
    dim = int(params.get("dim", 2))

    def gen(n):
        return identity_channel(dim)

    return ChannelSequence(gen, dim, dim, "identity")


CHANNEL_BUILDERS = {
    "depolarizing-inverse-n": _chan_depolarizing_inverse,
    "phase-damping-geometric": _chan_phase_damping,
    "constant-identity": _chan_identity,
}


# ---------------------------------------------------------------------------
# Scenario model


@dataclass(frozen=True)
class Scenario:
    name: str
    sequences: dict = field(default_factory=dict)   # name -> {"builder", "params"}
    channels: dict = field(default_factory=dict)    # name -> {"builder", "params"}
    families: dict = field(default_factory=dict)    # name -> {"kind", ...refs}
    checks: tuple = ()                              # check invocation dicts
    diagonal: bool = False
    version: int = 1

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "name": self.name,
            "diagonal": self.diagonal,
            "sequences": self.sequences,
            "channels": self.channels,
            "families": self.families,
            "checks": list(self.checks),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Scenario":
        if not isinstance(obj, dict) or "name" not in obj:
            raise ScenarioError("scenario file must be a JSON object with a 'name' field")
        if int(obj.get("version", 1)) != 1:
            raise ScenarioError(f"unsupported scenario version {obj.get('version')!r}")
        for sec in ("sequences", "channels"):
            for key, spec in obj.get(sec, {}).items():
                if "builder" not in spec:
                    raise ScenarioError(f"{sec}.{key} is missing the 'builder' field")
        return cls(
            name=obj["name"],
            sequences=obj.get("sequences", {}),
            channels=obj.get("channels", {}),
            families=obj.get("families", {}),
            checks=tuple(obj.get("checks", [])),
            diagonal=bool(obj.get("diagonal", False)),
            version=int(obj.get("version", 1)),
        )


def load_scenario(path: str) -> Scenario:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    scenario = Scenario.from_json(obj)
    _resolve_bindings(scenario)  # fail fast on unknown builders or refs
    return scenario


def _resolve_bindings(scenario: Scenario):
    seqs = {}
    for key, spec in scenario.sequences.items():
        builder = SEQUENCE_BUILDERS.get(spec["builder"])
        if builder is None:
            raise ScenarioError(f"unknown sequence builder {spec['builder']!r} for binding {key!r}")
        seqs[key] = builder(spec.get("params", {}))
    chans = {}
    for key, spec in scenario.channels.items():
        builder = CHANNEL_BUILDERS.get(spec["builder"])
        if builder is None:
            raise ScenarioError(f"unknown channel builder {spec['builder']!r} for binding {key!r}")
        chans[key] = builder(spec.get("params", {}))
    fams = {}
    for key, spec in scenario.families.items():
        fams[key] = _build_family(spec, seqs, chans)
    return seqs, chans, fams


def _build_family(spec: dict, seqs: dict, chans: dict) -> dx.FunctionalFamily:
    kind = spec.get("kind")
    if kind == "entropy":
        return dx.entropy_family()
    if kind == "entropy-plus-log":
        k = int(spec["k"])
        shift = math.log(k)
        ent = dx.entropy_family()
        return dx.FunctionalFamily(
            "EntropyPlusLog", f"S + ln {k}",
            lambda n, op: ent.value(n, op) + shift * op.trace(),
            a_f=dx.ZERO_MODULUS, b_f=dx.H2_MODULUS)
    if kind == "relative-entropy":
        return dx.relative_entropy_family(_ref(seqs, spec, "sigma"))
    if kind == "trace-neg-log":
        return dx.trace_neg_log_family(_ref(seqs, spec, "sigma"))
    if kind == "channel-mi":
        return dx.channel_mi_family(_ref(chans, spec, "channels"))
    if kind == "coherent-info":
        return dx.coherent_info_family(_ref(chans, spec, "channels"))
    if kind == "output-entropy":
        return dx.output_entropy_family(_ref(chans, spec, "channels"))
    raise ScenarioError(f"unknown family kind {kind!r}")


def _ref(table: dict, spec: dict, key: str):
    name = spec.get(key)
    if name not in table:
        raise ScenarioError(f"family references missing binding {name!r} via {key!r}")
    return table[name]


# ---------------------------------------------------------------------------
# Check execution


def _p_sequence(params: dict, n_max: int):
    if "p_list" in params:
        p = [float(x) for x in params["p_list"]]
        if len(p) < n_max + 1:
            raise ScenarioError(f"p_list needs {n_max + 1} entries")
        return p[:n_max + 1]
    limit = float(params.get("p_limit", 0.5))
    amp = float(params.get("p_amp", 0.0))
    rate = float(params.get("p_rate", 0.5))
    return [limit] + [limit + amp * rate ** n for n in range(1, n_max + 1)]


def _build_schedule(spec, seqs, default_seq, n_max):
    kind = spec.get("type", "commuting")
    seq = seqs[spec["sequence"]] if "sequence" in spec else default_seq
    m_max = int(spec.get("m_max", seq.dim))
    if kind == "fixed-basis":
        return fixed_basis_schedule(seq.dim, m_max, seq, n_max=n_max)
    if kind == "commuting":
        return commuting_schedule(seq, m_max, n_max)
    raise ScenarioError(f"unknown schedule type {kind!r}")


def _run_check(check: dict, seqs, chans, fams, n_override, m_override):
    op = check.get("op")
    params = dict(check)
    n_max = int(n_override if n_override is not None else params.get("n_max", 12))
    m_max_default = params.get("m_max", 12)
    m_max = int(m_override if m_override is not None else m_max_default)
    grid = None
    if op == "truncation-criterion":
        family = fams[params["family"]]
        seq = seqs[params["sequence"]]
        schedule = _build_schedule(params.get("schedule", {}), seqs, seq, n_max)
        verdict = dx.truncation_criterion(family, seq, schedule,
                                          int(params.get("n_0", 1)), n_max, m_max)
    elif op == "dct-simon":
        verdict = dx.check_dct_simon(fams[params["family"]], seqs[params["rho"]],
                                     seqs[params["tau"]], float(params.get("c", 0.5)),
                                     n_max, m_max)
    elif op == "dct-basic":
        verdict = dx.check_dct_basic(fams[params["f"]], fams[params["g"]],
                                     seqs[params["sequence"]], n_max, m_max)
    elif op == "convex-mixture":
        verdict = dx.check_convex_mixture(fams[params["family"]], seqs[params["rho"]],
                                          seqs[params["sigma"]], _p_sequence(params, n_max),
                                          n_max, m_max)
    elif op == "re-domination":
        verdict = dx.relative_entropy_domination(
            seqs[params["rho1"]], seqs[params["rho2"]],
            seqs[params["sigma1"]], seqs[params["sigma2"]],
            float(params.get("c_rho", 1.0)), float(params.get("c_sigma", 1.0)), n_max)
    elif op == "re-sum":
        theta = seqs[params["theta"]] if "theta" in params else None
        verdict = dx.relative_entropy_sum(seqs[params["rho"]], seqs[params["sigma"]],
                                          seqs[params["omega"]], n_max, theta_seq=theta)
    elif op == "channel-mi":
        schedule = None
        if "schedule" in params:
            schedule = _build_schedule(params["schedule"], seqs, seqs[params["rho"]], n_max)
        verdict = dx.channel_mi_checks(chans[params["channels"]], seqs[params["rho"]],
                                       seqs[params["sigma"]], float(params.get("c", 0.5)),
                                       _p_sequence(params, n_max), n_max, m_max,
                                       schedule=schedule)
    elif op == "appendix-domination":
        verdict = dx.appendix_domination(seqs[params["rho1"]], seqs[params["rho2"]],
                                         seqs[params["sigma1"]], seqs[params["sigma2"]],
                                         params.get("k_schedule", [1, 10, 100, 1000, 10000]),
                                         n_max)
    elif op == "entropy-jump-probe":
        verdict = _entropy_jump_probe(seqs[params["sequence"]], n_max,
                                      float(params.get("low", 0.9)),
                                      float(params.get("high", 1.1)),
                                      int(params.get("n_from", 3)))
    elif op == "gap-grid":
        family = fams[params["family"]]
        seq = seqs[params["sequence"]]
        scheme = _build_scheme(params.get("scheme", {}), seqs)
        grid = dx.approximation_gap_grid(family, seq, scheme, n_max, m_max)
        verdict = None
    else:
        raise ScenarioError(f"unknown check op {op!r}")
    return verdict, grid


def _build_scheme(spec: dict, seqs) -> ApproximationScheme:
    kind = spec.get("kind", "spectral")
    if kind == "spectral":
        return ApproximationScheme("spectral")
    return ApproximationScheme("dominated", float(spec.get("c", 1.0)), seqs[spec["dominated"]])


def _entropy_jump_probe(seq: OperatorSequence, n_max: int, low: float, high: float,
                        n_from: int) -> Verdict:
    """Trace distances shrink while the entropy gap sits inside [low, high]."""
    rho_0 = seq(0)
    s_0 = float(von_neumann_entropy(rho_0))
    distances = []
    gaps = []
    for n in range(1, n_max + 1):
        rho = seq(n)
        distances.append(trace_norm_distance(rho, rho_0))
        gaps.append(float(von_neumann_entropy(rho)) - s_0)
    dist_trend = TrendSummary.from_residuals("trace distance to the declared limit", distances)
    window = gaps[n_from - 1:]
    in_band = all(low <= g <= high for g in window)
    checks = (
        CheckResult(f"entropy gap within [{low}, {high}] for n >= {n_from}", in_band,
                    min((g - low for g in window), default=0.0)),
    )
    status = CONSISTENT if dist_trend.shrinks and in_band else INCONCLUSIVE
    return Verdict("entropy-jump-probe", status,
                   hypothesis_checks=checks, conclusion_trends=(dist_trend,),
                   trend_only=True,
                   values={"distances": distances, "entropy_gaps": gaps})


# ---------------------------------------------------------------------------
# Budget guard


def estimate_flops(scenario: Scenario) -> float:
    seqs, _, _ = _resolve_bindings(scenario)
    total = 0.0
    for check in scenario.checks:
        dims = [seqs[v].dim for v in check.values() if isinstance(v, str) and v in seqs]
        dim = max(dims, default=2)
        cost_dim = dim if scenario.diagonal else dim ** 3
        n_max = int(check.get("n_max", 12))
        m_max = int(check.get("m_max", 12))
        total += cost_dim * (n_max + 1) * (m_max + 1) * 8.0
    return total


def _budget() -> float:
    raw = os.environ.get("QDINI_BUDGET")
    return float(raw) if raw else DEFAULT_BUDGET


# ---------------------------------------------------------------------------
# Reports


def run_scenario(scenario: Scenario, seed: int = 0, n_max=None, m_max=None) -> dict:
    estimate = estimate_flops(scenario)
    cap = _budget()
    if estimate > cap:
        raise ScenarioError(
            f"estimated cost {estimate:.3e} flops exceeds the budget {cap:.3e}; "
            "raise QDINI_BUDGET to override")
    seqs, chans, fams = _resolve_bindings(scenario)
    checks_out = []
    grids_out = []
    all_matched = True
    for check in scenario.checks:
        verdict, grid = _run_check(check, seqs, chans, fams, n_max, m_max)
        entry = {"op": check.get("op"), "name": check.get("name", check.get("op"))}
        if grid is not None:
            grids_out.append({"check": entry["name"], "grid": grid.to_json()})
        if verdict is not None:
            expected = check.get("expected")
            matched = expected is None or verdict.status == expected
            all_matched = all_matched and matched
            entry.update({
                "expected": expected,
                "matched": matched,
                "verdict": verdict.to_json(),
            })
        checks_out.append(entry)
    report = {
        "tool": "qdini",
        "version": TOOL_VERSION,
        "scenario": scenario.name,
        "seed": int(seed),
        "threads": os.environ.get("QDINI_THREADS", ""),
        "checks": checks_out,
        "grids": grids_out,
        "all_matched": all_matched,
    }
    return report


def report_to_csv(report: dict) -> str:
    lines = []
    if report.get("grids"):
        lines.append("check,n,m,mu,gap,tail,flags")
        for entry in report["grids"]:
            for row in entry["grid"]["cells"]:
                lines.append(f"{entry['check']},{row['n']},{row['m']},{row['mu']},{row['gap']},{row['tail']},{row['flags']}")
    else:
        lines.append("check,status,expected,matched")
        for entry in report["checks"]:
            if "verdict" in entry:
                lines.append(f"{entry['name']},{entry['verdict']['status']},{entry.get('expected')},{entry['matched']}")
    return "\n".join(lines) + "\n"


def report_to_json(report: dict) -> str:
    return dumps_canonical(report)


# ---------------------------------------------------------------------------
# Built-in scenario registry


def _builtin_entropy_discontinuity() -> Scenario:
    return Scenario(
        name="entropy-discontinuity",
        diagonal=True,
        sequences={"states": {"builder": "entropy-discontinuity-states", "params": {"n_cap": 6}}},
        families={"S": {"kind": "entropy"}},
        checks=(
            {"op": "entropy-jump-probe", "sequence": "states", "n_max": 6,
             "low": 0.9, "high": 1.1, "n_from": 3, "expected": "consistent"},
            {"op": "truncation-criterion", "family": "S", "sequence": "states",
             "schedule": {"type": "fixed-basis", "m_max": 413}, "n_0": 1,
             "n_max": 6, "m_max": 12, "expected": "inconclusive"},
        ),
    )


def _builtin_simon_dct() -> Scenario:
    return Scenario(
        name="simon-dct",
        diagonal=True,
        sequences={
            "tau": {"builder": "truncated-thermal", "params": {"dim": 16, "ratio": 0.5, "offset": 2}},
            "rho": {"builder": "simon-compressed", "params": {"dim": 16, "ratio": 0.5, "offset": 2, "head": 8}},
        },
        families={"S": {"kind": "entropy"}},
        checks=(
            {"op": "dct-simon", "family": "S", "rho": "rho", "tau": "tau",
             "c": 0.5, "n_max": 12, "m_max": 16, "expected": "consistent"},
            {"op": "gap-grid", "family": "S", "sequence": "tau",
             "scheme": {"kind": "dominated", "c": 0.5, "dominated": "rho"},
             "n_max": 12, "m_max": 16},
        ),
    )


def _re_sum_bindings():
    base_r = [0.18, 0.16, 0.14, 0.12, 0.11, 0.10, 0.10, 0.09]
    base_s = [0.22, 0.18, 0.15, 0.12, 0.11, 0.09, 0.07, 0.06]
    base_w = [0.30, 0.25, 0.15, 0.10, 0.08, 0.05, 0.04, 0.03]
    base_t = [0.20, 0.20, 0.15, 0.15, 0.10, 0.08, 0.07, 0.05]
    pert = [0.02, -0.01, 0.015, -0.005, 0.01, -0.008, 0.004, 0.002]
    return {
        "rho": {"builder": "diag-perturbed", "params": {"base": base_r, "pert": pert, "rate": 0.5}},
        "sigma": {"builder": "diag-perturbed", "params": {"base": base_s, "pert": pert[::-1], "rate": 0.5}},
        "omega": {"builder": "diag-perturbed", "params": {"base": base_w, "pert": pert, "rate": 0.5}},
        "theta": {"builder": "diag-perturbed", "params": {"base": base_t, "pert": pert[::-1], "rate": 0.5}},
    }


def _builtin_re_sum() -> Scenario:
    return Scenario(
        name="re-sum",
        diagonal=True,
        sequences=_re_sum_bindings(),
        checks=(
            {"op": "re-sum", "rho": "rho", "sigma": "sigma", "omega": "omega",
             "theta": "theta", "n_max": 12, "expected": "consistent"},
        ),
    )


def _builtin_re_sum_nonconv() -> Scenario:
    bindings = _re_sum_bindings()
    bindings["sigma"] = {"builder": "diag-oscillating", "params": {
        "base": [0.22, 0.18, 0.15, 0.12, 0.11, 0.09, 0.07, 0.06],
        "pert": [0.05, -0.02, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]}}
    return Scenario(
        name="re-sum-nonconv",
        diagonal=True,
        sequences=bindings,
        checks=(
            {"op": "re-sum", "rho": "rho", "sigma": "sigma", "omega": "omega",
             "n_max": 12, "expected": "inconclusive"},
        ),
    )


def _re_domination_bindings(rho2_scale: float, sigma2_scale: float):
    base_r = [0.25, 0.20, 0.16, 0.12, 0.10, 0.08, 0.05, 0.04]
    pert_r = [0.01, -0.008, 0.006, -0.004, 0.003, -0.002, 0.001, 0.001]
    base_s = [0.28, 0.22, 0.16, 0.12, 0.09, 0.06, 0.04, 0.03]
    pert_s = [0.008, -0.006, 0.004, -0.003, 0.002, -0.001, 0.001, 0.0005]
    scale = lambda v, c: [c * x for x in v]
    return {
        "rho1": {"builder": "diag-perturbed", "params": {"base": base_r, "pert": pert_r, "rate": 0.5}},
        "rho2": {"builder": "diag-perturbed", "params": {"base": scale(base_r, rho2_scale),
                                                         "pert": scale(pert_r, rho2_scale), "rate": 0.5}},
        "sigma1": {"builder": "diag-perturbed", "params": {"base": base_s, "pert": pert_s, "rate": 0.5}},
        "sigma2": {"builder": "diag-perturbed", "params": {"base": scale(base_s, sigma2_scale),
                                                           "pert": scale(pert_s, sigma2_scale), "rate": 0.5}},
    }


def _builtin_re_domination() -> Scenario:
    return Scenario(
        name="re-domination",
        diagonal=True,
        sequences=_re_domination_bindings(0.5, 1.5),
        checks=(
            {"op": "re-domination", "rho1": "rho1", "rho2": "rho2",
             "sigma1": "sigma1", "sigma2": "sigma2", "n_max": 12,
             "expected": "consistent"},
        ),
    )


def _builtin_re_domination_rescaled() -> Scenario:
    return Scenario(
        name="re-domination-rescaled",
        diagonal=True,
        sequences=_re_domination_bindings(1.6, 2.5),
        checks=(
            {"op": "re-domination", "rho1": "rho1", "rho2": "rho2",
             "sigma1": "sigma1", "sigma2": "sigma2",
             "c_rho": 0.5, "c_sigma": 2.0, "n_max": 12,
             "expected": "consistent"},
        ),
    )


def _builtin_re_domination_infcontrol() -> Scenario:
    base_r = [0.25, 0.20, 0.16, 0.12, 0.10, 0.08, 0.05, 0.0]
    pert_r = [0.01, -0.008, 0.006, -0.004, 0.003, -0.002, 0.001, 0.0]
    base_s2 = [0.28, 0.22, 0.16, 0.12, 0.09, 0.06, 0.04, 0.0]
    pert_s2 = [0.008, -0.006, 0.004, -0.003, 0.002, -0.001, 0.001, 0.1]
    half = lambda v: [0.5 * x for x in v]
    rho2_limit = half(base_r)
    rho2_limit[7] = 0.05  # planted mass outside the declared limit support of sigma2
    return Scenario(
        name="re-domination-infcontrol",
        diagonal=True,
        sequences={
            "rho1": {"builder": "diag-perturbed", "params": {"base": base_r, "pert": pert_r, "rate": 0.5}},
            "rho2": {"builder": "diag-planted-limit", "params": {
                "limit": rho2_limit, "base": half(base_r), "pert": half(pert_r), "rate": 0.5}},
            "sigma1": {"builder": "diag-perturbed", "params": {"base": half(base_s2), "pert": half(pert_s2), "rate": 0.5}},
            "sigma2": {"builder": "diag-perturbed", "params": {"base": base_s2, "pert": pert_s2, "rate": 0.5}},
        },
        checks=(
            {"op": "re-domination", "rho1": "rho1", "rho2": "rho2",
             "sigma1": "sigma1", "sigma2": "sigma2", "n_max": 12,
             "expected": "violated"},
        ),
    )


def _builtin_channel_mi_depolarizing() -> Scenario:
    return Scenario(
        name="channel-mi-depolarizing",
        sequences={
            "rho": {"builder": "diag-perturbed", "params": {
                "base": [0.75, 0.25], "pert": [0.05, -0.05], "rate": 0.5}},
            "sigma": {"builder": "constant-diag", "params": {"diag": [0.5, 0.5]}},
        },
        channels={"phi": {"builder": "depolarizing-inverse-n", "params": {}}},
        checks=(
            {"op": "channel-mi", "channels": "phi", "rho": "rho", "sigma": "sigma",
             "c": 0.5, "p_limit": 0.5, "p_amp": 0.5, "p_rate": 0.5,
             "schedule": {"type": "commuting", "m_max": 2},
             "n_max": 12, "m_max": 2, "expected": "consistent"},
        ),
    )


def _builtin_appendix_ladder() -> Scenario:
    base_r = [0.30, 0.25, 0.18, 0.12, 0.09, 0.06]
    pert_r = [0.012, 0.010, 0.007, 0.005, 0.004, 0.002]
    base_s = [0.35, 0.25, 0.17, 0.11, 0.07, 0.05]
    pert_s = [-0.010, -0.008, -0.005, -0.003, -0.002, -0.001]
    scale = lambda v, c: [c * x for x in v]
    return Scenario(
        name="appendix-ladder",
        diagonal=True,
        sequences={
            "rho1": {"builder": "diag-perturbed", "params": {"base": base_r, "pert": pert_r, "rate": 0.5}},
            "rho2": {"builder": "diag-perturbed", "params": {"base": scale(base_r, 0.6),
                                                             "pert": scale(pert_r, 0.6), "rate": 0.5}},
            "sigma1": {"builder": "diag-perturbed", "params": {"base": base_s, "pert": pert_s, "rate": 0.5}},
            "sigma2": {"builder": "diag-perturbed", "params": {"base": scale(base_s, 1.5),
                                                               "pert": scale(pert_s, 1.5), "rate": 0.5}},
        },
        checks=(
            {"op": "appendix-domination", "rho1": "rho1", "rho2": "rho2",
             "sigma1": "sigma1", "sigma2": "sigma2",
             "k_schedule": [1, 10, 100, 1000, 10000], "n_max": 12,
             "expected": "consistent"},
        ),
    )


def _builtin_choi_rank_bound() -> Scenario:
    return Scenario(
        name="choi-rank-bound",
        sequences={"rho": {"builder": "qubit-coherent", "params": {
            "a": 0.7, "c0": 0.3, "amp": 0.1, "rate": 0.5}}},
        channels={"pd": {"builder": "phase-damping-geometric", "params": {
            "gamma": 0.3, "amp": 0.2, "rate": 0.5}}},
        families={
            "f": {"kind": "entropy-plus-log", "k": 2},
            "g": {"kind": "output-entropy", "channels": "pd"},
        },
        checks=(
            {"op": "dct-basic", "f": "f", "g": "g", "sequence": "rho",
             "n_max": 12, "m_max": 2, "expected": "consistent"},
        ),
    )


BUILTIN_SCENARIOS = {
    "entropy-discontinuity": _builtin_entropy_discontinuity,
    "simon-dct": _builtin_simon_dct,
    "re-sum": _builtin_re_sum,
    "re-sum-nonconv": _builtin_re_sum_nonconv,
    "re-domination": _builtin_re_domination,
    "re-domination-rescaled": _builtin_re_domination_rescaled,
    "re-domination-infcontrol": _builtin_re_domination_infcontrol,
    "channel-mi-depolarizing": _builtin_channel_mi_depolarizing,
    "appendix-ladder": _builtin_appendix_ladder,
    "choi-rank-bound": _builtin_choi_rank_bound,
}


def builtin_scenario(name: str) -> Scenario:
    if name not in BUILTIN_SCENARIOS:
        known = ", ".join(sorted(BUILTIN_SCENARIOS))
        raise ScenarioError(f"unknown scenario {name!r}; registered: {known}")
    return BUILTIN_SCENARIOS[name]()


# ---------------------------------------------------------------------------
# Randomized inequality fuzzing


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density(rng: np.random.Generator, dim: int) -> DensityOperator:
    spectrum = rng.dirichlet(np.ones(dim))
    u = random_unitary(rng, dim)
    return DensityOperator((u * spectrum) @ u.conj().T)


def random_positive(rng: np.random.Generator, dim: int, scale_max: float = 2.0) -> PositiveOperator:
    c = rng.uniform(0.1, scale_max)
    return PositiveOperator(c * random_density(rng, dim).matrix)


def random_channel(rng: np.random.Generator, d_in: int, d_out: int, kraus_count: int) -> Channel:
    z = rng.standard_normal((d_out * kraus_count, d_in)) + 1j * rng.standard_normal((d_out * kraus_count, d_in))
    q, _ = np.linalg.qr(z)
    v = q[:, :d_in]
    return Channel(v.reshape(kraus_count, d_out, d_in))


def random_projector(rng: np.random.Generator, dim: int, rank: int) -> Projector:
    u = random_unitary(rng, dim)
    v = u[:, :rank]
    return Projector(v @ v.conj().T, rank=rank)


def _fuzz_entropy(rng, dim):
    rho = random_positive(rng, dim)
    sigma = random_positive(rng, dim)
    lo, hi = check_entropy_subadditivity_pair(rho, sigma)
    c = rng.uniform(0.2, 3.0)
    s = float(von_neumann_entropy(rho))
    s_scaled = float(von_neumann_entropy(PositiveOperator(c * rho.matrix)))
    p = rng.uniform(0.0, 1.0)
    rho_s = random_density(rng, dim)
    sigma_s = random_density(rng, dim)
    mix = DensityOperator(p * rho_s.matrix + (1 - p) * sigma_s.matrix)
    concavity_upper = (p * float(von_neumann_entropy(rho_s))
                       + (1 - p) * float(von_neumann_entropy(sigma_s))
                       + binary_entropy(p) - float(von_neumann_entropy(mix)))
    return {
        "sum lower bound": lo,
        "sum upper bound": hi,
        "homogeneity": -abs(s_scaled - c * s),
        "mixing upper bound": concavity_upper,
    }


def _fuzz_relative_entropy(rng, dim):
    rho = random_positive(rng, dim)
    sigma = random_positive(rng, dim)
    omega = random_positive(rng, dim)
    theta = random_positive(rng, dim)
    slacks = {}
    d = relative_entropy(rho, sigma)
    slacks["nonnegativity"] = float(d) if not d.is_inf else 0.0
    c = rng.uniform(0.2, 3.0)
    d_cc = relative_entropy(PositiveOperator(c * rho.matrix), PositiveOperator(c * sigma.matrix))
    if not d.is_inf:
        slacks["joint scaling identity"] = -abs(float(d_cc) - c * float(d))
        d_c = relative_entropy(rho, PositiveOperator(c * sigma.matrix))
        expect = float(d) - rho.trace() * math.log(c) + (c - 1.0) * sigma.trace()
        slacks["second-argument scaling identity"] = -abs(float(d_c) - expect)
    d_ro = relative_entropy(rho, omega)
    d_so = relative_entropy(sigma, omega)
    d_sum = relative_entropy(PositiveOperator(rho.matrix + sigma.matrix), omega)
    if not (d_ro.is_inf or d_so.is_inf or d_sum.is_inf):
        lower = float(d_ro) + float(d_so) - omega.trace()
        from .entropies import binary_entropy_extension
        upper = lower + binary_entropy_extension(rho.trace(), sigma.trace())
        slacks["sum lower bound"] = float(d_sum) - lower
        slacks["sum upper bound"] = upper - float(d_sum)
    d_shift = relative_entropy(rho, PositiveOperator(sigma.matrix + theta.matrix))
    if not d.is_inf:
        slacks["second-argument shift bound"] = float(d) + theta.trace() - float(d_shift)
    # support-break control: a finite-side inequality must still hold
    proj = random_projector(rng, dim, dim - 1)
    sigma_cut = PositiveOperator(proj.matrix @ sigma.matrix @ proj.matrix)
    d_cut = relative_entropy(rho, sigma_cut)
    slacks["support break is infinite"] = 0.0 if d_cut.is_inf else -1.0
    return slacks


def _fuzz_mi_bound(rng, dim):
    # each mutual information is summed from its entropies, as
    # quantum_mutual_information and channel_mutual_information do, so the
    # bounds reuse them instead of solving the same spectra again
    d_a = int(rng.integers(2, min(dim, 4) + 1))
    d_b = int(rng.integers(2, min(dim, 4) + 1))
    rho_ab = random_density(rng, d_a * d_b)
    s_a = float(von_neumann_entropy(_pos(partial_trace(rho_ab, "A", d_a, d_b))))
    s_b = float(von_neumann_entropy(_pos(partial_trace(rho_ab, "B", d_a, d_b))))
    mi = s_a + s_b - float(von_neumann_entropy(rho_ab))
    phi = random_channel(rng, dim, dim, int(rng.integers(1, 4)))
    rho = random_density(rng, dim)
    s_in = float(von_neumann_entropy(rho))
    s_out = output_entropy(phi, rho)
    mi_ch = s_in + (s_out - environment_entropy(phi, rho))
    return {
        "mutual information doubled-entropy bound": 2.0 * min(s_a, s_b) - mi,
        "channel mutual information bound": 2.0 * min(s_in, s_out) - mi_ch,
        "mutual information nonnegative": mi,
    }


def _pos(h) -> PositiveOperator:
    return PositiveOperator(h.matrix)


def _fuzz_laa_relative_entropy(rng, dim):
    rho = random_density(rng, dim)
    sigma = random_density(rng, dim)
    omega = random_positive(rng, dim)
    p = rng.uniform(0.0, 1.0)
    mix = DensityOperator(p * rho.matrix + (1 - p) * sigma.matrix)
    d_mix = relative_entropy(mix, omega)
    d_rho = relative_entropy(rho, omega)
    d_sigma = relative_entropy(sigma, omega)
    if d_mix.is_inf or d_rho.is_inf or d_sigma.is_inf:
        return {}
    combo = p * float(d_rho) + (1 - p) * float(d_sigma)
    return {
        "weakened concavity with h2": float(d_mix) - combo + binary_entropy(p),
        "convexity": combo - float(d_mix),
    }


def _fuzz_laa_channel_mi(rng, dim):
    from .channels import channel_mutual_information
    phi = random_channel(rng, dim, dim, int(rng.integers(1, 4)))
    rho = random_density(rng, dim)
    sigma = random_density(rng, dim)
    p = rng.uniform(0.0, 1.0)
    mix = DensityOperator(p * rho.matrix + (1 - p) * sigma.matrix)
    i_mix = float(channel_mutual_information(phi, mix))
    combo = (p * float(channel_mutual_information(phi, rho))
             + (1 - p) * float(channel_mutual_information(phi, sigma)))
    return {
        "concavity": i_mix - combo,
        "weakened convexity with 2*h2": combo + 2.0 * binary_entropy(p) - i_mix,
    }


def _fuzz_chain_rule(rng, dim):
    from .channels import channel_mutual_information
    phi = random_channel(rng, dim, dim, int(rng.integers(1, 4)))
    psi = random_channel(rng, dim, dim, int(rng.integers(1, 4)))
    rho = random_density(rng, dim)
    i_phi = float(channel_mutual_information(phi, rho))
    i_comp = float(channel_mutual_information(psi.compose(phi), rho))
    return {"chain rule": i_phi - i_comp}


def _fuzz_lindblad_ozawa(rng, dim):
    rho = random_positive(rng, dim)
    rank = int(rng.integers(1, dim))
    proj = random_projector(rng, dim, rank)
    s_head, s_tail = compressed_entropy_pair(rho, proj)
    return {"compression entropy sum": float(von_neumann_entropy(rho)) - s_head - s_tail}


def _fuzz_choi_rank(rng, dim):
    k = int(rng.integers(1, 4))
    phi = random_channel(rng, dim, dim, k)
    rho = random_density(rng, dim)
    rank = choi_matrix(phi).rank()
    s_in = float(von_neumann_entropy(rho))
    s_out = float(von_neumann_entropy(phi.apply(rho)))
    return {"output entropy log-rank bound": s_in + math.log(rank) - s_out}


FUZZ_SUITES = {
    "entropy": _fuzz_entropy,
    "relative-entropy": _fuzz_relative_entropy,
    "mi-bound": _fuzz_mi_bound,
    "laa-relative-entropy": _fuzz_laa_relative_entropy,
    "laa-channel-mi": _fuzz_laa_channel_mi,
    "chain-rule": _fuzz_chain_rule,
    "lindblad-ozawa": _fuzz_lindblad_ozawa,
    "choi-rank": _fuzz_choi_rank,
}

FUZZ_SLACK = 1e-8


def inequality_fuzz(suite: str, dim: int, trials: int, seed: int) -> dict:
    """Run a named inequality suite; slacks below -1e-8 are violations."""
    if suite not in FUZZ_SUITES:
        known = ", ".join(sorted(FUZZ_SUITES))
        raise ScenarioError(f"unknown fuzz suite {suite!r}; registered: {known}")
    rng = np.random.default_rng(seed)
    fn = FUZZ_SUITES[suite]
    violations = []
    worst = {}
    for trial in range(trials):
        slacks = fn(rng, dim)
        for name, slack in slacks.items():
            if name not in worst or slack < worst[name]:
                worst[name] = slack
            if slack < -FUZZ_SLACK:
                violations.append({"trial": trial, "check": name, "slack": slack})
    return {
        "tool": "qdini",
        "version": TOOL_VERSION,
        "suite": suite,
        "dim": int(dim),
        "trials": int(trials),
        "seed": int(seed),
        "violations": violations,
        "worst_slack": {k: v for k, v in sorted(worst.items())},
        "all_matched": not violations,
    }
