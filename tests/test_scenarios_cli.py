import json
import math
import os
import pathlib
import re

import numpy as np
import pytest
from click.testing import CliRunner

from qdini import (
    BUILTIN_SCENARIOS,
    FUZZ_SUITES,
    LinearAlgebraError,
    Scenario,
    ScenarioError,
    builtin_scenario,
    inequality_fuzz,
    load_scenario,
    report_to_csv,
    report_to_json,
    run_scenario,
)
from qdini.cli import main
from qdini.scenarios import DEFAULT_BUDGET, estimate_flops

SCENARIOS = pathlib.Path(__file__).resolve().parent / "scenarios"


class TestScenarioModel:
    def test_json_round_trip(self):
        sc = builtin_scenario("re-sum")
        back = Scenario.from_json(sc.to_json())
        assert back == sc

    def test_all_builtins_round_trip(self):
        for name in BUILTIN_SCENARIOS:
            sc = builtin_scenario(name)
            assert Scenario.from_json(sc.to_json()) == sc

    def test_unknown_builtin(self):
        with pytest.raises(ScenarioError):
            builtin_scenario("no-such-scenario")

    def test_load_reports_json_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "name": "x",\n  broken\n}\n')
        with pytest.raises(ScenarioError, match="line 3"):
            load_scenario(str(path))

    def test_load_rejects_unknown_builder(self, tmp_path):
        path = tmp_path / "sc.json"
        path.write_text(json.dumps({
            "name": "x",
            "sequences": {"s": {"builder": "does-not-exist"}},
            "checks": [],
        }))
        with pytest.raises(ScenarioError, match="does-not-exist"):
            load_scenario(str(path))

    def test_load_rejects_missing_builder_field(self, tmp_path):
        path = tmp_path / "sc.json"
        path.write_text(json.dumps({"name": "x", "sequences": {"s": {}}}))
        with pytest.raises(ScenarioError, match="builder"):
            load_scenario(str(path))

    def test_load_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "sc.json"
        path.write_text(json.dumps({"name": "x", "version": 2}))
        with pytest.raises(ScenarioError, match="version"):
            load_scenario(str(path))

    def test_load_valid_file(self, tmp_path):
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(builtin_scenario("re-domination").to_json()))
        sc = load_scenario(str(path))
        report = run_scenario(sc)
        assert report["all_matched"]


class TestRunScenario:
    def test_all_builtins_match_expectations(self):
        for name in BUILTIN_SCENARIOS:
            report = run_scenario(builtin_scenario(name))
            assert report["all_matched"], name

    def test_deterministic_reports(self):
        a = report_to_json(run_scenario(builtin_scenario("re-sum"), seed=7))
        b = report_to_json(run_scenario(builtin_scenario("re-sum"), seed=7))
        assert a == b

    def test_canonical_json_shape(self):
        text = report_to_json(run_scenario(builtin_scenario("re-sum")))
        assert text.endswith("\n")
        obj = json.loads(text)
        assert obj["tool"] == "qdini"
        assert "all_matched" in obj
        # canonical form: re-serializing reproduces the bytes
        assert json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n" == text

    def test_infinities_encoded_as_strings(self):
        text = report_to_json(run_scenario(builtin_scenario("re-domination-infcontrol")))
        assert "Infinity" not in text
        assert '"inf"' in text

    def test_budget_refusal(self, monkeypatch):
        monkeypatch.setenv("QDINI_BUDGET", "1")
        with pytest.raises(ScenarioError, match="budget"):
            run_scenario(builtin_scenario("re-sum"))

    def test_csv_grid_rows(self):
        report = run_scenario(builtin_scenario("simon-dct"))
        csv_text = report_to_csv(report)
        lines = csv_text.strip().split("\n")
        assert lines[0] == "check,n,m,mu,gap,tail,flags"
        assert len(lines) > 1

    def test_csv_verdict_table_without_grids(self):
        report = run_scenario(builtin_scenario("re-sum"))
        lines = report_to_csv(report).strip().split("\n")
        assert lines[0] == "check,status,expected,matched"

    def test_window_overrides(self):
        report = run_scenario(builtin_scenario("re-domination"), n_max=6)
        entry = next(e for e in report["checks"] if "verdict" in e)
        assert len(entry["verdict"]["values"]["hypothesis"]) == 7


class TestFuzz:
    def test_unknown_suite(self):
        with pytest.raises(ScenarioError):
            inequality_fuzz("no-such-suite", 4, 10, 0)

    def test_small_runs_clean(self):
        for suite in FUZZ_SUITES:
            report = inequality_fuzz(suite, 4, 25, seed=3)
            assert report["all_matched"], (suite, report["violations"][:3])
            assert report["trials"] == 25

    def test_seeded_reproducibility(self):
        a = inequality_fuzz("entropy", 4, 50, seed=11)
        b = inequality_fuzz("entropy", 4, 50, seed=11)
        assert a == b

    def test_worst_slack_reported(self):
        report = inequality_fuzz("relative-entropy", 3, 25, seed=1)
        assert report["worst_slack"]
        assert all(v >= -1e-8 or v == "inf" for v in report["worst_slack"].values()
                   if not isinstance(v, str))


class TestCli:
    def test_list(self):
        result = CliRunner().invoke(main, ["list"])
        assert result.exit_code == 0
        assert "re-sum" in result.output
        assert "lindblad-ozawa" in result.output

    def test_run_builtin_json(self):
        result = CliRunner().invoke(main, ["run", "re-sum"])
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert obj["scenario"] == "re-sum"

    def test_run_writes_file(self, tmp_path):
        out = tmp_path / "report.json"
        result = CliRunner().invoke(main, ["run", "re-sum", "--out", str(out)])
        assert result.exit_code == 0
        assert json.loads(out.read_text())["all_matched"]

    def test_run_csv_format(self):
        result = CliRunner().invoke(main, ["run", "re-sum", "--format", "csv"])
        assert result.exit_code == 0
        assert result.output.startswith("check,status,expected,matched")

    def test_run_unknown_scenario_exit_2(self):
        result = CliRunner().invoke(main, ["run", "no-such-thing"])
        assert result.exit_code == 2

    def test_run_budget_refusal_exit_2(self, monkeypatch):
        monkeypatch.setenv("QDINI_BUDGET", "1")
        result = CliRunner().invoke(main, ["run", "re-sum"])
        assert result.exit_code == 2
        assert "budget" in result.output.lower()

    @pytest.mark.parametrize("flag", ["--n-max", "--m-max"])
    def test_run_budget_counts_window_overrides(self, flag, monkeypatch):
        # re-sum's own window (n, m <= 12, diagonal, d = 8) is estimated at
        # 8 * 13 * 13 * 8 = 10816 flops; a window of 100 is 84032
        monkeypatch.setenv("QDINI_BUDGET", "20000")
        assert CliRunner().invoke(main, ["run", "re-sum"]).exit_code == 0
        result = CliRunner().invoke(main, ["run", "re-sum", flag, "100"])
        assert result.exit_code == 2
        assert "budget" in result.output.lower()

    def test_budget_estimate_reads_the_overrides(self):
        sc = builtin_scenario("re-sum")
        assert estimate_flops(sc) <= DEFAULT_BUDGET < estimate_flops(sc, n_max=10 ** 9)
        assert estimate_flops(sc, n_max=12, m_max=12) == estimate_flops(sc)

    def test_run_scenario_file(self, tmp_path):
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(builtin_scenario("re-domination").to_json()))
        result = CliRunner().invoke(main, ["run", str(path)])
        assert result.exit_code == 0

    def test_run_byte_identical_with_same_seed(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        runner = CliRunner()
        assert runner.invoke(main, ["run", "simon-dct", "--seed", "5", "--out", str(out1)]).exit_code == 0
        assert runner.invoke(main, ["run", "simon-dct", "--seed", "5", "--out", str(out2)]).exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_fuzz_command(self):
        result = CliRunner().invoke(main, ["fuzz", "entropy", "--trials", "20", "--dim", "3"])
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert obj["suite"] == "entropy"

    def test_fuzz_unknown_suite_exit_2(self):
        result = CliRunner().invoke(main, ["fuzz", "nope"])
        assert result.exit_code == 2

    def test_demo_summary(self):
        result = CliRunner().invoke(main, ["demo", "re-sum"])
        assert result.exit_code == 0
        assert "scenario: re-sum" in result.output
        assert "consistent" in result.output


def _scenario_json(check: dict) -> dict:
    """The channel-mi-depolarizing bindings with one check in place of its own, as a scenario file holds them."""
    sc = builtin_scenario("channel-mi-depolarizing").to_json()
    sc["families"] = {"S": {"kind": "entropy"}}
    sc["checks"] = [check]
    return sc


def _scenario_with(check: dict) -> Scenario:
    return Scenario.from_json(_scenario_json(check))


class TestMalformedInputsExit2:
    """Every malformed input is a ScenarioError, so the CLI exits 2 instead of crashing with 1."""

    @pytest.mark.parametrize("suite", sorted(FUZZ_SUITES))
    @pytest.mark.parametrize("dim, trials", [(0, 10), (1, 10), (4, 0), (4, -1)])
    def test_fuzz_refuses_degenerate_arguments(self, suite, dim, trials):
        with pytest.raises(ScenarioError, match="dim >= 2 and trials >= 1"):
            inequality_fuzz(suite, dim, trials, seed=0)

    @pytest.mark.parametrize("args", [["lindblad-ozawa", "--dim", "1"], ["entropy", "--trials", "-1"]])
    def test_fuzz_cli_exit_2(self, args):
        assert CliRunner().invoke(main, ["fuzz"] + args).exit_code == 2

    @pytest.mark.parametrize("args", [["re-sum", "--n-max", "-1"], ["simon-dct", "--m-max", "0"]])
    def test_run_refuses_empty_windows(self, args):
        result = CliRunner().invoke(main, ["run"] + args)
        assert result.exit_code == 2
        assert "n_max >= 0 and m_max >= 1" in result.output

    @pytest.mark.parametrize("weights", [{"p_list": [1.5] + [0.5] * 12}, {"p_list": [0.5] * 3},
                                         {"p_limit": 0.5, "p_amp": 1.2, "p_rate": 0.5},
                                         {"p_list": [None] + [0.5] * 12}])
    @pytest.mark.parametrize("op", ["channel-mi", "convex-mixture"])
    def test_mixture_weights_are_checked(self, op, weights):
        check = {"op": op, "channels": "phi", "family": "S", "rho": "rho", "sigma": "sigma",
                 "c": 0.5, "n_max": 12, "m_max": 2, **weights}
        with pytest.raises(ScenarioError, match="mixture weight|entries"):
            run_scenario(_scenario_with(check))

    @pytest.mark.parametrize("check", [
        {"op": "dct-basic", "f": "S", "sequence": "rho"},                    # no "g"
        {"op": "dct-basic", "f": "S", "g": "S", "sequence": "nope"},         # unknown sequence
        {"op": "re-sum", "rho": "rho", "sigma": "sigma", "omega": "sigma", "theta": "nope"},
        {"op": "channel-mi", "channels": "nope", "rho": "rho", "sigma": "sigma"},
        {"op": "gap-grid", "family": "nope", "sequence": "rho"},
        {"op": "gap-grid", "family": "S", "sequence": "rho",
         "scheme": {"kind": "dominated", "dominated": "nope"}},
        {"op": "truncation-criterion", "family": "S", "sequence": "rho",
         "schedule": {"sequence": ["rho"]}},
    ])
    def test_checks_naming_missing_bindings(self, check, tmp_path):
        with pytest.raises(ScenarioError, match="names missing binding"):
            run_scenario(_scenario_with(check))
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(_scenario_with(check).to_json()))
        assert CliRunner().invoke(main, ["run", str(path)]).exit_code == 2

    @pytest.mark.parametrize("check", [
        {"op": "dct-basic", "f": "S", "g": "S", "sequence": "rho", "n_max": "many"},
        {"op": "dct-basic", "f": "S", "g": "S", "sequence": "rho", "m_max": "many"},
        {"op": "dct-simon", "family": "S", "rho": "rho", "tau": "sigma", "c": "half"},
        {"op": "truncation-criterion", "family": "S", "sequence": "rho", "n_0": "one"},
        {"op": "entropy-jump-probe", "sequence": "rho", "low": "low"},
        {"op": "gap-grid", "family": "S", "sequence": "rho",
         "scheme": {"kind": "dominated", "c": [0.5], "dominated": "rho"}},
    ])
    def test_non_numeric_scalars(self, check, tmp_path):
        with pytest.raises(ScenarioError, match="must be a number"):
            run_scenario(_scenario_with(check))
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(_scenario_with(check).to_json()))
        result = CliRunner().invoke(main, ["run", str(path)])
        assert result.exit_code == 2
        assert "must be a number" in result.output

    @pytest.mark.parametrize("field, value, message", [
        ("n_max", 12.9, "'n_max' must be an integer, got 12.9"),
        ("n_max", "3", "'n_max' must be a number, got '3'"),
        ("n_max", math.inf, "'n_max' must be an integer, got inf"),
        ("n_max", math.nan, "'n_max' must be an integer, got nan"),
        ("m_max", True, "'m_max' must be a number, got True"),
        ("m_max", "2", "'m_max' must be a number, got '2'"),
        ("c", False, "'c' must be a number, got False"),
        ("c", "0.5", "'c' must be a number, got '0.5'"),
        ("expected", "consistant", "'expected' must be one of consistent, violated, inconclusive, got 'consistant'"),
        ("expected", True, "'expected' must be one of consistent, violated, inconclusive, got True"),
    ])
    def test_numbers_and_statuses_of_the_right_kind(self, field, value, message, tmp_path):
        # "n_max": 12.9 used to run as 12, "3" as 3 and true as 1; a typo in "expected" ran and exited 1
        check = {"op": "dct-simon", "family": "S", "rho": "rho", "tau": "sigma", "c": 0.5, "n_max": 4, "m_max": 2}
        sc = _scenario_json(dict(check, **{field: value}))
        with pytest.raises(ScenarioError, match=re.escape(message)):
            run_scenario(Scenario.from_json(sc))
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(sc))
        result = CliRunner().invoke(main, ["run", str(path)])
        assert result.exit_code == 2 and f"Error: {message}" in result.output

    @pytest.mark.parametrize("field", ["n_max", "m_max"])
    def test_an_integral_float_reads_as_an_integer(self, field):
        check = {"op": "dct-basic", "f": "S", "g": "S", "sequence": "rho", "n_max": 4, "m_max": 2}
        want = run_scenario(_scenario_with(check))
        got = run_scenario(_scenario_with(dict(check, **{field: float(check[field])})))
        assert report_to_json(got) == report_to_json(want)

    @pytest.mark.parametrize("params, message", [
        ({"dim": 4.5}, "'dim' must be an integer, got 4.5"),
        ({"dim": True}, "'dim' must be a number, got True"),
    ])
    def test_builder_integers_of_the_right_kind(self, params, message):
        sc = _scenario_json({"op": "dct-basic", "f": "S", "g": "S", "sequence": "rho"})
        sc["sequences"]["rho"] = {"builder": "truncated-thermal", "params": params}
        with pytest.raises(ScenarioError, match=re.escape(message)):
            run_scenario(Scenario.from_json(sc))

    @pytest.mark.parametrize("weights", [[True] + [0.5] * 12, ["0.5"] * 13])
    def test_mixture_weights_are_numbers(self, weights):
        check = {"op": "convex-mixture", "family": "S", "rho": "rho", "sigma": "sigma", "n_max": 12, "m_max": 2,
                 "p_list": weights}
        with pytest.raises(ScenarioError, match="the mixture weights must be a list of numbers"):
            run_scenario(_scenario_with(check))

    @pytest.mark.parametrize("flag", ["false", 0, None])
    def test_diagonal_is_a_bool(self, flag):
        # "false" used to read as true, and the budget estimate counted d where it should count d^3
        sc = builtin_scenario("channel-mi-depolarizing").to_json()
        sc["diagonal"] = flag
        with pytest.raises(ScenarioError, match=re.escape(f"'diagonal' must be true or false, got {flag!r}")):
            Scenario.from_json(sc)

    def test_unknown_scheme_kind(self):
        check = {"op": "gap-grid", "family": "S", "sequence": "rho",
                 "scheme": {"kind": "dominatd", "c": 0.5, "dominated": "rho"}}
        with pytest.raises(ScenarioError, match="unknown scheme kind 'dominatd'"):
            run_scenario(_scenario_with(check))

    @pytest.mark.parametrize("params, message", [
        ({"pert": [0.05, -0.05]}, "missing the parameter 'base'"),
        ({"base": [0.75, "x"], "pert": [0.05, -0.05]}, "malformed parameter"),
        ({"base": [0.75, 0.25], "pert": [0.05, -0.05], "rate": "fast"}, "malformed parameter"),
        ([0.75, 0.25], "params must be an object"),
        # a bool or a string is not a number, though float() reads one
        ({"base": [0.75, True], "pert": [0.05, -0.05]}, "malformed parameter: 'base' must be a number, got True"),
        ({"base": [0.75, "0.25"], "pert": [0.05, -0.05]}, "malformed parameter: 'base' must be a number, got '0.25'"),
        ({"base": [0.75, 0.25], "pert": [0.05, -0.05], "rate": "0.5"},
         "malformed parameter: 'rate' must be a number, got '0.5'"),
    ])
    def test_malformed_builder_parameters(self, params, message, tmp_path):
        sc = _scenario_with({"op": "dct-basic", "f": "S", "g": "S", "sequence": "rho"}).to_json()
        sc["sequences"]["rho"]["params"] = params
        with pytest.raises(ScenarioError, match=message):
            run_scenario(Scenario.from_json(sc))
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(sc))
        result = CliRunner().invoke(main, ["run", str(path)])
        assert result.exit_code == 2
        assert message in result.output


class TestLibraryInputErrorsExit2:
    """A ValueError on a check's input becomes a ScenarioError naming the check; other errors propagate."""

    @pytest.mark.parametrize("name, message", [
        ("usage-dominated-not-psd", "check 'dominated-grid': tau - c*rho: operator is not PSD"),
        ("usage-member-not-psd", "check 'dct-basic': operator is not PSD"),
        ("usage-nonfinite-member", "check 'dct-basic': operator is not PSD: non-finite entry nan"),
        ("usage-nonfinite-dense-member", "check 'dct-basic': operator is not PSD: non-finite entry inf"),
        ("usage-commuting-below-m0", "check 'truncation-criterion': m_max = 1 is below the starting index m_0 = 2"),
        ("usage-n0-past-window", "check 'truncation-criterion': n_0 = 99 is outside the window"),
        ("usage-dct-simon-c0", "check 'dct-simon': c must be finite and > 0, got 0.0"),
        ("usage-jump-probe-nan-band",
         "check 'entropy-jump-probe': the entropy band [nan, 1.1] needs finite ends with low <= high"),
        # malformed JSON types, each refused where it is read
        ("usage-checks-not-a-list", "'checks' must be a list of objects, got {'a': 1}"),
        ("usage-check-not-an-object", "each check must be an object, got 'dct-basic'"),
        ("usage-sequences-not-an-object", "'sequences' must be an object, got ['rho']"),
        ("usage-channel-not-an-object", "channels.phi must be an object, got 'depolarizing-inverse-n'"),
        ("usage-family-not-an-object", "families.S must be an object, got 'entropy'"),
        ("usage-builder-not-a-string", "sequences.rho needs a 'builder' string, got ['diag-perturbed']"),
        ("usage-scheme-not-an-object", "'scheme' must be an object, got 'spectral'"),
        ("usage-schedule-not-an-object", "'schedule' must be an object, got 'commuting'"),
        ("usage-k-schedule-not-a-list", "'k_schedule' must be a list of numbers, got 5"),
        ("usage-entropy-plus-log-k0", "'k' of entropy-plus-log must be at least 1, got 0"),
        ("usage-n-max-fraction", "'n_max' must be an integer, got 12.9"),
        ("usage-expected-typo", "'expected' must be one of consistent, violated, inconclusive, got 'consistant'"),
    ])
    def test_scenario_files_exit_2(self, name, message):
        path = str(SCENARIOS / f"{name}.json")
        with pytest.raises(ScenarioError, match=re.escape(message)):
            run_scenario(load_scenario(path))
        result = CliRunner().invoke(main, ["run", path])
        assert result.exit_code == 2, result.output
        assert f"Error: {message}" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("n_from", [0, 7, 50])
    def test_jump_probe_refuses_n_from_outside_the_window(self, n_from, tmp_path):
        # n_from = 0 used to read only the last gap, n_from past n_max = 6 none at all
        sc = builtin_scenario("entropy-discontinuity").to_json()
        sc["checks"] = [dict(sc["checks"][0], n_from=n_from)]
        message = f"check 'entropy-jump-probe': n_from = {n_from} is outside the window 1 <= n <= n_max = 6"
        with pytest.raises(ScenarioError, match=message):
            run_scenario(Scenario.from_json(sc))
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(sc))
        result = CliRunner().invoke(main, ["run", str(path)])
        assert result.exit_code == 2 and message in result.output

    @pytest.mark.parametrize("low, high", [
        (math.nan, 1.1), (0.9, math.nan), (-math.inf, 1.1), (0.9, math.inf), (2.0, 1.0),
    ])
    def test_jump_probe_refuses_a_band_that_is_not_finite_or_inverted(self, low, high, tmp_path):
        # a NaN end used to print "slack":NaN, which is not JSON, and [2.0, 1.0] to read inconclusive
        sc = builtin_scenario("entropy-discontinuity").to_json()
        sc["checks"] = [dict(sc["checks"][0], low=low, high=high)]
        message = (f"check 'entropy-jump-probe': the entropy band [{low}, {high}] "
                   "needs finite ends with low <= high")
        with pytest.raises(ScenarioError, match=re.escape(message)):
            run_scenario(Scenario.from_json(sc))
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(sc))
        result = CliRunner().invoke(main, ["run", str(path)])
        assert result.exit_code == 2 and message in result.output

    @pytest.mark.parametrize("name", ["simon-dct", "appendix-ladder"])
    def test_empty_sup_window_exits_2(self, name):
        result = CliRunner().invoke(main, ["run", name, "--n-max", "0"])
        assert result.exit_code == 2, result.output
        assert "windowed_sup needs at least one value: the window needs n_max >= 1" in result.output

    @pytest.mark.parametrize("name", ["re-domination-broken-ordering", "appendix-broken-ordering"])
    def test_broken_ordering_files_read_inconclusive(self, name):
        result = CliRunner().invoke(main, ["run", str(SCENARIOS / f"{name}.json")])
        assert result.exit_code == 0, result.output
        (check,) = json.loads(result.output)["checks"]
        assert check["matched"] and check["verdict"]["status"] == "inconclusive"
        failed = [c["name"] for c in check["verdict"]["hypothesis_checks"] if not c["passed"]]
        assert len(failed) == 1 and failed[0].startswith("PSD domination")

    @pytest.mark.parametrize("error", [ArithmeticError("overflow"), TypeError("bug"),
                                       LinearAlgebraError("eigensolver failed")])
    def test_other_errors_propagate(self, error, monkeypatch):
        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr("qdini.diagnostics.check_dct_simon", failing)
        with pytest.raises(type(error)) as info:
            run_scenario(builtin_scenario("simon-dct"))
        assert info.value is error

    def test_a_failing_eigensolver_is_a_linear_algebra_error(self, monkeypatch):
        # numpy derives LinAlgError from ValueError; operators converts it before any input-error handler sees it
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        with pytest.raises(LinearAlgebraError, match="eigensolver failed for dim-") as info:
            run_scenario(builtin_scenario("channel-mi-depolarizing"))
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
