"""Command line interface: run scenarios, fuzz inequalities, list registries.

Exit codes: 0 when every check matched its expectation (or none was declared),
1 on a mismatch or an inequality violation, 2 on usage errors (unknown names,
malformed scenario files, budget refusals, a ValueError on a check's input).
"""

from __future__ import annotations

import os
import sys

import click

from .scenarios import (
    BUILTIN_SCENARIOS,
    FUZZ_SUITES,
    Scenario,
    ScenarioError,
    builtin_scenario,
    dumps_canonical,
    inequality_fuzz,
    load_scenario,
    report_to_csv,
    report_to_json,
    run_scenario,
)


@click.group()
def main():
    """Numerical convergence diagnostics for entropic functionals."""


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _resolve(name: str) -> Scenario:
    if name in BUILTIN_SCENARIOS:
        return builtin_scenario(name)
    if os.path.exists(name):
        return load_scenario(name)
    raise ScenarioError(
        f"{name!r} is neither a registered scenario nor a file; try 'qdini list'")


@main.command()
@click.argument("scenario")
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--n-max", default=None, type=int, help="Override the sequence window.")
@click.option("--m-max", default=None, type=int, help="Override the truncation window.")
@click.option("--out", default=None, type=click.Path(), help="Write the report to a file.")
@click.option("--format", "fmt", default="json", show_default=True,
              type=click.Choice(["json", "csv"]))
def run(scenario, seed, n_max, m_max, out, fmt):
    """Run a registered scenario or a scenario JSON file."""
    try:
        sc = _resolve(scenario)
        report = run_scenario(sc, seed=seed, n_max=n_max, m_max=m_max)
    except ScenarioError as exc:
        raise click.UsageError(str(exc))
    text = report_to_json(report) if fmt == "json" else report_to_csv(report)
    _emit(text, out)
    sys.exit(0 if report["all_matched"] else 1)


@main.command()
@click.argument("suite")
@click.option("--dim", default=4, show_default=True, type=int)
@click.option("--trials", default=1000, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--out", default=None, type=click.Path())
def fuzz(suite, dim, trials, seed, out):
    """Fuzz a named inequality suite on random operators."""
    try:
        report = inequality_fuzz(suite, dim, trials, seed)
    except ScenarioError as exc:
        raise click.UsageError(str(exc))
    _emit(dumps_canonical(report), out)
    sys.exit(0 if report["all_matched"] else 1)


@main.command()
@click.argument("scenario")
@click.option("--seed", default=0, show_default=True, type=int)
def demo(scenario, seed):
    """Run a built-in scenario and print a short human-readable summary."""
    try:
        sc = builtin_scenario(scenario)
        report = run_scenario(sc, seed=seed)
    except ScenarioError as exc:
        raise click.UsageError(str(exc))
    click.echo(f"scenario: {report['scenario']}")
    for entry in report["checks"]:
        if "verdict" not in entry:
            click.echo(f"  {entry['name']}: grid emitted")
            continue
        v = entry["verdict"]
        mark = "ok" if entry["matched"] else "MISMATCH"
        click.echo(f"  {entry['name']}: {v['status']}"
                   f" (expected {entry['expected']}) [{mark}]")
        for c in v["hypothesis_checks"]:
            state = "pass" if c["passed"] else "FAIL"
            click.echo(f"    check {c['name']}: {state}")
    sys.exit(0 if report["all_matched"] else 1)


@main.command(name="list")
def list_cmd():
    """List registered scenarios and fuzz suites."""
    click.echo("scenarios:")
    for name in sorted(BUILTIN_SCENARIOS):
        click.echo(f"  {name}")
    click.echo("fuzz suites:")
    for name in sorted(FUZZ_SUITES):
        click.echo(f"  {name}")


if __name__ == "__main__":
    main()
