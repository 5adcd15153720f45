"""No module of src/qdini or tests/ imports a name it never uses, and src/qdini defines no public API that nothing runs.

A stdlib ``ast`` scan stands in for a linter: every name that an
``import`` or ``from ... import`` binds must be read somewhere in the
module, as a name, the root of an attribute, or inside a string
annotation.  A name kept importable on purpose carries ``# noqa: F401``
on its import line.  ``__init__`` re-exports the package's names, so it
is not scanned.

A second scan holds the public API to its use: every module-level public
function and class must be read as a name or an attribute somewhere in
``src/qdini`` outside its own definition and outside ``__init__``, or be a
click command, or be listed in ``KEPT`` with the reason it stays.

A third check reads ``LAYERS`` of perfbench/tracer.py with ``ast`` and
requires a module of src/qdini for each layer, as the tracer does.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "qdini"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(pathlib.Path(__file__).resolve().parent.glob("*.py"))
TRACER = SRC.parents[1] / "perfbench" / "tracer.py"


def unused_imports(source: str) -> list:
    """(line, name) of every imported name that the module never reads and whose line has no ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(alias.lineno, alias.asname or alias.name) for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        annotations = [getattr(node, "annotation", None), getattr(node, "returns", None)]
        for text in (a.value for a in annotations if isinstance(a, ast.Constant) and isinstance(a.value, str)):
            used |= {name.id for name in ast.walk(ast.parse(text, mode="eval")) if isinstance(name, ast.Name)}
    return [(line, name) for line, name in imported
            if name not in used and "# noqa: F401" not in lines[line - 1]]


# public names with no caller in src/qdini, each kept for the reason given
KEPT = {
    "regularized_log_ladder": "the regularized-log ladder and its LadderResult, which AC5 calls",
    "commutator_norm": "certifies that a commuting schedule commutes with rho_n; AC9 calls it",
    "validate_schedule": "the five schedule conditions with the probe trend; AC9 calls it",
    "support_projector": "the support projector that the per-projector reference of tests/test_schedules.py reads",
    "strong_convergence_probe": "strong convergence Phi_n -> Phi_0, a hypothesis of the channel-MI theorem",
    "dominated_truncation": "the one-cell API of the dominated map that the README documents",
    "constant_sequence": "public constructor of a constant operator sequence",
    "complementary_channel": "public constructor of the complementary channel Phi^ whose output entropy channel MI reads",
    "laa_check": "public LAA functional rule",
    "quantum_mutual_information": "public functional I(A:B) of a bipartite state",
    "is_psd": "the PSD rule answered without building an operator",
    "dense_materialization_count": "the dense fast-path counter that perfbench reads",
}


def _is_command(node) -> bool:
    """Whether a definition carries a click ``command`` or ``group`` decorator."""
    for decorator in node.decorator_list:
        func = decorator.func if isinstance(decorator, ast.Call) else decorator
        if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) in ("command", "group"):
            return True
    return False


def unreferenced_api(sources: dict) -> list:
    """(module, name) of every module-level public function and class that no other definition or statement reads.

    ``sources`` maps module names to their text.  A name counts as read
    where it appears as a name or as an attribute, anywhere in any module
    but inside its own definition.  Click commands are exempt.
    """
    defined, readers = [], {}
    for module, source in sources.items():
        tree = ast.parse(source)
        for top in tree.body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            if owner and not owner.startswith("_") and not _is_command(top):
                defined.append((module, owner))
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
                if name:
                    readers.setdefault(name, set()).add((module, owner))
    return [(module, name) for module, name in defined if not readers.get(name, set()) - {(module, name)}]


def test_modules_found():
    assert any(p.name == "diagnostics.py" for p in MODULES)


def tracer_layers() -> tuple:
    """The ``LAYERS`` tuple of perfbench/tracer.py, read with ``ast``: the tracer is neither imported nor run."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no LAYERS")


def test_every_traced_layer_is_a_module():
    # the tracer installs over sys.modules[f"qdini.{layer}"] for every layer, so a
    # deleted module breaks ``perfbench/run.py --trace 1`` and perfbench/tests
    layers = tracer_layers()
    assert layers and [layer for layer in layers if not (SRC / f"{layer}.py").is_file()] == []


@pytest.mark.parametrize("path", MODULES + TESTS, ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TESTS])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_sees_unused_and_kept_imports():
    source = '''
from __future__ import annotations
import numpy as np
import os.path
from .a import (
    used,
    unused,
    kept,  # noqa: F401  importable from here
)
from .b import Quoted


def f(x: "Quoted") -> None:
    return used(np.pi, os.sep)
'''
    assert unused_imports(source) == [(7, "unused")]


def test_every_public_name_has_a_caller_or_a_reason():
    unused = unreferenced_api({p.stem: p.read_text() for p in MODULES})
    assert sorted(name for _, name in unused) == sorted(KEPT)
    assert all(reason.strip() for reason in KEPT.values())


def test_the_api_scan_sees_callers_commands_and_self_reference():
    sources = {
        "a": """
import click

def used(x):
    return x

def recursive(n):
    return recursive(n - 1) if n else 0

class Node:
    def child(self) -> "Node":
        return Node()

def _private():
    return 0

@click.group()
def main():
    pass

@main.command()
def run():
    pass
""",
        "b": """
from .a import used
from . import a

def caller():
    return used(1) + a.Node
""",
    }
    assert unreferenced_api(sources) == [("a", "recursive"), ("b", "caller")]
