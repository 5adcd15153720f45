"""No module of src/qdini but ``__init__`` imports a name it never uses.

A stdlib ``ast`` scan stands in for a linter: every name that an
``import`` or ``from ... import`` binds must be read somewhere in the
module, as a name, the root of an attribute, or inside a string
annotation.  A name kept importable on purpose carries ``# noqa: F401``
on its import line.  ``__init__`` re-exports the package's names, so it
is not scanned.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "qdini"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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


def test_modules_found():
    assert any(p.name == "diagnostics.py" for p in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
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
