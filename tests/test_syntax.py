"""Every Python file of the project parses under the oldest grammar it supports.

pyproject.toml declares requires-python >= 3.10, while the suite usually
runs on a newer interpreter; ``ast.parse(..., feature_version=(3, 10))``
rejects grammar a 3.10 interpreter would not accept.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
FILES = sorted(p for top in ("src", "tests", "perfbench") for p in (ROOT / top).rglob("*.py"))


def test_files_found():
    assert any(p.name == "truncation.py" for p in FILES)
    assert any(p.parent.name == "perfbench" for p in FILES)


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
