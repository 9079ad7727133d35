"""Properties of the library's source as a whole."""

import ast
from pathlib import Path

import pershom


def test_library_holds_no_assert_statement():
    # checks must be real exceptions, which `python -O` cannot skip
    modules = sorted(Path(pershom.__file__).parent.rglob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(node, ast.Assert)]
    assert found == []
