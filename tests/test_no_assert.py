"""Verification in the library never rides on `assert`: `python -O` strips
every assert statement, so a check written as one would silently vanish."""

import ast
from pathlib import Path

import persimod


def test_library_source_has_no_assert_statement():
    sources = sorted(Path(persimod.__file__).resolve().parent.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
