"""Every name a library module imports is referenced in that module: an
import that nothing reads is dead code.  `__future__` imports are compiler
directives, and `__init__.py` imports only to re-export, so neither is
scanned."""

import ast
from pathlib import Path

import persimod


def _dead_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_library_modules_have_no_dead_imports():
    sources = sorted(Path(persimod.__file__).resolve().parent.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{line}: {name}"
        for path in sources
        if path.name != "__init__.py"
        for line, name in _dead_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_scan_sees_a_dead_import():
    tree = ast.parse("from __future__ import annotations\nimport os.path\nfrom typing import List, Tuple\nx: List[int] = []\n")
    assert _dead_imports(tree) == [(2, "os"), (3, "Tuple")]
