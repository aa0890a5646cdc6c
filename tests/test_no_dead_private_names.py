"""Every private module-level name of the library is read: a `_name` that a
module defines at its top level (a function, a class or an assignment) must
be referenced somewhere in the package outside its own definition, as a
name, an attribute or an import.  A private name that nothing reads is dead
code, which neither the public-name check nor the dead-import check sees.
Dunder names (`__all__`) are not private names."""

import ast
from pathlib import Path

import persimod


def _defined(tree):
    """{name: (first line, last line)} of each private top-level definition."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                found[name] = (node.lineno, node.end_lineno)
    return found


def _dead_private_names(sources):
    """Sorted `module.name` of the private top-level names of `sources`
    ({module: source}) that no module reads outside their definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = {}  # name -> [(module, line)]
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    reads.setdefault(alias.name, []).append((module, node.lineno))
                continue
            else:
                continue
            reads.setdefault(name, []).append((module, node.lineno))
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, (first, last) in _defined(tree).items()
        if not any(where != module or not first <= line <= last for where, line in reads.get(name, ()))
    )


def test_library_modules_have_no_dead_private_names():
    paths = sorted(Path(persimod.__file__).resolve().parent.glob("*.py"))
    assert paths
    assert _dead_private_names({path.stem: path.read_text() for path in paths}) == []


def test_scan_sees_a_dead_private_name():
    sources = {
        "a": "_CAP = 3\n_SEEN, _LOST = 1, 2\n\n\ndef _walk(n):\n    return _walk(n - 1) if n else _CAP\n\n\n"
        "def _kept():\n    return _SEEN\n\n\nclass _Gone:\n    __slots__ = ()\n",
        "b": "from .a import _kept\n\nvalue = _kept()\n",
    }
    assert _dead_private_names(sources) == ["a._Gone", "a._LOST", "a._walk"]
