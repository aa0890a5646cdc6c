"""Every public name is used by the library or documented as API: a name in
a module's `__all__` must be referenced somewhere in the package outside
`__init__.py` (as a name, an attribute or an import), or be named in a code
span of README.md.  A name whose only caller is a test is not API.

The scan cannot tell a module-level function from a method of the same name
(`Barcode.shift` references any `shift`), so such a clash needs a reader."""

import ast
import re
from pathlib import Path

import persimod

README = Path(__file__).resolve().parents[1] / "README.md"


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def test_every_exported_name_is_referenced_or_documented():
    sources = sorted(Path(persimod.__file__).resolve().parent.glob("*.py"))
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sources}
    referenced = set()
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    documented = {span.split(".")[-1] for span in re.findall(r"`([^`\n]+)`", README.read_text())}
    unused = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _exported(tree)
        if name not in referenced and name not in documented
    ]
    assert unused == []
