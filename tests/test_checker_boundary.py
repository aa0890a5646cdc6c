"""The certificate checker stands apart from the search.

`InterleavingCertificate` lives in `persimod.morphisms`, and the package
modules that module's source imports, followed to the end, are exactly
`morphisms`, `barcodes`, `fields` and `intervals`: the lines a reader must
trust to believe a reported distance.  The walk follows every relative
import, `TYPE_CHECKING` ones included, so even a type-only import of the
search (`interleaving`, `matching`, `limits`, ...) breaks the boundary.
The boundary is one of source, not of loading: importing any submodule
still runs the package's `__init__.py`.

Those four modules stay under the line ceiling that README states.

The same walk keeps two more lines: reading files (`io`) reaches no search
and no tower code, and `canonical`, home of the tower contract
(`InductiveSystem`), reaches neither `limits` nor the search.  No module
imports under `TYPE_CHECKING`, so every import the walk sees is a real one."""

import ast
import re
from pathlib import Path

import pytest

import persimod
from persimod import interleaving
from persimod.morphisms import InterleavingCertificate

PACKAGE = Path(persimod.__file__).resolve().parent
README = PACKAGE.parents[1] / "README.md"
TRUSTED = {"morphisms", "barcodes", "fields", "intervals"}
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}

# (module, the package modules its source closure must not reach); the
# checker's own row is exact, in test_checker_closure_is_the_trusted_modules
BOUNDARIES = [
    ("io", {"interleaving", "matching", "limits", "cli"}),
    ("canonical", {"limits", "interleaving", "matching"}),
]


def _package_imports(source):
    """The package modules one module's source imports by relative import."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def _closure(start, read):
    """Every module reached from `start`; `read(name)` gives a module's source."""
    seen, todo = set(), [start]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(_package_imports(read(name)))
    return seen


def _read(name):
    return (PACKAGE / f"{name}.py").read_text()


def test_checker_closure_is_the_trusted_modules():
    assert _closure("morphisms", _read) == TRUSTED


@pytest.mark.parametrize("start, excluded", BOUNDARIES, ids=[row[0] for row in BOUNDARIES])
def test_closure_stays_inside_its_boundary(start, excluded):
    assert _closure(start, _read) & excluded == set()


def test_no_module_imports_under_type_checking():
    def guarded(source):
        return any(
            "TYPE_CHECKING" in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
            for node in ast.walk(ast.parse(source))
        )

    assert sorted(name for name in MODULES if guarded(_read(name))) == []


def test_readme_counts_exactly_the_trusted_modules():
    (listed,) = re.findall(r"wc -l src/persimod/\{([a-z,]+)\}\.py", README.read_text())
    assert set(listed.split(",")) == TRUSTED


def test_trusted_modules_stay_under_the_readme_ceiling():
    # the distance checker must not grow; README states the ceiling
    (ceiling,) = re.findall(r"at most ([0-9,]+) lines", README.read_text())
    assert sum(_read(name).count("\n") for name in TRUSTED) <= int(ceiling.replace(",", ""))


def test_certificate_class_has_one_home():
    assert InterleavingCertificate.__module__ == "persimod.morphisms"
    assert interleaving.InterleavingCertificate is InterleavingCertificate
    assert persimod.InterleavingCertificate is InterleavingCertificate


def test_io_and_limits_import_the_checker_from_morphisms():
    for name in ("io", "limits"):
        sources = {
            node.module
            for node in ast.walk(ast.parse(_read(name)))
            if isinstance(node, ast.ImportFrom)
            and any(alias.name == "InterleavingCertificate" for alias in node.names)
        }
        assert sources == {"morphisms"}, name


def test_walk_sees_a_type_only_import_of_the_search():
    sources = {
        "morphisms": "from typing import TYPE_CHECKING\nfrom .fields import GF2\n"
        "if TYPE_CHECKING:\n    from .matching import matching_covering\n",
        "fields": "from . import intervals\n",
        "intervals": "import sys\n",
        "matching": "from bisect import bisect_left\n",
    }
    assert _closure("morphisms", sources.__getitem__) == {"morphisms", "fields", "intervals", "matching"}
