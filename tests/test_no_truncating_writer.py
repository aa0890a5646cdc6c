"""`io._write` is the library's one writer of files.  It overwrites in place
and then cuts the file to length, because truncating a file on open costs a
flush on some filesystems; no other code may open a file for writing."""

import ast
from pathlib import Path

import persimod


def _writing_opens(tree):
    """(lineno, reason) of each `open(...)`-like call whose mode writes or is
    not a literal, each `os.open(...)` that names `O_TRUNC`, and each
    `Path.write_text`/`write_bytes`."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = ast.unparse(node.func)
        if name == "os.open":
            if "O_TRUNC" in ast.unparse(node):
                yield node.lineno, "os.open() with O_TRUNC"
        elif name in ("open", "os.fdopen") or name.endswith(".open"):
            for mode in [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[1:2]:
                if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
                    yield node.lineno, f"{name}() with a computed mode"
                elif set(mode.value) & set("wax+"):
                    yield node.lineno, f"{name}() in mode {mode.value!r}"
        elif name.endswith((".write_text", ".write_bytes")):
            yield node.lineno, f"{name}()"


def _lines_of_write(path, tree):
    """The lines of `io._write`, the one writer allowed."""
    if path.name != "io.py":
        return set()
    defs = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_write"]
    return {n.lineno for d in defs for n in ast.walk(d) if hasattr(n, "lineno")}


def test_only_io_write_opens_a_file_for_writing():
    sources = sorted(Path(persimod.__file__).resolve().parent.glob("*.py"))
    assert sources
    found, writers = [], 0
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        skip = _lines_of_write(path, tree)
        writers += bool(skip)
        found += [f"{path.name}:{line}: {why}" for line, why in _writing_opens(tree) if line not in skip]
    assert found == []
    assert writers == 1  # `io._write` is there to be the exception


def test_the_checker_catches_each_truncating_form():
    code = "\n".join([
        'open(p, "w")',
        'open(p, mode="a")',
        'open(p, "r+")',
        "open(p, m)",
        "os.open(p, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)",
        '_io.open(p, "wb")',
        "Path(p).write_text(t)",
        'open(p, "r")',
        "open(p)",
        "os.open(os.devnull, os.O_WRONLY)",
    ])
    assert [line for line, _ in _writing_opens(ast.parse(code))] == [1, 2, 3, 4, 5, 6, 7]
