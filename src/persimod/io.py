"""Text formats: barcodes, morphisms, PL functions, point clouds, tower
directories, and interleaving-certificate files.

`_read_text` is the package's one reader of input text: an unreadable or
non-UTF-8 file is a ParseError naming it.  `_split` applies the one header
rule of every headed format: a `key: value` line whose key the format
names is a header, each key at most once, and a `.cert` file's headers
come before its `[name]` sections.  `_parsed` is the one refusal of a bad
token or header value.  All emitters are deterministic
(sorted, canonical spellings) so emitted bytes are diffable; within the
size caps, every parser round-trips its emitter exactly.
"""

from __future__ import annotations

import csv
import io as _io
import os
import re
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .barcodes import Bar, Barcode
from .canonical import InductiveSystem
from .fields import GF2, field_by_name
from .intervals import ExtRat, Interval, parse_rational
from .morphisms import InterleavingCertificate, Morphism, _cell_allowed
from .spectral import PLFunction

__all__ = [
    "MAX_BARS",
    "MAX_MULTIPLICITY",
    "ParseError",
    "parse_barcode",
    "parse_barcode_text",
    "emit_barcode",
    "parse_plfunction",
    "emit_plfunction",
    "parse_cloud",
    "emit_cloud",
    "stage_files",
    "load_system",
    "emit_system",
    "load_certificate",
    "emit_certificate",
    "validate_file",
]


class ParseError(ValueError):
    """Malformed input file; carries path and (when known) line number.
    A ValueError, like the refusal of a bad value it reports."""

    def __init__(self, path, line: Optional[int], msg: str):
        self.path = str(path)
        self.line = line
        where = f"{path}:{line}" if line is not None else str(path)
        super().__init__(f"{where}: {msg}")


def _read_text(path) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ParseError(path, None, f"cannot read ({err})") from None


def _parsed(path, line: Optional[int], what: str, parse, raw):
    """`parse(raw)`; a value it refuses is a ParseError naming `what`."""
    try:
        return parse(raw)
    except (ValueError, ZeroDivisionError) as err:
        raise ParseError(path, line, f"{what} ({err})") from None


def _lines(text: str):
    """Yield (lineno, content) with comments and blank lines removed."""
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield n, line


def _split(path, keys, sections=()):
    """(headers, body) of the text file at `path`.

    A `key: value` line whose key is in `keys` is a header; a key may appear
    once.  Other lines are data, as (lineno, line) in `body[None]`.  With
    `sections`, a `[name]` line opens `body[name]`: each section appears
    once and all are required, only headers come before the first, and
    every line after it is data."""
    headers: Dict[str, str] = {}
    body: Dict[Optional[str], List[Tuple[int, str]]] = {None: []}
    current = None
    for n, line in _lines(_read_text(path)):
        if sections and line[0] == "[" and line[-1] == "]" and line[1:-1] in sections:
            current = line[1:-1]
            if current in body:
                raise ParseError(path, n, f"duplicate section [{current}]")
            body[current] = []
            continue
        if current is None and ":" in line:
            key, value = (part.strip() for part in line.split(":", 1))
            if key in keys and value:
                if key in headers:
                    raise ParseError(path, n, f"duplicate {key} header")
                headers[key] = value
                continue
        if sections and current is None:
            raise ParseError(path, n, f"expected header or section, got {line!r}")
        body[current].append((n, line))
    for name in sections:
        if name not in body:
            raise ParseError(path, None, f"missing section [{name}]")
    return headers, body


# -- barcodes ---------------------------------------------------------------

# Bars are stored expanded, one entry per copy, so a multiplicity column and
# a barcode's total of copies are capped before anything is allocated for
# them: the line that would take the total past MAX_BARS is refused.
MAX_MULTIPLICITY = 100_000
MAX_BARS = 1_000_000


def parse_barcode_text(text: str, path="<string>") -> Barcode:
    return _barcode(path, _lines(text))


def _barcode(path, numbered) -> Barcode:
    """The barcode of `numbered` (lineno, line) data lines; a refusal names `path` and the line."""
    bars: List[Bar] = []
    for n, line in numbered:
        parts = line.split()
        if len(parts) not in (3, 4):
            raise ParseError(path, n, f"expected 'degree lo hi [mult]', got {line!r}")
        degree, lo, hi, mult = _parsed(path, n, "unknown token", _bar_tokens, parts)
        if mult < 1:
            raise ParseError(path, n, "multiplicity must be >= 1")
        if mult > MAX_MULTIPLICITY:
            raise ParseError(path, n, f"multiplicity {mult} exceeds the cap of {MAX_MULTIPLICITY}")
        if len(bars) + mult > MAX_BARS:
            raise ParseError(path, n, f"{len(bars) + mult} bars exceed the cap of {MAX_BARS} per barcode")
        if lo >= hi:
            raise ParseError(path, n, f"empty interval [{lo},{hi})")
        bars.extend([Bar(degree, Interval(lo, hi))] * mult)
    return Barcode(bars)


def _bar_tokens(parts):
    return int(parts[0]), ExtRat(parts[1]), ExtRat(parts[2]), int(parts[3]) if len(parts) == 4 else 1


def parse_barcode(path) -> Barcode:
    return parse_barcode_text(_read_text(path), path)


def emit_barcode(b: Barcode) -> str:
    out = ["# degree lo hi [multiplicity]"]
    for bar, count in b.counts():
        line = f"{bar.degree} {bar.interval.lo} {bar.interval.hi}"
        # Runs longer than the parser's cap are split so the text reads back.
        while count > MAX_MULTIPLICITY:
            out.append(f"{line} {MAX_MULTIPLICITY}")
            count -= MAX_MULTIPLICITY
        out.append(line if count == 1 else f"{line} {count}")
    return "\n".join(out) + "\n"


# -- PL functions -----------------------------------------------------------


def parse_plfunction(path) -> PLFunction:
    headers, body = _split(path, ("domain",))
    # Values repeat, so each distinct token is parsed once, at its first
    # line; the memo goes with this call.
    memo: Dict[str, Fraction] = {}
    bps: List[Fraction] = []
    vals: List[Fraction] = []
    for n, line in body[None]:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(path, n, f"expected '<breakpoint> <value>', got {line!r}")
        b, v = parts
        if b not in memo:
            memo[b] = _parsed(path, n, "unknown token", parse_rational, b)
        if v not in memo:
            memo[v] = _parsed(path, n, "unknown token", parse_rational, v)
        bps.append(memo[b])
        vals.append(memo[v])
    if "domain" not in headers:
        raise ParseError(path, None, "missing 'domain: circle|interval' header")
    try:
        return PLFunction(headers["domain"], bps, vals)
    except ValueError as err:
        raise ParseError(path, None, str(err)) from None


def emit_plfunction(f: PLFunction) -> str:
    out = [f"domain: {f.domain}"]
    out.extend(f"{b} {v}" for b, v in zip(f.breakpoints, f.values))
    return "\n".join(out) + "\n"


# -- point clouds -----------------------------------------------------------


def parse_cloud(path):
    from .cones import PointCloud

    rows: List[List[float]] = []
    numbered = list(_lines(_read_text(path)))
    # One reader over all rows; `line_num` counts the lines it has consumed.
    reader = csv.reader(line for _, line in numbered)
    for row in reader:
        cells = [c for c in map(str.strip, row) if c]
        if not cells:
            continue
        n = numbered[reader.line_num - 1][0]
        # `list` drains the map inside `_parsed`, so a bad cell names line n
        rows.append(_parsed(path, n, "unknown token", list, map(float, cells)))
        if len(cells) != len(rows[0]):
            raise ParseError(path, n, "ragged row")
    if not rows:
        raise ParseError(path, None, "empty point cloud")
    try:
        return PointCloud(rows)
    except ValueError as err:
        raise ParseError(path, None, str(err)) from None


def emit_cloud(cloud) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in cloud.points:
        writer.writerow([repr(float(x)) for x in row])
    return buf.getvalue()


# -- morphism entry files ---------------------------------------------------


def _parse_entry(path, n: int, line: str) -> Tuple[int, int, Fraction, int]:
    """One `<target> <source> <scalar>` line, tagged with its line number."""
    parts = line.split()
    if len(parts) != 3:
        raise ParseError(path, n, f"expected '<target> <source> <scalar>', got {line!r}")
    return (*_parsed(path, n, "unknown token", _entry_tokens, parts), n)


def _entry_tokens(parts) -> Tuple[int, int, int | Fraction]:
    # parse_rational's digit test: an integer stays an int, which a prime
    # field reduces without an inverse; parse_rational refuses an over-long one
    digits = parts[2][1:] if parts[2][:1] in ("+", "-") else parts[2]
    whole = digits.isascii() and digits.isdigit() and not 0 < sys.get_int_max_str_digits() < len(digits)
    return int(parts[0]), int(parts[1]), int(parts[2]) if whole else parse_rational(parts[2])


def _parse_morphism_entries(path, field) -> Tuple[Dict[str, str], List[Tuple[int, int, Fraction, int]]]:
    """Headers and entries of a `.mor` file, whose `field:` header must name `field`."""
    headers, body = _split(path, ("source", "target", "shift", "field"))
    entries = [_parse_entry(path, n, line) for n, line in body[None]]
    if "field" in headers and _parsed(path, None, "bad field header", field_by_name, headers["field"]) != field:
        raise ParseError(path, None, f"field header is not {_field_name(field)}")
    return headers, entries


def _build_morphism(path, source: Barcode, target: Barcode, entries, field) -> Morphism:
    """The morphism of parsed entries, checked by its constructor; a refused
    file is scanned again in line order to name its first faulty line."""
    table = {(t, s): scalar for t, s, scalar, _ in entries}
    if len(table) == len(entries):  # else a duplicate: named below
        try:
            return Morphism(source, target, table, field)
        except (IndexError, ValueError, ZeroDivisionError):
            pass
    table = {}
    for t, s, scalar, n in entries:
        if not (0 <= t < len(target.bars) and 0 <= s < len(source.bars)):
            raise ParseError(path, n, f"entry ({t},{s}) out of range")
        if (t, s) in table:
            raise ParseError(path, n, f"duplicate entry ({t},{s})")
        val = _parsed(path, n, "bad scalar", field.canon, scalar)
        src, tgt = source.bars[s], target.bars[t]
        if val != field.zero and not _cell_allowed(src, tgt):
            raise ParseError(path, n, f"entry ({t},{s}) not allowed: no degree-0 generator {src.interval} -> {tgt.interval}")
        table[(t, s)] = val
    return Morphism(source, target, table, field)


# -- tower directories ------------------------------------------------------

_STAGE_RE = re.compile(r"^F(\d+)\.bc$")


def stage_files(dirpath) -> List[str]:
    """Paths of the stage files `F0.bc .. FN.bc` in `dirpath`, by index.

    Raises ParseError unless every index from 0 to N has exactly one file
    (`F01.bc` has index 1, so beside `F1.bc` it is a duplicate)."""
    if not os.path.isdir(dirpath):
        raise ParseError(dirpath, None, "not a directory")
    named = sorted((int(m.group(1)), f) for f in os.listdir(dirpath) if (m := _STAGE_RE.match(f)))
    if not named:
        raise ParseError(dirpath, None, "no stage files F<n>.bc")
    for (i, f), (j, g) in zip(named, named[1:]):
        if i == j:
            raise ParseError(dirpath, None, f"duplicate stage index {i}: {f}, {g}")
    stage_ids = [i for i, _ in named]
    if stage_ids != list(range(len(stage_ids))):
        raise ParseError(dirpath, None, f"stage files not contiguous from F0: {stage_ids}")
    return [os.path.join(dirpath, f) for _, f in named]


def load_system(dirpath, field=GF2) -> InductiveSystem:
    """Read `F0.bc .. FN.bc`, `f0.mor ..`, optional `g*.mor`, `slacks.txt`."""
    stages = [parse_barcode(path) for path in stage_files(dirpath)]
    n_steps = len(stages) - 1

    slacks: List[Fraction] = []
    slacks_path = os.path.join(dirpath, "slacks.txt")
    if n_steps > 0 or os.path.exists(slacks_path):
        for n, line in _lines(_read_text(slacks_path)):
            slacks.extend(_parsed(slacks_path, n, "unknown token", parse_rational, tok) for tok in line.split())
        if len(slacks) != n_steps:
            raise ParseError(
                slacks_path, None, f"expected {n_steps} slacks, found {len(slacks)}"
            )

    maps, reverses = [], []
    for n in range(n_steps):
        fpath = os.path.join(dirpath, f"f{n}.mor")
        if not os.path.exists(fpath):
            raise ParseError(fpath, None, "missing forward map")
        headers, entries = _parse_morphism_entries(fpath, field)
        _check_headers(fpath, headers, f"F{n}.bc", f"F{n + 1}.bc", Fraction(0))
        maps.append(_build_morphism(fpath, stages[n], stages[n + 1], entries, field))
        gpath = os.path.join(dirpath, f"g{n}.mor")
        if os.path.exists(gpath):
            headers, entries = _parse_morphism_entries(gpath, field)
            _check_headers(gpath, headers, f"F{n + 1}.bc", f"F{n}.bc", slacks[n])
            reverses.append(
                _build_morphism(gpath, stages[n + 1], stages[n].shift(slacks[n]), entries, field)
            )
        else:
            reverses.append(None)
    try:
        return InductiveSystem(stages, maps, slacks, reverses, field)
    except ValueError as err:
        raise ParseError(dirpath, None, f"inconsistent tower: {err}") from None


def _check_headers(path, headers, want_source, want_target, want_shift):
    if "source" in headers and os.path.basename(headers["source"]) != want_source:
        raise ParseError(path, None, f"source header is not {want_source}")
    if "target" in headers and os.path.basename(headers["target"]) != want_target:
        raise ParseError(path, None, f"target header is not {want_target}")
    if "shift" in headers and _parsed(path, None, "bad shift header", parse_rational, headers["shift"]) != want_shift:
        raise ParseError(path, None, f"shift header is not {want_shift}")


def emit_system(dirpath, system: InductiveSystem) -> None:
    os.makedirs(dirpath, exist_ok=True)
    for i, stage in enumerate(system.stages):
        _write(os.path.join(dirpath, f"F{i}.bc"), emit_barcode(stage))
    if system.maps:
        _write(
            os.path.join(dirpath, "slacks.txt"),
            "\n".join(str(s) for s in system.slacks) + "\n",
        )
    for n, f in enumerate(system.maps):
        _write(os.path.join(dirpath, f"f{n}.mor"), _emit_entries(f))
    for n, g in enumerate(system.reverses):
        if g is not None:
            _write(os.path.join(dirpath, f"g{n}.mor"), _emit_entries(g))


def _emit_entries(f: Morphism) -> str:
    out = ["# target source scalar"]
    for (t, s), val in sorted(f.entries.items()):
        out.append(f"{t} {s} {val}")
    return "\n".join(out) + "\n"


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# -- certificate files ------------------------------------------------------


def load_certificate(path, field=GF2):
    """Read a self-contained certificate file and re-verify it; a file
    without a `field:` header is read in `field`.

    Returns (F, G, certificate); the certificate constructor re-checks the
    round-trip identities, so a doctored file fails loudly.
    """
    headers, sections = _split(path, ("a", "b", "field"), ("source", "target", "forward", "reverse"))
    if "a" not in headers or "b" not in headers:
        raise ParseError(path, None, "missing a:/b: headers")
    a, b = (_parsed(path, None, "bad shift header", parse_rational, headers[k]) for k in "ab")
    if a < 0 or b < 0:
        raise ParseError(path, None, "bad shift header (interleaving shifts must be nonnegative)")
    if "field" in headers:
        field = _parsed(path, None, "bad field header", field_by_name, headers["field"])

    def entries(name):
        return [_parse_entry(path, n, line) for n, line in sections[name]]

    source, target = _barcode(path, sections["source"]), _barcode(path, sections["target"])
    u = _build_morphism(path, source, target.shift(a), entries("forward"), field)
    v = _build_morphism(path, target, source.shift(b), entries("reverse"), field)
    return source, target, InterleavingCertificate(a, b, u, v)


def _field_name(field) -> str:
    return str(field.p) if hasattr(field, "p") else "q"


def emit_certificate(F: Barcode, G: Barcode, cert: InterleavingCertificate) -> str:
    out = [
        "# interleaving certificate",
        f"a: {cert.a}",
        f"b: {cert.b}",
        f"field: {_field_name(cert.u.field)}",
        "[source]",
        emit_barcode(F).rstrip("\n"),
        "[target]",
        emit_barcode(G).rstrip("\n"),
        "[forward]",
        _emit_entries(cert.u).rstrip("\n"),
        "[reverse]",
        _emit_entries(cert.v).rstrip("\n"),
    ]
    return "\n".join(out) + "\n"


# -- validation front door --------------------------------------------------


def validate_file(path, field=GF2) -> str:
    """Parse any supported fixture and return a one-line summary.  A tower
    or `.mor` file is read in `field`, and so is a `.cert` without `field:`."""
    if os.path.isdir(path):
        system = load_system(path, field)
        return (
            f"tower: {len(system.stages)} stages, "
            f"{sum(g is not None for g in system.reverses)} reverse maps"
        )
    ext = os.path.splitext(str(path))[1]
    if ext == ".bc":
        b = parse_barcode(path)
        degs = ",".join(str(d) for d in b.degrees()) or "-"
        return f"barcode: {len(b.bars)} bars, degrees {degs}"
    if ext == ".plf":
        f = parse_plfunction(path)
        return f"pl-function: {f.domain}, {len(f.breakpoints)} breakpoints"
    if ext == ".csv":
        cloud = parse_cloud(path)
        return f"point-cloud: {len(cloud)} points in R^{cloud.dimension}"
    if ext == ".cert":
        F, G, cert = load_certificate(path, field)
        return f"certificate: shifts ({cert.a},{cert.b}) verified"
    if ext == ".mor":
        headers, entries = _parse_morphism_entries(path, field)
        if "source" not in headers or "target" not in headers:
            raise ParseError(path, None, "standalone morphism needs source:/target: headers")
        base = os.path.dirname(os.path.abspath(str(path)))
        source = parse_barcode(os.path.join(base, headers["source"]))
        target = parse_barcode(os.path.join(base, headers["target"]))
        shift = _parsed(path, None, "bad shift header", parse_rational, headers.get("shift", "0"))
        f = _build_morphism(path, source, target.shift(shift), entries, field)
        return f"morphism: {len(f.entries)} entries, shift {shift}"
    raise ParseError(path, None, f"unknown fixture kind {ext!r}")
