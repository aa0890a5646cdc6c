import importlib.util
import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

import persimod
from persimod import Barcode, Interval
from persimod.fields import GF2
from persimod.intervals import hom, DEG0
from persimod.morphisms import InterleavingCertificate, Morphism
from oracles import field_elements, is_blown_up_covering


@pytest.fixture(autouse=True)
def subprocess_imports_package_under_test(monkeypatch):
    """Put the directory holding the imported `persimod` first on PYTHONPATH.

    Subprocesses started with another cwd (the CLI smoke tests run in
    `tmp_path`) then import the package this session tests, even when the
    suite was started with a relative `PYTHONPATH=src` and nothing is
    installed. Existing entries are kept after it; monkeypatch restores
    the environment after each test.
    """
    root = str(Path(persimod.__file__).resolve().parent.parent)
    rest = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", root + os.pathsep + rest if rest else root)


def perfbench_gen():
    """The benchmark's input generators, `perfbench/gen.py`."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def rng():
    return random.Random(0xBAC0DE)


def rand_barcode(rng, n_bars, degrees=(0,), lo_range=(0, 10), den=4, max_len=10):
    """Random barcode with rational endpoints of bounded denominator."""
    bars = []
    for _ in range(n_bars):
        lo = Fraction(rng.randint(lo_range[0] * den, lo_range[1] * den), den)
        ln = Fraction(rng.randint(1, max_len * den), den)
        bars.append((rng.choice(degrees), Interval(lo, lo + ln)))
    return Barcode(bars)


def rand_plf(rng, domain, max_breaks=12, den=4, val_range=(0, 10)):
    """Random piecewise-linear function; low denominators make ties common."""
    from persimod.spectral import PLFunction

    m = rng.randint(2, max_breaks)
    bps = sorted(rng.sample(range(4 * val_range[1] + 1), m))
    vals = [Fraction(rng.randint(val_range[0] * den, val_range[1] * den), den)
            for _ in range(m)]
    return PLFunction(domain, [Fraction(b, 4) for b in bps], vals)


def rand_realized_morphism(rng, src, tgt, field, density=0.6):
    """Random morphism: each Hom-realizable cell filled with prob. density."""
    entries = {}
    try:
        nz = [x for x in field_elements(field) if x != field.zero]
    except NotImplementedError:
        nz = [Fraction(k) for k in (1, 2, 3, -1)]
    for t in range(len(tgt)):
        for s in range(len(src)):
            if (src[s].degree == tgt[t].degree
                    and hom(src[s].interval, tgt[t].interval) is DEG0
                    and rng.random() < density):
                entries[(t, s)] = rng.choice(nz)
    return Morphism(src, tgt, entries, field=field)


def tampered(rng, m, how):
    """m with one entry changed (by adding one), dropped, or one allowed
    empty cell given the value one; m itself when there is no such cell."""
    fld = m.field
    if how == "added":
        cells = [
            (t, s) for t, tgt in enumerate(m.target) for s, src in enumerate(m.source)
            if (t, s) not in m.entries and src.degree == tgt.degree and hom(src.interval, tgt.interval) is DEG0
        ]
    else:
        cells = sorted(m.entries)
    if not cells:
        return m
    key = rng.choice(cells)
    value = {"changed": fld.add(m.entries.get(key, fld.zero), fld.one), "dropped": fld.zero, "added": fld.one}[how]
    return Morphism(m.source, m.target, {**m.entries, key: value}, field=fld)


def assert_same_entries(F, G, a, b, got, want):
    """Entries (u, v) of a decision at shifts (a, b), or None, against an
    oracle's.  Without repeated bars they are equal.  A decision pairs the
    copies of a repeated bar in its own order, so there the two agree on
    the decision, and `got` is a covering matching of the per-copy graph
    whose certificate re-verifies."""
    if not any(x == y for bc in (F, G) for x, y in zip(bc.bars, bc.bars[1:])):
        assert got == want
        return
    assert (got is None) == (want is None)
    if got is not None:
        u, v = got
        assert is_blown_up_covering(F, G, a, b, u, v)
        InterleavingCertificate(a, b, Morphism(F, G.shift(a), u, GF2), Morphism(G, F.shift(b), v, GF2))
