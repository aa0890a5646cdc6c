"""Runs of copies: each per-bar step of the certificate path is done once per
run (consecutive bars of one degree on one `Interval` object) and reused.

The oracle is the same code on copies that share no object: `fresh` rebuilds
a barcode with a new `Interval` per copy, so no step can be skipped there.
Every result must be equal with and without shared objects, and each refusal
must still be made at its own bar or entry."""

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from persimod import Barcode, Interval, check_interleaving, gamma
from persimod.fields import GF2, QQ, PrimeField
from persimod.intervals import DEG0, NEG_INF, POS_INF, hom
from persimod.io import emit_certificate, load_certificate, parse_barcode_text
from persimod.morphisms import InterleavingCertificate, Morphism, _is_round_trip, _product, tau_morphism

FIELDS = [GF2, PrimeField(5), QQ]
DEN = 4


def fresh(bc):
    """`bc` with a new Bar and a new Interval for every copy: no runs."""
    return Barcode([(b.degree, Interval(b.interval.lo, b.interval.hi)) for b in bc.bars])


def runs(bc):
    """The number of runs of `bc`."""
    pairs = zip(bc.bars, (None,) + bc.bars)
    return sum(1 for b, p in pairs if p is None or b.interval is not p.interval or b.degree != p.degree)


@st.composite
def run_barcodes(draw, max_items=5, max_copies=4):
    """A barcode of runs on degrees {0, 1}: each item is a run of copies of
    one Interval object drawn from a small pool, so one object may also
    stand under two degrees, and equal values may be two objects."""
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        lo = Fraction(draw(st.integers(0, 6 * DEN)), DEN)
        kind = draw(st.sampled_from(("finite", "finite", "finite", "right", "left")))
        hi = POS_INF if kind == "right" else lo + Fraction(draw(st.integers(1, 4 * DEN)), DEN)
        pool.append(Interval(NEG_INF if kind == "left" else lo, hi))
    if draw(st.booleans()):
        pool.append(Interval(pool[0].lo, pool[0].hi))  # equal value, another object
    bars = []
    for _ in range(draw(st.integers(0, max_items))):
        bar = (draw(st.sampled_from((0, 1))), draw(st.sampled_from(pool)))
        bars += [bar] * draw(st.integers(1, max_copies))
    return Barcode(bars)


def shifts():
    return st.integers(0, 3 * DEN).map(lambda k: Fraction(k, DEN))


def outcome(make):
    """What `make()` returns, or the type and message of what it raises."""
    try:
        return make()
    except (ValueError, IndexError) as err:
        return type(err), str(err)


def allowed_cells(src, tgt):
    """Every cell (t, s) whose two bars admit a degree-0 generator."""
    return [(t, s) for t in range(len(tgt)) for s in range(len(src))
            if src[s].degree == tgt[t].degree and hom(src[s].interval, tgt[t].interval) is DEG0]


def entries_of(m):
    return m if isinstance(m, tuple) else m.entries


def cert_key(cert):
    return cert and (cert.a, cert.b, cert.u.entries, cert.v.entries)


@seed(20261020)
@settings(max_examples=200, deadline=None, database=None)
@given(run_barcodes(), run_barcodes(), shifts(), shifts())
def test_shift_and_is_shift_of_agree_without_shared_objects(F, G, c, e):
    for X, Y in ((F, G), (G, F)):
        moved = X.shift(c)
        assert moved == fresh(X).shift(c)
        # one shifted Bar per run: the copies of a run share it
        assert len({id(b) for b in moved.bars}) == runs(X)
        for cand in (moved, X.shift(e), Y, Y.shift(c), fresh(moved)):
            assert cand.is_shift_of(X, c) == fresh(cand).is_shift_of(fresh(X), c) == (cand == X.shift(c))


@seed(20261020)
@settings(max_examples=200, deadline=None, database=None)
@given(run_barcodes(), run_barcodes(), shifts(), st.sampled_from(FIELDS), st.data())
def test_morphism_entries_agree_without_shared_objects(F, G, c, field, data):
    tgt = data.draw(st.sampled_from((G, F.shift(c), G.shift(c))))
    cells = [(t, s) for t in range(len(tgt)) for s in range(len(F))]
    allowed = allowed_cells(F, tgt)
    picks = data.draw(st.lists(st.sampled_from(allowed), max_size=12)) if allowed else []
    if cells and data.draw(st.booleans()):
        picks.insert(data.draw(st.integers(0, len(picks))), data.draw(st.sampled_from(cells)))
    values = {cell: data.draw(st.integers(-2, 3)) for cell in picks}
    src2, tgt2 = fresh(F), fresh(tgt)
    shared = outcome(lambda: Morphism(F, tgt, values, field))
    alone = outcome(lambda: Morphism(src2, tgt2, values, field))
    assert entries_of(shared) == entries_of(alone)
    assert tau_morphism(F, c, field).entries == tau_morphism(src2, c, field).entries


@seed(20261020)
@settings(max_examples=150, deadline=None, database=None)
@given(run_barcodes(), run_barcodes(), shifts(), shifts(), st.sampled_from(FIELDS), st.data())
def test_certificates_round_trips_and_files_agree_without_shared_objects(F, G, a, b, field, data):
    if data.draw(st.booleans()):
        G = F.shift(data.draw(shifts()))
    F2, G2 = fresh(F), fresh(G)
    cert = check_interleaving(F, G, a, b, field=field)
    alone = check_interleaving(F2, G2, a, b, field=field)
    assert cert_key(cert) == cert_key(alone)
    report, report2 = gamma(F, G, field=field), gamma(F2, G2, field=field)
    assert report.value == report2.value and cert_key(report.certificate) == cert_key(report2.certificate)
    for found, found2, A, B in ((cert, alone, F, G), (report.certificate, report2.certificate, F, G)):
        if found is None:
            continue
        assert emit_certificate(A, B, found) == emit_certificate(fresh(A), fresh(B), found2)
        total = found.a + found.b
        u, v = found.u, found.v
        # the same maps, one entry perhaps moved to another cell its bars allow
        cells = allowed_cells(u.source, u.target)
        moved = dict(u.entries)
        if moved and cells and data.draw(st.booleans()):
            moved.pop(data.draw(st.sampled_from(sorted(moved))))
            moved[data.draw(st.sampled_from(cells))] = field.one
        u1 = Morphism(u.source, u.target, moved, field)
        u2 = Morphism(fresh(u.source), fresh(u.target), moved, field)
        v2 = Morphism(fresh(v.source), fresh(v.target), v.entries, field)
        for f, g, f2, g2 in ((u1, v, u2, v2), (v, u1, v2, u2)):
            assert _is_round_trip(f, g, total) == _is_round_trip(f2, g2, total)
        assert outcome(lambda: cert_key(InterleavingCertificate(found.a, found.b, u1, v))) == outcome(
            lambda: cert_key(InterleavingCertificate(found.a, found.b, u2, v2)))


# -- refusals inside runs ------------------------------------------------------

I, J, K = Interval(0, 10), Interval(1, 11), Interval(20, 30)


def test_a_disallowed_cell_inside_a_run_is_refused_at_its_entry():
    src = Barcode([(0, I)] * 4)
    tgt = Barcode([(0, J)] * 3 + [(0, K)])
    # (3, 3) maps I into K, which starts after I ends; the allowed entries
    # around it are one run of (I, J) cells
    with pytest.raises(ValueError, match=r"entry at \(3, 3\) not allowed"):
        Morphism(src, tgt, {(0, 0): 1, (1, 1): 1, (3, 3): 1, (2, 2): 1})
    with pytest.raises(ValueError, match=r"entry at \(3, 1\) not allowed"):
        Morphism(src, tgt, {(0, 0): 1, (3, 1): 1})
    # the target of an allowed cell again, from another source interval
    with pytest.raises(ValueError, match=r"entry at \(0, 1\) not allowed"):
        Morphism(Barcode([(0, I), (0, K)]), Barcode([(0, J)]), {(0, 0): 1, (0, 1): 1})


def test_a_round_trip_reads_each_cell_on_its_own_two_intervals():
    # F = [A, B] through X = [M, N] back into F + 2.  The product cells
    # (0, 0) and (1, 0) share their source A; A -> B + 2 is reached through
    # M but does not survive (B + 2 starts at 7/2, after A ends at 3).
    A, B_, M, N = Interval(0, 3), Interval(Fraction(3, 2), 4), Interval(1, 4), Interval(Fraction(5, 2), 5)
    F, X = Barcode([(0, A), (0, B_)]), Barcode([(0, M), (0, N)])
    f = Morphism(F, X, {(0, 0): 1, (1, 1): 1})
    g = Morphism(X, F.shift(2), {(0, 0): 1, (1, 0): 1, (1, 1): 1})
    assert _product(f, g) == {(0, 0): 1, (1, 0): 1, (1, 1): 1}
    assert _is_round_trip(f, g, Fraction(2))


def test_a_shared_interval_under_two_degrees_is_two_runs():
    src, tgt = Barcode([(0, I), (1, I)]), Barcode([(0, J), (1, J)])
    assert len(Morphism(src, tgt, {(0, 0): 1, (1, 1): 1}).entries) == 2
    # the cell (1, 0) repeats the intervals of the allowed (0, 0), not its degree
    with pytest.raises(ValueError, match=r"entry at \(1, 0\) not allowed"):
        Morphism(src, tgt, {(0, 0): 1, (1, 0): 1})
    moved = src.shift(1)
    assert [b.degree for b in moved] == [0, 1] and moved.bars[0] is not moved.bars[1]
    assert moved.is_shift_of(src, 1)
    assert not Barcode([(0, J), (1, J)]).is_shift_of(Barcode([(0, I), (0, I)]), 1)
    assert not Barcode([(0, J), (0, J)]).is_shift_of(src, 1)


@pytest.mark.parametrize("n", [2, 5])
def test_a_run_whose_last_copy_is_not_a_shift_is_refused(n):
    F = Barcode([(0, I)] * n)
    last = Interval(Fraction(3, 2), 11)
    # the last copy breaks the run on either side
    assert not Barcode([(0, J)] * (n - 1) + [(0, last)]).is_shift_of(F, 1)
    assert not Barcode([(0, J)] * n).is_shift_of(Barcode([(0, I)] * (n - 1) + [(0, Interval(Fraction(1, 2), 10))]), 1)
    cert = check_interleaving(F, F, 1, 0)
    G = Barcode([(0, I)] * (n - 1) + [(0, Interval(0, 11))])
    with pytest.raises(ValueError, match="u must land in the a-shift of G"):
        InterleavingCertificate(1, 0, Morphism(F, Barcode([(0, J)] * (n - 1) + [(0, last)]), cert.u.entries), cert.v)
    with pytest.raises(ValueError, match="v must land in the b-shift of F"):
        InterleavingCertificate(1, 0, cert.u, Morphism(F, G, cert.v.entries))


@pytest.mark.parametrize("field", FIELDS)
def test_a_certificate_with_one_copy_entry_moved_is_refused(field, tmp_path):
    F = parse_barcode_text("0 0 10 5\n")
    cert = check_interleaving(F, F, Fraction(1, 2), Fraction(1, 2), field=field)
    assert cert.u.entries == {(i, i): field.one for i in range(5)}
    moved = {**{(i, i): field.one for i in (0, 1, 3, 4)}, (3, 2): field.one}
    u = Morphism(cert.u.source, cert.u.target, moved, field)
    with pytest.raises(ValueError, match="round trip through G is not the canonical comparison"):
        InterleavingCertificate(cert.a, cert.b, u, cert.v)
    text = emit_certificate(F, F, cert)
    assert "\n2 2 1\n" in text
    path = tmp_path / "moved.cert"
    path.write_text(text.replace("\n2 2 1\n", "\n3 2 1\n", 1))
    with pytest.raises(ValueError, match="round trip through G is not the canonical comparison"):
        load_certificate(path, field)
