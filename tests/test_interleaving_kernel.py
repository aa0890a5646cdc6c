"""The integer endpoint kernel under check_interleaving, gamma and
gamma_symmetric, checked for exact agreement with the Fraction/ExtRat
implementation kept in `oracles.py`, its scaled view of one (F, G)
probed against the per-probe scaling kept there, and `gamma`'s line scan
probe for probe against the scan that listed every line's candidates."""

import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from persimod import Barcode, Interval, check_interleaving, gamma, gamma_symmetric, interleaving
from persimod.interleaving import _IntView, _candidates
from persimod.intervals import ExtRat, NEG_INF, POS_INF
from persimod.io import emit_certificate
import oracles
from conftest import assert_same_entries, rand_barcode
from oracles import (
    candidates_oracle,
    check_interleaving_oracle,
    gamma_oracle,
    gamma_symmetric_grid_oracle,
    gamma_symmetric_oracle,
    int_matching_entries_oracle,
    least_total_scan_oracle,
)

KINDS = ("finite", "finite", "finite", "left", "right", "both")


def _interval(kind, lo, hi):
    return Interval(NEG_INF if kind in ("left", "both") else lo, POS_INF if kind in ("right", "both") else hi)


# 3- and 4-digit primes: endpoints over several of them put the common
# denominator, and so the view's scale, far beyond the endpoints' count.
PRIMES = (101, 103, 107, 109, 113, 997, 1009, 1013, 1019, 7919, 9967, 9973)


@st.composite
def barcode_pairs(draw, den, max_size=4, degrees=(0, 1)):
    """(F, G) on `degrees` with endpoints k/den (with den a tuple, each
    endpoint and length over a denominator drawn from it), infinite bars of
    every kind and repeated bars.  Half the time G keeps F's degrees and
    infinite sides with fresh endpoints, so the search runs instead of
    stopping at a mismatch."""
    dens = st.sampled_from(den if isinstance(den, tuple) else (den,))
    endpoint = dens.flatmap(lambda d: st.integers(0, 10 * d).map(lambda k: Fraction(k, d)))
    length = dens.flatmap(lambda d: st.integers(1, 10 * d).map(lambda k: Fraction(k, d)))

    def bar(degree, kind):
        lo = draw(endpoint)
        return degree, _interval(kind, lo, lo + draw(length))

    def barcode(shape):
        bars = [bar(d, k) for d, k in shape]
        repeats = draw(st.lists(st.sampled_from(bars), max_size=max_size - len(bars))) if 0 < len(bars) < max_size else []
        return Barcode(bars + repeats)

    shapes = st.lists(st.tuples(st.sampled_from(degrees), st.sampled_from(KINDS)), max_size=max_size)
    shape = draw(shapes)
    F = barcode(shape)
    if draw(st.booleans()):
        shape = draw(shapes)
    G = barcode(shape)
    return F, G


def shifts(den):
    return st.integers(0, 12 * den).map(lambda k: Fraction(k, 2 * den))


def report_key(report):
    cert = report.certificate
    return report.value, report.lower, report.upper, None if cert is None else (cert.a, cert.b)


@pytest.mark.parametrize("den", [4, 997])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_gamma_matches_fraction_oracle(den, data):
    # Half the pairs are the suite's seeded finite ones, where a line's top
    # candidate is now and then a length rather than a grid difference.
    if data.draw(st.booleans()):
        rng, size = random.Random(data.draw(st.integers(0, 2 ** 32))), data.draw(st.integers(1, 4))
        F, G = rand_barcode(rng, size, den=den), rand_barcode(rng, size, den=den)
    else:
        F, G = data.draw(barcode_pairs(den))
    assert report_key(gamma(F, G)) == report_key(gamma_oracle(F, G))


def test_gamma_finds_an_optimum_on_a_line_topped_by_a_length():
    # Once best is 37/4, the line b = 1 tops out at a = 15/2, the length of
    # [13/2, 15) less 1, above 7, the largest grid difference below
    # best - 1; the optimum (15/2, 1) lies on that line.  Seeded draws meet
    # such a line in about one pair of a hundred.
    F = Barcode([(0, Interval(Fraction(3, 2), Fraction(43, 4))), (0, Interval(Fraction(13, 2), 15))])
    G = Barcode([(0, Interval(Fraction(3, 4), Fraction(3, 2))), (0, Interval(Fraction(5, 2), Fraction(15, 4)))])
    report = gamma(F, G)
    assert report_key(report) == report_key(gamma_oracle(F, G))
    assert (report.certificate.a, report.certificate.b) == (Fraction(15, 2), 1)


@pytest.mark.parametrize("den", [4, 997])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_gamma_symmetric_matches_fraction_oracle(den, data):
    F, G = data.draw(barcode_pairs(den, max_size=12))
    assert report_key(gamma_symmetric(F, G)) == report_key(gamma_symmetric_oracle(F, G))


def logged_gamma(F, G):
    """`gamma`'s value and pair, and every `check_interleaving` call it made
    as (a, b, verdict), the search's probes and then the certificate's."""
    log, check = [], interleaving.check_interleaving

    def logged(F, G, a, b, **kwargs):
        cert = check(F, G, a, b, **kwargs)
        log.append((a, b, cert is not None))
        return cert

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interleaving, "check_interleaving", logged)
        mp.setattr(oracles, "check_interleaving", logged)
        report = gamma(F, G)
    cert = report.certificate
    return log, (report.value, cert and (cert.a, cert.b))


@pytest.mark.parametrize("den", [1, 4, 997])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_gamma_scan_probes_as_the_listing_scan(den, data):
    """Probing each line's top candidate before its list is built makes the
    same probes, in the same order, and finds the same value and pair as
    the scan that built every line's list: on degrees {0} and {0, 1}, with
    infinite and repeated bars, empty sides and pairs at distance 0.  Half
    the pairs are the suite's seeded finite ones, where a line's top
    candidate is now and then a length rather than a grid difference."""
    degrees, size = data.draw(st.sampled_from(((0,), (0, 1)))), data.draw(st.integers(1, 8))
    if data.draw(st.booleans()):
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        F, G = rand_barcode(rng, size, degrees, den=den), rand_barcode(rng, size, degrees, den=den)
    else:
        F, G = data.draw(barcode_pairs(den, max_size=size, degrees=degrees))
    F, G = data.draw(st.sampled_from(((F, G),) * 4 + ((F, F), (F, Barcode([])), (Barcode([]), G), (Barcode([]), Barcode([])))))
    new = logged_gamma(F, G)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interleaving, "_least_total", least_total_scan_oracle)
        assert logged_gamma(F, G) == new


def symmetric_key(F, G, report):
    """A symmetric search's value, (a, b), entries and certificate file."""
    cert = report.certificate
    return report.value, cert and (cert.a, cert.b, cert.u.entries, cert.v.entries, emit_certificate(F, G, cert))


@pytest.mark.parametrize("den", [4, 997, PRIMES])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_gamma_symmetric_matches_the_grid_search(den, data):
    """The int bisection with its listed candidates and greedy-started
    probes gives the grid search's value, (a, b), entries and `.cert` bytes:
    on pairs, on F against itself and against an empty side."""
    F, G = data.draw(barcode_pairs(den, max_size=data.draw(st.sampled_from((4, 12)))))
    F, G = data.draw(st.sampled_from(((F, G), (F, F), (F, Barcode([])), (Barcode([]), G))))
    assert symmetric_key(F, G, gamma_symmetric(F, G)) == symmetric_key(F, G, gamma_symmetric_grid_oracle(F, G))


@settings(max_examples=300, deadline=None)
@given(
    points=st.sets(st.integers(-40, 40), max_size=10),
    ends=st.tuples(st.integers(-2, 90), st.integers(0, 90)),
    nudge=st.tuples(st.integers(0, 1), st.integers(0, 1)),
    limit=st.integers(0, 60),
    huge=st.booleans(),
)
# Over 0, 2, 4 on (-1, 10): 0 once, the differences 2, 4, 2 and the halves
# 1, 2, 1, so seven are seen.  Then 0 and a half past the float range, and
# 0 alone over no endpoints.
@example(points={0, 1, 2}, ends=(-1, 11), nudge=(0, 0), limit=7, huge=False)
@example(points={0, 1, 2}, ends=(-1, 11), nudge=(0, 0), limit=6, huge=False)
@example(points={-1, 1}, ends=(0, 4), nudge=(1, 0), limit=4, huge=True)
@example(points=set(), ends=(0, 1), nudge=(1, 1), limit=0, huge=False)
def test_candidates_match_a_brute_force_list(points, ends, nudge, limit, huge):
    """`_candidates` lists what a scan of every pair finds strictly between
    lo and hi, 0 included when lo is negative, and refuses exactly when
    more than `limit` are seen; also on ints past the float range."""
    unit = 10 ** 400 if huge else 1
    pts = sorted(2 * unit * x for x in points)
    lo = ends[0] * unit - nudge[0]
    hi = lo + ends[1] * unit + nudge[1]
    want = candidates_oracle(pts, lo, hi)
    assert _candidates(pts, lo, hi, limit) == (sorted(set(want)) if len(want) <= limit else None)


def test_gamma_symmetric_builds_no_grid(monkeypatch):
    # `gamma_symmetric` answers as before with `grid` refused, on den=997
    # pairs and on a scale past 1e308; `gamma` still searches its grid.
    pairs = [_far_pair()]
    for seed in (2, 3):
        rng = random.Random(seed)
        pairs.append((rand_barcode(rng, 32, den=997), rand_barcode(rng, 32, den=997)))
    want = [symmetric_key(F, G, gamma_symmetric(F, G)) for F, G in pairs]

    def refuse(view):
        raise RuntimeError("grid built")

    monkeypatch.setattr(_IntView, "grid", refuse)
    assert [symmetric_key(F, G, gamma_symmetric(F, G)) for F, G in pairs] == want
    with pytest.raises(RuntimeError, match="grid built"):
        gamma(*pairs[0])


@pytest.mark.parametrize("den", [4, 997])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_check_interleaving_matches_fraction_oracle(den, data):
    F, G = data.draw(barcode_pairs(den))
    a, b = data.draw(shifts(den)), data.draw(shifts(den))
    got, want = (None if c is None else (c.u.entries, c.v.entries)
                 for c in (check_interleaving(F, G, a, b), check_interleaving_oracle(F, G, a, b)))
    assert_same_entries(F, G, a, b, got, want)


@pytest.mark.parametrize("den", [4, 997])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_the_top_grid_difference_interleaves_without_an_infinite_mismatch(den, data):
    """`gamma` and `gamma_symmetric` return +inf only on an infinite
    mismatch: otherwise (D, D) at the top grid difference D interleaves, in
    the views of both.  No finite bar is longer than D, so none must be
    matched, and infinite bars of one kind pair across."""
    F, G = data.draw(barcode_pairs(den, max_size=data.draw(st.sampled_from((4, 12)))))
    for unit in (1, 2):
        view = _IntView(F, G, unit=unit)
        if not view.infinite_mismatch():
            top = view.grid()[0][-1]
            assert view.entries(top, top) is not None


@pytest.mark.parametrize("den", [4, 997])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_decides_matches_entries_across_warm_probe_sequences(den, data):
    """A decide-only probe answers as the covering matching does, whatever
    earlier probes of the same search left in `warm`: sequences mix 0,
    shifts near the bar lengths and shifts up to the view's reach, rising
    and falling, and one `warm` serves them all."""
    F, G = data.draw(barcode_pairs(den, max_size=data.draw(st.sampled_from((4, 12)))))
    view = _IntView(F, G, unit=data.draw(st.sampled_from((1, 2))))
    reach = view.reach
    units = st.one_of(st.just(0), st.integers(0, 12 * view.scale), st.integers(0, reach))
    warm = {}
    for a, b in data.draw(st.lists(st.tuples(units, units), min_size=1, max_size=16)) + [(0, 0)]:
        a = min(a, reach)
        b = min(b, reach - a)
        assert view.decides(a, b, warm) == (view.entries(a, b) is not None), (a, b)


def probe_shifts(den):
    """0, shifts on the endpoint grid, shifts whose denominator 3*den the
    problem's view may lack, and shifts past its sentinel range: the public
    route scales each call afresh, so it takes them all."""
    return st.one_of(
        st.just(Fraction(0)),
        st.integers(0, 12 * den).map(lambda k: Fraction(k, den)),
        st.integers(1, 36 * den).map(lambda k: Fraction(k, 3 * den)),
        st.integers(0, 1000).map(Fraction),
    )


def out_of_range(view, a, b):
    """Int pairs next to (a, b) that the int route must refuse: a negative
    coordinate, or a + b one past the view's reach."""
    over = view.reach + 1 - a - b
    return [(-1 - a, b), (a, -1 - b), (a + over, b), (a, b + over)]


@pytest.mark.parametrize("den", [4, 997])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_view_probes_match_per_probe_scaling_oracle(den, data):
    F, G = data.draw(barcode_pairs(den))
    probes = data.draw(st.lists(st.tuples(probe_shifts(den), probe_shifts(den)), min_size=1, max_size=12))
    for a, b in probes + [(Fraction(0), Fraction(0))]:
        want = int_matching_entries_oracle(F, G, a, b)
        # the Fraction route scales (F, G) and the shifts afresh
        cert = check_interleaving(F, G, a, b)
        assert_same_entries(F, G, a, b, None if cert is None else (cert.u.entries, cert.v.entries), want)
        assert cert is None or (cert.a, cert.b) == (a, b)
    # the int route probes the problem's one view with ints in its units
    view = _IntView(F, G)
    scale, reach = view.scale, view.reach
    units = st.one_of(st.just(0), st.integers(0, 12 * scale), st.integers(0, reach))
    for a, b in data.draw(st.lists(st.tuples(units, units), min_size=1, max_size=12)) + [(0, 0)]:
        a = min(a, reach)
        b = min(b, reach - a)
        want = int_matching_entries_oracle(F, G, Fraction(a, scale), Fraction(b, scale))
        assert_same_entries(F, G, Fraction(a, scale), Fraction(b, scale), view.entries(a, b), want)
        got = check_interleaving(F, G, a, b, _view=view)
        assert (got is None) == (want is None)
        if got is not None:
            cert = check_interleaving(F, G, Fraction(a, scale), Fraction(b, scale))
            assert (got.a, got.b, got.u, got.v) == (cert.a, cert.b, cert.u, cert.v)
        for bad in out_of_range(view, a, b):
            with pytest.raises(ValueError, match="view's reach"):
                check_interleaving(F, G, *bad, _view=view)


def test_view_sentinel_range_ends_at_reach():
    F = Barcode([(0, Interval(0, 1)), (0, Interval(Fraction(1, 2), POS_INF)), (1, Interval(NEG_INF, 3))])
    G = Barcode([(0, Interval(2, 5)), (0, Interval(4, POS_INF)), (1, Interval(NEG_INF, 1))])
    view = _IntView(F, G)
    assert (view.scale, view.reach) == (2, 40)  # 4 * the largest endpoint, 5 * 2
    for a, b in [(0, 40), (40, 0), (17, 23)]:
        want = int_matching_entries_oracle(F, G, Fraction(a, 2), Fraction(b, 2))
        assert view.entries(a, b) == want
        cert = check_interleaving(F, G, a, b, _view=view)
        assert (cert is None) == (want is None)
        if cert is not None:
            assert (cert.a, cert.b, (cert.u.entries, cert.v.entries)) == (Fraction(a, 2), Fraction(b, 2), want)
    # past the view's reach and off its scale, the public route builds its own
    far = check_interleaving(F, G, Fraction(41, 2), Fraction(13, 3))
    assert far is not None
    assert (far.u.entries, far.v.entries) == int_matching_entries_oracle(F, G, Fraction(41, 2), Fraction(13, 3))


def test_int_route_refuses_out_of_range_probes_under_python_O():
    # The range check must raise, not assert: -O strips asserts, and an
    # unchecked probe past reach would meet the infinite endpoints' sentinels.
    code = (
        "from persimod import Barcode, Interval, check_interleaving\n"
        "from persimod.interleaving import _IntView\n"
        "from persimod.intervals import POS_INF\n"
        "F = Barcode([(0, Interval(0, 1)), (0, Interval(0, POS_INF))])\n"
        "G = Barcode([(0, Interval(2, 5)), (0, Interval(4, POS_INF))])\n"
        "view = _IntView(F, G)\n"
        "print(view.reach)\n"
        "for a, b in ((-1, 0), (0, -1), (view.reach + 1, 0), (0, view.reach + 1), (view.reach, 1)):\n"
        "    try:\n"
        "        check_interleaving(F, G, a, b, _view=view)\n"
        "    except ValueError as err:\n"
        "        print(err)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    reach, *errors = proc.stdout.splitlines()
    assert reach == "20"
    assert errors == ["probe shifts must be nonnegative ints with a + b within the view's reach"] * 5


def test_verified_yes_translates_two_barcodes_and_int_no_builds_no_fraction(monkeypatch):
    # A "yes" translates only the maps' targets, G by a and F by b: the
    # certificate checks its round trips on the untranslated bars.  A "no"
    # on the int route stays in the view's units.
    F = Barcode([(0, Interval(0, 4)), (0, Interval(2, 7)), (1, Interval(NEG_INF, 3))])
    G = Barcode([(0, Interval(1, 5)), (0, Interval(2, 8)), (1, Interval(NEG_INF, 4))])
    view = _IntView(F, G)
    assert view.scale == 1
    shifts = []
    shift = Barcode.shift
    monkeypatch.setattr(Barcode, "shift", lambda bc, c: shifts.append((bc, Fraction(c))) or shift(bc, c))
    for route in ({}, {"_view": view}):
        cert = check_interleaving(F, G, 1, 2, **route)
        assert (cert.a, cert.b) == (1, 2)
        assert shifts == [(G, 1), (F, 2)]
        shifts.clear()

    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(Fraction, "__new__", staticmethod(counting))
        public = check_interleaving(F, G, 0, 0)
        seen = len(built)
        found = check_interleaving(F, G, 0, 0, _view=view)
    assert public is None and seen > 0  # the public route's shifts are Fractions
    assert found is None and len(built) == seen and shifts == []


def _primes_above(start, count):
    out = []
    n = start
    while len(out) < count:
        n += 1
        if all(n % p for p in range(2, int(n ** 0.5) + 1)):
            out.append(n)
    return out


def _far_pair():
    """A pair over 64 distinct prime denominators near 1e5, with one
    infinite bar a side: the common denominator, and so every scaled
    endpoint, exceeds 1e308."""
    primes = _primes_above(100_000, 64)
    pairs = list(zip(primes[::2], primes[1::2]))
    F = Barcode([(0, Interval(Fraction(1, p), 5 + Fraction(1, q))) for p, q in pairs] + [(0, Interval(0, POS_INF))])
    G = Barcode([(0, Interval(Fraction(2, p), 5 + Fraction(2, q))) for p, q in pairs] + [(0, Interval(1, POS_INF))])
    return F, G


def test_scaled_endpoints_beyond_float_range():
    # Past 1e308, int + float('inf') would raise OverflowError.
    F, G = _far_pair()
    assert _IntView(F, G).scale > 10 ** 308

    cert = check_interleaving(F, G, Fraction(1, 7), 1)
    assert cert is not None and cert.total == Fraction(8, 7)
    assert check_interleaving(F, G, Fraction(1, 7), Fraction(1, 7)) is None

    same = gamma(F, F)
    assert same.value == ExtRat(0) and same.certificate.total == 0
    sym = gamma_symmetric(F, G)
    assert sym.value.is_finite and sym.certificate.total == sym.value
