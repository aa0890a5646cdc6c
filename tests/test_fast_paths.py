"""The trusted constructors, checked for exact agreement with the
validating rebuilds kept in `oracles.py`, for shift amounts in every form
the checker takes as for their plain Fractions, and `compose`'s one comparison
per cell against a full hom on each; the int-pair ExtRat against the
Fraction-backed one; the survival rule against hom and the
three-inequality offset rule on built translates, and the untranslated
round-trip check against `compose` on them; cone sizes read off the
cone's ends against the built cone barcode; the explicit-stack
augmenting search against the recursive one; the covering matching and
its windowed adjacency against the full-merge, all-pairs versions, and
the matching on classes of equal bars against the per-copy graph; and
the windowed reverse synthesis against the full scan."""

import operator
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from persimod import Bar, Barcode, Interval, canonical, limits
from persimod.fields import GF2, PrimeField, QQ
from persimod.intervals import DEG0, DEG1, ZERO, ExtRat, NEG_INF, POS_INF, _starts_before_end, hom, leq
from persimod.interleaving import InterleavingCertificate, _IntView, check_interleaving
from persimod.matching import _saturating, _try_augment, matching_covering
from persimod.morphisms import Morphism, _cell_allowed, _is_round_trip, _product, compose, identity, tau_morphism
from conftest import assert_same_entries, rand_realized_morphism, tampered
from test_limits import _reverse_problems
import oracles
from oracles import (
    FractionExtRat,
    augment_oracle,
    certificate_refusal_oracle,
    compare_oracle,
    compose_hom_filter_oracle,
    cone_barcode_oracle,
    covering_exists_oracle,
    equals_tau,
    hom_ext_oracle,
    hom_operator_oracle,
    int_matching_entries_oracle,
    interval_is_shift_of_oracle,
    interval_shift_oracle,
    matching_covering_oracle,
    restrict_oracle,
    shift_oracle,
    solve_reverse_scan_oracle,
    tau_entries_oracle,
)

KINDS = ("finite", "finite", "finite", "left", "right", "both")


@st.composite
def barcodes(draw, den, max_size=8, span=10):
    """Barcodes on degrees {0, 1} with endpoints k/den, negative ones too,
    repeated bars, and left-, right- and two-sided infinite bars; finite
    starts and lengths at most `span`."""
    bars = []
    for degree, kind in draw(st.lists(st.tuples(st.sampled_from((0, 1)), st.sampled_from(KINDS)), max_size=max_size)):
        lo = Fraction(draw(st.integers(-span * den, span * den)), den)
        hi = lo + Fraction(draw(st.integers(1, span * den)), den)
        bars.append((degree, Interval(NEG_INF if kind in ("left", "both") else lo,
                                      POS_INF if kind in ("right", "both") else hi)))
        if draw(st.booleans()):
            bars.append(bars[-1])
    return Barcode(bars)


def signed_shifts(den):
    return st.integers(-12 * den, 12 * den).map(lambda k: Fraction(k, 2 * den))


# A shift denominator coprime to the bars' denominator, so that a
# translated endpoint needs a new denominator.
COPRIME_DEN = {4: 6003, 997: 6002}


def shifts(den):
    """Shifts on the bars' half-grid, or on a grid coprime to it."""
    coprime = COPRIME_DEN[den]
    return st.one_of(
        signed_shifts(den), st.integers(-6 * coprime, 6 * coprime).map(lambda k: Fraction(k, coprime))
    )


def raw_operands(den):
    """Every operand type an ExtRat operation coerces: ints, Fractions of
    denominator den, their strs, and the infinity tokens."""
    return st.one_of(
        st.integers(-4, 4),
        st.integers(-4 * den, 4 * den).map(lambda k: Fraction(k, den)),
        st.integers(-4 * den, 4 * den).map(lambda k: str(Fraction(k, den))),
        st.sampled_from(("inf", "+inf", "-inf", "oo", "-oo")),
    )


def extrats(den):
    """(ExtRat, FractionExtRat) of one value: den-ary, integer or infinite."""
    return raw_operands(den).map(lambda v: (ExtRat(v), FractionExtRat(v)))


def operands(den):
    """(library operand, oracle operand): an ExtRat pair, or a raw value
    handed to both sides as it is."""
    return st.one_of(extrats(den), raw_operands(den).map(lambda v: (v, v)))


def outcome(op, *args):
    try:
        return "ok", op(*args)
    except ArithmeticError as err:
        return "error", f"{type(err).__name__}: {err}"


def assert_same_value(got, want):
    """The int-pair ExtRat `got` shows exactly what the Fraction-backed
    `want` shows, and its pair is reduced with a positive denominator."""
    assert type(got) is ExtRat and type(want) is FractionExtRat
    assert (str(got), repr(got), hash(got)) == (str(want), repr(want), hash(want))
    assert (got.is_finite, got.is_pos_inf, got == NEG_INF) == (want.is_finite, want.is_pos_inf, want.is_neg_inf)
    assert type(got._n) is int and type(got._d) is int
    assert gcd(got._n, got._d) == 1 and got._d > 0
    if got.is_finite:
        q = got.as_fraction()
        assert type(q) is Fraction and q == want.as_fraction()
        assert (got._n, got._d) == (q.numerator, q.denominator) and hash(got) == hash(q)
    else:
        assert outcome(got.as_fraction) == outcome(want.as_fraction)


@pytest.mark.parametrize("den", [4, 997])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_barcode_shift_matches_validating_rebuild(den, data):
    bc, c = data.draw(barcodes(den)), data.draw(shifts(den))
    got, want = bc.shift(c), shift_oracle(bc, c)
    assert got.bars == want.bars
    assert got.is_shift_of(bc, c) and want.is_shift_of(bc, c)
    if got:
        assert not got.is_shift_of(bc, c + Fraction(1, den)) or all(
            b.interval.lo == NEG_INF and b.interval.hi.is_pos_inf for b in bc
        )


@pytest.mark.parametrize("den", [4, 997])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_barcode_is_shift_of_matches_rebuild_equality(den, data):
    a, b = data.draw(barcodes(den, max_size=3)), data.draw(barcodes(den, max_size=3))
    c = data.draw(shifts(den))
    assert a.is_shift_of(b, c) == (a == shift_oracle(b, c))
    assert shift_oracle(b, c).is_shift_of(b, c)


@st.composite
def interval_pairs(draw, den):
    """(I, J) on three shared points k/den plus -inf and inf, so equal
    endpoints are common: a = c, b = d and c = b are where hom's strict and
    non-strict inequalities part."""
    points = [ExtRat(Fraction(draw(st.integers(-3 * den, 3 * den)), den)) for _ in range(3)]
    out = []
    for _ in range(2):
        lo = draw(st.sampled_from(points + [NEG_INF]))
        out.append(Interval(lo, draw(st.sampled_from([p for p in points if lo < p] + [POS_INF]))))
    return tuple(out)


@pytest.mark.parametrize("den", [4, 997])
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_hom_matches_operator_and_stalk_oracles(den, data):
    i, j = data.draw(interval_pairs(den))
    kinds = {(1, 0): DEG0, (0, 1): DEG1, (0, 0): ZERO}
    assert hom(i, j) is hom_operator_oracle(i, j) is kinds[hom_ext_oracle(i, j)]
    assert leq(i, j) == (i.lo <= j.lo and i.hi <= j.hi)


@pytest.mark.parametrize("den", [4, 997])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_interval_translation_matches_operator_oracle(den, data):
    i, j = data.draw(interval_pairs(den))
    c = data.draw(shifts(den))
    got, want = i.shift(c), interval_shift_oracle(i, c)
    assert got == want and (str(got.lo), str(got.hi)) == (str(want.lo), str(want.hi))
    for e in (got.lo, got.hi):
        assert e.is_finite or (e._n, e._d) == (0, 1)
        assert gcd(e._n, e._d) == 1 and e._d > 0
    for t in (got, j, j.shift(c)):
        for s in (i, j):
            assert t._is_shift_of(s, c.numerator, c.denominator) == interval_is_shift_of_oracle(t, s, c)


@pytest.mark.parametrize("den", [4, 997])
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_offset_kernel_matches_hom_of_the_translate(den, data):
    """`_starts_before_end(i, j, n, d)` against the built translate
    j + n/d: it is lo_j + n/d < hi_i on every draw, and where i <= j + n/d
    coordinatewise (the survival rule's precondition) it is hom(i, j + n/d)
    is DEG0, which the stalk oracle and the three-inequality rule it
    replaced confirm.  Shifts are 0, on the bars' grid and coprime to it,
    and the shifts that put lo_j + c on lo_i or hi_i, or hi_j + c on hi_i,
    with i moved off the grid first half the time."""
    i, j = data.draw(interval_pairs(den))
    if data.draw(st.booleans()):
        i = i.shift(Fraction(data.draw(st.integers(-COPRIME_DEN[den], COPRIME_DEN[den])), COPRIME_DEN[den]))
    ends = [(x, y) for x, y in ((i.lo, j.lo), (i.hi, j.lo), (i.hi, j.hi)) if x.is_finite and y.is_finite]
    boundaries = [(x - y).as_fraction() for x, y in ends]
    c = data.draw(st.one_of(st.just(Fraction(0)), shifts(den), *(st.just(b) for b in boundaries)))
    moved = j.shift(c)
    got = _starts_before_end(i, j, c.numerator, c.denominator)
    assert got == (moved.lo < i.hi)
    if leq(i, moved):
        want = hom(i, moved) is DEG0
        assert want == (hom_ext_oracle(i, moved) == (1, 0)) == oracles._deg0_plus(i, j, c.numerator, c.denominator)
        assert got == want


@pytest.mark.parametrize("den", [4, 997])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_barcode_restrict_matches_validating_rebuild(den, data):
    bc = data.draw(barcodes(den))
    idx = data.draw(st.lists(st.integers(0, len(bc) - 1), max_size=len(bc) + 2)) if bc else []
    assert bc.restrict(idx).bars == restrict_oracle(bc, idx).bars
    if bc:
        assert bc.restrict([-1, 0]).bars == restrict_oracle(bc, [-1, 0]).bars


@pytest.mark.parametrize("den", [4, 997])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_tau_and_compose_match_validating_constructors(den, data):
    bc = data.draw(barcodes(den, max_size=5))
    c = abs(data.draw(signed_shifts(den)))
    t = tau_morphism(bc, c)
    assert t.entries == tau_entries_oracle(bc, c)
    assert equals_tau(t, c) and _is_round_trip(identity(bc), t, c)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    mid = data.draw(barcodes(den, max_size=4))
    f = rand_realized_morphism(rng, bc, mid, GF2)
    g = rand_realized_morphism(rng, mid, t.target, GF2)
    h = compose(f, g)
    assert h == Morphism(h.source, h.target, h.entries, h.field)


class _Worded(Fraction):
    """A Fraction subclass that prints itself in its own words: the checker
    must read it as the plain Fraction of its value."""

    def __str__(self):
        return "worded"

    __repr__ = __str__


# A shift amount in each form the checker takes: an int, a str, a Fraction
# and a Fraction subclass, nonnegative and negative.
SHIFT_AMOUNTS = [2, "1/3", Fraction(5, 7), _Worded(1, 3), -2, "-1/3", Fraction(-5, 7), _Worded(-1, 3)]
AMOUNT_IDS = ["int", "str", "Fraction", "subclass", "negative-int", "negative-str", "negative-Fraction", "negative-subclass"]
RUNS = Barcode([(0, Interval(0, 1))] * 2 + [(0, Interval(Fraction(1, 3), 4)), (1, Interval(NEG_INF, 2)), (1, Interval(1, POS_INF))])


def _refusal(build):
    try:
        build()
    except ValueError as err:
        return str(err)
    return None


@pytest.mark.parametrize("amount", SHIFT_AMOUNTS, ids=AMOUNT_IDS)
def test_every_form_of_a_shift_amount_gives_the_results_of_its_fraction(amount):
    # A Fraction is taken as it is and its sign read off the numerator;
    # every other form is rebuilt.  Results, and refusals word for word,
    # are those of the plain Fraction, through the validating rebuilds.
    c = Fraction(amount)
    shifted = RUNS.shift(amount)
    assert shifted == shift_oracle(RUNS, c) and all(type(bar.interval.lo) is ExtRat for bar in shifted)
    assert shifted.is_shift_of(RUNS, amount) and not shift_oracle(RUNS, c + 1).is_shift_of(RUNS, amount)
    if c < 0:
        assert _refusal(lambda: tau_morphism(RUNS, amount)) == f"negative shift {c}"
        u = v = tau_morphism(RUNS, 0)
    else:
        t = tau_morphism(RUNS, amount)
        assert t == Morphism(RUNS, shift_oracle(RUNS, c), tau_entries_oracle(RUNS, c))
        u = v = t
    for a, b in ((amount, amount), (amount, 0), (0, amount)):
        want = certificate_refusal_oracle(Fraction(a), Fraction(b), u, v)
        assert _refusal(lambda: InterleavingCertificate(a, b, u, v)) == want
        if want is None:
            cert = InterleavingCertificate(a, b, u, v)
            assert (type(cert.a), type(cert.b), cert.a, cert.b) == (Fraction, Fraction, Fraction(a), Fraction(b))
            assert repr(cert) == f"InterleavingCertificate(a={Fraction(a)}, b={Fraction(b)}, total={Fraction(a) + Fraction(b)})"


def test_negative_shift_amounts_are_refused_under_python_O():
    # The sign is read off the numerator, not asserted: with asserts
    # stripped every form of a negative amount is still refused, in the
    # words of its plain Fraction.
    code = (
        "from fractions import Fraction\n"
        "from persimod import Barcode, Interval\n"
        "from persimod.morphisms import InterleavingCertificate, tau_morphism\n"
        "class Worded(Fraction):\n"
        "    def __str__(self):\n"
        "        return 'worded'\n"
        "B = Barcode([(0, Interval(0, 1))])\n"
        "u = tau_morphism(B, 0)\n"
        "for amount in (-2, '-1/3', Fraction(-5, 7), Worded(-1, 3)):\n"
        "    for build in (lambda: tau_morphism(B, amount), lambda: InterleavingCertificate(amount, 0, u, u),\n"
        "                  lambda: InterleavingCertificate(0, amount, u, u)):\n"
        "        try:\n"
        "            build()\n"
        "            print('accepted')\n"
        "        except ValueError as err:\n"
        "            print(err)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    refused = ["interleaving shifts must be nonnegative"] * 2
    assert proc.stdout.splitlines() == (
        ["negative shift -2"] + refused + ["negative shift -1/3"] + refused
        + ["negative shift -5/7"] + refused + ["negative shift -1/3"] + refused
    )


FIELDS =pytest.mark.parametrize("field", [GF2, PrimeField(5), QQ], ids=["GF2", "GF5", "QQ"])


@pytest.mark.parametrize("den", [4, 997])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cone_sizes_read_off_the_ends_match_the_built_cone(den, data):
    src = data.draw(barcodes(den, max_size=6))
    tgt = data.draw(st.one_of(barcodes(den, max_size=6), st.just(src)))
    # a partial injection: unmatched bars on both sides, and an empty cone
    # where equal barcodes are matched bar for bar
    pairs = st.tuples(st.integers(0, len(src) - 1), st.integers(0, len(tgt) - 1))
    step = dict(data.draw(st.lists(pairs, unique_by=(lambda p: p[0], lambda p: p[1])))) if src and tgt else {}
    want = cone_barcode_oracle(src, tgt, step)
    assert limits._cone_size(src, tgt, step) == limits.gamma_to_zero(want)
    assert Barcode(Bar(d, Interval(lo, hi)) for d, lo, hi in limits._cone_ends(src, tgt, step)) == want
    diagonal = {s: t for s, t in step.items() if _cell_allowed(src.bars[s], tgt.bars[t])}
    m = Morphism(src, tgt, {(t, s): 1 for s, t in diagonal.items()})
    assert limits.cone_diagonal(m) == cone_barcode_oracle(src, tgt, diagonal)
    whole = {i: i for i in range(len(src))}
    assert limits._cone_size(src, src, whole) == limits.gamma_to_zero(cone_barcode_oracle(src, src, whole)) == 0


@st.composite
def moved(draw, bc, sign):
    """bc's bars with each endpoint moved by up to two in the direction of
    `sign` (an infinite one stays), the empty ones dropped, and a few more."""
    bars = list(draw(barcodes(4, max_size=2, span=2)))
    for bar in bc.bars:
        lo, hi = (e + sign * Fraction(draw(st.integers(0, 8)), 4) for e in (bar.interval.lo, bar.interval.hi))
        if lo < hi:
            bars.append((bar.degree, Interval(lo, hi)))
    return Barcode(bars)


@FIELDS
@seed(24)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_compose_matches_the_hom_filter_oracle(field, data):
    """The one-comparison filter against a full hom on every cell, on
    degrees {0, 1}, infinite and repeated bars.  A and C are B moved left
    and right, which makes phantom cells common, and dense maps with few
    scalars make sums cancel."""
    b = data.draw(barcodes(4, max_size=6, span=2))
    a, c = data.draw(moved(b, -1)), data.draw(moved(b, 1))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    f = rand_realized_morphism(rng, a, b, field, density=0.8)
    g = rand_realized_morphism(rng, b, c, field, density=0.8)
    assert compose(f, g).entries == compose_hom_filter_oracle(f, g).entries
    assert _product(f, g) == oracles.product_oracle(f, g)


@FIELDS
def test_compose_drops_phantom_cells_and_cancelled_sums(field):
    # [0,1) -> [1/2,3) -> [2,5) is a phantom cell; [0,4) reaches [2,6)
    # through both copies of [1,5), with values 1 and -1
    a = Barcode([(0, Interval(0, 1)), (0, Interval(0, 4))])
    b = Barcode([(0, Interval(Fraction(1, 2), 3)), (0, Interval(1, 5)), (0, Interval(1, 5))])
    c = Barcode([(0, Interval(2, 5)), (0, Interval(2, 6))])
    f = Morphism(a, b, {(0, 0): 1, (1, 1): 1, (2, 1): 1}, field)
    g = Morphism(b, c, {(0, 0): 1, (1, 1): 1, (1, 2): field.neg(field.one)}, field)
    assert set(_product(f, g)) == {(0, 0), (1, 1)}
    assert compose(f, g).entries == compose_hom_filter_oracle(f, g).entries == {}


@FIELDS
@seed(25)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_restriction_identity_and_shift_match_validating_rebuilds(field, data):
    src, tgt = data.draw(barcodes(4, max_size=6)), data.draw(barcodes(4, max_size=6))
    m = rand_realized_morphism(random.Random(data.draw(st.integers(0, 2**32))), src, tgt, field)
    keep_src = data.draw(st.lists(st.integers(0, len(src) - 1), max_size=len(src) + 2)) if src else []
    keep_tgt = data.draw(st.lists(st.integers(0, len(tgt) - 1), max_size=len(tgt) + 2)) if tgt else []
    outs = [m.restrict_source(keep_src), m.restrict_target(keep_tgt), identity(src, field)]
    for out in outs:
        assert out == Morphism(out.source, out.target, out.entries, out.field)
    assert outs[0].source.bars == restrict_oracle(src, keep_src).bars
    assert outs[1].target.bars == restrict_oracle(tgt, keep_tgt).bars


@pytest.mark.parametrize("den", [4, 997])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_extrat_comparisons_match_key_order(den, data):
    (x, ox), (y, oy) = data.draw(extrats(den)), data.draw(operands(den))
    want = compare_oracle(ox, oy)
    # ExtRat on the left, then on the right (Python reflects the operator).
    assert (x == y, x < y, x <= y, x > y, x >= y) == want
    assert (y == x, y > x, y >= x, y < x, y <= x) == want
    assert (x != y, y != x) == (not want[0],) * 2
    if want[0]:
        assert hash(x) == hash(ExtRat(y))


@pytest.mark.parametrize("den", [4, 997])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_extrat_addition_matches_coerced_sum(den, data):
    """+, - and * with ExtRat on either side, and neg, against the
    Fraction-backed oracle: equal values, str, repr and hash, or the same
    ArithmeticError."""
    (x, ox), (y, oy) = data.draw(extrats(den)), data.draw(operands(den))
    assert_same_value(x, ox)
    assert_same_value(-x, -ox)
    for op in (operator.add, operator.sub, operator.mul):
        for args, oargs in (((x, y), (ox, oy)), ((y, x), (oy, ox))):
            got, want = outcome(op, *args), outcome(op, *oargs)
            assert got[0] == want[0]
            if got[0] == "ok":
                assert_same_value(got[1], want[1])
            else:
                assert got == want


@pytest.mark.parametrize("op, x, y, message", [
    (operator.add, "inf", "-inf", "inf + (-inf) is undefined"),
    (operator.sub, "inf", "inf", "inf + (-inf) is undefined"),
    (operator.mul, "0", "inf", "0 * inf is undefined"),
])
def test_extrat_indeterminate_forms_raise_like_the_oracle(op, x, y, message):
    want = ("error", f"ArithmeticError: {message}")
    for a, b in ((x, y), (y, x)):
        assert outcome(op, ExtRat(a), b) == outcome(op, FractionExtRat(a), b) == want
        assert outcome(op, a, ExtRat(b)) == outcome(op, a, FractionExtRat(b)) == want


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_augmenting_search_matches_recursive(data):
    n_left, n_right = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 8))
    adj = [sorted(data.draw(st.sets(st.integers(0, n_right - 1)))) if n_right else [] for _ in range(n_left)]
    order = data.draw(st.permutations(range(n_left)))
    match_r = {}
    found = [_try_augment(u, adj, match_r) for u in order]
    want_r, want_found = augment_oracle(order, adj)
    assert found == want_found
    assert list(match_r.items()) == list(want_r.items())


@st.composite
def bipartite(draw, max_side=9):
    """(num_left, num_right, strictly increasing rows, required left,
    required right)."""
    n_left, n_right = draw(st.integers(0, max_side)), draw(st.integers(0, max_side))
    adj = [sorted(draw(st.sets(st.integers(0, n_right - 1)))) if n_right else [] for _ in range(n_left)]
    req_l = draw(st.sets(st.integers(0, n_left - 1))) if n_left else set()
    req_r = draw(st.sets(st.integers(0, n_right - 1))) if n_right else set()
    return n_left, n_right, adj, req_l, req_r


@settings(max_examples=400, deadline=None)
@given(graph=bipartite())
def test_matching_covering_matches_full_merge(graph):
    assert matching_covering(*graph) == matching_covering_oracle(*graph)


@settings(max_examples=200, deadline=None)
@given(graph=bipartite())
def test_early_return_equals_full_merge(graph):
    # When the left-saturating matching covers the required right side the
    # library returns it without the second matching; the merge of both
    # matchings must give the same pairs.
    n_left, _, adj, req_l, req_r = graph
    m1 = _saturating(sorted(req_l) + [u for u in range(n_left) if u not in req_l], adj, req_l)
    assume(m1 is not None and req_r <= set(m1.values()))
    assert matching_covering(*graph) == m1 == matching_covering_oracle(*graph)


@settings(max_examples=400, deadline=None)
@given(graph=bipartite(), data=st.data())
def test_greedy_start_keeps_every_covering_decision(graph, data):
    # Saturations that start greedy answer None exactly when saturations
    # from nothing without the greedy start do, with capacities or not.
    n_left, n_right = graph[:2]
    caps = tuple(data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)) for n in (n_left, n_right))
    for given_caps in (None, caps):
        got = matching_covering(*graph, given_caps)
        assert (got is None) == (not covering_exists_oracle(*graph, given_caps))


@settings(max_examples=400, deadline=None)
@given(graph=bipartite())
def test_unit_capacities_give_the_uncapacitated_matching(graph):
    n_left, n_right = graph[:2]
    assert matching_covering(*graph, ([1] * n_left, [1] * n_right)) == matching_covering_oracle(*graph)


def blow_up(graph, caps):
    """The per-copy graph of a class graph: copies numbered class by class,
    each adjacent to every copy of its class's neighbours, and every copy of
    a required class required."""
    n_left, n_right, adj, req_l, req_r = graph
    first_l = [sum(caps[0][:u]) for u in range(n_left + 1)]
    first_r = [sum(caps[1][:v]) for v in range(n_right + 1)]
    copies_l = [range(first_l[u], first_l[u + 1]) for u in range(n_left)]
    copies_r = [range(first_r[v], first_r[v + 1]) for v in range(n_right)]
    rows = [[j for v in adj[u] for j in copies_r[v]] for u in range(n_left)]
    return (
        first_l[-1],
        first_r[-1],
        [rows[u] for u in range(n_left) for _ in copies_l[u]],
        {i for u in req_l for i in copies_l[u]},
        {j for v in req_r for j in copies_r[v]},
    )


@settings(max_examples=400, deadline=None)
@given(graph=bipartite(max_side=6), data=st.data())
def test_capacitated_matching_decides_like_the_blown_up_graph(graph, data):
    n_left, n_right = graph[:2]
    caps = tuple(data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)) for n in (n_left, n_right))
    blown = blow_up(graph, caps)
    got = matching_covering(*graph, caps)
    assert (got is None) == (matching_covering_oracle(*blown) is None)
    if got is not None:
        _, _, adj, req_l, req_r = blown
        assert len(set(got.values())) == len(got)
        assert all(j in adj[i] for i, j in got.items())
        assert req_l <= set(got) and req_r <= set(got.values())


@st.composite
def decision_inputs(draw, den):
    """(F, G, a, b): G is drawn afresh or as F with every finite endpoint
    moved by at most 2, so both answers are common; a and b include 0."""
    F = draw(barcodes(den))
    if draw(st.booleans()):
        G = draw(barcodes(den))
    else:
        move = st.integers(-2 * den, 2 * den).map(lambda k: Fraction(k, den))
        bars = []
        for bar in F.bars:
            lo, hi = bar.interval.lo, bar.interval.hi
            lo = lo if lo == NEG_INF else lo + draw(move)
            hi = hi if hi.is_pos_inf else max(hi + draw(move), lo + Fraction(1, den))
            bars.append((bar.degree, Interval(lo, hi)))
        G = Barcode(bars)
    shift = st.integers(0, 6 * den).map(lambda k: Fraction(k, 2 * den))
    return F, G, draw(shift), draw(shift)


@pytest.mark.parametrize("den", [4, 997])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_windowed_matching_entries_match_all_pairs_oracle(den, data):
    F, G, a, b = data.draw(decision_inputs(den))
    view = _IntView(F, G, (a, b))
    s = view.scale
    got = view.entries(a.numerator * (s // a.denominator), b.numerator * (s // b.denominator))
    assert_same_entries(F, G, a, b, got, int_matching_entries_oracle(F, G, a, b))


@pytest.mark.parametrize("den", [4, 997])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_certificate_check_matches_equals_tau_oracle(den, data):
    """Planted certificates, one map's entry changed or dropped, one map
    given a new allowed entry (so a round trip may gain an off-diagonal
    cell), random maps and maps into a wrongly shifted target are accepted
    or refused, with the same message, as through translated barcodes,
    `compose` and `equals_tau`."""
    F, G, a, b = data.draw(decision_inputs(den))
    field = data.draw(st.sampled_from((GF2, PrimeField(3))))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    cert = check_interleaving(F, G, a, b, field=field)
    how = data.draw(st.sampled_from(("planted", "tampered", "added", "random", "off-target")))
    if cert is not None and how in ("planted", "tampered", "added"):
        u, v = cert.u, cert.v
        which = data.draw(st.sampled_from(("u", "v")))
        m = u if which == "u" else v
        if how == "tampered" and m.entries:
            key = data.draw(st.sampled_from(sorted(m.entries)))
            m = Morphism(m.source, m.target, {**m.entries, key: data.draw(st.sampled_from((0, 2)))}, field)
        if how == "added":
            free = [
                (t, s) for t, tgt in enumerate(m.target) for s, src in enumerate(m.source)
                if (t, s) not in m.entries and _cell_allowed(src, tgt)
            ]
            if free:
                key = data.draw(st.sampled_from(free))
                m = Morphism(m.source, m.target, {**m.entries, key: data.draw(st.sampled_from((1, 2)))}, field)
        u, v = (m, v) if which == "u" else (u, m)
    else:
        off_u, off_v = data.draw(st.sampled_from(((1, 0), (0, 1)))) if how == "off-target" else (0, 0)
        u = rand_realized_morphism(rng, F, G.shift(a + Fraction(off_u, 2 * den)), field)
        v = rand_realized_morphism(rng, G, F.shift(b - Fraction(off_v, 2 * den)), field)
    want = certificate_refusal_oracle(a, b, u, v)
    try:
        InterleavingCertificate(a, b, u, v)
        got = None
    except ValueError as err:
        got = str(err)
    assert got == want


@pytest.mark.parametrize("field", [GF2, PrimeField(3)])
@pytest.mark.parametrize("lo, want", [
    (0, None),
    (Fraction(-1, 2), "round trip through G is not the canonical comparison"),
])
def test_added_entry_round_trip_cell_kept_or_dropped_like_the_oracle(field, lo, want):
    """u gains an entry from F's short, unmatched bar s = [1/2, 2) into the
    partner of bar t = [lo, 10).  The round-trip cell (t, s) is the generator
    of [1/2, 2) -> [lo + 2, 12): it vanishes for lo = 0, so the certificate
    stands, and not for lo = -1/2, so it is refused."""
    F = Barcode([(0, Interval(lo, 10)), (0, Interval(Fraction(1, 2), 2))])
    G = Barcode([(0, Interval(lo, 10))])
    cert = check_interleaving(F, G, 1, 1, field=field)
    assert cert.u.entries == {(0, 0): 1}
    u = Morphism(cert.u.source, cert.u.target, {**cert.u.entries, (0, 1): 1}, field)
    assert certificate_refusal_oracle(1, 1, u, cert.v) == want
    try:
        InterleavingCertificate(1, 1, u, cert.v)
        got = None
    except ValueError as err:
        got = str(err)
    assert got == want


@pytest.mark.parametrize("field", [GF2, PrimeField(5), QQ], ids=["GF2", "GF5", "QQ"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_is_round_trip_matches_equals_tau_of_compose(field, data):
    """`_is_round_trip(f, g, c)`, read off f's untranslated source bars,
    agrees with `equals_tau(compose(f, g), c)` on the translated composite:
    for both round trips of a planted certificate, its maps rescaled by a
    unit and its inverse, at c = 0 too; for those round trips with one
    entry of g changed, dropped or added; and for random maps.  Bars are
    finite or infinite on either side."""
    F, G, a, b = data.draw(decision_inputs(4))
    if data.draw(st.booleans()):
        a = b = Fraction(0)
    total = a + b
    cert = check_interleaving(F, G, a, b, field=field)
    how = data.draw(st.sampled_from(("planted", "changed", "dropped", "added", "random"))) if cert else "random"
    if how == "random":
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        u = rand_realized_morphism(rng, F, G.shift(a), field)
        v = rand_realized_morphism(rng, G.shift(a), F.shift(total), field)
        trips = [(u, v)]
    else:
        lam = field.canon(data.draw(st.sampled_from((1, 2, 3)))) if field is not GF2 else field.one
        u = Morphism(cert.u.source, cert.u.target, {k: field.mul(lam, x) for k, x in cert.u.entries.items()}, field)
        v = Morphism(cert.v.source, cert.v.target, {k: field.mul(field.inv(lam), x) for k, x in cert.v.entries.items()}, field)
        # each map re-aimed so that the other's target is its source
        trips = [
            (u, Morphism(u.target, F.shift(total), v.entries, field)),
            (v, Morphism(v.target, G.shift(total), u.entries, field)),
        ]
        if how != "planted":
            rng = random.Random(data.draw(st.integers(0, 2**32)))
            trips = [(f, tampered(rng, g, how)) for f, g in trips]
    for f, g in trips:
        want = equals_tau(compose(f, g), total)
        assert _is_round_trip(f, g, total) == want
        if how == "planted":
            assert want


@pytest.mark.parametrize("field", [GF2, PrimeField(5), QQ], ids=["GF2", "GF5", "QQ"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_survival_rule_precondition_holds_on_every_round_trip_cell(field, data):
    """Every cell the round-trip check decides meets the survival rule's
    precondition, and there the one comparison agrees with the
    three-inequality rule: each cell (t, s) of `_product(f, g)` for f: A -> B
    and g: B -> A + c, and each diagonal cell of the comparison A -> A + c,
    has equal degrees and A_s <= A_t + c on the built translate.  The pairs
    are both round trips of a planted certificate and random realized
    maps, at c = 0 too, with bars infinite on either side."""
    F, G, a, b = data.draw(decision_inputs(data.draw(st.sampled_from((4, 997)))))
    if data.draw(st.booleans()):
        a = b = Fraction(0)
    total = a + b
    cert = check_interleaving(F, G, a, b, field=field)
    if cert is not None and data.draw(st.booleans()):
        trips = [
            (cert.u, Morphism(cert.u.target, F.shift(total), cert.v.entries, field)),
            (cert.v, Morphism(cert.v.target, G.shift(total), cert.u.entries, field)),
        ]
    else:
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        u = rand_realized_morphism(rng, F, G.shift(a), field)
        trips = [(u, rand_realized_morphism(rng, u.target, F.shift(total), field))]
    n, d = total.numerator, total.denominator
    for f, g in trips:
        bars = f.source.bars
        moved = g.target.bars
        cells = list(_product(f, g)) + [(i, i) for i in range(len(bars))]
        for t, s in cells:
            assert bars[s].degree == moved[t].degree and leq(bars[s].interval, moved[t].interval)
            got = _starts_before_end(bars[s].interval, bars[t].interval, n, d)
            assert got == oracles._deg0_plus(bars[s].interval, bars[t].interval, n, d)


def _recording(fn, log):
    def wrapper(*args):
        out = fn(*args)
        log.append((args, out))
        return out

    return wrapper


def _dense_system(rows, cols, fld, out):
    """A recorded `canonical._solve_rows` call in the (args, out) form of a
    recorded dense `solve_linear` call."""
    zero = fld.zero
    dense = [[row.get(j, zero) for j in cols] for row in rows]
    rhs = [row.get(canonical._RHS, zero) for row in rows]
    return (dense, rhs, fld), None if out is None else [out.get(j, zero) for j in cols]


@pytest.mark.parametrize("den", [4, 997])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_windowed_reverse_synthesis_matches_the_full_scan(den, data):
    """`canonical._solve_reverse` takes each block's unknowns and equations from
    a bisect window; the full scan kept in `oracles.py` takes them from
    every bar.  Both must find the same unknowns and equations, hand the
    same systems to the solver in the same order (so the same pivot
    columns), and synthesize the same reverse.  Problems: the comparison
    of a barcode with infinite and repeated bars into its c-shift at a
    slack eps >= c, a random map at that slack, and planted graded towers."""
    fld = data.draw(st.sampled_from((GF2, PrimeField(5), QQ)))
    F = data.draw(barcodes(den))
    c = abs(data.draw(signed_shifts(den)))
    eps = c + abs(data.draw(signed_shifts(den)))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    problems = [(tau_morphism(F, c, fld), eps), (rand_realized_morphism(rng, F, data.draw(barcodes(den)), fld), eps)]
    problems += [(f, slack) for f, slack, _ in _reverse_problems(rng.randrange(2**32), fld, (0, 1))]
    for f, slack in problems:
        windows, got_systems, want_systems = [], [], []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(canonical, "_allowed_into", _recording(canonical._allowed_into, windows))
            mp.setattr(canonical, "_solve_rows", _recording(canonical._solve_rows, got_systems))
            mp.setattr(oracles, "solve_linear", _recording(oracles.solve_linear, want_systems))
            got = canonical._solve_reverse(f, slack, fld)
            blocks, want = solve_reverse_scan_oracle(f, slack, fld)
        scans = [found for _, unknowns, equations in blocks for found in (unknowns, equations)]
        assert [out for _, out in windows] == scans
        assert [_dense_system(*args, out) for args, out in got_systems] == want_systems
        assert got == want
        if got is not None:
            assert list(got.entries.items()) == list(want.entries.items())
