"""The trusted constructors and the direct ExtRat comparisons, checked for
exact agreement with the validating rebuilds kept in `oracles.py`, and the
explicit-stack augmenting search against the recursive one."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persimod import Barcode, Interval
from persimod.fields import GF2, PrimeField, QQ
from persimod.intervals import ExtRat, NEG_INF, POS_INF
from persimod.matching import _try_augment
from persimod.morphisms import Morphism, compose, equals_tau, tau_morphism
from conftest import rand_realized_morphism
from oracles import (
    augment_oracle,
    compare_oracle,
    morphism_shift_oracle,
    restrict_oracle,
    shift_oracle,
    tau_entries_oracle,
)

KINDS = ("finite", "finite", "finite", "left", "right", "both")


@st.composite
def barcodes(draw, den, max_size=8):
    """Barcodes on degrees {0, 1} with endpoints k/den, negative ones too,
    repeated bars, and left-, right- and two-sided infinite bars."""
    bars = []
    for degree, kind in draw(st.lists(st.tuples(st.sampled_from((0, 1)), st.sampled_from(KINDS)), max_size=max_size)):
        lo = Fraction(draw(st.integers(-10 * den, 10 * den)), den)
        hi = lo + Fraction(draw(st.integers(1, 10 * den)), den)
        bars.append((degree, Interval(NEG_INF if kind in ("left", "both") else lo,
                                      POS_INF if kind in ("right", "both") else hi)))
        if draw(st.booleans()):
            bars.append(bars[-1])
    return Barcode(bars)


def signed_shifts(den):
    return st.integers(-12 * den, 12 * den).map(lambda k: Fraction(k, 2 * den))


def endpoints(den):
    finite = st.integers(-4 * den, 4 * den).map(lambda k: ExtRat(Fraction(k, den)))
    return st.one_of(finite, st.sampled_from((NEG_INF, POS_INF)))


def operands(den):
    """ExtRat values and the int, Fraction and str operands they coerce."""
    return st.one_of(
        endpoints(den),
        st.integers(-4, 4),
        st.integers(-4 * den, 4 * den).map(lambda k: Fraction(k, den)),
        st.integers(-4 * den, 4 * den).map(lambda k: str(Fraction(k, den))),
        st.sampled_from(("inf", "-inf", "oo", "-oo")),
    )


@pytest.mark.parametrize("den", [4, 997])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_barcode_shift_matches_validating_rebuild(den, data):
    bc, c = data.draw(barcodes(den)), data.draw(signed_shifts(den))
    got, want = bc.shift(c), shift_oracle(bc, c)
    assert got.bars == want.bars
    assert got.is_shift_of(bc, c) and want.is_shift_of(bc, c)
    if got:
        assert not got.is_shift_of(bc, c + Fraction(1, den)) or all(
            b.interval.lo.is_neg_inf and b.interval.hi.is_pos_inf for b in bc
        )


@pytest.mark.parametrize("den", [4, 997])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_barcode_is_shift_of_matches_rebuild_equality(den, data):
    a, b = data.draw(barcodes(den, max_size=3)), data.draw(barcodes(den, max_size=3))
    c = data.draw(signed_shifts(den))
    assert a.is_shift_of(b, c) == (a == shift_oracle(b, c))


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
@pytest.mark.parametrize("field", [GF2, PrimeField(3), QQ])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_morphism_shift_matches_validating_rebuild(den, field, data):
    src, tgt = data.draw(barcodes(den, max_size=5)), data.draw(barcodes(den, max_size=5))
    m = rand_realized_morphism(random.Random(data.draw(st.integers(0, 2**32))), src, tgt, field)
    c = data.draw(signed_shifts(den))
    got, want = m.shift(c), morphism_shift_oracle(m, c)
    assert got == want
    assert (got.entries, got.zeroed) == (want.entries, want.zeroed)
    got.entries.clear()
    assert m.entries == want.entries


@pytest.mark.parametrize("den", [4, 997])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_tau_and_compose_match_validating_constructors(den, data):
    bc = data.draw(barcodes(den, max_size=5))
    c = abs(data.draw(signed_shifts(den)))
    t = tau_morphism(bc, c)
    assert t.entries == tau_entries_oracle(bc, c)
    assert equals_tau(t, c)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    mid = data.draw(barcodes(den, max_size=4))
    f = rand_realized_morphism(rng, bc, mid, GF2)
    g = rand_realized_morphism(rng, mid, t.target, GF2)
    h = compose(f, g)
    assert h == Morphism(h.source, h.target, h.entries, h.field)


@pytest.mark.parametrize("den", [4, 997])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_extrat_comparisons_match_key_order(den, data):
    x, y = data.draw(operands(den)), data.draw(operands(den))
    ex = ExtRat(x)
    # ExtRat on the left, then on the right (Python reflects the operator).
    assert (ex == y, ex < y, ex <= y, ex > y, ex >= y) == compare_oracle(x, y)
    assert (y == ex, y > ex, y >= ex, y < ex, y <= ex) == compare_oracle(x, y)


@pytest.mark.parametrize("den", [4, 997])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_extrat_addition_matches_coerced_sum(den, data):
    x, y = data.draw(endpoints(den)), data.draw(operands(den))
    ey = ExtRat(y)
    if x.is_finite and ey.is_finite:
        got = x + y
        assert type(got) is ExtRat and type(got._q) is Fraction
        assert got._key() == ExtRat(x.as_fraction() + ey.as_fraction())._key()
        assert (x - y)._key() == ExtRat(x.as_fraction() - ey.as_fraction())._key()
    elif not x.is_finite and not ey.is_finite and x != ey:
        with pytest.raises(ArithmeticError):
            x + y
    else:
        assert (x + y)._key() == (x if not x.is_finite else ey)._key()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_augmenting_search_matches_recursive(data):
    n_left, n_right = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 8))
    adj = [data.draw(st.lists(st.integers(0, n_right - 1), unique=True)) if n_right else [] for _ in range(n_left)]
    order = data.draw(st.permutations(range(n_left)))
    match_r = {}
    found = [_try_augment(u, adj, match_r, set()) for u in order]
    want_r, want_found = augment_oracle(order, adj)
    assert found == want_found
    assert list(match_r.items()) == list(want_r.items())
