"""Barcode container, shift/tau, gamma-to-zero, and diagonal cones."""

from fractions import Fraction

import pytest

from persimod import Barcode, Interval
from persimod.barcodes import Bar
from persimod.limits import cone_diagonal, gamma_to_zero
from persimod.intervals import ExtRat, NEG_INF, POS_INF
from persimod.morphisms import Morphism, compose, identity, tau_morphism
from persimod.fields import GF2, PrimeField
from oracles import barcode_dims, cone_dims_oracle, cone_strata_ends, strata_for


def B(*bars):
    return Barcode(bars)


def test_barcode_is_sorted_multiset():
    a = B((1, Interval(0, 1)), (0, Interval(2, 3)), (0, Interval(0, 5)))
    b = B((0, Interval(0, 5)), (0, Interval(2, 3)), (1, Interval(0, 1)))
    assert a == b
    assert [bar.degree for bar in a] == [0, 0, 1]
    assert a.counts()[0][1] == 1
    two = B((0, Interval(0, 1)), (0, Interval(0, 1)))
    assert two.counts() == [(Bar(0, Interval(0, 1)), 2)]


def test_shift_examples():
    assert B((0, Interval(0, 1))).shift(2) == B((0, Interval(2, 3)))
    assert B((0, Interval(NEG_INF, 3))).shift(1) == B((0, Interval(NEG_INF, 4)))
    assert Barcode().shift(5) == Barcode()


def test_gamma_to_zero_examples():
    assert gamma_to_zero(B((0, Interval(0, 5)))) == ExtRat(5)
    assert gamma_to_zero(Barcode()) == ExtRat(0)
    assert gamma_to_zero(B((0, Interval(0, POS_INF)))) == POS_INF


def test_tau_examples():
    one_bar = B((0, Interval(0, 5)))
    assert tau_morphism(one_bar, 2).entries == {(0, 0): 1}
    assert not tau_morphism(one_bar, 5).entries
    some = B((0, Interval(0, 5)), (1, Interval(2, 4)))
    assert tau_morphism(some, 0) == identity(some)
    with pytest.raises(ValueError):
        tau_morphism(some, -1)


def test_tau_composes_to_tau():
    bc = B((0, Interval(0, 5)), (0, Interval(1, 3)), (0, Interval(2, 9)))
    a, b = Fraction(1), Fraction(3, 2)
    lhs = compose(tau_morphism(bc, a), tau_morphism(bc.shift(a), b))
    assert lhs == tau_morphism(bc, a + b, field=GF2)


def test_gamma_to_zero_shift_invariant():
    bc = B((0, Interval(0, 5)), (2, Interval(1, 3)))
    for c in (Fraction(1, 2), -3, 10):
        assert gamma_to_zero(bc.shift(c)) == gamma_to_zero(bc)


# --- cones ------------------------------------------------------------------


def test_cone_of_identity_is_zero():
    bc = B((0, Interval(0, 1)))
    assert cone_diagonal(identity(bc)) == Barcode()


def test_cone_canonical_example():
    src, tgt = B((0, Interval(0, 3))), B((0, Interval(1, 4)))
    m = Morphism(src, tgt, {(0, 0): 1}, field=GF2)
    assert cone_diagonal(m) == B((1, Interval(0, 1)), (0, Interval(3, 4)))


def test_cone_of_zero_map_shifts_source():
    src = B((0, Interval(0, 2)))
    m = Morphism(src, Barcode(), {}, field=GF2)
    assert cone_diagonal(m) == B((1, Interval(0, 2)))


def test_cone_rejects_non_diagonal():
    src = B((0, Interval(0, 10)), (0, Interval(1, 11)))
    tgt = B((0, Interval(2, 12)))
    row = Morphism(src, tgt, {(0, 0): 1, (0, 1): 1}, field=GF2)
    column = Morphism(tgt, src.shift(2), {(0, 0): 1, (1, 0): 1}, field=GF2)
    scaled = Morphism(tgt, tgt, {(0, 0): 3}, field=PrimeField(5))
    for m, message in ((row, "two entries"), (column, "two entries"), (scaled, "is 3, not 1")):
        with pytest.raises(ValueError, match=message):
            cone_diagonal(m)


def test_cone_of_tau_bounded_by_two_eps(rng):
    from conftest import rand_barcode

    for _ in range(25):
        bc = rand_barcode(rng, rng.randint(1, 5), degrees=(0, 1))
        eps = Fraction(rng.randint(0, 8), 4)
        cone = cone_diagonal(tau_morphism(bc, eps, field=GF2))
        assert gamma_to_zero(cone) <= ExtRat(2 * eps)
        for bar in cone:
            assert bar.interval.length <= ExtRat(eps)


def test_cone_matches_stalk_oracle(rng):
    from conftest import rand_barcode
    from persimod.intervals import hom, DEG0

    for _ in range(30):
        src = rand_barcode(rng, rng.randint(1, 4), degrees=(0, 1))
        tgt = rand_barcode(rng, rng.randint(1, 4), degrees=(0, 1))
        used = set()
        entries = {}
        for i in range(len(src)):
            cands = [
                t
                for t in range(len(tgt))
                if t not in used
                and src[i].degree == tgt[t].degree
                and hom(src[i].interval, tgt[t].interval) is DEG0
            ]
            if cands and rng.random() < 0.8:
                t = cands[0]
                entries[(t, i)] = 1
                used.add(t)
        m = Morphism(src, tgt, entries, field=GF2)
        strata = strata_for(cone_strata_ends(m))
        assert barcode_dims(cone_diagonal(m), strata) == cone_dims_oracle(m)
