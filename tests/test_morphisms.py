"""Morphism matrices: Hom-constrained entries and exact composition."""

from fractions import Fraction

import pytest

from persimod import Barcode, Interval
from persimod.fields import GF2, QQ, PrimeField
from persimod.morphisms import Morphism, _is_round_trip, compose, identity, tau_morphism
from conftest import rand_barcode, rand_realized_morphism
from oracles import compose_oracle, direct_sum, equals_tau_oracle, merge_barcodes

GF5 = PrimeField(5)


def B(*bars):
    return Barcode(bars)


def test_make_morphism_accepts_realized_cell():
    src, tgt = B((0, Interval(0, 10))), B((0, Interval(1, 11)))
    m = Morphism(src, tgt, {(0, 0): 1})
    assert m.entries == {(0, 0): 1}


def test_strict_constructor_rejects_phantom_cell():
    src, tgt = B((0, Interval(0, 10))), B((0, Interval(5, 6)))
    with pytest.raises(ValueError):
        Morphism(src, tgt, {(0, 0): 1}, field=GF2)


def test_empty_entries_is_zero_morphism():
    src, tgt = B((0, Interval(0, 10))), B((0, Interval(1, 11)))
    assert Morphism(src, tgt, {(0, 0): 0}) == Morphism(src, tgt, {})


def test_index_out_of_range():
    src, tgt = B((0, Interval(0, 10))), B((0, Interval(1, 11)))
    with pytest.raises(IndexError):
        Morphism(src, tgt, {(3, 0): 1})


@pytest.mark.parametrize("indices", [[-3, 1], [-1, 0], [0, 3], [7]])
def test_restriction_refuses_an_index_outside_the_barcode(indices):
    bc = B((0, Interval(0, 10)), (0, Interval(1, 11)), (0, Interval(2, 12)))
    bad = min(indices) if min(indices) < 0 else max(indices)
    for restrict in (identity(bc).restrict_source, identity(bc).restrict_target):
        with pytest.raises(IndexError, match=f"bar index {bad} "):
            restrict(indices)
    # the barcode's own restriction still reads negative indices from the end
    assert bc.restrict([-1, 0]).bars == (bc.bars[0], bc.bars[2])


def test_restriction_keeps_entries_by_rank():
    bc = B((0, Interval(0, 10)), (0, Interval(1, 11)), (0, Interval(2, 12)))
    m = identity(bc, GF5)
    src = m.restrict_source([2, 0, 2])
    assert src.source.bars == (bc.bars[0], bc.bars[2]) and src.entries == {(0, 0): 1, (2, 1): 1}
    tgt = m.restrict_target([1])
    assert tgt.target.bars == (bc.bars[1],) and tgt.entries == {(0, 1): 1}
    assert m.restrict_source([]).entries == {} and len(m.restrict_target([]).target) == 0


def test_compose_identity():
    src, tgt = B((0, Interval(0, 10))), B((0, Interval(1, 11)))
    f = Morphism(src, tgt, {(0, 0): 1})
    assert compose(identity(src), f) == f
    assert compose(f, identity(tgt)) == f


def test_compose_chain_example():
    a, b, c = B((0, Interval(0, 3))), B((0, Interval(1, 4))), B((0, Interval(2, 5)))
    f = Morphism(a, b, {(0, 0): 1})
    g = Morphism(b, c, {(0, 0): 1})
    assert compose(f, g).entries == {(0, 0): 1}


def test_compose_outer_generator_vanishes():
    a, b, c = B((0, Interval(0, 2))), B((0, Interval(1, 3))), B((0, Interval(2, 4)))
    f = Morphism(a, b, {(0, 0): 1})
    g = Morphism(b, c, {(0, 0): 1})
    assert not compose(f, g).entries


def test_compose_mismatched_middle():
    a, b = B((0, Interval(0, 2))), B((0, Interval(1, 3)))
    f = Morphism(a, b, {(0, 0): 1})
    with pytest.raises(ValueError):
        compose(f, f)


def test_compose_mixed_fields():
    a, b = B((0, Interval(0, 2))), B((0, Interval(1, 3)))
    f = Morphism(a, b, {(0, 0): 1}, field=GF2)
    with pytest.raises(ValueError, match="^mismatched scalar fields$"):
        compose(f, identity(b, GF5))


def test_compose_agrees_with_stalk_oracle(rng):
    for _ in range(40):
        fld = rng.choice([GF2, GF5, QQ])
        a = rand_barcode(rng, rng.randint(1, 4), degrees=(0, 1))
        b = rand_barcode(rng, rng.randint(1, 4), degrees=(0, 1))
        c = rand_barcode(rng, rng.randint(1, 4), degrees=(0, 1))
        f = rand_realized_morphism(rng, a, b, fld)
        g = rand_realized_morphism(rng, b, c, fld)
        got = {k: fld.canon(v) for k, v in compose(f, g).entries.items()}
        assert got == compose_oracle(f, g)


def test_compose_associative(rng):
    for _ in range(25):
        fld = rng.choice([GF2, GF5])
        bcs = [rand_barcode(rng, 3, degrees=(0,)) for _ in range(4)]
        f, g, h = (
            rand_realized_morphism(rng, bcs[i], bcs[i + 1], fld) for i in range(3)
        )
        assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_composite_entries_stay_realized(rng):
    from persimod.intervals import hom, DEG0

    for _ in range(25):
        a = rand_barcode(rng, 4)
        b = rand_barcode(rng, 4)
        c = rand_barcode(rng, 4)
        f = rand_realized_morphism(rng, a, b, GF2, density=0.9)
        g = rand_realized_morphism(rng, b, c, GF2, density=0.9)
        for (t, s), val in compose(f, g).entries.items():
            assert val != 0
            assert hom(a[s].interval, c[t].interval) is DEG0


# --- round trips against the comparison map ---------------------------------


def test_is_round_trip_on_tau():
    bc = B((0, Interval(0, 5)), (0, Interval(1, 2)))
    c = Fraction(3, 2)
    assert _is_round_trip(identity(bc), tau_morphism(bc, c, field=GF2), c)
    assert _is_round_trip(tau_morphism(bc, c, field=GF2), identity(bc.shift(c)), c)


def test_is_round_trip_zero_morphism():
    long_bc = B((0, Interval(0, 5)))
    assert not _is_round_trip(identity(long_bc), Morphism(long_bc, long_bc.shift(2), {}), Fraction(2))
    short_bc = B((0, Interval(0, 2)))
    assert _is_round_trip(identity(short_bc), Morphism(short_bc, short_bc.shift(2), {}), Fraction(2))


def test_is_round_trip_matches_stalk_oracle(rng):
    for _ in range(30):
        bc = rand_barcode(rng, rng.randint(1, 4))
        c = Fraction(rng.randint(0, 10), 2)
        m = tau_morphism(bc, c, field=GF2)
        assert _is_round_trip(identity(bc), m, c) == equals_tau_oracle(m, c) == True
        if m.entries:
            broken = dict(m.entries)
            del broken[next(iter(broken))]
            m2 = Morphism(bc, bc.shift(c), broken, field=GF2)
            assert _is_round_trip(identity(bc), m2, c) == equals_tau_oracle(m2, c) == False


# --- direct sums ------------------------------------------------------------


def test_merge_barcodes_reindexing():
    first = B((0, Interval(0, 2)), (0, Interval(5, 6)))
    second = B((0, Interval(1, 3)))
    merged, maps = merge_barcodes([first, second])
    assert len(merged) == 3
    for part, mapping in zip([first, second], maps):
        for local, glob in enumerate(mapping):
            assert merged[glob] == part[local]


def test_direct_sum_blocks(rng):
    a1, a2 = rand_barcode(rng, 2), rand_barcode(rng, 3)
    b1, b2 = rand_barcode(rng, 2), rand_barcode(rng, 3)
    f1 = rand_realized_morphism(rng, a1, b1, GF2, density=1.0)
    f2 = rand_realized_morphism(rng, a2, b2, GF2, density=1.0)
    total = direct_sum([f1, f2])
    _, src_maps = merge_barcodes([a1, a2])
    _, tgt_maps = merge_barcodes([b1, b2])
    expect = {}
    for block, (f, smap, tmap) in enumerate([(f1, src_maps[0], tgt_maps[0]),
                                             (f2, src_maps[1], tgt_maps[1])]):
        for (t, s), v in f.entries.items():
            expect[(tmap[t], smap[s])] = v
    assert total.entries == expect
