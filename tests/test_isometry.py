"""The isometry theorem as an oracle: for barcodes the interleaving
distance is the bottleneck distance.  `bottleneck_oracle` in `oracles.py`
matches bars and diagonal copies in Fractions and shares no code with the
interleaving kernel, so these checks hold the kernel's decisions and
distances against an independent textbook computation.  The adjacency
behind them is the L-inf box of the theorem, checked by brute force."""

import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persimod import Barcode, Interval, check_interleaving, gamma, gamma_symmetric
from persimod.interleaving import _rows
from persimod.intervals import DEG0, hom
from oracles import bottleneck_oracle, translate_test_oracle
from test_interleaving_kernel import barcode_pairs, shifts


@st.composite
def near_pairs(draw, den):
    """Pairs of at most 8 bars a side on degrees {0} or {0, 1}, infinite and
    repeated bars included.  A third of the time G keeps each bar of F with
    probability 0.8 and adds up to two of its own, so that small nonzero
    distances are common; F against itself and an empty side also occur."""
    degrees = draw(st.sampled_from(((0,), (0, 1))))
    F, G = draw(barcode_pairs(den, max_size=draw(st.integers(1, 8)), degrees=degrees))
    if draw(st.integers(0, 2)) == 0:
        kept = [bar for bar in F.bars if draw(st.integers(0, 4))]
        G = Barcode([(bar.degree, bar.interval) for bar in kept + list(G.bars[:2])][:8])
    return draw(st.sampled_from(((F, G), (F, G), (F, G), (F, F), (F, Barcode([])))))


def _value(report):
    return report.value.as_fraction() if report.value.is_finite else math.inf


@pytest.mark.parametrize("den", [1, 4, 997])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_gamma_symmetric_is_twice_the_bottleneck_distance(den, data):
    F, G = data.draw(near_pairs(den))
    assert _value(gamma_symmetric(F, G)) == 2 * bottleneck_oracle(F, G)


@pytest.mark.parametrize("den", [1, 4, 997])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_check_interleaving_decides_the_translate_test(den, data):
    """An (a, b)-interleaving exists iff d_B(F, G + (a - b)/2) <= (a + b)/2.
    A share of the pairs put a + b at a bar's length, where that bar may
    but need not be matched."""
    F, G = data.draw(near_pairs(den))
    pairs = data.draw(st.lists(st.tuples(shifts(den), shifts(den)), min_size=1, max_size=4))
    lengths = [ln.as_fraction() for bar in (*F.bars, *G.bars) if (ln := bar.interval.length).is_finite]
    for ln in data.draw(st.lists(st.sampled_from(lengths), max_size=2)) if lengths else ():
        a = ln * data.draw(st.integers(0, 4)) / 4
        pairs.append((a, ln - a))
    for a, b in pairs:
        assert (check_interleaving(F, G, a, b) is not None) == translate_test_oracle(F, G, a, b)


@pytest.mark.parametrize("den", [1, 4, 997])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_gamma_pair_passes_the_translate_test_and_no_smaller_total_does(den, data):
    F, G = data.draw(near_pairs(den))
    report = gamma(F, G)
    value, cert = _value(report), report.certificate
    if cert is not None:
        assert translate_test_oracle(F, G, cert.a, cert.b) and cert.total == value
    bound = value if cert is not None else Fraction(12)
    if bound == 0:
        return
    fractions = st.integers(0, 999).map(lambda k: Fraction(k, 1000))
    for p, q in data.draw(st.lists(st.tuples(fractions, fractions), min_size=1, max_size=3)):
        a = bound * p
        b = (bound - a) * q  # a + b < bound
        assert not translate_test_oracle(F, G, a, b)


def test_rows_are_the_box_on_pairs_with_a_long_bar():
    """Every pair of int bars x, y on [0, 6] at every a, b in [0, 3]: where
    one bar is longer than a + b, `_rows` pairs them exactly when
    hom(x, y + a) and hom(y, x + b) are DEG0 in Fractions, and it never
    pairs two bars that are both at most a + b long."""
    bars = [(lo, hi) for lo in range(7) for hi in range(lo + 1, 7)]
    o_lo, o_hi, o_len = [lo for lo, _ in bars], [hi for _, hi in bars], [hi - lo for lo, hi in bars]
    long_pairs, wrong, short = 0, [], []
    for a, b, (lo, hi) in product(range(4), range(4), bars):
        row = _rows(a, b, [lo], [hi], o_lo, o_hi, o_len)[0]
        x = Interval(lo, hi)
        for j, (ylo, yhi) in enumerate(bars):
            if max(hi - lo, yhi - ylo) > a + b:
                long_pairs += 1
                y = Interval(ylo, yhi)
                if (j in row) != (hom(x, y.shift(Fraction(a))) is DEG0 and hom(y, x.shift(Fraction(b))) is DEG0):
                    wrong.append((a, b, x, y))
            elif j in row:
                short.append((a, b, lo, hi, ylo, yhi))
    assert long_pairs == 3508 and wrong == []
    assert short == []
