"""Sublevel persistence of PL functions and spectral numbers."""

import os
import random
import tempfile
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persimod import Barcode, Interval, gamma
from persimod.intervals import ExtRat, NEG_INF, POS_INF
from persimod.io import ParseError, emit_barcode, parse_plfunction
from persimod.spectral import (
    PLFunction,
    left_infinite_form,
    spectral_invariants,
    sublevel_barcode,
)

from conftest import rand_plf
from oracles import sublevel_merge_oracle, sublevel_oracle


def B(*bars):
    return Barcode(bars)


# --- PLFunction validation ---------------------------------------------------


def test_plfunction_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown domain"):
        PLFunction("torus", [0, 1], [0, 0])
    with pytest.raises(ValueError, match="differ in length"):
        PLFunction("interval", [0, 1, 2], [0, 0])
    with pytest.raises(ValueError, match="at least two"):
        PLFunction("interval", [0], [5])
    with pytest.raises(ValueError, match="strictly increasing"):
        PLFunction("circle", [0, 1, 1], [0, 2, 1])


def test_plfunction_holds_fractions_from_ints_strings_and_floats():
    f = PLFunction("interval", [0, "1/2", 1.5, Fraction(2)], ["3", 1, Fraction(-1, 3), 0.25])
    for x in f.breakpoints + f.values:
        assert type(x) is Fraction
    assert f.breakpoints == (0, Fraction(1, 2), Fraction(3, 2), 2)
    assert f.values == (3, 1, Fraction(-1, 3), Fraction(1, 4))


def test_plfunction_extremes():
    f = PLFunction("interval", [0, 1, 2, 3], [0, 2, 1, 3])
    assert min(f.values) == 0
    assert max(f.values) == 3


# --- sublevel barcodes -------------------------------------------------------


def test_sublevel_interval_example():
    f = PLFunction("interval", [0, 1, 2, 3], [0, 2, 1, 3])
    assert sublevel_barcode(f) == B(
        (0, Interval(0, POS_INF)), (0, Interval(1, 2))
    )


def test_sublevel_circle_example():
    # same samples on the circle: the wrap-around edge closes a loop at max f
    f = PLFunction("circle", [0, 1, 2, 3], [0, 2, 1, 3])
    assert sublevel_barcode(f) == B(
        (0, Interval(0, POS_INF)), (0, Interval(1, 2)), (1, Interval(3, POS_INF))
    )


def test_sublevel_constant_circle():
    f = PLFunction("circle", [0, 1, 2], [0, 0, 0])
    assert sublevel_barcode(f) == B((0, Interval(0, POS_INF)), (1, Interval(0, POS_INF)))


def test_sublevel_monotone_interval_has_only_essential_bar():
    f = PLFunction("interval", [0, 1, 2, 3], [0, 1, 2, 3])
    assert sublevel_barcode(f) == B((0, Interval(0, POS_INF)))


def test_sublevel_drops_zero_length_bars():
    # the plateau vertex is born at 1 and absorbed at 1: no finite bar
    f = PLFunction("interval", [0, 1, 2], [0, 1, 1])
    out = sublevel_barcode(f)
    assert out == B((0, Interval(0, POS_INF)))


def test_sublevel_matches_rank_oracle(rng):
    for _ in range(60):
        domain = rng.choice(["interval", "circle"])
        f = rand_plf(rng, domain)
        assert sublevel_barcode(f) == sublevel_oracle(f.values, domain == "circle")


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 12), min_size=2, max_size=10), st.booleans())
def test_sublevel_bar_count(vals, circle):
    f = PLFunction("circle" if circle else "interval", range(len(vals)), vals)
    out = sublevel_barcode(f)
    essential = [b for b in out.bars if b.interval.hi == POS_INF]
    # connected domain: one essential component, plus the loop on the circle
    assert [b.degree for b in essential] == ([0, 1] if circle else [0])
    assert all(b.degree == 0 for b in out.bars if b.interval.hi != POS_INF)


_levels = st.fractions(min_value=-50, max_value=50, max_denominator=10 ** 6)


def _check_runs_against_the_merge(runs, domain):
    vals = [v for v, length in runs for _ in range(length)]
    vals = vals if len(vals) > 1 else vals * 2
    f = PLFunction(domain, range(len(vals)), vals)
    got, want = sublevel_barcode(f), sublevel_merge_oracle(f)
    assert got.bars == want.bars and repr(got) == repr(want)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(_levels, min_size=1, max_size=6, unique=True).flatmap(
        lambda pool: st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 3)), min_size=1, max_size=12)
    ),
    st.sampled_from(["interval", "circle"]),
)
def test_rank_merge_matches_the_fraction_merge(runs, domain):
    # few distinct levels make ties; a run of one value is a plateau
    _check_runs_against_the_merge(runs, domain)


# Levels 10^-30 apart round to one float, and +-10^400 lie past the float
# range, so the float approximations of these levels tie in groups of four
# and only the exact order can rank them.
_FLOAT_TIES = [
    sign * (base + Fraction(k, 10 ** 30))
    for base in (Fraction(1, 3), Fraction(2 ** 60), Fraction(10 ** 300), Fraction(10 ** 400))
    for sign in (1, -1)
    for k in range(4)
]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.sampled_from(_FLOAT_TIES), min_size=1, max_size=8, unique=True).flatmap(
        lambda pool: st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 2)), min_size=1, max_size=14)
    ),
    st.sampled_from(["interval", "circle"]),
)
def test_levels_with_equal_floats_keep_their_exact_order(runs, domain):
    _check_runs_against_the_merge(runs, domain)


_tokens = st.tuples(st.sampled_from(["", "+", "-"]), st.integers(0, 40), st.sampled_from(["", "/1", "/4", "/04", "/6"]))


@settings(max_examples=40, deadline=None)
@given(st.lists(_tokens, min_size=2, max_size=14), st.sampled_from(["interval", "circle"]))
def test_sublevel_of_a_file_matches_the_fraction_merge(tokens, domain):
    # Values as a file spells them: signs, leading zeros and few distinct
    # levels, so ties and plateaus; read back through the fast parser.
    text = [f"{sign}{n:02d}{den}" for sign, n, den in tokens]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.plf")
        with open(path, "w") as fh:
            fh.write(f"domain: {domain}\n" + "".join(f"{k} {v}\n" for k, v in enumerate(text)))
        f = parse_plfunction(path)
    assert f.values == tuple(Fraction(v) for v in text)
    want = sublevel_merge_oracle(PLFunction(domain, range(len(text)), [Fraction(v) for v in text]))
    assert emit_barcode(sublevel_barcode(f)) == emit_barcode(want)


def _file_against_the_merge(tmp_path, domain, bps, tokens):
    """Write `tokens` as the values of a .plf file at `bps`; the barcode of
    the parsed file must print as the Fraction merge's barcode of the same
    values built without the parser."""
    path = tmp_path / "f.plf"
    path.write_text(f"domain: {domain}\n" + "".join(f"{b} {v}\n" for b, v in zip(bps, tokens)))
    f = parse_plfunction(path)
    want = sublevel_merge_oracle(PLFunction(domain, bps, [Fraction(t) for t in tokens]))
    got = sublevel_barcode(f)
    assert emit_barcode(got) == emit_barcode(want)
    assert got.bars == want.bars
    return got


@pytest.mark.parametrize("domain", ["interval", "circle"])
def test_tie_free_file_with_large_denominators_matches_the_merge(tmp_path, domain):
    # Numerators prime to distinct denominators: no two values tie.
    rng = random.Random(41)
    dens = rng.sample(range(3, 10_008), 2000)
    nums = [next(k for k in iter(lambda: rng.randint(-10 * d, 10 * d), None) if gcd(k, d) == 1) for d in dens]
    tokens = [f"{k}/{d}" for k, d in zip(nums, dens)]
    got = _file_against_the_merge(tmp_path, domain, range(len(tokens)), tokens)
    assert len(got) > len(tokens) // 4


@pytest.mark.parametrize("domain", ["interval", "circle"])
def test_one_value_spelled_five_ways_is_one_level(tmp_path, domain):
    # 1/2 in five spellings between lower and higher samples: the bars
    # see one level, so the plateau dies and is born at the same 1/2.
    rng = random.Random(43)
    spellings = ["1/2", "2/4", "+1/2", "05/10", "0.5"]
    tokens = [rng.choice(spellings + ["0", "1", "3/4", "-1/4"]) for _ in range(400)]
    got = _file_against_the_merge(tmp_path, domain, [Fraction(k, 3) for k in range(400)], tokens)
    assert {str(e) for bar in got for e in (bar.interval.lo, bar.interval.hi)} <= {"-1/4", "0", "1/2", "3/4", "1", "inf"}


@pytest.mark.parametrize("domain", ["interval", "circle"])
def test_large_file_with_few_levels_matches_the_merge(tmp_path, domain):
    rng = random.Random(47)
    bps = [Fraction(b, 4) for b in sorted(rng.sample(range(40_000), 10_000))]
    tokens = [str(Fraction(rng.randint(0, 40), 4)) for _ in bps]
    got = _file_against_the_merge(tmp_path, domain, bps, tokens)
    assert len(got.counts()) < len(got) // 3  # many bars repeat


def test_a_bad_token_is_refused_at_its_first_line(tmp_path):
    path = tmp_path / "f.plf"
    path.write_text("domain: circle\n0 1\n1 x/2\n2 x/2\n3 0\nx/2 1\n")
    with pytest.raises(ParseError) as err:
        parse_plfunction(path)
    assert str(err.value) == f"{path}:3: unknown token (Invalid literal for Fraction: 'x/2')"


@pytest.mark.parametrize("rows", [["0 1", "1/2 2", "2/4 0"], ["0 1", "1 2", "1/2 0"], ["0 0", "0 0"]])
def test_a_repeated_or_decreasing_breakpoint_is_refused(tmp_path, rows):
    path = tmp_path / "f.plf"
    path.write_text("domain: interval\n" + "\n".join(rows) + "\n")
    with pytest.raises(ParseError) as err:
        parse_plfunction(path)
    assert str(err.value) == f"{path}: breakpoints must be strictly increasing"


def test_sublevel_shift_equivariance(rng):
    for _ in range(20):
        f = rand_plf(rng, rng.choice(["interval", "circle"]))
        c = Fraction(rng.randint(1, 12), 4)
        g = PLFunction(f.domain, f.breakpoints, [v + c for v in f.values])
        assert sublevel_barcode(g) == sublevel_barcode(f).shift(c)


def test_sublevel_stability(rng):
    # common breakpoints, so the sup distance is attained at a sample
    for _ in range(25):
        f = rand_plf(rng, "circle", max_breaks=8)
        vals = [v + Fraction(rng.randint(-2, 2), 4) for v in f.values]
        g = PLFunction("circle", f.breakpoints, vals)
        d = max(abs(a - b) for a, b in zip(f.values, g.values))
        assert gamma(sublevel_barcode(f), sublevel_barcode(g)).value <= ExtRat(2 * d)


# --- spectral numbers --------------------------------------------------------


def test_spectral_left_infinite_example():
    b = B(
        (-1, Interval(NEG_INF, Fraction(7, 10))),
        (0, Interval(NEG_INF, Fraction(13, 10))),
    )
    rep = spectral_invariants(b, "LeftInfinite", 1)
    assert rep.c_minus == Fraction(7, 10)
    assert rep.c_plus == Fraction(13, 10)
    assert rep.gamma == Fraction(3, 5)
    assert rep.invariants == (
        (-1, ExtRat(Fraction(7, 10))),
        (0, ExtRat(Fraction(13, 10))),
    )


def test_spectral_sublevel_convention_reads_min_and_max():
    f = PLFunction("circle", [0, 1, 2, 3], [0, 2, 1, 3])
    rep = spectral_invariants(sublevel_barcode(f), "Sublevel", 1)
    assert rep.c_minus == min(f.values)
    assert rep.c_plus == max(f.values)
    assert rep.gamma == max(f.values) - min(f.values)


def test_spectral_ignores_finite_bars():
    b = B(
        (-1, Interval(NEG_INF, 1)),
        (0, Interval(NEG_INF, 3)),
        (0, Interval(2, 5)),
        (-1, Interval(0, 7)),
    )
    rep = spectral_invariants(b, "LeftInfinite", 1)
    assert rep.invariants == ((-1, ExtRat(1)), (0, ExtRat(3)))


def test_spectral_dim_zero_reuses_lower_bar():
    b = B((-1, Interval(NEG_INF, 4)))
    rep = spectral_invariants(b, "LeftInfinite", 0)
    assert (rep.c_minus, rep.c_plus, rep.gamma) == (4, 4, 0)


def test_spectral_missing_essential_raises():
    b = B((0, Interval(NEG_INF, 1)))
    with pytest.raises(ValueError, match="lower spectral number"):
        spectral_invariants(b, "LeftInfinite", 1)


def test_spectral_duplicated_essential_raises():
    b = B((-1, Interval(NEG_INF, 1)), (-1, Interval(NEG_INF, 2)), (0, Interval(NEG_INF, 3)))
    with pytest.raises(ValueError, match="found 2"):
        spectral_invariants(b, "LeftInfinite", 1)


def test_spectral_numbers_must_be_finite():
    b = B((-1, Interval(NEG_INF, POS_INF)))
    with pytest.raises(ValueError, match="^spectral numbers must be finite$"):
        spectral_invariants(b, "LeftInfinite", 0)


def test_spectral_unknown_convention():
    with pytest.raises(ValueError, match="unknown convention"):
        spectral_invariants(Barcode(), "RightInfinite", 1)


def test_spectral_order_violation():
    b = B((-1, Interval(NEG_INF, 2)), (0, Interval(NEG_INF, 1)))
    with pytest.raises(ValueError, match="exceeds"):
        spectral_invariants(b, "LeftInfinite", 1)


# --- convention conversion ---------------------------------------------------


def test_left_infinite_form_example():
    f = PLFunction("circle", [0, 1, 2, 3], [0, 2, 1, 3])
    assert left_infinite_form(sublevel_barcode(f)) == B(
        (-1, Interval(NEG_INF, 0)), (0, Interval(1, 2)), (0, Interval(NEG_INF, 3))
    )


def test_left_infinite_form_consistent_with_sublevel_reading(rng):
    for _ in range(20):
        f = rand_plf(rng, "circle")
        direct = spectral_invariants(sublevel_barcode(f), "Sublevel", 1)
        converted = spectral_invariants(
            left_infinite_form(sublevel_barcode(f)), "LeftInfinite", 1
        )
        assert (direct.c_minus, direct.c_plus) == (converted.c_minus, converted.c_plus)
