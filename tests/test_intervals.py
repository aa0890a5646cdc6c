"""Interval order and Hom-table tests, cross-checked against tests/oracles.py."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from persimod.intervals import (
    DEG0,
    DEG1,
    ZERO,
    ExtRat,
    Interval,
    NEG_INF,
    POS_INF,
    compose_generator,
    hom,
    leq,
    parse_rational,
)
from oracles import hom_ext_oracle, parse_rational_oracle

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=8)


def ivs(lo, ln):
    return Interval(lo, lo + ln)


# --- ExtRat -----------------------------------------------------------------


def test_extrat_total_order():
    assert NEG_INF < ExtRat(Fraction(-10**9)) < ExtRat(0) < POS_INF
    assert not (POS_INF < POS_INF)
    assert NEG_INF <= NEG_INF


@given(rationals, rationals)
def test_extrat_mirrors_fraction_arithmetic(x, y):
    assert ExtRat(x) + ExtRat(y) == ExtRat(x + y)
    assert ExtRat(x) - ExtRat(y) == ExtRat(x - y)
    assert (ExtRat(x) < ExtRat(y)) == (x < y)


def test_extrat_infinite_arithmetic():
    assert POS_INF + 5 == POS_INF
    assert NEG_INF + Fraction(1, 2) == NEG_INF
    assert -POS_INF == NEG_INF
    with pytest.raises(ArithmeticError):
        POS_INF + NEG_INF


@pytest.mark.parametrize("token", ["1e4301", "1E99999", "-2.5e+99999", "1e-99999", "1e" + "9" * 5000],
                         ids=["limit+1", "upper-case", "signed", "negative", "5000-digit"])
def test_parse_rational_refuses_an_exponent_over_the_digit_limit(token):
    with pytest.raises(ValueError, match="decimal exponent over the limit of 4300"):
        parse_rational(token)
    assert parse_rational("1e0000000000005") == 10**5
    assert parse_rational("2.5E-0003") == Fraction(1, 400)


@pytest.mark.parametrize("token", ["1e4300", "-1e4300", "1e-4300", "0." + "0" * 4299 + "1", "9" * 4300 + ".5"],
                         ids=["numerator", "negative", "denominator", "decimal denominator", "decimal numerator"])
def test_parse_rational_refuses_a_value_too_long_to_print(token):
    with pytest.raises(ValueError, match="value has over 4300 digits"):
        parse_rational(token)
    assert parse_rational("1e4299") == 10**4299
    assert parse_rational("1/" + "9" * 4300) == Fraction(1, 10**4300 - 1)


def _outcome(parse, token):
    try:
        value = parse(token)
    except Exception as err:
        return type(err), str(err)
    return type(value), value


# Fragments that make signs, leading zeros, missing terms, zero and signed
# denominators, underscores, non-ASCII digits, whitespace, decimals and
# exponents.
_FRAGMENTS = ["0", "00", "7", "42", "+", "-", "/", "_", ".", "e", "E", " ", "\t",
              "\u0662", "\uff17", "\u00b2", "\u0669\u0660"]
_SHAPED = ["/0", "1/", "/2", "-", "+", "", "1/-2", "1/+2", "+-5", "--1", "0/0", "-0", "+007/010",
           "1_000", "1/2_0", " 3", "3\n", "1 /2", "1.5", ".5", "5.", "1e3", "-2.5E-2", "1e", "e5",
           # decimal digits beyond ASCII, which int reads as Fraction's regex
           # does, and a superscript digit, which neither reads
           "\u0662/\uff17", "-\u0669\u0660", "+\uff17/\u0662\u0660", "\u00b2/3", "3/\u00b2", "-\u00b2"]


@st.composite
def _long_tokens(draw):
    """Digit runs at and around the interpreter's int/str digit limit."""
    limit = sys.get_int_max_str_digits()
    k = draw(st.integers(limit - 3, limit + 1))
    if draw(st.booleans()):  # a run in a token that Fraction reads
        return draw(st.sampled_from(
            ["9" * k + ".5", "1." + "0" * k, "-." + "9" * k, "1e" + "0" * k + "1", "1_" + "9" * k, "-" + "\u0662" * k]
        ))
    num = draw(st.sampled_from(["", "+", "-"])) + "9" * draw(st.integers(limit - 3, limit + 1))
    if draw(st.booleans()):
        return num
    return num[: draw(st.integers(1, limit))] + "/" + "7" * draw(st.integers(1, limit + 1))


@pytest.mark.parametrize("token", _SHAPED)
def test_parse_rational_matches_the_fraction_parser_on_edge_tokens(token):
    assert _outcome(parse_rational, token) == _outcome(parse_rational_oracle, token)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(st.sampled_from(_FRAGMENTS), min_size=1, max_size=6).map("".join),
    st.fractions().map(str),
    st.tuples(st.sampled_from(["", "+", "-"]), st.integers(0, 10 ** 30), st.integers(0, 10 ** 6))
    .map(lambda t: f"{t[0]}{t[1]:08d}/{t[2]}"),
    _long_tokens(),
))
def test_parse_rational_matches_the_fraction_parser(token):
    # the same value, or a refusal of the same type and text
    assert _outcome(parse_rational, token) == _outcome(parse_rational_oracle, token)


def test_parse_endpoint():
    assert ExtRat("3/4") == ExtRat(Fraction(3, 4))
    assert ExtRat("-inf") == NEG_INF
    assert ExtRat("inf") == POS_INF
    assert ExtRat("0.25") == ExtRat(Fraction(1, 4))


# --- Interval ---------------------------------------------------------------


def test_degenerate_interval_rejected():
    with pytest.raises(ValueError):
        Interval(3, 3)
    with pytest.raises(ValueError):
        Interval(5, 2)


def test_interval_length_and_shift():
    assert Interval(0, 2).length == ExtRat(2)
    assert Interval(NEG_INF, 3).length == POS_INF
    assert Interval(NEG_INF, 3).shift(1) == Interval(NEG_INF, 4)


# --- leq / hom frozen examples ----------------------------------------------


def test_leq_examples():
    assert leq(ivs(0, 2), ivs(1, 2))
    assert leq(ivs(0, 2), ivs(0, 2))
    assert not leq(Interval(1, 3), Interval(0, 4))


def test_hom_examples():
    assert hom(Interval(0, 2), Interval(1, 3)) is DEG0
    assert hom(Interval(1, 3), Interval(0, 2)) is DEG1
    assert hom(Interval(0, 1), Interval(2, 3)) is ZERO


def test_compose_generator_examples():
    assert compose_generator(Interval(0, 3), Interval(1, 4), Interval(2, 5)) is DEG0
    assert compose_generator(Interval(0, 2), Interval(1, 3), Interval(2, 4)) is ZERO
    assert compose_generator(Interval(0, 5), Interval(0, 5), Interval(0, 5)) is DEG0
    with pytest.raises(ValueError, match=r"^no degree-0 generator \[0,1\) -> \[2,3\)$"):
        compose_generator(Interval(0, 1), Interval(2, 3), Interval(2, 4))
    with pytest.raises(ValueError, match=r"^no degree-0 generator \[1,4\) -> \[5,6\)$"):
        compose_generator(Interval(0, 3), Interval(1, 4), Interval(5, 6))


# --- properties -------------------------------------------------------------

interval_st = st.builds(
    lambda lo, ln: Interval(lo, lo + ln),
    st.fractions(min_value=-8, max_value=8, max_denominator=4),
    st.fractions(min_value=Fraction(1, 4), max_value=8, max_denominator=4),
)


@given(interval_st, interval_st, interval_st)
def test_leq_partial_order(i, j, k):
    assert leq(i, i)
    if leq(i, j) and leq(j, i):
        assert i == j
    if leq(i, j) and leq(j, k):
        assert leq(i, k)


@given(interval_st, interval_st)
def test_hom_deg0_implies_leq_and_overlap(i, j):
    if hom(i, j) is DEG0:
        assert leq(i, j)
        assert max(i.lo, j.lo) < min(i.hi, j.hi)


@given(interval_st, interval_st)
def test_hom_agrees_with_stalk_oracle(i, j):
    dims = hom_ext_oracle(i, j)
    expected = {(1, 0): DEG0, (0, 1): DEG1, (0, 0): ZERO}[dims]
    assert hom(i, j) is expected


@given(interval_st, interval_st, interval_st)
def test_compose_generator_is_the_hom_of_its_ends(i, j, k):
    # the survival rule's one comparison against the full classifier
    if hom(i, j) is DEG0 and hom(j, k) is DEG0:
        assert compose_generator(i, j, k) is hom(i, k)


@given(interval_st, interval_st, interval_st, interval_st)
def test_generator_calculus_associative(i, j, k, l):
    # composing along a chain of four realizable generators lands on hom(i, l)
    if hom(i, j) is DEG0 and hom(j, k) is DEG0 and hom(k, l) is DEG0:
        left = compose_generator(i, j, k)
        if left is DEG0:
            assert compose_generator(i, k, l) is hom(i, l)
        right = compose_generator(j, k, l)
        if right is DEG0:
            assert compose_generator(i, j, l) is hom(i, l)
