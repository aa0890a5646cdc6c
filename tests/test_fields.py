from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from persimod.canonical import _RHS, _solve_rows
from persimod.fields import GF2, QQ, PrimeField, _is_prime, field_by_name
from oracles import field_elements, is_prime_oracle, solve_linear

GF5 = PrimeField(5)


def test_prime_required():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_miller_rabin_matches_trial_division():
    assert all(_is_prime(n) == is_prime_oracle(n) for n in range(-2, 50_000))
    # the least strong pseudoprimes to the first 1..12 prime bases (OEIS A014233);
    # the last passes every base up to 37, so base 41 must catch it
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n)
    assert PrimeField(2**31 - 1).p == 2**31 - 1
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    with pytest.raises(ValueError, match="primality test"):
        PrimeField(2**89 - 1)


@pytest.mark.parametrize("fld", [GF2, GF5, PrimeField(7)])
def test_finite_field_axioms(fld):
    els = field_elements(fld)
    assert len(els) == fld.p
    for a in els:
        assert fld.add(a, fld.zero) == a
        assert fld.mul(a, fld.one) == a
        assert fld.add(a, fld.neg(a)) == fld.zero
        if a != fld.zero:
            assert fld.mul(a, fld.inv(a)) == fld.one
        for b in els:
            assert fld.add(a, b) == fld.add(b, a)
            assert fld.mul(a, b) == fld.mul(b, a)
            for c in els:
                assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))


def test_canon_reduces():
    assert GF5.canon(Fraction(7)) == 2
    assert GF5.canon(-1) == 4
    assert QQ.canon("3/4") == Fraction(3, 4)


def test_inv_zero():
    with pytest.raises(ZeroDivisionError):
        GF2.inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


rat = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@given(rat, rat, rat)
def test_rational_field_ops(a, b, c):
    assert QQ.add(a, b) == a + b
    assert QQ.mul(a, QQ.add(b, c)) == a * b + a * c


def test_field_by_name():
    assert field_by_name("2") == GF2
    assert field_by_name(5) == GF5
    assert field_by_name("q") is QQ
    assert field_by_name("rational") is QQ
    with pytest.raises(ValueError):
        field_by_name("4")


def solve_sparse(rows, rhs, fld):
    """`canonical._solve_rows` on a dense system A x = b, its solution as a
    dense list."""
    cols = range(len(rows[0]) if rows else 0)
    sparse = []
    for row, want in zip(rows, rhs):
        cells = {**{j: fld.canon(a) for j, a in zip(cols, row)}, _RHS: fld.canon(want)}
        sparse.append({k: v for k, v in cells.items() if v != fld.zero})
    sol = _solve_rows(sparse, cols, fld)
    return None if sol is None else [sol.get(j, fld.zero) for j in cols]


def test_solve_linear_known_system():
    # x + y = 1, y = 1 over GF(2) -> x = 0, y = 1
    sol = solve_sparse([[1, 1], [0, 1]], [1, 1], GF2)
    assert sol == [0, 1]


def test_solve_linear_inconsistent():
    assert solve_sparse([[1, 1], [1, 1]], [0, 1], GF2) is None


def test_solve_linear_underdetermined():
    sol = solve_sparse([[1, 1]], [1], GF5)
    assert sol is not None
    assert GF5.add(sol[0], sol[1]) == 1


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.integers(0, 4),
       st.integers(0, 4), st.integers(0, 4))
def test_solve_linear_matches_verification(a, b, c, d, r0, r1):
    rows = [[a, b], [c, d]]
    sol = solve_sparse(rows, [r0, r1], GF5)
    if sol is not None:
        for row, want in zip(rows, (r0, r1)):
            acc = GF5.zero
            for coef, x in zip(row, sol):
                acc = GF5.add(acc, GF5.mul(coef, x))
            assert acc == GF5.canon(want)
    else:
        # singular and genuinely inconsistent: brute force confirms
        found = any(
            all(
                GF5.canon(row[0] * x + row[1] * y) == GF5.canon(want)
                for row, want in zip(rows, (r0, r1))
            )
            for x in range(5)
            for y in range(5)
        )
        assert not found


@st.composite
def linear_systems(draw):
    """(rows, rhs, field): random rows over GF(2), GF(5) or Q, half the time
    with a right-hand side that some x solves, then copies of some rows
    (duplicates, and inconsistent ones with another right-hand side) and
    all-zero rows."""
    fld = draw(st.sampled_from((GF2, GF5, QQ)))
    scalar = st.integers(-2, 2) if fld is not QQ else st.fractions(-2, 2, max_denominator=3)
    n = draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(scalar, min_size=n, max_size=n), max_size=5))
    if draw(st.booleans()):  # consistent: b = A x for a drawn x
        x = draw(st.lists(scalar, min_size=n, max_size=n))
        rhs = [sum(a * v for a, v in zip(row, x)) for row in rows]
    else:
        rhs = [draw(scalar) for _ in rows]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("duplicate", "inconsistent", "zero")))
        if kind == "zero" or not rows:
            rows.append([0] * n)
            rhs.append(draw(scalar))
        else:
            k = draw(st.integers(0, len(rows) - 1))
            rows.append(list(rows[k]))
            rhs.append(rhs[k] + (1 if kind == "inconsistent" else 0))
    return rows, rhs, fld


@settings(max_examples=300, deadline=None)
@given(linear_systems())
def test_sparse_solve_matches_the_dense_oracle(system):
    rows, rhs, fld = system
    assert solve_sparse(rows, rhs, fld) == solve_linear(rows, rhs, fld)
