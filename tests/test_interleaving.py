"""The interleaving pseudo-distance: decision procedure, optimization, witnesses."""

import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import persimod.interleaving as interleaving
from persimod import Barcode, Interval, check_interleaving, gamma, gamma_symmetric
from persimod.limits import gamma_to_zero
from persimod.fields import GF2, PrimeField
from persimod.intervals import ExtRat, POS_INF, NEG_INF
from persimod.interleaving import DistanceReport, InterleavingCertificate
from persimod.matching import matching_covering
from persimod.morphisms import Morphism, identity, tau_morphism
from conftest import rand_barcode
from oracles import interleaved_oracle


def B(*bars):
    return Barcode(bars)


def certificate_found(result):
    return result is not None


# --- check_interleaving frozen cases ------------------------------------------


def test_identity_interleaving():
    bc = B((0, Interval(0, 10)), (0, Interval(2, 3)))
    cert = check_interleaving(bc, bc, 0, 0)
    assert certificate_found(cert)
    assert cert.total == 0


def test_one_sided_shift_feasible():
    F, G = B((0, Interval(0, 10))), B((0, Interval(1, 10)))
    cert = check_interleaving(F, G, 0, 1)
    assert certificate_found(cert)
    assert (cert.a, cert.b) == (0, 1)


def test_half_shift_infeasible():
    F, G = B((0, Interval(0, 10))), B((0, Interval(1, 10)))
    assert check_interleaving(F, G, 0, Fraction(1, 2)) is None


def test_negative_shift_rejected():
    F = B((0, Interval(0, 1)))
    with pytest.raises(ValueError):
        check_interleaving(F, F, -1, 0)


def test_certificate_construction_reverifies():
    F, G = B((0, Interval(0, 10))), B((0, Interval(1, 10)))
    u = Morphism(F, G, {(0, 0): 1}, field=GF2)
    v = Morphism(G, F.shift(1), {(0, 0): 1}, field=GF2)
    cert = InterleavingCertificate(Fraction(0), Fraction(1), u, v)
    assert cert.total == 1
    bad_v = Morphism(G, F.shift(1), {}, field=GF2)
    with pytest.raises(ValueError):
        InterleavingCertificate(Fraction(0), Fraction(1), u, bad_v)


@pytest.mark.parametrize("a, fld, message", [
    (-1, GF2, "interleaving shifts must be nonnegative"),
    (0, PrimeField(5), "certificate maps use different scalar fields"),
])
def test_certificate_refuses_a_negative_shift_and_mixed_fields(a, fld, message):
    F, G = B((0, Interval(0, 10))), B((0, Interval(1, 10)))
    u = Morphism(F, G, {(0, 0): 1}, field=GF2)
    v = Morphism(G, F.shift(1), {(0, 0): 1}, field=fld)
    with pytest.raises(ValueError, match=f"^{message}$"):
        InterleavingCertificate(a, 1, u, v)


# --- gamma frozen cases --------------------------------------------------------


def test_gamma_self_is_zero(rng):
    for _ in range(10):
        bc = rand_barcode(rng, rng.randint(0, 5))
        rep = gamma(bc, bc)
        assert rep.value == ExtRat(0)
        assert rep.is_exact


def test_gamma_to_empty_is_max_length():
    assert gamma(Barcode(), B((0, Interval(0, 2)))).value == ExtRat(2)
    assert gamma(B((0, Interval(0, 2))), Barcode()).value == ExtRat(2)


def test_gamma_unit_shift():
    rep = gamma(B((0, Interval(0, 10))), B((0, Interval(1, 10))))
    assert rep.value == ExtRat(1)
    assert rep.is_exact
    assert rep.certificate is not None
    assert rep.certificate.total == 1


def test_gamma_symmetric_unit_shift():
    rep = gamma_symmetric(B((0, Interval(0, 10))), B((0, Interval(1, 10))))
    assert rep.value == ExtRat(2)
    assert rep.certificate.a == rep.certificate.b == 1


def test_gamma_two_sided_binding_regression():
    # u needs a >= 10 and v needs b >= 6 independently; the optimal value 16
    # is not itself an endpoint difference.  Cross-checked by brute force.
    F, G = B((0, Interval(10, 94))), B((0, Interval(0, 100)))
    rep = gamma(F, G)
    assert rep.value == ExtRat(16)
    assert (rep.certificate.a, rep.certificate.b) == (10, 6)
    assert gamma_symmetric(F, G).value == ExtRat(20)


def test_gamma_infinite_bars():
    F = B((0, Interval(0, POS_INF)))
    G = B((0, Interval(1, POS_INF)))
    assert gamma(F, G).value == ExtRat(1)
    mismatched = B((0, Interval(1, POS_INF)), (0, Interval(2, POS_INF)))
    assert gamma(F, mismatched).value == POS_INF
    left = B((0, Interval(NEG_INF, 0)))
    assert gamma(F, left).value == POS_INF


@pytest.mark.parametrize("F, G", [
    (B((0, Interval(0, POS_INF)), (0, Interval(1, 3))), B((1, Interval(0, POS_INF)), (0, Interval(1, 3)))),
    (B((0, Interval(NEG_INF, 2))), B((0, Interval(0, POS_INF)))),
    (B((0, Interval(NEG_INF, POS_INF)), (1, Interval(0, 1))), B((0, Interval(0, POS_INF)), (1, Interval(0, 1)))),
    (B((0, Interval(0, POS_INF)), (0, Interval(0, POS_INF)), (1, Interval(0, 1))), B((0, Interval(0, POS_INF)), (1, Interval(0, 1)))),
], ids=["same-bar-other-degree", "left-vs-right", "two-sided-vs-one-sided", "two-copies-vs-one"])
def test_infinite_mismatch_is_infinite_before_any_probe(monkeypatch, F, G):
    calls = []

    def counting(*args):
        calls.append(args)
        return matching_covering(*args)

    monkeypatch.setattr(interleaving, "matching_covering", counting)
    for fn in (gamma, gamma_symmetric):
        for left, right in ((F, G), (G, F)):
            report = fn(left, right)
            assert (report.value, report.certificate) == (POS_INF, None)
    assert calls == []
    # the wrapper is the one the search calls: a matched pair probes through it
    assert gamma(F, F).value == ExtRat(0) and calls


def test_gamma_symmetric_runs_one_covering_matching_at_the_optimum(monkeypatch):
    # Probes only decide; the covering matching is built once per answer,
    # for the certificate at the optimal (c, c).  One degree per pair, so
    # the certificate's matching is one call, and its required left
    # vertices are the view's classes of F longer than the optimal 2c.
    # Some pairs repeat bars, so classes and bars differ.
    calls = []

    def counting(*args):
        calls.append(args)
        return matching_covering(*args)

    monkeypatch.setattr(interleaving, "matching_covering", counting)
    rng = random.Random(5)
    for den in (4, 997):
        for n in (1, 4, 12, 32):
            F, G = rand_barcode(rng, n, den=den), rand_barcode(rng, n, den=den)
            for left, right in ((F, G), (G, F), (F, F), (Barcode(F.bars + F.bars[: n // 2 + 1]), G)):
                calls.clear()
                cert = gamma_symmetric(left, right).certificate
                assert len(calls) == 1
                view = interleaving._IntView(left, right, unit=2)
                f_len = view.degrees[0][0][3]
                assert sorted(calls[0][3]) == [i for i, ln in enumerate(f_len) if ln > cert.total * view.scale]


def test_gamma_graded_is_per_degree_max():
    F = B((0, Interval(0, 10)), (1, Interval(0, 4)))
    G = B((0, Interval(1, 10)), (1, Interval(0, 4)))
    assert gamma(F, G).value == ExtRat(1)


def test_gamma_graded_needs_one_pair_for_all_degrees():
    # Each degree alone reaches 3/2, degree 0 only at (3/2, 0) and degree 1
    # only at (0, 3/2); no single (a, b) with a+b = 3/2 serves both, so the
    # distance is 2, not the per-degree max.
    F = B((0, Interval(Fraction(5, 2), Fraction(9, 2))), (1, Interval(Fraction(1, 2), 1)))
    G = B((0, Interval(Fraction(3, 2), 3)), (1, Interval(Fraction(1, 2), Fraction(5, 2))))
    rep = gamma(F, G)
    assert rep.value == ExtRat(2)
    assert (rep.certificate.a, rep.certificate.b) == (0, 2)
    again = InterleavingCertificate(rep.certificate.a, rep.certificate.b, rep.certificate.u, rep.certificate.v)
    assert again.total == 2


# --- metric properties ----------------------------------------------------------


def test_metric_properties(rng):
    for _ in range(30):
        F = rand_barcode(rng, rng.randint(0, 4))
        G = rand_barcode(rng, rng.randint(0, 4))
        H = rand_barcode(rng, rng.randint(0, 4))
        fg, gf = gamma(F, G), gamma(G, F)
        assert fg.value == gf.value
        t = Fraction(rng.randint(-8, 8), 2)
        assert gamma(F.shift(t), G.shift(t)).value == fg.value
        gh, fh = gamma(G, H), gamma(F, H)
        assert fh.value <= fg.value + gh.value
        assert gamma(Barcode(), F).value == gamma_to_zero(F)


def test_asymmetric_vs_symmetric_bracket(rng):
    for _ in range(20):
        F = rand_barcode(rng, rng.randint(0, 4))
        G = rand_barcode(rng, rng.randint(0, 4))
        g = gamma(F, G).value
        gs = gamma_symmetric(F, G).value
        assert g <= gs
        if g.is_finite:
            assert gs <= 2 * g
        else:
            assert gs == g


# --- agreement with the exhaustive oracle ---------------------------------------


def test_decision_agrees_with_exhaustive_oracle(rng):
    for _ in range(30):
        F = rand_barcode(rng, rng.randint(1, 3), lo_range=(0, 4), den=2, max_len=4)
        G = rand_barcode(rng, rng.randint(1, 3), lo_range=(0, 4), den=2, max_len=4)
        a = Fraction(rng.randint(0, 6), 2)
        b = Fraction(rng.randint(0, 6), 2)
        cert = check_interleaving(F, G, a, b)
        assert certificate_found(cert) == interleaved_oracle(F, G, a, b)


def test_gamma_matches_bruteforce_refinement(rng):
    # design assumption behind the grid search: the optimum is found even when
    # scanning a refinement strictly finer than the endpoint-difference grid;
    # on graded pairs one (a, b) must serve every degree
    for degrees, n_bars in [((0,), 2)] * 8 + [((0, 1), 3)] * 24:
        F = rand_barcode(rng, n_bars, degrees=degrees, lo_range=(0, 4), den=2, max_len=4)
        G = rand_barcode(rng, n_bars, degrees=degrees, lo_range=(0, 4), den=2, max_len=4)
        val = gamma(F, G).value
        best = None
        for an in range(0, 33):
            a = Fraction(an, 4)
            if best is not None and ExtRat(a) >= best:
                break
            for bn in range(0, 33):
                b = Fraction(bn, 4)
                if best is not None and ExtRat(a + b) >= best:
                    break
                if interleaved_oracle(F, G, a, b):
                    best = ExtRat(a + b)
        assert best == val


def test_gamma_zero_iff_equal(rng):
    for _ in range(20):
        F = rand_barcode(rng, rng.randint(0, 4))
        if rng.random() < 0.5:
            G = Barcode(list(F))
        else:
            G = rand_barcode(rng, rng.randint(0, 4))
        assert (gamma(F, G).value == ExtRat(0)) == (F == G)


# --- matching ------------------------------------------------------------------


def test_matching_merge_check_survives_python_O():
    # The merge's coverage check must raise, not assert: -O strips asserts.
    # Saturating matchings that cover nothing make the merge lose vertex 0.
    code = (
        "import persimod.matching as m\n"
        "m._saturating = lambda order, adj, required, caps: {}\n"
        "try:\n"
        "    m.matching_covering(1, 1, [[0]], [0], [0])\n"
        "except RuntimeError as err:\n"
        "    print(err)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "internal error: required left vertex lost in the merge\n"


def test_matching_covering_on_a_long_augmenting_chain():
    # Left i < n-1 takes right i greedily; the last left vertex reaches only
    # right 0, so its augmenting path shifts every earlier vertex one step
    # along: a path of length n, beyond Python's default recursion limit.
    n = 2000
    adj = [[i, i + 1] for i in range(n - 1)] + [[0]]
    got = matching_covering(n, n, adj, range(n), range(n))
    assert got == {**{i: i + 1 for i in range(n - 1)}, n - 1: 0}


def test_identical_bars_decide_within_budget():
    # 1,600 copies of one bar: one class, so only the certificate is per
    # copy.  Matched per copy, the greedy search augments along paths of
    # every length up to n.
    F = B(*[(0, Interval(0, 10))] * 1600)
    start = time.process_time()
    cert = check_interleaving(F, F, 0, 0)
    elapsed = time.process_time() - start
    assert cert is not None and cert.total == 0
    assert elapsed < 15, f"check_interleaving took {elapsed:.1f} s"


def test_repeated_bars_pair_copies_in_index_order():
    F = B(*[(0, Interval(0, 10))] * 3, (0, Interval(1, 4)), *[(1, Interval(2, POS_INF))] * 2)
    cert = check_interleaving(F, F, 0, 0)
    assert cert.u.entries == cert.v.entries == {(i, i): 1 for i in range(6)}


def test_ten_thousand_identical_bars_decide_within_budget():
    # One class of 10,000 copies: the decision pushes them all along one
    # path.
    F = B(*[(0, Interval(0, 10))] * 10_000)
    start = time.process_time()
    cert = check_interleaving(F, F, 0, 0)
    elapsed = time.process_time() - start
    assert cert is not None and cert.total == 0
    assert elapsed < 2, f"check_interleaving took {elapsed:.1f} s"


def test_gamma_on_repeated_bars_within_budget():
    # 1,600 copies of [0, 1) against 1,600 of [1/3, 4/3): each probe matches
    # one class against one, and each verified "yes" expands 1,600 pairs.
    k = 1600
    F, G = B(*[(0, Interval(0, 1))] * k), B(*[(0, Interval(Fraction(1, 3), Fraction(4, 3)))] * k)
    start = time.process_time()
    report = gamma(F, G)
    elapsed = time.process_time() - start
    assert report.value == ExtRat(Fraction(1, 3))
    cert = report.certificate
    assert cert.total == Fraction(1, 3) and len(cert.u.entries) == len(cert.v.entries) == k
    InterleavingCertificate(cert.a, cert.b, cert.u, cert.v)
    assert elapsed < 1, f"gamma took {elapsed:.1f} s"


def test_certificate_check_survives_python_O():
    # The verifier must raise, not assert: -O strips asserts.  One entry of
    # a real certificate's u is changed (GF(3)) or dropped (GF(2)).
    code = (
        "from persimod import Barcode, Interval, check_interleaving\n"
        "from persimod.fields import GF2, PrimeField\n"
        "from persimod.interleaving import InterleavingCertificate\n"
        "from persimod.morphisms import Morphism\n"
        "F = Barcode([(0, Interval(0, 4)), (0, Interval(2, 7))])\n"
        "G = Barcode([(0, Interval(1, 5)), (0, Interval(2, 8))])\n"
        "for field, value in ((PrimeField(3), 2), (GF2, 0)):\n"
        "    cert = check_interleaving(F, G, 1, 1, field=field)\n"
        "    u = cert.u\n"
        "    key = min(u.entries)\n"
        "    bad = Morphism(u.source, u.target, {**u.entries, key: value}, field)\n"
        "    try:\n"
        "        InterleavingCertificate(cert.a, cert.b, bad, cert.v)\n"
        "    except ValueError as err:\n"
        "        print(err)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["round trip through G is not the canonical comparison"] * 2


def test_certificate_refuses_mistranslated_targets_under_python_O():
    # The round trips are compared against the shifts the certificate builds
    # itself, so a map into a wrongly shifted barcode must be refused by the
    # translation checks, asserts stripped or not.  Each map keeps its
    # entries and lands 1/997 off: u above the a-shift of G, v below the
    # b-shift of F.
    code = (
        "from fractions import Fraction\n"
        "from persimod import Barcode, Interval, check_interleaving\n"
        "from persimod.interleaving import InterleavingCertificate\n"
        "from persimod.morphisms import _trusted\n"
        "F = Barcode([(0, Interval(0, 4)), (0, Interval(2, 7))])\n"
        "G = Barcode([(0, Interval(1, 5)), (0, Interval(2, 8))])\n"
        "cert = check_interleaving(F, G, 1, 1)\n"
        "u, v, nudge = cert.u, cert.v, Fraction(1, 997)\n"
        "bad_u = _trusted(F, G.shift(cert.a + nudge), dict(u.entries), u.field)\n"
        "bad_v = _trusted(G, F.shift(cert.b - nudge), dict(v.entries), v.field)\n"
        "for maps in ((bad_u, v), (u, bad_v)):\n"
        "    try:\n"
        "        InterleavingCertificate(cert.a, cert.b, *maps)\n"
        "    except ValueError as err:\n"
        "        print(err)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["u must land in the a-shift of G", "v must land in the b-shift of F"]
