"""Diagonalization of half-interleaved morphisms and of whole towers."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persimod import Barcode, Interval
from persimod.canonical import (
    CanonicalFormResult,
    DiagonalizationError,
    StageDiagonalization,
    canonical_form,
    diagonalize_system,
)
from persimod.fields import GF2, QQ, PrimeField
from persimod import morphisms
from persimod.intervals import ExtRat, hom, leq, DEG0
from persimod.limits import InductiveSystem
from persimod.morphisms import Morphism, _cell_allowed, compose, identity, tau_morphism
from conftest import perfbench_gen
from oracles import canonical_form_tracked_oracle, direct_sum, field_elements, merge_barcodes

GF5 = PrimeField(5)


def B(*bars):
    return Barcode(bars)


def test_identity_instance():
    g = B((0, Interval(0, 10)))
    res = canonical_form(identity(g), tau_morphism(g, 1, field=GF2), 1)
    assert res.phi == identity(g)
    assert res.sigma == {0: 0}
    assert res.diagonalized == identity(g)


def test_rescaling_instance_over_gf5():
    g = B((0, Interval(0, 10)))
    gp = B((0, Interval(0, 10)), (0, Interval(5, 6)))
    u = Morphism(g, gp, {(0, 0): 2}, field=GF5)
    v = Morphism(gp, g.shift(1), {(0, 0): 3}, field=GF5)  # 3 = 2^-1 mod 5
    res = canonical_form(u, v, 1)
    assert res.sigma == {0: 0}
    assert res.diagonalized.entries == {(0, 0): 1}
    assert res.phi.entries.get((0, 0), GF5.zero) == 3
    assert compose(res.phi, res.phi_inverse) == identity(gp, field=GF5)


def test_unit_mixing_is_undone():
    g = B((0, Interval(0, 10)), (0, Interval(1, 11)))
    u = Morphism(g, g, {(0, 0): 1, (1, 1): 1, (1, 0): 1}, field=GF2)
    v = Morphism(g, g.shift(1), {(0, 0): 1, (1, 1): 1, (1, 0): 1}, field=GF2)
    res = canonical_form(u, v, 1)
    assert res.sigma == {0: 0, 1: 1}
    assert res.diagonalized.entries == {(0, 0): 1, (1, 1): 1}
    assert compose(u, res.phi) == res.diagonalized


def test_idempotent_on_diagonal_input():
    g = B((0, Interval(0, 10)), (0, Interval(2, 12)))
    gp = B((0, Interval(0, 10)), (0, Interval(2, 12)), (0, Interval(4, 5)))
    u = Morphism(g, gp, {(0, 0): 1, (1, 1): 1}, field=GF2)
    v = Morphism(gp, g.shift(1), {(0, 0): 1, (1, 1): 1}, field=GF2)
    res = canonical_form(u, v, 1)
    assert res.phi == identity(gp)
    assert res.sigma == {0: 0, 1: 1}


def test_obstructed_instance_raises():
    # Both target bars are forced (neither hom between them is realized, so
    # every automorphism of the target is diagonal) yet u hits both: no
    # change of basis can make this diagonal.
    g = B((0, Interval(0, 10)))
    gp = B((0, Interval(Fraction(1, 2), 25)), (0, Interval(1, Fraction(21, 2))))
    u = Morphism(g, gp, {(0, 0): 1, (1, 0): 1}, field=GF2)
    v = Morphism(gp, g.shift(1), {(0, 1): 1}, field=GF2)
    assert hom(gp[0].interval, gp[1].interval) is not DEG0
    assert hom(gp[1].interval, gp[0].interval) is not DEG0
    with pytest.raises(DiagonalizationError):
        canonical_form(u, v, 1)


def test_precondition_errors():
    g = B((0, Interval(0, 10)))
    short = B((0, Interval(0, Fraction(1, 2))))
    with pytest.raises(DiagonalizationError, match="not longer"):
        canonical_form(identity(short), tau_morphism(short, 1, field=GF2), 1)
    bad_v = Morphism(g, g.shift(1), {}, field=GF2)
    with pytest.raises(DiagonalizationError, match="round trip"):
        canonical_form(identity(g), bad_v, 1)
    # v's target is not the 1-shift of g: one bar too many, shifted by
    # 1 + 1/997, or the right interval in the wrong degree
    for wrong in (g.shift(1).bars * 2, g.shift(1 + Fraction(1, 997)).bars, [(1, Interval(1, 11))]):
        with pytest.raises(DiagonalizationError, match="^v must map the target of u back to the shifted source$"):
            canonical_form(identity(g), Morphism(g, Barcode(wrong), {}, field=GF2), 1)


def test_diagonalize_system_refuses_a_wrongly_shifted_reverse_target():
    # diagonalize_system takes a tower, whose constructor refuses the step
    bc = B((0, Interval(0, 1)))
    eps = Fraction(1, 4)
    v_off = Morphism(bc, bc.shift(eps + Fraction(1, 997)), {}, field=GF2)
    with pytest.raises(ValueError, match="^reverse map 0 does not match the slack-1/4 shift$"):
        diagonalize_system(InductiveSystem([bc, bc], [identity(bc)], [eps], [v_off]))


# --- random planted instances ------------------------------------------------


def _find_sorted_positions(tgt, wanted):
    """Sorted position of each bar in `wanted`, consuming duplicates left to
    right."""
    from persimod.barcodes import Bar

    out, used = [], set()
    for deg, iv in wanted:
        want = Bar(deg, iv)
        for t in range(len(tgt)):
            if t not in used and tgt[t] == want:
                out.append(t)
                used.add(t)
                break
    return out


def _random_automorphism(bc, rng, fld):
    """Random order-respecting automorphism of bc (with its inverse) as a
    product of elementary transvections between comparable bars of one
    degree."""
    psi = identity(bc, field=fld)
    psi_inv = identity(bc, field=fld)
    cells = [
        (t, s)
        for t in range(len(bc))
        for s in range(len(bc))
        if s != t
        and bc[s].degree == bc[t].degree
        and bc[s].key() < bc[t].key()
        and hom(bc[s].interval, bc[t].interval) is DEG0
    ]
    try:
        nz = [x for x in field_elements(fld) if x != fld.zero]
    except NotImplementedError:
        nz = [Fraction(k) for k in (1, 2, 3, -1)]
    for _ in range(rng.randint(0, 2 * len(cells))):
        t, s = rng.choice(cells) if cells else (None, None)
        if t is None:
            break
        lam = rng.choice(nz)
        e_fwd = Morphism(bc, bc, {(i, i): 1 for i in range(len(bc))} | {(t, s): lam}, field=fld)
        e_bwd = Morphism(bc, bc, {(i, i): 1 for i in range(len(bc))} | {(t, s): fld.neg(lam)}, field=fld)
        psi = compose(psi, e_fwd)
        psi_inv = compose(e_bwd, psi_inv)
    return psi, psi_inv


def _planted_instance(rng, fld, n_bars, eps):
    """Random valid (u, v, eps): diagonal embedding conjugated by a random
    order-respecting unit-triangular automorphism of the target."""
    den = 4
    src_bars = []
    for _ in range(n_bars):
        lo = Fraction(rng.randint(0, 40), den)
        ln = eps + Fraction(rng.randint(1, 32), den)
        src_bars.append((0, Interval(lo, lo + ln)))
    src = Barcode(src_bars)
    tgt_bars = []
    for bar in src:
        a, b = bar.interval.lo.as_fraction(), bar.interval.hi.as_fraction()
        a2 = a + Fraction(rng.randint(0, int(eps * den)), den)
        b2 = b + Fraction(rng.randint(0, int(eps * den)), den)
        tgt_bars.append((0, Interval(a2, b2)))
    for _ in range(rng.randint(0, 2)):
        lo = Fraction(rng.randint(0, 60), den)
        tgt_bars.append((0, Interval(lo, lo + Fraction(rng.randint(1, 8), den))))
    tgt = Barcode(tgt_bars)
    planted = _find_sorted_positions(tgt, tgt_bars[: len(src)])
    u0 = Morphism(src, tgt, {(planted[i], i): 1 for i in range(len(src))}, field=fld)
    v0 = Morphism(tgt, src.shift(eps), {(i, planted[i]): 1 for i in range(len(src))}, field=fld)
    psi, psi_inv = _random_automorphism(tgt, rng, fld)
    return src, tgt, compose(u0, psi), compose(psi_inv, v0)


def _plant_from(src, rng, fld, eps):
    """One tower step out of `src`: bars outliving eps drift right by at
    most eps, the rest drop, and a few short newcomers appear.  u-then-v
    equals the slack-eps comparison on src by construction."""
    den = 4
    kept, tgt_bars = [], []
    for i, bar in enumerate(src):
        a, b = bar.interval.lo.as_fraction(), bar.interval.hi.as_fraction()
        if not (bar.interval.length > eps):
            continue
        a2 = a + Fraction(rng.randint(0, int(eps * den)), den)
        b2 = b + Fraction(rng.randint(0, int(eps * den)), den)
        kept.append(i)
        tgt_bars.append((bar.degree, Interval(a2, b2)))
    n_kept = len(kept)
    for _ in range(rng.randint(0, 2)):
        lo = Fraction(rng.randint(0, 60), den)
        tgt_bars.append((0, Interval(lo, lo + Fraction(rng.randint(1, 8), den))))
    tgt = Barcode(tgt_bars)
    planted = _find_sorted_positions(tgt, tgt_bars[:n_kept])
    u = Morphism(src, tgt, {(planted[k], i): 1 for k, i in enumerate(kept)}, field=fld)
    v = Morphism(
        tgt, src.shift(eps), {(i, planted[k]): 1 for k, i in enumerate(kept)}, field=fld
    )
    return tgt, u, v


def test_random_planted_instances_postconditions(rng):
    for trial in range(60):
        fld = rng.choice([GF2, GF5])
        eps = Fraction(rng.randint(1, 8), 4)
        src, tgt, u, v = _planted_instance(rng, fld, rng.randint(1, 6), eps)
        res = canonical_form(u, v, eps)
        # diagonal shape with unit entries
        assert res.diagonalized.entries == {(res.sigma[i], i): fld.one for i in res.sigma}
        assert res.diagonalized == compose(u, res.phi)
        # sigma injective and order-respecting
        assert len(set(res.sigma.values())) == len(res.sigma) == len(src)
        for i, t in res.sigma.items():
            assert leq(src[i].interval, tgt[t].interval)
            a, b = src[i].interval.lo, src[i].interval.hi
            a2, b2 = tgt[t].interval.lo, tgt[t].interval.hi
            assert a <= a2 <= a + eps
            assert b <= b2 <= b + eps
        # phi really is an automorphism
        assert compose(res.phi, res.phi_inverse) == identity(tgt, field=fld)
        assert compose(res.phi_inverse, res.phi) == identity(tgt, field=fld)


def _regraded(m, deg):
    """m with every bar of its source and target moved to degree deg."""
    def move(bc):
        return Barcode([(deg, bar.interval) for bar in bc])
    return Morphism(move(m.source), move(m.target), m.entries, field=m.field)


def test_graded_instance_is_the_direct_sum_of_its_degrees(rng):
    for trial in range(30):
        fld = rng.choice([GF2, GF5])
        eps = Fraction(rng.randint(1, 8), 4)
        parts = []
        for deg in (0, 1):
            _, _, u, v = _planted_instance(rng, fld, rng.randint(1, 5), eps)
            parts.append((_regraded(u, deg), _regraded(v, deg)))
        u = direct_sum([p[0] for p in parts])
        v = direct_sum([p[1] for p in parts])
        assert u.source.degrees() == [0, 1]
        res = canonical_form(u, v, eps)
        per_degree = [canonical_form(ud, vd, eps) for ud, vd in parts]
        _, src_idx = merge_barcodes([ud.source for ud, _ in parts])
        _, tgt_idx = merge_barcodes([ud.target for ud, _ in parts])
        assert res.sigma == {
            src_idx[d][i]: tgt_idx[d][t] for d, r in enumerate(per_degree) for i, t in r.sigma.items()
        }
        assert res.phi == direct_sum([r.phi for r in per_degree])
        assert res.phi_inverse == direct_sum([r.phi_inverse for r in per_degree])
        assert res.diagonalized == direct_sum([r.diagonalized for r in per_degree])


# --- differential check against the tracked-matrix elimination ----------------


def _outcome(diagonalize, u, v, eps):
    try:
        res = diagonalize(u, v, eps)
    except DiagonalizationError as err:
        return str(err)
    return res.phi.entries, res.phi_inverse.entries, res.diagonalized.entries, dict(res.sigma)


def _obstructed():
    g = B((0, Interval(0, 10)))
    gp = B((0, Interval(Fraction(1, 2), 25)), (0, Interval(1, Fraction(21, 2))))
    return Morphism(g, gp, {(0, 0): 1, (1, 0): 1}, field=GF2), Morphism(gp, g.shift(1), {(0, 1): 1}, field=GF2), 1


def _precondition_cases():
    g = B((0, Interval(0, 10)))
    short = B((0, Interval(0, Fraction(1, 2))))
    tau = tau_morphism(g, 1, field=GF2)
    return [
        (identity(short), tau_morphism(short, 1, field=GF2), 1),
        (identity(g), Morphism(g, g.shift(1), {}, field=GF2), 1),
        (identity(g), tau, -1),
        (identity(g), tau, 2),
        (identity(g, field=GF5), tau, 1),
    ]


def _tied_instance(rng, fld, eps):
    """Each source bar drifts into 1-3 identical target copies, all hit by u,
    so the pivot is picked among several equal least rows."""
    try:
        nz = [x for x in field_elements(fld) if x != fld.zero]
    except NotImplementedError:
        nz = [Fraction(k) for k in (1, 2, 3, -1)]
    src_bars, wanted, copies = [], [], []
    for _ in range(rng.randint(1, 4)):
        lo = Fraction(rng.randint(0, 40), 4)
        hi = lo + eps + Fraction(rng.randint(1, 32), 4)
        src_bars.append((0, Interval(lo, hi)))
        drifted = (0, Interval(lo + Fraction(rng.randint(0, int(eps * 4)), 4), hi + Fraction(rng.randint(0, int(eps * 4)), 4)))
        copies.append(rng.randint(1, 3))
        wanted += [drifted] * copies[-1]
    src, tgt = Barcode(src_bars), Barcode(wanted)
    pos = iter(_find_sorted_positions(tgt, wanted))
    rows = {i: [next(pos) for _ in range(c)] for i, c in zip(_find_sorted_positions(src, src_bars), copies)}
    u_ent = {(t, i): rng.choice(nz) for i, ts in rows.items() for t in ts}
    v_ent = {(i, ts[0]): fld.inv(fld.canon(u_ent[(ts[0], i)])) for i, ts in rows.items()}
    return Morphism(src, tgt, u_ent, field=fld), Morphism(tgt, src.shift(eps), v_ent, field=fld)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_row_dicts_match_tracked_elimination(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    fld = data.draw(st.sampled_from([GF2, GF5, QQ]))
    eps = Fraction(data.draw(st.integers(1, 8)), 4)
    kind = data.draw(st.sampled_from(["planted", "graded", "tied", "perturbed", "obstructed", "precondition"]))
    if kind == "graded":
        parts = [
            [_regraded(m, deg) for m in _planted_instance(rng, fld, rng.randint(1, 5), eps)[2:]]
            for deg in (0, 1)
        ]
        u, v = direct_sum([p[0] for p in parts]), direct_sum([p[1] for p in parts])
    elif kind == "tied":
        u, v = _tied_instance(rng, fld, eps)
    elif kind == "obstructed":
        u, v, eps = _obstructed()
    elif kind == "precondition":
        u, v, eps = data.draw(st.sampled_from(_precondition_cases()))
    else:
        _, tgt, u, v = _planted_instance(rng, fld, rng.randint(1, 7), eps)
        if kind == "perturbed":
            # one allowed cell of u or v bumped: usually breaks the round trip
            m = data.draw(st.sampled_from((u, v)))
            t, s = rng.randrange(len(m.target)), rng.randrange(len(m.source))
            if _cell_allowed(m.source[s], m.target[t]):
                bumped = fld.add(m.entries.get((t, s), fld.zero), fld.one)
                m2 = Morphism(m.source, m.target, {**m.entries, (t, s): bumped}, field=fld)
                u, v = (m2, v) if m is u else (u, m2)
    assert _outcome(canonical_form, u, v, eps) == _outcome(canonical_form_tracked_oracle, u, v, eps)


# --- towers -------------------------------------------------------------------


def _geometric_tower(n_lo=2, n_hi=7):
    stages, fwd, rev, slacks = [], [], [], []
    for n in range(n_lo, n_hi):
        stages.append(B((0, Interval(0, 1 - Fraction(1, 2**n)))))
    for k, n in enumerate(range(n_lo, n_hi - 1)):
        eps = Fraction(1, 2 ** (n + 1))
        fwd.append(Morphism(stages[k], stages[k + 1], {(0, 0): 1}, field=GF2))
        rev.append(Morphism(stages[k + 1], stages[k].shift(eps), {(0, 0): 1}, field=GF2))
        slacks.append(eps)
    return InductiveSystem(stages, fwd, slacks, rev)


def test_constant_system():
    bc = B((0, Interval(0, 1)))
    system = InductiveSystem([bc] * 4, [identity(bc)] * 3, [0, 0, 0], [tau_morphism(bc, 0, field=GF2)] * 3)
    out = diagonalize_system(system)
    assert [st.result.sigma for st in out] == [{0: 0}] * 3
    assert all(st.live == (0,) for st in out)


def test_geometric_tower_sigma_identity():
    system = _geometric_tower()
    out = diagonalize_system(system)
    for st in out:
        assert st.result.sigma == {0: 0}
        src_hi = system.stages[st.stage][0].interval.hi
        tgt_hi = system.stages[st.stage + 1][0].interval.hi
        assert src_hi < tgt_hi  # endpoints strictly increase along the tower


def test_dying_short_bar_excluded():
    # the 3/10 bar outlives the slack 1/5, so the round trip keeps it, but
    # it is not longer than 2*eps and takes no part in the stage
    f0 = B((0, Interval(0, Fraction(3, 10))), (0, Interval(0, 1)))
    eps = Fraction(1, 5)
    out = diagonalize_system(InductiveSystem([f0, f0], [identity(f0)], [eps], [tau_morphism(f0, eps, field=GF2)]))
    assert out[0].live == (1,)
    assert out[0].result.sigma == {0: 1}


def test_row_filter_drops_a_phantom_cell_that_would_change_phi():
    # Clearing column 0 (pivot row 1, [7/2, 23/2)) adds row 1 into row 2,
    # and so reaches cell (2, 1): bar [19/2, 33/2) starts after source bar
    # [2, 9) ends, so the composite is zero there and the row filter drops
    # the sum.  Kept, the cell would put row 2 into column 1's support, and
    # clearing it would add row 0 into row 2 of phi: another basis, which
    # the checks would pass, but not the tracked elimination's.
    GF3 = PrimeField(3)
    G = B((0, Interval(Fraction(3, 2), Fraction(23, 2))), (0, Interval(2, 9)), (0, Interval(Fraction(19, 2), 15)))
    Gp = B((0, Interval(Fraction(5, 2), 11)), (0, Interval(Fraction(7, 2), Fraction(23, 2))),
           (0, Interval(Fraction(19, 2), Fraction(33, 2))))
    u = Morphism(G, Gp, {(0, 1): 1, (1, 0): 1, (1, 1): 1, (2, 0): 2, (2, 2): 1}, field=GF3)
    v = Morphism(Gp, G.shift(2), {(0, 0): 2, (0, 1): 1, (1, 0): 1, (2, 2): 1}, field=GF3)
    (stage,) = diagonalize_system(InductiveSystem([G, Gp], [u], [2], [v], GF3))
    got = stage.result
    assert got == canonical_form(u, v, 2) == canonical_form_tracked_oracle(u, v, 2)
    assert got.phi.entries == {(0, 0): 1, (1, 0): 2, (1, 1): 1, (2, 1): 1, (2, 2): 1}
    assert got.sigma == {0: 1, 1: 0, 2: 2}


def test_failed_postcondition_raises(monkeypatch):
    # A wrong identity makes the tracked-inverse check fail; it must raise
    # DiagonalizationError rather than rely on assert, which -O strips.
    import persimod.canonical as canonical

    g = B((0, Interval(0, 10)))
    monkeypatch.setattr(canonical, "identity", lambda b, field: Morphism(b, b, {}, field))
    with pytest.raises(DiagonalizationError, match="postcondition failed: tracked inverse"):
        canonical_form(identity(g), tau_morphism(g, 1, field=GF2), 1)


def test_stage_error_reports_stage(monkeypatch):
    # A valid tower whose second stage fails a postcondition: the error
    # names the stage.
    import persimod.canonical as canonical

    system = _geometric_tower(n_hi=5)
    calls = []

    def identity_failing_at_stage_1(b, field):
        calls.append(b)
        return identity(b, field) if len(calls) == 1 else Morphism(b, b, {}, field)

    monkeypatch.setattr(canonical, "identity", identity_failing_at_stage_1)
    with pytest.raises(DiagonalizationError) as exc:
        diagonalize_system(system)
    assert exc.value.stage == 1
    assert str(exc.value).startswith("stage 1: postcondition failed: tracked inverse")


@pytest.mark.parametrize("faulty, message", [
    (1, "tracked matrix drifted from the recomputed composite"),
    (2, "tracked inverse fails on the left"),
    (3, "tracked inverse fails on the right"),
])
def test_each_composite_check_raises(monkeypatch, faulty, message):
    # The result is the composite of u and phi, checked against the tracked
    # matrix; a wrong composite must fail that check, not pass as the result.
    import persimod.canonical as canonical

    calls = []

    def compose_wrong_at_call(f, g):
        calls.append(f)
        out = compose(f, g)
        return Morphism(out.source, out.target, {}, out.field) if len(calls) == faulty else out

    monkeypatch.setattr(canonical, "compose", compose_wrong_at_call)
    g = B((0, Interval(0, 10)))
    with pytest.raises(DiagonalizationError, match=f"^postcondition failed: {message}$"):
        canonical_form(identity(g), tau_morphism(g, 1, field=GF2), 1)


def test_an_unscaled_pivot_fails_the_diagonal_check(monkeypatch):
    # With no row scaled, phi, its inverse and the composite stay
    # consistent, but the pivot keeps its unit 2.
    import persimod.canonical as canonical

    monkeypatch.setattr(canonical, "_scale_row", lambda row, lam, field: None)
    g = B((0, Interval(0, 10)))
    u = Morphism(g, g, {(0, 0): 2}, field=GF5)
    v = Morphism(g, g.shift(1), {(0, 0): 3}, field=GF5)
    with pytest.raises(DiagonalizationError, match="^postcondition failed: result is not a 0/1 diagonal$"):
        canonical_form(u, v, 1)


def test_a_pivot_row_used_twice_fails_the_injectivity_check(monkeypatch):
    # Past a round-trip check that passes everything and a `used` set that
    # forgets its rows, two columns pivot on one row, and the result is a
    # 0/1 matrix that is no diagonal.
    import persimod.canonical as canonical

    class Forgetful(set):
        def __contains__(self, item):
            return False

    monkeypatch.setattr(canonical, "_is_round_trip", lambda f, g, c: True)
    monkeypatch.setattr(canonical, "set", Forgetful, raising=False)
    I = Interval(0, 10)
    g, gp = B((0, I), (0, I)), B((0, I))
    u = Morphism(g, gp, {(0, 0): 1, (0, 1): 1}, field=GF2)
    with pytest.raises(DiagonalizationError, match="^postcondition failed: two source bars share a target bar$"):
        canonical_form(u, Morphism(gp, g.shift(1), {}, field=GF2), 1)


def test_a_far_target_fails_the_drift_check(monkeypatch):
    import persimod.canonical as canonical

    monkeypatch.setattr(canonical, "_is_round_trip", lambda f, g, c: True)
    g, gp = B((0, Interval(0, 10))), B((0, Interval(5, 20)))
    u = Morphism(g, gp, {(0, 0): 1}, field=GF2)
    with pytest.raises(DiagonalizationError, match=r"^matched pair \[0,10\) -> \[5,20\) drifts by more than 1$"):
        canonical_form(u, Morphism(gp, g.shift(1), {}, field=GF2), 1)


def test_diagonalize_system_pins_its_checks(monkeypatch):
    # One whole-tower diagonalization of the towers workload's shape (30
    # bars, 8 stages, reverses given): validated Morphism builds, `hom`
    # calls of the entry check, and ExtRat comparisons, all of which come
    # from the pivot search.  20, 29 and 30 + 35 here; 27, 800 and 30 + 375
    # when the diagonal was validated a second time, every diagonal cell
    # of phi and its inverse went through `hom`, and a support of one row
    # went through `min` and the least-row filter.
    stages, fwd, rev, slacks = perfbench_gen().planted_tower(random.Random(31), GF5, 30, 8)
    system = InductiveSystem(stages, fwd, slacks, rev, GF5)
    counts = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(Morphism, "__init__", counted("Morphism", Morphism.__init__))
    monkeypatch.setattr(morphisms, "hom", counted("hom", morphisms.hom))
    monkeypatch.setattr(ExtRat, "__lt__", counted("ExtRat <", ExtRat.__lt__))
    monkeypatch.setattr(ExtRat, "__eq__", counted("ExtRat ==", ExtRat.__eq__))
    out = diagonalize_system(system)
    assert [len(st.result.sigma) for st in out] == [len(st.live) for st in out]
    assert counts == {"Morphism": 20, "hom": 29, "ExtRat <": 30, "ExtRat ==": 35}
