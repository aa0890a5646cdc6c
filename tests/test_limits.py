"""Towers: colimits with error bounds, defect inequalities, Cauchy completion."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from persimod import Barcode, Interval, gamma
from persimod.fields import GF2, QQ, PrimeField, RationalField
from persimod.canonical import DiagonalizationError, _solve_reverse, diagonalize_system
from persimod.interleaving import DistanceReport
from persimod.intervals import NEG_INF, POS_INF, ExtRat
from persimod.limits import (
    CompletionError,
    InductiveSystem,
    ToleranceError,
    complete_cauchy,
    defect_check,
    hocolim,
)
from persimod.morphisms import InterleavingCertificate, Morphism, compose, identity, tau_morphism
from oracles import (
    complete_cauchy_oracle,
    defect_check_oracle,
    diagonalize_system_oracle,
    equals_tau,
    hocolim_oracle,
    inductive_system_refusal_oracle,
    morphism_shift_oracle,
    solve_reverse_oracle,
    tower_readings_oracle,
)
from conftest import perfbench_gen, tampered
from test_canonical import _find_sorted_positions, _random_automorphism


def B(*bars):
    return Barcode(bars)


def geometric_tower(n_lo=2, n_hi=7, with_reverses=True):
    """Stages [0, 1-2^-n) with canonical maps and slack 2^-(n+1)."""
    stages = [B((0, Interval(0, 1 - Fraction(1, 2**n)))) for n in range(n_lo, n_hi)]
    maps, revs, slacks = [], [], []
    for k in range(len(stages) - 1):
        n = n_lo + k
        eps = Fraction(1, 2 ** (n + 1))
        maps.append(Morphism(stages[k], stages[k + 1], {(0, 0): 1}, field=GF2))
        revs.append(Morphism(stages[k + 1], stages[k].shift(eps), {(0, 0): 1}, field=GF2))
        slacks.append(eps)
    return InductiveSystem(stages, maps, slacks, revs if with_reverses else None)


# --- system validation ---------------------------------------------------------


def test_system_validates_connectivity():
    a, b = B((0, Interval(0, 1))), B((0, Interval(0, 2)))
    with pytest.raises(ValueError, match="connect"):
        InductiveSystem([a, b], [identity(a)], [0])


def test_system_validates_round_trip():
    bc = B((0, Interval(0, 1)))
    bad = Morphism(bc, bc.shift(Fraction(1, 4)), {}, field=GF2)
    with pytest.raises(ValueError, match="round trip"):
        InductiveSystem([bc, bc], [identity(bc)], [Fraction(1, 4)], [bad])


def test_system_refuses_a_wrongly_shifted_reverse_target():
    bc = B((0, Interval(0, 1)))
    off = Morphism(bc, bc.shift(Fraction(1, 4) - Fraction(1, 997)), {}, field=GF2)
    with pytest.raises(ValueError, match="^reverse map 0 does not match the slack-1/4 shift$"):
        InductiveSystem([bc, bc], [identity(bc)], [Fraction(1, 4)], [off])


def test_system_refuses_a_mixed_field_reverse_by_the_field_check():
    bc = B((0, Interval(0, 1)))
    g = tau_morphism(bc, Fraction(1, 4), field=PrimeField(5))
    with pytest.raises(ValueError, match="^mixed scalar fields in reverse maps$"):
        InductiveSystem([bc, bc], [identity(bc)], [Fraction(1, 4)], [g])


@pytest.mark.parametrize("fld", [GF2, PrimeField(5), QQ], ids=["GF2", "GF5", "QQ"])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), how=st.sampled_from(["planted", "changed", "dropped", "added", "slack"]))
def test_system_refuses_like_the_compose_oracle(fld, seed, how):
    """A planted graded tower is accepted; with one forward or reverse map
    tampered, or one slack halved, it is accepted or refused with the same
    message as when each round trip is composed on translated barcodes and
    compared by `equals_tau`."""
    rng = random.Random(seed)
    stages, fwd, rev, slacks = graded_tower(rng, fld, rng.randint(2, 4))
    n = rng.randrange(len(fwd))
    if how == "slack":
        slacks[n] /= 2
    elif how != "planted":
        maps = rng.choice((fwd, rev))
        maps[n] = tampered(rng, maps[n], how)
    want = inductive_system_refusal_oracle(stages, fwd, slacks, rev, fld)
    try:
        InductiveSystem(stages, fwd, slacks, rev, fld)
        got = None
    except ValueError as err:
        got = str(err)
    assert got == want
    if how == "planted":
        assert got is None


@pytest.mark.parametrize("case, message", [
    ("maps", "need exactly one forward map per consecutive stage pair"),
    ("slacks", "need one slack and one (possibly absent) reverse map per step"),
    ("reverses", "need one slack and one (possibly absent) reverse map per step"),
    ("fields", "mixed scalar fields in forward maps"),
])
def test_system_refuses_a_malformed_tower(case, message):
    bc = B((0, Interval(0, 1)))
    stages, maps, slacks, reverses = [bc] * 3, [identity(bc)] * 2, [0, 0], None
    if case == "maps":
        maps = maps[:1]
    elif case == "slacks":
        slacks = slacks[:1]
    elif case == "reverses":
        reverses = [None]
    else:
        maps = [identity(bc, GF2), identity(bc, PrimeField(5))]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        InductiveSystem(stages, maps, slacks, reverses)


def test_system_rejects_negative_slack():
    bc = B((0, Interval(0, 1)))
    with pytest.raises(ValueError, match="negative"):
        InductiveSystem([bc, bc], [identity(bc)], [-1])


def test_with_reverses_synthesizes():
    sys0 = geometric_tower(with_reverses=False)
    assert sys0.reverses == (None,) * len(sys0.maps)
    sys1 = sys0.with_reverses()
    for g in sys1.reverses:
        assert g is not None


def test_with_reverses_failure_names_stage():
    # forward map kills the bar, so no reverse can realize the round trip
    src, tgt = B((0, Interval(0, 1))), B((0, Interval(4, 5)))
    f = Morphism(src, tgt, {}, field=GF2)
    system = InductiveSystem([src, tgt], [f], [Fraction(1, 4)])
    with pytest.raises(ValueError, match="stage 0"):
        system.with_reverses()


# --- hocolim ---------------------------------------------------------------------


def test_hocolim_constant_system():
    bc = B((0, Interval(0, 1)), (1, Interval(2, 5)))
    system = InductiveSystem([bc] * 4, [identity(bc)] * 3, [0] * 3,
                             [tau_morphism(bc, 0, field=GF2)] * 3)
    out = hocolim(system)
    assert out.barcode == bc
    assert out.error_bound == ExtRat(0)


def test_hocolim_single_stage():
    bc = B((0, Interval(0, 3)))
    out = hocolim(InductiveSystem([bc], [], []))
    assert out.barcode == bc
    assert out.error_bound == ExtRat(0)


def test_hocolim_geometric_tower():
    n_hi = 7
    out = hocolim(geometric_tower(2, n_hi))
    assert out.barcode == B((0, Interval(0, 1 - Fraction(1, 2 ** (n_hi - 1)))))
    # twice the geometric tail of the last defect: 2^-(N-2) for stage count N
    assert out.error_bound == ExtRat(Fraction(1, 2 ** (n_hi - 3)))
    (chain,) = out.chains
    assert chain.alive


def test_hocolim_dying_bar_excluded():
    # the short bar clears the stage-0 resolution but not the coarser stage-1
    # one (slacks are allowed to grow), so its chain dies entering stage 1
    stage = B((0, Interval(0, 4)), (0, Interval(0, Fraction(3, 8))))
    s2 = B((0, Interval(0, 4)))
    eps0, eps1 = Fraction(1, 8), Fraction(1, 2)
    f0 = identity(stage)
    g0 = tau_morphism(stage, eps0, field=GF2)
    f1 = Morphism(stage, s2, {(0, 1): 1}, field=GF2)
    g1 = Morphism(s2, stage.shift(eps1), {(1, 0): 1}, field=GF2)
    out = hocolim(InductiveSystem([stage, stage, s2], [f0, f1], [eps0, eps1], [g0, g1]))
    assert out.barcode == s2
    dead = [c for c in out.chains if not c.alive]
    assert len(dead) == 1
    assert dead[0].birth == 0


def test_hocolim_admits_fresh_final_bars():
    s0 = B((0, Interval(0, 4)))
    s1 = B((0, Interval(0, 4)), (0, Interval(10, 14)))
    eps = Fraction(1, 4)
    f = Morphism(s0, s1, {(0, 0): 1}, field=GF2)
    g = Morphism(s1, s0.shift(eps), {(0, 0): 1}, field=GF2)
    out = hocolim(InductiveSystem([s0, s1], [f], [eps], [g]))
    assert out.barcode == s1
    births = sorted(c.birth for c in out.chains)
    assert births == [0, 1]


def test_hocolim_approximates_late_stages():
    system = geometric_tower(2, 7)
    out = hocolim(system)
    n_steps = len(system.maps)
    for n in range(n_steps + 1):
        eps_n = sum(system.slacks[n:], Fraction(0))
        bound = ExtRat(eps_n) + out.error_bound
        assert gamma(out.barcode, system.stages[n]).value <= bound


# --- defect check ----------------------------------------------------------------


def test_defect_constant_system():
    bc = B((0, Interval(0, 1)))
    system = InductiveSystem([bc] * 3, [identity(bc)] * 2, [0] * 2,
                             [tau_morphism(bc, 0, field=GF2)] * 2)
    assert defect_check(system, 0) == (ExtRat(0), ExtRat(0), True)


def test_defect_geometric_tower_all_stages():
    system = geometric_tower(2, 7)
    for n in range(len(system.stages)):
        lhs, rhs, ok = defect_check(system, n)
        assert ok
        assert lhs <= rhs
    # frozen values at the tower head: the composite [0,3/4) -> [0,63/64) leaves
    # a cone bar of length 63/64 - 3/4, against twice the per-stage cone gaps
    lhs, rhs, _ = defect_check(system, 0)
    assert lhs == ExtRat(Fraction(63, 64) - Fraction(3, 4))
    assert rhs == ExtRat(2 * sum(Fraction(1, 2**k) for k in range(3, 7)))


def test_defect_index_validation():
    system = geometric_tower(2, 5)
    with pytest.raises(ValueError):
        defect_check(system, -1)
    with pytest.raises(ValueError):
        defect_check(system, 99)


def test_defect_single_stage():
    bc = B((0, Interval(0, 2)))
    nxt = B((0, Interval(0, 2)))
    system = InductiveSystem([bc, nxt], [identity(bc)], [0],
                             [tau_morphism(bc, 0, field=GF2)])
    lhs, rhs, ok = defect_check(system, 0)
    assert ok and lhs == rhs == ExtRat(0)


# --- graded towers against the per-degree split -----------------------------------


def graded_tower(rng, fld, n_stages, degrees=(0, 1, 2), march=False):
    """Planted tower over several degrees.  Each step drifts the bars that
    outlive its slack right by at most the slack, drops the rest and adds
    short newcomers in random degrees; a random automorphism rebases the
    final stage.  With `march`, every slack is 1/4, every kept bar drifts
    by exactly the slack, and every bar is at most 5/4 long, so over six
    steps a chain reaches a final bar that starts after its first bar
    ends: their composite generator vanishes."""
    den = 4
    bars = []
    for _ in range(rng.randint(2, 6)):
        lo = Fraction(rng.randint(0, 40), den)
        bars.append((rng.choice(degrees), Interval(lo, lo + Fraction(rng.randint(3, 5) if march else rng.randint(1, 40), den))))
    stages = [Barcode(bars)]
    fwd, rev, slacks = [], [], []
    for _ in range(n_stages - 1):
        src, eps = stages[-1], Fraction(1 if march else rng.randint(1, 4), den)
        kept, tgt_bars = [], []
        for i, bar in enumerate(src):
            if bar.interval.length > eps:
                a, b = bar.interval.lo.as_fraction(), bar.interval.hi.as_fraction()
                a2 = a + (eps if march else Fraction(rng.randint(0, int(eps * den)), den))
                b2 = b + (eps if march else Fraction(rng.randint(0, int(eps * den)), den))
                kept.append(i)
                tgt_bars.append((bar.degree, Interval(a2, b2)))
        for _ in range(rng.randint(0, 3)):
            lo = Fraction(rng.randint(0, 60), den)
            tgt_bars.append((rng.choice(degrees), Interval(lo, lo + Fraction(rng.randint(1, 2) if march else rng.randint(1, 8), den))))
        tgt = Barcode(tgt_bars)
        planted = _find_sorted_positions(tgt, tgt_bars[: len(kept)])
        fwd.append(Morphism(src, tgt, {(planted[k], i): 1 for k, i in enumerate(kept)}, fld))
        rev.append(Morphism(tgt, src.shift(eps), {(i, planted[k]): 1 for k, i in enumerate(kept)}, fld))
        stages.append(tgt)
        slacks.append(eps)
    psi, psi_inv = _random_automorphism(stages[-1], rng, fld)
    fwd[-1] = compose(fwd[-1], psi)
    rev[-1] = compose(psi_inv, rev[-1])
    return stages, fwd, rev, slacks


@pytest.mark.parametrize("fld", [GF2, PrimeField(5), QQ], ids=["GF2", "GF5", "QQ"])
def test_graded_towers_match_the_per_degree_split(fld):
    rng = random.Random(0x6AADED)
    graded = vanishing = 0
    for k in range(16):
        march = k >= 12
        stages, fwd, rev, slacks = graded_tower(rng, fld, 7 if march else rng.randint(2, 6), march=march)
        graded += any(len(st.degrees()) > 1 for st in stages)
        for reverses in (rev, None):
            system = InductiveSystem(stages, fwd, slacks, reverses, fld)
            out, want = hocolim(system), hocolim_oracle(system)
            assert (out.barcode, out.error_bound, out.chains) == (
                want.barcode, want.error_bound, want.chains
            )
            for n in range(len(stages)):
                assert defect_check(system, n) == defect_check_oracle(system, n)
            # chains whose composite generator vanishes: the final bar starts
            # at or after the end of the chain's first bar
            vanishing += sum(
                ch.alive and stages[-1].bars[ch.indices[-1]].interval.lo >= stages[ch.birth].bars[ch.indices[0]].interval.hi
                for ch in out.chains
            )
    assert graded >= 6 and vanishing >= 8


def test_tower_results_build_no_morphism_after_diagonalization(monkeypatch):
    import persimod.limits as limits
    import persimod.morphisms as morphisms

    fld = PrimeField(5)
    stages, fwd, rev, slacks = graded_tower(random.Random(5), fld, 7, march=True)
    # a Morphism is built by its validating constructor or by `_trusted`
    built = []
    init, trusted = Morphism.__init__, morphisms._trusted
    monkeypatch.setattr(Morphism, "__init__", lambda self, *a: built.append(self) or init(self, *a))
    monkeypatch.setattr(morphisms, "_trusted", lambda *a: built.append(a) or trusted(*a))
    for reverses in (rev, None):
        system = InductiveSystem(stages, fwd, slacks, reverses, fld)
        built.clear()
        limits.diagonalize_system(system)
        diagonalized = len(built)
        assert diagonalized > 0
        built.clear()
        hocolim(system)
        assert len(built) == diagonalized
        for n in range(len(fwd)):
            built.clear()
            defect_check(system, n)
            assert len(built) == diagonalized


# --- tower readings against the shifted-phi rebase and the built cones ------------


class _MenuQ(RationalField):
    """Q with a finite menu of scalars, from which `planted_tower`'s basis
    moves draw; it equals QQ."""

    __slots__ = ()

    def elements(self):
        return [Fraction(k, 2) for k in range(-4, 5)]


GEN = perfbench_gen()
TOWER_FIELDS = pytest.mark.parametrize("fld", [GF2, PrimeField(5), QQ], ids=["GF2", "GF5", "QQ"])


def _tower(kind, rng, fld, rebase):
    """A planted or graded tower; with `rebase`, a random change of basis at
    every middle stage, so that every step needs its own phi."""
    if kind == "planted":
        stages, fwd, rev, slacks = GEN.planted_tower(rng, _MenuQ() if fld == QQ else fld, rng.randint(1, 10), rng.randint(2, 6))
    else:
        stages, fwd, rev, slacks = graded_tower(rng, fld, 7 if kind == "march" else rng.randint(2, 6), march=kind == "march")
    for k in range(1, len(stages) - 1 if rebase else 1):
        psi, psi_inv = _random_automorphism(stages[k], rng, fld)
        fwd[k - 1], fwd[k] = compose(fwd[k - 1], psi), compose(psi_inv, fwd[k])
        rev[k - 1], rev[k] = compose(psi_inv, rev[k - 1]), compose(rev[k], morphism_shift_oracle(psi, slacks[k]))
    return stages, fwd, rev, slacks


@TOWER_FIELDS
@seed(20261023)
@settings(max_examples=60, deadline=None)
@given(
    rseed=st.integers(0, 2**32),
    kind=st.sampled_from(["graded", "march", "planted"]),
    rebase=st.booleans(),
    given_rev=st.booleans(),
)
def test_tower_readings_match_the_shifted_rebase_and_the_built_cones(fld, rseed, kind, rebase, given_rev):
    stages, fwd, rev, slacks = _tower(kind, random.Random(rseed), fld, rebase)
    system = InductiveSystem(stages, fwd, slacks, rev if given_rev else None, fld)
    got, want = diagonalize_system(system), diagonalize_system_oracle(system)
    assert len(got) == len(want) == len(fwd)
    for g, w in zip(got, want):
        assert (g.stage, g.live, g.result.sigma) == (w.stage, w.live, w.result.sigma)
        for name in ("phi", "phi_inverse", "diagonalized"):
            a, b = getattr(g.result, name), getattr(w.result, name)
            assert (a.source.bars, a.target.bars, a.entries) == (b.source.bars, b.target.bars, b.entries)
    res, triples = tower_readings_oracle(system)
    out = hocolim(system)
    assert (out.barcode, out.error_bound, out.chains) == (res.barcode, res.error_bound, res.chains)
    assert [defect_check(system, n) for n in range(len(stages))] == triples


@TOWER_FIELDS
def test_a_reverse_map_replaced_after_construction_is_refused(fld):
    stages, fwd, rev, slacks = graded_tower(random.Random(11), fld, 5)
    checked = 0
    for k, eps in enumerate(slacks):
        if not any(bar.interval.length > 2 * eps for bar in stages[k].bars):
            continue  # no live bar: an empty round trip is the comparison
        checked += 1
        off_shift = Morphism(stages[k + 1], stages[k].shift(eps + Fraction(1, 997)), {}, fld)
        no_round_trip = Morphism(stages[k + 1], stages[k].shift(eps), {}, fld)
        for bad, message in ((off_shift, "v must map"), (no_round_trip, "round trip")):
            system = InductiveSystem(stages, fwd, slacks, rev, fld)
            object.__setattr__(system, "reverses", system.reverses[:k] + (bad,) + system.reverses[k + 1:])
            for read in (diagonalize_system, hocolim, lambda system: defect_check(system, 0)):
                with pytest.raises(DiagonalizationError, match=f"^stage {k}: {message}"):
                    read(system)
    assert checked >= 3


# --- reverse synthesis against the global solve ----------------------------------


def _reverse_problems(seed, fld, degrees):
    """(f, eps, solvable) for both steps of a 3-stage planted tower -- the
    second rebased by an automorphism -- and for variants that cannot be
    solved (step 0 with a forward entry dropped) or may not be (a quarter
    of the slack, so drifted bars may not fit)."""
    rng = random.Random(seed)
    stages, fwd, rev, slacks = graded_tower(rng, fld, 3, degrees)
    out = [(f, eps, True) for f, eps in zip(fwd, slacks)]
    out += [(f, eps / 4, None) for f, eps in zip(fwd, slacks)]
    if fwd[0].entries:
        cell = rng.choice(sorted(fwd[0].entries))
        kept = {c: v for c, v in fwd[0].entries.items() if c != cell}
        out.append((Morphism(fwd[0].source, fwd[0].target, kept, fld), slacks[0], False))
    return out


@pytest.mark.parametrize("fld", [GF2, PrimeField(5), QQ], ids=["GF2", "GF5", "QQ"])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), degrees=st.sampled_from([(0,), (0, 1, 2)]))
def test_reverse_synthesis_matches_the_global_solve(fld, seed, degrees):
    for f, eps, solvable in _reverse_problems(seed, fld, degrees):
        got, want = _solve_reverse(f, eps, fld), solve_reverse_oracle(f, eps, fld)
        if solvable is not None:
            assert (got is not None) == solvable
        assert got == want
        if got is not None:
            assert list(got.entries.items()) == list(want.entries.items())
            assert equals_tau(compose(f, got), eps)


def test_reverse_synthesis_hands_over_one_small_system_per_bar(monkeypatch):
    import persimod.canonical as canonical

    shapes = []
    solve_rows = canonical._solve_rows

    def recording(rows, cols, fld):
        shapes.append((len(rows), len(cols)))
        return solve_rows(rows, cols, fld)

    monkeypatch.setattr(canonical, "_solve_rows", recording)
    rng = random.Random(0x5B10C)
    for fld in (GF2, PrimeField(5), QQ):
        for _ in range(6):
            stages, fwd, _, slacks = graded_tower(rng, fld, 5)
            for f, eps in zip(fwd, slacks):
                before = len(shapes)
                assert _solve_reverse(f, eps, fld) is not None
                assert len(shapes) - before <= len(f.source)
                for rows, cols in shapes[before:]:
                    assert 0 < rows <= len(f.source) and cols <= len(f.target)
    assert shapes


# --- Cauchy completion -----------------------------------------------------------


def completion_tower(n_hi=9):
    return [B((0, Interval(Fraction(1, 2**n), 1))) for n in range(1, n_hi)]


def test_complete_constant_sequence():
    bc = B((0, Interval(0, 3)), (1, Interval(1, 2)))
    result = complete_cauchy([bc] * 5, Fraction(0))
    assert result.barcode == bc
    assert result.final_gamma.value == ExtRat(0)


def test_complete_geometric_endpoints_exactly():
    result = complete_cauchy(completion_tower(), Fraction(1, 4))
    assert result.barcode == B((0, Interval(0, 1)))
    assert result.start == 0
    assert result.final_gamma.value == ExtRat(Fraction(1, 2**8))


def test_complete_drops_distant_head():
    head = B((0, Interval(0, 20)))
    seq = [head] + completion_tower()
    result = complete_cauchy(seq, Fraction(1, 4))
    assert result.start == 1
    assert result.barcode == B((0, Interval(0, 1)))


def test_complete_respects_tolerance():
    with pytest.raises(ToleranceError):
        complete_cauchy(completion_tower(), Fraction(1, 1000))


def test_complete_suffix_uniqueness():
    seq = completion_tower()
    a = complete_cauchy(seq, Fraction(1, 4))
    b = complete_cauchy(seq[1:], Fraction(1, 4))
    assert gamma(a.barcode, b.barcode).value == ExtRat(0)
    assert a.barcode == b.barcode  # distance zero on finite barcodes: equal


def test_complete_empty_sequence():
    with pytest.raises(CompletionError):
        complete_cauchy([], Fraction(1))


def test_complete_certificates_cover_steps():
    result = complete_cauchy(completion_tower(6), Fraction(1, 2))
    # one certificate mapping per consecutive pair after the start index
    assert len(result.certificates) == 4
    for certs in result.certificates:
        assert 0 in certs


def test_complete_refuses_a_sequence_with_no_cauchy_suffix():
    # the last stage alone has no step to bound; a suffix of two or more
    # stages must hold one
    seq = [B((0, Interval(0, hi))) for hi in (1, 100, 1, 100)]
    with pytest.raises(CompletionError, match="^no suffix has consecutive distances bounded by 1, 1/2, 1/4, ...$"):
        complete_cauchy(seq, 1000)
    single = complete_cauchy(seq[-1:], 0)
    assert (single.barcode, single.start, single.certificates) == (seq[-1], 0, ())


def test_complete_builds_no_tower(monkeypatch):
    import persimod.limits as limits

    calls = []
    for name in ("diagonalize_system", "InductiveSystem", "hocolim"):
        real = getattr(limits, name)
        monkeypatch.setattr(limits, name, lambda *a, _real=real, _name=name, **k: calls.append(_name) or _real(*a, **k))
    seq = [B((0, Interval(Fraction(1, 2**n), 1)), (1, Interval(2, POS_INF))) for n in range(1, 7)]
    result = complete_cauchy(seq, Fraction(1, 4))
    assert result.barcode == B((0, Interval(0, 1)), (1, Interval(2, POS_INF)))
    assert calls == []


def test_complete_refuses_a_certificate_that_is_not_a_unit_matching(monkeypatch):
    import persimod.limits as limits

    fld = PrimeField(5)
    real = limits.gamma

    def scaled(F, G, *, field):
        # u doubled and v tripled: still a verified interleaving over GF(5)
        rep = real(F, G, field=field)
        c = rep.certificate
        if c is None or not c.u.entries:
            return rep
        u = Morphism(c.u.source, c.u.target, {k: 2 for k in c.u.entries}, fld)
        v = Morphism(c.v.source, c.v.target, {k: 3 for k in c.v.entries}, fld)
        return DistanceReport(rep.value, InterleavingCertificate(c.a, c.b, u, v))

    monkeypatch.setattr(limits, "gamma", scaled)
    with pytest.raises(CompletionError, match="not a matching with unit entries"):
        complete_cauchy(completion_tower(4), 1, field=fld)


def cauchy_like_sequence(rng):
    """1-7 stages of 1-5 bars in degrees {0, 1, 2}: finite, left- and
    right-infinite bars whose finite ends move by at most 2^-(j+2) at step
    j, bars that halve at every step until they vanish, short newborns, and
    now and then a long newcomer or a distant head, which can leave only
    the last stage Cauchy."""
    bars = []
    for _ in range(rng.randint(1, 5)):
        lo = Fraction(rng.randint(0, 40), 4)
        hi = lo + Fraction(rng.randint(1, 40), 4)
        kind = rng.choice(["finite", "finite", "dying", "right", "left"])
        if kind == "right":
            hi = POS_INF
        elif kind == "left":
            lo = NEG_INF
        bars.append((rng.choice((0, 1, 2)), lo, hi, kind == "dying"))
    seq = []
    for j in range(rng.randint(1, 7)):
        seq.append(Barcode([(d, Interval(lo, hi)) for d, lo, hi, _ in bars if lo < hi]))
        step = Fraction(1, 2 ** (j + 2))
        moved = []
        for d, lo, hi, dying in bars:
            if dying:
                hi = lo + (hi - lo) / 2 if hi - lo > step else lo
            else:
                lo += rng.randint(-1, 1) * step if lo != NEG_INF else 0
                hi += rng.randint(-1, 1) * step if hi != POS_INF else 0
            moved.append((d, lo, hi, dying))
        bars = moved
        if rng.random() < 0.3:
            lo = Fraction(rng.randint(0, 40), 4)
            bars.append((rng.choice((0, 1, 2)), lo, lo + step, False))
        if rng.random() < 0.1:
            bars.append((0, Fraction(0), Fraction(50), False))
    if rng.random() < 0.3:
        seq.insert(0, B((rng.choice((0, 1)), Interval(0, 100))))
    return seq


@seed(2025)
@settings(max_examples=150, deadline=None)
@given(rseed=st.integers(0, 2**32))
def test_completion_matches_the_synthetic_tower(rseed):
    """Following each step certificate's matching gives what the re-anchored
    tower and its colimit give: start, indices, barcode, final distance and
    certificates.  Where only the last stage of two or more is Cauchy, the
    completion refuses instead."""
    seq = cauchy_like_sequence(random.Random(rseed))
    want = complete_cauchy_oracle(seq)
    if len(seq) > 1 and want.start == len(seq) - 1:
        with pytest.raises(CompletionError, match="no suffix"):
            complete_cauchy(seq, 10**9)
        return
    got = complete_cauchy(seq, 10**9)
    assert (got.barcode, got.start, got.indices, got.final_gamma.value) == (
        want.barcode, want.start, want.indices, want.final_gamma.value
    )

    def shifts(result):
        return [sorted((d, c.a, c.b, sorted(c.u.entries.items())) for d, c in certs.items()) for certs in result.certificates]

    assert shifts(got) == shifts(want)
