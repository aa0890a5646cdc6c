"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` and builds its inputs through
persimod's public constructors only, so persimod never sees the seed.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from persimod.barcodes import Bar, Barcode
from persimod.intervals import DEG0, Interval, hom
from persimod.morphisms import Morphism, compose, identity


def rand_barcode(rng, n_bars, degrees=(0,), lo_range=(0, 10), den=4, max_len=10):
    """Random barcode with endpoints of denominator ``den``.

    The draw order (lo, length, degree) matches the test suite's helper, so
    ``rand_barcode(random.Random(2), 8, den=997)`` gives the pair behind
    the ROADMAP's n=8 baseline.
    """
    bars = []
    for _ in range(n_bars):
        lo = Fraction(rng.randint(lo_range[0] * den, lo_range[1] * den), den)
        ln = Fraction(rng.randint(1, max_len * den), den)
        bars.append((rng.choice(degrees), Interval(lo, lo + ln)))
    return Barcode(bars)


def moved_within(rng, F, delta, den=997):
    """G moves every endpoint of F by at most ``delta``, keeping every bar
    nonempty: a (delta, delta)-interleaving exists by stability."""
    step = Fraction(1, den)
    reach = int(delta / step)
    bars = []
    for bar in F.bars:
        lo = bar.interval.lo.as_fraction() + rng.randint(-reach, reach) * step
        hi = bar.interval.hi.as_fraction() + rng.randint(-reach, reach) * step
        if hi <= lo:
            hi = lo + step
        bars.append((bar.degree, Interval(lo, hi)))
    return Barcode(bars)


def _sorted_positions(tgt, wanted):
    """Sorted position of each wanted bar in ``tgt``, consuming duplicates
    left to right."""
    free = {}
    for t, bar in enumerate(tgt.bars):
        free.setdefault(bar, []).append(t)
    return [free[Bar(deg, iv)].pop(0) for deg, iv in wanted]


def plant_step(src, rng, fld, eps, den=4):
    """One tower step out of ``src``: bars longer than eps drift right by at
    most eps, the rest drop, and up to two short newcomers appear.  The
    round trip u-then-v is the slack-eps comparison by construction."""
    kept, tgt_bars = [], []
    reach = int(eps * den)
    for i, bar in enumerate(src.bars):
        if not bar.interval.length > eps:
            continue
        a, b = bar.interval.lo.as_fraction(), bar.interval.hi.as_fraction()
        a2 = a + Fraction(rng.randint(0, reach), den)
        b2 = b + Fraction(rng.randint(0, reach), den)
        kept.append(i)
        tgt_bars.append((bar.degree, Interval(a2, b2)))
    n_kept = len(kept)
    for _ in range(rng.randint(0, 2)):
        lo = Fraction(rng.randint(0, 60), den)
        tgt_bars.append((0, Interval(lo, lo + Fraction(rng.randint(1, 8), den))))
    tgt = Barcode(tgt_bars)
    planted = _sorted_positions(tgt, tgt_bars[:n_kept])
    u = Morphism(src, tgt, {(planted[k], i): 1 for k, i in enumerate(kept)}, fld)
    v = Morphism(tgt, src.shift(eps), {(i, planted[k]): 1 for k, i in enumerate(kept)}, fld)
    return tgt, u, v


def random_automorphism(bc, rng, fld, moves):
    """Order-respecting automorphism of ``bc`` and its inverse, as a product
    of ``moves`` elementary transvections between comparable bars."""
    n = len(bc)
    psi = identity(bc, fld)
    psi_inv = identity(bc, fld)
    cells = [
        (t, s)
        for t in range(n)
        for s in range(n)
        if s != t and bc[s].key() < bc[t].key() and hom(bc[s].interval, bc[t].interval) is DEG0
    ]
    nonzero = [x for x in fld.elements() if x != fld.zero]
    diag = {(i, i): 1 for i in range(n)}
    for _ in range(moves if cells else 0):
        t, s = rng.choice(cells)
        lam = rng.choice(nonzero)
        psi = compose(psi, Morphism(bc, bc, {**diag, (t, s): lam}, fld))
        psi_inv = compose(Morphism(bc, bc, {**diag, (t, s): fld.neg(lam)}, fld), psi_inv)
    return psi, psi_inv


def planted_tower(rng, fld, n_bars, n_stages):
    """Stages, forward maps, reverse maps and slacks of a planted tower.

    A scaled-up form of the acceptance suite's random tower: the basis
    changes only at the final stage, which leaves every round trip intact.
    A fixed number of basis moves (half the final stage) keeps the cost of
    diagonalizing the last step alike from tower to tower.
    """
    bars = []
    for _ in range(n_bars):
        lo = Fraction(rng.randint(0, 40), 4)
        bars.append((0, Interval(lo, lo + Fraction(rng.randint(1, 40), 4))))
    stages = [Barcode(bars)]
    fwd, rev, slacks = [], [], []
    for _ in range(n_stages - 1):
        eps = Fraction(rng.randint(1, 4), 4)
        tgt, u, v = plant_step(stages[-1], rng, fld, eps)
        stages.append(tgt)
        fwd.append(u)
        rev.append(v)
        slacks.append(eps)
    psi, psi_inv = random_automorphism(stages[-1], rng, fld, len(stages[-1]) // 2)
    fwd[-1] = compose(fwd[-1], psi)
    rev[-1] = compose(psi_inv, rev[-1])
    return stages, fwd, rev, slacks


def cauchy_sequence(rng, n_stages=6, n_bars=None):
    """Dyadic Cauchy sequence: stage n jitters a fixed base barcode of
    ``n_bars`` bars (1 to 4 at random when None) by at most 2^-(n+2), so
    consecutive distances halve."""
    base = []
    for _ in range(n_bars if n_bars is not None else rng.randint(1, 4)):
        lo = Fraction(rng.randint(0, 16), 2)
        base.append((lo, lo + Fraction(rng.randint(2, 10), 2)))
    seq = []
    for n in range(n_stages):
        delta = Fraction(1, 2 ** (n + 2))
        seq.append(
            Barcode(
                (0, Interval(lo + rng.randint(0, 8) * delta / 8, hi + rng.randint(0, 8) * delta / 8))
                for lo, hi in base
            )
        )
    return seq


def completion_tower(n_hi=9):
    """[1/2^n, 1) for n = 1 .. n_hi-1; its limit is exactly [0, 1)."""
    return [Barcode([(0, Interval(Fraction(1, 2 ** n), 1))]) for n in range(1, n_hi)]


def random_plf_rows(rng, n_breaks, den=4, val_range=(0, 10)):
    """Strictly increasing breakpoints and values of a random PL function."""
    bps = sorted(rng.sample(range(4 * n_breaks), n_breaks))
    vals = [Fraction(rng.randint(val_range[0] * den, val_range[1] * den), den) for _ in bps]
    return [Fraction(b, 4) for b in bps], vals


RADII = [0.7 ** j for j in range(20)]


def subspace_cloud_rows(coords, dim=4):
    """Rays from the origin spanning the coordinate subspace ``coords``.

    Planes get a dense circle of directions so the sample fills the plane
    to within the default 5-degree resolution; the full space gets its
    axes plus main diagonals.
    """
    dirs = []
    if len(coords) == 2:
        for theta in range(0, 360, 5):
            v = [0.0] * dim
            v[coords[0]] = math.cos(math.radians(theta))
            v[coords[1]] = math.sin(math.radians(theta))
            dirs.append(v)
    else:
        if len(coords) == 4:
            patterns = list(itertools.product((-1, 1), repeat=4))
            for i in range(4):
                for s in (-1, 1):
                    patterns.append(tuple(s if j == i else 0 for j in range(4)))
        else:
            patterns = itertools.product((-1, 0, 1), repeat=len(coords))
        for signs in patterns:
            if any(signs):
                v = [0.0] * dim
                for c, s in zip(coords, signs):
                    v[c] = float(s)
                dirs.append(v)
    rows = [[0.0] * dim]
    for v in dirs:
        norm = math.sqrt(sum(x * x for x in v))
        rows.extend([r * x / norm for x in v] for r in RADII)
    return rows


def planted_verdict(coords, n=2):
    """Verdict kind the symplectic linear algebra predicts for a coordinate
    subspace of R^{2n}: E is coisotropic iff E^omega lies in E."""
    if len(coords) == 2 * n:
        return "CoisotropicVacuous"
    constrained = {c + n if c < n else c - n for c in coords}
    coisotropic = all(j in coords for j in range(2 * n) if j not in constrained)
    return "Coisotropic" if coisotropic else "NotCoisotropic"
