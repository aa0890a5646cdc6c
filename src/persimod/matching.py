"""Bipartite matchings that must cover prescribed vertices on both sides.

Classic augmenting-path matching plus a Mendelsohn-Dulmage style merge:
grow m1 saturating every required left vertex; if it also covers every
required right vertex it is the answer (the merge would pick it in every
component).  Otherwise grow m2 saturating the required right side and
pick, per component of their union, whichever matching covers that
component's required vertices; alternating paths/cycles guarantee one
does.  Each saturation starts greedy and then augments (`saturate`), so
rows that mostly agree cost about one row scan per vertex.

A vertex may stand for a class of interchangeable copies: given
capacities, each saturation is an augmenting flow on the classes that
pushes as many copies along a path as it can carry, so the cost follows
the number of classes, not of copies.  The flow is then expanded into a
per-copy matching, copies paired in index order, and the merge runs on
copies.  With every capacity 1 the search is the uncapacitated one.
Without capacities the unit search runs all the same, not the class
search at capacity 1: 22,832 calls recorded from `gamma` and (before its
probes only decided) `gamma_symmetric`, replayed through the class search
alone, took 26% longer, and distance-generic answers per second fell 7%.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = ["matching_covering"]

Caps = Optional[Tuple[Sequence[int], Sequence[int]]]


def _try_augment(root: int, adj: Sequence[Sequence[int]], match_r: Dict, cap=None, need=1) -> int:
    """Depth-first search for an augmenting path from left vertex `root`;
    on success, push units along it into `match_r` and return how many
    (0 when there is no path).

    Without `cap` a right vertex takes one unit and `match_r` maps it to
    its partner.  With `cap`, right vertex v takes cap[v] units and
    `match_r[v]` maps each left vertex holding some of them to their
    count; the search passes a full right vertex through each of its
    holders not yet visited, in turn, and the path carries up to `need`
    units, as many as its last vertex's room and its backward edges allow.
    With every capacity 1 a full vertex has one holder, so the neighbours
    tried and the path found are those of the search without `cap`.

    Each right vertex is visited once per search, and each row is scanned
    in order from where its frame left off.  An explicit stack replaces
    recursion, so a path may be as long as the graph; a frame is (left
    vertex, row, resume position, the full right vertex it descended
    through), and `rests` holds the holders of each full right vertex that
    are left to try.
    """
    stack, visited = [], set()
    seen = rests = None
    u, row, k = root, adj[root], 0
    while True:
        while k < len(row) and row[k] in visited:
            k += 1
        if k == len(row):
            if not stack:
                return 0
            u, row, k, v = stack.pop()
            if rests is not None:
                w = next((w for w in rests[v] if w not in seen), None)
                if w is not None:
                    stack.append((u, row, k, v))
                    seen.add(w)
                    u, row, k = w, adj[w], 0
            continue
        v = row[k]
        visited.add(v)
        held = match_r.get(v)
        if cap is None:
            if held is not None:
                stack.append((u, row, k + 1, v))
                u, row, k = held, adj[held], 0
                continue
            match_r[v] = u
            for u, _, _, v in reversed(stack):
                match_r[v] = u
            return 1
        room = cap[v] - sum(held.values()) if held else cap[v]
        if not room:
            # an empty row sends the search back to this frame, to try v's
            # holders in turn
            if rests is None:
                seen, rests = {root}, {}
            rests[v] = iter(held)
            stack.append((u, row, k + 1, v))
            row, k = (), 0
            continue
        nxt = [f[0] for f in stack[1:]] + [u]
        got = min(need, room, *(match_r[f[3]][w] for f, w in zip(stack, nxt)))
        for f, w in zip(stack, nxt):
            back = match_r[f[3]]
            back[f[0]] = back.get(f[0], 0) + got
            back[w] -= got
            if not back[w]:
                del back[w]
        held = match_r.setdefault(v, {})
        held[u] = held.get(u, 0) + got
        return got


def saturate(order: Sequence[int], adj, match_r: Dict, required, caps: Caps = None) -> bool:
    """Augment `match_r` (`_try_augment`'s form, each left vertex in it a key
    of `adj`) from each of `order` up to capacity; False if a `required` one
    (a set or dict, its vertices first in `order`) can't.  First each exposed
    required vertex takes its first neighbour with room, as many copies as
    fit.  While `match_r` matches only required vertices this keeps the
    answer: those that can all be saturated are independent in the
    transversal matroid, so a path augments to each from any matching of
    earlier ones."""
    if caps is None:
        held = set(match_r.values())
        for u in order:
            if u in required and u not in held:
                for v in adj[u]:
                    if v not in match_r:
                        match_r[v] = u
                        held.add(u)
                        break
        return all(u in held or _try_augment(u, adj, match_r) or u not in required for u in order)
    cap_l, cap_r = caps
    held = Counter()
    for h in match_r.values():
        held.update(h)
    for u in order:
        if u in required and not held[u]:
            for v in adj[u]:
                room = cap_r[v] - sum(match_r[v].values()) if v in match_r else cap_r[v]
                if room:
                    match_r.setdefault(v, {})[u] = held[u] = min(cap_l[u], room)
                    break
    for u in order:
        need = cap_l[u] - held[u]
        while need and (got := _try_augment(u, adj, match_r, cap_r, need)):
            need -= got
        if need and u in required:
            return False
    return True


def _saturating(order: Sequence[int], adj: Sequence[Sequence[int]], required: Set[int], caps: Caps = None) -> Optional[Dict]:
    """`saturate` from nothing: None if some required left vertex stays
    exposed, else the matching, per copy with `caps`."""
    match_r: Dict = {}
    if not saturate(order, adj, match_r, required, caps):
        return None
    if caps is None:
        return {u: v for v, u in match_r.items()}
    cap_l, cap_r = caps
    # Copies are numbered class by class; each left class's copies, in
    # index order, take the next copies of its right classes in turn.
    nxt_l, nxt_r = list(accumulate(cap_l, initial=0)), list(accumulate(cap_r, initial=0))
    out: Dict[int, int] = {}
    for u, v, f in sorted((u, v, f) for v, held in match_r.items() for u, f in held.items()):
        i, j = nxt_l[u], nxt_r[v]
        out.update(zip(range(i, i + f), range(j, j + f)))
        nxt_l[u], nxt_r[v] = i + f, j + f
    return out


def _copies(classes: Set[int], cap: Sequence[int]) -> Set[int]:
    first = list(accumulate(cap, initial=0))
    return {c for u in classes for c in range(first[u], first[u + 1])}


def matching_covering(
    num_left: int,
    num_right: int,
    adj: Sequence[Sequence[int]],
    required_left: Iterable[int],
    required_right: Iterable[int],
    caps: Caps = None,
) -> Optional[Dict[int, int]]:
    """A matching covering every required vertex on both sides, or None.

    ``adj[u]`` lists the right neighbours of left vertex ``u``, in the
    order they are tried.  A required vertex without neighbours answers None
    at once.  If the left-saturating m1 covers every required right vertex
    it is returned as is: the merge would pick m1 in every component, as
    each such vertex's m1 partner lies in its component.

    ``caps``, a pair (left, right) of capacities, makes each vertex a class
    of that many copies, each adjacent to every copy of the class's
    neighbours; copies are numbered class by class, every copy of a
    required class is required, and the answer matches copies.
    """
    req_l = set(required_left)
    for u in req_l:  # a loop, not a generator: most calls of a distance search end here
        if not adj[u]:
            return None
    req_r = set(required_right)
    if not req_r <= set().union(*adj):
        return None
    order_l = sorted(req_l) + [u for u in range(num_left) if u not in req_l]
    m1 = _saturating(order_l, adj, req_l, caps)
    if m1 is None:
        return None
    copies_l, copies_r = (req_l, req_r) if caps is None else (_copies(req_l, caps[0]), _copies(req_r, caps[1]))
    if copies_r <= set(m1.values()):
        out = m1
    else:
        # Mirror the graph to saturate the required right side.
        radj: List[List[int]] = [[] for _ in range(num_right)]
        for u in range(num_left):
            for v in adj[u]:
                radj[v].append(u)
        order_r = sorted(req_r) + [v for v in range(num_right) if v not in req_r]
        m2r = _saturating(order_r, radj, req_r, caps and caps[::-1])
        if m2r is None:
            return None
        out = _merge(m1, {u: v for v, u in m2r.items()}, copies_l, copies_r)

    # Sanity: the per-component choice must cover everything required.
    if not copies_l <= set(out):
        raise RuntimeError("internal error: required left vertex lost in the merge")
    if not copies_r <= set(out.values()):
        raise RuntimeError("internal error: required right vertex lost in the merge")
    return out


def _merge(m1: Dict[int, int], m2: Dict[int, int], req_l: Set[int], req_r: Set[int]) -> Dict[int, int]:
    """Components of m1 (+) m2 are alternating paths/cycles, so at most one
    endpoint per side can lose coverage; pick per component."""
    inv = ({v: u for u, v in m1.items()}, {v: u for u, v in m2.items()})
    out: Dict[int, int] = {}
    seen: Set[int] = set()
    for start in sorted(set(m1) | set(m2)):
        if start in seen:
            continue
        comp, stack = set(), [start]  # left vertices, through partners' partners
        while stack:
            x = stack.pop()
            if x not in comp:
                comp.add(x)
                stack.extend(i[v] for v in (m1.get(x), m2.get(x)) for i in inv if v in i)
        seen |= comp
        pick1 = {u: m1[u] for u in comp if u in m1}
        pick2 = {u: m2[u] for u in comp if u in m2}
        need_r = (set(pick1.values()) | set(pick2.values())) & req_r
        out.update(pick1 if comp & req_l <= set(pick1) and need_r <= set(pick1.values()) else pick2)
    return out
