"""Bipartite matchings that must cover prescribed vertices on both sides.

Classic augmenting-path matching plus a Mendelsohn-Dulmage style merge:
grow m1 saturating every required left vertex; if it also covers every
required right vertex it is the answer (the merge would pick it in every
component).  Otherwise grow m2 saturating the required right side and
pick, per component of their union, whichever matching covers that
component's required vertices; alternating paths/cycles guarantee one
does.  Rows of the adjacency must be strictly increasing: the search
jumps over visited right vertices by bisection, so n identical bars cost
O(n^2 log n), not O(n^3).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Set

__all__ = ["matching_covering"]


def _try_augment(root: int, adj: Sequence[Sequence[int]], match_r: Dict[int, int], skip: Dict[int, int]) -> bool:
    """Depth-first search for an augmenting path from left vertex `root`;
    on success, flip the path into `match_r`.

    `skip` (pass an empty dict) maps each visited right vertex to a larger
    one with every vertex in between visited, so a row jumps over its
    visited run with one bisect; as the visited set only grows, the
    neighbours tried are those of a one-by-one scan, in row order.  An
    explicit stack replaces recursion, so a path may be as long as the
    graph; a frame is (left vertex, row, resume position, the matched right
    vertex it descended through).
    """
    stack = []
    u, row, k = root, adj[root], 0
    while True:
        while k < len(row):
            v = row[k]
            if v not in skip:
                break
            w = v
            while w in skip:
                w = skip[w]
            while v != w:  # path compression: point the chain at w
                skip[v], v = w, skip[v]
            k = bisect_left(row, w, k + 1)
        else:
            if not stack:
                return False
            u, row, k, _ = stack.pop()
            continue
        skip[v] = v + 1
        w = match_r.get(v)
        if w is not None:
            stack.append((u, row, k + 1, v))
            u, row, k = w, adj[w], 0
            continue
        match_r[v] = u
        for u, _, _, v in reversed(stack):
            match_r[v] = u
        return True


def _saturating(order: Iterable[int], adj: Sequence[Sequence[int]], required: Set[int]) -> Optional[Dict[int, int]]:
    """Greedy transversal: augment from each left vertex, required first.

    Returns None if some required left vertex stays exposed (matroid
    exchange makes the greedy order safe: a required vertex that can be
    saturated at all can be saturated on top of any matching built so far
    from earlier required ones).
    """
    match_r: Dict[int, int] = {}
    for u in order:
        ok = _try_augment(u, adj, match_r, {})
        if not ok and u in required:
            return None
    return {u: v for v, u in match_r.items()}


def matching_covering(
    num_left: int,
    num_right: int,
    adj: Sequence[Sequence[int]],
    required_left: Iterable[int],
    required_right: Iterable[int],
) -> Optional[Dict[int, int]]:
    """A matching covering every required vertex on both sides, or None.

    ``adj[u]`` lists the right neighbours of left vertex ``u`` in strictly
    increasing order.  A required vertex without neighbours answers None
    at once.  If the left-saturating m1 covers every required right vertex
    it is returned as is: the merge would pick m1 in every component, as
    each such vertex's m1 partner lies in its component.  On n identical
    bars this costs O(n^2 log n).
    """
    req_l = set(required_left)
    req_r = set(required_right)
    if any(not adj[u] for u in req_l) or not req_r <= set().union(*adj):
        return None
    order_l = sorted(req_l) + [u for u in range(num_left) if u not in req_l]
    m1 = _saturating(order_l, adj, req_l)
    if m1 is None:
        return None
    if req_r <= set(m1.values()):
        out = m1
    else:
        # Mirror the graph to saturate the required right side (rows stay
        # increasing: u runs in increasing order).
        radj: List[List[int]] = [[] for _ in range(num_right)]
        for u in range(num_left):
            for v in adj[u]:
                radj[v].append(u)
        order_r = sorted(req_r) + [v for v in range(num_right) if v not in req_r]
        m2r = _saturating(order_r, radj, req_r)
        if m2r is None:
            return None
        out = _merge(m1, {u: v for v, u in m2r.items()}, req_l, req_r)

    # Sanity: the per-component choice must cover everything required.
    if not req_l <= set(out):
        raise RuntimeError("internal error: required left vertex lost in the merge")
    if not req_r <= set(out.values()):
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
