"""Bipartite matchings that must cover prescribed vertices on both sides.

Classic augmenting-path matching plus a Mendelsohn-Dulmage style merge:
grow one matching that saturates every required left vertex and another
that saturates every required right vertex, then walk the components of
their union picking, per component, whichever matching covers that
component's required vertices.  Alternating paths/cycles guarantee one of
the two always does.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

__all__ = ["matching_covering"]


def _try_augment(root: int, adj: Sequence[Sequence[int]], match_r: Dict[int, int], seen: Set[int]) -> bool:
    """Depth-first search for an augmenting path from left vertex `root`;
    on success, flip the path into `match_r`.

    An explicit stack replaces recursion, so a path may be as long as the
    graph.  Each suspended frame is (left vertex, its remaining neighbours,
    the matched right vertex it descended through); neighbours are tried in
    `adj` order and the path is flipped from its far end back to `root`.
    """
    stack = []
    u, nbrs = root, iter(adj[root])
    while True:
        for v in nbrs:
            if v in seen:
                continue
            seen.add(v)
            w = match_r.get(v)
            if w is not None:
                stack.append((u, nbrs, v))
                u, nbrs = w, iter(adj[w])
                break
            match_r[v] = u
            for u, _, v in reversed(stack):
                match_r[v] = u
            return True
        else:
            if not stack:
                return False
            u, nbrs, _ = stack.pop()


def _saturating(order: Iterable[int], adj: Sequence[Sequence[int]], required: Set[int]) -> Optional[Dict[int, int]]:
    """Greedy transversal: augment from each left vertex, required first.

    Returns None if some required left vertex stays exposed (matroid
    exchange makes the greedy order safe: a required vertex that can be
    saturated at all can be saturated on top of any matching built so far
    from earlier required ones).
    """
    match_r: Dict[int, int] = {}
    for u in order:
        ok = _try_augment(u, adj, match_r, set())
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

    ``adj[u]`` lists the right neighbours of left vertex ``u``.
    """
    req_l = set(required_left)
    req_r = set(required_right)
    order_l = sorted(req_l) + [u for u in range(num_left) if u not in req_l]
    m1 = _saturating(order_l, adj, req_l)
    if m1 is None:
        return None

    # Mirror the graph to saturate the required right side.
    radj: List[List[int]] = [[] for _ in range(num_right)]
    for u in range(num_left):
        for v in adj[u]:
            radj[v].append(u)
    order_r = sorted(req_r) + [v for v in range(num_right) if v not in req_r]
    m2r = _saturating(order_r, radj, req_r)
    if m2r is None:
        return None
    m2 = {u: v for v, u in m2r.items()}

    # Combine: components of m1 (+) m2 are alternating paths/cycles, so at
    # most one endpoint per side can lose coverage; pick per component.
    nbr1: Dict[int, int] = dict(m1)
    nbr2: Dict[int, int] = dict(m2)
    inv1 = {v: u for u, v in m1.items()}
    inv2 = {v: u for u, v in m2.items()}

    out: Dict[int, int] = {}
    seen_l: Set[int] = set()
    seen_r: Set[int] = set()
    for start in range(num_left):
        if start in seen_l or (start not in nbr1 and start not in nbr2):
            continue
        comp_l: Set[int] = set()
        comp_r: Set[int] = set()
        stack: List[tuple] = [("L", start)]
        while stack:
            side, x = stack.pop()
            if side == "L":
                if x in comp_l:
                    continue
                comp_l.add(x)
                seen_l.add(x)
                for m in (nbr1, nbr2):
                    if x in m:
                        stack.append(("R", m[x]))
            else:
                if x in comp_r:
                    continue
                comp_r.add(x)
                seen_r.add(x)
                for inv in (inv1, inv2):
                    if x in inv:
                        stack.append(("L", inv[x]))
        need_l = comp_l & req_l
        need_r = comp_r & req_r
        pick1 = {u: v for u, v in m1.items() if u in comp_l}
        if need_l <= set(pick1) and need_r <= set(pick1.values()):
            out.update(pick1)
        else:
            pick2 = {u: v for u, v in m2.items() if u in comp_l}
            out.update(pick2)

    # Sanity: the per-component choice must cover everything required.
    if not req_l <= set(out):
        raise RuntimeError("internal error: required left vertex lost in the merge")
    if not req_r <= set(out.values()):
        raise RuntimeError("internal error: required right vertex lost in the merge")
    return out
