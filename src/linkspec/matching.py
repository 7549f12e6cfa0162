"""Exact matching numbers for 2-graphs and 3-graphs.

2-graph maximum matching is delegated to networkx's blossom implementation
(exact on general graphs); networkx is imported on first use, so only
callers of `max_matching_graph` need it: no command does, and the
link-matching lift reads the matching number of a shifted link from its
canonical pairs instead.  networkx is therefore no runtime dependency; the
`test` extra installs it for the tests, which use `max_matching_graph` as
an oracle.  3-graph maximum matching is a deterministic
branch-and-bound over edge inclusion, seeded with a first-fit matching and
pruned by the floor(remaining/3) bound, a greedy hitting-set bound, and an
optional exact-LP root bound; `find_matching_of_size` stops it at the first
matching of the asked size, which is how the verification modes get their
witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .graphs import Graph2, Hypergraph3, Pair, Triple
from .lp import DEFAULT_TRIPLE_LIMIT, LpSizeError, fractional_matching

DEFAULT_BUDGET = 10**7
#: rows of an edge block that the first-fit scan converts to Python at a time
_FIT_SLICE = 32


@dataclass(frozen=True)
class Matching3:
    """A set of pairwise vertex-disjoint triples."""

    edges: tuple[Triple, ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for e in self.edges:
            if len(e) != 3 or not (e[0] < e[1] < e[2]):
                raise ValueError(f"{e} is not an increasing triple")
            if seen & set(e):
                raise ValueError(f"edge {e} overlaps an earlier edge")
            seen.update(e)

    def __len__(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class Matching3Result:
    size: int
    matching: Matching3
    exact: bool
    nodes: int


def max_matching_graph(G: Graph2) -> tuple[int, list[Pair]]:
    """Exact maximum matching of a general (non-bipartite) graph; needs networkx."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(1, G.n + 1))
    g.add_edges_from(G.edges)
    mate = nx.max_weight_matching(g, maxcardinality=True)
    pairs = sorted((min(a, b), max(a, b)) for a, b in mate)
    return len(pairs), pairs


def _greedy_hitting_bound(edge_masks: list[int], n: int) -> int:
    """Size of a greedy hitting set of the given edges: an upper bound on nu.

    Each round takes the vertex on most remaining edges, the lowest on a
    tie, and drops the edges it hits.  The vertex degrees are counted once
    and lowered as edges are dropped.
    """
    counts = [0] * n
    for m in edge_masks:
        while m:
            low = m & -m
            counts[low.bit_length() - 1] += 1
            m ^= low
    remaining = edge_masks
    size = 0
    while remaining:
        bit = 1 << counts.index(max(counts))
        kept = []
        for m in remaining:
            if m & bit:
                while m:
                    low = m & -m
                    counts[low.bit_length() - 1] -= 1
                    m ^= low
            else:
                kept.append(m)
        remaining = kept
        size += 1
    return size


def _greedy_matching(E: np.ndarray, n: int) -> list[Triple]:
    """First-fit matching over the sorted edge array.

    The edges with first vertex a form one block of rows, found by
    `searchsorted` on column 0.  A block whose first vertex is taken is
    skipped whole; otherwise its first edge whose other two vertices are
    free is taken.  A block is converted to Python `_FIT_SLICE` rows at a
    time, since the first fit is usually near its start.  The scan ends once
    fewer than 3 vertices are free: no later edge can fit.
    """
    bounds = np.searchsorted(E[:, 0], np.arange(1, n + 2)).tolist()
    used = 0
    out: list[Triple] = []
    for a in range(1, n + 1):
        if n - 3 * len(out) < 3:
            break
        if used >> a & 1:
            continue
        for lo in range(bounds[a - 1], bounds[a], _FIT_SLICE):
            rows = E[lo : min(lo + _FIT_SLICE, bounds[a]), 1:].tolist()
            fit = next(((b, c) for b, c in rows if not (used >> b & 1 or used >> c & 1)), None)
            if fit is not None:
                out.append((a, *fit))
                used |= 1 << a | 1 << fit[0] | 1 << fit[1]
                break
    return out


def max_matching_3graph(
    H: Hypergraph3,
    budget: int = DEFAULT_BUDGET,
    target: int | None = None,
    lp_root_bound: bool = True,
) -> Matching3Result:
    """Exact nu(H) with a witness, via deterministic branch-and-bound.

    Branching picks the lowest-labelled vertex that is still coverable and
    tries its incident edges in lexicographic order, then the leave-uncovered
    option, so witnesses are reproducible.  `budget` caps search-tree nodes;
    on exhaustion the best matching found is returned with exact=False.
    `target`, when set, stops the search once a matching of that size is
    found (the result is then a lower-bound witness, exact=False, unless the
    search had already completed).
    """
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    greedy = _greedy_matching(H.edge_array, H.n)
    best_size = len(greedy)
    best_edges = list(greedy)
    if target is not None and best_size >= target:
        return Matching3Result(best_size, Matching3(tuple(best_edges)), False, 0)

    rows = H.edge_array.tolist()
    edge_masks = [1 << (a - 1) | 1 << (b - 1) | 1 << (c - 1) for a, b, c in rows]
    full = (1 << H.n) - 1

    root_ub = min(H.n // 3, _greedy_hitting_bound(edge_masks, H.n) if H.m else 0)
    if lp_root_bound and H.m and comb(H.n, 3) <= DEFAULT_TRIPLE_LIMIT:
        try:
            nu_frac = fractional_matching(H).value
            root_ub = min(root_ub, int(nu_frac))  # nu <= floor(nu*)
        except LpSizeError:  # pragma: no cover - guarded above
            pass
    if best_size >= root_ub:
        return Matching3Result(best_size, Matching3(tuple(best_edges)), True, 0)

    nodes = 0
    exhausted = False
    reached_target = False
    cur: list[Triple] = []

    def recurse(excluded: int) -> None:
        nonlocal nodes, best_size, best_edges, exhausted, reached_target
        if exhausted or reached_target or best_size >= root_ub:
            return
        nodes += 1
        if nodes > budget:
            exhausted = True
            return
        avail = [(m, i) for i, m in enumerate(edge_masks) if not m & excluded]
        if len(cur) > best_size:
            best_size = len(cur)
            best_edges = list(cur)
            if target is not None and best_size >= target:
                reached_target = True
                return
        if not avail:
            return
        free = bin(full & ~excluded).count("1")
        ub = free // 3
        if len(avail) <= 2000:
            ub = min(ub, _greedy_hitting_bound([m for m, _ in avail], H.n))
        if len(cur) + ub <= best_size:
            return
        # lowest-labelled vertex lying in some available edge
        union = 0
        for m, _ in avail:
            union |= m
        v_bit = union & -union
        for m, i in avail:
            if m & v_bit:
                cur.append(tuple(rows[i]))
                recurse(excluded | m)
                cur.pop()
                if exhausted or reached_target:
                    return
        recurse(excluded | v_bit)  # leave v uncovered

    recurse(0)
    exact = not exhausted and not reached_target
    if reached_target and best_size >= root_ub:
        exact = True
    return Matching3Result(best_size, Matching3(tuple(best_edges)), exact, nodes)


def find_matching_of_size(
    H: Hypergraph3, k: int, budget: int = DEFAULT_BUDGET
) -> tuple[Matching3 | None, bool]:
    """Search for a matching of size >= k.

    Returns (witness or None, decided).  decided=False means the budget ran
    out before the question was settled either way.
    """
    # the LP root bound only helps prove optimality, not decide reachability
    res = max_matching_3graph(H, budget=budget, target=k, lp_root_bound=False)
    if res.size >= k:
        return res.matching, True
    return None, res.exact
