"""Shared independent oracles and instance generators for the test suite.

The oracles here deliberately re-derive quantities with methods different
from the library's (a plain dense eigenvalue solve and power iteration vs
the certified eigensolver brackets, exhaustive recursion vs
branch-and-bound / blossom, degrees recounted every round vs
kept and lowered in the greedy hitting set, rational-tableau simplex vs the
integer-pivoting one, dominance scan vs elementary moves, a list
comprehension over triples vs the masked lex-triple array), so agreement
between the two routes is meaningful.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from linkspec import spectral
from linkspec.graphs import Graph2, Hypergraph3


# ---------------------------------------------------------------------------
# Spectral oracles: a dense eigenvalue-only solve, and power iteration, which
# shares no code with LAPACK.


def _adjacency(G: Graph2) -> np.ndarray:
    A = np.zeros((G.n, G.n))
    for a, b in G.edges:
        A[a - 1, b - 1] = A[b - 1, a - 1] = 1.0
    return A


def eig_rho(G: Graph2) -> float:
    """Largest adjacency eigenvalue via numpy's dense symmetric eigensolver."""
    if G.n == 0:
        return 0.0
    return max(0.0, float(np.linalg.eigvalsh(_adjacency(G))[-1]))


def power_rho(G: Graph2, tol: float = 1e-12, cap: int = 10**6) -> float:
    """Largest adjacency eigenvalue by power iteration on A + I from the all-ones vector.

    The +I shift keeps bipartite components from stalling on a +-rho
    eigenvalue pair, and the all-ones start overlaps the Perron vector of
    every component.  Raises if the residual is not below tol within cap
    iterations.
    """
    if G.m == 0:
        return 0.0
    B = _adjacency(G) + np.eye(G.n)
    x = np.full(G.n, 1.0 / math.sqrt(G.n))
    for _ in range(cap):
        y = B @ x
        lam = float(x @ y)
        if float(abs(y - lam * x).max()) <= tol:
            return lam - 1.0
        x = y / math.sqrt(float(y @ y))
    raise ArithmeticError(f"power iteration did not converge in {cap} iterations")


def uncertifiable_links(monkeypatch: pytest.MonkeyPatch, vertices: set[int], n: int) -> None:
    """Make the eigensolver return a useless Perron vector for the links of `vertices`.

    The vector is a unit vector, whose one Collatz-Wielandt ratio is a
    diagonal entry, 0, so the lower bound is 0: the link can back neither a
    verdict nor a tolerance.  Assumes all n links of an instance go through
    one eigensolve, in vertex order, so it reaches only links below
    ``spectral.POWER_MIN_VERTICES`` vertices: larger links take power steps
    first, and only those the steps cannot close reach the eigensolver.
    """
    real = spectral._eigh

    def eigh(A):
        w, U = real(A)
        if A.shape[0] == n:
            U = U.copy()
            for v in vertices:
                U[v - 1, :, -1] = 0.0
                U[v - 1, 0, -1] = 1.0
        return w, U

    monkeypatch.setattr(spectral, "_eigh", eigh)


def ref_first_bad_row(n: int, E: np.ndarray) -> str | None:
    """The message for the first increasing-, range- or repeat-faulty row of E, or None.

    The rows are pairs or triples.  Repeats are found as exactly equal rows,
    by ``np.unique`` over the rows.
    """
    unordered = ~(E[:, :-1] < E[:, 1:]).all(axis=1)
    outside = (E[:, 0] < 1) | (E[:, -1] > n)
    _, first, inverse = np.unique(E, axis=0, return_index=True, return_inverse=True)
    bad = unordered | outside | (first[inverse.reshape(-1)] != np.arange(len(E)))
    if not bad.any():
        return None
    i = int(bad.argmax())
    e = tuple(E[i].tolist())
    if unordered[i]:
        return f"edge {e} is not an increasing {'pair' if E.shape[1] == 2 else 'triple'}"
    return f"edge {e} out of range 1..{n}" if outside[i] else f"duplicate edge {e}"


# ---------------------------------------------------------------------------
# Matching oracles: plain exhaustive recursion over edge subsets.


def brute_nu_graph(G: Graph2) -> int:
    """Exact maximum matching of a 2-graph by exhaustive recursion."""
    edges = G.edges

    def rec(i: int, used: frozenset[int]) -> int:
        best = 0
        for j in range(i, len(edges)):
            e = edges[j]
            if used.isdisjoint(e):
                best = max(best, 1 + rec(j + 1, used | frozenset(e)))
        return best

    return rec(0, frozenset())


def brute_nu_3graph(H: Hypergraph3) -> int:
    """Exact maximum matching of a 3-graph by exhaustive recursion."""
    edges = H.edges

    def rec(i: int, used: frozenset[int]) -> int:
        best = 0
        for j in range(i, len(edges)):
            e = edges[j]
            if used.isdisjoint(e):
                best = max(best, 1 + rec(j + 1, used | frozenset(e)))
        return best

    return rec(0, frozenset())


def ref_greedy_hitting_bound(edge_masks: list[int], n: int) -> int:
    """The greedy hitting set size, recounting the vertex degrees every round.

    Each round takes the vertex on most remaining edges, the lowest on a tie.
    """
    remaining = list(edge_masks)
    size = 0
    while remaining:
        counts = [sum(m >> v & 1 for m in remaining) for v in range(n)]
        v = max(range(n), key=lambda i: counts[i])
        remaining = [m for m in remaining if not m >> v & 1]
        size += 1
    return size


# ---------------------------------------------------------------------------
# LP oracle: rational-tableau simplex with Fraction arithmetic throughout.
# Same pivot rules as the library solver but a completely separate
# implementation and number representation.

ZERO = Fraction(0)
ONE = Fraction(1)


def ref_simplex_max(c, rows, b):
    """Maximize c.x s.t. rows.x <= b, x >= 0 on a Fraction tableau."""
    m, nv = len(rows), len(c)
    tab = [
        list(rows[i]) + [ONE if j == i else ZERO for j in range(m)] + [b[i]]
        for i in range(m)
    ]
    obj = [-ci for ci in c] + [ZERO] * m + [ZERO]
    basis = list(range(nv, nv + m))
    rhs = nv + m
    while True:
        enter = next((j for j in range(nv + m) if obj[j] < 0), None)
        if enter is None:
            break
        leave, best = None, None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                r = tab[i][rhs] / a
                if best is None or r < best or (r == best and basis[i] < basis[leave]):
                    best, leave = r, i
        if leave is None:
            raise ArithmeticError("unbounded")
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        prow = tab[leave]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * p for x, p in zip(tab[i], prow)]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [x - f * p for x, p in zip(obj, prow)]
        basis[leave] = enter
    x = [ZERO] * nv
    for i, bv in enumerate(basis):
        if bv < nv:
            x[bv] = tab[i][rhs]
    return obj[rhs], x, obj[nv : nv + m]


def ref_nu_frac(H: Hypergraph3) -> Fraction:
    """nu*(H) via the reference simplex."""
    if H.m == 0:
        return ZERO
    touched = sorted({v for e in H.edges for v in e})
    rows = [[ONE if v in e else ZERO for e in H.edges] for v in touched]
    value, _, _ = ref_simplex_max([ONE] * H.m, rows, [ONE] * len(touched))
    return value


# ---------------------------------------------------------------------------
# Shift-closure oracle: the exhaustive dominance scan over all (edge, triple)
# pairs, independent of the library's elementary-move check.


def ref_shift_closure_holds(shifted: Hypergraph3) -> bool:
    """Whether every increasing triple coordinatewise below an edge is an edge."""
    if shifted.m == 0:
        return True
    all_triples = list(combinations(range(1, shifted.n + 1), 3))
    triples = np.array(all_triples)
    index = {t: i for i, t in enumerate(all_triples)}
    present = np.zeros(len(triples), dtype=bool)
    present[[index[e] for e in shifted.edges]] = True
    E = np.array(shifted.edges)
    dominated = (
        (triples[None, :, 0] <= E[:, None, 0])
        & (triples[None, :, 1] <= E[:, None, 1])
        & (triples[None, :, 2] <= E[:, None, 2])
    )
    return bool(np.all(present[None, :] | ~dominated))


# ---------------------------------------------------------------------------
# Random instance helpers.


def rand_graph(n: int, p: float, rng: random.Random) -> Graph2:
    edges = [e for e in combinations(range(1, n + 1), 2) if rng.random() < p]
    return Graph2(n, tuple(edges))


def rand_3graph(n: int, p: float, rng: random.Random) -> Hypergraph3:
    edges = [e for e in combinations(range(1, n + 1), 3) if rng.random() < p]
    return Hypergraph3(n, tuple(edges))


def ref_random_3graph_edges(n: int, p: float, seed: int) -> tuple[tuple[int, int, int], ...]:
    """The edge tuple of random_3graph(n, p, seed), by the list comprehension it replaced."""
    rng = random.Random(seed)
    return tuple(e for e in combinations(range(1, n + 1), 3) if rng.random() < p)


FANO_LINES = ((1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6))


@pytest.fixture(scope="session")
def fano() -> Hypergraph3:
    return Hypergraph3.from_edges(7, FANO_LINES)
