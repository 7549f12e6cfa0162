"""Generators for the extremal families, split graphs, and random instances.

Each labelled instance carries the analytically expected statistics of its
family.  The expectations are derivations (split-graph link radii,
clique-plus-isolated-vertices links, hub covers) and are meant to be
validated by the exact solvers before being trusted in reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, repeat, starmap
from math import comb
from typing import Iterator

import numpy as np

from .graphs import Graph2, Hypergraph3
from .spectral import threshold_match

MAX_ENUMERABLE_TRIPLES = 24


@dataclass(frozen=True)
class Expected:
    """Closed-form statistics attached to a generated family instance."""

    min_link_rho: float | None = None
    nu: int | None = None
    nu_frac: Fraction | None = None


@dataclass(frozen=True)
class LabeledInstance:
    hypergraph: Hypergraph3
    family: str
    expected: Expected | None = None


def complete_3graph(n: int) -> LabeledInstance:
    """All triples on n vertices."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    H = Hypergraph3(n, lex_triple_array(n))
    exp = Expected(
        min_link_rho=float(n - 2) if n >= 2 else 0.0,
        nu=n // 3,
        nu_frac=Fraction(n, 3),
    )
    return LabeledInstance(H, f"complete({n})", exp)


def h1(s: int, n: int) -> LabeledInstance:
    """Triples meeting the hub set [s].

    The link of a vertex outside [s] is the split graph K_s v co-K_{n-1-s},
    which attains the minimum link spectral radius; links of hub vertices
    are complete.  nu = min(s, floor(n/3)); nu* = s for n >= 3s via the
    hub cover.
    """
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if s > n:
        raise ValueError(f"need s <= n, got s={s}, n={n}")
    T = lex_triple_array(n)
    H = Hypergraph3(n, T[T[:, 0] <= s])
    exp = Expected(
        # h1(s, n) is complete for s >= n-2; the cap keeps threshold_match's n >= s+1
        min_link_rho=threshold_match(min(s, n - 1), n),
        nu=min(s, n // 3),
        nu_frac=Fraction(min(s, n // 3)) if n < 3 * s else Fraction(s),
    )
    return LabeledInstance(H, f"h1({s},{n})", exp)


def h2(s: int, n: int) -> LabeledInstance:
    """Triples with at least two vertices in the hub set [2s-1].

    The link of a vertex outside the hubs is K_{2s-1} plus isolated
    vertices, giving the minimum link spectral radius 2s-2.  Disjoint edges
    use disjoint hub pairs, so nu = s-1 (for n >= 3(s-1)) and nu* is
    certified by the half-weight hub cover.
    """
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if 2 * s - 1 > n:
        raise ValueError(f"need 2s-1 <= n, got s={s}, n={n}")
    hubs = 2 * s - 1
    T = lex_triple_array(n)
    H = Hypergraph3(n, T[(T <= hubs).sum(axis=1) >= 2])
    exp = Expected(
        min_link_rho=float(2 * s - 2) if n > hubs else None,
        nu=s - 1 if n >= 3 * (s - 1) else None,
        nu_frac=Fraction(hubs, 2) if n >= 3 * s else None,
    )
    return LabeledInstance(H, f"h2({s},{n})", exp)


def split_graph(s: int, n: int) -> tuple[Graph2, float]:
    """K_s joined with an independent set on n-s vertices, and its exact rho."""
    if not 0 <= s <= n:
        raise ValueError(f"need 0 <= s <= n, got s={s}, n={n}")
    edges = [(a, b) for a, b in combinations(range(1, n + 1), 2) if a <= s]
    return Graph2(n, tuple(edges)), threshold_match(s, n + 1)


def random_3graph(n: int, p: float, seed: int) -> LabeledInstance:
    """Binomial random 3-graph: each triple kept independently with probability p.

    One uniform draw is consumed per triple, in lexicographic triple order,
    from ``random.Random(seed)``, so instances are reproducible across runs
    and platforms.
    """
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    draw = random.Random(seed).random
    T = lex_triple_array(n)
    keep = np.fromiter(starmap(draw, repeat((), len(T))), np.float64, len(T)) < p
    return LabeledInstance(Hypergraph3(n, T[keep]), f"random({n},{p},{seed})")


def lex_triples(n: int) -> list[tuple[int, int, int]]:
    """The lexicographic triple list used for bitmask and coin indexing."""
    return list(combinations(range(1, n + 1), 3))


@lru_cache(maxsize=8)  # searches and sweeps draw many instances of a few sizes
def lex_triple_array(n: int) -> np.ndarray:
    """lex_triples(n) as a read-only (C(n,3), 3) intp array, in the same order."""
    v = np.arange(n)
    increasing = (v[:, None, None] < v[None, :, None]) & (v[None, :, None] < v[None, None, :])
    T = np.ascontiguousarray(np.argwhere(increasing) + 1)
    T.flags.writeable = False
    return T


def hypergraph_from_bitmask(n: int, mask: int) -> Hypergraph3:
    """The 3-graph whose edges are the set bits of `mask` over lex_triples(n)."""
    T = lex_triple_array(n)
    if not 0 <= mask < (1 << len(T)):
        raise ValueError(f"mask out of range for n={n}")
    bits = np.unpackbits(np.frombuffer(mask.to_bytes(len(T) // 8 + 1, "little"), np.uint8), bitorder="little")
    return Hypergraph3(n, T[bits[: len(T)].astype(bool)])


def enumerate_3graphs(n: int) -> Iterator[Hypergraph3]:
    """All 2^C(n,3) hypergraphs on n vertices, in bitmask order.

    Requires C(n,3) <= 24, i.e. full enumeration is only offered up to n=6.
    """
    m = comb(n, 3)
    if m > MAX_ENUMERABLE_TRIPLES:
        raise ValueError(f"C({n},3) = {m} exceeds the exhaustive limit {MAX_ENUMERABLE_TRIPLES}")
    for mask in range(1 << m):
        yield hypergraph_from_bitmask(n, mask)
