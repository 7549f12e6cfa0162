"""Generators for the extremal families and random instances, and the
lexicographic triple indexing that bitmask and coin draws share."""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, repeat, starmap

import numpy as np

from .graphs import Hypergraph3


@dataclass(frozen=True)
class LabeledInstance:
    hypergraph: Hypergraph3
    family: str


def complete_3graph(n: int) -> LabeledInstance:
    """All triples on n vertices."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return LabeledInstance(Hypergraph3(n, lex_triple_array(n)), f"complete({n})")


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
    return LabeledInstance(Hypergraph3(n, T[T[:, 0] <= s]), f"h1({s},{n})")


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
    return LabeledInstance(Hypergraph3(n, T[(T <= hubs).sum(axis=1) >= 2]), f"h2({s},{n})")


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

