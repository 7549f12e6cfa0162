"""Immutable 2-graph and 3-uniform hypergraph types with basic operations.

Vertices are 1-based contiguous integers.  Edge sets are kept in canonical
sorted order so that equality, hashing and serialized output are
deterministic.  Operations that drop vertices relabel the survivors
order-preservingly and return the old->new label map alongside the result.
All types are immutable after construction; adjacency is a derived cache.
A `Graph2`'s edge tuple is its single source of truth; a `Hypergraph3`'s is
its read-only edge array, which the hot consumers (link spectra, the exact
LP, the greedy matching) read directly, while its `edges` tuple is a view
built only when something iterates tuples.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable

import numpy as np

Pair = tuple[int, int]
Triple = tuple[int, int, int]


@dataclass(frozen=True)
class Graph2:
    """A simple graph on vertices 1..n with a canonical sorted edge tuple."""

    n: int
    edges: tuple[Pair, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {self.n}")
        seen: set[Pair] = set()
        for e in self.edges:
            if len(e) != 2 or e[0] >= e[1]:
                raise ValueError(f"edge {e} is not an increasing pair")
            if not (1 <= e[0] and e[1] <= self.n):
                raise ValueError(f"edge {e} out of range 1..{self.n}")
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
        if self.edges != tuple(sorted(self.edges)):
            raise ValueError("edges must be sorted lexicographically")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Iterable[int]]) -> "Graph2":
        canon = sorted({(min(e), max(e)) for e in (tuple(e) for e in edges)})
        return cls(n, tuple(canon))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Neighbor bitmasks; bit (u-1) of adjacency[v-1] is set iff uv is an edge."""
        adj = [0] * self.n
        for a, b in self.edges:
            adj[a - 1] |= 1 << (b - 1)
            adj[b - 1] |= 1 << (a - 1)
        return tuple(adj)

    def has_edge(self, a: int, b: int) -> bool:
        if a > b:
            a, b = b, a
        return (a, b) in self._edge_set

    @cached_property
    def _edge_set(self) -> frozenset[Pair]:
        return frozenset(self.edges)


class Hypergraph3:
    """A 3-uniform hypergraph on vertices 1..n.

    The edge array is the single source of truth: a read-only (m, 3)
    integer array of increasing triples in strictly increasing
    lexicographic order.  `edges` is a tuple view of it, built on first
    use.  The constructor takes the edges as an array or as an iterable of
    triples and validates them once, with array operations; an invalid
    edge set raises ValueError naming the first offending edge.  Equality
    and hashing mean "same n and same edges".
    """

    def __init__(self, n: int, edges: np.ndarray | Iterable[Triple]) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        if n >= 2**63:
            raise ValueError(f"vertex count {n} does not fit the int64 edge array")
        E = _edge_array(n, edges)
        E.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edge_array", E)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph3):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edge_array, other.edge_array)

    def __hash__(self) -> int:
        return hash((self.n, self.edge_array.tobytes()))

    def __repr__(self) -> str:
        return f"Hypergraph3(n={self.n}, edges={self.edges!r})"

    def __reduce__(self):
        return Hypergraph3, (self.n, self.edge_array)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Iterable[int]]) -> "Hypergraph3":
        canon = sorted({tuple(sorted(e)) for e in edges})
        return cls(n, tuple(canon))  # type: ignore[arg-type]

    @cached_property
    def edges(self) -> tuple[Triple, ...]:
        """The edge array as a tuple of int triples."""
        return tuple(map(tuple, self.edge_array.tolist()))

    @property
    def m(self) -> int:
        return len(self.edge_array)

    def has_edges(self, rows: np.ndarray | Iterable[Triple]) -> np.ndarray:
        """Whether each row of the (k, 3) integer array `rows` is an edge.

        One binary search in the edge array.  While n <= `KEY_MAX_N`, a row
        (a, b, c) is looked up by its int64 key a(n+1)^2 + b(n+1) + c,
        which orders the edges lexicographically.  The key is injective
        only on entries in 0..n, so a row with an entry outside 1..n is
        answered False whatever its key finds (unguarded, (1, 2, 14) would
        find the edge (1, 3, 4) at n = 9).  Above `KEY_MAX_N` the keys
        could overflow, and the rows are compared as records instead.
        """
        rows = np.asarray(rows, dtype=np.intp).reshape(-1, 3)
        n = self.n
        if n <= KEY_MAX_N:
            labels = ((rows >= 1) & (rows <= n)).all(axis=1)
            keys = _row_keys(rows, n)
            edges = self._edge_keys
        else:
            labels = True
            keys = np.ascontiguousarray(rows).view(_ROW).ravel()
            edges = self.edge_array.view(_ROW).ravel()
        if not len(edges):
            return np.zeros(len(keys), dtype=bool)
        i = np.searchsorted(edges, keys)
        # i is the first edge not below the key, or len(edges) if none: clamped, it still fails ==
        return labels & (edges[np.minimum(i, len(edges) - 1)] == keys)

    @cached_property
    def _edge_keys(self) -> np.ndarray:
        """The edges' int64 keys for `has_edges`, built on the first lookup: 8 bytes an edge."""
        return _row_keys(self.edge_array, self.n)

    def has_edge(self, e: Iterable[int]) -> bool:
        t = sorted(e)
        return len(t) == 3 and bool(self.has_edges([t])[0])

    def _check_vertex(self, v: int) -> None:
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} out of range 1..{self.n}")


#: the largest n whose edge keys a(n+1)^2 + b(n+1) + c, at most (n+1)^3 - 1, fit in int64
KEY_MAX_N = 2**21 - 1
#: an edge array row as one record, so that rows compare lexicographically
_ROW = np.dtype([("a", np.intp), ("b", np.intp), ("c", np.intp)])


def _row_keys(rows: np.ndarray, n: int) -> np.ndarray:
    """The key a(n+1)^2 + b(n+1) + c of each row (a, b, c) of the (k, 3) intp array `rows`."""
    base = n + 1
    return (rows[:, 0] * base + rows[:, 1]) * base + rows[:, 2]


def _edge_array(n: int, edges: np.ndarray | Iterable[Triple]) -> np.ndarray:
    """`edges` as a fresh (m, 3) intp array, checked to be a valid edge set on 1..n."""
    if not isinstance(edges, np.ndarray):
        edges = tuple(edges)
    try:
        E = np.asarray(edges)
    except ValueError:  # rows of different lengths
        E = None
    if E is not None and len(E) == 0:
        return np.empty((0, 3), dtype=np.intp)
    if E is None or E.ndim != 2 or E.shape[1] != 3 or E.dtype.kind not in "iu":
        # some row is no int64 triple; an earlier row's fault is reported first
        i = next(i for i, e in enumerate(edges) if np.shape(e) != (3,) or np.asarray(e).dtype.kind not in "iu")
        _raise_first_bad_row(n, np.array(edges[:i], dtype=np.intp).reshape(-1, 3))
        e = edges[i]
        if np.shape(e) == (3,) and all(isinstance(v, (int, np.integer)) for v in e) and e[0] < e[1] < e[2]:
            raise ValueError(f"edge {e} out of range 1..{n}")  # a label beyond int64, and n < 2**63
        raise ValueError(f"edge {e} is not an increasing triple")
    E = E.astype(np.intp, order="C")
    a, b, c = E.T  # column by column: a 2-d comparison of strided columns is about 5x slower
    increasing = ((a < b) & (b < c)).all()
    if not (increasing and E.min() >= 1 and E.max() <= n and lex_increasing(E)):
        _raise_first_bad_row(n, E)
        raise ValueError("edges must be sorted lexicographically")
    return E


def lex_increasing(E: np.ndarray) -> bool:
    """Whether the rows of the 2-d integer array E increase strictly in lexicographic order."""
    if len(E) < 2:
        return True
    lo = int(E.min())
    base = int(E.max()) - lo + 1
    if base ** E.shape[1] < 2**63:  # each row as one int64 number, its digits E - lo in base `base`
        keys = np.zeros(len(E), dtype=np.int64)
        for column in E.T:
            keys *= base
            keys += column
            keys -= lo
        return bool((keys[1:] > keys[:-1]).all())
    # a row follows its predecessor iff their first nonzero difference is
    # positive; weighting the difference signs by 2^(k-1-j) lets it decide
    signs = np.sign(E[1:] - E[:-1])
    return bool((signs @ (1 << np.arange(E.shape[1] - 1, -1, -1)) > 0).all())


def _raise_first_bad_row(n: int, E: np.ndarray) -> None:
    """Raise ValueError for the first row that is not increasing, not in range or a repeat.

    A repeat is a row equal to an earlier one: after a stable sort of the
    rows' keys, one whose key equals its predecessor's.  While n <=
    `KEY_MAX_N` the keys are the int64 keys of `has_edges`, which are
    injective on rows with entries in 1..n; every other row is flagged
    anyway and gets a key of its own.  Above it the rows are records.
    """
    a, b, c = E.T
    unordered = ~((a < b) & (b < c))
    outside = (a < 1) | (c > n)
    if n <= KEY_MAX_N:  # about 13x faster to sort than records at n = 100
        keys = np.where(unordered | outside, -1 - np.arange(len(E)), _row_keys(E, n))
    else:
        keys = np.ascontiguousarray(E).view(_ROW).ravel()
    order = np.argsort(keys, kind="stable")  # equal keys stay in row order
    repeat = np.zeros(len(E), dtype=bool)
    repeat[order[1:]] = keys[order[1:]] == keys[order[:-1]]
    bad = unordered | outside | repeat
    if bad.any():
        i = int(bad.argmax())
        e = tuple(E[i].tolist())
        if unordered[i]:
            raise ValueError(f"edge {e} is not an increasing triple")
        if outside[i]:
            raise ValueError(f"edge {e} out of range 1..{n}")
        raise ValueError(f"duplicate edge {e}")


def link_graph(H: Hypergraph3, v: int) -> tuple[Graph2, dict[int, int]]:
    """Link graph of v: the pairs completing an edge of H with v.

    The result lives on vertices 1..n-1 via the order-preserving relabelling
    of V(H)\\{v}; the old->new map is returned alongside.
    """
    H._check_vertex(v)
    E = H.edge_array
    through = E[(E == v).any(axis=1)]
    pairs = through[through != v].reshape(-1, 2)  # each row without v, still increasing
    pairs -= pairs > v  # removing the single vertex v shifts every label above v down by one
    lab = {x: (x if x < v else x - 1) for x in range(1, H.n + 1) if x != v}
    return Graph2(H.n - 1, tuple(sorted(map(tuple, pairs.tolist())))), lab


def complement(G: Graph2) -> Graph2:
    present = G._edge_set
    edges = [p for p in combinations(range(1, G.n + 1), 2) if p not in present]
    return Graph2(G.n, tuple(edges))


def induced(H: Hypergraph3, S: Iterable[int]) -> tuple[Hypergraph3, dict[int, int]]:
    """Subhypergraph induced by S, relabelled to 1..|S| order-preservingly."""
    fs = frozenset(S)
    for v in fs:
        if not 1 <= v <= H.n:
            raise ValueError(f"vertex {v} out of range 1..{H.n}")
    lab = {v: i for i, v in enumerate(sorted(fs), 1)}
    edges = [tuple(lab[x] for x in e) for e in H.edges if all(x in fs for x in e)]
    return Hypergraph3.from_edges(len(fs), edges), lab
