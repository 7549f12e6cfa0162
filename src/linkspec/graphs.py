"""Immutable 2-graph and 3-uniform hypergraph types with basic operations.

Vertices are 1-based contiguous integers.  `Graph2` and `Hypergraph3` are
the arity-2 and arity-3 cases of one edge set, whose validated, read-only
edge array the hot consumers (link spectra, the exact LP, the greedy
matching) read directly.  Operations that drop vertices relabel the
survivors order-preservingly and return the old->new label map alongside
the result.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from functools import cached_property
from typing import Iterable

import numpy as np

Pair = tuple[int, int]
Triple = tuple[int, int, int]


class _EdgeSet:
    """An edge set of `arity`-sets of the vertices 1..n.

    The edge array is the single source of truth: a read-only (m, arity)
    intp array of increasing rows in strictly increasing lexicographic
    order.  `edges` is a tuple view of it, built on first use.  The
    constructor takes the edges as an array or as an iterable of rows and
    validates them once, with array operations; an invalid edge set raises
    ValueError naming the first offending edge.  Equality and hashing mean
    "same type, same n and same edges", so that they and serialized output
    are deterministic.  Instances are immutable; lookup keys and adjacency
    are caches built on first use.
    """

    arity: int

    def __init__(self, n: int, edges: np.ndarray | Iterable[tuple[int, ...]]) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        if n >= 2**63:
            raise ValueError(f"vertex count {n} does not fit the int64 edge array")
        E = _edge_array(n, edges, self.arity)
        E.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edge_array", E)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edge_array, other.edge_array)

    def __hash__(self) -> int:
        return hash((self.n, self.edge_array.tobytes()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, edges={self.edges!r})"

    def __reduce__(self):
        return type(self), (self.n, self.edge_array)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Iterable[int]]):
        """The edge set of the given vertex sets, each in any order, repeats dropped."""
        return cls(n, tuple(sorted({tuple(sorted(e)) for e in edges})))

    @cached_property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        """The edge array as a tuple of int rows."""
        return tuple(map(tuple, self.edge_array.tolist()))

    @property
    def m(self) -> int:
        return len(self.edge_array)

    def has_edges(self, rows: np.ndarray | Iterable[tuple[int, ...]]) -> np.ndarray:
        """Whether each row of the (k, arity) integer array `rows` is an edge.

        One binary search in the edge array.  While n <= `KEY_MAX_N`, a row
        is looked up by its int64 key, its entries as digits in base n + 1
        (a(n+1)^2 + b(n+1) + c for a triple), which orders the edges
        lexicographically.  The key is injective only on entries in 0..n,
        so a row with an entry outside 1..n is answered False whatever its
        key finds (unguarded, (1, 2, 14) would find the edge (1, 3, 4) at
        n = 9).  Above `KEY_MAX_N` the keys could overflow, and the rows
        are compared as records instead.
        """
        rows = np.asarray(rows, dtype=np.intp).reshape(-1, self.arity)
        n = self.n
        if n <= KEY_MAX_N:
            labels = ((rows >= 1) & (rows <= n)).all(axis=1)
            keys = _row_keys(rows, n)
            edges = self._edge_keys
        else:
            labels = True
            keys = _row_records(rows)
            edges = _row_records(self.edge_array)
        if not len(edges):
            return np.zeros(len(keys), dtype=bool)
        i = np.searchsorted(edges, keys)
        # i is the first edge not below the key, or len(edges) if none: clamped, it still fails ==
        return labels & (edges[np.minimum(i, len(edges) - 1)] == keys)

    @cached_property
    def _edge_keys(self) -> np.ndarray:
        """The edges' int64 keys for `has_edges`, built on the first lookup: 8 bytes an edge."""
        return _row_keys(self.edge_array, self.n)

    def _check_vertex(self, v: int) -> None:
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} out of range 1..{self.n}")


class Graph2(_EdgeSet):
    """A simple graph on vertices 1..n: the 2-uniform edge set, an (m, 2) edge array."""

    arity = 2

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Neighbor bitmasks; bit (u-1) of adjacency[v-1] is set iff uv is an edge."""
        adj = [0] * self.n
        for a, b in self.edge_array.tolist():
            adj[a - 1] |= 1 << (b - 1)
            adj[b - 1] |= 1 << (a - 1)
        return tuple(adj)

    def has_edge(self, a: int, b: int) -> bool:
        return bool(self.has_edges([(min(a, b), max(a, b))])[0])


class Hypergraph3(_EdgeSet):
    """A 3-uniform hypergraph on vertices 1..n: the 3-uniform edge set, an (m, 3) edge array."""

    arity = 3

    def has_edge(self, e: Iterable[int]) -> bool:
        t = sorted(e)
        return len(t) == 3 and bool(self.has_edges([t])[0])


#: the largest n whose row keys, at most (n+1)^3 - 1 for a triple, fit in int64
KEY_MAX_N = 2**21 - 1
_NOUN = {2: "pair", 3: "triple"}


def _row_keys(rows: np.ndarray, n: int) -> np.ndarray:
    """The key of each row of the (k, arity) intp array `rows`: its entries as digits in base n + 1."""
    base = n + 1
    keys = rows[:, 0]
    for column in rows.T[1:]:
        keys = keys * base + column
    return keys


def _row_records(rows: np.ndarray) -> np.ndarray:
    """Each row of the (k, arity) intp array `rows` as one record, so that rows compare lexicographically."""
    row = np.dtype([(f"x{j}", np.intp) for j in range(rows.shape[1])])
    return np.ascontiguousarray(rows).view(row).ravel()


def _increasing(E: np.ndarray) -> np.ndarray:
    """Whether each row of E increases strictly."""
    columns = E.T  # column by column: a 2-d comparison of strided columns is about 5x slower
    out = columns[0] < columns[1]
    for lo, hi in zip(columns[1:], columns[2:]):
        out &= lo < hi
    return out


def _edge_array(n: int, edges: np.ndarray | Iterable[tuple[int, ...]], arity: int) -> np.ndarray:
    """`edges` as a fresh (m, arity) intp array, checked to be a valid edge set on 1..n."""
    if not isinstance(edges, np.ndarray):
        edges = tuple(edges)
    try:
        E = np.asarray(edges)
    except ValueError:  # rows of different lengths
        E = None
    if E is not None and len(E) == 0:
        return np.empty((0, arity), dtype=np.intp)
    if E is None or E.ndim != 2 or E.shape[1] != arity or E.dtype.kind not in "iu":
        # some row is no int64 row of `arity` entries; an earlier row's fault is reported first
        i = next(i for i, e in enumerate(edges) if np.shape(e) != (arity,) or np.asarray(e).dtype.kind not in "iu")
        _raise_first_bad_row(n, np.array(edges[:i], dtype=np.intp).reshape(-1, arity))
        e = edges[i]
        ints = np.shape(e) == (arity,) and all(isinstance(v, (int, np.integer)) for v in e)
        if ints and all(x < y for x, y in zip(e, e[1:])):
            raise ValueError(f"edge {e} out of range 1..{n}")  # a label beyond int64, and n < 2**63
        raise ValueError(f"edge {e} is not an increasing {_NOUN[arity]}")
    E = E.astype(np.intp, order="C")
    if not (_increasing(E).all() and E.min() >= 1 and E.max() <= n and lex_increasing(E)):
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

    The rows of E are pairs or triples.  A repeat is a row equal to an
    earlier one: after a stable sort of the rows' keys, one whose key
    equals its predecessor's.  While n <= `KEY_MAX_N` the keys are the
    int64 keys of `has_edges`, which are injective on rows with entries in
    1..n; every other row is flagged anyway and gets a key of its own.
    Above it the rows are records.
    """
    unordered = ~_increasing(E)
    outside = (E[:, 0] < 1) | (E[:, -1] > n)
    if n <= KEY_MAX_N:  # about 13x faster to sort than records at n = 100
        keys = np.where(unordered | outside, -1 - np.arange(len(E)), _row_keys(E, n))
    else:
        keys = _row_records(E)
    order = np.argsort(keys, kind="stable")  # equal keys stay in row order
    repeat = np.zeros(len(E), dtype=bool)
    repeat[order[1:]] = keys[order[1:]] == keys[order[:-1]]
    bad = unordered | outside | repeat
    if bad.any():
        i = int(bad.argmax())
        e = tuple(E[i].tolist())
        if unordered[i]:
            raise ValueError(f"edge {e} is not an increasing {_NOUN[E.shape[1]]}")
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
    # already sorted, as E is: (a, b) from (a, b, v) or (a, v, b) for a < v, then (b, c) from (v, b, c)
    return Graph2(H.n - 1, pairs), lab


def complement(G: Graph2) -> Graph2:
    pairs = np.stack(np.triu_indices(G.n, 1), axis=1) + 1  # every pair, in lexicographic order
    return Graph2(G.n, pairs[~G.has_edges(pairs)])


def induced(H: Hypergraph3, S: Iterable[int]) -> tuple[Hypergraph3, dict[int, int]]:
    """Subhypergraph induced by S, relabelled to 1..|S| order-preservingly."""
    fs = frozenset(S)
    for v in fs:
        if not 1 <= v <= H.n:
            raise ValueError(f"vertex {v} out of range 1..{H.n}")
    lab = {v: i for i, v in enumerate(sorted(fs), 1)}
    edges = [tuple(lab[x] for x in e) for e in H.edges if all(x in fs for x in e)]
    return Hypergraph3.from_edges(len(fs), edges), lab
