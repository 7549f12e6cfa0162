"""Exact fractional matching / vertex cover via rational simplex.

The fractional matching LP (one variable per edge, one <=1 constraint per
vertex) is solved over the rationals with Bland's rule, so the optimum is
exact and cycling-free.  The dual optimum read off the final tableau is a
minimum fractional vertex cover; primal value == dual value is the
optimality certificate and is asserted on every solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import comb, lcm
from typing import Mapping

import numpy as np

from .graphs import Hypergraph3, Triple

#: refuse the exact LP above this many potential triples unless overridden
DEFAULT_TRIPLE_LIMIT = 2000

ZERO = Fraction(0)


class LpSizeError(ValueError):
    """Instance exceeds the exact-LP size guard."""


#: with int64 entries below this bound, a pivot's products cannot overflow
_INT64_SAFE = 1 << 30

#: with a common denominator below this bound, three weights in [0, 1]
#: scaled by it sum without int64 overflow
_WEIGHT_SUM_SAFE = (1 << 61) // 3


def _integer_weights(weights: Mapping[int, Fraction], n: int) -> tuple[np.ndarray, int]:
    """Vertex weights in [0, 1] as integers over their common denominator D.

    Returns (W, D) with W[v] = weights[v] * D for each vertex v in 1..n that
    has a weight, and 0 elsewhere (W[0] is unused).  W is int64 when D is
    below _WEIGHT_SUM_SAFE and an object array of Python ints otherwise, so
    sums of three entries are exact either way.
    """
    D = reduce(lcm, (w.denominator for w in weights.values()), 1)
    W = np.zeros(n + 1, dtype=np.int64 if D < _WEIGHT_SUM_SAFE else object)
    for v, w in weights.items():
        if 1 <= v <= n:
            W[v] = w.numerator * (D // w.denominator)
    return W, D


def _simplex_core(T: np.ndarray, nv: int, m: int) -> tuple[np.ndarray, list[int], int]:
    """Bland's-rule primal simplex on an integer tableau, pivoting in place.

    `T` holds m constraint rows [A | I | b] with b >= 0 and the objective row
    [-c | 0 | 0] last; the slack columns nv..nv+m-1 are the initial basis.
    Returns (T, basis, den): the final tableau, the basic column of each row,
    and the common denominator, so T[i, j] / den is the rational entry.

    Fraction-free pivoting (Bareiss): every entry is the true rational times
    the previous pivot element, and each pivot's cross-multiplication step
    divides exactly.  Entries stay int64 while no product can overflow and
    become arbitrary-precision integers once an entry reaches _INT64_SAFE;
    after that promotion the returned T is a new object array.
    """
    rhs = nv + m
    basis = list(range(nv, nv + m))
    den = 1  # current common denominator of the tableau (always positive)
    buf = np.empty_like(T)
    while True:
        neg = np.flatnonzero(T[m, :rhs] < 0)
        if len(neg) == 0:
            break
        enter = int(neg[0])  # Bland's rule: first improving column
        col = T[:m, enter]
        leave = None
        num_l = den_l = 0  # best ratio as num_l/den_l with den_l > 0
        for i in np.flatnonzero(col > 0):
            a = int(T[i, enter])
            r = int(T[i, rhs])
            cmp = r * den_l - num_l * a  # sign of ratio_i - best_ratio
            if leave is None or cmp < 0 or (cmp == 0 and basis[i] < basis[leave]):
                num_l, den_l = r, a
                leave = int(i)
        if leave is None:
            raise ArithmeticError("LP is unbounded")  # cannot happen for matching LPs
        if T.dtype != object and max(int(T.max()), -int(T.min())) >= _INT64_SAFE:
            T = T.astype(object)
            buf = np.empty_like(T)
        piv = T[leave, enter]
        prow = T[leave].copy()
        pcol = T[:, enter].copy()
        # T <- (T * piv - pcol prow^T) / den, the division exact
        np.multiply(T, piv, out=T)
        np.multiply.outer(pcol, prow, out=buf)
        np.subtract(T, buf, out=T)
        np.floor_divide(T, den, out=T)
        T[leave] = prow
        den = int(piv)
        basis[leave] = enter
    return T, basis, den


@dataclass(frozen=True)
class FractionalAssignment:
    """Exact rational weights on edges (matching) or vertices (cover)."""

    kind: str  # "matching" | "cover"
    weights: Mapping[Triple, Fraction] | Mapping[int, Fraction]
    value: Fraction

    def __post_init__(self) -> None:
        if self.kind not in ("matching", "cover"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if sum(self.weights.values(), ZERO) != self.value:
            raise ValueError("value does not equal the sum of the weights")
        if any(not (0 <= w <= 1) for w in self.weights.values()):
            raise ValueError("weights must lie in [0, 1]")

    def validate(self, H: Hypergraph3) -> None:
        """Check exact feasibility with respect to H; raises on violation."""
        if self.kind == "matching":
            rows = [sorted(e) if len(e) == 3 else (0, 0, 0) for e in self.weights]  # (0, 0, 0) is no edge
            present = H.has_edges(rows)
            if not present.all():
                raise ValueError(f"{list(self.weights)[present.argmin()]} is not an edge of the hypergraph")
            load: dict[int, Fraction] = {}
            for e, w in self.weights.items():
                for v in e:
                    load[v] = load.get(v, ZERO) + w
            bad = [v for v, s in load.items() if s > 1]
            if bad:
                raise ValueError(f"vertex constraint violated at {bad[0]}")
        elif H.m:
            W, D = _integer_weights(self.weights, H.n)
            short = np.flatnonzero(W[H.edge_array].sum(axis=1) < D)
            if len(short):
                raise ValueError(f"edge {tuple(H.edge_array[short[0]].tolist())} is not covered")


@dataclass(frozen=True)
class DualityCertificate:
    """An optimal fractional matching with a matching-value fractional cover."""

    primal: FractionalAssignment
    dual: FractionalAssignment

    def __post_init__(self) -> None:
        if self.primal.kind != "matching" or self.dual.kind != "cover":
            raise ValueError("certificate needs a matching primal and a cover dual")
        if self.primal.value != self.dual.value:
            raise ValueError("primal and dual values differ; not a certificate")

    @property
    def value(self) -> Fraction:
        return self.primal.value


def fractional_matching(
    H: Hypergraph3,
    limit: int | None = DEFAULT_TRIPLE_LIMIT,
) -> DualityCertificate:
    """Exact nu*(H) with both the optimal matching and the optimal cover.

    `limit` guards the exact LP by the number of potential triples C(n,3);
    pass None to override.
    """
    if limit is not None and comb(H.n, 3) > limit:
        raise LpSizeError(
            f"C({H.n},3) = {comb(H.n, 3)} exceeds the exact-LP guard {limit}; "
            "pass limit=None to override"
        )
    if H.m == 0:
        primal = FractionalAssignment("matching", {}, ZERO)
        dual = FractionalAssignment("cover", {}, ZERO)
        return DualityCertificate(primal, dual)
    # The tableau [A | I | 1] over the vertices that meet an edge, with the
    # objective row [-1 | 0 | 0]: every scale is 1, so it goes to the core as is.
    E = H.edge_array
    touched = np.unique(E).tolist()
    k, m = len(touched), H.m
    row_of = np.zeros(H.n + 1, dtype=np.intp)
    row_of[touched] = np.arange(k)
    T = np.zeros((k + 1, m + k + 1), dtype=np.int64)
    T[row_of[E], np.arange(m)[:, None]] = 1
    T[np.arange(k), m + np.arange(k)] = 1
    T[:k, -1] = 1
    T[k, :m] = -1
    T, basis, den = _simplex_core(T, m, k)
    rhs = m + k
    support = sorted((bv, int(T[i, rhs])) for i, bv in enumerate(basis) if bv < m and T[i, rhs])
    primal_w = {tuple(E[j].tolist()): Fraction(x, den) for j, x in support}
    dual_w = {v: Fraction(int(T[k, m + i]), den) for i, v in enumerate(touched) if T[k, m + i]}
    primal = FractionalAssignment("matching", primal_w, Fraction(int(T[k, rhs]), den))
    dual = FractionalAssignment("cover", dual_w, sum(dual_w.values(), ZERO))
    primal.validate(H)
    dual.validate(H)
    return DualityCertificate(primal, dual)
