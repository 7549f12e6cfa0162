"""Exact fractional matching / vertex cover via rational simplex.

The fractional matching LP (one variable per edge, one <=1 constraint per
vertex) is solved over the rationals by a revised primal simplex with
Bland's rule, so the optimum is exact and cycling-free.  The solver keeps
only the fraction-free (Bareiss) inverse of the current basis, a
(k+1) x (k+2) integer block for the k vertices that meet an edge, and
prices the edge columns from the edge array when it needs them: a pivot
costs O(w nv + k^2) for nv columns of w nonzeros each (w = 3 here),
against O(k (nv + k)) for rewriting a full tableau.  Its pivots are the
ones the full fraction-free tableau takes.  The dual optimum read off the
final block is a minimum fractional vertex cover; primal value == dual
value is the optimality certificate and is asserted on every solve.
Both certificates are integer numerators over the solver's one common
denominator, from the final block to the checks and the cover shift.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb

import numpy as np

from .graphs import Hypergraph3, Triple

#: refuse the exact LP above this many potential triples unless overridden
DEFAULT_TRIPLE_LIMIT = 2000


class LpSizeError(ValueError):
    """Instance exceeds the exact-LP size guard; args[0] says by how much."""

    def __str__(self) -> str:
        return f"{self.args[0]}; pass limit=None to override"


#: products below _INT64_SAFE**2 = 2**62 differ by less than 2**63, so the
#: difference of two fits in int64
_INT64_SAFE = 1 << 31

#: reduced costs are computed this many columns at a time, up to the first
#: block holding an improving column: at n = 32 the Bland column entering
#: the basis has median index about 360 of 2 500
_PRICE_BLOCK = 512


def _int_dtype(bound: int) -> type:
    """The one overflow rule: int64 for exact integer work whose products and
    partial sums stay below `bound` < _INT64_SAFE**2, else Python ints."""
    return np.int64 if bound < _INT64_SAFE**2 else object


def _simplex_core(
    rows: np.ndarray, coef: np.ndarray, c: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, list[int], int]:
    """Bland's-rule revised primal simplex in integers: maximize c.x s.t. A x <= b, x >= 0.

    Column j of the k x nv matrix A is given sparsely: A[rows[j, t], j] =
    coef[j, t] for t < w, with `rows` and `coef` of shape (nv, w) (pad with
    coefficient 0); c has length nv and b >= 0 length k, all int64.
    Columns are numbered structural 0..nv-1, then slacks nv..nv+k-1, which
    are the initial basis.  Returns (R, basis, den): the final block, the
    basic column of each row, and the common denominator, so R[i, j] / den
    is the rational entry.

    What is stored.  Take the objective as row k, with -c_j in column j,
    and let B^ be the (k+1) x (k+1) basis of [A ; -c] together with the
    objective's unit column.  R is den * [B^-1 | B^-1 b] with b extended by
    a 0, that is

        den * [ B^-1   0 | B^-1 b ]
              [ y^T    1 |   z    ]

    for the duals y and the value z, so R[k, k] == den.  The tableau column
    of structural j is R @ [A_j ; -c_j]: its last entry is j's reduced cost.
    Reduced costs are gathered from row k of R through `rows` and `coef`,
    _PRICE_BLOCK columns at a time up to the first block with an improving
    column, and the entering column from w + 1 columns of R, so a pivot
    costs O(w nv + k^2), against O(k (nv + k)) for updating a full tableau.

    Why the pivots are the full tableau's.  Fraction-free (Bareiss)
    pivoting keeps every tableau entry equal to den times the rational
    entry, den being the last pivot.  R holds the full tableau's slack and
    right-hand-side columns (and its objective column), updated by the same
    formula, and a priced column is den times the rational column, so each
    number compared is the integer the full tableau holds.  Bland's rule
    scans the same columns in the same order (structural, then slack) and
    the ratio test breaks ties by the lowest basic column, so the pivots,
    the basis, den, the primal and the dual are the full tableau's.

    Overflow.  Entries stay int64 while no step can overflow and become
    Python ints otherwise; after that promotion R is an object array.  Let
    M = max |R| (den = R[k, k] is included, so M >= 1) and S = (w + 1) *
    max |[coef | c]|, at least 1.  A reduced cost or entering-column entry
    is never stored: it is a sum of at most w + 1 products of an R entry
    and a coefficient, so it and each of its partial sums are at most M S
    in size; a slack's column is a column of R, at most M.  The update
    R * piv - pcol prow^T multiplies a stored entry by a priced one, so
    each product is at most M^2 S, and the difference fits in int64 when
    M^2 S < _INT64_SAFE^2 = 2^62, the bound _int_dtype tests.  The test
    runs before each pivot's pricing, on a bound on M carried from pivot to
    pivot: an updated entry is at most (M |piv| + |pcol| M) / den, for
    |pcol| the largest entering-column entry, and the pivot row is kept.
    Only when the carried bound fails the test is M measured, and R
    promoted if M fails it too, so R is promoted at the pivot where the
    measured M first fails.
    """
    (nv, w), k = rows.shape, len(b)
    # (w + 1, nv) copies with the objective row k last: a pricing gather reads them row by row
    rows, coef = np.vstack([rows.T, np.full(nv, k)]), np.vstack([coef.T, np.negative(c)])
    scale = max(1, (w + 1) * max(int(coef.max()), -int(coef.min())))
    blocks = [
        (lo, rows[:, lo : lo + _PRICE_BLOCK], coef[:, lo : lo + _PRICE_BLOCK]) for lo in range(0, nv, _PRICE_BLOCK)
    ]
    R = np.eye(k + 1, k + 2, dtype=np.int64)
    R[:k, k + 1] = b
    basis = list(range(nv, nv + k))
    den = 1  # current common denominator of the block (always positive)
    bound = int(np.abs(R).max())  # at least max |R| while R is int64, and equal to it when measured
    while True:
        if R.dtype != object and _int_dtype(bound**2 * scale) is object:
            bound = int(np.abs(R).max())
            if _int_dtype(bound**2 * scale) is object:
                R = R.astype(object)  # an object array times an int64 one multiplies Python ints
        y = R[k]
        for lo, block_rows, block_coef in blocks:  # Bland's rule: the first improving column
            priced = y.take(block_rows)
            priced *= block_coef
            priced = priced.sum(axis=0)
            enter = int((priced < 0).argmax())
            if priced[enter] < 0:
                enter += lo
                pcol = R[:, rows[:, enter]] @ coef[:, enter]
                break
        else:  # no structural column improves: try the slacks
            slack = int((y[:k] < 0).argmax())
            if y[slack] >= 0:
                break
            enter = nv + slack
            pcol = R[:, slack]
        leave = None
        num_l = den_l = 0  # best ratio as num_l/den_l with den_l > 0
        for i, (a, r) in enumerate(zip(pcol[:k].tolist(), R[:k, k + 1].tolist())):
            if a <= 0:
                continue
            cmp = r * den_l - num_l * a  # sign of ratio_i - best_ratio
            if leave is None or cmp < 0 or (cmp == 0 and basis[i] < basis[leave]):
                num_l, den_l = r, a
                leave = i
        if leave is None:
            raise ArithmeticError("LP is unbounded")  # cannot happen for matching LPs
        piv = int(pcol[leave])
        R = _pivot(R, pcol, leave, den)
        if R.dtype != object:
            bound = max(bound, bound * (abs(piv) + int(np.abs(pcol).max())) // den)
        den = piv
        basis[leave] = enter
    return R, basis, den


def _pivot(R: np.ndarray, pcol: np.ndarray, leave: int, den: int) -> np.ndarray:
    """The fraction-free pivot on row `leave` of entering column `pcol`:
    (R * piv - pcol R[leave]^T) / den, the division exact, with row leave kept."""
    prow = R[leave]
    out = (R * pcol[leave] - np.multiply.outer(pcol, prow)) // den
    out[leave] = prow
    return out


@dataclass(frozen=True)
class FractionalAssignment:
    """Exact weights num[i] / den on the edge rows (matching) or the vertex
    labels (cover) in `support`, over one positive denominator den."""

    kind: str  # "matching" | "cover"
    support: tuple[Triple, ...] | tuple[int, ...]
    num: tuple[int, ...]
    den: int

    def __post_init__(self) -> None:
        if self.kind not in ("matching", "cover"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if len(self.support) != len(self.num):
            raise ValueError("support and numerators differ in length")
        if self.den <= 0:
            raise ValueError(f"denominator must be positive, got {self.den}")
        if any(not (0 <= x <= self.den) for x in self.num):
            raise ValueError("weights must lie in [0, 1]")

    @cached_property
    def value(self) -> Fraction:
        return Fraction(sum(self.num), self.den)

    @cached_property
    def weights(self) -> dict[Triple, Fraction] | dict[int, Fraction]:
        """The nonzero weights as Fractions, in support order."""
        return {key: Fraction(x, self.den) for key, x in zip(self.support, self.num) if x}

    def vertex_numerators(self, n: int) -> np.ndarray:
        """A cover's numerators by vertex 0..n, in a dtype where three of them sum exactly."""
        W = np.zeros(n + 1, dtype=_int_dtype(3 * self.den))
        for v, x in zip(self.support, self.num):
            if 1 <= v <= n:
                W[v] = x
        return W

    def validate(self, H: Hypergraph3) -> None:
        """Check exact feasibility with respect to H; raises on violation."""
        if self.kind == "matching":
            rows = [sorted(e) if len(e) == 3 else (0, 0, 0) for e in self.support]  # (0, 0, 0) is no edge
            present = H.has_edges(rows)
            if not present.all():
                raise ValueError(f"{self.support[present.argmin()]} is not an edge of the hypergraph")
            load: dict[int, int] = {}
            for e, x in zip(self.support, self.num):
                for v in e:
                    load[v] = load.get(v, 0) + x
            bad = [v for v, total in load.items() if total > self.den]
            if bad:
                raise ValueError(f"vertex constraint violated at {bad[0]}")
        elif H.m:
            short = np.flatnonzero(self.vertex_numerators(H.n)[H.edge_array].sum(axis=1) < self.den)
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
        raise LpSizeError(f"C({H.n},3) = {comb(H.n, 3)} exceeds the exact-LP guard {limit}")
    if H.m == 0:
        primal, dual = FractionalAssignment("matching", (), (), 1), FractionalAssignment("cover", (), (), 1)
        return DualityCertificate(primal, dual)
    # A over the vertices that meet an edge: column j has a 1 in each of
    # edge j's three vertex rows; c and b are all ones
    E = H.edge_array
    touched = np.flatnonzero(np.bincount(E.ravel())).tolist()  # np.unique would import numpy.ma
    k, m = len(touched), H.m
    row_of = np.zeros(H.n + 1, dtype=np.intp)
    row_of[touched] = np.arange(k)
    R, basis, den = _simplex_core(
        row_of[E], np.ones((m, 3), dtype=np.int64), np.ones(m, dtype=np.int64), np.ones(k, dtype=np.int64)
    )
    # the nonzero basic edges in edge order, and the nonzero duals
    x = sorted((j, xj) for j, xj in zip(basis, R[:k, k + 1].tolist()) if j < m and xj)
    y = [(v, yv) for v, yv in zip(touched, R[k, :k].tolist()) if yv]
    primal = FractionalAssignment(
        "matching", tuple(tuple(E[j].tolist()) for j, _ in x), tuple(xj for _, xj in x), den
    )
    dual = FractionalAssignment("cover", tuple(v for v, _ in y), tuple(yv for _, yv in y), den)
    primal.validate(H)
    dual.validate(H)
    return DualityCertificate(primal, dual)
