"""Output checks computed apart from linkspec.

Every check re-derives what it compares against from the instance's edge
list with its own code: link spectra with numpy's dense symmetric
eigensolver, matchings and covers with exact arithmetic on plain sets and
Fractions, nu* with scipy's HiGHS LP solver, perfect matchings by an
exhaustive search of its own.  Nothing here imports linkspec, so a fault in
the program cannot cancel out in its own check.  Each check raises
CheckError at the first mismatch.

Instances are given as ``n`` and a list of increasing vertex triples on
1..n; fractional weights are Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

#: program and eigvalsh link radii agree to this (absolute; radii are at most n-2)
RHO_TOL = 1e-7
#: the condition is compared only where the independent minimum radius lies
#: farther than this from the threshold
CONDITION_BAND = 1e-6
#: exact nu* and scipy's floating-point LP value agree to this
LP_TOL = 1e-9

Triple = tuple[int, int, int]


class CheckError(Exception):
    """A program output disagrees with the independent computation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def threshold(s: int, n: int) -> float:
    """The paper's bound (s-1+sqrt((s-1)^2+4s(n-s-1)))/2 on link spectral radii."""
    return 0.5 * (s - 1 + math.sqrt((s - 1) ** 2 + 4 * s * (n - s - 1)))


def link_radii(n: int, edges: Sequence[Sequence[int]]) -> np.ndarray:
    """Largest adjacency eigenvalue of every vertex link, index v-1.

    The link of v is the graph of pairs that complete an edge with v.  On
    all n vertices it has v as an isolated vertex, which adds a zero
    eigenvalue and leaves the spectral radius unchanged.
    """
    E = np.asarray(edges, dtype=np.int64).reshape(-1, 3) - 1
    radii = np.zeros(n)
    for v in range(n):
        pairs = np.concatenate([E[E[:, j] == v][:, [k for k in range(3) if k != j]] for j in range(3)])
        A = np.zeros((n, n))
        A[pairs[:, 0], pairs[:, 1]] = 1.0
        A[pairs[:, 1], pairs[:, 0]] = 1.0
        radii[v] = max(0.0, float(np.linalg.eigvalsh(A)[-1]))
    return radii


def expected_condition(radii: np.ndarray, s: int, n: int) -> str | None:
    """"holds" or "fails" from the independent minimum; None inside the band."""
    gap = float(radii.min()) - threshold(s, n)
    if gap > CONDITION_BAND:
        return "holds"
    if gap < -CONDITION_BAND:
        return "fails"
    return None


def check_spectra(
    n: int,
    s: int,
    radii: np.ndarray,
    per_vertex: Sequence[Sequence[float]],
    min_rho: float,
    thr: float,
    condition: str,
) -> None:
    """Per-vertex radii, their minimum, the threshold and the condition."""
    _require(
        [int(v) for v, _ in per_vertex] == list(range(1, n + 1)),
        "per-vertex radii do not list the vertices 1..n in order",
    )
    for v, rho in per_vertex:
        ref = float(radii[int(v) - 1])
        _require(abs(rho - ref) <= RHO_TOL, f"link radius of vertex {v}: program {rho}, eigvalsh {ref}")
    _require(
        abs(min_rho - min(rho for _, rho in per_vertex)) <= RHO_TOL,
        f"minimum radius {min_rho} is not the least per-vertex radius",
    )
    _require(abs(thr - threshold(s, n)) <= 1e-9 * max(1.0, thr), f"threshold {thr} != {threshold(s, n)}")
    expected = expected_condition(radii, s, n)
    _require(
        expected is None or condition == expected,
        f"condition {condition!r}, but the eigvalsh minimum {radii.min()} says {expected!r}",
    )


def check_matching(is_edge: Callable[[Triple], bool], triples: Iterable[Sequence[int]], at_least: int) -> None:
    """At least `at_least` pairwise disjoint edges of the hypergraph."""
    ts = [tuple(int(v) for v in t) for t in triples]
    _require(len(ts) >= at_least, f"{len(ts)} triples, need {at_least}")
    used: set[int] = set()
    for t in ts:
        _require(is_edge(t), f"{t} is not an edge")
        _require(used.isdisjoint(t), f"{t} meets another triple of the matching")
        used.update(t)


def check_duality(
    n: int,
    edges: set[Triple],
    primal: Mapping[Sequence[int], Fraction],
    dual: Mapping[int, Fraction],
) -> Fraction:
    """A fractional matching and a fractional cover of equal value; returns it.

    Feasibility of both sides and equal values prove both optimal (weak
    duality), so the value is nu*.
    """
    load = [Fraction(0)] * (n + 1)
    for e, w in primal.items():
        t = tuple(int(v) for v in e)
        _require(t in edges, f"matching weight on {t}, which is not an edge")
        _require(w >= 0, f"negative matching weight {w} on {t}")
        for v in t:
            load[v] += w
    _require(all(x <= 1 for x in load), "a vertex carries matching weight above 1")
    for v, w in dual.items():
        _require(1 <= int(v) <= n and w >= 0, f"bad cover weight {w} at vertex {v}")
    for e in edges:
        _require(sum((dual.get(v, 0) for v in e), Fraction(0)) >= 1, f"edge {e} is not covered")
    value = sum(primal.values(), Fraction(0))
    _require(value == sum(dual.values(), Fraction(0)), "matching and cover values differ")
    return value


def check_shift(
    n: int,
    edges: Iterable[Sequence[int]],
    cover: Mapping[int, Fraction],
    nu_frac: Fraction,
    order: Sequence[int],
    shifted: Sequence[Sequence[int]],
    lifted: Sequence[Sequence[int]],
    s: int,
) -> None:
    """The cover shift, its closure under down-moves, and the lifted matching.

    `order[i-1]` is the original vertex that gets the new label i.  The
    shifted set must be exactly the triples of new labels whose cover
    weights sum to at least 1, contain the relabelled hypergraph, be closed
    under lowering one coordinate by 1 while the triple stays increasing,
    and hold the s+1 pairwise disjoint lifted triples.
    """
    H = [tuple(int(v) for v in e) for e in edges]
    _require(sorted(int(v) for v in order) == list(range(1, n + 1)), "order is not a permutation of 1..n")
    w = [Fraction(0)] * (n + 1)
    for v, x in cover.items():
        w[int(v)] = Fraction(x)
    _require(sum(w, Fraction(0)) == nu_frac, "cover weights do not sum to nu*")
    for e in H:
        _require(w[e[0]] + w[e[1]] + w[e[2]] >= 1, f"edge {e} is not covered")
    new_w = [Fraction(0)] + [w[int(v)] for v in order]
    _require(all(new_w[i] >= new_w[i + 1] for i in range(1, n)), "order does not sort the weights downwards")

    got = [tuple(int(v) for v in t) for t in shifted]
    got_set = set(got)
    _require(len(got_set) == len(got), "the shifted set repeats a triple")
    for t in got:
        for j in range(3):
            u = list(t)
            u[j] -= 1
            if u[j] >= 1 and (j == 0 or u[j] > u[j - 1]):
                _require(tuple(u) in got_set, f"{tuple(u)} is below {t} but not in the shifted set")
    new_label = {int(v): i + 1 for i, v in enumerate(order)}
    for e in H:
        t = tuple(sorted(new_label[v] for v in e))
        _require(t in got_set, f"shifted set misses the relabelled edge {e} -> {t}")
    den = math.lcm(*(x.denominator for x in new_w))
    iw = [int(x * den) for x in new_w]
    expected = {t for t in combinations(range(1, n + 1), 3) if iw[t[0]] + iw[t[1]] + iw[t[2]] >= den}
    missing = expected - got_set
    _require(not missing, f"shifted set misses {min(missing) if missing else None}, whose weight is >= 1")
    extra = got_set - expected
    _require(not extra, f"shifted set holds {min(extra) if extra else None}, whose weight is < 1")
    check_matching(got_set.__contains__, lifted, s + 1)


def lp_value(n: int, edges: Sequence[Sequence[int]]) -> float:
    """nu* by scipy's HiGHS solver: max sum x_e, vertex loads <= 1, x >= 0."""
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    m = len(edges)
    if m == 0:
        return 0.0
    cols = np.repeat(np.arange(m), 3)
    rows = np.asarray(edges, dtype=np.int64).ravel() - 1
    A = coo_matrix((np.ones(3 * m), (rows, cols)), shape=(n, m)).tocsr()
    res = linprog(-np.ones(m), A_ub=A, b_ub=np.ones(n), bounds=(0, None), method="highs")
    _require(res.status == 0, f"HiGHS did not solve the LP: {res.message}")
    return -float(res.fun)


def check_nu_frac(nu_frac: Fraction, reference: float) -> None:
    _require(abs(float(nu_frac) - reference) <= LP_TOL, f"nu* {nu_frac} but HiGHS gives {reference!r}")


def has_perfect_matching(n: int, edges: Sequence[Sequence[int]]) -> bool:
    """Exhaustive search: cover the lowest uncovered vertex by each of its edges."""
    if n % 3:
        return False
    through: list[list[int]] = [[] for _ in range(n)]
    for e in edges:
        mask = sum(1 << (v - 1) for v in e)
        through[min(e) - 1].append(mask)
    full = (1 << n) - 1

    def cover(used: int) -> bool:
        if used == full:
            return True
        low = (~used & (used + 1)).bit_length() - 1  # lowest uncovered vertex
        return any(not m & used and cover(used | m) for m in through[low])

    return cover(0)


def search_expectations(instances: Iterable[tuple[int, Sequence[Sequence[int]]]], s: int) -> dict:
    """Ranges for a perfect-matching search's counts, from eigvalsh and exhaustive search.

    An instance whose independent minimum radius lies inside the comparison
    band may go either way, so each count is a (low, high) pair.
    """
    total = holds = unsure = holds_pm = unsure_pm = 0
    for n, edges in instances:
        total += 1
        cond = expected_condition(link_radii(n, edges), s, n)
        if cond == "fails":
            continue
        pm = has_perfect_matching(n, edges)
        if cond == "holds":
            holds += 1
            holds_pm += pm
        else:
            unsure += 1
            unsure_pm += pm
    return {
        "total": (total, total),
        "condition_holds": (holds, holds + unsure),
        "consistent": (holds_pm, holds_pm + unsure_pm),
        "counterexample": (holds - holds_pm, holds - holds_pm + unsure - unsure_pm),
    }


def check_search_counts(counts: Mapping[str, int], expected: Mapping[str, tuple[int, int]]) -> None:
    for key, (lo, hi) in expected.items():
        _require(lo <= counts[key] <= hi, f"{key} = {counts[key]}, independent count {lo}..{hi}")


def check_same_counts(serial: Mapping[str, int], parallel: Mapping[str, int]) -> None:
    _require(dict(serial) == dict(parallel), f"counts differ between 1 and N workers: {serial} != {parallel}")
