"""Theorem/conjecture condition checking and counterexample search.

Condition checks compare the minimum link spectral radius against the
matching threshold with a comparison slack: values within the slack of the
threshold are classified indeterminate, never silently put on either side,
because the hypotheses are strict inequalities and the extremal families
sit exactly on the boundary.  A "holds" or "fails" also needs the exact
Collatz-Wielandt certificates of the link spectra; without them it is
indeterminate too.

Verdict semantics: a failed conclusion outside the statement's own
hypothesis is ``skipped`` with a note, in every mode, since the statement
says nothing there.  Inside it, a violation of a proven statement is tagged
``bug_suspect`` (an implementation bug, by definition) and a violation of a
conjecture ``counterexample`` (a reportable finding).
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import comb, nan
from typing import Iterable, Sequence

import numpy as np

from .constructions import hypergraph_from_bitmask, lex_triple_array, lex_triples, random_3graph
from .graphs import Graph2, Hypergraph3
from .lp import (
    DEFAULT_TRIPLE_LIMIT,
    DualityCertificate,
    FractionalAssignment,
    LpSizeError,
    fractional_matching,
)
from .matching import DEFAULT_BUDGET, Matching3, find_matching_of_size
from .spectral import (
    DEFAULT_COMPARISON_SLACK,
    DEFAULT_TOLERANCE,
    LINK_CHUNK_BYTES,
    LinkSpectra,
    Threshold,
    classify_condition,
    degree_quotients_clear,
    exact_threshold_match,
    link_spectra,
    link_spectra_block,
    spectral_radius,
    threshold_match,
)

MODES = ("thm12", "thm13", "conj_matching", "conj_pm")


class LiftFailure(RuntimeError):
    """The last link of the shifted hypergraph has no matching of size s+1."""

    def __init__(self, link_nu: int):
        super().__init__(f"link matching number is only {link_nu}")
        self.link_nu = link_nu


@dataclass(frozen=True)
class CheckReport:
    """One instance's spectral condition check, with optional conclusion."""

    instance_id: str
    n: int
    s: int
    mode: str | None
    per_vertex_rho: tuple[tuple[int, float], ...]
    min_rho: float
    threshold: float
    condition: str  # "holds" | "fails" | "indeterminate"
    nu: int | None = None
    nu_frac: Fraction | None = None
    perfect_matching: bool | None = None
    verdict: str = "skipped"  # "consistent" | "counterexample" | "bug_suspect" | "skipped"
    witness: Matching3 | DualityCertificate | None = None
    notes: tuple[str, ...] = ()
    instance: Hypergraph3 | None = None


def check_condition(
    H: Hypergraph3,
    s: int,
    tolerance: float = DEFAULT_TOLERANCE,
    eps: float = DEFAULT_COMPARISON_SLACK,
    link_rho: Sequence[float] | LinkSpectra | None = None,
    instance_id: str = "",
) -> CheckReport:
    """Spectral part only: per-vertex link radii, the minimum, and the verdict.

    The radii come from :func:`link_spectra`, whose exact certificates back
    every "holds" and "fails"; a verdict they cannot back is
    "indeterminate", with a note naming the vertices.  `link_rho` may supply
    the link spectra precomputed, or plain per-vertex radii (index v-1),
    which are then taken as given.
    """
    if H.n == 0:
        return CheckReport(instance_id, 0, s, None, (), 0.0, 0.0, "fails")
    threshold = exact_threshold_match(s, H.n)
    if link_rho is None:
        link_rho = link_spectra(H, tolerance)
    if isinstance(link_rho, LinkSpectra):
        rhos = list(link_rho.rho)
        condition, uncertified = link_rho.condition(threshold, eps)
    else:
        rhos = [float(x) for x in link_rho]
        condition = classify_condition(min(rhos, default=0.0), threshold.value, eps, True)
        uncertified: tuple[int, ...] = ()
    if len(rhos) != H.n:
        raise ValueError("link_rho must have one entry per vertex")
    notes: tuple[str, ...] = ()
    if uncertified:
        vertices = ", ".join(map(str, uncertified))
        notes = (f"indeterminate: link spectral radius not certified at vertices {vertices}",)
    return CheckReport(
        instance_id=instance_id,
        n=H.n,
        s=s,
        mode=None,
        per_vertex_rho=tuple((v, rhos[v - 1]) for v in range(1, H.n + 1)),
        min_rho=min(rhos),
        threshold=threshold.value,
        condition=condition,
        notes=notes,
    )


def check_thm11(
    H: Hypergraph3,
    gamma: float,
    tolerance: float = DEFAULT_TOLERANCE,
    eps: float = DEFAULT_COMPARISON_SLACK,
    link_rho: LinkSpectra | None = None,
) -> tuple[str, float, float]:
    """Certified three-way verdict for min link rho > (2/3 + gamma) n.

    The threshold is the exact value of that float.  The underlying
    statement is asymptotic; this only reports the condition.  `link_rho`
    may supply the link spectra precomputed.
    """
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    spectra = link_spectra(H, tolerance) if link_rho is None else link_rho
    threshold = (2.0 / 3.0 + gamma) * H.n
    condition, _ = spectra.condition(Threshold.of_float(threshold), eps)
    return condition, min(spectra.rho, default=0.0), threshold


def _hypothesis_notes(n: int, s: int, mode: str) -> list[str]:
    notes = []
    if mode == "thm12" and n < 100 * s:
        notes.append(f"n={n} < 100s: outside the proven range, conjecture territory")
    if mode in ("thm13", "conj_matching", "conj_pm") and n < 3 * s + 3:
        notes.append(f"n={n} < 3s+3={3 * s + 3}: hypothesis of the statement violated")
    if mode == "conj_pm" and n != 3 * s + 3:
        notes.append(f"perfect-matching mode needs n = 3s+3, got n={n}")
    return notes


def verify_theorem(
    H: Hypergraph3,
    s: int,
    mode: str,
    budget: int = DEFAULT_BUDGET,
    tolerance: float = DEFAULT_TOLERANCE,
    eps: float = DEFAULT_COMPARISON_SLACK,
    lp_limit: int | None = DEFAULT_TRIPLE_LIMIT,
    link_rho: Sequence[float] | LinkSpectra | None = None,
    instance_id: str = "",
) -> CheckReport:
    """Check the spectral hypothesis and, when it holds, the exact conclusion."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    rep = check_condition(H, s, tolerance, eps, link_rho, instance_id)
    notes = _hypothesis_notes(H.n, s, mode)
    rep = replace(rep, mode=mode, notes=tuple(notes) + rep.notes)
    if rep.condition != "holds":
        return rep
    return _conclude(H, rep, bool(notes), budget, lp_limit)


def _conclude(
    H: Hypergraph3, rep: CheckReport, outside: bool, budget: int, lp_limit: int | None
) -> CheckReport:
    """The conclusion step of :func:`verify_theorem`, for a report whose condition holds.

    `outside` says that H lies outside the hypothesis of the statement of
    rep.mode, where a failed conclusion is skipped.
    """
    s, mode = rep.s, rep.mode
    if mode == "conj_pm" and H.n != 3 * s + 3:
        return replace(rep, notes=rep.notes + ("skipped: conclusion undefined at this n",))

    witness, decided = find_matching_of_size(H, H.n // 3 if mode == "conj_pm" else s + 1, budget)
    if witness is not None:
        pfm = True if mode == "conj_pm" else None
        return replace(rep, verdict="consistent", perfect_matching=pfm, witness=witness)
    if mode == "thm13":  # no integral witness: the exact LP decides nu* >= s+1
        try:
            cert = fractional_matching(H, lp_limit)
        except LpSizeError as exc:
            return replace(rep, notes=rep.notes + (f"skipped: {exc}",))
        pfm = cert.value == Fraction(H.n, 3) if H.n == 3 * s + 3 else None
        rep = replace(rep, nu_frac=cert.value, perfect_matching=pfm, witness=cert)
        if cert.value >= s + 1:
            return replace(rep, verdict="consistent")
    elif not decided:
        return replace(rep, notes=rep.notes + ("skipped: search budget exhausted",))
    elif mode == "conj_pm":
        rep = replace(rep, perfect_matching=False)
    if outside:  # no statement says anything outside its hypothesis
        return replace(rep, notes=rep.notes + ("skipped: conclusion fails outside the hypothesis",))
    if mode.startswith("conj"):
        return replace(rep, verdict="counterexample", instance=H)
    return replace(rep, verdict="bug_suspect", instance=H)


# ---------------------------------------------------------------------------
# Fractional cover shifting and the link-matching lift


@dataclass(frozen=True)
class ShiftedPair:
    """A hypergraph's minimum fractional cover and its shifted closure.

    `order` lists original vertex labels by descending cover weight (ties by
    label), so new label i corresponds to original vertex order[i-1].  The
    shifted hypergraph contains every triple whose cover weight sum is at
    least 1; it is shift-closed and preserves nu* exactly.
    """

    cover: FractionalAssignment
    order: tuple[int, ...]
    shifted: Hypergraph3
    nu_frac: Fraction


def shift(H: Hypergraph3, lp_limit: int | None = DEFAULT_TRIPLE_LIMIT) -> ShiftedPair:
    """Build the weight-closure of H under a minimum fractional vertex cover.

    Verifies exactly that the shifted hypergraph contains the relabelled
    original; it then has the same fractional matching number (see below).
    """
    cert = fractional_matching(H, lp_limit)
    W = cert.dual.vertex_numerators(H.n)
    w = W.tolist()
    order = tuple(sorted(range(1, H.n + 1), key=lambda v: (-w[v], v)))
    # cover weight sum >= 1, exactly: new label i carries numerator W[order[i-1]] over den
    triples = lex_triple_array(H.n)
    shifted = Hypergraph3(H.n, triples[W[[0, *order]][triples].sum(axis=1) >= cert.dual.den])
    new_label = np.argsort([0, *order])  # the inverse permutation: old label -> new
    kept = shifted.has_edges(np.sort(new_label[H.edge_array], axis=1))
    if not kept.all():
        e = tuple(H.edge_array[kept.argmin()].tolist())
        raise AssertionError(f"shifted hypergraph misses relabelled edge {e}")
    # nu* preservation is certified by exact weak duality rather than a
    # second LP solve: the relabelled optimal matching of H is feasible in
    # the shifted hypergraph (edge inclusion, verified above), and the
    # relabelled cover is feasible for it with the same value, because the
    # shifted edges are by definition the triples whose relabelled cover
    # numerators sum to at least den: an edge-cover check of `shifted`
    # would recompute the same integer sums, so it could not fail.  Hence
    # nu*(H) <= nu*(shifted) <= tau* witness = nu*(H).
    return ShiftedPair(cert.dual, order, shifted, cert.value)


def shift_closure_holds(shifted: Hypergraph3) -> bool:
    """Whether every increasing triple coordinatewise below an edge is an edge.

    A triple set is down-closed in this sense if and only if it is closed
    under elementary moves, which lower one coordinate by 1 while the triple
    stays strictly increasing: lowering the first coordinate, then the
    second, then the third walks from any edge to any triple below it.  So
    it suffices to look up the at most three elementary predecessors of each
    edge, O(m) binary searches in all.
    """
    E = shifted.edge_array.T  # (3, m), so that each step runs along the edges
    floor = np.zeros_like(E)  # lowering coordinate t must keep it above floor[t]
    floor[1:] = E[:-1]
    # lowered[:, t, i] is edge i with coordinate t lowered by 1
    lowered = E[:, None, :] - np.eye(3, dtype=E.dtype)[:, :, None]
    predecessors = lowered.reshape(3, -1).compress((E - 1 > floor).ravel(), axis=1)
    return bool(shifted.has_edges(predecessors.T).all())


def lift_link_matching(P: ShiftedPair, s: int) -> Matching3:
    """Lift a link matching of the last shifted vertex to a 3-graph matching.

    Requires `P.shifted` to be shift-closed (every increasing triple
    coordinatewise below an edge is an edge), which `shift` guarantees.
    Then the link of vertex n is a shifted graph, and a shifted graph has a
    matching of size k if and only if it holds the k canonical pairs
    {i, 2k+1-i}, i = 1..k (Frankl 1987).  So the lift looks up these pairs
    for every k <= s+1: they decide whether the link has a matching of
    size s+1, and otherwise give its matching number for the
    `LiftFailure`.  The canonical pairs for k = s+1 are joined, in order,
    to the smallest unused vertices: {i, 2s+3-i, 2s+2+i} lies below the
    edge {i, 2s+3-i, n}, since 2s+2+i <= 3s+3 <= n.  The lifted triples
    are looked up in the same call and asserted to be edges.
    """
    n = P.shifted.n
    if s < 0:
        raise ValueError(f"s must be nonnegative, got {s}")
    if n < 3 * s + 3:
        raise ValueError(f"need n >= 3s+3, got n={n}, s={s}")
    # the canonical pairs of every size k <= s+1 with n, then the lifted triples: one lookup
    canonical = [(i, 2 * k + 1 - i, n) for k in range(1, s + 2) for i in range(1, k + 1)]
    lifted = [(i, 2 * s + 3 - i, 2 * s + 2 + i) for i in range(1, s + 2)]
    present = P.shifted.has_edges(canonical + lifted).tolist()
    # size k's canonical triples are rows k(k-1)/2 .. k(k+1)/2 - 1
    link_nu = max(k for k in range(s + 2) if all(present[k * (k - 1) // 2 : k * (k + 1) // 2]))
    if link_nu < s + 1:
        raise LiftFailure(link_nu)
    for e, ok in zip(lifted, present[len(canonical) :]):
        if not ok:
            raise AssertionError(f"lifted triple {e} missing; shift-closure violated")
    return Matching3(tuple(lifted))


# ---------------------------------------------------------------------------
# Absorbing sets and the removal edge-count lemma


def _splits_into_edges(mask: int, thirds: list[list[int]]) -> bool:
    """Whether the vertex set `mask` is a disjoint union of edges (exhaustive).

    Bit x of thirds[a][b] says that {a, b, x} is an edge, for a < b < x.
    The smallest vertex a of the set must lie on one of the edges, so each
    edge {a, b, x} within the set is tried in turn, and the rest of the set
    is split the same way.
    """
    if not mask:
        return True
    a = (mask & -mask).bit_length() - 1
    rest = mask ^ 1 << a
    bs = rest
    while bs:
        low_b = bs & -bs
        bs ^= low_b
        xs = thirds[a][low_b.bit_length() - 1] & rest
        while xs:
            low_x = xs & -xs
            if _splits_into_edges(rest ^ low_b ^ low_x, thirds):
                return True
            xs ^= low_x
    return False


#: most candidate 6-sets absorbing_sets scans, which allows n <= 25; at n = 25,
#: p = 0.7 its 74 613 sets took about 0.25 s on a 2-vCPU VM
MAX_ABSORB_SIX_SETS = 10**5


def absorbing_sets(H: Hypergraph3, T: Iterable[int]) -> list[tuple[int, ...]]:
    """All 6-sets A disjoint from T with nu(H[A]) >= 2 and nu(H[A+T]) >= 3.

    Every one of the C(n-3, 6) candidate sets is scanned, so a ValueError
    refuses a scan of more than MAX_ABSORB_SIX_SETS of them.  Two disjoint
    edges within six vertices cover them, and three within nine cover them,
    so both conditions ask whether a vertex set splits into edges; that
    search reads each edge {a, b, x} from the edges' bitmask of x per pair
    a < b, so it never scans the edge list.
    """
    ts = tuple(sorted(set(T)))
    if len(ts) != 3:
        raise ValueError(f"T must have exactly 3 vertices, got {ts}")
    for v in ts:
        if not 1 <= v <= H.n:
            raise ValueError(f"vertex {v} out of range 1..{H.n}")
    count = comb(H.n - 3, 6)
    if count > MAX_ABSORB_SIX_SETS:
        raise ValueError(
            f"absorbing sets at n={H.n} scan C({H.n - 3},6) = {count} six-sets, "
            f"more than the limit {MAX_ABSORB_SIX_SETS}"
        )
    rest = [v for v in range(1, H.n + 1) if v not in ts]
    thirds = [[0] * (H.n + 1) for _ in range(H.n + 1)]
    for a, b, c in H.edge_array.tolist():
        thirds[a][b] |= 1 << c
    t_mask = sum(1 << v for v in ts)
    out = []
    for A in combinations(rest, 6):
        a_mask = sum(1 << v for v in A)
        if _splits_into_edges(a_mask, thirds) and _splits_into_edges(a_mask | t_mask, thirds):
            out.append(A)
    return out


@dataclass(frozen=True)
class RemovalEdgeCountVerdict:
    """Outcome of the spectral-to-removed-edge-count implication check."""

    status: str  # "not_applicable" | "holds" | "violated"
    rho: float
    threshold: float
    witness_R: tuple[int, ...] | None = None
    edges_after: int | None = None
    required_double: int | None = None  # 2 e(G-R) must exceed this integer


def lemma25_check(G: Graph2, s: int, max_r: int) -> RemovalEdgeCountVerdict:
    """Exhaustively verify e(G-R) > (s-r)(n-s)/2 for all |R| <= min(max_r, s).

    Applicable only when rho(G) strictly exceeds the s-parameter split-graph
    value (with comparison slack); the count comparison is exact in integers.
    """
    n = G.n
    if n < s + 1:
        raise ValueError(f"need n >= s+1, got n={n}, s={s}")
    threshold = threshold_match(s, n + 1)
    rho = spectral_radius(G).value
    if rho <= threshold + DEFAULT_COMPARISON_SLACK:
        return RemovalEdgeCountVerdict("not_applicable", rho, threshold)
    verts = range(1, n + 1)
    for r in range(0, min(max_r, s) + 1):
        for R in combinations(verts, r):
            rs = set(R)
            e_after = sum(1 for a, b in G.edges if a not in rs and b not in rs)
            if 2 * e_after <= (s - r) * (n - s):
                return RemovalEdgeCountVerdict(
                    "violated", rho, threshold, R, e_after, (s - r) * (n - s)
                )
    return RemovalEdgeCountVerdict("holds", rho, threshold)


# ---------------------------------------------------------------------------
# Search


_COUNT_KEYS = (
    "total",
    "condition_holds",
    "consistent",
    "counterexample",
    "bug_suspect",
    "indeterminate",
    "skipped",
)


@dataclass(frozen=True)
class SearchSummary:
    space: str
    n: int
    s: int
    mode: str
    counts: dict[str, int] = field(compare=False)
    violations: tuple[CheckReport, ...] = ()

    @property
    def found_counterexample(self) -> bool:
        return self.counts["counterexample"] > 0


def _new_counts() -> dict[str, int]:
    return {k: 0 for k in _COUNT_KEYS}


def _tally(counts: dict[str, int], rep: CheckReport) -> None:
    counts["total"] += 1
    if rep.condition == "holds":
        counts["condition_holds"] += 1
    if rep.condition == "indeterminate":
        counts["indeterminate"] += 1
    if rep.verdict == "skipped":
        counts["skipped"] += 1
    else:
        counts[rep.verdict] += 1


def _rho_table(k: int) -> np.ndarray:
    """Exact-eigensolver spectral radii of all graphs on k vertices, by pair bitmask."""
    pairs = list(combinations(range(k), 2))
    table = np.zeros(1 << len(pairs))
    A = np.zeros((k, k))
    for mask in range(1, 1 << len(pairs)):
        A[:] = 0.0
        mm = mask
        while mm:
            low = mm & -mm
            i, j = pairs[low.bit_length() - 1]
            mm ^= low
            A[i, j] = A[j, i] = 1.0
        table[mask] = max(0.0, float(np.linalg.eigvalsh(A)[-1]))
    return table


def _link_bit_maps(n: int) -> list[list[tuple[int, int]]]:
    """For each vertex v: (triple bit, link pair bit) for every triple through v."""
    triples = lex_triples(n)
    pair_index = {p: i for i, p in enumerate(combinations(range(1, n), 2))}
    maps: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for tb, t in enumerate(triples):
        for v in t:
            a, b = (x for x in t if x != v)
            lab = lambda x: x if x < v else x - 1  # noqa: E731
            maps[v - 1].append((tb, pair_index[(lab(a), lab(b))]))
    return maps


#: search_exhaustive scans all 2^C(n,3) instances only up to this C(n,3), that is n <= 6
MAX_ENUMERABLE_TRIPLES = 24
#: instances whose link radii search_exhaustive looks up in one array pass
EXHAUSTIVE_CHUNK = 1 << 16


def search_exhaustive(
    n: int,
    s: int,
    mode: str,
    eps: float = DEFAULT_COMPARISON_SLACK,
    budget: int = DEFAULT_BUDGET,
) -> SearchSummary:
    """Scan every 3-graph on n <= 6 vertices for violations of the mode.

    The spectral condition is evaluated for all instances at once from an
    exact-eigensolver lookup table of link graphs; only instances whose
    conclusion cannot be certified by a cheap combinatorial witness go
    through the full per-instance verifier.  The scan is deterministic and
    its aggregate is order-independent.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    m = comb(n, 3)
    if m > MAX_ENUMERABLE_TRIPLES:
        raise ValueError(f"exhaustive search requires C(n,3) <= {MAX_ENUMERABLE_TRIPLES}")
    threshold = threshold_match(s, n)
    table = _rho_table(n - 1)
    maps = _link_bit_maps(n)
    # at n=6 two triples are disjoint iff complementary: the pair witness below
    comp_pairs: list[tuple[int, int]] = []
    if n == 6:
        triples = lex_triples(n)
        t_index = {t: i for i, t in enumerate(triples)}
        allv = set(range(1, 7))
        for i, t in enumerate(triples):
            j = t_index[tuple(sorted(allv - set(t)))]
            if i < j:
                comp_pairs.append((i, j))
    fast_conclusion = n == 6 and s == 1

    counts = _new_counts()
    violations: list[CheckReport] = []
    total = 1 << m
    for lo in range(0, total, EXHAUSTIVE_CHUNK):
        ids = np.arange(lo, min(lo + EXHAUSTIVE_CHUNK, total), dtype=np.int64)
        rho_stack = np.empty((n, len(ids)))
        for v in range(n):
            lm = np.zeros(len(ids), dtype=np.int64)
            for tb, pb in maps[v]:
                lm |= ((ids >> tb) & 1) << pb
            rho_stack[v] = table[lm]
        min_rho = rho_stack.min(axis=0)
        holds = min_rho > threshold + eps
        fails = min_rho < threshold - eps
        indet = ~holds & ~fails
        counts["total"] += len(ids)
        counts["condition_holds"] += int(holds.sum())
        counts["indeterminate"] += int(indet.sum())
        counts["skipped"] += int(fails.sum()) + int(indet.sum())
        if not holds.any():
            continue
        if fast_conclusion:
            conc = np.zeros(len(ids), dtype=bool)
            for i, j in comp_pairs:
                conc |= ((ids >> i) & (ids >> j) & 1).astype(bool)
            counts["consistent"] += int((holds & conc).sum())
            candidate_idx = np.nonzero(holds & ~conc)[0]
        else:
            candidate_idx = np.nonzero(holds)[0]
        for ci in candidate_idx:
            mask = int(ids[ci])
            H = hypergraph_from_bitmask(n, mask)
            rep = verify_theorem(
                H,
                s,
                mode,
                budget=budget,
                eps=eps,
                link_rho=rho_stack[:, ci],
                instance_id=f"exhaustive(n={n})#{mask}",
            )
            # boundary reclassification by the per-instance pass (very rare)
            if rep.condition != "holds":
                counts["condition_holds"] -= 1
                if rep.condition == "indeterminate":
                    counts["indeterminate"] += 1
                counts["skipped"] += 1
                continue
            if rep.verdict == "skipped":
                counts["skipped"] += 1
            else:
                counts[rep.verdict] += 1
            if rep.verdict in ("counterexample", "bug_suspect"):
                violations.append(rep)
    return SearchSummary(f"exhaustive({n})", n, s, mode, counts, tuple(violations))


#: instances per random search stream; stream b + 1 starts where stream b ends
STREAM_LENGTH = 1_000_003


def instance_seed(base_seed: int, k: int) -> int:
    """Seed of the k-th instance in a random search stream, 0 <= k < STREAM_LENGTH."""
    return base_seed * STREAM_LENGTH + k


def _search_block(n: int) -> int:
    """Instances per link-spectra block of a random search at n vertices.

    Their n link matrices of n x n take an eighth of LINK_CHUNK_BYTES:
    building and proving a stack holds about seven arrays of its size
    (measured at n = 12), so a block's working set stays within the budget.
    n counts as at least 3, so that blocks of edgeless instances (n < 3)
    stay as small as at n = 3.
    """
    return max(1, LINK_CHUNK_BYTES // (64 * max(n, 3) ** 3))


def _random_range_worker(
    args: tuple[int, float, int, int, int, int, str, float, int],
) -> tuple[dict[str, int], list[CheckReport]]:
    n, p, base_seed, lo, hi, s, mode, eps, budget = args
    counts = _new_counts()
    violations: list[CheckReport] = []
    block = _search_block(n)
    notes = tuple(_hypothesis_notes(n, s, mode))
    for start in range(lo, hi, block):
        ks = range(start, min(start + block, hi))
        Hs = [random_3graph(n, p, instance_seed(base_seed, k)).hypergraph for k in ks]
        clear = [False] * len(Hs)
        if n > s:  # below s+1 vertices there is no threshold, and verify_theorem says so
            threshold = exact_threshold_match(s, n)
            clear = degree_quotients_clear(Hs, threshold, eps, DEFAULT_TOLERANCE)
        spectra = iter(link_spectra_block([H for H, c in zip(Hs, clear) if not c]))
        for k, H, c in zip(ks, Hs, clear):
            instance_id = f"random(n={n},p={p},seed={base_seed})#{k}"
            verify = partial(verify_theorem, H, s, mode, budget=budget, eps=eps, instance_id=instance_id)
            if c:  # the condition holds: no radii are computed unless a violation is reported
                holds = CheckReport(instance_id, n, s, mode, (), nan, threshold.value, "holds", notes=notes)
                rep = _conclude(H, holds, bool(notes), budget, DEFAULT_TRIPLE_LIMIT)
                if rep.verdict in ("counterexample", "bug_suspect"):
                    rep = verify()
            else:
                rep = verify(link_rho=next(spectra))
            _tally(counts, rep)
            if rep.verdict in ("counterexample", "bug_suspect"):
                violations.append(rep)
    return counts, violations


def search_random(
    n: int,
    p: float,
    samples: int,
    seed: int,
    s: int,
    mode: str,
    eps: float = DEFAULT_COMPARISON_SLACK,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> SearchSummary:
    """Verify `samples` seeded random instances; deterministic for fixed params.

    A range of samples is taken in blocks of :func:`_search_block` seeds,
    and each instance is generated from its own seed.  The block's exact
    degree quotients come first (:func:`degree_quotients_clear`): an
    instance whose every link's quotient clears the threshold with the
    margin eps + 2 tolerance has a condition that holds, so it goes straight
    to the conclusion step of :func:`verify_theorem`, and only a violation
    found there is verified again with its link spectra, so that its report
    carries its radii.  The link spectra of the other instances are computed
    in one :func:`link_spectra_block` pass, and each of them is verified
    with its own.  The counts and violations are those of
    ``verify_theorem(H, s, mode, ...)`` per instance, except that an
    instance with a link whose spectrum does not converge counts as
    "holds" rather than "indeterminate" when its quotients clear it.

    With threads > 1 the sample range is partitioned across worker
    processes; each instance's seed depends only on (seed, k), its degree
    quotients and link spectra do not depend on its block, and the
    aggregation is order-independent, so parallel and sequential runs
    produce identical summaries.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    if samples > STREAM_LENGTH:
        raise ValueError(
            f"samples must be at most {STREAM_LENGTH}, got {samples}: "
            f"a longer stream would replay the instances of seed {seed + 1}"
        )
    if threads <= 1 or samples < 2:
        ranges = [(0, samples)]
    else:
        step = -(-samples // threads)
        ranges = [(lo, min(lo + step, samples)) for lo in range(0, samples, step)]
    payloads = [(n, p, seed, lo, hi, s, mode, eps, budget) for lo, hi in ranges]
    counts = _new_counts()
    violations: list[CheckReport] = []
    if len(payloads) == 1:
        results = [_random_range_worker(payloads[0])]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_random_range_worker, payloads))
    for part_counts, part_violations in results:
        for k in _COUNT_KEYS:
            counts[k] += part_counts[k]
        violations.extend(part_violations)
    return SearchSummary(
        f"random(n={n},p={p},samples={samples},seed={seed})",
        n,
        s,
        mode,
        counts,
        tuple(violations),
    )
