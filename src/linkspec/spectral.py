"""Spectral radius computation and the closed-form spectral bounds.

Every radius is bracketed in exact arithmetic by the Collatz-Wielandt
bounds for nonnegative matrices (Horn & Johnson, *Matrix Analysis*, ch. 8):
for an integer vector x >= 0, x != 0, rho(A) >= min (Ax)_i / x_i over the
support of x, and for x > 0, rho(A) <= max (Ax)_i / x_i.  Two routes find
such vectors, and both prove them in integers: Ax is formed in int64 and
every bound is proven, and compared with a threshold, in exact arithmetic,
so no rounded float enters a certified decision.

- Power route: a few batched steps x <- (A + I) x from the degree vector,
  until the float ratios (Ax)_i / x_i agree to tolerance/4.  The rounded x
  proves both bounds and its Rayleigh quotient is the radius.  One step
  costs a matrix-vector product, so this is the route for large dense links.
- Eigensolve route: LAPACK's symmetric eigensolver (``numpy.linalg.eigh``).
  The lower vector is the rounded Perron vector, the upper one the rounded
  resolvent (t I - A)^-1 1 at t = rho + tolerance/2, which is positive
  whenever rho(A) < t, so neither needs a component split; both come from
  the one eigendecomposition.

:func:`link_spectra_block` runs this for every vertex link of a block of
3-graphs at once, and :func:`link_spectra` for the links of one: one sort
of the concatenated edge arrays' incidences by vertex feeds dense 0/1 link
matrices a chunk of vertices at a time.  A link keeps only the vertices
that lie on its edges, which leaves its radius unchanged and keeps sparse
links small; it is padded to the largest link of its chunk, and the links
of equal padded size, from any chunk or instance of the block, share one
stack of at most LINK_CHUNK_BYTES.  A link's result depends only on the
link and its padded size, never on its stack.  Links of at least
POWER_MIN_VERTICES vertices and at least as many edges as vertices - 1
(the fewest a connected link has) take the power route; the ones it
cannot close within tolerance, and all other links, take one batched
eigensolve per stack.  :func:`spectral_radius` of a single graph always
takes the eigensolve route.

A condition min rho > t needs no radius where a lower bound clears t:
:func:`degree_quotients_clear` takes the Rayleigh quotient d^T A d / d^T d
of each link's degree vector d, exact in integers for a whole block of
3-graphs from one bincount of their codegrees, and says which 3-graphs it
proves to hold, with a margin that makes the verdict the one their link
spectra would give.  :meth:`Threshold.compare` is the one exact rule by
which every float or rational is compared with a threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

import numpy as np

from .graphs import Graph2, Hypergraph3, complement

DEFAULT_TOLERANCE = 1e-10
#: slack used by callers to classify strict inequalities robustly
DEFAULT_COMPARISON_SLACK = 1e-9
#: bytes of dense float64 link matrices in one chunk, or one stack, of link_spectra
LINK_CHUNK_BYTES = 1 << 20
#: links with at least this many vertices try power steps before an eigensolve
POWER_MIN_VERTICES = 24
#: most power steps a link may need before it falls through to the eigensolver
POWER_MAX_STEPS = 60


@dataclass(frozen=True)
class SpectralReport:
    """Largest adjacency eigenvalue with its certified error.

    `residual` is a proven bound on |value - rho(G)|, from the exact
    Collatz-Wielandt bracket (inf when no bracket was found); `iterations`
    counts eigensolves (0 for an edgeless graph).
    """

    value: float
    residual: float
    iterations: int
    tolerance: float

    @property
    def converged(self) -> bool:
        return self.residual <= self.tolerance


@dataclass(frozen=True)
class Threshold:
    """The exact number (a + sqrt(d)) / b, with integers d >= 0 and b > 0."""

    a: int
    d: int
    b: int

    @classmethod
    def of_float(cls, x: float) -> "Threshold":
        """The exact rational value of the float x."""
        p, q = x.as_integer_ratio()
        return cls(p, 0, q)

    @property
    def value(self) -> float:
        return (self.a + math.sqrt(self.d)) / self.b

    def sign(self, x: float) -> int:
        """Sign of the exact value of x minus this number."""
        return self.compare(*x.as_integer_ratio())

    def compare(self, p: int, q: int) -> int:
        """Sign of p/q minus this number, for integers p and q > 0."""
        L = self.b * p - self.a * q  # p/q - (a + sqrt(d))/b has the sign of L - sqrt(d) q
        R2 = self.d * q * q
        if L <= 0:
            return -1 if L < 0 or R2 > 0 else 0
        return (L * L > R2) - (L * L < R2)

    def plus(self, r: Fraction) -> "Threshold":
        """This number plus r, exactly: (a q + p b + sqrt(d q^2)) / (b q) for r = p/q."""
        p, q = r.numerator, r.denominator
        return Threshold(self.a * q + p * self.b, self.d * q * q, self.b * q)


def _components(G: Graph2) -> list[list[int]]:
    """Connected components as lists of 0-based vertex indices."""
    seen = [False] * G.n
    adj = G.adjacency
    comps = []
    for start in range(G.n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        stack = [start]
        while stack:
            v = stack.pop()
            mask = adj[v]
            while mask:
                low = mask & -mask
                u = low.bit_length() - 1
                mask ^= low
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
                    stack.append(u)
        comps.append(comp)
    return comps


def _check_tolerance(tolerance: float) -> None:
    if not 0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")


def _eigh(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a stack of symmetric matrices."""
    return np.linalg.eigh(A)


def _ratio_bounds(num: np.ndarray, den: np.ndarray, lowest: bool) -> np.ndarray:
    """Per row, a float at most (lowest) or at least every num_i / den_i with den_i > 0.

    The float extreme, widened by 2^-48 relative (more than its rounding
    error), is the candidate; cross-multiplying in Python integers proves
    it.  A row whose candidate fails gets the trivial bound: 0 below, inf
    above.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        r = num / den
    r[den == 0] = np.inf if lowest else -np.inf
    q = r.min(axis=1) * (1 - 2.0**-48) if lowest else r.max(axis=1) * (1 + 2.0**-48)
    # each q as the rows (numerator, denominator): numpy builds this faster than nested lists
    ratios = [x.as_integer_ratio() if math.isfinite(x) else (1, 0) for x in q.tolist()]
    pd = np.array(ratios, dtype=object).reshape(-1, 2)
    lhs, rhs = num.astype(object) * pd[:, 1:], den.astype(object) * pd[:, :1]
    ok = ((lhs >= rhs) if lowest else (lhs <= rhs)).all(axis=1) & np.isfinite(q)
    return np.where(ok, q, 0.0 if lowest else np.inf)


def _certified_radii(A: np.ndarray, tolerance: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Radii of a stack of symmetric 0/1 matrices with exact lower and upper bounds.

    The bounds are floats whose exact values bracket each radius.  An upper
    bound is inf where the resolvent vector is not positive: the radius is
    not below rho + tolerance/2, or tolerance is below what the eigensolver
    resolves.
    """
    k, n, _ = A.shape
    bits = min(52, 63 - n.bit_length())  # entries <= 2^bits keep Ax below 2^63
    scale = float(1 << bits)
    w, U = _eigh(A)
    rho = np.maximum(w[:, -1], 0.0) + 0.0  # never -0.0
    Ai = A.astype(np.int64)
    # entries below 2^-20 of the scale are eigensolver noise on padding or on
    # other components; left in, they would pull the lower bound to 0
    x = np.rint(np.abs(U[:, :, -1]) * scale).astype(np.int64)
    x[x < 1 << (bits - 20)] = 0
    lower = _ratio_bounds(np.matmul(Ai, x[:, :, None])[:, :, 0], x, lowest=True)
    # (tI - A)^-1 1 = U diag(1 / (t - w)) U^T 1, from the eigensolve already made
    with np.errstate(divide="ignore", invalid="ignore"):
        d = U.sum(axis=1) / ((rho + tolerance / 2)[:, None] - w)
        y = np.matmul(U, d[:, :, None])[:, :, 0]
    positive = np.isfinite(y).all(axis=1) & (y > 0).all(axis=1)
    y[~positive] = 1.0
    Y = np.rint(y / y.max(axis=1)[:, None] * scale).astype(np.int64)
    positive &= (Y > 0).all(axis=1)
    upper = _ratio_bounds(np.matmul(Ai, Y[:, :, None])[:, :, 0], Y, lowest=False)
    return rho, lower, np.where(positive, upper, np.inf)


def _power_radii(A: np.ndarray, tolerance: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Radii of a stack of symmetric 0/1 matrices by power steps, with exact bounds.

    Each matrix takes steps x <- (A + I) x from its degree vector until the
    float Collatz-Wielandt ratios (Ax)_i / x_i over its non-isolated
    vertices spread by at most tolerance/4.  It gives up (lower 0, upper
    inf) as soon as its spread, shrinking at the rate of its last step,
    would not get there within POWER_MAX_STEPS steps.  A stopped x is
    rounded to integers and proves the lower bound, and the upper bound
    where it is positive on every non-isolated vertex; the radius is its
    Rayleigh quotient.  Every matrix stops on its own, so its result does
    not depend on the others in the stack.
    """
    k, n, _ = A.shape
    bits = min(52, 63 - n.bit_length())  # entries <= 2^bits keep Ax below 2^63
    target = tolerance / 4
    degree = A.sum(axis=2)
    live = degree > 0  # isolated vertices are components of radius 0 and are left out
    x = degree / degree.max(axis=1)[:, None]
    rho, lower, upper = np.zeros(k), np.zeros(k), np.full(k, np.inf)
    stopped = np.zeros(k, dtype=bool)
    active, As, xs, spread = np.arange(k), A, x, np.full(k, np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for step in range(POWER_MAX_STEPS + 1):
            y = np.matmul(As, xs[:, :, None])[:, :, 0]
            r = y / xs  # NaN (0/0) on isolated vertices, which fmax and fmin skip
            last, spread = spread, np.fmax.reduce(r, axis=1) - np.fmin.reduce(r, axis=1)
            done = spread <= target
            if done.any():
                i = active[done]
                x[i], stopped[i] = xs[done], True
                rho[i] = (xs[done] * y[done]).sum(axis=1) / (xs[done] * xs[done]).sum(axis=1)
            keep = ~done & (spread * (spread / last) ** (POWER_MAX_STEPS - step) <= target)
            if not keep.all():
                active, As, xs, y, spread = active[keep], As[keep], xs[keep], y[keep], spread[keep]
                if not active.size:
                    break
            xs = y + xs
            xs /= xs.max(axis=1)[:, None]
    if stopped.any():
        X = np.rint(x[stopped] * float(1 << bits)).astype(np.int64)
        AX = np.matmul(A[stopped].astype(np.int64), X[:, :, None])[:, :, 0]
        lower[stopped] = _ratio_bounds(AX, X, lowest=True)
        positive = ((X > 0) | ~live[stopped]).all(axis=1)
        upper[stopped] = np.where(positive, _ratio_bounds(AX, X, lowest=False), np.inf)
    return rho, lower, upper


def _link_radii(
    A: np.ndarray, sizes: np.ndarray, edges: np.ndarray, tolerance: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Certified radii of a chunk of link matrices, by the route each link's size picks.

    Links of at least POWER_MIN_VERTICES vertices try :func:`_power_radii`,
    unless they have fewer edges than vertices - 1: such a link is not
    connected, and the spread of a link whose components differ in radius
    never shrinks.  Links the power route does not bring within tolerance
    of their radius, and all the others, go through
    :func:`_certified_radii` in one call.
    """
    if A.shape[1] < POWER_MIN_VERTICES:  # the chunk's largest link
        return _certified_radii(A, tolerance)
    rest = (sizes < POWER_MIN_VERTICES) | (edges < sizes - 1)
    if rest.all():
        return _certified_radii(A, tolerance)
    power = ~rest
    rho, lower, upper = np.zeros(len(A)), np.zeros(len(A)), np.full(len(A), np.inf)
    r, lo, hi = _power_radii(A if power.all() else A[power], tolerance)
    rho[power], lower[power], upper[power] = r, lo, hi
    rest[power] = [not _within(*b, tolerance) for b in zip(r.tolist(), lo.tolist(), hi.tolist())]
    if rest.any():
        rho[rest], lower[rest], upper[rest] = _certified_radii(A if rest.all() else A[rest], tolerance)
    return rho, lower, upper


def _within(rho: float, lower: float, upper: float, tolerance: float) -> bool:
    """Whether [lower, upper] lies within tolerance of rho, exactly.

    fsum rounds the exact sum of its floats correctly, so its sign is exact.
    """
    return math.fsum((lower, tolerance, -rho)) >= 0 and math.fsum((rho, tolerance, -upper)) >= 0


@dataclass(frozen=True)
class LinkSpectra:
    """Link spectral radii of a 3-graph with their certified brackets.

    The true radius of the link of vertices[i] lies in the exact values of
    [lower[i], upper[i]] (upper[i] is inf where no upper certificate was
    found); converged[i] says that this bracket lies within `tolerance` of
    rho[i].
    """

    vertices: tuple[int, ...]
    rho: tuple[float, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    converged: tuple[bool, ...]
    tolerance: float

    def condition(self, threshold: Threshold, eps: float) -> tuple[str, tuple[int, ...]]:
        """Certified verdict on min rho > threshold, and the vertices that could not back it.

        The float rule :func:`classify_condition` gives the candidate verdict.
        "holds" needs every lower bound above the threshold, "fails" some
        upper bound below it, and either needs every link converged;
        otherwise the verdict is "indeterminate".
        """
        min_rho = min(self.rho, default=0.0)
        verdict = classify_condition(min_rho, threshold.value, eps, True)
        bad = {v for v, ok in zip(self.vertices, self.converged) if not ok}
        if verdict == "holds":
            bad.update(v for v, lo in zip(self.vertices, self.lower) if threshold.sign(lo) <= 0)
        elif verdict == "fails" and not any(
            hi < math.inf and threshold.sign(hi) < 0 for hi in self.upper
        ):
            bad.update(v for v, r in zip(self.vertices, self.rho) if r == min_rho)
        return classify_condition(min_rho, threshold.value, eps, not bad), tuple(sorted(bad))


def link_spectra(
    H: Hypergraph3,
    tolerance: float = DEFAULT_TOLERANCE,
    vertices: Sequence[int] | None = None,
) -> LinkSpectra:
    """Certified spectral radii of the links of `vertices` (default: all of H).

    A block of one for :func:`_block_spectra`, which builds the links a
    chunk at a time from one sort of the edge array's incidences by vertex
    and solves the links of equal padded size together.  :func:`_link_radii`
    sends a link of at least POWER_MIN_VERTICES vertices to power steps
    first; the links they cannot close, and every other link, take one
    batched eigensolve per stack.  Either way the bracket is proven from an
    integer Collatz-Wielandt vector.  Repeated vertices are rejected.
    """
    _check_tolerance(tolerance)
    vs = tuple(range(1, H.n + 1)) if vertices is None else tuple(vertices)
    seen: set[int] = set()
    for v in vs:
        H._check_vertex(v)
        if v in seen:
            raise ValueError(f"vertex {v} repeated in vertices")
        seen.add(v)
    return _block_spectra([H], [vs], tolerance)[0]


def link_spectra_block(
    Hs: Sequence[Hypergraph3], tolerance: float = DEFAULT_TOLERANCE
) -> list[LinkSpectra]:
    """The spectra of all links of each 3-graph in Hs, one :class:`LinkSpectra` each.

    Entry i equals ``link_spectra(Hs[i], tolerance)``: a link's radius and
    bracket depend only on the link and its padded size, never on the links
    it is stacked with.
    """
    _check_tolerance(tolerance)
    return _block_spectra(Hs, [tuple(range(1, H.n + 1)) for H in Hs], tolerance)


def _block_spectra(
    Hs: Sequence[Hypergraph3], vss: Sequence[tuple[int, ...]], tolerance: float
) -> list[LinkSpectra]:
    """Link spectra of the vertices vss[i] of Hs[i], for every i, in one pass.

    The instances' vertices are numbered one after another, so that one
    sort of the concatenated edge array's incidences groups the edges of
    every link in the block.  Each instance's vertices are cut into chunks
    of as many links as fit LINK_CHUNK_BYTES at n x n, and a link keeps
    only the vertices that lie on its edges, padded to the largest link in
    its chunk.  Runs of whole chunks within that budget at n x n are built
    at once.  The links of equal padded size are stacked, across runs too,
    up to LINK_CHUNK_BYTES, and each stack goes through :func:`_link_radii`
    once.
    """
    if not Hs:
        return []
    ns = [H.n for H in Hs]
    offsets = [0, *accumulate(ns)]
    # incidence j is vertex flat[j] (numbered across the block, from 0) of edge j // 3
    flat = np.concatenate([(H.edge_array + (o - 1)).ravel() for H, o in zip(Hs, offsets)])
    order = np.argsort(flat)  # incidences grouped by vertex; the order within a group is immaterial
    degree = np.bincount(flat, minlength=offsets[-1])
    first = np.cumsum(degree) - degree  # where each vertex's group starts in `order`
    links = np.concatenate([np.asarray(vs, dtype=np.intp) + (o - 1) for vs, o in zip(vss, offsets)])
    count = degree[links]  # a link has one edge per edge at its vertex
    base = np.repeat(offsets[:-1], [len(vs) for vs in vss])  # the block number of each link's vertex 1
    rho, lower, upper = np.zeros(len(links)), np.zeros(len(links)), np.zeros(len(links))
    stacks: dict[int, list[tuple[np.ndarray, ...]]] = {}  # padded size -> the parts of one stack

    def solve(size: int) -> None:
        idx, sizes, edges, ra, rb = map(np.concatenate, zip(*stacks.pop(size)))
        k = np.repeat(np.arange(len(idx)) * size, edges)
        A = np.zeros(len(idx) * size * size)
        A[(k + ra) * size + rb] = A[(k + rb) * size + ra] = 1.0
        rho[idx], lower[idx], upper[idx] = _link_radii(A.reshape(-1, size, size), sizes, edges, tolerance)

    def stack(size: int, idx: np.ndarray, *rest: np.ndarray) -> None:
        """Add the links `idx` of one chunk, padded to `size`, with their sizes, edges and entries."""
        # a chunk's links fit the budget at n x n, so also at size x size
        cap = max(1, LINK_CHUNK_BYTES // (8 * size * size))
        held = sum(len(part[0]) for part in stacks.get(size, ()))
        if held + len(idx) > cap:  # never for the first chunk, which fits alone
            solve(size)
            held = 0
        stacks.setdefault(size, []).append((idx, *rest))
        if held + len(idx) == cap:
            solve(size)

    def build(starts: list[int], hi: int, width: int) -> list[tuple]:
        """The links of the chunks that start at `starts` and end at link `hi`, a chunk each.

        Each chunk comes with its padded size, its links' block indices,
        sizes and edge counts, and the (row, column) entries of its links
        in link order.  Returned, not stacked here, so that no array of
        this build but those entries is alive while a stack is solved.
        """
        lo = starts[0]
        cnt = count[lo:hi]
        ends = np.cumsum(cnt)
        begins = ends - cnt  # where each link's incidences begin
        j = order[np.arange(ends[-1]) + np.repeat(first[links[lo:hi]] - begins, cnt)]
        row = j - j % 3
        # the other two vertices of the edge: positions (1, 2), (0, 2) or (0, 1)
        a = flat[row + (j == row)]
        b = flat[row + 2 - (j == row + 2)]
        del j, row
        # as cells of a (link, vertex) table of the run, in each instance's own numbering
        cell = np.repeat(np.arange(hi - lo) * width - base[lo:hi], cnt)
        a += cell
        b += cell
        del cell
        # isolated vertices add only zero eigenvalues, so each link keeps just
        # its other vertices, in order (padded to its chunk's largest link)
        present = np.zeros((hi - lo) * width, dtype=bool)
        present[a] = present[b] = True
        present = present.reshape(hi - lo, width)
        sizes = present.sum(axis=1)
        rank = (np.cumsum(present, axis=1) - 1).ravel()
        ra, rb = rank[a], rank[b]
        rel = [s - lo for s in starts]
        padded = np.maximum(np.maximum.reduceat(sizes, rel), 1).tolist()
        bounds, cuts = [*rel, hi - lo], [*begins[rel].tolist(), len(ra)]  # of each chunk's links, incidences
        return [
            (size, np.arange(lo + s, lo + e), sizes[s:e], cnt[s:e], ra[p:q], rb[p:q])
            for size, s, e, p, q in zip(padded, bounds, bounds[1:], cuts, cuts[1:])
        ]

    run: list[int] = []  # the first links of the chunks built together
    run_bytes = width = at = 0
    for n, vs in zip(ns, vss):
        per_chunk = max(1, LINK_CHUNK_BYTES // (8 * n * n)) if n else 1
        for lo in range(at, at + len(vs), per_chunk):
            cost = 8 * n * n * min(per_chunk, at + len(vs) - lo)
            if run and run_bytes + cost > LINK_CHUNK_BYTES:
                for part in build(run, lo, width):
                    stack(*part)
                run, run_bytes, width = [], 0, 0
            run.append(lo)
            run_bytes, width = run_bytes + cost, max(width, n)
        at += len(vs)
    if run:
        for part in build(run, at, width):
            stack(*part)
    for size in list(stacks):
        solve(size)

    bounds = list(zip(rho.tolist(), lower.tolist(), upper.tolist()))
    converged = [_within(*b, tolerance) for b in bounds]
    out = []
    at = 0
    for vs in vss:
        r, lo, hi = zip(*bounds[at : at + len(vs)]) if vs else ((), (), ())
        out.append(LinkSpectra(vs, r, lo, hi, tuple(converged[at : at + len(vs)]), tolerance))
        at += len(vs)
    return out


def _degree_quotients(Hs: Sequence[Hypergraph3]) -> tuple[np.ndarray, np.ndarray]:
    """The integers d^T A d and d^T d of every link of each 3-graph in Hs, in vertex order.

    A is the link's adjacency and d its degree vector: d_a is the codegree
    of the link's vertex v and a.  The instances' vertices are numbered one
    after another, and one bincount of the ordered pairs (v, a) of every
    edge gives the codegrees as a (link, vertex) table.  Then d^T d sums a
    row's squares, and d^T A d sums 2 d_a d_b over the edges {v, a, b}.
    """
    ns = [H.n for H in Hs]
    width = max([1, *ns])
    offsets = [0, *accumulate(ns)]
    own = np.concatenate([H.edge_array for H in Hs]) - 1  # each instance's own vertices, from 0
    block = own + np.repeat(offsets[:-1], [H.m for H in Hs])[:, None]  # numbered across the block
    # the pairs (v, a) of each edge, v by v, as cells of the (link, vertex) table
    cells = block[:, [0, 0, 1, 1, 2, 2]] * width + own[:, [1, 2, 0, 2, 0, 1]]
    codegree = np.bincount(cells.ravel(), minlength=offsets[-1] * width)
    den = (codegree.reshape(-1, width) ** 2).sum(axis=1)
    d = codegree[cells]  # per edge and v on it: d_a, d_b of its other two vertices
    num = np.zeros(offsets[-1], dtype=np.int64)
    np.add.at(num, block.ravel(), (2 * d[:, 0::2] * d[:, 1::2]).ravel())
    return num, den


def degree_quotients_clear(
    Hs: Sequence[Hypergraph3], threshold: Threshold, eps: float, tolerance: float
) -> list[bool]:
    """Whether, per 3-graph in Hs, the degree quotients prove that its condition holds.

    Every link's Rayleigh quotient q = d^T A d / d^T d of its degree vector
    d is at most its radius rho*, and is exact from :func:`_degree_quotients`.
    ``link_spectra(H, tolerance).condition(threshold, eps)`` says "holds"
    when every link converged, every lower bound exceeds the threshold t,
    and every float radius rho exceeds the float f = threshold.value + eps.
    A converged link has rho* in [lower, upper], lower >= rho - tolerance
    and upper <= rho + tolerance, so rho >= rho* - tolerance and lower >=
    rho* - 2 tolerance.  Hence q > t + 2 tolerance proves lower > t, and
    q > f + tolerance proves rho > f.  An instance is cleared when every
    link's q exceeds the larger of t + max(eps, 0) + 2 tolerance and f +
    tolerance, compared exactly as rationals by :meth:`Threshold.compare`;
    its condition is then "holds", or "indeterminate" where a link does not
    converge.  An instance with no vertices or an empty link is not cleared.
    """
    _check_tolerance(tolerance)
    clear = [False] * len(Hs)
    f = threshold.value + eps
    if not Hs or not math.isfinite(f):
        return clear
    bar = threshold.plus(Fraction(max(eps, 0.0)) + 2 * Fraction(tolerance))
    g = Fraction(f) + Fraction(tolerance)
    if bar.compare(g.numerator, g.denominator) > 0:
        bar = Threshold(g.numerator, 0, g.denominator)
    nums, dens = (x.tolist() for x in _degree_quotients(Hs))
    at = 0
    for i, H in enumerate(Hs):
        links = range(at, at + H.n)
        at += H.n
        clear[i] = H.n > 0 and all(dens[j] and bar.compare(nums[j], dens[j]) > 0 for j in links)
    return clear


def spectral_radius(G: Graph2, tolerance: float = DEFAULT_TOLERANCE) -> SpectralReport:
    """Largest eigenvalue of A(G) with a certified error bound.

    Deterministic for a given (G, tolerance); `report.converged` says that
    the proven error is at most `tolerance`.
    """
    _check_tolerance(tolerance)
    if G.m == 0:
        return SpectralReport(0.0, 0.0, 0, tolerance)
    ea = np.asarray(G.edges) - 1
    A = np.zeros((1, G.n, G.n))
    A[0, ea[:, 0], ea[:, 1]] = 1.0
    A[0, ea[:, 1], ea[:, 0]] = 1.0
    (value,), (lo,), (hi,) = (a.tolist() for a in _certified_radii(A, tolerance))
    # fsum rounds the exact difference to nearest; one step up keeps the bound proven
    err = max(math.fsum((value, -lo)), math.fsum((hi, -value)))
    return SpectralReport(value, math.nextafter(err, math.inf), 1, tolerance)


def stanley_bound(m: int) -> float:
    """Upper bound on the spectral radius of any graph with m edges."""
    if m < 0:
        raise ValueError(f"edge count must be nonnegative, got {m}")
    return (-1.0 + math.sqrt(1.0 + 8.0 * m)) / 2.0


def hong_bound(G: Graph2) -> float:
    """Minimum-degree edge-count bound on the spectral radius.

    The underlying inequality assumes connectivity, so the bound is taken
    per connected component and the maximum is returned.  Edgeless graphs
    give 0 by convention.
    """
    if G.m == 0:
        return 0.0
    adj = G.adjacency
    best = 0.0
    for comp in _components(G):
        if len(comp) < 2:
            continue
        n_c = len(comp)
        degs = [bin(adj[v]).count("1") for v in comp]
        m_c = sum(degs) // 2
        if m_c == 0:
            continue
        delta = min(degs)
        val = (delta - 1 + math.sqrt((delta + 1) ** 2 + 4 * (2 * m_c - delta * n_c))) / 2.0
        best = max(best, val)
    return best


def terpai_gap(G: Graph2) -> float:
    """Slack in the Nordhaus-Gaddum bound rho(G) + rho(co-G) <= 4n/3 - 1."""
    rho = spectral_radius(G).value
    rho_c = spectral_radius(complement(G)).value
    return (4.0 * G.n / 3.0 - 1.0) - (rho + rho_c)


def exact_threshold_match(s: int, n: int) -> Threshold:
    """Link threshold for a matching of size s+1 on n vertices: rho(K_s v co-K_{n-s-1}), exactly."""
    if s < 0:
        raise ValueError(f"s must be nonnegative, got {s}")
    if n < s + 1:
        raise ValueError(f"need n >= s+1, got n={n}, s={s}")
    return Threshold(s - 1, (s - 1) ** 2 + 4 * s * (n - s - 1), 2)


def threshold_match(s: int, n: int) -> float:
    """Link threshold for a matching of size s+1 on n vertices: rho(K_s v co-K_{n-s-1})."""
    return exact_threshold_match(s, n).value


def classify_condition(min_rho: float, threshold: float, eps: float, certified: bool) -> str:
    """Three-way verdict for min_rho > threshold: within `eps` of it, or where
    the radii cannot certify the verdict, the answer is "indeterminate"."""
    if not certified:
        return "indeterminate"
    if min_rho > threshold + eps:
        return "holds"
    if min_rho < threshold - eps:
        return "fails"
    return "indeterminate"


def threshold_fyz(m: int, n: int) -> float:
    """Maximum spectral radius of an n-vertex graph with matching number <= m."""
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if n < 3 * m + 2:
        raise ValueError(f"bound requires n >= 3m+2, got n={n}, m={m}")
    if n == 3 * m + 2:
        return float(2 * m)
    return threshold_match(m, n + 1)  # the split graph K_m v co-K_{n-m}
