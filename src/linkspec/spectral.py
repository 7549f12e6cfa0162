"""Spectral radius computation and the closed-form spectral bounds.

The eigensolver is power iteration on A + I run per connected component
with an all-ones start vector.  The +I shift keeps bipartite components
from stalling on a +-lambda eigenvalue pair, and the all-ones start has
positive overlap with the Perron vector of every component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph2, complement

DEFAULT_TOLERANCE = 1e-10
DEFAULT_ITERATION_CAP = 10**6
#: slack used by callers to classify strict inequalities robustly
DEFAULT_COMPARISON_SLACK = 1e-9


@dataclass(frozen=True)
class SpectralReport:
    """Largest adjacency eigenvalue with convergence diagnostics."""

    value: float
    residual: float
    iterations: int
    tolerance: float
    component_count: int

    @property
    def converged(self) -> bool:
        return self.residual <= self.tolerance


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


def _power_iteration(B: np.ndarray, tol: float, cap: int) -> tuple[float, float, int]:
    """Power iteration on the nonnegative matrix B from the all-ones vector.

    Returns (rayleigh quotient, infinity-norm residual, iterations).  The
    residual may exceed tol if the cap is hit; the caller reports it as is.
    """
    k = B.shape[0]
    x = np.full(k, 1.0 / math.sqrt(k))
    lam = 0.0
    res = math.inf
    iters = 0
    dot = np.dot
    while iters < cap:
        y = dot(B, x)
        iters += 1
        lam = float(dot(x, y))
        res = float(abs(y - lam * x).max())
        if res <= tol:
            break
        x = y / math.sqrt(float(dot(y, y)))
    return lam, res, iters


def spectral_radius(
    G: Graph2,
    tolerance: float = DEFAULT_TOLERANCE,
    iteration_cap: int = DEFAULT_ITERATION_CAP,
) -> SpectralReport:
    """Largest eigenvalue of A(G), computed per connected component.

    Deterministic for a given (G, tolerance).  On non-convergence within
    the iteration cap the best Rayleigh quotient is reported with its
    residual; callers can inspect ``report.converged``.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    comps = _components(G)
    if G.m == 0:
        return SpectralReport(0.0, 0.0, 0, tolerance, len(comps))
    ea = np.asarray(G.edges) - 1
    A = np.zeros((G.n, G.n))
    A[ea[:, 0], ea[:, 1]] = 1.0
    A[ea[:, 1], ea[:, 0]] = 1.0
    best = 0.0
    best_res = 0.0
    total_iters = 0
    for comp in comps:
        if len(comp) < 2:
            continue
        idx = sorted(comp)
        B = A[np.ix_(idx, idx)].copy()
        np.fill_diagonal(B, 1.0)  # the +I shift
        lam, res, iters = _power_iteration(B, tolerance, iteration_cap)
        total_iters += iters
        value = lam - 1.0
        if value > best:
            best = value
            best_res = res
    return SpectralReport(best, best_res, total_iters, tolerance, len(comps))


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


def terpai_gap(
    G: Graph2,
    tolerance: float = DEFAULT_TOLERANCE,
) -> float:
    """Slack in the Nordhaus-Gaddum bound rho(G) + rho(co-G) <= 4n/3 - 1."""
    rho = spectral_radius(G, tolerance).value
    rho_c = spectral_radius(complement(G), tolerance).value
    return (4.0 * G.n / 3.0 - 1.0) - (rho + rho_c)


def threshold_match(s: int, n: int) -> float:
    """Link threshold for a matching of size s+1 on n vertices: rho(K_s v co-K_{n-s-1})."""
    if s < 0:
        raise ValueError(f"s must be nonnegative, got {s}")
    if n < s + 1:
        raise ValueError(f"need n >= s+1, got n={n}, s={s}")
    return 0.5 * (s - 1 + math.sqrt((s - 1) ** 2 + 4 * s * (n - s - 1)))


def classify_condition(min_rho: float, threshold: float, eps: float, converged: bool) -> str:
    """Three-way verdict for min_rho > threshold: within `eps` of it, or from a
    non-converged radius, the answer is "indeterminate"."""
    if not converged:
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


@dataclass(frozen=True)
class CommonEdgesVerdict:
    """Outcome of the large-spectral-sum common-edges check."""

    status: str  # "not_applicable" | "holds" | "violated"
    n: int
    gamma: float
    rho_sum: float
    common_edges: int | None
    required: float | None


def lemma24_common_edges_check(
    G1: Graph2,
    G2: Graph2,
    gamma: float,
    tolerance: float = DEFAULT_TOLERANCE,
) -> CommonEdgesVerdict:
    """Check |E(G1) cap E(G2)| >= gamma^2 n^2 / 2 when the spectral sum is large.

    Applicable only when rho(G1) + rho(G2) >= (4/3 + gamma) n.  The verdict
    records n: the inequality is asymptotic, so small-n violations are
    expected to be out of its regime rather than bugs.
    """
    if G1.n != G2.n:
        raise ValueError(f"vertex counts differ: {G1.n} != {G2.n}")
    if not 0 < gamma < 0.25:
        raise ValueError(f"gamma must lie in (0, 1/4), got {gamma}")
    n = G1.n
    rho_sum = spectral_radius(G1, tolerance).value + spectral_radius(G2, tolerance).value
    if rho_sum < (4.0 / 3.0 + gamma) * n:
        return CommonEdgesVerdict("not_applicable", n, gamma, rho_sum, None, None)
    common = len(set(G1.edges) & set(G2.edges))
    required = gamma * gamma * n * n / 2.0
    status = "holds" if common >= required else "violated"
    return CommonEdgesVerdict(status, n, gamma, rho_sum, common, required)
