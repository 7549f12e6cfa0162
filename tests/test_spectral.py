"""Spectral radius computation and the closed-form bounds."""

import math
import random
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from linkspec import spectral
from linkspec.constructions import complete_3graph, h1, random_3graph
from linkspec.graphs import Graph2, Hypergraph3, complement, link_graph
from linkspec.harness import instance_seed
from linkspec.matching import max_matching_graph
from linkspec.spectral import (
    DEFAULT_COMPARISON_SLACK,
    DEFAULT_TOLERANCE,
    Threshold,
    classify_condition,
    degree_quotients_clear,
    exact_threshold_match,
    hong_bound,
    link_spectra,
    spectral_radius,
    stanley_bound,
    terpai_gap,
    threshold_fyz,
    threshold_match,
)

from conftest import eig_rho, power_rho, rand_3graph, rand_graph

TOL = 1e-9


def no_eigensolve(monkeypatch: pytest.MonkeyPatch) -> None:
    """Make any eigensolve fail, so only the power route can certify a link."""

    def eigh(A):
        raise AssertionError(f"eigensolve of a {A.shape} stack")

    monkeypatch.setattr(spectral, "_eigh", eigh)


def complete_graph(n: int) -> Graph2:
    return Graph2(n, tuple(combinations(range(1, n + 1), 2)))


def path(n: int) -> Graph2:
    return Graph2(n, tuple((i, i + 1) for i in range(1, n)))


def cycle(n: int) -> Graph2:
    return Graph2(n, tuple(sorted(tuple(sorted((i, i % n + 1))) for i in range(1, n + 1))))


class TestSpectralRadius:
    def test_known_values(self):
        assert spectral_radius(complete_graph(4)).value == pytest.approx(3, abs=TOL)
        assert spectral_radius(path(3)).value == pytest.approx(math.sqrt(2), abs=TOL)
        G, _ = link_graph(h1(2, 9).hypergraph, 9)  # the join of K_2 with 6 isolated vertices
        assert spectral_radius(G).value == pytest.approx(4, abs=TOL)

    def test_report_fields(self):
        rep = spectral_radius(cycle(5))
        assert rep.converged and rep.residual <= rep.tolerance
        assert spectral_radius(Graph2(4, ())).value == 0.0

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            spectral_radius(path(3), tolerance=0.0)

    def test_value_bounds(self):
        rng = random.Random(21)
        for _ in range(60):
            G = rand_graph(rng.randint(1, 14), rng.random(), rng)
            rho = spectral_radius(G).value
            assert -TOL <= rho <= G.n - 1 + TOL
            assert (rho == 0.0) == (G.m == 0)
            if G.n:
                assert rho >= 2 * G.m / G.n - TOL
            if G.m:
                assert rho >= math.sqrt(max(bin(a).count("1") for a in G.adjacency)) - TOL

    def test_agrees_with_dense_eigensolver(self):
        rng = random.Random(22)
        for _ in range(120):
            G = rand_graph(rng.randint(2, 13), rng.random(), rng)
            assert spectral_radius(G).value == pytest.approx(eig_rho(G), abs=1e-8)

    def test_agrees_with_power_iteration(self):
        rng = random.Random(29)
        for _ in range(60):
            G = rand_graph(rng.randint(2, 13), rng.random(), rng)
            assert spectral_radius(G).value == pytest.approx(power_rho(G), abs=1e-9)

    def test_residual_bounds_the_error(self):
        rng = random.Random(30)
        for _ in range(80):
            G = rand_graph(rng.randint(2, 30), rng.random(), rng)
            rep = spectral_radius(G)
            assert rep.converged and rep.iterations == (1 if G.m else 0)
            assert abs(rep.value - eig_rho(G)) <= rep.residual + 1e-12

    def test_near_degenerate_link(self):
        # two K_80 joined by an edge, one edge removed: the top two eigenvalues
        # nearly coincide, which took power iteration 37 585 iterations
        K = list(combinations(range(1, 81), 2))
        edges = K[1:] + [(a + 80, b + 80) for a, b in K] + [(80, 81)]
        G = Graph2(160, tuple(sorted(edges)))
        started = time.perf_counter()
        rep = spectral_radius(G)
        assert time.perf_counter() - started < 5.0  # one eigensolve, about 10 ms
        assert rep.converged and rep.iterations == 1
        assert rep.value == pytest.approx(eig_rho(G), abs=1e-9)

    def test_tolerance_below_the_float_resolution_is_not_converged(self):
        rep = spectral_radius(complete_graph(6), tolerance=1e-17)
        assert not rep.converged
        assert rep.value == pytest.approx(5, abs=1e-12)
        # the shift rho + tolerance/2 rounds to rho = 1: an exactly singular resolvent
        rep = spectral_radius(path(2), tolerance=1e-17)
        assert rep.value == 1.0 and rep.residual == math.inf and not rep.converged

    def test_bipartite_components_converge(self):
        # disjoint union of two paths: plain power iteration on A would stall
        G = Graph2(6, ((1, 2), (3, 4), (4, 5), (5, 6)))
        rep = spectral_radius(G)
        assert rep.converged
        assert rep.value == pytest.approx(eig_rho(G), abs=1e-8)

    def test_split_graph_closed_form(self):
        rng = random.Random(23)
        cases = [(s, n) for n in range(2, 41) for s in range(1, n)]
        for s, n in rng.sample(cases, 80):
            G, _ = link_graph(h1(s, n + 1).hypergraph, n + 1)  # K_s v co-K_{n-s}
            assert spectral_radius(G).value == pytest.approx(threshold_match(s, n + 1), abs=TOL)

    def test_edge_monotonicity(self):
        rng = random.Random(24)
        for _ in range(40):
            G = rand_graph(rng.randint(3, 10), 0.5, rng)
            missing = [p for p in combinations(range(1, G.n + 1), 2) if p not in set(G.edges)]
            if not missing:
                continue
            extra = rng.choice(missing)
            G2 = Graph2(G.n, tuple(sorted(G.edges + (extra,))))
            assert spectral_radius(G2).value >= spectral_radius(G).value - 2e-10

    def test_relabeling_invariance(self):
        rng = random.Random(25)
        for _ in range(30):
            G = rand_graph(rng.randint(2, 9), rng.random(), rng)
            perm = list(range(1, G.n + 1))
            rng.shuffle(perm)
            edges = tuple(sorted(tuple(sorted((perm[a - 1], perm[b - 1]))) for a, b in G.edges))
            # exact up to float summation order, which relabeling permutes
            assert spectral_radius(Graph2(G.n, edges)).value == pytest.approx(
                spectral_radius(G).value, abs=1e-10
            )


class TestLinkSpectra:
    def test_certified_bounds_bracket_the_radius(self):
        rng = random.Random(31)
        slack = 1e-12  # the oracles' own rounding
        for _ in range(40):
            H = rand_3graph(rng.randint(1, 12), rng.random(), rng)
            spectra = link_spectra(H)
            for v, rho, lo, hi, ok in zip(
                spectra.vertices, spectra.rho, spectra.lower, spectra.upper, spectra.converged
            ):
                exact = eig_rho(link_graph(H, v)[0])
                assert lo <= exact + slack and exact <= hi + slack
                assert ok and hi - lo <= spectra.tolerance
                assert rho == pytest.approx(exact, abs=1e-12)

    def test_radii_match_the_link_graphs(self):
        rng = random.Random(32)
        for _ in range(20):
            H = rand_3graph(rng.randint(1, 10), rng.random(), rng)
            spectra = link_spectra(H)
            assert spectra.vertices == tuple(range(1, H.n + 1))
            for v, rho in zip(spectra.vertices, spectra.rho):
                assert rho == pytest.approx(spectral_radius(link_graph(H, v)[0]).value, abs=1e-12)

    def test_chunks_and_vertex_subsets(self, monkeypatch):
        H = random_3graph(11, 0.6, 5).hypergraph
        whole = link_spectra(H)
        monkeypatch.setattr(spectral, "LINK_CHUNK_BYTES", 3 * 8 * 11 * 11)  # three links per chunk
        assert link_spectra(H) == whole
        some = link_spectra(H, vertices=[9, 2])
        assert some.vertices == (9, 2)
        assert some.rho == (whole.rho[8], whole.rho[1])

    def test_chunks_and_vertex_subsets_above_the_cutoff(self, monkeypatch):
        n = 40
        H = random_3graph(n, 0.6, 5).hypergraph
        E = H.edge_array
        # every link spans the other n - 1 vertices, so no chunk pads a link
        assert all(np.unique(E[(E == v).any(axis=1)]).size == n for v in range(1, n + 1))
        assert n - 1 >= spectral.POWER_MIN_VERTICES
        no_eigensolve(monkeypatch)
        whole = link_spectra(H)
        assert all(whole.converged)
        monkeypatch.setattr(spectral, "LINK_CHUNK_BYTES", 3 * 8 * n * n)  # three links per chunk
        assert link_spectra(H) == whole
        some = link_spectra(H, vertices=[9, 2])
        assert some.vertices == (9, 2)
        assert some.rho == (whole.rho[8], whole.rho[1])
        assert some.lower == (whole.lower[8], whole.lower[1])

    def test_repeated_vertices_are_rejected(self):
        H = random_3graph(9, 0.8, 1).hypergraph
        with pytest.raises(ValueError, match="vertex 2 repeated"):
            link_spectra(H, vertices=[2, 2])

    def test_validation(self):
        H = complete_3graph(5).hypergraph
        with pytest.raises(ValueError, match="vertex 0 out of range 1..5"):
            link_spectra(H, vertices=[0])
        for tolerance in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                link_spectra(H, tolerance=tolerance)
        empty = link_spectra(Hypergraph3(0, ()))
        assert empty.rho == () and empty.condition(Threshold(0, 0, 1), 0.0)[0] == "indeterminate"

    def test_condition_certificates(self):
        K9 = link_spectra(complete_3graph(9).hypergraph)  # every link is K_8: rho = 7
        assert K9.condition(Threshold(13, 0, 2), 1e-9) == ("holds", ())
        assert K9.condition(Threshold(15, 0, 2), 1e-9) == ("fails", ())
        assert K9.condition(Threshold(7, 0, 1), 1e-9) == ("indeterminate", ())
        # with no slack the float rule may pick a side of the exact tie; no certificate backs it
        for b in (1, 2, 3):
            cond, bad = K9.condition(Threshold(7 * b, 0, b), 0.0)
            assert cond == "indeterminate"
        H = h1(2, 9).hypergraph  # minimum link radius equals the threshold, an irrational
        cond, bad = link_spectra(H).condition(exact_threshold_match(2, 9), 0.0)
        assert cond == "indeterminate"


class TestLinkSpectraBlock:
    @staticmethod
    def mixed_block() -> list[Hypergraph3]:
        """Dense, sparse (varied padding), power-route and n = 100 instances, and tiny ones."""
        specs = [(12, 0.8, 1), (14, 0.15, 2), (9, 0.5, 3), (26, 0.05, 4), (30, 0.5, 5), (12, 0.8, 6)]
        Hs = [random_3graph(n, p, seed).hypergraph for n, p, seed in specs]
        Hs.insert(2, random_3graph(100, 0.7, instance_seed(20260925, 0)).hypergraph)  # 13-link chunks
        tiny = [Hypergraph3(0, ()), Hypergraph3(1, ()), Hypergraph3(5, ())]
        return Hs + tiny + [complete_3graph(30).hypergraph]

    def test_each_entry_is_the_instance_alone(self):
        Hs = self.mixed_block()
        assert spectral.LINK_CHUNK_BYTES // (8 * 100 * 100) == 13
        block = spectral.link_spectra_block(Hs)
        assert len(block) == len(Hs)
        for H, spectra in zip(Hs, block):
            assert spectra == link_spectra(H)
        assert spectral.link_spectra_block([]) == []

    def test_vertex_subsets_in_a_block(self):
        Hs = self.mixed_block()
        rng = random.Random(71)
        vss = [tuple(rng.sample(range(1, H.n + 1), rng.randint(0, H.n))) for H in Hs]
        block = spectral._block_spectra(Hs, vss, spectral.DEFAULT_TOLERANCE)
        for H, vs, spectra in zip(Hs, vss, block):
            assert spectra == link_spectra(H, vertices=vs)

    def test_small_budget_splits_chunks_and_stacks(self, monkeypatch):
        # a budget of three 12-vertex links: many chunks, and stacks solved as they fill
        monkeypatch.setattr(spectral, "LINK_CHUNK_BYTES", 3 * 8 * 12 * 12)
        specs = [(12, 0.3, 1), (9, 0.5, 2), (12, 0.1, 3), (7, 0.6, 4)]
        Hs = [random_3graph(n, p, seed).hypergraph for n, p, seed in specs]
        stacks = []
        real = spectral._link_radii

        def link_radii(A, sizes, edges, tolerance):
            stacks.append(A.shape[:2])
            return real(A, sizes, edges, tolerance)

        monkeypatch.setattr(spectral, "_link_radii", link_radii)
        block = spectral.link_spectra_block(Hs)
        # a chunk holds three links, a stack of smaller ones up to 3456 // (8 size^2), often
        # not a multiple of three: a stack is solved before a chunk would take it over
        assert all(k <= spectral.LINK_CHUNK_BYTES // (8 * size * size) for k, size in stacks)
        assert sum(k for k, _ in stacks) == sum(H.n for H in Hs)
        monkeypatch.setattr(spectral, "_link_radii", real)
        for H, spectra in zip(Hs, block):
            assert spectra == link_spectra(H)

    def test_equal_padded_sizes_share_a_stack(self, monkeypatch):
        stacks = []
        real = spectral._link_radii

        def link_radii(A, sizes, edges, tolerance):
            stacks.append(A.shape)
            return real(A, sizes, edges, tolerance)

        monkeypatch.setattr(spectral, "_link_radii", link_radii)
        Hs = [random_3graph(12, 0.8, seed).hypergraph for seed in range(20)]
        spectral.link_spectra_block(Hs)
        padded = {shape[1] for shape in stacks}
        assert len(stacks) == len(padded) and sum(shape[0] for shape in stacks) == 20 * 12
        # one link per chunk at n = 300: the links of each padded size are solved together
        stacks.clear()
        H = random_3graph(300, 0.002, 3).hypergraph
        assert spectral.LINK_CHUNK_BYTES // (8 * 300 * 300) == 1
        spectral.link_spectra(H)
        assert sum(shape[0] for shape in stacks) == 300
        for size in {shape[1] for shape in stacks}:  # as few stacks as fit the budget
            cap = spectral.LINK_CHUNK_BYTES // (8 * size * size)
            counts = [k for k, m, _ in stacks if m == size]
            assert len(counts) == -(-sum(counts) // cap) and max(counts) <= cap
        assert len(stacks) < 100
        # across instances of different n: the links of n = 12 are padded to 11, and so are those
        # of the same edges at n = 13 and 14, whose extra vertices are isolated
        stacks.clear()
        Hs = [random_3graph(n, 0.8, seed).hypergraph for n in (11, 12, 13) for seed in range(3)]
        Hs += [Hypergraph3(n, Hs[3].edge_array) for n in (13, 14)]
        block = spectral.link_spectra_block(Hs)
        assert {shape[1]: shape[0] for shape in stacks} == {10: 3 * 11, 11: 3 * 12 + 13 + 14, 12: 3 * 13}
        assert len(stacks) == 3
        monkeypatch.setattr(spectral, "_link_radii", real)
        for H, spectra in zip(Hs, block):
            assert spectra == link_spectra(H)

    def test_links_are_padded_to_the_largest_of_their_chunk(self, monkeypatch):
        stacks = []
        real = spectral._link_radii

        def link_radii(A, sizes, edges, tolerance):
            stacks.append((A.shape, sizes.tolist()))
            return real(A, sizes, edges, tolerance)

        monkeypatch.setattr(spectral, "_link_radii", link_radii)
        H = random_3graph(14, 0.15, 2).hypergraph  # one chunk of 14 links of varied sizes
        sizes = [len({u for e in link_graph(H, v)[0].edges for u in e}) for v in range(1, 15)]
        assert len(set(sizes)) > 1
        spectral.link_spectra_block([H, H])
        assert stacks == [((28, max(sizes), max(sizes)), sizes + sizes)]
        monkeypatch.setattr(spectral, "LINK_CHUNK_BYTES", 8 * 14 * 14)  # one link per chunk
        stacks.clear()
        link_spectra(H)
        assert sorted(size for _, group in stacks for size in group) == sorted(sizes)
        assert all(shape[1:] == (size, size) for shape, group in stacks for size in group)

    def test_validation(self):
        with pytest.raises(ValueError):
            spectral.link_spectra_block([complete_3graph(5).hypergraph], tolerance=0.0)


class TestPowerRoute:
    def test_complete_links(self, monkeypatch):
        no_eigensolve(monkeypatch)
        spectra = link_spectra(complete_3graph(30).hypergraph)  # every link is K_29: rho = 28
        assert spectra.rho == (28.0,) * 30 and all(spectra.converged)
        assert all(lo <= 28 <= hi for lo, hi in zip(spectra.lower, spectra.upper))
        assert spectra.condition(Threshold(55, 0, 2), 1e-9) == ("holds", ())
        assert spectra.condition(Threshold(57, 0, 2), 1e-9) == ("fails", ())

    def test_criterion_5_instance(self, monkeypatch):
        H = random_3graph(100, 0.7, instance_seed(20260925, 0)).hypergraph  # criterion 5's stream
        no_eigensolve(monkeypatch)
        spectra = link_spectra(H)
        assert all(spectra.converged)
        slack = 1e-12  # the oracle's own rounding
        for v, rho, lo, hi in zip(spectra.vertices, spectra.rho, spectra.lower, spectra.upper):
            exact = eig_rho(link_graph(H, v)[0])
            assert lo <= exact + slack and exact <= hi + slack
            assert rho == pytest.approx(exact, abs=1e-12)
        assert spectra.condition(exact_threshold_match(1, 100), 1e-9) == ("holds", ())

    def test_disconnected_link_falls_through_to_the_eigensolver(self, monkeypatch):
        # the link of vertex 1 is K_24 + K_25: its power spread stays 24 - 23
        cliques = (range(2, 26), range(26, 51))
        H = Hypergraph3(50, [(1, u, w) for c in cliques for u, w in combinations(c, 2)])
        assert 49 >= spectral.POWER_MIN_VERTICES
        shapes = []
        real = spectral._eigh

        def eigh(A):
            shapes.append(A.shape)
            return real(A)

        monkeypatch.setattr(spectral, "_eigh", eigh)
        spectra = link_spectra(H, vertices=[1])
        assert shapes == [(1, 49, 49)]
        assert spectra.converged == (True,)
        assert spectra.rho[0] == pytest.approx(24, abs=1e-12)
        assert spectra.lower[0] <= 24 <= spectra.upper[0]


class TestThreshold:
    def test_exact_sign(self):
        t = Threshold(1, 8, 2)  # (1 + 2 sqrt 2) / 2 = 1.9142...
        assert t.value == pytest.approx((1 + math.sqrt(8)) / 2)
        assert t.sign(1.9142) == -1 and t.sign(1.9143) == 1
        f = Fraction(t.value)  # the float lies on one side of the irrational value
        assert t.sign(t.value) == (1 if (2 * f - 1) ** 2 > 8 else -1)
        assert Threshold(1, 9, 2).sign(2.0) == 0  # (1 + 3) / 2
        assert Threshold(-1, 1, 2).sign(0.0) == 0
        assert Threshold(-3, 1, 1).sign(-2.0) == 0
        assert Threshold(-3, 1, 1).sign(-2.5) == -1

    def test_of_float_is_exact(self):
        x = (2 / 3 + 0.05) * 12
        t = Threshold.of_float(x)
        assert t.value == x and t.sign(x) == 0
        assert t.sign(math.nextafter(x, math.inf)) == 1
        assert t.sign(math.nextafter(x, -math.inf)) == -1

    def test_compare_agrees_with_fractions_at_exact_ties(self):
        # d a perfect square makes the threshold rational, so Fraction arithmetic decides exactly
        rng = random.Random(71)
        for _ in range(400):
            a, k, b = rng.randint(-20, 20), rng.randint(0, 9), rng.randint(1, 12)
            t, value = Threshold(a, k * k, b), Fraction(a + k, b)
            r = Fraction(rng.randint(-10**12, 10**12), 2 ** rng.randint(0, 90))
            shifted = t.plus(r)
            q = rng.randint(1, 50)
            for p in (value.numerator * q, value.numerator * q + 1, value.numerator * q - 1):
                x = Fraction(p, value.denominator * q)  # equal to the value, or just beside it
                assert t.compare(x.numerator, x.denominator) == (x > value) - (x < value)
                y = x + r
                assert shifted.compare(y.numerator, y.denominator) == (x > value) - (x < value)

    def test_compare_agrees_with_high_precision_off_squares(self):
        import decimal

        rng = random.Random(72)
        with decimal.localcontext() as ctx:
            ctx.prec = 80
            for _ in range(400):
                a, d, b = rng.randint(-20, 20), rng.randint(0, 500), rng.randint(1, 12)
                if math.isqrt(d) ** 2 == d:
                    continue
                value = (decimal.Decimal(a) + decimal.Decimal(d).sqrt()) / b
                p, q = rng.randint(-400, 400), rng.randint(1, 40)
                expect = (decimal.Decimal(p) / q > value) - (decimal.Decimal(p) / q < value)
                assert Threshold(a, d, b).compare(p, q) == expect

    def test_sign_keeps_the_rule_it_had(self):
        def old_sign(t: Threshold, x: float) -> int:
            p, q = x.as_integer_ratio()
            L = t.b * p - t.a * q
            R2 = t.d * q * q
            if L <= 0:
                return -1 if L < 0 or R2 > 0 else 0
            return (L * L > R2) - (L * L < R2)

        rng = random.Random(73)
        for _ in range(2000):
            t = Threshold(rng.randint(-30, 30), rng.choice([0, 1, 4, rng.randint(0, 10**4)]), rng.randint(1, 9))
            x = rng.choice([t.value, math.nextafter(t.value, math.inf), rng.uniform(-40, 40), 0.0, -0.0])
            assert t.sign(x) == old_sign(t, x)

    def test_match_threshold_is_the_float_formula(self):
        for n in range(1, 40):
            for s in range(0, n):
                D = (s - 1) ** 2 + 4 * s * (n - s - 1)
                assert threshold_match(s, n) == 0.5 * (s - 1 + math.sqrt(D))


class TestClosedFormBounds:
    def test_stanley_values(self):
        assert stanley_bound(0) == 0
        assert stanley_bound(6) == pytest.approx(3)
        assert stanley_bound(10) == pytest.approx(4)
        with pytest.raises(ValueError):
            stanley_bound(-1)

    def test_hong_values(self):
        assert hong_bound(complete_graph(4)) == pytest.approx(3)
        assert hong_bound(cycle(5)) == pytest.approx(2)
        G, _ = link_graph(h1(2, 9).hypergraph, 9)
        assert hong_bound(G) == pytest.approx(4)
        assert hong_bound(Graph2(5, ())) == 0.0

    def test_bounds_dominate_rho(self):
        rng = random.Random(26)
        for _ in range(80):
            G = rand_graph(rng.randint(2, 14), rng.random(), rng)
            rho = spectral_radius(G).value
            assert rho <= stanley_bound(G.m) + TOL
            assert rho <= hong_bound(G) + TOL

    def test_terpai_values(self):
        assert terpai_gap(Graph2(5, ())) == pytest.approx(5 / 3, abs=TOL)
        assert terpai_gap(complete_graph(6)) == pytest.approx(2, abs=TOL)
        assert terpai_gap(cycle(5)) == pytest.approx(20 / 3 - 5, abs=TOL)

    def test_terpai_nonnegative(self):
        rng = random.Random(27)
        for _ in range(60):
            G = rand_graph(rng.randint(1, 14), rng.random(), rng)
            assert terpai_gap(G) >= -TOL
            assert spectral_radius(G).value + spectral_radius(complement(G)).value <= (
                4 * G.n / 3 - 1 + TOL
            )

    def test_threshold_match_values(self):
        assert threshold_match(1, 6) == pytest.approx(2)
        assert threshold_match(2, 9) == pytest.approx(4)
        assert threshold_match(2, 9) == pytest.approx(2 * 9 / 3 - 2)
        assert threshold_match(0, 17) == 0.0
        with pytest.raises(ValueError):
            threshold_match(-1, 5)
        with pytest.raises(ValueError):
            threshold_match(5, 5)

    def test_threshold_fyz_values(self):
        assert threshold_fyz(1, 5) == pytest.approx(2)
        assert threshold_fyz(2, 10) == pytest.approx((1 + math.sqrt(65)) / 2)
        assert threshold_fyz(0, 2) == 0.0
        with pytest.raises(ValueError):
            threshold_fyz(2, 7)
        with pytest.raises(ValueError):
            threshold_fyz(-1, 5)

    def test_fyz_is_the_split_graph_radius_above_3m_plus_2(self):
        for m in range(0, 6):
            for n in range(3 * m + 3, 3 * m + 30):
                assert threshold_fyz(m, n) == threshold_match(m, n + 1)

    def test_fyz_bounds_rho_of_bounded_matching_graphs(self):
        rng = random.Random(28)
        checked = 0
        while checked < 40:
            G = rand_graph(rng.randint(5, 14), rng.random() * 0.4, rng)
            nu, _ = max_matching_graph(G)
            if G.n < 3 * nu + 2:
                continue
            assert spectral_radius(G).value <= threshold_fyz(nu, G.n) + TOL
            checked += 1


class TestClassifyCondition:
    @pytest.mark.parametrize("threshold", [0.0, 4.0, 2 * 99 / 3 - 2])
    @pytest.mark.parametrize("eps", [DEFAULT_COMPARISON_SLACK, 1e-3])
    def test_slack_edges(self, threshold, eps):
        upper, lower = threshold + eps, threshold - eps
        assert classify_condition(math.nextafter(upper, math.inf), threshold, eps, True) == "holds"
        assert classify_condition(upper, threshold, eps, True) == "indeterminate"
        assert classify_condition(threshold, threshold, eps, True) == "indeterminate"
        assert classify_condition(lower, threshold, eps, True) == "indeterminate"
        assert classify_condition(math.nextafter(lower, -math.inf), threshold, eps, True) == "fails"

    def test_nonconverged_is_indeterminate(self):
        for min_rho in (0.0, 3.0, 4.0, 5.0, 100.0):
            assert classify_condition(min_rho, 4.0, 1e-9, False) == "indeterminate"


class TestDegreeQuotients:
    """Rung 0: the exact Rayleigh quotient of each link's degree vector."""

    @staticmethod
    def brute(H: Hypergraph3) -> list[tuple[int, int]]:
        out = []
        for v in range(1, H.n + 1):
            A = np.zeros((H.n, H.n), dtype=np.int64)
            for e in H.edges:
                if v in e:
                    a, b = (x - 1 for x in e if x != v)
                    A[a, b] = A[b, a] = 1
            d = A.sum(axis=1)
            out.append((int(d @ A @ d), int(d @ d)))
        return out

    def test_integers_equal_brute_force(self):
        rng = random.Random(81)
        Hs = [rand_3graph(rng.randint(0, 14), rng.choice([0, 0.3, 1]), rng) for _ in range(40)]
        Hs += [Hypergraph3(n, ()) for n in range(3)] + [h1(1, 6).hypergraph, complete_3graph(5).hypergraph]
        Hs += [Hypergraph3(7, ((1, 2, 3), (1, 4, 5)))]  # empty links at 6 and 7
        rng.shuffle(Hs)
        num, den = spectral._degree_quotients(Hs)
        assert num.dtype == den.dtype == np.int64
        assert list(zip(num.tolist(), den.tolist())) == [q for H in Hs for q in self.brute(H)]
        for H in Hs:  # a block of one gives the same integers
            assert list(zip(*(x.tolist() for x in spectral._degree_quotients([H])))) == self.brute(H)

    def test_quotient_is_never_above_the_radius(self):
        rng = random.Random(82)
        for _ in range(60):
            H = rand_3graph(rng.randint(3, 14), rng.choice([0.3, 0.6, 1]), rng)
            num, den = spectral._degree_quotients([H])
            for v, (p, q) in enumerate(zip(num.tolist(), den.tolist()), start=1):
                rho = eig_rho(link_graph(H, v)[0])
                assert q == 0 or Fraction(p, q) <= rho + 1e-9

    def test_clears_only_instances_whose_full_route_holds(self):
        rng = random.Random(83)
        for n, s in ((9, 1), (9, 2), (12, 2), (12, 3)):
            t = exact_threshold_match(s, n)
            Hs = [random_3graph(n, rng.choice([0.5, 0.8]), rng.randrange(10**6)).hypergraph for _ in range(30)]
            clear = degree_quotients_clear(Hs, t, DEFAULT_COMPARISON_SLACK, DEFAULT_TOLERANCE)
            for H, c in zip(Hs, clear):
                if c:
                    assert link_spectra(H).condition(t, DEFAULT_COMPARISON_SLACK) == ("holds", ())
            assert any(clear)

    def test_boundary_instances_are_never_cleared(self):
        # the links of h1's outside vertices sit exactly at the threshold
        for s in range(1, 5):
            for n in range(3 * s + 3, 3 * s + 12):
                H = h1(s, n).hypergraph
                t = exact_threshold_match(s, n)
                for eps in (0.0, DEFAULT_COMPARISON_SLACK):
                    assert degree_quotients_clear([H], t, eps, DEFAULT_TOLERANCE) == [False]
                assert link_spectra(H).condition(t, DEFAULT_COMPARISON_SLACK)[0] == "indeterminate"

    def test_degenerate_instances_and_slacks_are_never_cleared(self):
        t = exact_threshold_match(1, 9)
        K9 = complete_3graph(9).hypergraph
        assert degree_quotients_clear([K9], t, DEFAULT_COMPARISON_SLACK, DEFAULT_TOLERANCE) == [True]
        assert degree_quotients_clear([], t, 0.0, DEFAULT_TOLERANCE) == []
        for eps in (math.inf, math.nan, 100.0):
            assert degree_quotients_clear([K9], t, eps, DEFAULT_TOLERANCE) == [False]
        # an empty link (vertex 9 lies on no edge), and no vertices at all
        K8 = Hypergraph3(9, complete_3graph(8).hypergraph.edges)
        assert degree_quotients_clear([K8, Hypergraph3(0, ())], t, 0.0, DEFAULT_TOLERANCE) == [False, False]
        # every link of K9 is K8, of radius 7 and quotient 7: within eps + 2 tolerance of t it is not cleared
        for eps, below, clears in ((0.0, 1e-10, False), (0.0, 3e-10, True), (1e-9, 1.1e-9, False), (1e-9, 1.3e-9, True)):
            assert degree_quotients_clear([K9], Threshold.of_float(7 - below), eps, 1e-10) == [clears]
        # the float rule reads the rounded threshold.value, here 12.8 for the exact 6.9
        far = Threshold(-(10**18), (10**18 + 69) ** 2, 10)
        assert far.compare(69, 10) == 0 and far.value > 12
        assert degree_quotients_clear([K9], far, DEFAULT_COMPARISON_SLACK, DEFAULT_TOLERANCE) == [False]
        assert link_spectra(K9).condition(far, DEFAULT_COMPARISON_SLACK)[0] != "holds"
        # a negative slack does not lower the bar below t
        assert degree_quotients_clear([K9], Threshold(7, 0, 1), -1.0, DEFAULT_TOLERANCE) == [False]
        assert degree_quotients_clear([K9], Threshold(6, 0, 1), -1.0, DEFAULT_TOLERANCE) == [True]
