"""Extremal family generators, their split-graph links, and random/exhaustive sources."""

import math
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from linkspec.constructions import (
    complete_3graph,
    h1,
    h2,
    hypergraph_from_bitmask,
    lex_triple_array,
    lex_triples,
    random_3graph,
)
from linkspec.graphs import link_graph
from linkspec.harness import instance_seed, search_exhaustive
from linkspec.lp import fractional_matching
from linkspec.matching import find_matching_of_size, max_matching_3graph
from linkspec.spectral import exact_threshold_match, link_spectra, spectral_radius, threshold_match

from conftest import ref_random_3graph_edges

TOL = 1e-9


class TestH1:
    def test_edge_counts(self):
        assert h1(2, 9).hypergraph.m == 49
        assert h1(3, 12).hypergraph.m == comb(12, 3) - comb(9, 3) == 136

    def test_edges_meet_hub(self):
        H = h1(3, 10).hypergraph
        assert all(e[0] <= 3 for e in H.edges)
        assert H.m == comb(10, 3) - comb(7, 3)

    def test_expected_statistics(self):
        for s, n, rho in ((2, 9, 4), (1, 6, 2)):
            H = h1(s, n).hypergraph
            assert min(link_spectra(H).rho) == pytest.approx(rho, abs=TOL)
            assert max_matching_3graph(H).size == s and fractional_matching(H).value == s

    def test_min_link_rho_attained_outside_hub(self):
        for s, n in [(1, 6), (2, 9), (3, 12), (4, 15), (2, 7), (3, 10)]:
            inst = h1(s, n)
            rhos = [
                spectral_radius(link_graph(inst.hypergraph, v)[0]).value
                for v in range(1, n + 1)
            ]
            assert min(rhos) == pytest.approx(threshold_match(s, n), abs=TOL)
            for v in range(1, n + 1):
                if v <= s:
                    assert rhos[v - 1] == pytest.approx(n - 2, abs=TOL)
                else:
                    assert rhos[v - 1] == pytest.approx(threshold_match(s, n), abs=TOL)

    def test_matching_numbers_confirmed_exactly(self):
        for s, n in [(1, 6), (2, 9), (2, 10), (3, 12)]:
            inst = h1(s, n)
            assert max_matching_3graph(inst.hypergraph).size == s
            assert fractional_matching(inst.hypergraph).value == Fraction(s)
            witness, decided = find_matching_of_size(inst.hypergraph, s + 1)
            assert decided and witness is None  # no matching of size s+1
            assert (inst.hypergraph.edge_array[:, 0] <= s).all()  # the hub set [s] meets every edge

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            h1(0, 9)
        with pytest.raises(ValueError):
            h1(2, 2)
        with pytest.raises(ValueError):
            h1(10, 9)

    def test_degenerate_all_hub(self):
        inst = h1(9, 9)  # every link is complete
        assert inst.hypergraph.m == comb(9, 3)
        assert min(link_spectra(inst.hypergraph).rho) == pytest.approx(7)


class TestH2:
    def test_edges_have_two_hub_vertices(self):
        H = h2(3, 9).hypergraph
        assert all(sum(1 for v in e if v <= 5) >= 2 for e in H.edges)

    def test_expected_statistics(self):
        H = h2(3, 10).hypergraph
        assert min(link_spectra(H).rho) == pytest.approx(4, abs=TOL)
        assert max_matching_3graph(H).size == 2
        assert fractional_matching(H).value == Fraction(5, 2)

    def test_min_link_rho_attained_outside_hub(self):
        for s, n in [(2, 7), (3, 9), (3, 12), (4, 12), (5, 15)]:
            inst = h2(s, n)
            rhos = [
                spectral_radius(link_graph(inst.hypergraph, v)[0]).value
                for v in range(1, n + 1)
            ]
            assert min(rhos) == pytest.approx(2 * s - 2, abs=TOL)
            assert all(
                rhos[v - 1] == pytest.approx(2 * s - 2, abs=TOL)
                for v in range(2 * s, n + 1)
            )

    def test_matching_numbers_confirmed_exactly(self):
        for s, n in [(2, 7), (3, 9), (3, 10), (4, 12)]:
            inst = h2(s, n)
            assert max_matching_3graph(inst.hypergraph).size == s - 1
            witness, decided = find_matching_of_size(inst.hypergraph, s)
            assert decided and witness is None  # no matching of size s
            if n >= 3 * s:
                assert fractional_matching(inst.hypergraph).value == Fraction(2 * s - 1, 2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            h2(0, 9)
        with pytest.raises(ValueError):
            h2(6, 9)  # 2s-1 > n


class TestSplitGraph:
    # K_s v co-K_{n-s} is the link of the last vertex of h1(s, n+1); its radius is threshold_match(s, n+1)
    def test_examples(self):
        for s, n, m, rho in ((1, 5, 4, 2), (3, 3, 3, 2)):
            G, _ = link_graph(h1(s, n + 1).hypergraph, n + 1)
            assert G.m == m and threshold_match(s, n + 1) == pytest.approx(rho)
        assert threshold_match(0, 5) == 0.0  # K_0 v co-K_4 has no edge

    def test_rho_matches_eigensolver(self):
        for s, n in [(1, 5), (2, 8), (3, 10), (4, 11)]:
            G, _ = link_graph(h1(s, n + 1).hypergraph, n + 1)
            assert spectral_radius(G).value == pytest.approx(threshold_match(s, n + 1), abs=TOL)

    def test_validation(self):
        with pytest.raises(ValueError):  # K_5 v co-K_{-1}
            threshold_match(5, 4 + 1)


class TestRandom3Graph:
    def test_extreme_probabilities(self):
        assert random_3graph(7, 0.0, 1).hypergraph.m == 0
        assert random_3graph(7, 1.0, 1).hypergraph.m == comb(7, 3)

    def test_determinism(self):
        a = random_3graph(9, 0.5, 7).hypergraph
        b = random_3graph(9, 0.5, 7).hypergraph
        assert a == b
        assert a != random_3graph(9, 0.5, 8).hypergraph

    def test_coin_per_lexicographic_triple(self):
        # the k-th coin decides the k-th lexicographic triple, so a prefix
        # of the stream is insensitive to n-extension of the vertex set
        rng = random.Random(123)
        coins = [rng.random() < 0.4 for _ in lex_triples(8)]
        H = random_3graph(8, 0.4, 123).hypergraph
        assert H.edges == tuple(t for t, c in zip(lex_triples(8), coins) if c)

    def test_validation(self):
        with pytest.raises(ValueError):
            random_3graph(6, 1.5, 0)

    def test_stream_matches_the_list_comprehension_generator(self):
        # one draw per lexicographic triple, kept iff it is below p, edge for edge
        seeds = [0, 1, 7, 123, instance_seed(20260825, 9_999), instance_seed(20260925, 3)]
        for n in range(0, 15):
            for p in (0.0, 0.13, 0.5, 0.8, 1.0):
                for seed in seeds:
                    H = random_3graph(n, p, seed).hypergraph
                    assert H.edges == ref_random_3graph_edges(n, p, seed), (n, p, seed)
        for n, p, seed in ((32, 0.5, instance_seed(20261025, 0)), (40, 0.3, 5)):
            assert random_3graph(n, p, seed).hypergraph.edges == ref_random_3graph_edges(n, p, seed)

    def test_families_match_their_definitions(self):
        for n in range(3, 13):
            triples = list(combinations(range(1, n + 1), 3))
            assert complete_3graph(n).hypergraph.edges == tuple(triples)
            for s in range(1, n + 1):
                assert h1(s, n).hypergraph.edges == tuple(e for e in triples if e[0] <= s)
            for s in range(1, (n + 1) // 2 + 1):
                hubs = 2 * s - 1
                expected = tuple(e for e in triples if sum(v <= hubs for v in e) >= 2)
                assert h2(s, n).hypergraph.edges == expected

    def test_lex_triple_array_is_lex_triples(self):
        for n in range(0, 12):
            T = lex_triple_array(n)
            assert T.shape == (len(lex_triples(n)), 3) and not T.flags.writeable
            assert list(map(tuple, T.tolist())) == lex_triples(n)


class TestEnumeration:
    def test_counts(self):
        seen = set(hypergraph_from_bitmask(4, m).edges for m in range(1 << comb(4, 3)))
        assert len(seen) == 16

    def test_bitmask_round_trip(self):
        for mask in (0, 1, 5, 1023):
            H = hypergraph_from_bitmask(5, mask)
            back = sum(1 << lex_triples(5).index(e) for e in H.edges)
            assert back == mask
        with pytest.raises(ValueError):
            hypergraph_from_bitmask(4, 16)

    def test_bitmask_matches_definition(self):
        rng = random.Random(11)
        for n in range(0, 9):
            triples = lex_triples(n)
            for mask in [0, (1 << len(triples)) - 1] + [rng.getrandbits(len(triples)) for _ in range(20)]:
                expected = tuple(t for i, t in enumerate(triples) if mask >> i & 1)
                assert hypergraph_from_bitmask(n, mask).edges == expected

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            search_exhaustive(7, 1, "thm13")


class TestComplete:
    def test_expected(self):
        H = complete_3graph(6).hypergraph
        assert H.m == 20
        assert min(link_spectra(H).rho) == pytest.approx(4)
        assert max_matching_3graph(H).size == 2 and fractional_matching(H).value == 2
        assert complete_3graph(0).hypergraph.m == 0


class TestClosedFormConsistency:
    def test_split_graph_radii_are_threshold_match_exactly(self):
        # the certified bracket of the last link of h1(s, n+1) holds the exact threshold
        for n in range(3, 15):
            for s in range(1, n + 1):
                thr = exact_threshold_match(s, n + 1)
                spectra = link_spectra(h1(s, n + 1).hypergraph, vertices=[n + 1])
                assert thr.sign(spectra.lower[0]) <= 0 <= thr.sign(spectra.upper[0])

    def test_h1_formula_vs_paper_constant_at_boundary(self):
        # at s = n/3 - 1 the closed form collapses to 2n/3 - 2 exactly:
        # (s-1)^2 + 4s(2s+2) = (3s+1)^2
        for n in (6, 9, 12, 15, 30, 300):
            s = n // 3 - 1
            if s < 1:
                continue
            closed = 0.5 * (s - 1 + math.sqrt((s - 1) ** 2 + 4 * s * (n - s - 1)))
            assert closed == pytest.approx(2 * n / 3 - 2, abs=TOL)
