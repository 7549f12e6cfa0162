"""Exact matching numbers: blossom for 2-graphs, branch-and-bound for 3-graphs."""

import random

import pytest

from linkspec.constructions import complete_3graph, h1, h2
from linkspec import matching
from linkspec.graphs import Graph2, Hypergraph3, link_graph
from linkspec.matching import (
    Matching3,
    _greedy_hitting_bound,
    find_matching_of_size,
    max_matching_3graph,
    max_matching_graph,
)

from conftest import brute_nu_3graph, brute_nu_graph, rand_3graph, rand_graph, ref_greedy_hitting_bound


def petersen() -> Graph2:
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]
    return Graph2.from_edges(10, outer + spokes + inner)


def cycle(n: int) -> Graph2:
    return Graph2.from_edges(n, [(i, i % n + 1) for i in range(1, n + 1)])


class TestMatching3Type:
    def test_disjointness_enforced(self):
        Matching3(((1, 2, 3), (4, 5, 6)))
        with pytest.raises(ValueError):
            Matching3(((1, 2, 3), (3, 4, 5)))
        with pytest.raises(ValueError):
            Matching3(((3, 2, 1),))

    def test_validate_in_host(self):
        H = Hypergraph3(6, ((1, 2, 3),))
        assert H.has_edges(Matching3(((1, 2, 3),)).edges).all()
        assert not H.has_edges(Matching3(((4, 5, 6),)).edges).all()


class TestGraphMatching:
    def test_known_values(self):
        assert max_matching_graph(cycle(5))[0] == 2
        assert max_matching_graph(link_graph(h1(2, 9).hypergraph, 9)[0])[0] == 2  # K_2 v co-K_6
        assert max_matching_graph(petersen())[0] == 5

    def test_witness_is_a_matching(self):
        size, pairs = max_matching_graph(petersen())
        used = [v for e in pairs for v in e]
        assert len(pairs) == size and len(used) == len(set(used))

    def test_agrees_with_brute_force(self):
        rng = random.Random(41)
        for _ in range(120):
            G = rand_graph(rng.randint(1, 8), rng.random(), rng)
            assert max_matching_graph(G)[0] == brute_nu_graph(G)


class TestThreeGraphMatching:
    def test_known_values(self, fano):
        assert max_matching_3graph(fano).size == 1
        assert max_matching_3graph(h1(2, 9).hypergraph).size == 2
        assert max_matching_3graph(h2(3, 9).hypergraph).size == 2

    def test_exact_flag_and_witness(self):
        res = max_matching_3graph(complete_3graph(9).hypergraph)
        assert res.exact and res.size == 3
        assert complete_3graph(9).hypergraph.has_edges(res.matching.edges).all()
        assert len(res.matching) == 3

    def test_budget_exhaustion_returns_lower_bound(self):
        rng = random.Random(42)
        exhausted = 0
        for _ in range(60):
            H = rand_3graph(9, 0.35, rng)
            res = max_matching_3graph(H, budget=1, lp_root_bound=False)
            assert res.size <= brute_nu_3graph(H)
            if not res.exact:
                exhausted += 1
        assert exhausted > 0  # a one-node budget cannot settle every instance
        with pytest.raises(ValueError):
            max_matching_3graph(complete_3graph(6).hypergraph, budget=0)

    def test_agrees_with_exhaustive_recursion(self):
        rng = random.Random(43)
        for _ in range(80):
            H = rand_3graph(rng.randint(3, 9), rng.random(), rng)
            res = max_matching_3graph(H)
            assert res.exact
            assert res.size == brute_nu_3graph(H)
            assert H.has_edges(res.matching.edges).all()

    def test_find_matching_of_size(self):
        H = complete_3graph(9).hypergraph
        witness, decided = find_matching_of_size(H, 3)
        assert decided and witness is not None and len(witness) == 3
        witness, decided = find_matching_of_size(H, 4)
        assert decided and witness is None
        witness, decided = find_matching_of_size(h1(2, 9).hypergraph, 3)
        assert decided and witness is None


    def test_target_witness_is_the_first_fit_matching(self):
        # the early return at `target` hands back the first-fit matching over
        # the sorted edges, whole: reports print it as the witness
        def first_fit(H):
            used, out = set(), []
            for e in H.edges:
                if used.isdisjoint(e):
                    out.append(e)
                    used.update(e)
            return tuple(out)

        rng = random.Random(36)
        for _ in range(60):
            H = rand_3graph(rng.randint(3, 14), rng.random(), rng)
            res = max_matching_3graph(H, target=1)
            if H.m:
                assert res.matching.edges == first_fit(H) and res.nodes == 0

    def test_first_fit_found_past_the_first_slice(self):
        # vertex 2's block opens with 44 rows through the taken vertex 49, so
        # its first fit lies beyond the first slice of rows the scan converts
        n = 50
        block = [(2, b, n - 1) for b in range(3, n - 2)] + [(2, n - 3, n - 2)]
        H = Hypergraph3.from_edges(n, [(1, n - 1, n)] + block)
        assert max_matching_3graph(H, target=1).matching.edges == ((1, n - 1, n), (2, n - 3, n - 2))


class TestHittingSetBound:
    def test_extremal_certificates(self):
        # a set meeting every edge bounds nu by its size: [3] for h1(3, 12), [5] for h2(3, 12)
        assert (h1(3, 12).hypergraph.edge_array[:, 0] <= 3).all()
        assert (h2(3, 12).hypergraph.edge_array[:, 0] <= 5).all()

    def test_kept_degrees_agree_with_the_rescan(self):
        rng = random.Random(47)
        for _ in range(300):
            n = rng.randint(1, 16)
            width = rng.choice((3, 3, rng.randint(1, n)))  # 3-graph masks, and masks of any width
            masks = [
                sum(1 << v for v in rng.sample(range(n), min(width, n))) for _ in range(rng.randint(0, 60))
            ]
            assert _greedy_hitting_bound(masks, n) == ref_greedy_hitting_bound(masks, n)

    def test_search_is_unchanged(self, monkeypatch):
        # same bound at every node, so the same node counts and witnesses as with the rescan
        rng = random.Random(48)
        instances = [rand_3graph(rng.randint(6, 13), rng.uniform(0.1, 0.7), rng) for _ in range(40)]
        kept = [max_matching_3graph(H, lp_root_bound=False) for H in instances]
        monkeypatch.setattr(matching, "_greedy_hitting_bound", ref_greedy_hitting_bound)
        assert [max_matching_3graph(H, lp_root_bound=False) for H in instances] == kept
        assert sum(r.nodes for r in kept) > 0
