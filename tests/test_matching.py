"""Exact matching numbers: blossom for 2-graphs, branch-and-bound for 3-graphs."""

import random
from itertools import combinations

import pytest

from linkspec.constructions import complete_3graph, h1, h2, split_graph
from linkspec.graphs import Graph2, Hypergraph3
from linkspec.matching import (
    GreedyExtendError,
    Matching3,
    NotAHittingSetError,
    find_matching_of_size,
    greedy_extend,
    high_degree_set,
    hitting_set_bound,
    max_matching_3graph,
    max_matching_graph,
)

from conftest import brute_nu_3graph, brute_nu_graph, rand_3graph, rand_graph


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
        Matching3(((1, 2, 3),)).validate_in(H)
        with pytest.raises(ValueError):
            Matching3(((4, 5, 6),)).validate_in(H)


class TestGraphMatching:
    def test_known_values(self):
        assert max_matching_graph(cycle(5))[0] == 2
        assert max_matching_graph(split_graph(2, 8)[0])[0] == 2
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
        res.matching.validate_in(complete_3graph(9).hypergraph)
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
            res.matching.validate_in(H)

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


class TestHittingSetBound:
    def test_extremal_certificates(self):
        assert hitting_set_bound(h1(3, 12).hypergraph, range(1, 4)) == 3
        assert hitting_set_bound(h2(3, 12).hypergraph, range(1, 6)) == 5

    def test_rejection_carries_witness(self):
        with pytest.raises(NotAHittingSetError) as err:
            hitting_set_bound(complete_3graph(6).hypergraph, {1})
        assert err.value.witness == (2, 3, 4)

    def test_vertex_range_checked(self):
        with pytest.raises(ValueError):
            hitting_set_bound(complete_3graph(6).hypergraph, {7})


class TestHighDegreeSet:
    def test_complete_graph_all_heavy(self):
        H = complete_3graph(20).hypergraph
        assert high_degree_set(H, 1) == frozenset(range(1, 21))

    def test_empty(self):
        assert high_degree_set(Hypergraph3(9, ()), 2) == frozenset()

    def test_h1_hub_only(self):
        # d(1) = C(11,2) = 55 > 3*1*10 = 30; every other vertex has degree 10
        assert high_degree_set(h1(1, 12).hypergraph, 1) == frozenset({1})


class TestGreedyExtend:
    def test_empty_r_returns_m0(self):
        H = complete_3graph(9).hypergraph
        M0 = Matching3(((1, 2, 3),))
        assert greedy_extend(H, M0, (), 1) == M0

    def test_complete_graph_extension(self):
        H = complete_3graph(12).hypergraph
        M = greedy_extend(H, Matching3(()), {1, 2, 3}, 2)
        assert len(M) == 3
        M.validate_in(H)
        assert all(any(v in e for e in M.edges) for v in (1, 2, 3))

    def test_h1_extension(self):
        H = h1(2, 20).hypergraph
        M = greedy_extend(H, Matching3(()), {1, 2}, 1)
        assert len(M) == 2
        M.validate_in(H)

    def test_failure_names_stuck_vertex(self):
        # both R-vertices only have edges through each other, so the second
        # one processed cannot be matched disjointly
        H = Hypergraph3(7, ((1, 2, 3), (1, 2, 4)))
        with pytest.raises(GreedyExtendError) as err:
            greedy_extend(H, Matching3(()), {1, 2}, 1)
        assert err.value.vertex in (1, 2)

    def test_m0_must_avoid_r(self):
        H = complete_3graph(9).hypergraph
        with pytest.raises(ValueError):
            greedy_extend(H, Matching3(((1, 2, 3),)), {3}, 1)

    def test_output_always_disjoint(self):
        rng = random.Random(44)
        done = 0
        while done < 25:
            H = rand_3graph(9, 0.7, rng)
            r = rng.sample(range(1, 10), 2)
            try:
                M = greedy_extend(H, Matching3(()), r, 1)
            except GreedyExtendError:
                continue
            M.validate_in(H)  # Matching3 already enforces disjointness
            done += 1
