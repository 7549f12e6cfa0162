"""Core graph/hypergraph types and operations."""

import pickle
import random
from itertools import combinations

import numpy as np
import pytest

from linkspec.constructions import complete_3graph, h1, h2
from linkspec.graphs import KEY_MAX_N, Graph2, Hypergraph3, complement, induced, lex_increasing, link_graph

from conftest import rand_3graph, rand_graph, ref_first_bad_row


def complete_graph(n: int) -> Graph2:
    return Graph2(n, tuple(combinations(range(1, n + 1), 2)))


class TestValidation:
    def test_graph_rejects_loops_and_disorder(self):
        with pytest.raises(ValueError):
            Graph2(3, ((1, 1),))
        with pytest.raises(ValueError):
            Graph2(3, ((2, 1),))
        with pytest.raises(ValueError):
            Graph2(3, ((1, 4),))
        with pytest.raises(ValueError):
            Graph2(3, ((1, 2), (1, 2)))
        with pytest.raises(ValueError):
            Graph2(3, ((1, 3), (1, 2)))  # not lexicographically sorted
        with pytest.raises(ValueError):
            Graph2(-1, ())

    def test_h3_rejects_bad_triples(self):
        with pytest.raises(ValueError):
            Hypergraph3(4, ((1, 1, 2),))
        with pytest.raises(ValueError):
            Hypergraph3(4, ((3, 2, 1),))
        with pytest.raises(ValueError):
            Hypergraph3(4, ((2, 3, 5),))
        with pytest.raises(ValueError):
            Hypergraph3(4, ((1, 2, 3), (1, 2, 3)))

    @pytest.mark.parametrize(
        "n,edges,message",
        [
            (-1, (), "vertex count must be nonnegative, got -1"),
            (4, ((1, 1, 2),), "edge (1, 1, 2) is not an increasing triple"),
            (4, ((3, 2, 1),), "edge (3, 2, 1) is not an increasing triple"),
            (4, ((1, 2),), "edge (1, 2) is not an increasing triple"),
            (4, ((2, 3, 5),), "edge (2, 3, 5) out of range 1..4"),
            (4, ((0, 1, 2),), "edge (0, 1, 2) out of range 1..4"),
            (4, ((1, 2, 3), (1, 2, 3)), "duplicate edge (1, 2, 3)"),
            (4, ((1, 3, 4), (1, 2, 3)), "edges must be sorted lexicographically"),
            # the first offending edge in the given order is named
            (4, ((1, 2, 4), (2, 3, 4), (1, 2, 4), (0, 1, 2)), "duplicate edge (1, 2, 4)"),
            (4, ((2, 3, 4), (1, 2, 3), (1, 2, 5)), "edge (1, 2, 5) out of range 1..4"),
            (4, ((1, 2, 3), (2, 3, 4), (1, 2)), "edge (1, 2) is not an increasing triple"),
            (4, ((1, 2, 3), (1, 2, 3), (1, 2)), "duplicate edge (1, 2, 3)"),
            (4, ((1.0, 2, 3),), "edge (1.0, 2, 3) is not an increasing triple"),
        ],
    )
    def test_h3_error_messages(self, n, edges, message):
        with pytest.raises(ValueError) as err:
            Hypergraph3(n, edges)
        assert str(err.value) == message
        if n >= 0 and all(len(e) == 3 and all(type(v) is int for v in e) for e in edges):
            with pytest.raises(ValueError) as err:  # the same from an array
                Hypergraph3(n, np.array(edges, dtype=np.int64).reshape(-1, 3))
            assert str(err.value) == message

    @pytest.mark.parametrize(
        "edges,message",
        [
            # in base n + 1 = 10, (1, 2, 14) and (1, 3, 4) read as one number; neither is a repeat
            (((1, 3, 4), (1, 2, 14)), "edge (1, 2, 14) out of range 1..9"),
            (((1, 2, 14), (1, 3, 4)), "edge (1, 2, 14) out of range 1..9"),
            (((1, 3, 4), (4, 2, 1)), "edge (4, 2, 1) is not an increasing triple"),
            (((2, 3, 4), (1, 2, 3), (2, 3, 4), (1, 2, 10)), "duplicate edge (2, 3, 4)"),
            (((2, 3, 4), (1, 2, 10), (1, 2, 3), (2, 3, 4)), "edge (1, 2, 10) out of range 1..9"),
        ],
    )
    def test_first_bad_row_of_an_unsorted_array(self, edges, message):
        with pytest.raises(ValueError) as err:
            Hypergraph3(9, np.array(edges))
        assert str(err.value) == message

    @pytest.mark.parametrize("n", [9, KEY_MAX_N + 1, 2**40])
    def test_repeat_found_at_any_n(self, n):
        edges = np.array([(5, 6, 7), (1, 2, n), (1, 2, 3), (1, 2, n), (5, 6, 7)])
        with pytest.raises(ValueError, match=rf"^duplicate edge \(1, 2, {n}\)$"):
            Hypergraph3(n, edges)

    def test_first_bad_row_agrees_with_an_exact_repeat_test(self):
        rng = random.Random(61)
        for _ in range(400):
            n = rng.randint(1, 8)
            rows = [sorted(rng.sample(range(1, n + 3), 3)) for _ in range(rng.randint(1, 12))]
            rows += [rng.choice(rows) for _ in range(rng.randint(0, 3))]  # repeats
            # entries above n, among them rows that read in base n + 1 as an in-range row, or below 0
            for _ in range(2):
                rows.append([rng.randint(-1, 2), rng.randint(0, n), rng.randint(n + 1, (n + 1) ** 2)])
            rng.shuffle(rows)
            E = np.array(rows, dtype=np.intp)
            expected = ref_first_bad_row(n, E)
            if expected is None:
                continue
            with pytest.raises(ValueError) as err:
                Hypergraph3(n, E)
            assert str(err.value) == expected

    def test_from_edges_canonicalizes(self):
        G = Graph2.from_edges(3, [(2, 1), (3, 1), (1, 2)])
        assert G.edges == ((1, 2), (1, 3))
        H = Hypergraph3.from_edges(5, [(3, 2, 1), (5, 4, 1)])
        assert H.edges == ((1, 2, 3), (1, 4, 5))

    def test_empty_and_tiny_inputs_are_legal(self):
        assert Graph2(0, ()).m == 0
        assert Hypergraph3(2, ()).m == 0
        assert link_graph(Hypergraph3(1, ()), 1)[0].n == 0

    def test_adjacency_consistency(self):
        G = Graph2(4, ((1, 2), (2, 3)))
        assert G.adjacency[1] == 0b101  # the neighbours of 2 are 1 and 3
        assert G.has_edge(3, 2) and not G.has_edge(1, 3)

    def test_incidence(self):
        H = Hypergraph3(5, ((1, 2, 3), (1, 4, 5)))
        assert np.flatnonzero((H.edge_array == 1).any(axis=1)).tolist() == [0, 1]
        assert link_graph(H, 1)[0].m == 2 and link_graph(H, 2)[0].m == 1
        assert H.has_edge((3, 2, 1))


class TestEdgeArray:
    def test_tuples_and_arrays_give_equal_instances(self):
        rng = random.Random(4)
        for n in range(0, 10):
            H = rand_3graph(n, 0.4, rng)
            for dtype in (np.int64, np.int32, np.uint16, np.intp):
                G = Hypergraph3(n, np.array(H.edges, dtype=dtype).reshape(-1, 3))
                assert G == H and hash(G) == hash(H) and G.edges == H.edges
            assert Hypergraph3(n + 1, H.edges) != H
            assert H.edge_array.dtype == np.intp and H.edge_array.shape == (H.m, 3)

    def test_edge_array_is_read_only_and_not_shared(self):
        source = np.array([[1, 2, 3], [2, 3, 4]])
        H = Hypergraph3(4, source)
        assert not H.edge_array.flags.writeable
        with pytest.raises(ValueError):
            H.edge_array[0, 0] = 2
        source[0] = (1, 2, 4)
        assert H.edges == ((1, 2, 3), (2, 3, 4))
        with pytest.raises(AttributeError):
            H.n = 5

    def test_tuple_view_is_built_on_first_use(self):
        H = Hypergraph3(5, np.array([[1, 2, 3], [1, 4, 5]]))
        assert "edges" not in vars(H)
        assert H.m == 2 and H == Hypergraph3(5, ((1, 2, 3), (1, 4, 5)))
        assert "edges" not in vars(H)
        assert H.edges == ((1, 2, 3), (1, 4, 5)) and type(H.edges[0][0]) is int
        assert repr(H) == "Hypergraph3(n=5, edges=((1, 2, 3), (1, 4, 5)))"

    def test_has_edges_is_set_membership(self):
        rng = random.Random(8)
        # at n = 9 an unguarded key would find the edge (1, 3, 4) for the row (1, 2, 14)
        for H in [rand_3graph(n, 0.5, rng) for n in range(0, 9)] + [Hypergraph3(9, [(1, 3, 4)])]:
            edges = set(H.edges)
            triples = list(combinations(range(0, H.n + 2), 3))  # out-of-range labels included
            assert H.has_edges(np.array(triples).reshape(-1, 3)).tolist() == [t in edges for t in triples]
            assert [H.has_edge(t[::-1]) for t in triples] == [t in edges for t in triples]
            assert not H.has_edge((1, 2))
            rows = _lookup_rows(H)
            assert H.has_edges(np.array(rows)).tolist() == [r in edges for r in rows]

    @pytest.mark.parametrize("n", [KEY_MAX_N, KEY_MAX_N + 1, 2**40])
    def test_has_edges_at_large_sparse_n(self, n):
        # either side of the int64 key cutoff, and far above it on the record view;
        # the largest key, (n+1)^3 - 1, fits in int64 exactly up to the cutoff
        assert (KEY_MAX_N + 1) ** 3 - 1 < 2**63 <= (KEY_MAX_N + 2) ** 3 - 1
        H = Hypergraph3(n, [(1, 2, 3), (1, 2, n), (5, n - 1, n), (n - 2, n - 1, n)])
        rows = _lookup_rows(H) + [(1, 3, n), (5, n - 2, n), (2**40 + 7, 1, 2), (n - 2, n - 1, n - 1)]
        edges = set(H.edges)
        assert H.has_edges(np.array(rows)).tolist() == [r in edges for r in rows]

    def test_pickle_round_trip(self):
        H = complete_3graph(6).hypergraph
        G = pickle.loads(pickle.dumps(H))
        assert G == H and not G.edge_array.flags.writeable
        # the lookup keys are a cache: built on the first lookup, never pickled
        assert "_edge_keys" not in vars(H) and H.has_edge((1, 2, 3)) and "_edge_keys" in vars(H)
        G = pickle.loads(pickle.dumps(H))
        assert G == H and hash(G) == hash(H) and "_edge_keys" not in vars(G)

    def test_lex_increasing_is_tuple_order(self):
        # rows as int64 keys while (max - min + 1)^3 < 2^63, offset from the
        # minimum, and by row differences beyond that
        rng = random.Random(12)
        # entries wrap .. wrap + 3 make base-4 keys 16a + 4b + c; not offset by the
        # minimum they would carry 21 * wrap = 2^63 - 10 (mod 2^64) and wrap at 2^63
        wrap = (2**63 - 10) * pow(21, -1, 2**64) % 2**64
        for lo, hi in ((1, 4), (-5, 5), (wrap, wrap + 3), (0, 2**40), (-(2**61), 2**61)):
            for _ in range(300):
                rows = sorted({tuple(rng.randint(lo, hi) for _ in range(3)) for _ in range(rng.randint(0, 6))})
                if len(rows) > 1 and rng.random() < 0.5:  # a repeat or a swap
                    i = rng.randrange(len(rows) - 1)
                    rows[i + 1] = rows[i] if rng.random() < 0.5 else rows[i + 1]
                    rows[i], rows[i + 1] = rows[i + 1], rows[i]
                E = np.array(rows, dtype=np.int64).reshape(-1, 3)
                assert lex_increasing(E) == all(r < s for r, s in zip(rows, rows[1:]))

    def test_any_iterable_of_triples(self):
        assert Hypergraph3(4, iter([(1, 2, 3)])) == Hypergraph3(4, ((1, 2, 3),))
        assert Hypergraph3(4, []).m == 0 and Hypergraph3(4, np.empty((0, 3), int)).m == 0



class TestGraph2EdgeSet:
    """A `Graph2` is the 2-uniform case of the edge set behind `Hypergraph3`."""

    @pytest.mark.parametrize(
        "n,edges,message",
        [
            (-1, (), "vertex count must be nonnegative, got -1"),
            (3, ((1, 1),), "edge (1, 1) is not an increasing pair"),
            (3, ((2, 1),), "edge (2, 1) is not an increasing pair"),
            (3, ((1, 2, 3),), "edge (1, 2, 3) is not an increasing pair"),
            (3, ((1, 4),), "edge (1, 4) out of range 1..3"),
            (3, ((0, 1),), "edge (0, 1) out of range 1..3"),
            (3, ((1, 2), (1, 2)), "duplicate edge (1, 2)"),
            (3, ((1, 3), (1, 2)), "edges must be sorted lexicographically"),
            # the first offending edge in the given order is named
            (3, ((1, 3), (2, 3), (1, 3), (0, 1)), "duplicate edge (1, 3)"),
            (3, ((2, 3), (1, 2), (1, 5)), "edge (1, 5) out of range 1..3"),
            (3, ((1, 2), (2, 3), (1,)), "edge (1,) is not an increasing pair"),
            (3, ((1, 2.5),), "edge (1, 2.5) is not an increasing pair"),
        ],
    )
    def test_g2_error_messages(self, n, edges, message):
        with pytest.raises(ValueError) as err:
            Graph2(n, edges)
        assert str(err.value) == message
        if n >= 0 and all(len(e) == 2 and all(type(v) is int for v in e) for e in edges):
            with pytest.raises(ValueError) as err:  # the same from an array
                Graph2(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
            assert str(err.value) == message

    def test_tuples_lists_and_arrays_give_equal_graphs(self):
        # a list and an array of pairs are accepted as a tuple of pairs is
        G = Graph2(3, ((1, 2),))
        for edges in ([(1, 2)], np.array([[1, 2]]), [[1, 2]], iter([(1, 2)]), np.array([[1, 2]], dtype=np.uint8)):
            same = Graph2(3, edges)
            assert same == G and hash(same) == hash(G) and same.edges == ((1, 2),)
        rng = random.Random(21)
        for n in range(0, 10):
            G = rand_graph(n, 0.4, rng)
            for edges in (G.edges, list(G.edges), np.array(G.edges, dtype=np.int64).reshape(-1, 2)):
                same = Graph2(n, edges)
                assert same == G and hash(same) == hash(G) and same.edges == G.edges
            assert G.edge_array.dtype == np.intp and G.edge_array.shape == (G.m, 2)
            assert not G.edge_array.flags.writeable

    def test_first_bad_row_of_unsorted_pairs(self):
        rng = random.Random(62)
        checked = 0
        for _ in range(400):
            n = rng.randint(1, 8)
            rows = [sorted(rng.sample(range(1, n + 3), 2)) for _ in range(rng.randint(1, 12))]
            rows += [rng.choice(rows) for _ in range(rng.randint(0, 3))]  # repeats
            # entries above n, among them rows that read in base n + 1 as an in-range row, or below 0
            rows.append([rng.randint(-1, 2), rng.randint(n + 1, (n + 1) ** 2)])
            rows.append([rng.randint(0, n), rng.randint(0, n)])
            rng.shuffle(rows)
            E = np.array(rows, dtype=np.intp)
            expected = ref_first_bad_row(n, E)
            if expected is None:
                continue
            checked += 1
            with pytest.raises(ValueError) as err:
                Graph2(n, E)
            assert str(err.value) == expected
        assert checked > 300

    def test_pickle_round_trip(self):
        G = complete_graph(6)
        assert G.has_edge(2, 1) and "_edge_keys" in vars(G)
        copy = pickle.loads(pickle.dumps(G))
        assert copy == G and hash(copy) == hash(G) and type(copy) is Graph2
        assert not copy.edge_array.flags.writeable and "_edge_keys" not in vars(copy)
        assert repr(copy) == repr(G) == f"Graph2(n=6, edges={G.edges!r})"

    def test_not_equal_to_a_3graph(self):
        assert Graph2(3, ()) != Hypergraph3(3, ()) and not Graph2(3, ()) == Hypergraph3(3, ())
        assert Graph2(3, ()) == Graph2(3, []) and Graph2(3, ()) != Graph2(4, ())

    @pytest.mark.parametrize("n", [9, KEY_MAX_N, KEY_MAX_N + 1, 2**40])
    def test_has_edge_is_set_membership(self, n):
        # on int64 keys up to KEY_MAX_N and on records above it
        G = Graph2(n, [(1, 2), (1, n), (n - 1, n)])
        pairs = [(a, b) for a in (0, 1, 2, n - 1, n, n + 1) for b in (0, 1, 2, n - 1, n, n + 1)]
        assert [G.has_edge(a, b) for a, b in pairs] == [tuple(sorted((a, b))) in set(G.edges) for a, b in pairs]
        assert G.has_edges(np.array(pairs)).tolist() == [p in set(G.edges) for p in pairs]

class TestLinkGraph:
    def test_complete4_link_is_triangle(self):
        H = complete_3graph(4).hypergraph
        link, lab = link_graph(H, 1)
        assert link.n == 3 and link.m == 3
        assert lab == {2: 1, 3: 2, 4: 3}

    def test_h1_outside_link_is_split_graph(self):
        # Triples through the last vertex that meet the 2-vertex hub induce
        # the join of K_2 with 6 isolated vertices.
        H = h1(2, 9).hypergraph
        link, _ = link_graph(H, 9)
        cross = [(a, b) for a in (1, 2) for b in range(3, 9)]
        assert link == Graph2.from_edges(8, [(1, 2)] + cross)

    def test_no_incident_edge_gives_empty_link(self):
        H = Hypergraph3(5, ((1, 2, 3),))
        link, _ = link_graph(H, 5)
        assert link.n == 4 and link.m == 0

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            link_graph(Hypergraph3(4, ()), 5)

    def test_link_edge_count_equals_degree(self):
        rng = random.Random(11)
        for _ in range(30):
            H = rand_3graph(rng.randint(3, 9), rng.random(), rng)
            v = rng.randint(1, H.n)
            assert link_graph(H, v)[0].m == (H.edge_array == v).any(axis=1).sum()

    def test_link_commutes_with_vertex_removal(self):
        rng = random.Random(12)
        for _ in range(20):
            H = rand_3graph(rng.randint(4, 9), rng.random(), rng)
            v = rng.randint(1, H.n)
            r = rng.choice([u for u in range(1, H.n + 1) if u != v])
            HR, lab_h = induced(H, [u for u in range(1, H.n + 1) if u != r])
            left, _ = link_graph(HR, lab_h[v])
            whole, lab_l = link_graph(H, v)
            # the link of v minus r, with the labels above r's moved down by one
            x = lab_l[r]
            right = Graph2.from_edges(
                whole.n - 1, [(a - (a > x), b - (b > x)) for a, b in whole.edges if x not in (a, b)]
            )
            assert left == right


def vertex_degrees(H: Hypergraph3) -> list[int]:
    """d(v) for v = 1..n, as the edge count of each link."""
    return [link_graph(H, v)[0].m for v in range(1, H.n + 1)]


def codegrees(H: Hypergraph3) -> list[int]:
    """d(uv) over all pairs, as the degree of u in the link of v."""
    out = []
    for v in range(1, H.n + 1):
        link, lab = link_graph(H, v)
        out += [bin(link.adjacency[lab[u] - 1]).count("1") for u in range(v + 1, H.n + 1)]
    return out


class TestDegrees:
    # the degree statistics of the constructions, read off their link graphs
    def test_degree_examples(self):
        K5 = complete_3graph(5).hypergraph
        assert vertex_degrees(K5) == [6] * 5
        assert codegrees(K5) == [3] * 10
        assert h1(2, 9).hypergraph.m == 49

    def test_min_l_degree_examples(self):
        assert min(vertex_degrees(complete_3graph(5).hypergraph)) == 6
        assert min(vertex_degrees(h1(2, 9).hypergraph)) == 13

    def test_max_codegree_examples(self):
        assert max(codegrees(complete_3graph(7).hypergraph)) == 5
        pm = Hypergraph3(6, ((1, 2, 3), (4, 5, 6)))
        assert max(codegrees(pm)) == 1
        assert max(codegrees(h2(3, 9).hypergraph)) == 7

    def test_degree_sum_identities(self):
        rng = random.Random(13)
        for _ in range(25):
            H = rand_3graph(rng.randint(3, 9), rng.random(), rng)
            assert sum(vertex_degrees(H)) == 3 * H.m
            assert sum(codegrees(H)) == 3 * H.m


class TestConstructions:
    def test_complement(self):
        K4 = complete_graph(4)
        assert complement(K4).m == 0
        rng = random.Random(14)
        for _ in range(25):
            G = rand_graph(rng.randint(1, 10), rng.random(), rng)
            assert complement(complement(G)) == G
            assert G.m + complement(G).m == G.n * (G.n - 1) // 2

    def test_join_split_graph(self):
        # K_s joined with n-s isolated vertices is the link of the last vertex of h1(s, n+1)
        for n in range(2, 9):
            for s in range(1, n + 1):
                join = [(a, b) for a, b in combinations(range(1, n + 1), 2) if a <= s]
                assert link_graph(h1(s, n + 1).hypergraph, n + 1)[0] == Graph2.from_edges(n, join)

    def test_remove_all_hub_vertices_empties_h1(self):
        H, lab = induced(h1(2, 9).hypergraph, range(3, 10))
        assert H.n == 7 and H.m == 0
        assert lab == {v: v - 2 for v in range(3, 10)}

    def test_induced_composition(self):
        rng = random.Random(15)
        for _ in range(20):
            H = rand_3graph(rng.randint(5, 10), rng.random(), rng)
            S = sorted(rng.sample(range(1, H.n + 1), rng.randint(3, H.n)))
            S2 = sorted(rng.sample(S, rng.randint(0, len(S))))
            one, lab1 = induced(H, S2)
            mid, lab_mid = induced(H, S)
            two, lab2 = induced(mid, [lab_mid[v] for v in S2])
            assert one == two
            assert {v: lab2[lab_mid[v]] for v in S2} == {v: lab1[v] for v in S2}

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            induced(complete_3graph(5).hypergraph, {9})
        with pytest.raises(ValueError):
            induced(complete_3graph(5).hypergraph, {0})


def _lookup_rows(H: Hypergraph3) -> list[tuple[int, int, int]]:
    """Edges, non-edges, non-increasing rows, (0, 0, 0), negative and above-n labels."""
    n = H.n
    rows = list(H.edges) + [e[::-1] for e in H.edges] + [(b, a, c) for a, b, c in H.edges]
    rows += [(a, b, c + 1) for a, b, c in H.edges] + [(a, a, c) for a, _, c in H.edges]
    rows += [(0, 0, 0), (0, 1, 2), (-1, 2, 3), (1, 2, -3), (-n, -1, 0)]
    rows += [(1, 2, n + 1), (1, n, n + 1), (n + 1, n + 2, n + 3), (1, 2, n + 5), (1, 2, 2 * n + 1)]
    # with base n + 1, (1, 1, n + 4) has the key of (1, 2, 3), and at n = 9 (1, 2, 14) that of (1, 3, 4)
    rows += [(1, 2, 14), (1, 3, 4), (1, 1, n + 4), (1, 1, n + 2), (n, n, n)]
    return rows
