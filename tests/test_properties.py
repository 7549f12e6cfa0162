"""Property-based invariants over randomly drawn instances."""

from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st

from linkspec.fileio import parse_instance, serialize, serialize_json
from linkspec.graphs import Graph2, Hypergraph3, complement, link_graph
from linkspec.lp import fractional_matching
from linkspec.matching import max_matching_3graph, max_matching_graph
from linkspec.spectral import (
    hong_bound,
    spectral_radius,
    stanley_bound,
    terpai_gap,
    threshold_fyz,
)

from conftest import brute_nu_3graph, brute_nu_graph, eig_rho

TOL = 1e-9


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(1, n + 1), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph2(n, tuple(p for i, p in enumerate(pairs) if mask >> i & 1))


@st.composite
def hypergraphs(draw, max_n=7):
    n = draw(st.integers(0, max_n))
    triples = list(combinations(range(1, n + 1), 3))
    mask = draw(st.integers(0, (1 << len(triples)) - 1))
    return Hypergraph3(n, tuple(t for i, t in enumerate(triples) if mask >> i & 1))


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_serialization_round_trips(H):
    assert parse_instance(serialize(H)) == H
    assert parse_instance(serialize_json(H)) == H


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_graph_serialization_round_trips(G):
    assert parse_instance(serialize(G)) == G


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_degree_identities(H):
    degrees = [int((H.edge_array == v).any(axis=1).sum()) for v in range(1, H.n + 1)]
    assert sum(degrees) == 3 * H.m
    for v in range(1, H.n + 1):
        assert link_graph(H, v)[0].m == degrees[v - 1]


@settings(max_examples=50, deadline=None)
@given(hypergraphs())
def test_matching_sandwich(H):
    nu = max_matching_3graph(H).size
    assert nu == brute_nu_3graph(H)
    nu_frac = fractional_matching(H).value
    assert Fraction(nu) <= nu_frac <= Fraction(H.n, 3)


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=8))
def test_blossom_agrees_with_brute_force(G):
    assert max_matching_graph(G)[0] == brute_nu_graph(G)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_spectral_invariants(G):
    rho = spectral_radius(G).value
    assert abs(rho - eig_rho(G)) < 1e-8
    assert rho <= stanley_bound(G.m) + TOL
    assert rho <= hong_bound(G) + TOL
    if G.n >= 1:  # the Nordhaus-Gaddum bound 4n/3 - 1 is negative at n = 0
        assert terpai_gap(G) >= -TOL
    assert complement(complement(G)) == G


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_bounded_matching_spectral_bound(G):
    nu, _ = max_matching_graph(G)
    if G.n >= 3 * nu + 2:
        assert spectral_radius(G).value <= threshold_fyz(nu, G.n) + TOL
