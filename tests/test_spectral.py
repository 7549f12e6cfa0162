"""Spectral radius computation and the closed-form bounds."""

import math
import random
from itertools import combinations

import pytest

from linkspec.constructions import split_graph
from linkspec.graphs import Graph2, complement
from linkspec.matching import max_matching_graph
from linkspec.spectral import (
    DEFAULT_COMPARISON_SLACK,
    classify_condition,
    hong_bound,
    lemma24_common_edges_check,
    spectral_radius,
    stanley_bound,
    terpai_gap,
    threshold_fyz,
    threshold_match,
)

from conftest import eig_rho, rand_graph

TOL = 1e-9


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
        G, _ = split_graph(2, 8)  # the join of K_2 with 6 isolated vertices
        assert spectral_radius(G).value == pytest.approx(4, abs=TOL)

    def test_report_fields(self):
        rep = spectral_radius(cycle(5))
        assert rep.converged and rep.residual <= rep.tolerance
        assert rep.component_count == 1
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
                assert rho >= math.sqrt(max(G.degree_of(v) for v in range(1, G.n + 1))) - TOL

    def test_agrees_with_dense_eigensolver(self):
        rng = random.Random(22)
        for _ in range(120):
            G = rand_graph(rng.randint(2, 13), rng.random(), rng)
            assert spectral_radius(G).value == pytest.approx(eig_rho(G), abs=1e-8)

    def test_bipartite_components_converge(self):
        # disjoint union of two paths: plain power iteration on A would stall
        G = Graph2(6, ((1, 2), (3, 4), (4, 5), (5, 6)))
        rep = spectral_radius(G)
        assert rep.converged
        assert rep.value == pytest.approx(eig_rho(G), abs=1e-8)
        assert rep.component_count == 2

    def test_split_graph_closed_form(self):
        rng = random.Random(23)
        cases = [(s, n) for n in range(2, 41) for s in range(1, n)]
        for s, n in rng.sample(cases, 80):
            G, expected = split_graph(s, n)
            assert spectral_radius(G).value == pytest.approx(expected, abs=TOL)

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
        G, _ = split_graph(2, 8)
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


class TestCommonEdgesCheck:
    def test_not_applicable_for_small_spectral_sum(self):
        empty6 = Graph2(6, ())
        assert lemma24_common_edges_check(empty6, empty6, 0.1).status == "not_applicable"
        K30 = complete_graph(30)
        empty30 = Graph2(30, ())
        assert lemma24_common_edges_check(K30, empty30, 0.1).status == "not_applicable"

    def test_holds_for_complete_pair(self):
        K30 = complete_graph(30)
        verdict = lemma24_common_edges_check(K30, K30, 0.1)
        assert verdict.status == "holds"
        assert verdict.common_edges == 435
        assert verdict.required == pytest.approx(4.5)

    def test_parameter_validation(self):
        K4 = complete_graph(4)
        with pytest.raises(ValueError):
            lemma24_common_edges_check(K4, complete_graph(5), 0.1)
        with pytest.raises(ValueError):
            lemma24_common_edges_check(K4, K4, 0.3)
