"""Condition checks, shifting machinery, absorbing sets, and search."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from linkspec.constructions import complete_3graph, h1, h2, hypergraph_from_bitmask, random_3graph
from linkspec import harness, lp
from linkspec.graphs import Graph2, Hypergraph3, induced, link_graph
from linkspec.harness import (
    STREAM_LENGTH,
    LiftFailure,
    ShiftedPair,
    absorbing_sets,
    check_condition,
    check_thm11,
    instance_seed,
    lemma25_check,
    lift_link_matching,
    search_exhaustive,
    search_random,
    shift,
    shift_closure_holds,
    verify_theorem,
)
from linkspec.lp import FractionalAssignment, fractional_matching
from linkspec.matching import max_matching_3graph, max_matching_graph
from linkspec.spectral import link_spectra, spectral_radius

from conftest import brute_nu_3graph, rand_3graph, ref_shift_closure_holds, uncertifiable_links
from test_acceptance import RANDOM_SWEEP_CONFIGS


class TestCheckCondition:
    def test_extremal_boundary_is_indeterminate(self):
        rep = check_condition(h1(2, 9).hypergraph, 2)
        assert rep.condition == "indeterminate"
        assert rep.min_rho == pytest.approx(4, abs=1e-9)
        assert rep.threshold == pytest.approx(4)

    def test_complete_links_hold(self):
        rep = check_condition(complete_3graph(9).hypergraph, 2)
        assert rep.condition == "holds"
        assert rep.min_rho == pytest.approx(7, abs=1e-9)
        assert len(rep.per_vertex_rho) == 9

    def test_empty_fails(self):
        assert check_condition(Hypergraph3(9, ()), 1).condition == "fails"
        assert check_condition(Hypergraph3(0, ()), 1).condition == "fails"

    def test_nonconverged_link_is_indeterminate(self, monkeypatch):
        H = random_3graph(9, 0.8, 3).hypergraph
        assert check_condition(H, 1).condition == "holds"
        assert check_thm11(H, 0.05)[0] == "fails"

        stalled = {2, 7}
        uncertifiable_links(monkeypatch, stalled, H.n)
        spectra = link_spectra(H)
        unconverged = [v for v, ok in zip(spectra.vertices, spectra.converged) if not ok]
        assert unconverged == sorted(stalled)
        rep = check_condition(H, 1)
        assert rep.condition == "indeterminate"
        assert rep.notes == (
            "indeterminate: link spectral radius not certified at vertices "
            + ", ".join(map(str, sorted(stalled))),
        )
        full = verify_theorem(H, 1, "thm13")
        assert full.condition == "indeterminate" and full.verdict == "skipped"
        assert rep.notes[0] in full.notes
        assert check_thm11(H, 0.05)[0] == "indeterminate"

    def test_exact_ties_are_never_certified(self):
        # h1's minimum link radius equals the threshold exactly, so with no
        # slack the float rule may say either side, but no certificate backs it
        for s in range(1, 5):
            for n in range(3 * s + 3, 3 * s + 12):
                assert check_condition(h1(s, n).hypergraph, s, eps=0).condition == "indeterminate"
                assert check_condition(h2(s, n).hypergraph, s, eps=0).condition == "fails"

    def test_precomputed_spectra_are_used(self, monkeypatch):
        H = random_3graph(9, 0.8, 3).hypergraph
        spectra = link_spectra(H)
        monkeypatch.setattr(harness, "link_spectra", None)  # any further eigensolve fails
        rep = check_condition(H, 1, link_rho=spectra)
        assert rep.condition == "holds" and rep.min_rho == min(spectra.rho)
        assert check_thm11(H, 0.05, link_rho=spectra)[0] == "fails"
        assert verify_theorem(H, 1, "thm13", link_rho=spectra).verdict == "consistent"

    def test_precomputed_rho_is_honored(self):
        H = complete_3graph(6).hypergraph
        rep = check_condition(H, 1, link_rho=[4.0] * 6)
        assert rep.condition == "holds" and rep.min_rho == 4.0
        with pytest.raises(ValueError):
            check_condition(H, 1, link_rho=[4.0])


class TestCheckThm11:
    def test_complete_instance(self):
        cond, min_rho, threshold = check_thm11(complete_3graph(9).hypergraph, 0.1)
        assert threshold == pytest.approx((2 / 3 + 0.1) * 9)
        assert cond == "holds" and min_rho == pytest.approx(7, abs=1e-9)

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            check_thm11(complete_3graph(6).hypergraph, 1.5)


class TestVerifyTheorem:
    def test_complete6_perfect_matching(self):
        rep = verify_theorem(complete_3graph(6).hypergraph, 1, "conj_pm")
        assert rep.verdict == "consistent" and rep.perfect_matching

    def test_boundary_instance_is_skipped(self):
        rep = verify_theorem(h1(1, 6).hypergraph, 1, "thm13")
        assert rep.condition == "indeterminate" and rep.verdict == "skipped"

    def test_thm13_uses_exact_lp_when_no_integral_witness(self, fano):
        # every pair of Fano lines meets, yet nu* = 7/3 >= 2
        rep = verify_theorem(fano, 1, "thm13")
        if rep.condition == "holds":
            assert rep.verdict == "consistent"
            assert rep.nu_frac == Fraction(7, 3)

    def test_out_of_hypothesis_violations_are_tagged(self):
        # n=5 < 3s+3: the conjecture/theorem hypotheses fail, and the
        # conclusions are false for the complete 3-graph; no statement says
        # anything there, so its failure is neither a counterexample nor a
        # bug suspect
        H = complete_3graph(5).hypergraph
        rep = verify_theorem(H, 1, "conj_matching")
        assert rep.condition == "holds" and rep.verdict == "skipped" and rep.instance is None
        assert any("3s+3" in note for note in rep.notes)
        assert rep.notes[-1] == "skipped: conclusion fails outside the hypothesis"
        rep = verify_theorem(H, 1, "thm13")
        assert rep.verdict == "skipped" and rep.instance is None
        assert rep.nu_frac == Fraction(5, 3)
        assert rep.notes[-1] == "skipped: conclusion fails outside the hypothesis"
        rep = verify_theorem(H, 1, "thm12")  # n = 5 < 100s as well
        assert rep.verdict == "skipped" and any("100s" in note for note in rep.notes)

    def test_failed_proven_conclusion_inside_the_hypothesis_is_a_bug_suspect(self, monkeypatch):
        # K6 at s = 1 meets Theorem 1.3's hypothesis (n = 3s+3); make the
        # solvers report K5's nu* = 5/3 < 2 so that the conclusion fails there
        H = complete_3graph(6).hypergraph
        k5 = complete_3graph(5).hypergraph
        monkeypatch.setattr(harness, "find_matching_of_size", lambda *a: (None, True))
        monkeypatch.setattr(harness, "fractional_matching", lambda *a: fractional_matching(k5))
        rep = verify_theorem(H, 1, "thm13")
        assert rep.condition == "holds" and rep.notes == ()
        assert rep.verdict == "bug_suspect" and rep.instance == H
        rep = verify_theorem(H, 1, "conj_matching")  # a conjecture fails there as a finding
        assert rep.verdict == "counterexample" and rep.instance == H

    def test_exhaustive_search_outside_the_hypothesis_has_no_bug_suspects(self):
        # every condition-holding 3-graph on 5 vertices fails nu* >= 2, and
        # all of them lie outside Theorem 1.3's hypothesis n >= 3s+3 = 6
        counts = search_exhaustive(5, 1, "thm13").counts
        assert counts == {
            "total": 1024, "condition_holds": 106, "consistent": 0, "counterexample": 0,
            "bug_suspect": 0, "indeterminate": 25, "skipped": 1024,
        }

    def test_conj_pm_needs_exact_n(self):
        rep = verify_theorem(complete_3graph(9).hypergraph, 1, "conj_pm")
        assert rep.verdict == "skipped"
        assert any("3s+3" in n or "n =" in n for n in rep.notes)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            verify_theorem(complete_3graph(6).hypergraph, 1, "thm99")

    def test_thm13_perfect_fractional_at_boundary_n(self):
        rng = random.Random(51)
        seen = 0
        while seen < 5:
            H = rand_3graph(9, 0.9, rng)
            rep = verify_theorem(H, 2, "thm13")
            if rep.condition != "holds" or rep.verdict != "consistent":
                continue
            # the integral shortcut may skip the LP; confirm the fractional
            # conclusion independently
            assert fractional_matching(H).value == Fraction(3)
            seen += 1


class TestShift:
    def test_complete_graph_is_fixed_point(self):
        P = shift(complete_3graph(6).hypergraph)
        assert P.shifted.m == 20 and P.nu_frac == 2
        assert dict(P.cover.weights) == {v: Fraction(1, 3) for v in range(1, 7)}

    def test_h1_is_fixed_point(self):
        H = h1(2, 9).hypergraph
        P = shift(H)
        assert P.shifted.edges == H.edges
        assert P.order[:2] == (1, 2)
        assert P.nu_frac == 2

    def test_empty(self):
        P = shift(Hypergraph3(4, ()))
        assert P.shifted.m == 0 and P.nu_frac == 0

    def test_closure_scan(self):
        assert shift_closure_holds(Hypergraph3(5, ((1, 2, 3),)))
        assert shift_closure_holds(Hypergraph3(5, ()))
        assert not shift_closure_holds(Hypergraph3(5, ((2, 3, 4),)))
        assert not shift_closure_holds(Hypergraph3(6, ((1, 2, 3), (2, 3, 6))))

    def test_closure_check_agrees_with_dominance_scan(self):
        rng = random.Random(57)
        verdicts = []
        for _ in range(300):
            n = rng.randint(3, 9)
            triples = list(combinations(range(1, n + 1), 3))
            tops = rng.sample(triples, min(len(triples), rng.randint(1, 4)))
            closed = [t for t in triples if any(all(map(int.__le__, t, u)) for u in tops)]
            picked = [t for t in triples if rng.random() < 0.3]
            dropped = rng.choice(closed)
            for edges in (closed, picked, [t for t in closed if t != dropped]):
                H = Hypergraph3(n, tuple(edges))
                verdicts.append(ref_shift_closure_holds(H))
                assert shift_closure_holds(H) == verdicts[-1], edges
            assert shift_closure_holds(Hypergraph3(n, tuple(closed)))
        assert 0.2 < sum(verdicts) / len(verdicts) < 0.8

    def test_shift_properties_on_random_instances(self):
        rng = random.Random(52)
        for _ in range(25):
            H = rand_3graph(rng.randint(4, 9), rng.random(), rng)
            P = shift(H)
            assert shift_closure_holds(P.shifted)
            # independent LP on the shifted hypergraph; shift() itself
            # certifies preservation via weak duality without this solve
            assert fractional_matching(P.shifted).value == P.nu_frac == fractional_matching(H).value
            assert P.shifted.m >= H.m
            assert sorted(P.order) == list(range(1, H.n + 1))

    def test_python_int_route_agrees_with_int64(self, monkeypatch):
        # the first instances of the acceptance sweep's six streams, solved
        # and shifted once in int64 and once with _INT64_SAFE = 1, where the
        # overflow rule sends every simplex block and every cover array to
        # Python ints from the start
        instances = [
            random_3graph(n, p, instance_seed(20260825 + i, k)).hypergraph
            for i, (n, p) in enumerate((n, p) for n in (9, 9, 12) for p in (0.5, 0.8))
            for k in range(15)
        ]
        dtypes = []
        real_core = lp._simplex_core

        def recorded_core(*args):
            R, basis, den = real_core(*args)
            dtypes.append(R.dtype)
            return R, basis, den

        def outcome(H):
            cert, P = fractional_matching(H), shift(H)
            dtypes.append(P.cover.vertex_numerators(H.n).dtype)
            weights = [list(a.weights.items()) for a in (cert.primal, cert.dual, P.cover)]
            return weights, cert.value, P.nu_frac, P.order, P.shifted

        monkeypatch.setattr(lp, "_simplex_core", recorded_core)
        int64 = [outcome(H) for H in instances]
        assert set(dtypes) == {np.dtype(np.int64)} and len(dtypes) == 3 * len(instances)
        dtypes.clear()
        monkeypatch.setattr(lp, "_INT64_SAFE", 1)
        assert [outcome(H) for H in instances] == int64
        assert set(dtypes) == {np.dtype(object)} and len(dtypes) == 3 * len(instances)


class TestLift:
    def test_complete6(self):
        M = lift_link_matching(shift(complete_3graph(6).hypergraph), 1)
        assert len(M) == 2 and {v for e in M.edges for v in e} == set(range(1, 7))

    def test_h2_lift(self):
        # the shifted h2(3,12) is itself; the last vertex's link is K_5 plus
        # isolated vertices, whose matching number is exactly 2: the lift
        # succeeds for s=1 and correctly fails for s=2
        P = shift(h2(3, 12).hypergraph)
        M = lift_link_matching(P, 1)
        assert len(M) == 2
        assert P.shifted.has_edges(M.edges).all()
        with pytest.raises(LiftFailure) as err:
            lift_link_matching(P, 2)
        assert err.value.link_nu == 2

    def test_failure_reports_link_nu(self):
        P = shift(Hypergraph3(5, ()))
        with pytest.raises(LiftFailure) as err:
            lift_link_matching(P, 0)
        assert err.value.link_nu == 0

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            lift_link_matching(shift(complete_3graph(5).hypergraph), 1)

    def test_lift_follows_condition_on_random_instances(self):
        rng = random.Random(53)
        seen = 0
        while seen < 10:
            H = rand_3graph(9, 0.8, rng)
            rep = check_condition(H, 2)
            if rep.condition != "holds":
                continue
            M = lift_link_matching(shift(H), 2)
            assert len(M) == 3
            seen += 1

    def test_negative_s(self):
        with pytest.raises(ValueError, match="nonnegative"):
            lift_link_matching(shift(complete_3graph(9).hypergraph), -1)

    def test_lifted_pairs_are_canonical(self):
        P = shift(complete_3graph(12).hypergraph)
        for s in range(4):
            M = lift_link_matching(P, s)
            k = s + 1
            assert M.edges == tuple((i, 2 * k + 1 - i, 2 * k + i) for i in range(1, k + 1))

    def test_canonical_nu_is_blossom_nu_on_every_down_closed_graph(self):
        # the graph G sits as the link of vertex n = 15 in the shift-closed
        # 3-graph of all triples {a, b, c} with ab in G and b < c <= n
        n = 15
        graphs = [(m, G) for m in range(2, 9) for G in _down_closed_graphs(m)]
        assert len(graphs) == 254
        for m, G in graphs:
            nu, _ = max_matching_graph(Graph2(m, tuple(sorted(G))))
            H = Hypergraph3(n, tuple(sorted((a, b, c) for a, b in G for c in range(b + 1, n + 1))))
            assert shift_closure_holds(H) and link_graph(H, n)[0].edges == tuple(sorted(G))
            # the lift reads only `shifted`; the cover fields are placeholders
            P = ShiftedPair(FractionalAssignment("cover", (), (), 1), tuple(range(1, n + 1)), H, Fraction(0))
            with pytest.raises(LiftFailure) as err:
                lift_link_matching(P, nu)
            assert err.value.link_nu == nu
            if nu:
                M = lift_link_matching(P, nu - 1)
                assert M.edges == tuple((i, 2 * nu + 1 - i, 2 * nu + i) for i in range(1, nu + 1))

    def test_failure_link_nu_is_blossom_nu_on_random_shifted_instances(self):
        rng = random.Random(61)
        failures = lifts = 0
        for _ in range(80):
            n = rng.randint(6, 12)
            P = shift(rand_3graph(n, rng.choice((0.1, 0.3, 0.6)), rng))
            nu, _ = max_matching_graph(link_graph(P.shifted, n)[0])
            for s in range((n - 3) // 3 + 1):
                if nu >= s + 1:
                    M = lift_link_matching(P, s)
                    assert P.shifted.has_edges(M.edges).all()
                    assert len(M) == s + 1
                    lifts += 1
                    continue
                with pytest.raises(LiftFailure) as err:
                    lift_link_matching(P, s)
                assert err.value.link_nu == nu
                failures += 1
        assert failures > 10 and lifts > 10


def _down_closed_graphs(m: int) -> list[frozenset[tuple[int, int]]]:
    """Every edge set on 1..m closed under lowering either end of an edge.

    Grown from the empty set by adding one pair whose elementary
    predecessors (a-1, b) and (a, b-1), where they are pairs, are present.
    """
    pairs = list(combinations(range(1, m + 1), 2))
    found = {frozenset()}
    frontier = list(found)
    while frontier:
        grown = []
        for S in frontier:
            for a, b in pairs:
                if (a, b) in S or (a > 1 and (a - 1, b) not in S) or (b > a + 1 and (a, b - 1) not in S):
                    continue
                T = S | {(a, b)}
                if T not in found:
                    found.add(T)
                    grown.append(T)
        frontier = grown
    for S in found:  # down-closed by definition, checked pair by pair
        assert all((c, d) in S for a, b in S for c, d in pairs if c <= a and d <= b)
    return sorted(found, key=sorted)


class TestAbsorbingSets:
    def test_complete_counts(self):
        H9 = complete_3graph(9).hypergraph
        assert absorbing_sets(H9, (1, 2, 3)) == [tuple(range(4, 10))]
        H10 = complete_3graph(10).hypergraph
        assert len(absorbing_sets(H10, (1, 2, 3))) == comb(7, 6)

    def test_empty_hypergraph(self):
        assert absorbing_sets(Hypergraph3(9, ()), (1, 2, 3)) == []

    def test_t_validation(self):
        H = complete_3graph(9).hypergraph
        with pytest.raises(ValueError):
            absorbing_sets(H, (1, 2))
        with pytest.raises(ValueError):
            absorbing_sets(H, (1, 2, 99))

    def test_scan_past_the_limit_is_refused(self):
        # C(27, 6) = 296 010 six-sets at n = 30, and C(22, 6) = 74 613 at n = 25
        assert comb(22, 6) <= harness.MAX_ABSORB_SIX_SETS < comb(27, 6)
        with pytest.raises(ValueError, match="296010 six-sets"):
            absorbing_sets(complete_3graph(30).hypergraph, (1, 2, 3))

    def test_agrees_with_induced_definition(self):
        # sparse enough that both the 6-set and the 9-set conditions reject some A
        rng = random.Random(58)
        H = rand_3graph(12, 0.2, rng)
        T = (2, 5, 9)
        rest = [v for v in range(1, 13) if v not in T]
        expected = [
            A
            for A in combinations(rest, 6)
            if brute_nu_3graph(induced(H, A)[0]) >= 2
            and brute_nu_3graph(induced(H, A + T)[0]) >= 3
        ]
        assert 0 < len(expected) < comb(9, 6)
        assert absorbing_sets(H, T) == expected

    def test_returned_sets_satisfy_definition(self):
        rng = random.Random(54)
        H = rand_3graph(10, 0.7, rng)
        T = (1, 2, 3)
        for A in absorbing_sets(H, T):
            assert len(A) == 6 and not set(A) & set(T)
            inner, _ = induced(H, A)
            assert brute_nu_3graph(inner) >= 2
            both, _ = induced(H, A + T)
            assert brute_nu_3graph(both) == 3


class TestLemma25:
    def test_complete_graph_holds(self):
        K10 = Graph2(10, tuple(combinations(range(1, 11), 2)))
        verdict = lemma25_check(K10, 3, 3)
        assert verdict.status == "holds"

    def test_split_graph_equality_not_applicable(self):
        G, _ = link_graph(h1(3, 11).hypergraph, 11)  # K_3 v co-K_7
        assert lemma25_check(G, 3, 3).status == "not_applicable"

    def test_random_dense_graph_holds(self):
        rng = random.Random(55)
        edges = [e for e in combinations(range(1, 13), 2) if rng.random() < 0.8]
        verdict = lemma25_check(Graph2(12, tuple(edges)), 3, 3)
        assert verdict.status in ("holds", "not_applicable")

    def test_validation(self):
        with pytest.raises(ValueError):
            lemma25_check(Graph2(3, ()), 3, 1)


class TestSearchExhaustive:
    def _naive(self, n, s, mode):
        counts = {
            "total": 0, "condition_holds": 0, "consistent": 0,
            "counterexample": 0, "bug_suspect": 0, "indeterminate": 0, "skipped": 0,
        }
        for H in (hypergraph_from_bitmask(n, m) for m in range(1 << comb(n, 3))):
            rep = verify_theorem(H, s, mode)
            counts["total"] += 1
            if rep.condition == "holds":
                counts["condition_holds"] += 1
            if rep.condition == "indeterminate":
                counts["indeterminate"] += 1
            if rep.verdict == "skipped":
                counts["skipped"] += 1
            else:
                counts[rep.verdict] += 1
        return counts

    def test_n4_matches_naive_scan(self):
        for mode in ("thm13", "conj_matching"):
            summary = search_exhaustive(4, 1, mode)
            assert summary.counts == self._naive(4, 1, mode)
            assert summary.counts["total"] == 16

    def test_n5_matches_naive_scan(self):
        summary = search_exhaustive(5, 1, "thm13")
        assert summary.counts == self._naive(5, 1, "thm13")
        assert summary.counts["total"] == 1024

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            search_exhaustive(7, 1, "thm13")
        with pytest.raises(ValueError):
            search_exhaustive(5, 1, "thm99")


class TestSearchRandom:
    def test_deterministic_and_thread_invariant(self):
        a = search_random(8, 0.6, 40, 9, 1, "conj_matching")
        b = search_random(8, 0.6, 40, 9, 1, "conj_matching")
        c = search_random(8, 0.6, 40, 9, 1, "conj_matching", threads=3)
        assert a.counts == b.counts == c.counts
        assert a.violations == b.violations == c.violations
        assert a.counts["total"] == 40

    def test_blocks_give_the_reports_of_single_instances(self, monkeypatch):
        n, p, seed, s = 12, 0.8, 17, 3
        samples = 2 * harness._search_block(n) + 3
        reports = []
        tally = harness._tally
        # no instance is cleared by its degree quotients, so every one goes through the block spectra
        monkeypatch.setattr(harness, "degree_quotients_clear", lambda Hs, *args: [False] * len(Hs))
        monkeypatch.setattr(harness, "_tally", lambda counts, rep: (reports.append(rep), tally(counts, rep)))
        search_random(n, p, samples, seed, s, "conj_pm")
        alone = [
            verify_theorem(
                random_3graph(n, p, instance_seed(seed, k)).hypergraph,
                s,
                "conj_pm",
                instance_id=f"random(n={n},p={p},seed={seed})#{k}",
            )
            for k in range(samples)
        ]
        assert reports == alone

    @staticmethod
    def full_route(n, p, samples, seed, s, mode):
        """The counts and violations of verify_theorem with full link spectra, instance by instance."""
        counts, violations = harness._new_counts(), []
        for k in range(samples):
            H = random_3graph(n, p, instance_seed(seed, k)).hypergraph
            rep = verify_theorem(H, s, mode, instance_id=f"random(n={n},p={p},seed={seed})#{k}")
            harness._tally(counts, rep)
            if rep.verdict in ("counterexample", "bug_suspect"):
                violations.append(rep)
        return counts, tuple(violations)

    @pytest.mark.parametrize(
        "n, p, samples, seed, s, mode",
        [(n, p, 300, seed, s, "thm13") for s, n, p, seed in RANDOM_SWEEP_CONFIGS]
        + [(12, 0.8, 400, 8601, 3, "conj_pm")],  # the search_pm benchmark's parameters
    )
    def test_counts_equal_the_full_route(self, n, p, samples, seed, s, mode):
        summary = search_random(n, p, samples, seed, s, mode)
        assert (summary.counts, summary.violations) == self.full_route(n, p, samples, seed, s, mode)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_violations_equal_the_full_route(self, monkeypatch, threads):
        # with no matching ever found, every instance whose condition holds is a violation
        monkeypatch.setattr(harness, "find_matching_of_size", lambda H, size, budget=None: (None, True))
        for args in ((12, 0.8, 23, 5, 3, "conj_pm"), (10, 0.7, 23, 6, 2, "conj_matching")):
            summary = search_random(*args, threads=threads)
            counts, violations = self.full_route(*args)
            assert summary.counts == counts and summary.violations == violations
            assert len(violations) > 15 and all(rep.per_vertex_rho for rep in violations)

    def test_thread_invariant_across_block_boundaries(self):
        block = harness._search_block(12)
        samples = 4 * block + 5  # three ranges of 14, 14 and 13 at block 9
        assert block > 1 and samples % block and (-(-samples // 3)) % block
        a = search_random(12, 0.8, samples, 23, 3, "conj_pm")
        c = search_random(12, 0.8, samples, 23, 3, "conj_pm", threads=3)
        assert a.counts == c.counts and a.violations == c.violations
        assert a.counts["total"] == samples

    def test_zero_probability_all_skipped(self):
        summary = search_random(6, 0.0, 10, 0, 1, "thm13")
        assert summary.counts["skipped"] == 10
        assert summary.counts["condition_holds"] == 0
        assert not summary.found_counterexample

    def test_instance_seed_is_injective_per_stream(self):
        seeds = {instance_seed(42, k) for k in range(1000)}
        assert len(seeds) == 1000
        assert instance_seed(42, 0) != instance_seed(43, 0)

    def test_stream_may_not_run_into_the_next_seed(self):
        assert instance_seed(5, STREAM_LENGTH) == instance_seed(6, 0)
        with pytest.raises(ValueError, match="replay the instances of seed 6"):
            search_random(9, 0.5, STREAM_LENGTH + 1, 5, 1, "thm13")

    def test_validation(self):
        with pytest.raises(ValueError):
            search_random(6, 0.5, -1, 0, 1, "thm13")
        with pytest.raises(ValueError):
            search_random(6, 0.5, 1, 0, 1, "bad")


class TestMonotonicity:
    def test_adding_an_edge_never_decreases_key_statistics(self):
        rng = random.Random(56)
        for _ in range(15):
            H = rand_3graph(rng.randint(5, 8), 0.5, rng)
            missing = [
                t for t in combinations(range(1, H.n + 1), 3) if not H.has_edge(t)
            ]
            if not missing:
                continue
            H2_ = Hypergraph3(H.n, tuple(sorted(H.edges + (rng.choice(missing),))))
            min_rho = lambda X: min(
                spectral_radius(link_graph(X, v)[0]).value for v in range(1, X.n + 1)
            )
            assert min_rho(H2_) >= min_rho(H) - 2e-10
            assert max_matching_3graph(H2_).size >= max_matching_3graph(H).size
            assert fractional_matching(H2_).value >= fractional_matching(H).value
