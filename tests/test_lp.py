"""Exact rational LP: fractional matching, cover dual, duality certificates."""

import random
from fractions import Fraction

import numpy as np
import pytest

from linkspec import lp
from linkspec.constructions import complete_3graph, h1, h2
from linkspec.graphs import Hypergraph3
from linkspec.lp import (
    DualityCertificate,
    FractionalAssignment,
    LpSizeError,
    _INT64_SAFE,
    _simplex_core,
    fractional_matching,
)

from conftest import ZERO, ONE, brute_nu_3graph, rand_3graph, ref_nu_frac, ref_simplex_max


def core_max(c, rows, b):
    """Maximize c.x s.t. rows.x <= b, x >= 0 (integer data, b >= 0) with the
    library's revised integer simplex: (value, x, duals) as Fractions, and
    whether the core was promoted to Python ints."""
    m, nv = len(rows), len(c)
    index = np.tile(np.arange(m), (nv, 1))  # every column lists all m rows
    coef = np.array(rows, dtype=np.int64).T
    R, basis, den = _simplex_core(index, coef, np.array(c, dtype=np.int64), np.array(b, dtype=np.int64))
    x = [ZERO] * nv
    for i, bv in enumerate(basis):
        if bv < nv:
            x[bv] = Fraction(int(R[i, m + 1]), den)
    duals = [Fraction(int(R[m, i]), den) for i in range(m)]
    return Fraction(int(R[m, m + 1]), den), x, duals, R.dtype == object


def ref_max(c, rows, b):
    """The same LP on the reference Fraction tableau."""
    return ref_simplex_max([Fraction(a) for a in c], [[Fraction(a) for a in r] for r in rows], [Fraction(a) for a in b])


class TestSimplex:
    def test_tiny_lp(self):
        # max x + y  s.t.  x <= 1, y <= 2
        value, x, duals, _ = core_max([1, 1], [[1, 0], [0, 1]], [1, 2])
        assert value == 3 and x == [ONE, Fraction(2)] and duals == [ONE, ONE]

    def test_unbounded_detected(self):
        # max x  s.t.  -x <= 1: one column with coefficient -1 in row 0
        with pytest.raises(ArithmeticError):
            _simplex_core(np.array([[0]]), np.array([[-1]]), np.array([1]), np.array([1]))

    def test_matches_rational_reference_on_random_lps(self):
        # the library solver pivots in integers; the reference
        # keeps a Fraction tableau. Same pivot rules, so outputs must be
        # identical rationals, not merely equal optima.
        rng = random.Random(31)
        for _ in range(150):
            m, nv = rng.randint(1, 6), rng.randint(1, 8)
            c = [rng.randint(0, 9) for _ in range(nv)]
            rows = [[rng.randint(0, 5) for _ in range(nv)] for _ in range(m)]
            b = [rng.randint(0, 9) for _ in range(m)]
            for j in range(nv):  # keep the LP bounded
                if all(rows[i][j] == 0 for i in range(m)):
                    rows[rng.randrange(m)][j] = 1
            assert core_max(c, rows, b)[:3] == ref_max(c, rows, b)

    def test_core_promotes_to_bigints_mid_solve(self):
        # int64 entries below the safe bound whose pivot minors outgrow it:
        # the core must switch to Python ints part-way and stay exact
        promoted = 0
        for seed in range(10):
            rng = random.Random(seed)
            k = 6
            c = [rng.randint(1, 9) for _ in range(k)]
            rows = [[rng.randint(0, 2000) for _ in range(k)] for _ in range(k)]
            b = [rng.randint(1000, 5000) for _ in range(k)]
            assert max(map(max, rows + [b, c])) < _INT64_SAFE
            *solution, bigints = core_max(c, rows, b)
            promoted += bigints
            assert tuple(solution) == ref_max(c, rows, b)
        assert promoted >= 5

    def test_promotion_pivot_is_the_per_pivot_scan_one(self, monkeypatch):
        # the core measures max |R| only when the bound it carries from pivot
        # to pivot fails the overflow test; it must still promote at the pivot
        # where measuring before every pivot would, on the LPs above
        seen = []
        real_pivot = lp._pivot

        def recorded_pivot(R, *args):
            seen.append((R.dtype == object, int(np.abs(R).max())))
            return real_pivot(R, *args)

        monkeypatch.setattr(lp, "_pivot", recorded_pivot)
        mid_solve = 0
        for seed in range(10):
            rng = random.Random(seed)
            k = 6
            c = [rng.randint(1, 9) for _ in range(k)]
            rows = [[rng.randint(0, 2000) for _ in range(k)] for _ in range(k)]
            b = [rng.randint(1000, 5000) for _ in range(k)]
            seen.clear()
            core_max(c, rows, b)
            scale = (k + 1) * max(map(max, rows + [c]))  # (w + 1) max |coef|, w = k rows a column
            scan = [M * M * scale >= _INT64_SAFE**2 for _, M in seen]
            reference = [any(scan[: t + 1]) for t in range(len(scan))]
            assert [promoted for promoted, _ in seen] == reference
            mid_solve += 0 < reference.index(True) if True in reference else 0
        assert mid_solve >= 5

    def test_pricing_sum_overflow_promotes(self):
        # every datum and every stored entry stays below _INT64_SAFE, but
        # once the k unit columns (objective big) are basic, the last
        # column's reduced cost k * big^2 - 1 exceeds 2^63: only the pricing
        # sum would overflow int64, and the core must promote before it
        k, big = 16, (1 << 30) - 1
        rows = [[int(i == j) for j in range(k)] + [big] for i in range(k)]
        c, b = [big] * k + [1], [0] * k
        assert max(map(max, rows + [b, c])) < _INT64_SAFE and k * big * big > 1 << 63
        *solution, bigints = core_max(c, rows, b)
        assert bigints
        assert tuple(solution) == ref_max(c, rows, b)

    def test_big_integer_coefficients_stay_exact(self):
        big = 1 << 62
        value, x, duals, _ = core_max([1], [[1]], [big])
        assert value == big and x == [big] and duals == [ONE]


class TestAssignments:
    def test_kind_and_value_validation(self):
        with pytest.raises(ValueError, match="unknown kind"):
            FractionalAssignment("nonsense", (), (), 1)
        with pytest.raises(ValueError, match="differ in length"):
            FractionalAssignment("matching", ((1, 2, 3),), (1, 1), 1)
        with pytest.raises(ValueError, match="positive"):
            FractionalAssignment("matching", ((1, 2, 3),), (0,), 0)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            FractionalAssignment("matching", ((1, 2, 3),), (3,), 2)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            FractionalAssignment("cover", (1,), (-1,), 2)
        # value and weights are derived from the numerators; the view drops
        # zero numerators and keeps the support order
        a = FractionalAssignment("cover", (3, 1, 2), (2, 0, 4), 4)
        assert a.value == Fraction(3, 2)
        assert list(a.weights.items()) == [(3, Fraction(1, 2)), (2, ONE)]
        assert FractionalAssignment("matching", (), (), 7).value == 0

    def test_matching_feasibility(self):
        H = Hypergraph3(6, ((1, 2, 3), (1, 4, 5)))
        FractionalAssignment("matching", ((1, 2, 3), (1, 4, 5)), (1, 1), 2).validate(H)
        overloaded = FractionalAssignment("matching", ((1, 2, 3), (1, 4, 5)), (1, 1), 1)
        with pytest.raises(ValueError, match="vertex constraint violated at 1"):
            overloaded.validate(H)
        foreign = FractionalAssignment("matching", ((4, 5, 6),), (1,), 1)
        with pytest.raises(ValueError, match="not an edge"):
            foreign.validate(H)
        # vertex loads over a denominator beyond int64 stay exact
        D = 3 << 62
        FractionalAssignment("matching", ((1, 2, 3), (1, 4, 5)), (D // 2, D - D // 2), D).validate(H)
        with pytest.raises(ValueError, match="vertex constraint violated at 1"):
            FractionalAssignment("matching", ((1, 2, 3), (1, 4, 5)), (D // 2 + 1, D - D // 2), D).validate(H)

    def test_cover_feasibility(self):
        H = Hypergraph3(6, ((1, 2, 3), (4, 5, 6)))
        FractionalAssignment("cover", (1, 4), (1, 1), 1).validate(H)
        with pytest.raises(ValueError):
            FractionalAssignment("cover", (1,), (1,), 1).validate(H)
        # a common denominator too large for int64 sums: exact in Python ints
        D = 3 << 62
        exact = FractionalAssignment("cover", (1, 2, 4), (D - 1, 1, D), D)
        assert exact.vertex_numerators(H.n).dtype == object
        exact.validate(H)
        short = FractionalAssignment("cover", (1, 2, 4), (D - 2, 1, D), D)
        with pytest.raises(ValueError, match="not covered"):
            short.validate(H)
        assert FractionalAssignment("cover", (1, 4), (1, 1), 1).vertex_numerators(H.n).dtype == np.int64

    def test_certificate_requires_equal_values(self):
        p = FractionalAssignment("matching", ((1, 2, 3),), (1,), 1)
        d = FractionalAssignment("cover", (1, 4), (1, 1), 1)
        with pytest.raises(ValueError):
            DualityCertificate(p, d)
        with pytest.raises(ValueError):
            DualityCertificate(p, p)
        # values are compared as rationals, whatever the denominators
        assert DualityCertificate(p, FractionalAssignment("cover", (1,), (2,), 2)).value == 1


class TestFractionalMatching:
    def test_fano(self, fano):
        cert = fractional_matching(fano)
        assert cert.value == Fraction(7, 3)
        assert cert.primal.value == cert.dual.value

    def test_complete7(self):
        assert fractional_matching(complete_3graph(7).hypergraph).value == Fraction(7, 3)

    def test_extremal_families(self):
        cert = fractional_matching(h1(2, 10).hypergraph)
        assert cert.value == 2
        assert dict(cert.dual.weights) == {1: ONE, 2: ONE}
        assert fractional_matching(h2(3, 10).hypergraph).value == Fraction(5, 2)
        assert fractional_matching(h2(2, 7).hypergraph).value == Fraction(3, 2)

    def test_empty(self):
        assert fractional_matching(Hypergraph3(5, ())).value == 0

    def test_size_guard(self):
        H = Hypergraph3(24, ((1, 2, 3),))
        with pytest.raises(LpSizeError):
            fractional_matching(H)
        assert fractional_matching(H, limit=None).value == 1
        assert fractional_matching(Hypergraph3(23, ((1, 2, 3),))).value == 1

    def test_certificates_validate_and_bound_nu(self):
        rng = random.Random(32)
        for _ in range(40):
            H = rand_3graph(rng.randint(3, 9), rng.random(), rng)
            cert = fractional_matching(H)
            cert.primal.validate(H)
            cert.dual.validate(H)
            assert cert.primal.value == cert.dual.value
            assert brute_nu_3graph(H) <= cert.value <= Fraction(H.n, 3)

    def test_agrees_with_reference_simplex(self):
        rng = random.Random(33)
        for _ in range(30):
            H = rand_3graph(rng.randint(4, 10), rng.random(), rng)
            assert fractional_matching(H).value == ref_nu_frac(H)
        for _ in range(15):
            H = rand_3graph(rng.randint(4, 12), rng.random(), rng)
            if H.m:
                assert_reference_vertex(H)

    def test_agrees_with_reference_simplex_on_long_pivot_paths(self):
        # 81, 140 and 97 Bland pivots on 172, 220 and 274 edges
        rng = random.Random(34)
        for n in (14, 15, 16):
            H = rand_3graph(n, 0.5, rng)
            assert H.m >= 150
            assert_reference_vertex(H)


def assert_reference_vertex(H):
    """The same Bland rule reaches the same vertex: equal value, primal and duals."""
    touched = sorted({v for e in H.edges for v in e})
    rows = [[ONE if v in e else ZERO for e in H.edges] for v in touched]
    value, x, duals = ref_simplex_max([ONE] * H.m, rows, [ONE] * len(touched))
    cert = fractional_matching(H)
    assert cert.value == value
    assert dict(cert.primal.weights) == {e: x[j] for j, e in enumerate(H.edges) if x[j]}
    assert dict(cert.dual.weights) == {v: duals[i] for i, v in enumerate(touched) if duals[i]}


class TestPerfectFractionalMatching:
    # a perfect fractional matching is an optimum of value n/3
    def test_complete6(self):
        witness = fractional_matching(complete_3graph(6).hypergraph).primal
        assert witness.value == 2
        loads: dict[int, Fraction] = {}
        for e, w in witness.weights.items():
            for v in e:
                loads[v] = loads.get(v, ZERO) + w
        assert all(loads[v] == 1 for v in range(1, 7))

    def test_h1_is_not_perfect(self):
        assert fractional_matching(h1(2, 9).hypergraph).value == 2 < Fraction(9, 3)

    def test_fano_is_perfect(self, fano):
        assert fractional_matching(fano).value == Fraction(7, 3)
