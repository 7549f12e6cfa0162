"""Tests of the benchmark's output checks and of its metric names.

Each check must accept a real linkspec output and reject a corrupted copy
of it.  Run from the repository root:

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402
from linkspec import cli, constructions, fileio, harness, lp, matching  # noqa: E402


@pytest.fixture(scope="module")
def holding():
    """A condition-holding instance of the sweep stream (s=2, n=9, p=0.8) and its pipeline outputs."""
    s = 2
    for k in range(50):
        H = constructions.random_3graph(9, 0.8, harness.instance_seed(20260828, k)).hypergraph
        rep = harness.verify_theorem(H, s, "thm13")
        if rep.condition == "holds":
            break
    P = harness.shift(H)
    M = harness.lift_link_matching(P, s)
    pm, _ = matching.find_matching_of_size(H, 3)
    return SimpleNamespace(s=s, H=H, edges=set(H.edges), rep=rep, P=P, M=M, pm=pm, cert=lp.fractional_matching(H))


def _non_edge(H, avoid=()):
    """A triple that is not an edge of H, disjoint from `avoid` when possible."""
    blocked = {v for t in avoid for v in t}
    non_edges = [t for t in combinations(range(1, H.n + 1), 3) if not H.has_edge(t)]
    return next((t for t in non_edges if blocked.isdisjoint(t)), non_edges[0])


def _spectra(case, per_vertex=None, condition=None, thr=None):
    rep = case.rep
    checks.check_spectra(
        case.H.n, case.s, checks.link_radii(case.H.n, case.H.edges),
        per_vertex if per_vertex is not None else rep.per_vertex_rho, rep.min_rho,
        thr if thr is not None else rep.threshold, condition or rep.condition,
    )


def test_spectra(holding):
    _spectra(holding)
    bumped = [(v, rho + (1e-4 if v == 3 else 0.0)) for v, rho in holding.rep.per_vertex_rho]
    with pytest.raises(CheckError, match="vertex 3"):
        _spectra(holding, per_vertex=bumped)
    with pytest.raises(CheckError, match="condition"):
        _spectra(holding, condition="fails")
    with pytest.raises(CheckError, match="threshold"):
        _spectra(holding, thr=holding.rep.threshold + 1e-3)


def test_link_radii_match_closed_forms():
    # every link of the complete 3-graph on n vertices is K_{n-1}, radius n-2
    H = constructions.complete_3graph(7).hypergraph
    assert checks.link_radii(7, H.edges) == pytest.approx([5.0] * 7)
    # h1(s, n): a non-hub link is the split graph at the threshold itself
    H = constructions.h1(2, 10).hypergraph
    assert min(checks.link_radii(10, H.edges)) == pytest.approx(checks.threshold(2, 10))
    assert checks.expected_condition(checks.link_radii(10, H.edges), 2, 10) is None


def test_thm13_witness(holding):
    rep, witness = holding.rep, holding.rep.witness

    def check(report):
        workloads._check_thm13_witness(9, holding.edges, holding.s, report)

    check(rep)
    swapped = [_non_edge(holding.H, witness.edges[1:])] + list(witness.edges[1:])
    with pytest.raises(CheckError):
        check(dataclasses.replace(rep, witness=SimpleNamespace(edges=swapped)))
    with pytest.raises(CheckError, match="verdict"):
        check(dataclasses.replace(rep, verdict="bug_suspect"))


def test_duality_certificate(holding):
    cert = holding.cert
    assert checks.check_duality(9, holding.edges, cert.primal.weights, cert.dual.weights) == cert.value
    v, w = next(iter(cert.dual.weights.items()))
    lowered = {**cert.dual.weights, v: w - Fraction(1, 3)}
    with pytest.raises(CheckError):
        checks.check_duality(9, holding.edges, cert.primal.weights, lowered)
    e = next(iter(cert.primal.weights))
    raised = {**cert.primal.weights, e: cert.primal.weights[e] + 1}
    with pytest.raises(CheckError):
        checks.check_duality(9, holding.edges, raised, cert.dual.weights)


def test_perfect_matching_witness(holding):
    assert holding.pm is not None
    checks.check_matching(holding.edges.__contains__, holding.pm.edges, 3)
    with pytest.raises(CheckError, match="need 3"):
        checks.check_matching(holding.edges.__contains__, holding.pm.edges[1:], 3)
    overlapping = [holding.pm.edges[0], holding.pm.edges[0]] + list(holding.pm.edges[2:])
    with pytest.raises(CheckError, match="meets"):
        checks.check_matching(holding.edges.__contains__, overlapping, 3)


def _shift(case, cover=None, order=None, shifted=None, lifted=None):
    P = case.P
    checks.check_shift(
        case.H.n, case.H.edges, cover if cover is not None else P.cover.weights, P.nu_frac,
        order if order is not None else P.order, shifted if shifted is not None else P.shifted.edges,
        lifted if lifted is not None else case.M.edges, case.s,
    )


def test_shift(holding):
    _shift(holding)
    edges = list(holding.P.shifted.edges)
    with pytest.raises(CheckError, match="misses"):
        _shift(holding, shifted=edges[:-1])
    with pytest.raises(CheckError, match="below"):
        _shift(holding, shifted=edges[1:])
    v, w = next(iter(holding.P.cover.weights.items()))
    with pytest.raises(CheckError):
        _shift(holding, cover={**holding.P.cover.weights, v: w - Fraction(1, 6)})
    with pytest.raises(CheckError, match="permutation"):
        _shift(holding, order=[holding.P.order[0]] + list(holding.P.order[:-1]))
    lifted = list(holding.M.edges)
    with pytest.raises(CheckError):
        _shift(holding, lifted=[lifted[0]] + lifted[:-1])


def test_nu_frac_against_highs():
    H = constructions.random_3graph(13, 0.4, harness.instance_seed(20261025, 0)).hypergraph
    value = lp.fractional_matching(H).value
    reference = checks.lp_value(H.n, H.edges)
    checks.check_nu_frac(value, reference)
    with pytest.raises(CheckError, match="HiGHS"):
        checks.check_nu_frac(value - Fraction(1, 1000), reference)


def test_perfect_matching_search():
    assert checks.has_perfect_matching(12, constructions.complete_3graph(12).hypergraph.edges)
    assert not checks.has_perfect_matching(12, constructions.h1(3, 12).hypergraph.edges)  # nu = 3
    assert not checks.has_perfect_matching(12, constructions.h2(4, 12).hypergraph.edges)  # nu = 3


def _search(tmp_path, threads):
    out = tmp_path / f"search{threads}.json"
    argv = ["search", "--space", "random", "--mode", "conj-pm", "--n", "12", "--s", "3", "--p", "0.8",
            "--samples", "20", "--seed", "4", "--threads", str(threads), "--no-timing", "-o", str(out)]
    assert cli.main(argv) == 0
    return json.loads(out.read_text())["results"]["counts"]


def test_search_counts(tmp_path):
    serial, parallel = _search(tmp_path, 1), _search(tmp_path, 2)
    instances = [
        (12, constructions.random_3graph(12, 0.8, harness.instance_seed(4, k)).hypergraph.edges) for k in range(20)
    ]
    expected = checks.search_expectations(instances, 3)
    checks.check_search_counts(serial, expected)
    checks.check_same_counts(serial, parallel)
    for key in ("condition_holds", "consistent"):
        with pytest.raises(CheckError, match=key):
            checks.check_search_counts({**serial, key: serial[key] - 1}, expected)
    with pytest.raises(CheckError, match="workers"):
        checks.check_same_counts(serial, {**parallel, "consistent": parallel["consistent"] - 1})


def test_cli_check_report(tmp_path):
    H = constructions.random_3graph(12, 0.7, harness.instance_seed(20260925, 0)).hypergraph
    fileio.save_instance(H, tmp_path / "h.h3")
    out = tmp_path / "check.json"
    argv = ["check", str(tmp_path / "h.h3"), "--s", "1", "--mode", "thm12", "--no-timing", "-o", str(out)]
    assert cli.main(argv) == 0
    rep = json.loads(out.read_text())["results"]["report"]
    radii = checks.link_radii(12, H.edges)
    checks.check_spectra(12, 1, radii, rep["per_vertex_rho"], rep["min_rho"], rep["threshold"], rep["condition"])
    assert rep["condition"] == "holds"
    witness = rep["witness"]["edges"]
    checks.check_matching(set(H.edges).__contains__, witness, 2)
    with pytest.raises(CheckError):
        checks.check_matching(set(H.edges).__contains__, [list(_non_edge(H, witness[1:]))] + witness[1:], 2)
    rep["per_vertex_rho"][0][1] -= 1e-3
    with pytest.raises(CheckError, match="vertex 1"):
        checks.check_spectra(12, 1, radii, rep["per_vertex_rho"], rep["min_rho"], rep["threshold"], rep["condition"])


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.metric_specs()


def _run(cwd, *args):
    cmd = [sys.executable, "bench/run.py", "--seed", "0", "--seconds", "0", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_traced_sweep_run():
    p = _run(BENCH.parent, "--workload", "sweep", "--trace", "1")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(workloads.SWEEP_STREAMS) * workloads.SWEEP_WINDOW
    assert list(result["metrics"]) == [name for name, _, _ in tracing.metric_specs()]
    assert result["metrics"]["lp.fractional_matching.calls"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "tmp", "__pycache__"))
    p = _run(tmp_path, "--workload", "sweep", "--trace", "0")
    assert p.returncode != 0 and p.stdout == ""
