"""End-to-end CLI behavior: commands, report format, exit codes, determinism."""

import argparse
import json
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkspec import cli, harness
from linkspec.cli import main
from linkspec.constructions import random_3graph
from linkspec.fileio import parse_instance, serialize
from linkspec.graphs import Hypergraph3
from linkspec.harness import instance_seed
from conftest import FANO_LINES, uncertifiable_links


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def fano_file(tmp_path):
    path = tmp_path / "fano.h3"
    lines = ["p h3 7 7"] + [f"e {a} {b} {c}" for a, b, c in sorted(FANO_LINES)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


#: `--no-timing` reports kept byte for byte: name -> (instance file, its `gen`
#: arguments or its text, the command); each command runs in a directory
#: holding only the instance, so the file name in the report is the relative one
GOLDEN_REPORTS = {
    "fracmatch_random12.json": (
        "r12.h3", ("--family", "random", "--n", "12", "--p", "0.5", "--seed", "3"), ("fracmatch", "r12.h3"),
    ),
    "fracmatch_h2_3_12.json": ("h2.h3", ("--family", "h2", "--s", "3", "--n", "12"), ("fracmatch", "h2.h3")),
    "shift_random12_lift1.json": (
        "r12.h3",
        ("--family", "random", "--n", "12", "--p", "0.5", "--seed", "3"),
        ("shift", "r12.h3", "--limit", "0", "--lift-s", "1"),
    ),
    # the budget-1 search stops short of a 3-matching, so the witness is the LP certificate
    "check_thm13_duality.json": (
        "r9.h3",
        ("--family", "random", "--n", "9", "--p", "0.9", "--seed", "3"),
        ("check", "r9.h3", "--s", "2", "--mode", "thm13", "--budget", "1"),
    ),
    "search_random.json": (
        None,
        (),
        ("search", "--space", "random", "--n", "9", "--s", "2", "--mode", "thm13",
         "--p", "0.7", "--samples", "40", "--seed", "5", "--threads", "1"),
    ),
    "rho_random12_s2.json": (
        "r12.h3", ("--family", "random", "--n", "12", "--p", "0.5", "--seed", "3"), ("rho", "r12.h3", "--s", "2"),
    ),
    # a triangle with a pendant edge, and a disjoint edge
    "rho_graph.json": ("g.edge", "p edge 6 5\ne 1 2\ne 1 3\ne 2 3\ne 3 4\ne 5 6\n", ("rho", "g.edge")),
}

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"


def golden_report(capsys, directory, name):
    """Run the command of GOLDEN_REPORTS[name] in `directory`; its stdout."""
    instance, family, command = GOLDEN_REPORTS[name]
    if isinstance(family, str):
        (directory / instance).write_text(family)
    elif instance is not None:
        assert main(["gen", *family, "-o", str(directory / instance)]) == 0
    code, out, _ = run(capsys, *command, "--no-timing")
    assert code == 0
    return out


def gen_file(capsys, tmp_path, name, *argv):
    path = tmp_path / name
    code, _, _ = run(capsys, "gen", *argv, "-o", str(path))
    assert code == 0
    return str(path)


class TestGen:
    def test_h1_text_output(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "h1", "--s", "2", "--n", "6")
        assert code == 0
        H = parse_instance(out)
        assert H.n == 6 and H.m == 16
        assert serialize(H) == out  # canonical round trip

    def test_json_flag(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "complete", "--n", "4", "--json")
        assert code == 0
        assert json.loads(out) == {
            "n": 4,
            "edges": [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]],
        }

    def test_random_requires_p_and_seed(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "random", "--n", "6")
        assert code == 1 and "required" in err

    def test_random_is_reproducible(self, capsys):
        args = ("gen", "--family", "random", "--n", "8", "--p", "0.5", "--seed", "3")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_output_file_format_by_suffix(self, capsys, tmp_path):
        text = gen_file(capsys, tmp_path, "a.h3", "--family", "complete", "--n", "5")
        js = gen_file(capsys, tmp_path, "a.json", "--family", "complete", "--n", "5")
        with open(text) as fh:
            assert fh.read().startswith("p h3 5 10")
        with open(js) as fh:
            assert json.loads(fh.read())["n"] == 5


class TestRho:
    def test_h3_links_with_threshold(self, capsys, tmp_path):
        path = gen_file(capsys, tmp_path, "h.h3", "--family", "h1", "--s", "2", "--n", "9")
        code, out, _ = run(capsys, "rho", path, "--s", "2", "--no-timing")
        assert code == 0
        rep = json.loads(out)
        res = rep["results"]
        assert res["kind"] == "h3-links"
        assert res["min_rho"] == pytest.approx(4, abs=1e-9)
        assert res["threshold"] == pytest.approx(4)
        assert res["condition"] == "indeterminate"
        assert len(res["per_vertex"]) == 9

    def test_nonconverged_links_are_indeterminate(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "r.h3"
        path.write_text(serialize(random_3graph(9, 0.8, 3).hypergraph))
        args = ("rho", str(path), "--s", "1", "--no-timing")
        _, out, _ = run(capsys, *args)
        assert json.loads(out)["results"]["condition"] == "holds"

        uncertifiable_links(monkeypatch, {4}, 9)
        code, out, _ = run(capsys, *args)
        res = json.loads(out)["results"]
        assert code == 0
        assert [x["vertex"] for x in res["per_vertex"] if not x["converged"]] == [4]
        assert res["condition"] == "indeterminate"

    def test_single_vertex(self, capsys, fano_file):
        code, out, _ = run(capsys, "rho", fano_file, "--vertex", "3", "--no-timing")
        rep = json.loads(out)
        assert code == 0 and len(rep["results"]["per_vertex"]) == 1

    def test_vertex_out_of_range(self, capsys, fano_file):
        for v in ("0", "8", "-1"):
            code, out, err = run(capsys, "rho", fano_file, "--vertex", v, "--no-timing")
            assert code == 1 and out == ""
            assert f"vertex {v} out of range 1..7" in err

    def test_graph_file(self, capsys, tmp_path):
        path = tmp_path / "g.edge"
        path.write_text("p edge 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n")
        code, out, _ = run(capsys, "rho", str(path), "--no-timing")
        rep = json.loads(out)
        assert code == 0
        assert rep["results"]["kind"] == "graph"
        assert rep["results"]["spectral"]["value"] == pytest.approx(3, abs=1e-9)


class TestMatchCommands:
    def test_match_h1(self, capsys, tmp_path):
        path = gen_file(capsys, tmp_path, "h.h3", "--family", "h1", "--s", "2", "--n", "9")
        code, out, _ = run(capsys, "match", path, "--no-timing")
        rep = json.loads(out)
        assert code == 0
        assert rep["results"]["size"] == 2 and rep["results"]["exact"] is True

    def test_fracmatch_fano(self, capsys, fano_file):
        code, out, _ = run(capsys, "fracmatch", fano_file, "--no-timing")
        rep = json.loads(out)
        assert code == 0
        assert rep["results"]["nu_frac"] == "7/3"
        assert rep["results"]["dual"]["kind"] == "cover"

    def test_fracmatch_guard_and_override(self, capsys, tmp_path):
        path = gen_file(capsys, tmp_path, "big.h3", "--family", "h1", "--s", "1", "--n", "30")
        code, _, err = run(capsys, "fracmatch", path, "--no-timing")
        assert code == 1 and "guard" in err
        code, out, _ = run(capsys, "fracmatch", path, "--no-timing", "--limit", "0")
        assert code == 0
        assert json.loads(out)["results"]["nu_frac"] == 1

    @pytest.mark.parametrize("command", ["fracmatch", "shift"])
    def test_guard_error_names_the_cli_override(self, capsys, tmp_path, command):
        path = gen_file(capsys, tmp_path, "r24.h3", "--family", "random", "--n", "24", "--p", "0.3", "--seed", "1")
        code, _, err = run(capsys, command, path, "--no-timing")
        assert code == 1
        assert "exceeds the exact-LP guard 2000; pass --limit 0 to override" in err
        assert "limit=None" not in err

    @pytest.mark.parametrize("command", ["fracmatch", "shift", "check"])
    def test_negative_limit_is_a_usage_error(self, capsys, fano_file, command):
        extra = ["--s", "1", "--mode", "thm13"] if command == "check" else []
        with pytest.raises(SystemExit) as err:
            main([command, fano_file, *extra, "--limit", "-3"])
        assert err.value.code == 1
        assert "argument --limit: expected a non-negative integer" in capsys.readouterr().err


class TestCheck:
    def test_complete6_conj_pm(self, capsys, tmp_path):
        path = gen_file(capsys, tmp_path, "k6.h3", "--family", "complete", "--n", "6")
        code, out, _ = run(
            capsys, "check", path, "--s", "1", "--mode", "conj-pm", "--no-timing"
        )
        rep = json.loads(out)
        assert code == 0
        assert rep["results"]["report"]["verdict"] == "consistent"

    def test_gamma_section(self, capsys, tmp_path):
        path = gen_file(capsys, tmp_path, "k9.h3", "--family", "complete", "--n", "9")
        code, out, _ = run(
            capsys, "check", path, "--s", "2", "--mode", "thm13",
            "--gamma", "0.05", "--no-timing",
        )
        rep = json.loads(out)
        assert code == 0 and rep["results"]["thm11"]["condition"] == "holds"

    def test_gamma_section_reuses_the_link_spectra(self, capsys, tmp_path, monkeypatch):
        path = gen_file(capsys, tmp_path, "k9.h3", "--family", "complete", "--n", "9")
        calls = []
        for module in (cli, harness):
            real = module.link_spectra
            counted = lambda *a, real=real: calls.append(a) or real(*a)  # noqa: E731
            monkeypatch.setattr(module, "link_spectra", counted)
        code, _, _ = run(capsys, "check", path, "--s", "2", "--mode", "thm13", "--gamma", "0.05")
        assert code == 0 and len(calls) == 1

    def test_check_reads_only_the_edge_array(self, capsys, tmp_path, monkeypatch):
        # at n = 100 the tuple view would hold 113k triples; a check never builds it
        path = tmp_path / "n100.h3"
        path.write_text(serialize(random_3graph(100, 0.7, instance_seed(20260925, 0)).hypergraph))
        built = []
        view = Hypergraph3.edges
        monkeypatch.setattr(Hypergraph3, "edges", property(lambda H: built.append(H.m) or view.func(H)))
        code, out, _ = run(
            capsys, "check", str(path), "--s", "1", "--mode", "thm12", "--gamma", "0.05", "--no-timing"
        )
        report = json.loads(out)["results"]["report"]
        assert code == 0 and report["condition"] == "holds" and report["verdict"] == "consistent"
        assert built == []

    def test_strict_exit_on_out_of_range_counterexample(self, capsys, tmp_path, monkeypatch):
        # n=5 < 3s+3 lies outside the conjecture's hypothesis: the spectral
        # condition holds and no 2-matching fits in 5 vertices, but that is
        # no finding, so even --strict exits 0
        path = gen_file(capsys, tmp_path, "k5.h3", "--family", "complete", "--n", "5")
        code, out, _ = run(
            capsys, "check", path, "--s", "1", "--mode", "conj-matching",
            "--strict", "--no-timing",
        )
        assert code == 0
        assert json.loads(out)["results"]["report"]["verdict"] == "skipped"
        # K6 at s = 1 meets the hypothesis (n = 3s+3); a search that finds no
        # 2-matching there makes it a counterexample, which --strict exits on
        path = gen_file(capsys, tmp_path, "k6.h3", "--family", "complete", "--n", "6")
        monkeypatch.setattr(harness, "find_matching_of_size", lambda *a: (None, True))
        code, out, _ = run(
            capsys, "check", path, "--s", "1", "--mode", "conj-matching",
            "--strict", "--no-timing",
        )
        assert code == 3
        assert json.loads(out)["results"]["report"]["verdict"] == "counterexample"
        code, _, _ = run(
            capsys, "check", path, "--s", "1", "--mode", "conj-matching", "--no-timing"
        )
        assert code == 0  # without --strict the finding is only reported


class TestSearch:
    def test_random_search_report(self, capsys):
        code, out, _ = run(
            capsys, "search", "--space", "random", "--n", "7", "--s", "1",
            "--mode", "conj-matching", "--p", "0.7", "--samples", "25",
            "--seed", "5", "--threads", "1", "--no-timing",
        )
        rep = json.loads(out)
        assert code == 0
        assert rep["results"]["counts"]["total"] == 25

    def test_exhaustive_small(self, capsys):
        code, out, _ = run(
            capsys, "search", "--space", "exhaustive", "--n", "4", "--s", "1",
            "--mode", "thm13", "--no-timing",
        )
        rep = json.loads(out)
        assert code == 0 and rep["results"]["counts"]["total"] == 16

    def test_random_stream_overrun_is_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "search", "--space", "random", "--n", "9", "--s", "1",
            "--mode", "thm13", "--p", "0.5", "--samples", "1000004",
            "--seed", "5", "--no-timing",
        )
        assert code == 1 and out == "" and "samples must be at most 1000003" in err

    def test_random_requires_sampling_params(self, capsys):
        code, _, err = run(
            capsys, "search", "--space", "random", "--n", "7", "--s", "1",
            "--mode", "thm13", "--no-timing",
        )
        assert code == 1 and "required" in err


class TestShiftAbsorb:
    def test_shift_fano(self, capsys, fano_file):
        code, out, _ = run(capsys, "shift", fano_file, "--no-timing")
        rep = json.loads(out)
        assert code == 0
        assert rep["results"]["nu_frac"] == "7/3"
        assert rep["results"]["closure_verified"] is True

    def test_shift_with_lift(self, capsys, tmp_path):
        path = gen_file(capsys, tmp_path, "k6.h3", "--family", "complete", "--n", "6")
        code, out, _ = run(capsys, "shift", path, "--lift-s", "1", "--no-timing")
        rep = json.loads(out)
        assert code == 0 and len(rep["results"]["lifted_matching"]["edges"]) == 2

    def test_shift_lift_gives_canonical_pairs(self, capsys, tmp_path):
        path = gen_file(capsys, tmp_path, "k9.h3", "--family", "complete", "--n", "9")
        code, out, _ = run(capsys, "shift", path, "--lift-s", "2", "--no-timing")
        rep = json.loads(out)
        assert code == 0
        assert rep["results"]["lifted_matching"]["edges"] == [[1, 6, 7], [2, 5, 8], [3, 4, 9]]

    def test_shift_lift_failure_is_reported(self, capsys, tmp_path):
        # the last link of h2(3, 12) has matching number 2
        path = gen_file(capsys, tmp_path, "h2.h3", "--family", "h2", "--s", "3", "--n", "12")
        code, out, _ = run(capsys, "shift", path, "--lift-s", "2", "--no-timing")
        rep = json.loads(out)
        assert code == 0 and "lifted_matching" not in rep["results"]
        assert rep["results"]["lift_failure"] == "link matching number is only 2"

    @pytest.mark.parametrize("lift_s,message", [(5, "need n >= 3s+3"), (-1, "s must be nonnegative")])
    def test_shift_invalid_lift_s_is_a_usage_error(self, capsys, tmp_path, lift_s, message):
        path = gen_file(capsys, tmp_path, "k9.h3", "--family", "complete", "--n", "9")
        code, out, err = run(capsys, "shift", path, "--lift-s", str(lift_s), "--no-timing")
        assert code == 1 and out == "" and message in err

    def test_absorb_complete9(self, capsys, tmp_path):
        path = gen_file(capsys, tmp_path, "k9.h3", "--family", "complete", "--n", "9")
        code, out, _ = run(capsys, "absorb", path, "--t", "1,2,3", "--no-timing")
        rep = json.loads(out)
        assert code == 0 and rep["results"]["count"] == 1
        assert rep["results"]["sets"] == [[4, 5, 6, 7, 8, 9]]

    def test_absorb_bad_t(self, capsys, tmp_path):
        path = gen_file(capsys, tmp_path, "k9.h3", "--family", "complete", "--n", "9")
        code, _, err = run(capsys, "absorb", path, "--t", "1,x,3", "--no-timing")
        assert code == 1

    def test_absorb_refuses_a_scan_past_the_limit(self, capsys, tmp_path):
        # the criterion-5 instance at n = 100 would scan C(97, 6) six-sets
        path = tmp_path / "n100.h3"
        path.write_text(serialize(random_3graph(100, 0.7, instance_seed(20260925, 0)).hypergraph))
        started = time.perf_counter()
        code, out, err = run(capsys, "absorb", str(path), "--t", "1,2,3", "--no-timing")
        assert time.perf_counter() - started < 1.0
        assert code == 1 and out == ""
        assert f"C(97,6) = {comb(97, 6)} six-sets, more than the limit {harness.MAX_ABSORB_SIX_SETS}" in err


#: every command's options, pinned as tests/test_packaging.py pins the exports:
#: a command takes an option only if its handler reads it
COMMAND_OPTIONS = {
    "gen": {"--family", "--s", "--n", "--p", "--seed", "--json", "--output"},
    "rho": {"file", "--vertex", "--s", "--output", "--no-timing", "--tol", "--eps"},
    "match": {"file", "--budget", "--output", "--no-timing"},
    "fracmatch": {"file", "--output", "--no-timing", "--limit"},
    "check": {
        "file", "--s", "--mode", "--gamma", "--budget", "--strict",
        "--output", "--no-timing", "--tol", "--eps", "--limit",
    },
    "search": {
        "--space", "--n", "--s", "--mode", "--p", "--samples", "--seed", "--threads",
        "--budget", "--strict", "--output", "--no-timing", "--eps",
    },
    "shift": {"file", "--lift-s", "--output", "--no-timing", "--limit"},
    "absorb": {"file", "--t", "--output", "--no-timing"},
}


class TestContracts:
    def test_command_options_are_pinned(self):
        commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        options = {
            name: {max(a.option_strings, key=len, default=a.dest) for a in p._actions if a.dest != "help"}
            for name, p in commands.choices.items()
        }
        assert options == COMMAND_OPTIONS
        assert sum(len(o - {"file"}) for o in options.values()) == 49

    @pytest.mark.parametrize(
        "command,option",
        [(c, o) for c in ("match", "fracmatch", "shift", "absorb") for o in ("--tol", "--eps")] + [("search", "--tol")],
    )
    def test_options_a_command_does_not_read_are_usage_errors(self, capsys, fano_file, command, option):
        if command == "search":
            argv = ["search", "--space", "exhaustive", "--n", "4", "--s", "1", "--mode", "thm13"]
        else:
            argv = [command, fano_file] + (["--t", "1,2,3"] if command == "absorb" else [])
        with pytest.raises(SystemExit) as err:
            main([*argv, option, "1", "--no-timing"])
        assert err.value.code == 1
        assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err

    def test_usage_error_exit_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["rho"])  # missing file argument
        assert err.value.code == 1
        with pytest.raises(SystemExit) as err:
            main(["bogus-command"])
        assert err.value.code == 1

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "rho", "/nonexistent/file.h3", "--no-timing")
        assert code == 2

    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.h3"
        path.write_text("p h3 4 1\ne 1 1 2\n")
        code, _, err = run(capsys, "match", str(path), "--no-timing")
        assert code == 2 and "repeated vertex" in err

    def test_malformed_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3, "edges": [[1, 2, 5]]}')
        code, _, err = run(capsys, "match", str(path), "--no-timing")
        assert code == 2 and "out of range" in err

    def test_reports_are_byte_identical(self, capsys, tmp_path):
        path = gen_file(capsys, tmp_path, "h.h3", "--family", "h2", "--s", "2", "--n", "8")
        args = ("check", path, "--s", "1", "--mode", "thm13", "--no-timing")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        assert "timing" not in json.loads(out1)

    def test_timing_present_by_default(self, capsys, fano_file):
        _, out, _ = run(capsys, "rho", fano_file)
        assert "timing" in json.loads(out)

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0

    def test_output_file(self, capsys, tmp_path, fano_file):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "fracmatch", fano_file, "--no-timing", "-o", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["results"]["nu_frac"] == "7/3"

    @pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
    def test_golden_report(self, capsys, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        assert golden_report(capsys, tmp_path, name).encode() == (GOLDEN_DIR / name).read_bytes()

    def test_parser_is_built_once_and_keeps_no_state(self, capsys, tmp_path):
        # one parser serves every command of the process: a command's options
        # and defaults must not leak into the next
        assert cli.build_parser() is cli.build_parser()
        path = gen_file(capsys, tmp_path, "h.h3", "--family", "h2", "--s", "2", "--n", "8")
        args = ("check", path, "--s", "1", "--mode", "thm13", "--no-timing")
        _, plain, _ = run(capsys, *args)
        _, with_gamma, _ = run(capsys, *args, "--gamma", "0.05", "--budget", "7")
        assert json.loads(with_gamma)["parameters"]["gamma"] == 0.05
        _, again, _ = run(capsys, *args)
        assert again == plain and json.loads(again)["parameters"]["gamma"] is None

    def test_rationals_never_serialized_as_floats(self, capsys, tmp_path):
        path = gen_file(capsys, tmp_path, "h.h3", "--family", "h2", "--s", "2", "--n", "7")
        _, out, _ = run(capsys, "fracmatch", path, "--no-timing")
        rep = json.loads(out)
        assert rep["results"]["nu_frac"] == "3/2"
        for _, w in rep["results"]["primal"]["weights"]:
            assert (isinstance(w, str) and "/" in w) or isinstance(w, int)


# ---------------------------------------------------------------------------
# The report writer against json.dumps(obj, indent=2), its oracle.

_json_scalars = (
    st.none() | st.booleans() | st.integers() | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False) | st.sampled_from((float("inf"), float("-inf"), 0.0, -0.0, 1e-300))
    | st.text(max_size=6) | st.sampled_from(("é", "∞", "\U0001f600", "\x00\n\"", ""))
)
_int_rows = st.integers(0, 3).flatmap(  # equal-length int lists, the writer's fast path
    lambda k: st.lists(st.lists(st.integers(-(2**65), 2**65), min_size=k, max_size=k), max_size=5)
)
_json_values = st.recursive(
    _json_scalars | _int_rows,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=4), children, max_size=4)
        | st.lists(st.lists(st.integers() | st.booleans(), max_size=3), max_size=4)  # mixed lengths, bools
        | st.lists(st.tuples(st.integers(), st.integers()), max_size=3)
    ),
    max_leaves=25,
)


@settings(max_examples=500, deadline=None)
@given(_json_values)
def test_report_writer_matches_json_dumps(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize(
    "obj",
    [
        {1: [[1, 2]], None: {}},  # keys json converts: written by json itself
        [[True, 1], [1, 2]],
        [[1, 2], [3]],
        [[], []],
        [[[1]], [[2]]],
        {"rows": [[1, 2, 3], [4, 5, 6]], "empty": [], "nested": {"x": [{}]}},
        [float("nan")],
    ],
)
def test_report_writer_corner_cases(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=2)


def test_report_writer_rejects_what_json_rejects():
    with pytest.raises(TypeError):
        cli._json_text({"x": object()})
