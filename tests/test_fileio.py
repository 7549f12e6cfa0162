"""Instance file parsing and serialization."""

import json
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from linkspec import fileio
from linkspec.constructions import h1, random_3graph
from linkspec.fileio import (
    ParseError,
    _read_dimacs,
    _read_dimacs_lines,
    load_instance,
    parse_instance,
    save_instance,
    serialize,
    serialize_json,
)
from linkspec.graphs import Graph2, Hypergraph3
from linkspec.harness import instance_seed


class TestParsing:
    def test_basic_h3(self):
        H = parse_instance("p h3 4 1\ne 1 2 3\n")
        assert H == Hypergraph3(4, ((1, 2, 3),))

    def test_empty_h3(self):
        assert parse_instance("p h3 3 0\n") == Hypergraph3(3, ())

    def test_graph_format(self):
        G = parse_instance("p edge 3 2\ne 1 2\ne 2 3\n")
        assert G == Graph2(3, ((1, 2), (2, 3)))

    def test_comments_and_blank_lines(self):
        text = "c generated\n\np h3 4 1\nc mid comment\ne 1 2 3\n"
        H = parse_instance(text)
        assert isinstance(H, Hypergraph3) and H.m == 1

    def test_json_sniffing(self):
        assert parse_instance('{"n": 4, "edges": [[1, 2, 3]]}') == Hypergraph3(4, ((1, 2, 3),))
        assert parse_instance('{"n": 3, "edges": [[1, 2]]}') == Graph2(3, ((1, 2),))

    def test_wrong_kind_rejected(self):
        # the header decides the kind; a command that needs a 3-graph checks it
        assert not isinstance(parse_instance("p edge 3 1\ne 1 2\n"), Hypergraph3)
        assert not isinstance(parse_instance("p h3 4 1\ne 1 2 3\n"), Graph2)


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("e 1 2 3\n", "before header"),
            ("p h3 4 1\ne 1 1 2\n", "repeated vertex"),
            ("p h3 4 1\ne 3 2 1\n", "not sorted"),
            ("p h3 4 1\ne 2 3 5\n", "out of range"),
            ("p h3 4 2\ne 1 2 3\ne 1 2 3\n", "duplicate edge"),
            ("p h3 4 2\ne 1 2 3\n", "announces 2 edges"),
            ("p h3 4\n", "bad header"),
            ("p h4 4 1\n", "bad header"),
            ("p h3 x 1\n", "non-integer"),
            ("p h3 4 1\np h3 4 1\n", "duplicate header"),
            ("hello\n", "unrecognized"),
            ("", "missing 'p' header"),
            ("p h3 -1 0\n", "negative"),
        ],
    )
    def test_malformed_text(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert fragment in str(err.value)

    def test_unsorted_file_with_a_repeat_and_an_out_of_range_edge(self):
        # the array diagnosis runs on the rows as read and again after the sort;
        # both reject, and the line reader names the first bad line
        text = "p h3 5 4\ne 2 3 4\ne 1 2 3\ne 2 3 4\ne 1 2 6\n"
        with pytest.raises(ValueError, match=r"^duplicate edge \(2, 3, 4\)$"):
            Hypergraph3(5, np.array([[2, 3, 4], [1, 2, 3], [2, 3, 4], [1, 2, 6]]))
        with pytest.raises(ValueError, match=r"^edge \(1, 2, 6\) out of range 1..5$"):
            Hypergraph3(5, np.array([[1, 2, 3], [1, 2, 6], [2, 3, 4], [2, 3, 4]]))
        with pytest.raises(ParseError, match="duplicate edge") as err:
            parse_instance(text)
        assert err.value.line == 4

    def test_line_numbers_reported(self):
        with pytest.raises(ParseError) as err:
            parse_instance("p h3 4 2\ne 1 2 3\ne 1 1 4\n")
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            '{"edges": []}',
            '{"n": "3", "edges": []}',
            '{"n": 6, "edges": [[1, 2, 3], [4, 5]]}',
            '{"n": 6, "edges": [[1, 2, 3], [1, 2, 3]]}',
            '{"n": 6, "edges": [[3, 2, 1]]}',
            '{"n": 3, "edges": [[1, 2, 5]]}',
            '{"n": -1, "edges": []}',
            '{"n": true, "edges": []}',
            '{"n": 3, "edges": [[1, 2, "a"]]}',
            '{"n": 3, "edges": [[1.0, 2, 3]]}',
            '{"n": 3, "edges": [[true, 2, 3]]}',
            '{"n": 3, "edges": [1, 2, 3]}',
            pytest.param('{"n": 1' + "0" * 5000 + ', "edges": []}', id="huge-int"),
            pytest.param('{"n": 3, "edges": ' + "[" * 10**5 + "]" * 10**5 + "}", id="deep-nesting"),
        ],
    )
    def test_malformed_json(self, text):
        with pytest.raises(ParseError):
            parse_instance(text)


class TestRoundTrip:
    def test_text_round_trip(self):
        H = random_3graph(8, 0.4, 5).hypergraph
        assert parse_instance(serialize(H)) == H
        G = Graph2(5, ((1, 4), (2, 3)))
        assert parse_instance(serialize(G)) == G

    def test_json_round_trip(self):
        H = h1(2, 8).hypergraph
        assert parse_instance(serialize_json(H)) == H

    def test_canonical_form_is_stable(self):
        H = random_3graph(7, 0.5, 9).hypergraph
        text = serialize(H)
        assert serialize(parse_instance(text)) == text
        assert text.endswith("\n")

    def test_save_load(self, tmp_path):
        H = h1(2, 7).hypergraph
        text_path = tmp_path / "h.h3"
        json_path = tmp_path / "h.json"
        save_instance(H, text_path)
        save_instance(H, json_path)
        assert text_path.read_text().startswith("p h3 7")
        assert json_path.read_text().startswith("{")
        assert load_instance(text_path) == H
        assert load_instance(json_path) == H


# ---------------------------------------------------------------------------
# The one-pass text reader against the line reader.  Valid instances are
# written with varied spelling and layout, and edge-level and line-level
# faults are injected; the one-pass reader must accept exactly the texts
# the line reader accepts, with the same instance, and parse_instance must
# report a rejected text exactly as the line reader does.

_DIGIT_ZERO = {"arabic-indic": 0x660, "devanagari": 0x966, "fullwidth": 0xFF10}
_SPELLINGS = ("plain", "plain", "plain", "plus", "zeros", "underscore", *_DIGIT_ZERO)
_BAD_TOKENS = ("3c", "x", "1.0", "²", "0x1", "1e3", "--1", "e")
_SEPARATORS = (" ", " ", "  ", "\t", " \t ", "\xa0", "\x1f", "　")
_LINE_ENDS = ("\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", " ")
_FILLER = ("", "   ", "\t", "c", "c a comment", "  c indented comment", "comment", "c e 1 2 3")


def _spell(v: int, style: str) -> str:
    if v < 0:
        return "-" + _spell(-v, "plain" if style == "plus" else style)
    if style == "plus":
        return f"+{v}"
    if style == "zeros":
        return f"00{v}"
    if style == "underscore":
        return "_".join(str(v)) if v >= 10 else f"0_{v}"
    if style in _DIGIT_ZERO:
        return "".join(chr(_DIGIT_ZERO[style] + int(d)) for d in str(v))
    return str(v)


#: the in-place route's alphabet, and what its texts are made of: no
#: comments, no line break but "\n", no sign, separator or non-ASCII digit
_PLAIN_ALPHABET = set("0123456789e \t\n")
_PLAIN_SEPARATORS = (" ", " ", "  ", "\t", " \t ")
_PLAIN_PADS = ("", "", " ", "\t", " \t ")
_PLAIN_FILLER = ("", "", "   ", "\t", " \t ")
_PLAIN_BAD_TOKENS = ("1e3", "e", "ee", "e0", "00")
_PLAIN_UNKNOWN = ("1 2 3", "e", "1", "2 e 3")


@st.composite
def _instance_texts(draw, in_place=False):
    """(text, json twin or None, canonical text of the twin's edges).

    With `in_place`, every line is written in the in-place route's alphabet
    unless a fault needs a header, a sign or a letter elsewhere.
    """
    arity = draw(st.sampled_from((3, 3, 2)))
    n = draw(st.integers(0, 8))
    tuples = list(combinations(range(1, n + 1), arity))
    rows = [list(e) for e in draw(st.lists(st.sampled_from(tuples), unique=True, max_size=10))] if tuples else []
    # edge-level faults: each has a JSON twin
    for _ in range(draw(st.integers(0, 2))):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        fault = draw(st.sampled_from(("duplicate", "unsorted", "range", "extra", "missing", "bad")))
        if fault == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), list(rows[i]))
        elif fault == "unsorted":
            rows[i] = rows[i][::-1]
        elif fault == "range":
            rows[i][-1] = draw(st.sampled_from((n + 1, 0, -1, 2**70)))
        elif fault in ("extra", "missing") and i > 0:  # the JSON twin takes its arity from edge 0
            rows[i] = rows[i] + [n] if fault == "extra" else rows[i][:-1]
        elif fault == "bad":
            bad = _PLAIN_BAD_TOKENS if in_place else _BAD_TOKENS
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.sampled_from(bad))
    kind = "h3" if arity == 3 else "edge"
    twin = {"n": n, "edges": rows} if rows or arity == 3 else None
    canonical = "".join(f"{line}\n" for line in [f"p {kind} {n} {len(rows)}"] + [
        " ".join(["e"] + [str(v) for v in row]) for row in rows
    ])
    # spelling and layout, all of them valid; half the texts are laid out as serialize writes them
    plain = draw(st.booleans())
    sep = " " if plain else draw(st.sampled_from(_PLAIN_SEPARATORS if in_place else _SEPARATORS))
    spellings = ("plain",) if plain else ("plain", "zeros") if in_place else _SPELLINGS
    pads = ("",) if plain else _PLAIN_PADS if in_place else ("", "", " ", "\t")
    lines = [f"p {kind} {n} {len(rows) + draw(st.sampled_from((0, 0, 0, 0, 1, -1)))}"]
    for row in rows:
        words = ["e"] + [v if isinstance(v, str) else _spell(v, draw(st.sampled_from(spellings))) for v in row]
        lines.append(draw(st.sampled_from(pads)) + sep.join(words) + draw(st.sampled_from(pads)))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_PLAIN_FILLER if in_place else _FILLER)))
    # line-level faults
    faults = ("glued", "glued and padded", "split", "merged", "merged and split", "e moved", "e renamed", "bare",
              "second header", "unknown", "no header", "late header")
    fault = draw(st.sampled_from((None,) * 3 + faults))
    edge_lines = [i for i, line in enumerate(lines) if line.strip().startswith("e")]
    if fault in ("glued", "glued and padded") and edge_lines:
        i = draw(st.sampled_from(edge_lines))
        lines[i] = lines[i].replace("e" + sep, "e", 1) + (sep + "1" if fault == "glued and padded" else "")
    elif fault == "split" and edge_lines:  # the last word moves to a line of its own
        i = draw(st.sampled_from(edge_lines))
        head, _, last = lines[i].strip().rpartition(sep.strip() or sep)
        lines[i : i + 1] = [head, last]
    elif fault == "merged" and len(edge_lines) >= 2:  # two edges on one line
        i, j = edge_lines[:2]
        lines[i] = lines[i] + sep + lines.pop(j).strip()
    elif fault == "merged and split" and len(edge_lines) >= 2:  # two edges on one line, then as above
        i, j = edge_lines[:2]
        merged = lines[i] + sep + lines.pop(j).strip()
        head, _, last = merged.strip().rpartition(sep.strip() or sep)
        lines[i : i + 1] = [head, last]
    elif fault == "e moved" and edge_lines:  # "1 e 2 3": the line's first word is no "e"
        i = draw(st.sampled_from(edge_lines))
        words = lines[i].split()
        lines[i] = sep.join(words[1:2] + words[:1] + words[2:])
    elif fault == "e renamed" and edge_lines:
        i = draw(st.sampled_from(edge_lines))
        lines[i] = lines[i].replace("e", draw(st.sampled_from(("E", "x", "f"))), 1)
    elif fault == "bare":
        lines.insert(draw(st.integers(1, len(lines))), "e")
    elif fault == "second header":
        lines.insert(draw(st.integers(1, len(lines))), lines[0])
    elif fault == "unknown":
        unknown = _PLAIN_UNKNOWN if in_place else ("x 1 2 3", "p", "E 1 2 3", "1 2 3")
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(unknown)))
    elif fault == "no header":
        lines = [line for line in lines if not line.strip().startswith("p")]
    elif fault == "late header" and edge_lines:
        lines.insert(edge_lines[-1] + 1, lines.pop(0))
    end = "\n" if plain or in_place else draw(st.sampled_from(_LINE_ENDS))
    text = end.join(lines) + draw(st.sampled_from((end, "")))
    return text, twin, canonical


def _assert_readers_agree(text):
    try:
        expected = _read_dimacs_lines(text)
    except ParseError as exc:
        assert _read_dimacs(text) is None
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert (str(err.value), err.value.line) == (str(exc), exc.line)
    else:
        got = _read_dimacs(text)
        assert type(got) is type(expected) and got == expected
        assert parse_instance(text) == expected


@pytest.mark.parametrize(
    "text",
    [
        "p h3 9 2\ne 1 e 2\n3 4 5 6\n",  # an "e" inside a line and a line without one
        "p h3 9 1\n1 e 2 3\n",
        "p h3 9 2\ne 1 2 3 e 4 5 6\n",  # two edges on one line
        "p h3 9 2\n\n  e 1 2 3\t\n \t\ne 4 5 6",  # blank and padded lines, no final newline
        "p h3 9 2\ne 1 2 3\nx 4 5 6\n",
        "p h3 9 2\ne 1 2 3\nE 4 5 6\n",
        f"p h3 {2**63} 1\ne 1 2 99999999999999999999\n",  # overflows int64, and n is out of its reach too
        f"p h3 {2**63 - 10} 1\ne 1 2 99999999999999999999\n",
        f"p h3 {2**63 - 10} 1\ne 1 2 {2**63 - 11}\n",
        f"p h3 {2**64} 1\ne 1 2 {2**63}\n",  # valid, but beyond what an edge array holds
    ],
)
def test_readers_agree_at_the_edges(text):
    _assert_readers_agree(text)


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_instance_texts())
def test_one_pass_reader_agrees_with_the_line_reader(case):
    text, twin, canonical = case
    _assert_readers_agree(text)
    if twin is not None:  # the same edges as JSON: accepted and read alike
        try:
            expected = _read_dimacs_lines(canonical)
        except ParseError:
            expected = None
        try:
            got = parse_instance(json.dumps(twin))
        except ParseError:
            got = None
        assert type(got) is type(expected) and got == expected


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_instance_texts(in_place=True))
def test_in_place_route_agrees_with_the_line_reader(case):
    # comment-free texts of digits, "e", spaces, tabs and "\n", with blank and
    # whitespace-only lines, padded lines and an optional final newline: the
    # body after a readable header is read from its bytes, never split
    text, _, _ = case
    lines = text.split("\n")
    h = next((i for i, line in enumerate(lines) if line.strip()), len(lines))
    header = lines[h].split() if h < len(lines) else []
    readable = len(header) == 4 and header[:2] in (["p", "h3"], ["p", "edge"]) and all(
        w.isdecimal() for w in header[2:]
    )
    in_place = readable and set("\n".join(lines[h + 1 :])) <= _PLAIN_ALPHABET
    with mock.patch.object(fileio, "_split_numbers", wraps=fileio._split_numbers) as split:
        _assert_readers_agree(text)
    assert not (in_place and split.called)


def test_serialized_instance_is_read_in_place(tmp_path, monkeypatch):
    # what serialize writes needs neither the split route nor the line reader
    H = random_3graph(100, 0.7, instance_seed(20260925, 0)).hypergraph
    path = tmp_path / "n100.h3"
    save_instance(H, path)

    def refuse(*args):
        raise AssertionError("a serialized instance left the in-place route")

    monkeypatch.setattr(fileio, "_split_numbers", refuse)
    monkeypatch.setattr(fileio, "_read_dimacs_lines", refuse)
    assert load_instance(path) == H
    assert parse_instance(serialize(Graph2(4, ((1, 2), (2, 4))))) == Graph2(4, ((1, 2), (2, 4)))
