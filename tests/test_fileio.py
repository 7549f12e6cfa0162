"""Instance file parsing and serialization."""

import pytest

from linkspec.constructions import h1, random_3graph
from linkspec.fileio import (
    ParseError,
    load_instance,
    parse_graph,
    parse_h3,
    parse_instance,
    save_instance,
    serialize,
    serialize_json,
)
from linkspec.graphs import Graph2, Hypergraph3


class TestParsing:
    def test_basic_h3(self):
        H = parse_h3("p h3 4 1\ne 1 2 3\n")
        assert H == Hypergraph3(4, ((1, 2, 3),))

    def test_empty_h3(self):
        assert parse_h3("p h3 3 0\n") == Hypergraph3(3, ())

    def test_graph_format(self):
        G = parse_graph("p edge 3 2\ne 1 2\ne 2 3\n")
        assert G == Graph2(3, ((1, 2), (2, 3)))

    def test_comments_and_blank_lines(self):
        text = "c generated\n\np h3 4 1\nc mid comment\ne 1 2 3\n"
        assert parse_h3(text).m == 1

    def test_json_sniffing(self):
        assert parse_instance('{"n": 4, "edges": [[1, 2, 3]]}') == Hypergraph3(4, ((1, 2, 3),))
        assert parse_instance('{"n": 3, "edges": [[1, 2]]}') == Graph2(3, ((1, 2),))

    def test_wrong_kind_rejected(self):
        with pytest.raises(ParseError):
            parse_h3("p edge 3 1\ne 1 2\n")
        with pytest.raises(ParseError):
            parse_graph("p h3 4 1\ne 1 2 3\n")


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
