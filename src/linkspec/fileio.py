"""Instance file formats: DIMACS-like text and a JSON mirror.

Text grammar: header ``p h3 <n> <m>`` (or ``p edge <n> <m>`` for 2-graphs)
followed by exactly m lines ``e <a> <b> <c>`` (``e <a> <b>``) with strictly
increasing in-range labels; ``c ...`` comment lines are allowed anywhere.
The JSON mirror is ``{"n": <n>, "edges": [[a, b, c], ...]}``.  Both formats
check each edge with one validator, so malformed input in either format
raises `ParseError`, which the CLI reports with exit 2.
Parsing and serialization round-trip exactly on canonical form; duplicate
edges are an error, never deduplicated silently.
"""

from __future__ import annotations

import json
from pathlib import Path

from .graphs import Graph2, Hypergraph3


class ParseError(ValueError):
    """Malformed instance input; `line` is 1-based when applicable."""

    def __init__(self, message: str, line: int | None = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


def _check_edge(e, arity: int, n: int, seen: set, line: int | None = None) -> tuple[int, ...]:
    """Check one edge's arity, int (not bool) vertices, order, range 1..n and novelty."""
    if not isinstance(e, (list, tuple)) or len(e) != arity:
        raise ParseError(f"expected {arity} vertices in edge {e!r}", line)
    vs = tuple(e)
    if any(type(v) is not int for v in vs):
        raise ParseError(f"non-integer vertex in edge {e!r}", line)
    if len(set(vs)) != arity:
        raise ParseError(f"repeated vertex in edge {vs}", line)
    if tuple(sorted(vs)) != vs:
        raise ParseError(f"edge {vs} is not sorted increasingly", line)
    if not (1 <= vs[0] and vs[-1] <= n):
        raise ParseError(f"vertex out of range 1..{n} in edge {vs}", line)
    if vs in seen:
        raise ParseError(f"duplicate edge {vs}", line)
    seen.add(vs)
    return vs


def _parse_dimacs(text: str) -> Graph2 | Hypergraph3:
    kind: str | None = None
    n = 0
    m = 0
    edges: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if kind is not None:
                raise ParseError("duplicate header", lineno)
            if len(tokens) != 4 or tokens[1] not in ("h3", "edge"):
                raise ParseError(f"bad header {line!r}; expected 'p h3 <n> <m>' or 'p edge <n> <m>'", lineno)
            kind = tokens[1]
            try:
                n, m = int(tokens[2]), int(tokens[3])
            except ValueError:
                raise ParseError(f"non-integer header fields in {line!r}", lineno) from None
            if n < 0 or m < 0:
                raise ParseError("negative counts in header", lineno)
        elif tokens[0] == "e":
            if kind is None:
                raise ParseError("edge line before header", lineno)
            arity = 3 if kind == "h3" else 2
            try:
                vs = [int(t) for t in tokens[1:]]
            except ValueError:
                raise ParseError(f"non-integer vertex in {line!r}", lineno) from None
            edges.append(_check_edge(vs, arity, n, seen, lineno))
        else:
            raise ParseError(f"unrecognized line {line!r}", lineno)
    if kind is None:
        raise ParseError("missing 'p' header")
    if len(edges) != m:
        raise ParseError(f"header announces {m} edges but {len(edges)} were given")
    return (Hypergraph3 if kind == "h3" else Graph2)(n, tuple(sorted(edges)))


def _parse_json(text: str) -> Graph2 | Hypergraph3:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, a huge int, deep nesting
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise ParseError("JSON instance must be an object with 'n' and 'edges'")
    n = data["n"]
    edges = data["edges"]
    if type(n) is not int or n < 0 or not isinstance(edges, list):
        raise ParseError("'n' must be a nonnegative integer and 'edges' a list")
    # the first edge fixes the arity; _check_edge holds every edge to it
    arity = len(edges[0]) if edges and isinstance(edges[0], list) else 3
    if arity not in (2, 3):
        raise ParseError("edges must be uniformly pairs or triples")
    seen: set[tuple[int, ...]] = set()
    edges = sorted(_check_edge(e, arity, n, seen) for e in edges)
    return (Graph2 if arity == 2 else Hypergraph3)(n, tuple(edges))


def parse_instance(text: str) -> Graph2 | Hypergraph3:
    """Parse either format, sniffing JSON by a leading brace."""
    if text.lstrip().startswith("{"):
        return _parse_json(text)
    return _parse_dimacs(text)


def parse_h3(text: str) -> Hypergraph3:
    obj = parse_instance(text)
    if not isinstance(obj, Hypergraph3):
        raise ParseError("expected a 3-graph instance, got a 2-graph")
    return obj


def parse_graph(text: str) -> Graph2:
    obj = parse_instance(text)
    if not isinstance(obj, Graph2):
        raise ParseError("expected a 2-graph instance, got a 3-graph")
    return obj


def serialize(obj: Graph2 | Hypergraph3) -> str:
    """Canonical newline-terminated text form; parse(serialize(x)) == x."""
    if isinstance(obj, Hypergraph3):
        lines = [f"p h3 {obj.n} {obj.m}"]
        lines.extend(f"e {a} {b} {c}" for a, b, c in obj.edges)
    else:
        lines = [f"p edge {obj.n} {obj.m}"]
        lines.extend(f"e {a} {b}" for a, b in obj.edges)
    return "\n".join(lines) + "\n"


def serialize_json(obj: Graph2 | Hypergraph3) -> str:
    return json.dumps({"n": obj.n, "edges": [list(e) for e in obj.edges]}) + "\n"


def load_instance(path: str | Path) -> Graph2 | Hypergraph3:
    return parse_instance(Path(path).read_text())


def save_instance(obj: Graph2 | Hypergraph3, path: str | Path) -> None:
    p = Path(path)
    text = serialize_json(obj) if p.suffix == ".json" else serialize(obj)
    p.write_text(text)
