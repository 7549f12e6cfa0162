"""Instance file formats: DIMACS-like text and a JSON mirror.

Text grammar: header ``p h3 <n> <m>`` (or ``p edge <n> <m>`` for 2-graphs)
followed by exactly m lines ``e <a> <b> <c>`` (``e <a> <b>``) with strictly
increasing in-range labels; ``c ...`` comment lines are allowed anywhere.
The JSON mirror is ``{"n": <n>, "edges": [[a, b, c], ...]}``.  Malformed
input in either format raises `ParseError`, which the CLI reports with
exit 2.  Text is read in one pass of whole-text string and array
operations, whose edge array goes straight to the `Hypergraph3`
constructor.  A body of ASCII digits, ``e``, spaces, tabs and ``\n`` after
the header, as `serialize` writes it, is read in place from its bytes,
with no list of lines; a body with comments, other line breaks or other
characters is split into stripped lines first.  Only when that pass cannot
vouch for every line is the text read again line by line, to name the
first bad line.  JSON edges are checked one by one with the same messages.
Parsing and serialization round-trip exactly on canonical form; duplicate
edges are an error, never deduplicated silently.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .graphs import Graph2, Hypergraph3, lex_increasing

#: deletes every character of a plain edge list: decimal digits, "e" and whitespace
_PLAIN = b"0123456789e \t\n"


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
    """Read the text in one pass; if that pass cannot vouch for it, name the first bad line."""
    parsed = _read_dimacs(text)
    return parsed if parsed is not None else _read_dimacs_lines(text)


def _read_dimacs(text: str) -> Graph2 | Hypergraph3 | None:
    """The instance in `text`, read with whole-text string and array operations.

    Returns None, never raises, when the text is malformed, so that
    `_read_dimacs_lines` can report the first bad line.  It accepts exactly
    the texts the line reader accepts, with the same result: the header is
    the first line that is neither blank nor a comment, and every later
    line that is neither must be the word ``e`` and `arity` more words that
    `int` accepts.  A body of ASCII digits, ``e``, spaces, tabs and ``\n``
    has no comment and no other line break, and is read in place from its
    bytes; any other body is split into stripped lines, its blank and
    comment lines are dropped as the line reader drops them, and what is
    left is read by the same plain reader, or word by word.
    """
    start = 0
    while start < len(text):  # the header, one "\n"-terminated line at a time
        stop = text.find("\n", start) + 1 or len(text)
        kept = [s for s in map(str.strip, text[start:stop].splitlines()) if s and s[0] != "c"]
        if kept:
            break
        start = stop
    else:
        return None
    tokens = kept[0].split()
    if len(tokens) != 4 or tokens[0] != "p" or tokens[1] not in ("h3", "edge"):
        return None
    try:
        n, m = int(tokens[2]), int(tokens[3])
    except ValueError:
        return None
    width = 4 if tokens[1] == "h3" else 3
    # lines that another line break puts after the header on its own "\n" line
    body = "\n".join(kept[1:] + [text[stop:]])
    raw = _plain_bytes(body, n)
    flat = _plain_numbers(raw, m, width) if raw is not None else _split_numbers(body, n, m, width)
    if flat is None:
        return None
    E = flat.reshape(m, width - 1)
    build = Hypergraph3 if width == 4 else lambda n, E: Graph2(n, tuple(map(tuple, E.tolist())))
    try:
        return build(n, E)
    except ValueError:  # out of order, which the file may be, or invalid
        if lex_increasing(E):
            return None
    try:
        return build(n, E[np.lexsort(E.T[::-1])])
    except ValueError:
        return None


def _plain_bytes(body: str, n: int) -> bytes | None:
    """`body` in ASCII if it holds only decimal digits, "e", spaces, tabs and "\n", and n < 2**62."""
    if n < 2**62 and body.isascii():
        raw = body.encode("ascii")
        if not raw.translate(None, _PLAIN):
            return raw
    return None


def _split_numbers(body: str, n: int, m: int, width: int) -> np.ndarray | None:
    """The vertex labels of a body that is not plain, or None: its lines split and stripped,
    blank and comment lines dropped, then read as plain text or word by word."""
    kept = [s for s in map(str.strip, body.splitlines()) if s and s[0] != "c"]
    if len(kept) != m:
        return None
    raw = _plain_bytes("\n".join(kept), n)
    if raw is not None:
        return _plain_numbers(raw, m, width)
    # signs, digit separators, non-ASCII digits or spaces: word by word, as int reads them
    rows = [s.split() for s in kept]
    if any(len(r) != width or r[0] != "e" for r in rows):
        return None
    try:
        return np.array([int(w) for r in rows for w in r[1:]], dtype=np.int64)
    except (ValueError, OverflowError):
        return None


def _plain_numbers(raw: bytes, m: int, width: int) -> np.ndarray | None:
    """The numbers of ASCII digits, "e", spaces, tabs and "\n" in `raw`, or None.

    None unless m lines are not blank and each of them is the word "e" and
    width-1 decimals.  A decimal that overflows int64 reads as 2**63-1,
    which is out of range of any n below 2**62.
    """
    b = np.frombuffer(raw, dtype=np.uint8)
    space = b <= 32  # space, tab and "\n" are the only bytes below "0"
    starts = np.flatnonzero(~space & np.concatenate(([True], space[:-1])))  # first letter of each word
    if len(starts) != m * width:
        return None
    if m == 0:
        return np.empty(0, dtype=np.int64)
    # word i follows a line break iff the first word after some "\n" is i
    follows = np.zeros(m * width + 1, dtype=bool)
    follows[np.searchsorted(starts, np.flatnonzero(b == 10))] = True
    follows = follows[:-1].reshape(m, width)
    first = starts[::width]
    # every line holds one group of width words, and its only "e" is its first word
    if not follows[1:, 0].all() or follows[:, 1:].any() or np.count_nonzero(b == 101) != m:
        return None
    if (b[first] != 101).any() or not space[first + 1].all():
        return None
    return np.fromstring(raw.replace(b"e", b" "), dtype=np.int64, sep=" ")


def _read_dimacs_lines(text: str) -> Graph2 | Hypergraph3:
    """Read the text line by line; a malformed line raises ParseError with its number."""
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
    try:
        return (Hypergraph3 if kind == "h3" else Graph2)(n, tuple(sorted(edges)))
    except ValueError as exc:  # valid labels that an int64 edge array cannot hold
        raise ParseError(str(exc)) from None


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
    if arity == 2:
        return Graph2(n, tuple(edges))
    return Hypergraph3(n, np.array(edges, dtype=np.intp).reshape(-1, 3))


def parse_instance(text: str) -> Graph2 | Hypergraph3:
    """Parse either format, sniffing JSON by a leading brace."""
    if text.lstrip().startswith("{"):
        return _parse_json(text)
    return _parse_dimacs(text)


def serialize(obj: Graph2 | Hypergraph3) -> str:
    """Canonical newline-terminated text form; parse(serialize(x)) == x."""
    if isinstance(obj, Hypergraph3):
        lines = [f"p h3 {obj.n} {obj.m}"]
        lines.extend(map("e {} {} {}".format, *obj.edge_array.T.tolist()))
    else:
        lines = [f"p edge {obj.n} {obj.m}"]
        lines.extend(f"e {a} {b}" for a, b in obj.edges)
    return "\n".join(lines) + "\n"


def edge_lists(obj: Graph2 | Hypergraph3) -> list[list[int]]:
    """The edges as lists of ints, as the JSON format and reports write them."""
    if isinstance(obj, Hypergraph3):
        return obj.edge_array.tolist()
    return [list(e) for e in obj.edges]


def serialize_json(obj: Graph2 | Hypergraph3) -> str:
    return json.dumps({"n": obj.n, "edges": edge_lists(obj)}) + "\n"


def load_instance(path: str | Path) -> Graph2 | Hypergraph3:
    return parse_instance(Path(path).read_text())


def save_instance(obj: Graph2 | Hypergraph3, path: str | Path) -> None:
    p = Path(path)
    text = serialize_json(obj) if p.suffix == ".json" else serialize(obj)
    p.write_text(text)
