"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 I/O or parse error, 3 conjecture
counterexample found under --strict.  Reports are JSON with exact values
(edge counts, nu) as integers, rationals as "num/den" strings, and floats
at 12 significant digits; --no-timing removes the only nondeterministic
field, making identical command lines byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any, Mapping, Sequence

from . import __version__
from .constructions import complete_3graph, h1, h2, random_3graph
from .fileio import ParseError, load_instance, save_instance, serialize, serialize_json
from .graphs import Graph2, Hypergraph3
from .harness import (
    LiftFailure,
    check_thm11,
    lift_link_matching,
    search_exhaustive,
    search_random,
    shift,
    shift_closure_holds,
    verify_theorem,
    absorbing_sets,
)
from .lp import DEFAULT_TRIPLE_LIMIT, FractionalAssignment, LpSizeError, fractional_matching
from .matching import DEFAULT_BUDGET, max_matching_3graph
from .spectral import (
    DEFAULT_COMPARISON_SLACK,
    DEFAULT_TOLERANCE,
    exact_threshold_match,
    link_spectra,
    spectral_radius,
)

USAGE_ERROR = 1
IO_ERROR = 2
COUNTEREXAMPLE_EXIT = 3

_INF = float("inf")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _triple_limit(text: str) -> int:
    """The --limit value: a non-negative integer, 0 for no guard."""
    try:
        limit = int(text)
    except ValueError:
        limit = -1
    if limit < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer (0 disables the guard), got {text!r}")
    return limit


def _jsonable(obj: Any) -> Any:
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, Fraction):
        if obj.denominator == 1:
            return int(obj)
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (Hypergraph3, Graph2)):
        return {"n": obj.n, "edges": obj.edge_array.tolist()}
    if isinstance(obj, FractionalAssignment):
        return {"kind": obj.kind, "weights": _jsonable(obj.weights), "value": _jsonable(obj.value)}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, Mapping):
        if all(isinstance(k, str) for k in obj):
            return {k: _jsonable(v) for k, v in obj.items()}
        return [[_jsonable(k), _jsonable(v)] for k, v in sorted(obj.items())]
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [_jsonable(x) for x in items]
    if hasattr(obj, "item"):  # numpy scalars
        return _jsonable(obj.item())
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _json_text(obj: Any) -> str:
    """`json.dumps(obj, indent=2)`, byte for byte, written without json's per-item generator.

    A list of equal-length lists of ints, such as an edge list, is
    formatted in one step.
    """
    out: list[str] = []
    _encode(obj, "\n", out)
    return "".join(out)


def _encode(o: Any, nl: str, out: list[str]) -> None:
    """Append o's indent=2 JSON to `out`; `nl` is a line break and the indent of o's level."""
    if isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif o is None or o is True or o is False:
        out.append("null" if o is None else "true" if o else "false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        if o != o or o in (_INF, -_INF):
            out.append("NaN" if o != o else "Infinity" if o > 0 else "-Infinity")
        else:
            out.append(float.__repr__(o))
    elif isinstance(o, (dict, list, tuple)) and not o:
        out.append("{}" if isinstance(o, dict) else "[]")
    elif isinstance(o, dict) and all(isinstance(k, str) for k in o):
        inner = nl + "  "
        sep = "{" + inner
        for k, v in o.items():
            out.append(sep + encode_basestring_ascii(k) + ": ")
            _encode(v, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(o, (list, tuple)):
        inner = nl + "  "
        width = len(o[0]) if type(o[0]) in (list, tuple) else 0
        if width and all(type(r) in (list, tuple) and len(r) == width for r in o):
            flat = tuple(chain.from_iterable(o))
            if set(map(type, flat)) == {int}:  # not bool: "%d" would write True as 1
                cell = inner + "  "
                row = "[" + cell + ("," + cell).join(("%d",) * width) + inner + "]"
                out.append(("[" + inner + ("," + inner).join((row,) * len(o)) + nl + "]") % flat)
                return
        sep = "[" + inner
        for v in o:
            out.append(sep)
            _encode(v, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    else:  # non-string keys, or a type json rejects: json's own text or TypeError
        out.append(json.dumps(o, indent=2).replace("\n", nl))


def _emit(args: argparse.Namespace, parameters: dict, results: Any, started: float) -> None:
    report = {
        "tool": "linkspec",
        "version": __version__,
        "command": args._argv,
        "parameters": _jsonable(parameters),
        "results": _jsonable(results),
    }
    if not args.no_timing:
        report["timing"] = {"seconds": round(time.perf_counter() - started, 6)}
    text = _json_text(report) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_h3(path: str) -> Hypergraph3:
    obj = load_instance(path)
    if not isinstance(obj, Hypergraph3):
        raise ParseError(f"{path}: expected a 3-graph instance")
    return obj


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.family in ("h1", "h2") and args.s is None:
        return _usage(args, "--s is required for h1/h2")
    if args.family == "random" and (args.p is None or args.seed is None):
        return _usage(args, "--p and --seed are required for random")
    if args.family == "h1":
        inst = h1(args.s, args.n)
    elif args.family == "h2":
        inst = h2(args.s, args.n)
    elif args.family == "complete":
        inst = complete_3graph(args.n)
    else:
        inst = random_3graph(args.n, args.p, args.seed)
    H = inst.hypergraph
    if args.output:
        save_instance(H, args.output)
    else:
        text = serialize_json(H) if args.json else serialize(H)
        sys.stdout.write(text)
    return 0


def _usage(args: argparse.Namespace, message: str) -> int:
    print(f"linkspec {args.command}: error: {message}", file=sys.stderr)
    return USAGE_ERROR


def _cmd_rho(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    obj = load_instance(args.file)
    params = {"file": args.file, "tolerance": args.tol, "eps": args.eps, "s": args.s}
    if isinstance(obj, Graph2):
        if args.vertex is not None or args.s is not None:
            return _usage(args, "--vertex and --s apply to a 3-graph's links, not to a 2-graph")
        rep = spectral_radius(obj, args.tol)
        _emit(args, params, {"kind": "graph", "spectral": rep}, started)
        return 0
    spectra = link_spectra(obj, args.tol, None if args.vertex is None else [args.vertex])
    per_vertex = [
        {"vertex": v, "rho": r, "converged": c}
        for v, r, c in zip(spectra.vertices, spectra.rho, spectra.converged)
    ]
    results: dict[str, Any] = {
        "kind": "h3-links",
        "n": obj.n,
        "per_vertex": per_vertex,
        "min_rho": min(spectra.rho, default=0.0),
    }
    if args.s is not None:
        thr = exact_threshold_match(args.s, obj.n)
        results["threshold"] = thr.value
        results["condition"] = spectra.condition(thr, args.eps)[0]
    _emit(args, params, results, started)
    return 0


def _cmd_match(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    H = _load_h3(args.file)
    res = max_matching_3graph(H, budget=args.budget)
    params = {"file": args.file, "budget": args.budget}
    _emit(args, params, res, started)
    return 0


def _cmd_fracmatch(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    H = _load_h3(args.file)
    limit = None if args.limit == 0 else args.limit
    cert = fractional_matching(H, limit)
    params = {"file": args.file, "limit": args.limit}
    results = {"nu_frac": cert.value, "primal": cert.primal, "dual": cert.dual}
    _emit(args, params, results, started)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    H = _load_h3(args.file)
    mode = args.mode.replace("-", "_")
    spectra = link_spectra(H, args.tol)  # shared by the report and the --gamma section
    rep = verify_theorem(
        H, args.s, mode, budget=args.budget, tolerance=args.tol, eps=args.eps,
        lp_limit=None if args.limit == 0 else args.limit, link_rho=spectra, instance_id=args.file,
    )
    results: dict[str, Any] = {"report": rep}
    if args.gamma is not None:
        cond, mn, thr = check_thm11(H, args.gamma, args.tol, args.eps, spectra)
        results["thm11"] = {"gamma": args.gamma, "threshold": thr, "min_rho": mn, "condition": cond}
    params = {
        "file": args.file, "s": args.s, "mode": args.mode, "gamma": args.gamma,
        "budget": args.budget, "tolerance": args.tol, "eps": args.eps,
    }
    _emit(args, params, results, started)
    if args.strict and rep.verdict == "counterexample":
        return COUNTEREXAMPLE_EXIT
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    mode = args.mode.replace("-", "_")
    if args.space == "exhaustive":
        if args.p is not None or args.samples is not None or args.seed is not None or args.threads:
            return _usage(args, "--p, --samples, --seed and --threads apply to random search only")
        summary = search_exhaustive(args.n, args.s, mode, eps=args.eps, budget=args.budget)
        params = {"space": "exhaustive", "n": args.n, "s": args.s, "mode": args.mode}
    else:
        if args.p is None or args.samples is None or args.seed is None:
            return _usage(args, "--p, --samples and --seed are required for random")
        # by default, one worker per CPU this process may run on
        usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        threads = args.threads or usable
        summary = search_random(
            args.n, args.p, args.samples, args.seed, args.s, mode,
            eps=args.eps, budget=args.budget, threads=threads,
        )
        params = {
            "space": "random", "n": args.n, "s": args.s, "mode": args.mode,
            "p": args.p, "samples": args.samples, "seed": args.seed,
        }
    params.update({"eps": args.eps, "budget": args.budget})
    results = {"counts": summary.counts, "violations": summary.violations}
    _emit(args, params, results, started)
    if args.strict and summary.found_counterexample:
        return COUNTEREXAMPLE_EXIT
    return 0


def _cmd_shift(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    H = _load_h3(args.file)
    pair = shift(H, None if args.limit == 0 else args.limit)
    closure_ok = shift_closure_holds(pair.shifted)
    results: dict[str, Any] = {
        "nu_frac": pair.nu_frac,
        "cover": pair.cover,
        "order": list(pair.order),
        "shifted": pair.shifted,
        "closure_verified": closure_ok,
    }
    if args.lift_s is not None:
        try:
            results["lifted_matching"] = lift_link_matching(pair, args.lift_s)
        except LiftFailure as exc:  # a link too small to lift is a reportable outcome
            results["lift_failure"] = str(exc)
    params = {"file": args.file, "limit": args.limit, "lift_s": args.lift_s}
    _emit(args, params, results, started)
    return 0


def _cmd_absorb(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    H = _load_h3(args.file)
    try:
        T = tuple(int(x) for x in args.t.split(","))
    except ValueError:
        return _usage(args, f"--t must be three comma-separated integers, got {args.t!r}")
    sets = absorbing_sets(H, T)
    params = {"file": args.file, "t": list(T)}
    _emit(args, params, {"count": len(sets), "sets": sets}, started)
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="linkspec", description=__doc__)
    parser.add_argument("--version", action="version", version=f"linkspec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p: _Parser, tol: bool = False, eps: bool = False, with_limit: bool = False) -> None:
        """The report options, and the numeric ones that the command's handler reads."""
        p.add_argument("-o", "--output", help="write the JSON report to FILE instead of stdout")
        p.add_argument("--no-timing", action="store_true", help="omit the timing field")
        if tol:
            p.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE,
                           help="bound on the certified error of each spectral radius")
        if eps:
            p.add_argument("--eps", type=float, default=DEFAULT_COMPARISON_SLACK,
                           help="comparison slack for strict inequalities")
        if with_limit:
            p.add_argument("--limit", type=_triple_limit, default=DEFAULT_TRIPLE_LIMIT,
                           help="C(n,3) guard for the exact LP; 0 disables the guard")

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("--family", required=True, choices=("h1", "h2", "complete", "random"))
    p.add_argument("--s", type=int)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--json", action="store_true", help="emit JSON instead of h3 text on stdout")
    p.add_argument("-o", "--output", help="output file (.json selects the JSON format)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("rho", help="link spectral radii of an instance")
    p.add_argument("file")
    p.add_argument("--vertex", type=int, help="restrict to one vertex")
    p.add_argument("--s", type=int, help="also report the matching threshold for this s")
    common(p, tol=True, eps=True)
    p.set_defaults(func=_cmd_rho)

    p = sub.add_parser("match", help="exact matching number with witness")
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="search-tree node cap")
    common(p)
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("fracmatch", help="exact fractional matching number with certificates")
    p.add_argument("file")
    common(p, with_limit=True)
    p.set_defaults(func=_cmd_fracmatch)

    p = sub.add_parser("check", help="check one theorem/conjecture on an instance")
    p.add_argument("file")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--mode", required=True, choices=("thm12", "thm13", "conj-matching", "conj-pm"))
    p.add_argument("--gamma", type=float, help="also report the (2/3+gamma)n condition")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--strict", action="store_true", help="exit 3 on a conjecture counterexample")
    common(p, tol=True, eps=True, with_limit=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("search", help="exhaustive or random counterexample search")
    p.add_argument("--space", required=True, choices=("exhaustive", "random"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--mode", required=True, choices=("thm12", "thm13", "conj-matching", "conj-pm"))
    p.add_argument("--p", type=float)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int, default=0,
                   help="worker processes for random search (0 = every CPU this process may use)")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--strict", action="store_true", help="exit 3 if a counterexample is found")
    common(p, eps=True)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("shift", help="fractional-cover shift with closure verification")
    p.add_argument("file")
    p.add_argument("--lift-s", type=int, help="also lift a link matching for this s")
    common(p, with_limit=True)
    p.set_defaults(func=_cmd_shift)

    p = sub.add_parser("absorb", help="absorbing sets for a triple")
    p.add_argument("file")
    p.add_argument("--t", required=True, help="the 3-set, e.g. 1,2,3")
    common(p)
    p.set_defaults(func=_cmd_absorb)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = argv
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"linkspec: error: {exc}", file=sys.stderr)
        return IO_ERROR
    except LpSizeError as exc:  # str(exc) names the library's override, limit=None
        print(f"linkspec: error: {exc.args[0]}; pass --limit 0 to override", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        print(f"linkspec: error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
