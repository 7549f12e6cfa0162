"""Span recorder and per-layer wrappers for a traced benchmark run.

Each layer is one public linkspec function.  While a Recorder is installed,
the function is replaced in every linkspec module namespace that holds it
(for example ``linkspec.harness.spectral_radius`` and
``linkspec.cli.spectral_radius``), so calls between modules pass through
the wrapper too.  A span records the layer name, start, end, parent span
and the operation it belongs to (-1 during set-up).  Spans stay in memory
and are written out when the run ends.

Self time is a span's duration minus the durations of its direct child
spans.  Worker processes forked by a parallel search skip the wrapper, so
the pool is seen only through the ``harness.search_random`` span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from math import comb
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

#: (call's bound arguments on demand, return value, wall seconds) -> increments of the layer's counts
Counter = Callable[[Callable[[], inspect.BoundArguments], Any, float], dict[str, float]]


@dataclass(frozen=True)
class Layer:
    module: str  # defining module, e.g. "spectral" for linkspec.spectral
    func: str
    counts: tuple[tuple[str, str, str], ...] = ()  # (name, unit, better) beyond calls and self_s
    count: Counter | None = None

    @property
    def key(self) -> str:
        return f"{self.module}.{self.func}"


def _conditions(bind: Callable, result: Any, seconds: float) -> dict[str, float]:
    return {result.condition: 1}


def _rows_columns(bind: Callable, result: Any, seconds: float) -> dict[str, float]:
    H = bind().arguments["H"]
    return {"columns": H.m, "rows": len({v for e in H.edges for v in e})}


def _closure_bytes(bind: Callable, result: Any, seconds: float) -> dict[str, float]:
    # one m x C(n,3) boolean intermediate of the dominance scan, computed from sizes
    shifted = bind().arguments["shifted"]
    return {"bytes_computed": shifted.m * comb(shifted.n, 3)}


def _search_wall(bind: Callable, result: Any, seconds: float) -> dict[str, float]:
    workers = bind().arguments.get("threads", 1)
    if workers <= 1:
        return {"wall_s_serial": seconds}
    return {"wall_s_parallel": seconds, "workers": workers}


_CONDITION_COUNTS = (
    ("holds", "count", "higher"),
    ("fails", "count", "higher"),
    ("indeterminate", "count", "lower"),
)

LAYERS: tuple[Layer, ...] = (
    Layer("constructions", "random_3graph"),
    Layer("fileio", "load_instance", (("bytes", "bytes", "lower"),),
          lambda bind, r, t: {"bytes": os.path.getsize(bind().arguments["path"])}),
    Layer("graphs", "link_graph"),
    Layer("spectral", "spectral_radius",
          (("iterations", "count", "lower"), ("nonconverged", "count", "lower")),
          lambda bind, r, t: {"iterations": r.iterations, "nonconverged": int(not r.converged)}),
    Layer("harness", "check_condition", _CONDITION_COUNTS, _conditions),
    Layer("harness", "verify_theorem", _CONDITION_COUNTS, _conditions),
    Layer("matching", "max_matching_3graph", (("nodes", "count", "lower"),),
          lambda bind, r, t: {"nodes": r.nodes}),
    Layer("matching", "max_matching_graph"),
    Layer("lp", "fractional_matching", (("columns", "count", "lower"), ("rows", "count", "lower")), _rows_columns),
    Layer("harness", "shift"),
    Layer("harness", "shift_closure_holds", (("bytes_computed", "bytes", "lower"),), _closure_bytes),
    Layer("harness", "lift_link_matching"),
    Layer("harness", "search_random",
          (("wall_s_serial", "s", "lower"), ("wall_s_parallel", "s", "lower"),
           ("workers", "count", "higher"), ("scaling_efficiency", "ratio", "higher")),
          _search_wall),
    Layer("cli", "main"),
)


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer.key}.calls", "count", "lower"))
        out.append((f"{layer.key}.self_s", "s", "lower"))
        out.extend((f"{layer.key}.{name}", unit, better) for name, unit, better in layer.counts)
    return out


class Recorder:
    """Spans and per-layer totals of one traced run, in this process only."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.op = -1
        self.paused = False  # the benchmark's own checks call linkspec too
        self.spans: list[tuple | None] = []  # (name, start, end, parent index, op); None while open
        self._stack: list[int] = []
        self._child: list[float] = []
        self.totals: dict[str, defaultdict[str, float]] = {l.key: defaultdict(int) for l in LAYERS}

    def wrap(self, layer: Layer, fn: Callable) -> Callable:
        signature = inspect.signature(fn)
        totals = self.totals[layer.key]

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if self.paused or os.getpid() != self.pid:  # paused, or a forked pool worker
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            op = self.op
            self.spans.append(None)
            self._child.append(0.0)
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                # a tuple of plain values, which the garbage collector stops tracking
                self.spans[idx] = (layer.key, start, end, parent, op)
                if parent is not None:
                    self._child[parent] += end - start
                totals["calls"] += 1
                totals["self_s"] += end - start - self._child[idx]
            if layer.count is not None:
                bind = lambda: signature.bind(*args, **kwargs)  # noqa: E731
                for name, value in layer.count(bind, result, end - start).items():
                    if name == "workers":  # a pool size, not a sum
                        totals[name] = max(totals[name], value)
                    else:
                        totals[name] += value
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        search = self.totals["harness.search_random"]
        if search["wall_s_parallel"] > 0:
            parallel = search["workers"] * search["wall_s_parallel"]
            search["scaling_efficiency"] = search["wall_s_serial"] / parallel
        out = {}
        for layer in LAYERS:
            totals = self.totals[layer.key]
            for name in ("calls", "self_s", *(c[0] for c in layer.counts)):
                out[f"{layer.key}.{name}"] = totals.get(name, 0)
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")


@contextmanager
def installed(recorder: Recorder | None) -> Iterator[None]:
    """Route every layer call through `recorder` until the block ends."""
    if recorder is None:
        yield
        return
    replaced = []
    try:
        for layer in LAYERS:
            fn = getattr(importlib.import_module(f"linkspec.{layer.module}"), layer.func)
            wrapped = recorder.wrap(layer, fn)
            for name, module in list(sys.modules.items()):
                if (name == "linkspec" or name.startswith("linkspec.")) and vars(module).get(layer.func) is fn:
                    setattr(module, layer.func, wrapped)
                    replaced.append((module, layer.func, fn))
        yield
    finally:
        for module, func, fn in reversed(replaced):
            setattr(module, func, fn)


@contextmanager
def paused(recorder: Recorder | None) -> Iterator[None]:
    """Let layer calls bypass `recorder` until the block ends."""
    if recorder is None:
        yield
        return
    recorder.paused = True
    try:
        yield
    finally:
        recorder.paused = False
