"""The benchmark's four workloads.

A workload builds its seeded inputs when it is constructed (the set-up),
then offers one round of operations.  The runner repeats whole rounds and
times each operation's `run`; untimed, it turns the result into an output
with `collect` and hands it to `check` at once, so no output is kept.
Checks that need scipy wait for `finish`, after peak memory is read.
Program calls go through module attributes (``harness.shift``,
``cli.main``) so that a traced run sees them.
"""

from __future__ import annotations

import json
import os
import statistics
from fractions import Fraction
from pathlib import Path
from typing import Any

import numpy as np

import checks
from linkspec import cli, constructions, fileio, harness, lp, matching


class OpFailed(Exception):
    """An operation ended without an output to check (for example a non-zero exit)."""


class Workload:
    name = ""
    ops: tuple[str, ...] = ()  # labels of one round's operations
    workers = 0  # child processes alive at once at most

    def run(self, i: int) -> Any:
        raise NotImplementedError

    def collect(self, i: int, result: Any) -> Any:
        return result

    def check(self, i: int, output: Any) -> None:
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Deferred checks; one message per output that fails them."""
        return []

    def instances_per_s(self, rounds: list[list[float]]) -> float:
        """Instances one process carries per second: the inverse of the median operation's wall time."""
        return 1.0 / statistics.median(t for times in rounds for t in times)

    def extra(self, rounds: list[list[float]]) -> dict[str, float]:
        """Figures printed for reading only, not gated."""
        return {}


class _CliWorkload(Workload):
    """Operations that are one in-process `linkspec` command writing a JSON report."""

    def __init__(self, tmp: Path):
        self.tmp = tmp

    def write_instances(self, command: str, n: int, p: float, stream: int, ks: range) -> None:
        """One instance file per k of a random_3graph stream; the edges stay as a compact array."""
        self.files: list[str] = []
        self.edges: list[np.ndarray] = []
        for k in ks:
            H = constructions.random_3graph(n, p, harness.instance_seed(stream, k)).hypergraph
            path = self.tmp / f"{command}{k}.h3"
            fileio.save_instance(H, path)
            self.files.append(str(path))
            self.edges.append(np.array(H.edges, dtype=np.int16))
        self.ops = tuple(f"{command} {Path(f).name}" for f in self.files)

    def argv(self, i: int) -> list[str]:
        raise NotImplementedError

    def run(self, i: int) -> int:
        return cli.main(self.argv(i) + ["--no-timing", "-o", str(self.tmp / "report.json")])

    def collect(self, i: int, result: int) -> dict:
        if result != 0:
            raise OpFailed(f"{' '.join(self.argv(i))} exited with {result}")
        path = self.tmp / "report.json"
        report = json.loads(path.read_text())
        path.unlink()
        return report["results"]


# ---------------------------------------------------------------------------


SWEEP_STREAMS = tuple(  # (s, n, p, stream seed): the acceptance sweep's six streams
    (s, n, p, 20260825 + i)
    for i, ((s, n), p) in enumerate(((s, n), p) for (s, n) in ((1, 9), (2, 9), (2, 12)) for p in (0.5, 0.8))
)
SWEEP_PREFIX = 10_000  # the acceptance sweep checks this prefix of every stream
SWEEP_WINDOW = 50  # instances per stream in one round


class Sweep(Workload):
    """A seed-chosen window of each acceptance sweep stream through the full pipeline.

    Per instance: verify_theorem in thm13 mode; when the condition holds,
    the perfect-fractional check at n = 3s+3, then shift, the closure scan
    and the link-matching lift.
    """

    name = "sweep"

    def __init__(self, seed: int, tmp: Path):
        first = seed % (SWEEP_PREFIX // SWEEP_WINDOW) * SWEEP_WINDOW
        self.instances = [
            (s, constructions.random_3graph(n, p, harness.instance_seed(stream, k)).hypergraph)
            for s, n, p, stream in SWEEP_STREAMS
            for k in range(first, first + SWEEP_WINDOW)
        ]
        self.ops = tuple(f"instance {i}" for i in range(len(self.instances)))
        self._radii: dict[int, np.ndarray] = {}

    def run(self, i: int) -> tuple:
        s, H = self.instances[i]
        rep = harness.verify_theorem(H, s, "thm13")
        if rep.condition != "holds":
            return rep, None, None, None, None
        pfm = None
        if H.n == 3 * s + 3:
            witness, _ = matching.find_matching_of_size(H, H.n // 3)
            pfm = witness if witness is not None else lp.fractional_matching(H)
        P = harness.shift(H)
        closed = harness.shift_closure_holds(P.shifted)
        M = harness.lift_link_matching(P, s)
        return rep, pfm, P, closed, M

    def check(self, i: int, output: tuple) -> None:
        s, H = self.instances[i]
        rep, pfm, P, closed, M = output
        if i not in self._radii:
            self._radii[i] = checks.link_radii(H.n, H.edges)
        checks.check_spectra(H.n, s, self._radii[i], rep.per_vertex_rho, rep.min_rho, rep.threshold, rep.condition)
        if rep.condition != "holds":
            return
        edges = set(H.edges)
        _check_thm13_witness(H.n, edges, s, rep)
        if H.n == 3 * s + 3:
            if hasattr(pfm, "primal"):
                value = checks.check_duality(H.n, edges, pfm.primal.weights, pfm.dual.weights)
                if value != Fraction(H.n, 3):
                    raise checks.CheckError(f"nu* = {value}, no perfect fractional matching")
            else:
                checks.check_matching(edges.__contains__, pfm.edges, H.n // 3)
        if closed is not True:
            raise checks.CheckError("the closure scan rejected the shifted hypergraph")
        checks.check_shift(H.n, H.edges, P.cover.weights, P.nu_frac, P.order, P.shifted.edges, M.edges, s)

    def instances_per_s(self, rounds: list[list[float]]) -> float:
        # instance costs differ widely, so rate over whole rounds, median over rounds
        return statistics.median(len(times) / sum(times) for times in rounds)


def _check_thm13_witness(n: int, edges: set, s: int, rep: Any) -> None:
    """Theorem 1.3's conclusion nu* >= s+1: s+1 disjoint edges or an exact LP pair."""
    if rep.verdict != "consistent":
        raise checks.CheckError(f"verdict {rep.verdict!r} on a condition-holding instance")
    w = rep.witness
    if hasattr(w, "primal"):
        value = checks.check_duality(n, edges, w.primal.weights, w.dual.weights)
        if value < s + 1:
            raise checks.CheckError(f"certified nu* = {value} < s+1")
    else:
        checks.check_matching(edges.__contains__, w.edges, s + 1)


# ---------------------------------------------------------------------------


CHECK_N, CHECK_P, CHECK_S = 100, 0.7, 1
CHECK_STREAM = 20260925  # criterion 5's stream
CHECK_PREFIX = 200  # criterion 5 checks this prefix
CHECK_FILES = 2  # instance files, one `check` each per round


class CheckN100(_CliWorkload):
    """`linkspec check FILE --s 1 --mode thm12` on criterion-5 instances at n = 100."""

    name = "check_n100"

    def __init__(self, seed: int, tmp: Path):
        super().__init__(tmp)
        first = seed % (CHECK_PREFIX // CHECK_FILES) * CHECK_FILES
        self.write_instances("check", CHECK_N, CHECK_P, CHECK_STREAM, range(first, first + CHECK_FILES))
        self._radii: dict[int, np.ndarray] = {}

    def argv(self, i: int) -> list[str]:
        return ["check", self.files[i], "--s", str(CHECK_S), "--mode", "thm12"]

    def check(self, i: int, output: dict) -> None:
        rep = output["report"]
        if i not in self._radii:
            self._radii[i] = checks.link_radii(CHECK_N, self.edges[i])
        checks.check_spectra(
            CHECK_N, CHECK_S, self._radii[i],
            rep["per_vertex_rho"], rep["min_rho"], rep["threshold"], rep["condition"],
        )
        if rep["condition"] == "holds":
            if rep["verdict"] != "consistent":
                raise checks.CheckError(f"verdict {rep['verdict']!r} on a condition-holding instance")
            E = self.edges[i]  # an array, not a set: a set of 113k triples would add to peak memory
            checks.check_matching(lambda t: bool((E == t).all(axis=1).any()), rep["witness"]["edges"], CHECK_S + 1)

    def extra(self, rounds: list[list[float]]) -> dict[str, float]:
        return {"check_s": 1.0 / self.instances_per_s(rounds)}


# ---------------------------------------------------------------------------


PM_N, PM_S, PM_P = 12, 3, 0.8  # n = 3s+3: the perfect-matching statement
PM_SAMPLES = 400


class SearchPM(_CliWorkload):
    """`linkspec search --space random --mode conj-pm` at one worker and at nproc workers."""

    name = "search_pm"

    def __init__(self, seed: int, tmp: Path):
        super().__init__(tmp)
        self.seed = seed
        self.workers = len(os.sched_getaffinity(0))
        self.ops = ("search --threads 1", f"search --threads {self.workers}")
        self._expected: dict | None = None
        self._serial_counts: dict | None = None

    def argv(self, i: int) -> list[str]:
        return [
            "search", "--space", "random", "--mode", "conj-pm", "--n", str(PM_N), "--s", str(PM_S),
            "--p", str(PM_P), "--samples", str(PM_SAMPLES), "--seed", str(self.seed),
            "--threads", "1" if i == 0 else str(self.workers),
        ]

    def check(self, i: int, output: dict) -> None:
        if self._expected is None:
            instances = (
                (PM_N, constructions.random_3graph(PM_N, PM_P, harness.instance_seed(self.seed, k)).hypergraph.edges)
                for k in range(PM_SAMPLES)
            )
            self._expected = checks.search_expectations(instances, PM_S)
        counts = output["counts"]
        checks.check_search_counts(counts, self._expected)
        if i == 0:
            self._serial_counts = counts
        elif self._serial_counts is not None:
            checks.check_same_counts(self._serial_counts, counts)

    def instances_per_s(self, rounds: list[list[float]]) -> float:
        return statistics.median(PM_SAMPLES / times[0] for times in rounds)

    def extra(self, rounds: list[list[float]]) -> dict[str, float]:
        return {"instances_per_s_parallel": statistics.median(PM_SAMPLES / times[1] for times in rounds)}


# ---------------------------------------------------------------------------


SHIFT_N, SHIFT_P, SHIFT_LIFT_S = 32, 0.5, 3  # about 2.5k LP columns, C(32,3) = 4960 triples
SHIFT_STREAM = 20261025
SHIFT_FILES = 6


class ShiftLarge(_CliWorkload):
    """`linkspec shift FILE --limit 0 --lift-s 3` on seeded random 3-graphs at n = 32."""

    name = "shift_large"

    def __init__(self, seed: int, tmp: Path):
        super().__init__(tmp)
        ks = range(seed * SHIFT_FILES, (seed + 1) * SHIFT_FILES)
        self.write_instances("shift", SHIFT_N, SHIFT_P, SHIFT_STREAM, ks)
        self._nu_fracs: list[tuple[int, Fraction]] = []  # compared with HiGHS in finish()

    def argv(self, i: int) -> list[str]:
        return ["shift", self.files[i], "--limit", "0", "--lift-s", str(SHIFT_LIFT_S)]

    def check(self, i: int, output: dict) -> None:
        nu_frac = Fraction(output["nu_frac"])
        if output["closure_verified"] is not True:
            raise checks.CheckError("the closure scan rejected the shifted hypergraph")
        if "lifted_matching" not in output:
            raise checks.CheckError(f"lift failed: {output.get('lift_failure')}")
        cover = {int(v): Fraction(w) for v, w in output["cover"]["weights"]}
        checks.check_shift(
            SHIFT_N, self.edges[i], cover, nu_frac, output["order"], output["shifted"]["edges"],
            output["lifted_matching"]["edges"], SHIFT_LIFT_S,
        )
        self._nu_fracs.append((i, nu_frac))

    def finish(self) -> list[str]:
        reference = {i: checks.lp_value(SHIFT_N, self.edges[i]) for i in {i for i, _ in self._nu_fracs}}
        messages = []
        for i, nu_frac in self._nu_fracs:
            try:
                checks.check_nu_frac(nu_frac, reference[i])
            except checks.CheckError as exc:
                messages.append(f"{self.ops[i]}: {exc}")
        return messages

    def extra(self, rounds: list[list[float]]) -> dict[str, float]:
        return {"shift_s": 1.0 / self.instances_per_s(rounds)}


WORKLOADS = {w.name: w for w in (Sweep, CheckN100, SearchPM, ShiftLarge)}
