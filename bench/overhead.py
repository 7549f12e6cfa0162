"""Tracing overhead of one workload: its end-to-end metrics traced minus untraced.

    python3 bench/overhead.py --workload sweep --seed 1 --seconds 20 --pairs 3

Runs bench/run.py untraced and traced on seeds seed, seed+1, ... (one pair
per seed, alternating which side runs first, since the machine's speed
drifts), reads each run's end-to-end figures from bench/results/, and
prints the medians of both sides and their difference.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    result = BENCH / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(result.read_text())["end_to_end"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--pairs", type=int, default=3)
    args = parser.parse_args()
    figures: dict[int, list[dict]] = {0: [], 1: []}
    for p in range(args.pairs):
        for trace in (0, 1) if p % 2 == 0 else (1, 0):
            figures[trace].append(_run(args.workload, args.seed + p, args.seconds, trace))
    for name in figures[0][0]:
        untraced = statistics.median(f[name] for f in figures[0])
        traced = statistics.median(f[name] for f in figures[1])
        print(f"{args.workload} {name}: untraced {untraced:.4g}, traced {traced:.4g}, "
              f"traced - untraced {traced - untraced:+.4g} ({(traced - untraced) / untraced:+.1%}), "
              f"medians of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
