"""Run one linkspec benchmark workload and print its metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Builds the workload's seeded inputs (the set-up), repeats whole rounds of
its operations until they have taken --seconds, checks every output against
an independent computation, and prints as the last line of standard output
one JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 every program
layer is wrapped and the metrics are the per-layer ones (see tracing.py).
Results and spans go to bench/results/.
"""

import time

STARTED = time.perf_counter()  # set-up is timed from here, before any other import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("sweep", "check_n100", "search_pm", "shift_large")
END_TO_END = (  # (name, unit)
    ("setup_s", "s"),
    ("instances_per_s", "instances/s"),
    ("peak_rss_mb", "MiB"),
)


def _peak_rss_mb(workers: int) -> float:
    """Peak resident memory of this process plus `workers` times its largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "linkspec" / "__init__.py").is_file():
        print(f"run.py: no linkspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    from workloads import WORKLOADS, OpFailed

    recorder = tracing.Recorder() if args.trace else None
    tmp = BENCH / "tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True)
    rounds: list[list[float]] = []
    attempted = failed = 0
    correct = True
    try:
        with tracing.installed(recorder):
            workload = WORKLOADS[args.workload](args.seed, tmp)
            setup_s = time.perf_counter() - STARTED
            while not rounds or sum(map(sum, rounds)) < args.seconds:
                times = []
                for i in range(len(workload.ops)):
                    attempted += 1
                    if recorder is not None:
                        recorder.op = attempted - 1
                    t0 = time.perf_counter()
                    try:
                        result = workload.run(i)
                    except Exception:
                        times.append(time.perf_counter() - t0)
                        failed += 1
                        print(f"{workload.ops[i]} raised:\n{traceback.format_exc()}", file=sys.stderr)
                        continue
                    times.append(time.perf_counter() - t0)
                    try:
                        with tracing.paused(recorder):
                            workload.check(i, workload.collect(i, result))
                    except OpFailed as exc:
                        failed += 1
                        print(f"{workload.ops[i]} failed: {exc}", file=sys.stderr)
                    except Exception as exc:  # a wrong output, or one the check could not read
                        failed += 1
                        correct = False
                        print(f"{workload.ops[i]}: output check failed: {exc!r}", file=sys.stderr)
                rounds.append(times)
        peak_rss_mb = _peak_rss_mb(workload.workers)
        for message in workload.finish():
            failed += 1
            correct = False
            print(f"output check failed: {message}", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    end_to_end = {
        "setup_s": setup_s,
        "instances_per_s": workload.instances_per_s(rounds),
        "peak_rss_mb": peak_rss_mb,
    }
    units = dict(END_TO_END)
    if recorder is None:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in end_to_end.items()}
    else:
        per_layer = recorder.metrics()
        metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit, _ in tracing.metric_specs()}
    extra = workload.extra(rounds)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "ops_per_round": len(workload.ops),
        "end_to_end": end_to_end,
        "extra": extra,
    }
    out = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {**summary, **out, "op_seconds": rounds}
    (results_dir / f"{stem}.json").write_text(json.dumps(record) + "\n")
    if recorder is not None:
        recorder.write_spans(results_dir / f"{args.workload}-seed{args.seed}-spans.jsonl")
    print(json.dumps(summary))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
