"""divsel benchmark entry point.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload wide-lowcard --seed 1 --seconds 50 --trace 0

Builds the workload's input from the seed, times set-up and every selection
mode, checks every output, prints a table, and prints as its last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. The measuring is split over
PROCESSES fresh processes started one after another, each given an equal
share of ``--seconds``, because one process's speed can sit in one of two
modes for its whole life. Every process checks every output in full, and
the later ones must reproduce the first one's outputs byte for byte.
``--process`` marks such a measuring process: it prints its own summary.
Input files are written to a temporary directory under ``.bench_out/`` and
removed when the process ends.

``--trace 1`` reports the per-layer metrics from one process and writes the
spans to ``.bench_out/trace-<workload>-<seed>.jsonl``.

Exits non-zero without a result when the program's source is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import _env

PROCESSES = 4
TIME_LIMIT_S = 170


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--process", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _summary_text(values) -> str:
    """Sample count, median, and the highest whole percentile with at least
    ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"{n} samples, median {statistics.median(ordered):.6g} s"
    if n > 10:
        pct = math.floor(100 * (n - 10) / n)
        text += f", p{pct} {ordered[math.ceil(pct * n / 100) - 1]:.6g} s"
    return text


def _describe(w, input_bytes: int, workers: int, seed: int) -> None:
    print(
        f"workload {w.name}: {w.features} features x {w.instances} instances, "
        f"{w.labels} labels, cardinality {w.cardinality or 'continuous'}, "
        f"binning {w.binning or 'n/a'}, input {input_bytes} bytes, k={w.k}, "
        f"workers {workers}, seed {seed}"
    )


def _print_metrics(metrics: dict, units: dict, attempted: int, failed: int, problems: list) -> None:
    for name, unit in units.items():
        print(f"  {name:30s} {metrics[name]:>16.6g} {unit}")
    print(f"  {'fail_ratio':30s} {failed / attempted:>16.6g} ratio")
    for problem in problems:
        print(f"  FAILED {problem}")


def _measure_in_processes(args) -> list:
    """Run PROCESSES measuring processes one after another; return their
    summaries. Each is waited for, and killed if it outlives the limit."""
    deadline = time.monotonic() + TIME_LIMIT_S
    summaries = []
    for _ in range(PROCESSES):
        argv = [
            sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds / PROCESSES), "--trace", "0", "--process",
        ]
        out = subprocess.run(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if out.returncode != 0:
            raise SystemExit(f"error: measuring process exited with status {out.returncode}")
        summaries.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return summaries


def main(argv=None) -> int:
    args = _parse(argv)
    _env.prepare()
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    out_dir = _env.ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    if args.process:
        with tempfile.TemporaryDirectory(dir=out_dir) as directory:
            run = harness.end_to_end(w, args.seed, args.seconds, Path(directory))
            print(json.dumps(harness.summary(run)))
        return 0
    if args.trace:
        with tempfile.TemporaryDirectory(dir=out_dir) as directory:
            metrics, run, tracer = harness.traced(w, args.seed, args.seconds, Path(directory))
            input_bytes = run.raw.nbytes
        units = harness.PER_LAYER_UNITS
        path = out_dir / f"trace-{w.name}-{args.seed}.jsonl"
        tracer.write(path)
        print(f"{len(tracer.spans)} spans written to {path.relative_to(_env.ROOT)}")
        _describe(w, input_bytes, run.workers, args.seed)
        for name, values in run.samples.items():
            print(f"  {name}: {_summary_text(values)}")
        attempted, failed, problems = run.tally.attempted, run.tally.failed, run.tally.problems
    else:
        summaries = _measure_in_processes(args)
        metrics, attempted, failed, problems = harness.combine(summaries)
        units = harness.END_TO_END_UNITS
        _describe(w, summaries[0]["input_bytes"], summaries[0]["workers"], args.seed)
        for name in summaries[0]["medians"]:
            medians = ", ".join(f"{s['medians'][name]:.6g}" for s in summaries)
            count = sum(s["samples"][name] for s in summaries)
            print(f"  {name}: {count} samples; median per process {medians} s")
    _print_metrics(metrics, units, attempted, failed, problems)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
