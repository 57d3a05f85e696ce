"""One benchmark run: build a workload from its seed, set it up, then run
set-ups, every selection mode and the oracle in cycles for a fixed number of
seconds, checking every output.

The untraced run reports the end-to-end metrics. The traced run reports the
per-layer metrics: it alternates untraced cycles with traced cycles of the
serial runs, so the difference between them is the tracing overhead.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import time
from pathlib import Path

import numpy as np

from divsel import data, oracle, runner
from divsel.errors import GuaranteeError
from divsel.greedy import GreedyVariant
from divsel.info import InfoCache
from divsel.objective import ObjectiveConfig

import checks
from tracing import Tracer, cycle_metrics, setup_metrics, tracing
from workloads import RawInput, Workload

LAMBDA = 0.5
TOP_P = 10
PARTITION_SEED = 0
# the oracle operation: approximation_report on the first ORACLE_FEATURES
# features, enumerating all C(ORACLE_FEATURES, ORACLE_K) subsets
ORACLE_FEATURES = 40
ORACLE_K = 5
ORACLE_MACHINES = 3
ORACLE_SEEDS = (0, 1, 2, 3, 4)
SETUP_REPS = 5
SAMPLE_S = 0.25
MAX_REPS = 200
SYMMETRY_PAIRS = 16

MODES = ("centralized", "distributed", "distributed_par", "streaming")
SERIAL_OPS = ("centralized", "distributed", "streaming", "oracle")
ALL_OPS = ("centralized", "distributed", "distributed_par", "streaming", "oracle")

END_TO_END_UNITS = {
    "setup_s": "s",
    "centralized_s": "s",
    "distributed_s": "s",
    "distributed_par_s": "s",
    "streaming_s": "s",
    "oracle_s": "s",
    "peak_rss_mb": "MB",
    "h_ratio": "ratio",
    "pass_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "data.load_s": "s",
    "data.discretize_s": "s",
    "data.columns": "count",
    "data.input_mb": "MB",
    "info.mi_table_s": "s",
    "info.rows_s": "s",
    "info.rows_computed": "count",
    "info.pair_evals": "count",
    "info.joint_cells": "count",
    "info.block_calls": "count",
    "info.row_hit_ratio": "ratio",
    "info.scalar_calls": "count",
    "objective.add_self_s": "s",
    "objective.eval_s": "s",
    "greedy.steps": "count",
    "greedy.candidates_scored": "count",
    "greedy.self_s": "s",
    "runner.partition_s": "s",
    "runner.map_s": "s",
    "runner.reduce_s": "s",
    "runner.union_size": "count",
    "runner.peak_retained_columns": "count",
    "runner.machine_imbalance": "ratio",
    "runner.map_speedup": "ratio",
    "runner.workers": "count",
    "oracle.subsets": "count",
    "oracle.enumerate_s": "s",
    "oracle.distance_matrix_s": "s",
    "oracle.subsets_per_s": "1/s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


def worker_count() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def build_dataset(w: Workload, raw: RawInput):
    """The timed set-up: raw input to a validated Dataset. Looks the loaders
    up on the module so a traced run sees them."""
    if raw.csv_path is not None:
        return data.load_dense_csv(raw.csv_path, w.labels, binning=data.BinningSpec(w.binning))
    return data.dataset_from_matrices(raw.feature_rows, raw.label_rows)


def oracle_instance(full):
    """The dataset the oracle operation enumerates, with its objective."""
    c = ORACLE_FEATURES
    sub = data.Dataset(
        full.features[:c], full.feature_names[:c], full.labels, full.label_names, full.n_instances
    )
    cfg = ObjectiveConfig.weighted(InfoCache(sub).mi_table(), ORACLE_K, LAMBDA, TOP_P)
    return sub, cfg


def run_mode(mode: str, dataset, k: int, m: int | None, workers: int):
    """One selection from a built dataset, with a fresh InfoCache and
    mi_table as the select command builds them."""
    cache = InfoCache(dataset)
    cfg = ObjectiveConfig.weighted(cache.mi_table(), k, LAMBDA, TOP_P)
    if mode == "centralized":
        report = runner.centralized_select(dataset, k, cfg, GreedyVariant.ALTGREEDY, cache)
    elif mode == "streaming":
        report = runner.streaming_select(dataset, k, cfg, m=m, seed=PARTITION_SEED)
    else:
        parallelism = workers if mode == "distributed_par" else 1
        report = runner.distributed_select(
            dataset, k, cfg, m=m, seed=PARTITION_SEED, parallelism=parallelism
        )
    return report, cfg


def run_oracle(sub, cfg):
    """approximation_report with its guarantees enforced; a GuaranteeError
    is returned as the problem it reports."""
    try:
        return oracle.approximation_report(
            sub, ORACLE_K, cfg, ORACLE_MACHINES, ORACLE_SEEDS, enforce=True
        ), None
    except GuaranteeError as exc:
        return None, str(exc)


class Run:
    """State of one benchmark run on one workload and seed. Input files are
    written to ``directory``."""

    def __init__(self, w: Workload, seed: int, directory: Path):
        self.w = w
        self.raw = w.generate(w, seed, directory)
        self.workers = worker_count()
        self.tally = checks.Tally()
        self.rng = np.random.default_rng(seed)
        self.outputs = {}
        self.samples = {op: [] for op in ("setup",) + ALL_OPS}
        self.reports = {}
        self.dataset = None
        self.check_cache = None
        self.oracle_sub = self.oracle_cfg = None

    def setup(self):
        """One timed set-up. Returns the dataset it built."""
        t0 = time.perf_counter()
        dataset = build_dataset(self.w, self.raw)
        self.samples["setup"].append(time.perf_counter() - t0)
        return dataset

    def prepare(self, dataset) -> None:
        """Check the dataset that every operation will use, and build the
        oracle's instance from it."""
        self.dataset = dataset
        self.tally.record("setup", checks.dataset_problems(dataset, self.w))
        self.oracle_sub, self.oracle_cfg = oracle_instance(dataset)

    def warm_up(self) -> None:
        """One untimed pass of every operation on the oracle's slice:
        imports, first calls and the fork pool."""
        for mode in MODES:
            run_mode(mode, self.oracle_sub, ORACLE_K, ORACLE_MACHINES, self.workers)
        run_oracle(self.oracle_sub, self.oracle_cfg)

    def op(self, name: str, tracer: Tracer | None = None) -> float:
        """Run one timed operation, then check its output untimed."""
        if tracer is None:
            t0 = time.perf_counter()
            result = self._execute(name)
            elapsed = time.perf_counter() - t0
        else:
            with tracing(tracer), tracer.span("op." + name):
                t0 = time.perf_counter()
                result = self._execute(name)
                elapsed = time.perf_counter() - t0
        self.tally.record(name, self.check(name, result))
        return elapsed

    def check(self, name: str, result) -> list:
        """Problems with one operation's output, a (report, detail) pair.
        Every output is checked in full, and must equal the operation's first
        output, because every operation is deterministic."""
        report, detail = result
        if report is None:
            return [detail]
        text = checks.oracle_text(report) if name == "oracle" else checks.canonical(report)
        first = self.outputs.setdefault(name, text)
        problems = checks.same_problems(text, first, f"{name} output and its first output")
        problems += self._full_check(name, report, detail)
        self.reports[name] = report
        return problems + self._agreement(name, report)

    def _full_check(self, name: str, report, cfg) -> list:
        w = self.w
        if name == "oracle":
            return checks.oracle_problems(report, ORACLE_K, self.oracle_sub.n_features)
        if self.check_cache is None:
            self.check_cache = InfoCache(self.dataset)
        problems = checks.mode_problems(report, self.dataset, cfg, w.k, self.check_cache)
        if name == "centralized":
            pairs = checks.symmetry_pairs(self.rng, self.dataset.n_features, SYMMETRY_PAIRS)
            problems += checks.symmetry_problems(self.dataset, pairs)
        return problems

    def _execute(self, name: str):
        if name == "oracle":
            return run_oracle(self.oracle_sub, self.oracle_cfg)
        w = self.w
        return run_mode(name, self.dataset, w.k, w.machines, self.workers)

    def _agreement(self, name: str, report) -> list:
        serial = self.reports.get("distributed")
        if serial is None:
            return []
        if name == "streaming":
            return checks.same_problems(
                checks.selection_text(report), checks.selection_text(serial), "streaming and distributed ids"
            )
        if name == "distributed_par":
            return checks.same_problems(
                checks.canonical(report), checks.canonical(serial), "parallel and serial reports"
            )
        return []

    def h_ratio(self) -> float:
        return self.reports["distributed"].objective["h"] / self.reports["centralized"].objective["h"]


def peak_rss_mb() -> float:
    """Largest resident set of this process and of any waited-for child
    (ru_maxrss is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _repeats(first_s: float) -> int:
    return min(MAX_REPS, max(1, math.ceil(SAMPLE_S / first_s)))


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(w: Workload, seed: int, seconds: float, directory: Path) -> Run:
    """Untraced measurement in this process.

    Set-ups are timed in every cycle, beside the operations, so that all
    timings sample the same stretch of machine load. The operations use the
    dataset of the first set-up; later ones are timed and dropped. No cycle
    starts that would end after ``seconds``, but at least one runs.
    """
    run = Run(w, seed, directory)
    run.prepare(run.setup())
    run.warm_up()
    # a step shorter than SAMPLE_S repeats to fill SAMPLE_S of each cycle;
    # set-up is sized by the first set-up, operations by their first cycle
    reps = dict.fromkeys(ALL_OPS, 1)
    reps["setup"] = _repeats(run.samples["setup"][0])
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        for _ in range(reps["setup"]):
            run.setup()
        for name in ALL_OPS:
            run.samples[name] += [run.op(name) for _ in range(reps[name])]
        reps = {name: _repeats(values[0]) for name, values in run.samples.items()}
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return run


def summary(run: Run) -> dict:
    """What one measuring process reports to the process that started it:
    per-operation counts and the first output of every operation, so that
    the outputs of the processes can be compared."""
    return {
        "medians": {name: _median(values) for name, values in run.samples.items()},
        "samples": {name: len(values) for name, values in run.samples.items()},
        "attempted": dict(run.tally.attempted_by),
        "failed": dict(run.tally.failed_by),
        "problems": run.tally.problems,
        "outputs": run.outputs,
        "h_ratio": run.h_ratio(),
        "peak_rss_mb": peak_rss_mb(),
        "input_bytes": run.raw.nbytes,
        "workers": run.workers,
    }


def combine(summaries: list) -> tuple:
    """End-to-end metrics from the summaries of several measuring processes.
    Returns (metrics, attempted, failed, problems).

    A time is the mean over processes of each process's median: the speed
    of one process can sit in one of two modes for its whole life, so the
    mean over processes is steadier than any statistic of one process. The
    peak resident set is the median over processes of each one's peak, so
    that one process's occasional excursion does not set it.
    Every operation is deterministic, so when a process's first output of
    an operation differs from the first process's, every run of that
    operation in that process failed.
    """
    reference = summaries[0]["outputs"]
    attempted, failed, problems = 0, 0, []
    for number, s in enumerate(summaries, 1):
        failed_by = dict(s["failed"])
        for name, text in s["outputs"].items():
            if text != reference.get(name):
                failed_by[name] = s["attempted"][name]
                problems.append(f"{name}: output of measuring process {number} differs from process 1's")
        attempted += sum(s["attempted"].values())
        failed += sum(failed_by.values())
        problems += s["problems"]
    metrics = {
        **{
            f"{op}_s": statistics.mean(s["medians"][op] for s in summaries)
            for op in ("setup",) + ALL_OPS
        },
        "peak_rss_mb": _median(s["peak_rss_mb"] for s in summaries),
        "h_ratio": summaries[0]["h_ratio"],
        "pass_ratio": 1.0 - failed / attempted,
    }
    return metrics, attempted, failed, problems


def traced(w: Workload, seed: int, seconds: float, directory: Path) -> tuple:
    """Traced run. Returns (metrics, run, tracer)."""
    run = Run(w, seed, directory)
    tracer = Tracer()
    setup_rows = []
    for _ in range(SETUP_REPS):
        lo = len(tracer.spans)
        with tracing(tracer), tracer.span("setup"):
            dataset = run.setup()
        setup_rows.append(setup_metrics(tracer.spans, lo, len(tracer.spans)))
    run.prepare(dataset)
    run.warm_up()
    plain_s, traced_s, cycle_rows = [], [], []
    serial_map, parallel_map, phases = [], [], []
    pair = 0
    deadline = time.perf_counter() + seconds
    while True:
        for traced_cycle in ((False, True) if pair % 2 == 0 else (True, False)):
            if traced_cycle:
                lo = len(tracer.spans)
                traced_s.append(sum(run.op(name, tracer) for name in SERIAL_OPS))
                cycle_rows.append(cycle_metrics(tracer.spans, lo, len(tracer.spans)))
                cycle_rows[-1]["runner.peak_retained_columns"] = run.reports[
                    "streaming"
                ].peak_retained_feature_columns
            else:
                for name in SERIAL_OPS + ("distributed_par",):
                    run.samples[name].append(run.op(name))
                plain_s.append(sum(run.samples[name][-1] for name in SERIAL_OPS))
                timings = run.reports["distributed"].timings_ms
                phases.append([timings[p] / 1000.0 for p in ("partition", "map", "reduce")])
                serial_map.append(timings["map"])
                parallel_map.append(run.reports["distributed_par"].timings_ms["map"])
        pair += 1
        if time.perf_counter() >= deadline:
            break
    metrics = {}
    # counts repeat exactly in every cycle, so they come from the first one
    for rows in (setup_rows, cycle_rows):
        for key in rows[0]:
            values = [r[key] for r in rows]
            metrics[key] = values[0] if PER_LAYER_UNITS[key] == "count" else _median(values)
    metrics["data.input_mb"] = run.raw.nbytes / 2**20
    for i, phase in enumerate(("partition", "map", "reduce")):
        metrics[f"runner.{phase}_s"] = _median([p[i] for p in phases])
    metrics["runner.map_speedup"] = _median(serial_map) / _median(parallel_map)
    metrics["runner.workers"] = run.workers
    overhead = _median(traced_s) - _median(plain_s)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_share"] = overhead / _median(plain_s)
    return metrics, run, tracer
