"""Spans around the program's public layer entry points.

While ``tracing(tracer)`` is active, each entry point below is replaced,
where its callers look it up, by a wrapper that records a span: name,
start, end, parent span and a few counts. ``InfoCache`` calls the
module-global ``info.nvi_distance_rows``; the runner and the oracle call
``greedy_select`` and ``distributed_select`` through their own imports;
methods are looked up on their classes. The program itself is not changed.
Spans from forked workers do not come back, so only serial runs are traced.

Spans stay in memory and are written out when the run ends. A span's self
time is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from divsel import data, greedy, info, objective, oracle, runner


class Tracer:
    """In-memory span log. A span is ``[name, start, end, parent, counts]``
    with ``parent`` the index of the enclosing span, or -1."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, {}])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, counts=None):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counts is not None:
                self.spans[idx][4].update(counts(args, result))
            return result

        return traced

    def count_into_open_span(self, key: str, fn, amount):
        """Wrap ``fn`` without a span: add ``amount(args)`` to ``key`` of the
        innermost open span."""

        def counted(*args, **kwargs):
            if self._stack:
                found = self.spans[self._stack[-1]][4]
                found[key] = found.get(key, 0) + amount(args)
            return fn(*args, **kwargs)

        return counted

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, counts in self.spans:
                fh.write(json.dumps([name, start, end, parent, counts]) + "\n")


def _row_counts(args, _result) -> dict:
    # nvi_distance_rows(t_codes, t_card, h_target, mat, cards, h_rows)
    rows = int(args[3].shape[0])
    return {"rows": rows, "cells": rows * int(args[1]) * int(np.max(args[4]))}


def _candidate_count(args, _result) -> dict:
    return {"candidates": len(args[0])}


def _subset_count(_args, result) -> dict:
    return {"subsets": int(result.n_evaluated)}


# (owner, attribute, span name, counts): the owner is where callers look
# the attribute up
_SPANNED = (
    (data, "dataset_from_matrices", "data.load", None),
    (data, "load_dense_csv", "data.load", None),
    (data.DiscreteColumn, "from_values", "data.from_values", None),
    (info, "nvi_distance_rows", "info.nvi_distance_rows", _row_counts),
    (info.InfoCache, "mi_table", "info.mi_table", None),
    (info.InfoCache, "distance_block", "info.distance_block", None),
    (info.InfoCache, "distance", "info.distance", None),
    (objective.SelectionState, "add", "objective.add", None),
    (runner, "relevance_g", "objective.relevance_g", None),
    (runner, "diversity", "objective.diversity", None),
    (greedy, "greedy_state", "greedy.greedy_state", None),
    (runner, "greedy_select", "greedy.greedy_select", _candidate_count),
    (oracle, "greedy_select", "greedy.greedy_select", _candidate_count),
    (runner, "centralized_select", "runner.centralized_select", None),
    (runner, "distributed_select", "runner.distributed_select", None),
    (runner, "streaming_select", "runner.streaming_select", None),
    (oracle, "distributed_select", "runner.distributed_select", None),
    (oracle, "approximation_report", "oracle.approximation_report", None),
    (oracle, "brute_force_opt", "oracle.brute_force_opt", _subset_count),
    (oracle, "distance_matrix", "oracle.distance_matrix", None),
)


def _replacement(tracer: Tracer, original, name: str, counts):
    if isinstance(original, classmethod):
        return classmethod(tracer.wrap(name, original.__func__, counts))
    return tracer.wrap(name, original, counts)


@contextmanager
def tracing(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, counts in _SPANNED:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _replacement(tracer, original, name, counts))
        # greedy scores candidates through marginal_g_rows once per step
        original = vars(greedy)["marginal_g_rows"]
        saved.append((greedy, "marginal_g_rows", original))
        greedy.marginal_g_rows = tracer.count_into_open_span(
            "scored", original, lambda args: int(args[0].shape[0])
        )
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class _Window:
    """Durations, self times and names of the spans in [lo, hi)."""

    def __init__(self, spans, lo: int, hi: int):
        self.spans = spans
        self.lo, self.hi = lo, hi
        self.children = defaultdict(list)
        for i in range(lo, hi):
            parent = spans[i][3]
            if parent >= lo:
                self.children[parent].append(i)

    def dur(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def self_time(self, i: int) -> float:
        return self.dur(i) - sum(self.dur(c) for c in self.children[i])

    def named(self, name: str, parent: str | None = None) -> list:
        out = []
        for i in range(self.lo, self.hi):
            if self.spans[i][0] != name:
                continue
            p = self.spans[i][3]
            if parent is None or (p >= 0 and self.spans[p][0] == parent):
                out.append(i)
        return out

    def total(self, name: str) -> float:
        return sum(self.dur(i) for i in self.named(name))

    def count_sum(self, name: str, key: str) -> int:
        return sum(self.spans[i][4].get(key, 0) for i in self.named(name))


def setup_metrics(spans, lo: int, hi: int) -> dict:
    """Loader numbers from the spans of one traced set-up."""
    w = _Window(spans, lo, hi)
    return {
        "data.load_s": w.total("data.load"),
        "data.discretize_s": w.total("data.from_values"),
        "data.columns": len(w.named("data.from_values")),
    }


def cycle_metrics(spans, lo: int, hi: int) -> dict:
    """Layer numbers from the spans of one traced cycle of serial runs."""
    w = _Window(spans, lo, hi)
    block_calls = len(w.named("info.distance_block"))
    rows_computed = len(w.named("info.nvi_distance_rows", parent="info.distance_block"))
    machine_s, union_size = [], 0
    for run in w.named("runner.distributed_select", parent="op.distributed"):
        jobs = [c for c in w.children[run] if spans[c][0] == "greedy.greedy_select"]
        machine_s += [w.dur(c) for c in jobs[:-1]]
        union_size += spans[jobs[-1]][4]["candidates"]
    enumerate_s = sum(w.self_time(i) for i in w.named("oracle.brute_force_opt"))
    subsets = w.count_sum("oracle.brute_force_opt", "subsets")
    return {
        "info.mi_table_s": w.total("info.mi_table"),
        "info.rows_s": w.total("info.nvi_distance_rows"),
        "info.rows_computed": rows_computed,
        "info.pair_evals": w.count_sum("info.nvi_distance_rows", "rows"),
        "info.joint_cells": w.count_sum("info.nvi_distance_rows", "cells"),
        "info.block_calls": block_calls,
        "info.row_hit_ratio": 1.0 - rows_computed / block_calls if block_calls else 0.0,
        "info.scalar_calls": len(w.named("info.distance")),
        "objective.add_self_s": sum(w.self_time(i) for i in w.named("objective.add")),
        "objective.eval_s": w.total("objective.relevance_g") + w.total("objective.diversity"),
        "greedy.steps": len(w.named("objective.add", parent="greedy.greedy_state")),
        "greedy.candidates_scored": w.count_sum("greedy.greedy_state", "scored"),
        "greedy.self_s": sum(w.self_time(i) for i in w.named("greedy.greedy_state")),
        "runner.union_size": union_size,
        "runner.machine_imbalance": max(machine_s) / statistics.mean(machine_s) if machine_s else 0.0,
        "oracle.subsets": subsets,
        "oracle.enumerate_s": enumerate_s,
        "oracle.distance_matrix_s": w.total("oracle.distance_matrix"),
        "oracle.subsets_per_s": subsets / enumerate_s if enumerate_s > 0 else 0.0,
    }
