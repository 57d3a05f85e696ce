"""Centralized, distributed, and streaming selection drivers.

The distributed pipeline assigns each feature to one of m machines
uniformly at random (seeded), runs the plain greedy per machine, then runs
the half-relevance greedy over the union of the machines' picks. Machines
are simulated by a fork-based process pool: forked workers share the
dataset pages copy-on-write, so column payloads are not copied, and results
are collected in machine-index order, so the output is independent of
worker count and scheduling. The streaming driver processes the same
partitions one at a time, keeping only survivor columns between steps.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context

import numpy as np

from .data import Dataset
from .greedy import GreedyVariant, greedy_select, greedy_states
from .info import InfoCache
from .objective import ObjectiveConfig, diversity, relevance_g


@dataclass(frozen=True)
class PartitionPlan:
    """Random feature-to-machine assignment: entry i is feature i's machine."""

    m: int
    seed: int
    assignment: np.ndarray

    def __post_init__(self):
        a = np.ascontiguousarray(self.assignment, dtype=np.int64)
        if a.ndim != 1:
            raise ValueError("assignment must be one-dimensional")
        if a.size and (a.min() < 0 or a.max() >= self.m):
            raise ValueError("machine index out of range")
        a.flags.writeable = False
        object.__setattr__(self, "assignment", a)

    def machines(self) -> list:
        """Feature ids per machine, ascending within each machine."""
        return [np.nonzero(self.assignment == i)[0] for i in range(self.m)]

    def sizes(self) -> list:
        return [int(np.count_nonzero(self.assignment == i)) for i in range(self.m)]


def random_partition(n_features: int, m: int, seed: int) -> PartitionPlan:
    """Assign each feature to one of m machines i.i.d. uniformly."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if n_features < 1:
        raise ValueError("n_features must be >= 1")
    rng = np.random.default_rng(seed)
    return PartitionPlan(m, seed, rng.integers(0, m, size=n_features))


def default_machine_count(n_features: int, k: int) -> int:
    """ceil(sqrt(n_features / k)) machines."""
    if not 1 <= k <= n_features:
        raise ValueError("need 1 <= k <= n_features")
    return int(math.ceil(math.sqrt(n_features / k)))


@dataclass(frozen=True)
class RunReport:
    """Outcome of one selection run, serializable to JSON."""

    mode: str
    selected_ids: tuple
    selected_names: tuple
    objective: dict
    config: dict
    timings_ms: dict
    plan: PartitionPlan | None = None
    peak_retained_feature_columns: int | None = None

    def to_json_dict(self) -> dict:
        plan = None
        if self.plan is not None:
            plan = {
                "m": self.plan.m,
                "seed": self.plan.seed,
                "sizes": self.plan.sizes(),
                "assignment": [int(x) for x in self.plan.assignment],
            }
        return {
            "mode": self.mode,
            "selected_ids": [int(i) for i in self.selected_ids],
            "selected_names": list(self.selected_names),
            "objective": dict(self.objective),
            "config": dict(self.config),
            "timings_ms": dict(self.timings_ms),
            "plan": plan,
            "peak_retained_feature_columns": self.peak_retained_feature_columns,
        }


def _objective_block(selected, cfg: ObjectiveConfig, cache: InfoCache) -> dict:
    rel = cfg.relevance_scale * relevance_g(selected, cfg)
    div = cfg.diversity_scale * diversity(selected, cache)
    return {"h": rel + div, "relevance_term": rel, "diversity_term": div}


def _config_echo(cfg: ObjectiveConfig, **extra) -> dict:
    echo = {
        "k": cfg.k,
        "lambda": cfg.diversity_weight,
        "p": cfg.top_p,
        "relevance_scale": cfg.relevance_scale,
        "diversity_scale": cfg.diversity_scale,
    }
    echo.update(extra)
    return echo


def centralized_select(
    data: Dataset,
    k: int,
    cfg: ObjectiveConfig,
    variant: GreedyVariant = GreedyVariant.ALTGREEDY,
    cache: InfoCache | None = None,
) -> RunReport:
    """Run one greedy variant over all features."""
    t0 = time.perf_counter()
    if cache is None:
        cache = InfoCache(data)
    selected = greedy_select(range(data.n_features), k, variant, cfg, cache)
    t1 = time.perf_counter()
    objective = _objective_block(selected, cfg, cache)
    total = time.perf_counter() - t0
    return RunReport(
        mode="centralized",
        selected_ids=tuple(selected),
        selected_names=tuple(data.feature_names[i] for i in selected),
        objective=objective,
        config=_config_echo(cfg, algorithm=variant.value, seed=None, machines=None, parallelism=1),
        timings_ms={
            "partition": 0.0,
            "map": (t1 - t0) * 1000.0,
            "reduce": 0.0,
            "total": total * 1000.0,
        },
    )


def _machine_job(work, machine_indices: list) -> list:
    data, cfg, k, variant, machine_ids = work
    groups = [machine_ids[i] for i in machine_indices]
    caches = [InfoCache(data, feature_ids=ids) for ids in groups]
    return greedy_states(groups, k, variant, cfg, caches).picks


# A forked worker's work, set by the pool's initializer in the worker only;
# the calling process hands its own share's work to _machine_job directly.
_forked_work = None


def _init_forked_worker(work) -> None:
    global _forked_work
    _forked_work = work


def _forked_machine_job(machine_indices: list) -> list:
    return _machine_job(_forked_work, machine_indices)


def _run_machines(data, cfg, k, variant, machine_ids, parallelism: int) -> list:
    """Per-machine core sets, in machine order regardless of scheduling.

    With parallelism p, the machines are dealt into p shares: this process
    runs the first and p - 1 forked workers run the others. Each share's
    machines run side by side (greedy_states), which picks exactly what
    greedy_select picks one machine at a time, as the serial path and
    streaming do. The workers inherit the work through the fork, not by
    pickling.
    """
    jobs = [i for i in range(len(machine_ids)) if machine_ids[i].size > 0]
    results = [[] for _ in machine_ids]
    if parallelism > 1 and len(jobs) > 1:
        work = (data, cfg, k, variant, machine_ids)
        workers = min(parallelism, len(jobs))
        shares = [jobs[w::workers] for w in range(workers)]
        pool = ProcessPoolExecutor(
            max_workers=workers - 1,
            mp_context=get_context("fork"),
            initializer=_init_forked_worker,
            initargs=(work,),
        )
        try:
            forked = pool.map(_forked_machine_job, shares[1:])
            picks = [_machine_job(work, shares[0])] + list(forked)
        finally:
            # the results are in hand; the workers wind down on their own
            pool.shutdown(wait=False, cancel_futures=True)
        for share, sels in zip(shares, picks):
            for i, sel in zip(share, sels):
                results[i] = sel
    else:
        for i in jobs:
            cache = InfoCache(data, feature_ids=machine_ids[i])
            results[i] = greedy_select(machine_ids[i], k, variant, cfg, cache)
    return results


def distributed_select(
    data: Dataset,
    k: int,
    cfg: ObjectiveConfig,
    m: int | None = None,
    seed: int = 0,
    parallelism: int = 1,
    machine_variant: GreedyVariant = GreedyVariant.GREEDY,
    merge_variant: GreedyVariant = GreedyVariant.ALTGREEDY,
) -> RunReport:
    """Partition features across m machines, select per machine, then
    select from the union of the machines' picks."""
    if not 1 <= k <= data.n_features:
        raise ValueError("need 1 <= k <= n_features")
    t0 = time.perf_counter()
    if m is None:
        m = default_machine_count(data.n_features, k)
    plan = random_partition(data.n_features, m, seed)
    machine_ids = plan.machines()
    t1 = time.perf_counter()
    core_sets = _run_machines(data, cfg, k, machine_variant, machine_ids, parallelism)
    t2 = time.perf_counter()
    union = [i for core in core_sets for i in core]
    merge_cache = InfoCache(data, feature_ids=np.asarray(union, dtype=np.int64))
    selected = greedy_select(union, k, merge_variant, cfg, merge_cache)
    t3 = time.perf_counter()
    objective = _objective_block(selected, cfg, merge_cache)
    total = time.perf_counter() - t0
    return RunReport(
        mode="distributed",
        selected_ids=tuple(selected),
        selected_names=tuple(data.feature_names[i] for i in selected),
        objective=objective,
        config=_config_echo(cfg, seed=seed, machines=m, parallelism=parallelism),
        timings_ms={
            "partition": (t1 - t0) * 1000.0,
            "map": (t2 - t1) * 1000.0,
            "reduce": (t3 - t2) * 1000.0,
            "total": total * 1000.0,
        },
        plan=plan,
    )


def streaming_select(
    data: Dataset,
    k: int,
    cfg: ObjectiveConfig,
    m: int | None = None,
    seed: int = 0,
) -> RunReport:
    """Process the random partition one machine at a time, retaining only
    survivor columns; the result matches distributed_select at the same
    seed and m.

    The report records the peak number of feature columns held at once,
    which stays at or below max partition size + m*k.
    """
    if not 1 <= k <= data.n_features:
        raise ValueError("need 1 <= k <= n_features")
    t0 = time.perf_counter()
    if m is None:
        m = default_machine_count(data.n_features, k)
    plan = random_partition(data.n_features, m, seed)
    machine_ids = plan.machines()
    t1 = time.perf_counter()
    retained: list = []
    peak = 0
    for ids in machine_ids:
        if ids.size == 0:
            continue
        peak = max(peak, len(retained) + ids.size)
        cache = InfoCache(data, feature_ids=ids)
        retained.extend(greedy_select(ids, k, GreedyVariant.GREEDY, cfg, cache))
    peak = max(peak, len(retained))
    t2 = time.perf_counter()
    merge_cache = InfoCache(data, feature_ids=np.asarray(retained, dtype=np.int64))
    selected = greedy_select(retained, k, GreedyVariant.ALTGREEDY, cfg, merge_cache)
    t3 = time.perf_counter()
    objective = _objective_block(selected, cfg, merge_cache)
    total = time.perf_counter() - t0
    return RunReport(
        mode="streaming",
        selected_ids=tuple(selected),
        selected_names=tuple(data.feature_names[i] for i in selected),
        objective=objective,
        config=_config_echo(cfg, seed=seed, machines=m, parallelism=1),
        timings_ms={
            "partition": (t1 - t0) * 1000.0,
            "map": (t2 - t1) * 1000.0,
            "reduce": (t3 - t2) * 1000.0,
            "total": total * 1000.0,
        },
        plan=plan,
        peak_retained_feature_columns=peak,
    )
