"""Centralized, distributed, and streaming selection drivers.

The distributed pipeline assigns each feature to one of m machines
uniformly at random (seeded), runs the plain greedy per machine, then runs
the half-relevance greedy over the union of the machines' picks. Distributed
and streaming runs share this partition -> map -> reduce driver and differ
only in how the map batches the machines; a batch is one greedy_states call
over its machines side by side, each machine one contiguous span of the
state's gathered columns. One InfoCache of the whole dataset serves every
batch, the merge and the report. Serial distributed is one batch holding
every machine. With parallelism p the machines are dealt into p batches:
this process runs the first and p - 1 forked workers run the others,
sharing the dataset pages copy-on-write, so column payloads are not copied;
each worker sends its core sets back through a pipe.
Streaming is the same driver run one machine at a time, keeping only
survivor columns between machines. Core sets are collected in
machine-index order, so the output is independent of batching, worker
count and scheduling.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from multiprocessing import get_context

import numpy as np
import numpy.random  # numpy would otherwise import it inside the first timed rng call

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
        return np.split(np.argsort(self.assignment, kind="stable"), np.cumsum(self.sizes())[:-1])

    def sizes(self) -> list:
        return np.bincount(self.assignment, minlength=self.m).tolist()


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
        doc = json_fields(self)
        if self.plan is not None:
            doc["plan"].update(sizes=self.plan.sizes(), assignment=self.plan.assignment.tolist())
        return doc


def json_fields(report) -> dict:
    """A dataclass report's fields as a new dict: a deep copy by
    ``dataclasses.asdict``, with each tuple field made a list."""
    return asdict(report, dict_factory=lambda fields: {k: list(v) if isinstance(v, tuple) else v for k, v in fields})


def _report(
    mode: str, data: Dataset, selected, cfg: ObjectiveConfig, cache: InfoCache, config: dict, marks,
    batches=None, **extra
) -> RunReport:
    """A run's report. ``marks`` are the perf_counter readings at the start
    and at the ends of the partition, map and reduce phases, and
    ``batches`` the (start, end) readings of each map batch, in batch
    order, if the run has a map; ``h`` is recomputed from ``selected`` with
    ``cache``."""
    rel = cfg.relevance_scale * relevance_g(selected, cfg)
    div = cfg.diversity_scale * diversity(selected, cache)
    t0, t1, t2, t3 = marks
    total = time.perf_counter() - t0
    timings = {
        "partition": (t1 - t0) * 1000.0,
        "map": (t2 - t1) * 1000.0,
        "reduce": (t3 - t2) * 1000.0,
        "total": total * 1000.0,
    }
    if batches is not None:
        timings["batches"] = [{"start": (s - t0) * 1000.0, "end": (e - t0) * 1000.0} for s, e in batches]
    return RunReport(
        mode=mode,
        selected_ids=tuple(selected),
        selected_names=tuple(data.feature_names[i] for i in selected),
        objective={"h": rel + div, "relevance_term": rel, "diversity_term": div},
        config={
            "k": cfg.k,
            "lambda": cfg.diversity_weight,
            "p": cfg.top_p,
            "relevance_scale": cfg.relevance_scale,
            "diversity_scale": cfg.diversity_scale,
            **config,
        },
        timings_ms=timings,
        **extra,
    )


def check_k(data: Dataset, k: int, cfg: ObjectiveConfig, cache: InfoCache) -> None:
    """A run selects cfg.k features, the k its report states, out of the
    dataset's features, with one MI row per feature and a cache over that
    dataset."""
    if not 1 <= k <= data.n_features:
        raise ValueError("need 1 <= k <= n_features")
    if k != cfg.k:
        raise ValueError(f"k={k} differs from the objective's k={cfg.k}")
    if cfg.mi_table.shape[0] != data.n_features:
        raise ValueError(f"mi_table has {cfg.mi_table.shape[0]} rows for {data.n_features} features")
    if cache.data is not data:
        raise ValueError("cache is over another dataset")


def centralized_select(
    data: Dataset,
    k: int,
    cfg: ObjectiveConfig,
    variant: GreedyVariant = GreedyVariant.ALTGREEDY,
    cache: InfoCache | None = None,
) -> RunReport:
    """Run one greedy variant over all features."""
    if cache is None:
        cache = InfoCache(data)
    check_k(data, k, cfg, cache)
    t0 = time.perf_counter()
    selected = greedy_select(range(data.n_features), variant, cfg, cache)
    t1 = time.perf_counter()
    config = {"algorithm": variant.value, "seed": None, "machines": None, "parallelism": 1}
    return _report("centralized", data, selected, cfg, cache, config, (t0, t0, t1, t1))


# The partition pipeline's variants: plain greedy on every machine, the
# half-relevance greedy over the union of their core sets.
_MACHINE_VARIANT = GreedyVariant.GREEDY
_MERGE_VARIANT = GreedyVariant.ALTGREEDY


def _machine_job(work, batch: list) -> tuple:
    """Core sets of a batch of machines, selected side by side, and the
    perf_counter readings at the batch's start and end."""
    cache, cfg, machine_ids = work
    start = time.perf_counter()
    picks = greedy_states([machine_ids[i] for i in batch], _MACHINE_VARIANT, cfg, cache).picks
    return picks, (start, time.perf_counter())


def _forked_machine_job(send, work, batch: list) -> None:
    """A forked worker's body: send the batch's core sets and stamps, or the
    exception that stopped them, to the calling process."""
    try:
        send.send((True, _machine_job(work, batch)))
    except Exception as exc:
        send.send((False, exc))


def _run_machines(work, batches: list, fork: bool) -> list:
    """One _machine_job per batch, results in batch order.

    Without ``fork`` the batches run here one after another. With it, this
    process runs the first batch and one forked worker each of the others;
    a worker inherits the work through the fork, not by pickling, and sends
    its core sets and stamps back through a pipe; perf_counter is the
    system's monotonic clock, so a worker's stamps compare with this
    process's. A worker's exception is raised here.
    """
    if not fork or len(batches) == 1:
        return [_machine_job(work, batch) for batch in batches]
    context = get_context("fork")
    workers, done = [], False
    try:
        for batch in batches[1:]:
            receive, send = context.Pipe(duplex=False)
            worker = context.Process(target=_forked_machine_job, args=(send, work, batch), daemon=True)
            worker.start()
            send.close()
            workers.append((worker, receive))
        results = [_machine_job(work, batches[0])]
        for worker, receive in workers:
            try:
                ok, value = receive.recv()
            except EOFError:
                worker.join()
                status = worker.exitcode
                raise RuntimeError(f"a forked worker exited with status {status} before sending its core sets") from None
            if not ok:
                raise value
            results.append(value)
        done = True
        return results
    finally:
        for worker, receive in workers:
            receive.close()
            if not done:
                worker.terminate()
            worker.join()


def _partition_select(
    data: Dataset, k: int, cfg: ObjectiveConfig, m: int | None, seed: int, parallelism: int, mode: str
) -> RunReport:
    """Partition the features across m machines, select a core set on each
    machine (map), then select from the union of the core sets (reduce).

    The map runs batches of non-empty machines: one batch of every machine
    when distributed serially, the machines dealt into ``parallelism``
    batches otherwise, and one batch per machine, in machine order, when
    streaming. A machine's core set does not depend on its batch, and the
    union is taken in machine order, so every batching selects the same
    features.
    """
    cache = InfoCache(data)
    check_k(data, k, cfg, cache)
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    t0 = time.perf_counter()
    if m is None:
        m = default_machine_count(data.n_features, k)
    plan = random_partition(data.n_features, m, seed)
    machine_ids = plan.machines()
    t1 = time.perf_counter()
    jobs = [i for i, ids in enumerate(machine_ids) if ids.size > 0]
    streaming = mode == "streaming"
    if streaming:
        batches = [[i] for i in jobs]
    else:
        workers = min(parallelism, len(jobs))
        batches = [jobs[w::workers] for w in range(workers)]
    results = _run_machines((cache, cfg, machine_ids), batches, fork=not streaming)
    core_sets = {i: core for batch, (cores, _) in zip(batches, results) for i, core in zip(batch, cores)}
    t2 = time.perf_counter()
    union = [i for j in jobs for i in core_sets[j]]
    selected = greedy_select(union, _MERGE_VARIANT, cfg, cache)
    t3 = time.perf_counter()
    peak = None
    if streaming:
        # while a machine runs, the survivors of the machines before it and
        # its own columns are held; after the last, every survivor
        retained = peak = 0
        for j in jobs:
            peak = max(peak, retained + machine_ids[j].size)
            retained += len(core_sets[j])
        peak = max(peak, retained)
    config = {"seed": seed, "machines": m, "parallelism": parallelism}
    return _report(
        mode, data, selected, cfg, cache, config, (t0, t1, t2, t3),
        batches=[stamps for _, stamps in results], plan=plan, peak_retained_feature_columns=peak,
    )


def distributed_select(
    data: Dataset,
    k: int,
    cfg: ObjectiveConfig,
    m: int | None = None,
    seed: int = 0,
    parallelism: int = 1,
) -> RunReport:
    """Partition features across m machines, select per machine, then
    select from the union of the machines' picks; ``parallelism`` processes
    share the machines."""
    return _partition_select(data, k, cfg, m, seed, parallelism, "distributed")


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
    return _partition_select(data, k, cfg, m, seed, 1, "streaming")
