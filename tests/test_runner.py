"""Partitioning and the centralized / distributed / streaming drivers."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import divsel
from divsel import runner
from divsel.greedy import GreedyVariant, greedy_select
from divsel.info import InfoCache
from divsel.objective import h_value
from divsel.runner import (
    PartitionPlan,
    centralized_select,
    default_machine_count,
    distributed_select,
    random_partition,
    streaming_select,
)
from helpers import instance_with_cache, weighted_cfg


def test_random_partition_determinism_and_range():
    p1 = random_partition(500, 7, seed=3)
    p2 = random_partition(500, 7, seed=3)
    p3 = random_partition(500, 7, seed=4)
    assert np.array_equal(p1.assignment, p2.assignment)
    assert not np.array_equal(p1.assignment, p3.assignment)
    assert p1.assignment.min() >= 0 and p1.assignment.max() < 7
    assert sum(p1.sizes()) == 500


def test_import_loads_numpy_random():
    # numpy imports numpy.random on first use; the drivers load it up front
    # so that a process's first partition is not billed for the import
    env = dict(os.environ)
    pkg_parent = str(Path(divsel.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_parent, env.get("PYTHONPATH")]))
    probe = "import sys, divsel.runner; print('numpy.random' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, env=env, timeout=120)
    assert (done.returncode, done.stdout) == (0, b"True\n")


def test_random_partition_single_machine():
    plan = random_partition(20, 1, seed=0)
    assert plan.assignment.tolist() == [0] * 20
    assert plan.machines()[0].tolist() == list(range(20))


def test_partition_machines_disjoint_ascending():
    plan = random_partition(100, 5, seed=9)
    seen = []
    for ids in plan.machines():
        assert list(ids) == sorted(ids)
        seen.extend(ids.tolist())
    assert sorted(seen) == list(range(100))


def test_partition_machines_and_sizes_match_a_per_machine_scan():
    d = 40
    for m in (1, 7, d, 50 * d):  # the last two leave machines empty
        plan = random_partition(d, m, seed=m)
        machines = plan.machines()
        assert len(machines) == m
        for i, ids in enumerate(machines):
            assert ids.dtype == np.int64
            assert ids.tolist() == np.nonzero(plan.assignment == i)[0].tolist()
        assert plan.sizes() == [int(np.count_nonzero(plan.assignment == i)) for i in range(m)]
        assert all(type(size) is int for size in plan.sizes())


def test_partition_binomial_concentration():
    # d=100000, m=10: each machine within 10000 +/- 500 nearly always
    hits = 0
    for seed in range(100):
        sizes = random_partition(100000, 10, seed).sizes()
        if all(abs(s - 10000) <= 500 for s in sizes):
            hits += 1
    assert hits >= 99


def test_partition_validation():
    with pytest.raises(ValueError):
        random_partition(10, 0, seed=0)
    with pytest.raises(ValueError):
        random_partition(0, 3, seed=0)
    with pytest.raises(ValueError):
        PartitionPlan(2, 0, np.array([0, 5]))


def test_default_machine_count():
    assert default_machine_count(47236, 10) == 69
    assert default_machine_count(49060, 200) == 16
    assert default_machine_count(64, 64) == 1
    with pytest.raises(ValueError):
        default_machine_count(5, 9)


def test_centralized_report(synth, synth_cache):
    cfg = weighted_cfg(synth_cache, k=10, lam=0.5, p=10)
    rep = centralized_select(synth, 10, cfg, GreedyVariant.ALTGREEDY, synth_cache)
    assert rep.mode == "centralized"
    assert len(rep.selected_ids) == 10
    assert rep.selected_names == tuple(synth.feature_names[i] for i in rep.selected_ids)
    assert rep.objective["h"] == pytest.approx(
        h_value(rep.selected_ids, cfg, synth_cache), abs=1e-9
    )
    assert rep.objective["h"] == rep.objective["relevance_term"] + rep.objective["diversity_term"]
    assert rep.config["algorithm"] == "altgreedy"
    assert rep.plan is None
    assert all(v >= 0 for v in rep.timings_ms.values())
    json.dumps(rep.to_json_dict())  # serializable


def test_distributed_matches_manual_pipeline():
    data, _ = instance_with_cache(seed=50, d=40, n=32, t=2)
    cache = InfoCache(data)
    cfg = weighted_cfg(cache, k=5, lam=0.5, p=3)
    rep = distributed_select(data, 5, cfg, m=3, seed=11)
    plan = random_partition(40, 3, seed=11)
    union = []
    for ids in plan.machines():
        if ids.size:
            union.extend(greedy_select(ids, 5, GreedyVariant.GREEDY, cfg, InfoCache(data)))
    expect = greedy_select(union, 5, GreedyVariant.ALTGREEDY, cfg, InfoCache(data))
    assert list(rep.selected_ids) == expect
    assert set(rep.selected_ids) <= set(union)  # core-set containment


def test_distributed_m1_degenerate():
    data, cache = instance_with_cache(seed=51, d=25, n=28, t=2)
    cfg = weighted_cfg(cache, k=4, lam=0.5, p=2)
    rep = distributed_select(data, 4, cfg, m=1, seed=0)
    stage1 = greedy_select(range(25), 4, GreedyVariant.GREEDY, cfg, cache)
    stage2 = greedy_select(stage1, 4, GreedyVariant.ALTGREEDY, cfg, cache)
    assert list(rep.selected_ids) == stage2


def test_distributed_default_machine_count_used():
    data, cache = instance_with_cache(seed=52, d=90, n=24, t=2)
    cfg = weighted_cfg(cache, k=10, lam=0.5)
    rep = distributed_select(data, 10, cfg, seed=0)
    assert rep.plan.m == default_machine_count(90, 10)
    assert rep.config["machines"] == rep.plan.m


def test_distributed_rejects_bad_k(synth, synth_cache):
    cfg = weighted_cfg(synth_cache, k=10, lam=0.5)
    with pytest.raises(ValueError):
        distributed_select(synth, 0, cfg, m=4, seed=0)
    with pytest.raises(ValueError):
        distributed_select(synth, 801, cfg, m=4, seed=0)


def test_runners_refuse_a_k_other_than_the_objectives(synth, synth_cache):
    # a report states cfg.k, so a run of any other k would misstate it
    cfg = weighted_cfg(synth_cache, k=10, lam=0.5)
    for run in (centralized_select, distributed_select, streaming_select):
        with pytest.raises(ValueError, match="k=4 differs from the objective's k=10"):
            run(synth, 4, cfg)


def test_parallel_pool_matches_serial():
    data, cache = instance_with_cache(seed=53, d=60, n=30, t=2)
    cfg = weighted_cfg(cache, k=6, lam=0.5, p=3)
    serial = distributed_select(data, 6, cfg, m=4, seed=2, parallelism=1)
    pooled = distributed_select(data, 6, cfg, m=4, seed=2, parallelism=3)
    assert serial.selected_ids == pooled.selected_ids
    assert serial.objective == pooled.objective


def test_forked_worker_failures_reach_the_caller(monkeypatch):
    # the calling process runs the batch holding machine 0; a forked worker
    # runs the other. Its exception is raised in the caller, and a worker
    # that dies without a result is reported instead of awaited
    data, cache = instance_with_cache(seed=56, d=40, n=30, t=2)
    cfg = weighted_cfg(cache, k=4, lam=0.5, p=3)
    real = runner._machine_job

    def failing(how):
        def job(work, batch):
            if 0 in batch:
                return real(work, batch)
            if how == "raise":
                raise ValueError("worker failed")
            os._exit(3)

        return job

    monkeypatch.setattr(runner, "_machine_job", failing("raise"))
    with pytest.raises(ValueError, match="worker failed"):
        distributed_select(data, 4, cfg, m=4, seed=1, parallelism=2)
    monkeypatch.setattr(runner, "_machine_job", failing("exit"))
    with pytest.raises(RuntimeError, match="status 3"):
        distributed_select(data, 4, cfg, m=4, seed=1, parallelism=2)
    monkeypatch.setattr(runner, "_machine_job", real)
    assert distributed_select(data, 4, cfg, m=4, seed=1, parallelism=2).selected_ids == (
        distributed_select(data, 4, cfg, m=4, seed=1, parallelism=1).selected_ids
    )


def test_back_to_back_parallel_runs_keep_their_own_work():
    # two datasets of different shape; each pooled run must match its own
    # serial run, whatever the run before it handed its workers
    def canonical(report):
        doc = report.to_json_dict()
        del doc["timings_ms"]
        doc["config"].pop("parallelism")
        return json.dumps(doc, sort_keys=True)

    runs = []
    for seed, d in ((54, 48), (55, 70)):
        data, cache = instance_with_cache(seed=seed, d=d, n=30, t=2)
        runs.append((data, weighted_cfg(cache, k=5, lam=0.5, p=3)))
    pooled = [distributed_select(data, 5, cfg, m=4, seed=3, parallelism=2) for data, cfg in runs]
    serial = [distributed_select(data, 5, cfg, m=4, seed=3, parallelism=1) for data, cfg in runs]
    assert [canonical(r) for r in pooled] == [canonical(r) for r in serial]
    assert pooled[0].selected_ids != pooled[1].selected_ids


def test_streaming_equals_distributed_quick():
    for seed in range(5):
        data, cache = instance_with_cache(seed=60 + seed, d=30, n=26, t=2)
        cfg = weighted_cfg(cache, k=4, lam=0.5, p=2)
        dist = distributed_select(data, 4, cfg, m=3, seed=seed)
        stream = streaming_select(data, 4, cfg, m=3, seed=seed)
        assert stream.selected_ids == dist.selected_ids
        assert stream.mode == "streaming"


def test_streaming_peak_bound():
    data, cache = instance_with_cache(seed=66, d=50, n=24, t=2)
    cfg = weighted_cfg(cache, k=5, lam=0.5, p=2)
    rep = streaming_select(data, 5, cfg, m=4, seed=1)
    largest = max(rep.plan.sizes())
    assert rep.peak_retained_feature_columns <= largest + 4 * 5


def test_streaming_single_partition_retains_everything():
    data, cache = instance_with_cache(seed=67, d=35, n=24, t=2)
    cfg = weighted_cfg(cache, k=5, lam=0.5, p=2)
    rep = streaming_select(data, 5, cfg, m=1, seed=0)
    assert rep.peak_retained_feature_columns == 35


def one_machine_at_a_time(data, cfg, k, plan):
    """Reference map: machines in order, each through greedy_select alone.
    Returns the core-set union and the peak count of columns held."""
    retained, peak = [], 0
    for ids in plan.machines():
        if ids.size == 0:
            continue
        peak = max(peak, len(retained) + ids.size)
        retained.extend(greedy_select(ids, k, GreedyVariant.GREEDY, cfg, InfoCache(data)))
    return retained, max(peak, len(retained))


@pytest.mark.parametrize("d, m", [(30, 1), (30, 3), (30, 7), (12, 10)])
def test_streaming_peak_matches_one_machine_at_a_time(d, m):
    data, cache = instance_with_cache(seed=69, d=d, n=24, t=2)
    cfg = weighted_cfg(cache, k=2, lam=0.5, p=2)
    rep = streaming_select(data, 2, cfg, m=m, seed=3)
    _, peak = one_machine_at_a_time(data, cfg, 2, rep.plan)
    assert rep.peak_retained_feature_columns == peak


def test_every_batching_reports_the_same_run():
    # d = 12 over m = 10 machines at seed 3 leaves three machines empty
    data, cache = instance_with_cache(seed=70, d=12, n=24, t=2)
    cfg = weighted_cfg(cache, k=2, lam=0.5, p=2)

    def canonical(report):
        doc = report.to_json_dict()
        for key in ("mode", "timings_ms", "peak_retained_feature_columns"):
            del doc[key]
        del doc["config"]["parallelism"]
        return json.dumps(doc, sort_keys=True)

    runs = [distributed_select(data, 2, cfg, m=10, seed=3, parallelism=p) for p in (1, 2, 3)]
    runs.append(streaming_select(data, 2, cfg, m=10, seed=3))
    assert runs[0].plan.sizes().count(0) == 3
    assert len({canonical(r) for r in runs}) == 1
    union, _ = one_machine_at_a_time(data, cfg, 2, runs[0].plan)
    assert list(runs[0].selected_ids) == greedy_select(union, 2, GreedyVariant.ALTGREEDY, cfg, InfoCache(data))


def test_batch_stamps_fall_in_the_map_phase():
    # serial: one batch; p = 2 and 3: the calling process's batch first,
    # then each forked worker's; streaming: one batch per non-empty machine
    data, cache = instance_with_cache(seed=70, d=12, n=24, t=2)
    cfg = weighted_cfg(cache, k=2, lam=0.5, p=2)
    runs = [distributed_select(data, 2, cfg, m=10, seed=3, parallelism=p) for p in (1, 2, 3)]
    runs.append(streaming_select(data, 2, cfg, m=10, seed=3))
    assert [len(r.timings_ms["batches"]) for r in runs] == [1, 2, 3, 7]
    for rep in runs:
        t = rep.timings_ms
        map_start, map_end = t["partition"], t["partition"] + t["map"]
        for stamp in t["batches"]:
            assert map_start <= stamp["start"] <= stamp["end"] <= map_end
    streamed = runs[-1].timings_ms["batches"]
    assert all(a["end"] <= b["start"] for a, b in zip(streamed, streamed[1:]))


@pytest.mark.parametrize("parallelism", [0, -3])
def test_distributed_rejects_bad_parallelism(parallelism):
    data, cache = instance_with_cache(seed=71, d=20, n=20, t=2)
    cfg = weighted_cfg(cache, k=3, lam=0.5, p=2)
    with pytest.raises(ValueError, match="parallelism"):
        distributed_select(data, 3, cfg, m=2, seed=0, parallelism=parallelism)


def test_run_report_json_round_trip():
    data, cache = instance_with_cache(seed=68, d=20, n=20, t=2)
    cfg = weighted_cfg(cache, k=3, lam=0.5, p=2)
    rep = distributed_select(data, 3, cfg, m=2, seed=5)
    doc = json.loads(json.dumps(rep.to_json_dict(), sort_keys=True))
    assert doc["selected_ids"] == list(rep.selected_ids)
    assert doc["plan"]["m"] == 2
    assert doc["plan"]["seed"] == 5
    assert len(doc["plan"]["assignment"]) == 20
    assert doc["timings_ms"]["total"] >= 0
