"""End-to-end acceptance checks. Each test exercises one published
guarantee and prints a single PASS/FAIL line (run with -s to see them all).

Criterion 11 compares wall-clock of the distributed path against the
centralized one with one worker per CPU this process may use. A parallel
speed-up cannot be measured on a single usable CPU, so that criterion is
skipped there; from two usable CPUs up it runs and must win every trial.
"""

import itertools
import json
import math
import os
import time

import numpy as np
import pytest

from divsel.data import dataset_from_matrices, generate_synthesized
from divsel.greedy import GreedyVariant, greedy_select, niceness_witness
from divsel.info import InfoCache, nvi_distance
from divsel.metrics import multilabel_metrics
from divsel.objective import ObjectiveConfig, diversity, h_value, relevance_g
from divsel.oracle import brute_force_opt
from divsel.runner import centralized_select, distributed_select, streaming_select
from helpers import instance_with_cache, plain_cfg, weighted_cfg

RNG_BASE = 2026
# CPUs this process may run on; os.cpu_count() also counts CPUs the
# affinity mask bars it from
USABLE_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


def _verdict(num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}", flush=True)
    assert ok, f"criterion {num} {name}{tail}"


def test_01_metric_axioms():
    rng = np.random.default_rng(RNG_BASE)
    t0 = time.perf_counter()
    bad = 0
    for _ in range(1000):
        n = int(rng.integers(4, 65))
        cols = [rng.integers(0, int(rng.integers(2, 5)), size=n) for _ in range(3)]
        d = {}
        for i, j in itertools.combinations(range(3), 2):
            d[i, j] = nvi_distance(cols[i], cols[j])
            if d[i, j] != nvi_distance(cols[j], cols[i]):
                bad += 1
        for i in range(3):
            if nvi_distance(cols[i], cols[i]) != 0.0:
                bad += 1
        triples = [(d[0, 2], d[0, 1], d[1, 2]), (d[0, 1], d[0, 2], d[1, 2]), (d[1, 2], d[0, 1], d[0, 2])]
        for lhs, r1, r2 in triples:
            if lhs > r1 + r2 + 1e-9:
                bad += 1
    elapsed = time.perf_counter() - t0
    _verdict(1, "metric-axioms", bad == 0 and elapsed < 5.0, f"1000 triples, {elapsed:.2f}s, {bad} violations")


def test_02_relevance_monotone_submodular():
    rng = np.random.default_rng(RNG_BASE + 1)
    t0 = time.perf_counter()
    bad = 0
    checked = 0
    for ds in range(25):
        d = int(rng.integers(6, 21))
        t = int(rng.integers(1, 5))
        _, cache = instance_with_cache(seed=9000 + ds, d=d, n=20, t=t)
        for p in (1, 2, d):
            cfg = plain_cfg(cache, k=2, p=p)
            for _ in range(14):
                t_size = int(rng.integers(1, d))
                T = rng.choice(d, size=t_size, replace=False).tolist()
                S = [i for i in T if rng.random() < 0.5]
                outside = [i for i in range(d) if i not in T]
                x = int(rng.choice(outside)) if outside else None
                g_s, g_t = relevance_g(S, cfg), relevance_g(T, cfg)
                if g_s < -1e-9 or g_t < g_s - 1e-9:
                    bad += 1
                if x is not None:
                    m_s = relevance_g(S + [x], cfg) - g_s
                    m_t = relevance_g(T + [x], cfg) - g_t
                    if m_s < -1e-9 or m_s < m_t - 1e-9:
                        bad += 1
                checked += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        2,
        "relevance-monotone-submodular",
        bad == 0 and checked >= 1000 and elapsed < 10.0,
        f"{checked} triples, {elapsed:.2f}s, {bad} violations",
    )


def test_03_rejection_niceness():
    rng = np.random.default_rng(RNG_BASE + 2)
    t0 = time.perf_counter()
    worst_gain, worst_dist, unstable = 0.0, 0.0, 0
    for i in range(100):
        d = int(rng.integers(30, 61))
        k = int(rng.integers(10, 16))
        _, cache = instance_with_cache(seed=3000 + i, d=d, n=24, t=2)
        rep = niceness_witness(range(d), plain_cfg(cache, k=k, p=3), cache)
        worst_gain = max(worst_gain, rep.max_gain_ratio)
        worst_dist = max(worst_dist, rep.max_distance_ratio)
        unstable += 0 if rep.removal_stable else 1
    elapsed = time.perf_counter() - t0
    ok = worst_gain <= 5.0 + 1e-9 and worst_dist <= 4.5 + 1e-9 and unstable == 0 and elapsed < 60.0
    _verdict(
        3,
        "rejection-niceness",
        ok,
        f"100 instances, max ratios {worst_gain:.3f}/{worst_dist:.3f}, {unstable} unstable, {elapsed:.1f}s",
    )


def test_04_half_of_optimum():
    rng = np.random.default_rng(RNG_BASE + 3)
    worst = np.inf
    for i in range(50):
        d = int(rng.integers(8, 13))
        k = int(rng.integers(2, 5))
        lam = (0.0, 0.5, 1.0)[i % 3]
        _, cache = instance_with_cache(seed=400 + i, d=d, n=20, t=2)
        cfg = weighted_cfg(cache, k=k, lam=lam, p=3)
        picked = greedy_select(range(d), GreedyVariant.ALTGREEDY, cfg, cache)
        opt = brute_force_opt(range(d), cfg, cache)
        ratio = h_value(picked, cfg, cache) / opt.value if opt.value > 0 else 1.0
        worst = min(worst, ratio)
    _verdict(4, "altgreedy-half-bound", worst >= 0.5 - 1e-9, f"50 instances, worst ratio {worst:.4f}")


# frozen 20-seed mean ratios of the 20 instances below, one run each
PINNED_MEAN_RATIOS = [
    0.985531, 0.999069, 0.999258, 1.000000, 0.993473,
    0.989651, 0.998027, 1.000000, 0.999683, 0.996620,
    1.000000, 0.998581, 1.000000, 0.999316, 0.999236,
    0.997098, 1.000000, 1.000000, 0.995305, 0.998805,
]


def test_05_distributed_ratio_floor_and_baselines():
    worst = np.inf
    drift = 0.0
    for i in range(20):
        data, cache = instance_with_cache(seed=100 + i, d=12, n=24, t=2)
        cfg = weighted_cfg(cache, k=3, lam=0.5, p=10)
        opt = brute_force_opt(range(12), cfg, cache)
        ratios = []
        for seed in range(20):
            rep = distributed_select(data, 3, cfg, m=3, seed=seed)
            ratios.append(rep.objective["h"] / opt.value)
        worst = min(worst, min(ratios))
        drift = max(drift, abs(float(np.mean(ratios)) - PINNED_MEAN_RATIOS[i]))
    ok = worst >= 1.0 / 31.0 - 1e-9 and drift <= 0.02
    _verdict(
        5,
        "distributed-ratio-floor",
        ok,
        f"400 runs, worst ratio {worst:.4f}, max baseline drift {drift:.6f}",
    )


def test_06_distributed_close_to_centralized():
    data = generate_synthesized(0)
    cache = InfoCache(data)
    t0 = time.perf_counter()
    worst = np.inf
    for k in (10, 16, 50):
        cfg = ObjectiveConfig.weighted(cache.mi_table(), k, 0.5, 10)
        central = centralized_select(data, k, cfg, GreedyVariant.ALTGREEDY, cache)
        m = math.isqrt(800 // k)
        if m * m < 800 / k:
            m += 1
        dist = distributed_select(data, k, cfg, m=m, seed=0)
        worst = min(worst, dist.objective["h"] / central.objective["h"])
    elapsed = time.perf_counter() - t0
    _verdict(
        6,
        "distributed-vs-centralized",
        worst >= 0.9 and elapsed < 120.0,
        f"k in 10/16/50, worst h ratio {worst:.4f}, {elapsed:.1f}s",
    )


def test_07_schedule_independent_determinism():
    data, cache = instance_with_cache(seed=7000, d=200, n=64, t=4)
    cfg = weighted_cfg(cache, k=10, lam=0.5, p=10)
    levels = sorted({1, 2, max(os.cpu_count() or 1, 4)})
    blobs = set()
    runs = 0
    for par in levels:
        for _ in range(10):
            rep = distributed_select(data, 10, cfg, m=5, seed=11, parallelism=par)
            blobs.add(json.dumps(rep.to_json_dict()["selected_ids"]).encode())
            runs += 1
    _verdict(
        7,
        "schedule-independence",
        len(blobs) == 1,
        f"{runs} runs across parallelism {levels}, {len(blobs)} distinct outputs",
    )


def test_08_streaming_equivalence_and_memory():
    mismatches = 0
    for i in range(20):
        data, cache = instance_with_cache(seed=800 + i, d=30, n=24, t=2)
        cfg = weighted_cfg(cache, k=5, lam=0.5, p=10)
        dist = distributed_select(data, 5, cfg, m=3, seed=i)
        stream = streaming_select(data, 5, cfg, m=3, seed=i)
        if dist.selected_ids != stream.selected_ids or dist.objective != stream.objective:
            mismatches += 1
    synth = generate_synthesized(0)
    cache = InfoCache(synth)
    cfg = ObjectiveConfig.weighted(cache.mi_table(), 16, 0.5, 10)
    rep = streaming_select(synth, 16, cfg, m=8, seed=0)
    bound = max(rep.plan.sizes()) + 8 * 16
    peak = rep.peak_retained_feature_columns
    _verdict(
        8,
        "streaming-equivalence-memory",
        mismatches == 0 and peak <= bound,
        f"{mismatches} mismatches, peak {peak} <= bound {bound}",
    )


def test_09_prediction_metrics():
    hand = multilabel_metrics([[1, 0], [1, 1]], [[1, 1], [0, 1]])
    rng = np.random.default_rng(RNG_BASE + 9)
    t = rng.integers(0, 2, size=(12, 5))
    perfect = multilabel_metrics(t, t)
    comp = multilabel_metrics(t, 1 - t)
    ok = (
        hand["subset_accuracy"] == 0.0
        and hand["example_accuracy"] == 0.5
        and hand["example_f"] == 2.0 / 3.0
        and hand["label_avg_f"] == 2.0 / 3.0
        and hand["pooled_f"] == 2.0 / 3.0
        and all(v == 1.0 for v in perfect.values())
        and all(v == 0.0 for v in comp.values())
    )
    _verdict(9, "prediction-metrics", ok, "hand 2x2 + perfect + complement")


def test_10_lambda_endpoints():
    rng = np.random.default_rng(RNG_BASE + 10)
    _, cache = instance_with_cache(seed=1000, d=20, n=24, t=3)
    hi = weighted_cfg(cache, k=5, lam=1.0, p=4)
    lo = weighted_cfg(cache, k=5, lam=0.0, p=4)
    worst = 0.0
    for _ in range(100):
        size = int(rng.integers(2, 9))
        ids = rng.choice(20, size=size, replace=False).tolist()
        worst = max(worst, abs(h_value(ids, hi, cache) - diversity(ids, cache)))
        worst = max(worst, abs(h_value(ids, lo, cache) - lo.relevance_scale * relevance_g(ids, lo)))
    _verdict(10, "lambda-endpoints", worst <= 1e-12, f"100 sets, max deviation {worst:.2e}")


@pytest.mark.skipif(USABLE_CPUS < 2, reason="a parallel speed-up cannot be measured on one usable CPU")
def test_11_distributed_speed_direction():
    # one worker per usable CPU: more would only time-slice the same cores.
    # On a 2-CPU VM this instance measured centralized 0.3-0.7 s against
    # distributed 0.3-0.5 s at parallelism 2, the calling process and one
    # forked worker each running half the machines side by side
    rng = np.random.default_rng(RNG_BASE + 11)
    feats = rng.integers(0, 4, size=(20000, 128))
    labels = rng.integers(0, 2, size=(4, 128))
    data = dataset_from_matrices(feats, labels)
    shared = InfoCache(data)
    cfg = ObjectiveConfig.weighted(shared.mi_table(), 50, 0.5, 10)
    workers = USABLE_CPUS
    wins, times = 0, []
    for trial in range(3):
        t0 = time.perf_counter()
        centralized_select(data, 50, cfg, GreedyVariant.ALTGREEDY, InfoCache(data))
        t_central = time.perf_counter() - t0
        t0 = time.perf_counter()
        distributed_select(data, 50, cfg, m=20, seed=trial, parallelism=workers)
        t_dist = time.perf_counter() - t0
        wins += 1 if t_dist < t_central else 0
        times.append(
            f"central {t_central * 1e3:.3f} ms vs distributed {t_dist * 1e3:.3f} ms, ratio {t_central / t_dist:.3f}"
        )
    detail = f"{wins}/3 trials faster with {workers} workers, one per usable CPU; " + "; ".join(times)
    _verdict(11, "distributed-speed-direction", wins == 3, detail)
