"""Exhaustive oracle: goldens, tie-breaking, budget, and the loose
distributed-merge bounds checked at desk scale."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from divsel.data import dataset_from_matrices
from divsel.errors import BudgetError
from divsel.greedy import GreedyVariant, greedy_select
from divsel.info import InfoCache
from divsel.objective import ObjectiveConfig, diversity, h_value, relevance_g
from divsel.oracle import (
    OracleResult,
    _combinations,
    _values_for_combos,
    approximation_report,
    brute_force_opt,
    distance_matrix,
    subset_value,
)
from divsel.runner import random_partition
from helpers import instance_with_cache, plain_cfg, weighted_cfg

# frozen from one run; reproduced below by an independent reverse-order scan
GOLDEN_OPT_IDS = (0, 3, 7)
GOLDEN_OPT_VALUE = 1.7315917660674351


def _sorting_values_for_combos(combos, dmat, mi_sub, cfg):
    """Reference evaluator: gathers each subset's (k, t) MI block and sorts
    it along positions."""
    k = combos.shape[1]
    div = np.zeros(combos.shape[0], dtype=np.float64)
    for a in range(k):
        for b in range(a + 1, k):
            div = div + dmat[combos[:, a], combos[:, b]]
    take = min(cfg.top_p, k)
    mi = mi_sub[combos]
    top = np.sort(mi, axis=1)[:, k - take :, :]
    rel = top.sum(axis=1).sum(axis=1)
    return cfg.relevance_scale * rel + cfg.diversity_scale * div


def _golden_instance():
    data, cache = instance_with_cache(seed=7, d=10, n=24, t=2)
    return data, cache, weighted_cfg(cache, k=3, lam=0.5, p=2)


def test_oracle_golden():
    _, cache, cfg = _golden_instance()
    opt = brute_force_opt(range(10), 3, cfg, cache)
    assert opt.ids == GOLDEN_OPT_IDS
    assert opt.value == pytest.approx(GOLDEN_OPT_VALUE, abs=1e-12)
    assert opt.n_evaluated == 120


def test_oracle_reverse_enumeration_cross_check():
    _, cache, cfg = _golden_instance()
    best_v, best_ids = -1.0, None
    for combo in itertools.combinations(reversed(range(10)), 3):
        v = subset_value(combo, cfg, cache)
        if v > best_v:
            best_v, best_ids = v, tuple(sorted(combo))
    assert best_ids == GOLDEN_OPT_IDS
    assert best_v == pytest.approx(GOLDEN_OPT_VALUE, abs=1e-12)


def test_oracle_candidate_order_irrelevant():
    _, cache, cfg = _golden_instance()
    rng = np.random.default_rng(70)
    base = brute_force_opt(range(10), 3, cfg, cache)
    for _ in range(3):
        perm = rng.permutation(10).tolist()
        again = brute_force_opt(perm, 3, cfg, cache)
        assert again.ids == base.ids
        assert again.value == base.value


def test_oracle_chunking_irrelevant():
    _, cache, cfg = _golden_instance()
    base = brute_force_opt(range(10), 3, cfg, cache)
    for chunk in (1, 7, math.comb(10, 3), math.comb(10, 3) + 1, 100000):
        again = brute_force_opt(range(10), 3, cfg, cache, chunk=chunk)
        assert (again.ids, again.value, again.n_evaluated) == (base.ids, base.value, 120)


@pytest.mark.parametrize("c,k", [(1, 1), (6, 1), (6, 6), (7, 3), (10, 4), (12, 7)])
def test_combinations_enumerate_in_lexicographic_order(c, k):
    expected = list(itertools.combinations(range(c), k))
    for chunk in (1, 5, len(expected), 100000):
        blocks = list(_combinations(c, k, chunk))
        assert all(0 < b.shape[0] <= chunk and b.shape[1] == k for b in blocks)
        assert [tuple(row) for b in blocks for row in b.tolist()] == expected


@pytest.mark.parametrize("t", [1, 2, 8])
@pytest.mark.parametrize("k", [1, 2, 5, 10])
def test_evaluator_bitwise_equals_sorting_reference(k, t):
    rng = np.random.default_rng(100 * k + t)
    c = 14
    dmat = rng.random((c, c))
    dmat = dmat + dmat.T
    np.fill_diagonal(dmat, 0.0)
    mi_sub = rng.random((c, t))
    mi_sub[rng.random((c, t)) < 0.2] = 0.0
    mi_sub[1] = mi_sub[0]  # exact ties across positions
    combos = np.sort(np.argsort(rng.random((500, c)), axis=1)[:, :k], axis=1)
    for top_p in sorted({max(1, k - 1), k, k + 1}):
        cfg = ObjectiveConfig(mi_sub, k, top_p, float(rng.random()), float(rng.random()))
        got = _values_for_combos(combos, dmat, mi_sub, cfg)
        ref = _sorting_values_for_combos(combos, dmat, mi_sub, cfg)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64)), top_p


def test_oracle_rejects_duplicate_ids():
    _, cache, cfg = _golden_instance()
    with pytest.raises(ValueError, match="duplicate candidate ids"):
        brute_force_opt([3, 3, 3, 3], 2, cfg, cache)
    with pytest.raises(ValueError, match="duplicate candidate ids"):
        subset_value([3, 3], cfg, cache)
    for ids in ([-1], [0, 10]):
        with pytest.raises(ValueError, match="out of range"):
            subset_value(ids, cfg, cache)
        with pytest.raises(ValueError, match="out of range"):
            brute_force_opt(ids, 1, cfg, cache)


def test_oracle_memory_does_not_grow_with_subset_count():
    # C(40, 5) = 658,008 subsets; the evaluator's temporaries are
    # O(chunk * k * t), about 2.6 MB at the default chunk
    _, cache = instance_with_cache(seed=73, d=40, n=64, t=4)
    cfg = weighted_cfg(cache, k=5, lam=0.5, p=3)
    tracemalloc.start()
    try:
        opt = brute_force_opt(range(40), 5, cfg, cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert opt.n_evaluated == 658008
    assert peak < 8_000_000


def test_oracle_whole_set_and_k1():
    _, cache, cfg = _golden_instance()
    whole = brute_force_opt(range(10), 10, cfg, cache)
    assert whole.ids == tuple(range(10))
    # weighted scaling vanishes at k=1, so compare under the plain objective
    plain1 = plain_cfg(cache, k=1, p=2)
    top = brute_force_opt(range(10), 1, plain1, cache)
    assert top.ids == (greedy_select(range(10), 1, GreedyVariant.GREEDY, plain1, cache)[0],)


@pytest.mark.parametrize("card_hi", [4, 40])
def test_distance_matrix_rows_equal_scalar_distances(card_hi):
    # card_hi 40 puts wide joint tables on the sorted-codes path
    data, cache = instance_with_cache(seed=72, d=10, n=60, t=2, card_hi=card_hi)
    ids = [7, 0, 3, 9, 4]
    mat = distance_matrix(ids, cache)
    scalar = InfoCache(data)
    for a, i in enumerate(ids):
        for b, j in enumerate(ids):
            assert mat[a, b] == (0.0 if i == j else scalar.distance(i, j))
    for bad in ([0, 10], [-1, 0]):
        with pytest.raises(ValueError, match="out of range"):
            distance_matrix(bad, InfoCache(data))


def test_oracle_budget_refusal():
    _, cache, cfg = _golden_instance()
    with pytest.raises(BudgetError, match="budget 100"):
        brute_force_opt(range(10), 3, cfg, cache, budget=100)
    with pytest.raises(ValueError):
        brute_force_opt(range(10), 0, cfg, cache)
    with pytest.raises(ValueError):
        brute_force_opt(range(10), 11, cfg, cache)


def test_oracle_lexicographic_tie_break():
    y = np.array([0, 1, 0, 1, 1, 0])
    data = dataset_from_matrices(np.array([y, y, y, y, y]), np.array([y]))
    cache = InfoCache(data)
    cfg = plain_cfg(cache, k=2, p=1)
    opt = brute_force_opt(range(5), 2, cfg, cache)
    # every pair has the same value; lexicographically smallest wins
    assert opt.ids == (0, 1)


def test_subset_value_matches_h_value():
    data, cache = instance_with_cache(seed=71, d=12, n=28, t=3)
    rng = np.random.default_rng(71)
    cfg = weighted_cfg(cache, k=4, lam=0.5, p=2)
    for _ in range(30):
        size = int(rng.integers(1, 7))
        ids = sorted(rng.choice(12, size=size, replace=False).tolist())
        assert subset_value(ids, cfg, cache) == pytest.approx(
            h_value(ids, cfg, cache), abs=1e-12
        )
    assert subset_value([], cfg, cache) == 0.0


def test_approximation_report_fields_and_bounds():
    data, cache = instance_with_cache(seed=72, d=11, n=24, t=2)
    cfg = weighted_cfg(cache, k=3, lam=0.5, p=2)
    rep = approximation_report(data, 3, cfg, m=2, seeds=[0, 1, 2])
    assert 0.0 <= rep.greedy_ratio <= 1.0 + 1e-9
    assert rep.altgreedy_ratio >= 0.5 - 1e-9
    assert len(rep.distributed) == 3
    for run in rep.distributed:
        assert run["ratio"] >= 1.0 / 31.0 - 1e-9
    assert rep.mean_distributed_ratio == pytest.approx(
        np.mean([r["ratio"] for r in rep.distributed]), abs=1e-12
    )
    doc = rep.to_json_dict()
    assert doc["opt_ids"] == list(rep.opt_ids)


def test_oracle_result_is_frozen():
    res = OracleResult((1, 2), 3.0, 10)
    with pytest.raises(AttributeError):
        res.value = 4.0


def test_distributed_merge_bounds_at_desk_scale():
    """Loose structural bounds relating the full optimum to the optimum of
    the union of per-machine picks: diversity of the former is at most 8.5
    times the objective of the latter, and its relevance at most 6 times
    that plus the seed-mean. Checked on one exhaustively solvable instance
    across 50 partition seeds."""
    data, cache = instance_with_cache(seed=77, d=24, n=24, t=2)
    cfg = plain_cfg(cache, k=10, p=3)
    opt = brute_force_opt(range(24), 10, cfg, cache)
    d_opt = diversity(opt.ids, cache)
    g_opt = relevance_g(opt.ids, cfg)

    union_vals = []
    for seed in range(50):
        plan = random_partition(24, 2, seed)
        union = []
        for ids in plan.machines():
            if ids.size:
                union.extend(greedy_select(ids, 10, GreedyVariant.GREEDY, cfg, cache))
        u_opt = brute_force_opt(union, min(10, len(union)), cfg, cache)
        union_vals.append(u_opt.value)
    mean_val = float(np.mean(union_vals))
    for val in union_vals:
        assert d_opt <= 8.5 * val + 1e-6
        assert g_opt <= 6.0 * val + mean_val + 1e-6
