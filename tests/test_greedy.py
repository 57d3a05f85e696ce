"""Greedy engines: goldens, tie-breaking, determinism, niceness bounds."""

import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from divsel.data import BinningSpec, Dataset, canonicalize, dataset_from_matrices
from divsel.greedy import (
    TIE_BAND,
    GreedyVariant,
    greedy_select,
    greedy_state,
    greedy_states,
    niceness_witness,
)
from divsel import greedy, info, objective
from divsel.info import InfoCache
from divsel.objective import ObjectiveConfig, SelectionState, h_value, marginal_g_rows, relevance_g
from divsel.oracle import brute_force_opt, subset_value
from helpers import instance_with_cache, pair_loop_niceness, plain_cfg, weighted_cfg

# frozen from one run over the seed-0 fixture; the same instance is
# re-validated against the exhaustive optimum below
GOLDEN_GREEDY = [0, 4, 7]
GOLDEN_ALTGREEDY = [0, 7, 4]
GOLDEN_OPT_IDS = (0, 4, 7)
GOLDEN_OPT_VALUE = 3.7592942512038254


def _fixture():
    data, cache = instance_with_cache(seed=0, d=8, n=16, t=2)
    return data, cache, plain_cfg(cache, k=3, p=2)


def test_golden_triples():
    _, cache, cfg = _fixture()
    assert greedy_select(range(8), 3, GreedyVariant.GREEDY, cfg, cache) == GOLDEN_GREEDY
    assert greedy_select(range(8), 3, GreedyVariant.ALTGREEDY, cfg, cache) == GOLDEN_ALTGREEDY


def test_golden_validated_against_oracle():
    _, cache, cfg = _fixture()
    opt = brute_force_opt(range(8), 3, cfg, cache)
    assert opt.ids == GOLDEN_OPT_IDS
    assert opt.value == pytest.approx(GOLDEN_OPT_VALUE, abs=1e-12)
    alt_value = subset_value(GOLDEN_ALTGREEDY, cfg, cache)
    assert alt_value >= 0.5 * opt.value - 1e-9


def _first(candidates, cfg, cache, variant=GreedyVariant.GREEDY):
    return greedy_select(candidates, 1, variant, cfg, cache)[0]


def test_select_first():
    _, cache, cfg = _fixture()
    sums = cfg.mi_table.sum(axis=1)
    best = int(np.argmax(sums))  # exhaustive scan of singleton relevance
    assert _first(range(8), cfg, cache) == best
    assert _first(range(8), cfg, cache, GreedyVariant.ALTGREEDY) == best
    assert _first([3], cfg, cache) == 3


def test_select_first_tie_goes_to_smallest_id():
    y = np.array([0, 1, 0, 1, 0, 1])
    data = dataset_from_matrices(np.array([y, y, 1 - y]), np.array([y]))
    cache = InfoCache(data)
    cfg = plain_cfg(cache, k=2, p=1)
    assert _first([1, 2, 0], cfg, cache) == 0
    assert _first([1, 2], cfg, cache) == 1


def test_candidates_fewer_than_k_returns_all():
    _, cache, cfg = _fixture()
    out = greedy_select([2, 5, 6], 10, GreedyVariant.GREEDY, cfg, cache)
    assert sorted(out) == [2, 5, 6]
    assert len(out) == 3


def test_k_below_one_rejected():
    _, cache, cfg = _fixture()
    with pytest.raises(ValueError):
        greedy_select(range(8), 0, GreedyVariant.GREEDY, cfg, cache)


def test_enumeration_order_does_not_matter():
    _, cache, cfg = _fixture()
    rng = np.random.default_rng(31)
    base = greedy_select(range(8), 3, GreedyVariant.ALTGREEDY, cfg, cache)
    for _ in range(5):
        perm = list(rng.permutation(8))
        assert greedy_select(perm, 3, GreedyVariant.ALTGREEDY, cfg, cache) == base


def _reference_greedy(candidates, k, variant, cfg, cache):
    """Quadratic reference: recompute every marginal from scratch."""
    remaining = sorted(int(i) for i in candidates)
    selected = []
    w = variant.relevance_weight
    while remaining and len(selected) < k:
        scores = []
        for u in remaining:
            if not selected:
                score = float(np.sum(cfg.mi_table[u]))
            else:
                gain_g = relevance_g(selected + [u], cfg) - relevance_g(selected, cfg)
                dist = sum(cache.distance(x, u) for x in selected)
                score = w * cfg.relevance_scale * gain_g + cfg.diversity_scale * dist
            scores.append(score)
        best = max(scores)
        pick = next(u for u, s in zip(remaining, scores) if s >= best - TIE_BAND)
        selected.append(pick)
        remaining.remove(pick)
    return selected


@pytest.mark.parametrize("variant", [GreedyVariant.GREEDY, GreedyVariant.ALTGREEDY])
def test_incremental_matches_quadratic_reference(variant):
    for seed in range(8):
        data, cache = instance_with_cache(seed=300 + seed, d=12, n=24, t=2)
        cfg = weighted_cfg(cache, k=5, lam=0.5, p=2)
        fast = greedy_select(range(12), 5, variant, cfg, cache)
        slow = _reference_greedy(range(12), 5, variant, cfg, InfoCache(data))
        assert fast == slow


def test_variants_share_first_pick_then_diverge_on_weight():
    _, cache, cfg = _fixture()
    g = greedy_select(range(8), 3, GreedyVariant.GREEDY, cfg, cache)
    a = greedy_select(range(8), 3, GreedyVariant.ALTGREEDY, cfg, cache)
    assert g[0] == a[0]


def test_duplicate_columns_tie_break_by_id():
    y = np.array([0, 0, 1, 1, 0, 1])
    z = np.array([0, 1, 0, 1, 1, 0])
    feats = np.array([y, y, y, z])
    data = dataset_from_matrices(feats, np.array([y]))
    cache = InfoCache(data)
    cfg = plain_cfg(cache, k=3, p=1)
    out = greedy_select(range(4), 3, GreedyVariant.GREEDY, cfg, cache)
    # duplicates of the label all tie; then the one distinct column is the
    # only candidate at positive distance; then ids 1 and 2 tie again
    assert out == [0, 3, 1]


def test_greedy_state_objective_tracks_h():
    data, cache = instance_with_cache(seed=33, d=10, n=30, t=2)
    cfg = weighted_cfg(cache, k=4, lam=0.5, p=2)
    state = greedy_state(range(10), 4, GreedyVariant.ALTGREEDY, cfg, cache)
    assert state.values[0] == pytest.approx(h_value(state.picks[0], cfg, InfoCache(data)), abs=1e-9)


def test_niceness_witness_validation():
    _, cache, cfg = _fixture()
    with pytest.raises(ValueError):
        niceness_witness(range(8), 3, cfg, cache)
    data, cache = instance_with_cache(seed=34, d=10, n=24, t=2)
    cfg = plain_cfg(cache, k=10, p=2)
    with pytest.raises(ValueError):
        niceness_witness(range(10), 10, cfg, cache)


def test_niceness_witness_single_instance():
    data, cache = instance_with_cache(seed=35, d=30, n=32, t=2)
    cfg = plain_cfg(cache, k=10, p=3)
    report = niceness_witness(range(30), 10, cfg, cache)
    assert report.rejected_count == 20
    assert report.max_gain_ratio <= 5.0 + 1e-9
    assert report.max_distance_ratio <= 4.5 + 1e-9
    assert report.removal_stable
    assert report.f_value == pytest.approx(
        subset_value(report.selected, cfg, cache), abs=1e-9
    )


def test_niceness_holds_under_lambda_weighting():
    # scaled distances stay a pseudometric and scaled relevance stays
    # submodular, so the same rejection bounds apply to the weighted objective
    for lam in (0.25, 0.75):
        data, cache = instance_with_cache(seed=36, d=32, n=32, t=2)
        cfg = weighted_cfg(cache, k=10, lam=lam, p=3)
        report = niceness_witness(range(32), 10, cfg, cache, check_stability=False)
        assert report.max_gain_ratio <= 5.0 + 1e-9
        assert report.max_distance_ratio <= 4.5 + 1e-9


def test_niceness_matches_pair_loop_reference():
    # distance sums from kernel rows and relevance gains from one batched
    # call give the one-candidate-at-a-time values exactly
    data, cache = instance_with_cache(seed=35, d=30, n=32, t=2)
    cfg = plain_cfg(cache, k=10, p=3)
    for variant in GreedyVariant:
        report = niceness_witness(range(30), 10, cfg, cache, variant)
        assert report == pair_loop_niceness(range(30), 10, cfg, InfoCache(data), variant)
    for lam in (0.25, 0.75):
        data, cache = instance_with_cache(seed=36, d=32, n=32, t=2)
        cfg = weighted_cfg(cache, k=10, lam=lam, p=3)
        report = niceness_witness(range(32), 10, cfg, cache, check_stability=False)
        assert report == pair_loop_niceness(range(32), 10, cfg, InfoCache(data), check_stability=False)


def test_greedy_never_beats_oracle():
    for seed in range(6):
        data, cache = instance_with_cache(seed=40 + seed, d=9, n=20, t=2)
        cfg = weighted_cfg(cache, k=3, lam=0.5, p=2)
        opt = brute_force_opt(range(9), 3, cfg, cache)
        for variant in GreedyVariant:
            ids = greedy_select(range(9), 3, variant, cfg, cache)
            assert subset_value(ids, cfg, cache) <= opt.value + 1e-9


@pytest.mark.parametrize("card_hi", [4, 40])
def test_groups_side_by_side_match_one_group_at_a_time(card_hi):
    # planted duplicates give exact ties; card_hi=40 makes joint tables wide
    rng = np.random.default_rng(card_hi)
    for seed in range(6):
        data, cache = instance_with_cache(seed=300 + seed, d=60, n=48, t=3, card_hi=card_hi)
        cfg = weighted_cfg(cache, k=int(rng.integers(1, 14)), lam=float(rng.choice([0.0, 0.5, 1.0])), p=3)
        cut = np.sort(rng.choice(np.arange(1, 60), size=int(rng.integers(0, 7)), replace=False))
        groups = np.split(rng.permutation(60), cut)  # some smaller than k
        for variant in GreedyVariant:
            alone = [greedy_state(g, cfg.k, variant, cfg, InfoCache(data)) for g in groups]
            state = greedy_states(groups, cfg.k, variant, cfg, InfoCache(data))
            assert state.picks == [s.picks[0] for s in alone]
            assert state.values.tolist() == [s.values[0] for s in alone]


def test_groups_that_run_out_before_between_and_after_live_groups():
    # groups of 2, 6, 1, 6 and 3 candidates at k = 5: the groups of 1, 2
    # and 3 run out after steps 1, 2 and 3, at the front, between the two
    # live groups and at the end of the position order
    data, cache = instance_with_cache(seed=39, d=18, n=30, t=2)
    cfg = weighted_cfg(cache, k=5, lam=0.5, p=2)
    groups = np.split(np.random.default_rng(39).permutation(18), [2, 8, 9, 15])
    for variant in GreedyVariant:
        alone = [greedy_state(g, 5, variant, cfg, InfoCache(data)) for g in groups]
        state = greedy_states(groups, 5, variant, cfg, InfoCache(data))
        assert [len(p) for p in state.picks] == [2, 5, 1, 5, 3]
        assert state.picks == [s.picks[0] for s in alone]
        assert state.values.tolist() == [s.values[0] for s in alone]


def test_picked_candidate_never_sets_its_groups_tie_floor():
    # diversity weighted 0 and p past every group hold every threshold at
    # 0, so each pick keeps its score, and the first pick of a group tops
    # it: only the -inf mask leaves each later step to the best candidate
    # still alive in each group
    data, cache = instance_with_cache(seed=38, d=24, n=30, t=2)
    cfg = weighted_cfg(cache, k=4, lam=0.0, p=13)
    groups = [list(range(0, 12)), list(range(12, 24))]
    state = SelectionState(groups, cfg, cache)
    hit = np.empty(24, dtype=bool)
    score = cfg.relevance_scale * marginal_g_rows(cfg.mi_table, np.zeros(2))
    for _ in range(4):
        expect = []
        for group, picked in zip(groups, state.picks):
            alive = [i for i in group if i not in picked]
            best = max(score[alive])
            expect.append(next(i for i in alive if score[i] >= best - TIE_BAND))
        picks = greedy._step(state, 1.0, hit)
        assert picks.tolist() == expect
        state.add(picks)
        assert (state.scores(1.0)[~state.alive] == -np.inf).all()
    assert state.taus().tolist() == [[0.0, 0.0], [0.0, 0.0]]
    assert [p[0] for p in state.picks] == [max(g, key=lambda i: (score[i], -i)) for g in groups]


def test_greedy_states_adds_once_per_step(monkeypatch):
    # one SelectionState.add per step, min(k, largest group) steps in all
    _, cache = instance_with_cache(seed=1, d=12, n=12, t=1)
    cfg = weighted_cfg(cache, k=2, lam=0.5)
    calls = []
    real = objective.SelectionState.add
    monkeypatch.setattr(objective.SelectionState, "add", lambda self, ids: calls.append(ids) or real(self, ids))
    for groups, k, steps in (([range(10)], 3, 3), ([range(2), range(2, 9)], 5, 5), ([range(3), range(3, 5)], 10, 3)):
        calls.clear()
        greedy_states(groups, k, GreedyVariant.GREEDY, cfg, cache)
        assert len(calls) == steps


def test_names_the_benchmark_tracer_replaces_exist():
    # benchmarks/tracing.py looks up every (owner, attribute) pair of its
    # _SPANNED, and greedy.marginal_g_rows, with vars() and wraps them
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    pairs = [(owner, attr) for owner, attr, _, _ in tracing._SPANNED] + [(greedy, "marginal_g_rows")]
    for owner, attr in pairs:
        found = vars(owner).get(attr)
        assert callable(getattr(found, "__func__", found)), f"{owner.__name__}.{attr}"


@pytest.mark.parametrize("machines", [1, 5])
def test_a_step_allocates_nothing_per_candidate(machines):
    # every position is scored in the state's own buffers: a step's
    # allocations stay below one byte per candidate, with relevance gains
    # summed afresh (p = 1 moves every threshold at the first pick)
    rng = np.random.default_rng(machines)
    data = dataset_from_matrices(rng.integers(0, 4, size=(6000, 32)), rng.integers(0, 2, size=(3, 32)))
    cache = InfoCache(data)
    cfg = weighted_cfg(cache, k=5, lam=0.5, p=1)
    state = SelectionState(np.array_split(np.arange(6000), machines), cfg, cache)
    hit = np.empty(6000, dtype=bool)
    for step in range(3):
        weight = None if step == 0 else 0.5
        tracemalloc.start()
        try:
            ids = greedy._step(state, weight, hit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6000
        state.add(ids)


def test_states_compute_every_pick_row(monkeypatch):
    # a single group computes each pick's row as one job of the kernel
    # entry nvi_distance_spans, also when the cache has memoized that row,
    # and its distance sums are the cache's rows added in pick order from
    # 0.0, bit for bit
    _, cache = instance_with_cache(seed=37, d=30, n=24, t=2)
    cfg = weighted_cfg(cache, k=8, lam=0.5, p=3)
    jobs = []
    real = objective.nvi_distance_spans
    monkeypatch.setattr(objective, "nvi_distance_spans", lambda *a: jobs.extend(a[3]) or real(*a))
    for candidates in (range(30), range(1, 30)):
        jobs.clear()
        state = greedy_state(candidates, 8, GreedyVariant.GREEDY, cfg, cache)
        assert len(jobs) == 8
        expect = np.zeros(state.order.size)
        for x in state.picks[0]:
            expect += cache.distance_block(x, state.order)
        assert state.dist_sum.tolist() == expect.tolist()


def test_groups_reject_bad_input():
    data, cache = instance_with_cache(seed=1, d=6, n=12, t=1)
    cfg = weighted_cfg(cache, k=2, lam=0.5)
    for groups in ([[0, 1], []], [[0, 1], [1, 2]], []):
        with pytest.raises(ValueError):
            greedy_states(groups, 2, GreedyVariant.GREEDY, cfg, cache)
    with pytest.raises(ValueError):
        greedy_states([[0, 1]], 0, GreedyVariant.GREEDY, cfg, cache)
    state = greedy_states([[0, 1, 2], [3, 4, 5]], 1, GreedyVariant.GREEDY, cfg, cache)
    left = state.order[state.alive]
    with pytest.raises(ValueError):
        state.add([int(left[0]), int(left[1])])  # two picks in one group


@pytest.mark.parametrize("widest", [40, 65])
def test_groups_with_mixed_column_sizes_pack_each_group_once(monkeypatch, widest):
    # the narrow group takes the packed path; in the others most joint
    # tables are wide, and the group holding a column of 65 values has no
    # bit planes at all. A step may pack its targets' own bit planes, but
    # never a group's candidates again after the state packed them once
    rng = np.random.default_rng(widest)
    narrow = rng.integers(0, 4, size=(40, 80))
    wide = rng.integers(0, 40, size=(20, 80))
    if widest > 40:
        wide[0] = np.arange(80) % widest
    raw = BinningSpec("none")
    feats = canonicalize(np.vstack([narrow, wide]), raw)[0]
    labels = rng.integers(0, 2, size=(2, 80))
    data = Dataset(feats, [f"f{i}" for i in range(60)], labels, ["y0", "y1"], 80)
    cfg = weighted_cfg(InfoCache(data), k=6, lam=0.5, p=3)
    groups = [np.arange(0, 20), np.arange(20, 50), np.arange(50, 60)]
    tops = [int(data.feature_cards[g].max()) for g in groups]
    assert tops[0] <= 4 and 16 < tops[2] <= 40 and (tops[1] == 65) == (widest == 65)
    alone = [greedy_select(g, 6, GreedyVariant.GREEDY, cfg, InfoCache(data)) for g in groups]
    packed_rows, counted_rows = [], []
    real_pack, real_counts = info.pack_codes, info._packed_counts

    def packing(mat, card):
        packed_rows.append(mat.shape[0])
        return real_pack(mat, card)

    def counting(t_bits, packed, out):
        counted_rows.append(packed.shape[2])
        return real_counts(t_bits, packed, out)

    monkeypatch.setattr(info, "pack_codes", packing)
    monkeypatch.setattr(info, "_packed_counts", counting)
    assert greedy_states(groups, 6, GreedyVariant.GREEDY, cfg, InfoCache(data)).picks == alone
    # each group with at most 64 values per column is packed once; any other
    # call packs at most one target per group
    assert sorted(r for r in packed_rows if r > len(groups)) == sorted(
        g.size for g, top in zip(groups, tops) if top <= 64
    )
    assert all(r <= len(groups) for r in packed_rows if r not in {g.size for g in groups})
    # the narrow group's entropies and each of its six rows take the packed
    # path; the others pack only their entropies, if at all
    assert counted_rows.count(20) == 7
    assert counted_rows.count(30) == (0 if widest == 65 else 1) and counted_rows.count(10) == 1
