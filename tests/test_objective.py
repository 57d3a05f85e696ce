"""Objective terms: relevance with the top-p operator, diversity, weighting,
and the incremental selection state."""

import numpy as np
import pytest

from divsel.data import dataset_from_matrices
from divsel.greedy import GreedyVariant, greedy_states
from divsel.info import InfoCache
from divsel.objective import (
    ObjectiveConfig,
    SelectionState,
    diversity,
    h_value,
    marginal_g_rows,
    relevance_g,
)
from helpers import instance_with_cache, pair_loop_diversity, random_instance, weighted_cfg

DIVERSITY_TRIPLE = 2.584962500721156


def _cfg_from_table(table, k=3, top_p=2, rel=1.0, div=1.0):
    return ObjectiveConfig(np.asarray(table, dtype=float), k, top_p, rel, div)


def _fixture_cache():
    u = [0, 0, 1, 1]
    v = [0, 1, 0, 1]
    w = [0, 0, 0, 1]
    data = dataset_from_matrices(np.array([u, v, w]), np.array([[0, 1, 0, 1]]))
    return data, InfoCache(data)


def test_relevance_hand_values():
    cfg = _cfg_from_table([[0.9], [0.5], [0.2]], top_p=2)
    assert relevance_g([], cfg) == 0.0
    assert relevance_g([0, 1, 2], cfg) == pytest.approx(1.4, abs=1e-15)
    assert relevance_g([1], cfg) == 0.5


def test_relevance_modular_when_p_covers_everything():
    rng = np.random.default_rng(21)
    table = rng.random((6, 1))
    cfg = _cfg_from_table(table, top_p=6)
    assert relevance_g(range(6), cfg) == pytest.approx(float(table.sum()), abs=1e-12)


def test_diversity_hand_values():
    _, cache = _fixture_cache()
    assert diversity([], cache) == 0.0
    assert diversity([1], cache) == 0.0
    assert diversity([0, 1, 2], cache) == pytest.approx(DIVERSITY_TRIPLE, abs=1e-15)


def test_diversity_of_duplicates_is_zero():
    data = dataset_from_matrices(np.array([[0, 1, 0, 1], [0, 1, 0, 1]]), np.array([[0, 0, 1, 1]]))
    assert diversity([0, 1], InfoCache(data)) == 0.0


def test_terms_refuse_ids_that_are_not_a_set_of_features():
    data, cache = instance_with_cache(seed=22, d=6, n=20, t=2)
    cfg = weighted_cfg(cache, k=2, lam=0.5, p=2)
    for ids, message in (([-1], "out of range"), ([6], "out of range"), ([0, 7], "out of range"), ([3, 3], "duplicate")):
        for term in (lambda s: relevance_g(s, cfg), lambda s: diversity(s, cache), lambda s: h_value(s, cfg, cache)):
            with pytest.raises(ValueError, match=message):
                term(ids)


def _bits(x):
    return int(np.float64(x).view(np.int64))


@pytest.mark.parametrize("card_hi", [4, 40])
def test_diversity_matches_pair_loop_bitwise(card_hi):
    # card_hi=4 keeps every kernel call on the packed path; card_hi=40 sends
    # most of them through sorted joint codes
    data = random_instance(seed=70 + card_hi, d=40, n=48, t=2, card_hi=card_hi)
    rng = np.random.default_rng(card_hi)
    for size in (0, 1, 2, 12):
        ids = rng.choice(40, size=size, replace=False).tolist()
        cache = InfoCache(data)
        assert _bits(diversity(ids, cache)) == _bits(pair_loop_diversity(ids, data))
        # no distance row is memoized
        assert cache._rows == {}
    with pytest.raises(ValueError):
        diversity([0, 40], InfoCache(data))
    # all 40 ids make 780 pairs, many more than d: most calls hold one job
    ids = range(40)
    assert _bits(diversity(ids, InfoCache(data))) == _bits(pair_loop_diversity(ids, data))
    # 70 of 2100 ids make 2415 pairs in two calls of at most d pairs; the
    # first holds 2090 on the packed path
    data = random_instance(seed=90 + card_hi, d=2100, n=48, t=2, card_hi=card_hi)
    ids = rng.choice(2100, size=70, replace=False).tolist()
    assert _bits(diversity(ids, InfoCache(data))) == _bits(pair_loop_diversity(ids, data))


def test_h_value_lambda_midpoint():
    # k=2, p=1, one label: relevance scale (1-0.5)*2*1/(2*1*1) = 0.5
    _, cache = _fixture_cache()
    cfg = ObjectiveConfig.weighted(cache.mi_table(), k=2, lam=0.5, top_p=1)
    assert cfg.relevance_scale == 0.5
    assert cfg.diversity_scale == 0.5
    g = relevance_g([0, 1, 2], cfg)
    assert g == 1.0  # feature v equals the label, NMI 1 dominates at p=1
    assert h_value([0, 1, 2], cfg, cache) == pytest.approx(
        0.5 * 1.0 + 0.5 * DIVERSITY_TRIPLE, abs=1e-12
    )


def test_h_value_endpoints_are_exact():
    _, cache = _fixture_cache()
    lam1 = ObjectiveConfig.weighted(cache.mi_table(), k=3, lam=1.0, top_p=1)
    assert h_value([0, 1, 2], lam1, cache) == diversity([0, 1, 2], cache)
    lam0 = ObjectiveConfig.weighted(cache.mi_table(), k=3, lam=0.0, top_p=1)
    scale = 3 * 2 / (2.0 * 1 * 1)
    assert h_value([0, 1, 2], lam0, cache) == scale * relevance_g([0, 1, 2], lam0)


def _one_group(cfg, candidates):
    """A one-group state over ``candidates``; its distances come from a
    random dataset with one feature per ``mi_table`` row."""
    data = random_instance(seed=0, d=cfg.mi_table.shape[0], n=12, t=1)
    return SelectionState([candidates], cfg, InfoCache(data))


def marginal_g(feature_id, cfg, state):
    """g(S + {x}) - g(S) for the state's current selection (unscaled)."""
    return float(marginal_g_rows(cfg.mi_table[[feature_id]], state.taus()[0])[0])


def test_marginal_g_hand_values():
    cfg = _cfg_from_table([[0.9], [0.5], [0.4], [0.7]], top_p=2)
    state = _one_group(cfg, range(4))
    assert marginal_g(2, cfg, state) == 0.4  # empty set: full MI counts
    state.add(0)
    state.add(1)
    assert marginal_g(2, cfg, state) == 0.0  # below the 2nd largest
    assert marginal_g(3, cfg, state) == pytest.approx(0.2, abs=1e-15)


def test_marginal_matches_set_difference():
    rng = np.random.default_rng(22)
    table = rng.random((12, 3))
    cfg = _cfg_from_table(table, top_p=2)
    for _ in range(200):
        size = int(rng.integers(0, 8))
        chosen = list(rng.choice(12, size=size, replace=False))
        x = int(rng.choice([i for i in range(12) if i not in chosen]))
        state = _one_group(cfg, range(12))
        for c in chosen:
            state.add(c)
        expect = relevance_g(chosen + [x], cfg) - relevance_g(chosen, cfg)
        assert marginal_g(x, cfg, state) == pytest.approx(expect, abs=1e-9)


def test_state_tau_matches_sorted_tail():
    # p up to and past the group's 10 candidates; rows drawn from a few
    # values give exact ties and zeros
    rng = np.random.default_rng(23)
    for table in (rng.random((10, 2)), rng.choice([0.0, 0.25, 0.5, 1.0], size=(10, 2))):
        for p in (1, 2, 4, 10, 11, 25):
            state = _one_group(_cfg_from_table(table, top_p=p), range(10))
            assert state.top.shape == (1, 2, min(p, 11))
            for step in range(10):
                state.add(step)
                if step + 1 < p:
                    assert state.taus()[0].tolist() == [0.0, 0.0]
                else:
                    expect = np.sort(table[: step + 1], axis=0)[step + 1 - p]
                    assert state.taus()[0].tolist() == expect.tolist()


def test_huge_top_p_selects_as_p_past_every_feature():
    # p far past the candidates must not size a buffer by p
    data, cache = instance_with_cache(seed=27, d=20, n=30, t=3)
    huge = ObjectiveConfig.plain(cache.mi_table(), k=8, top_p=10**12)
    past = ObjectiveConfig.plain(cache.mi_table(), k=8, top_p=21)
    for groups in ([range(20)], [range(0, 20, 2), range(1, 20, 2)]):
        found = greedy_states(groups, 8, GreedyVariant.GREEDY, huge, cache)
        expect = greedy_states(groups, 8, GreedyVariant.GREEDY, past, cache)
        assert found.picks == expect.picks
        assert found.values.tolist() == expect.values.tolist()


def test_config_validation():
    table = np.array([[0.5], [0.3]])
    with pytest.raises(ValueError):
        ObjectiveConfig(table, 0, 1, 1.0, 1.0)
    with pytest.raises(ValueError):
        ObjectiveConfig(table, 2, 0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ObjectiveConfig(table, 2, 1, -1.0, 1.0)
    with pytest.raises(ValueError):
        ObjectiveConfig(table, 2, 1, 0.0, 0.0)
    with pytest.raises(ValueError):
        ObjectiveConfig.weighted(table, 2, 1.5)
    # the greedy state's thresholds assume MI >= 0
    for bad in (-1e-300, np.nan):
        with pytest.raises(ValueError, match="non-negative"):
            ObjectiveConfig(np.array([[0.5], [bad]]), 2, 1, 1.0, 1.0)
        with pytest.raises(ValueError, match="non-negative"):
            ObjectiveConfig.plain(np.array([[bad, 0.5]]), 1)
    # k=1 with lambda=0 collapses both scales; allowed, selection is the top single
    cfg = ObjectiveConfig.weighted(table, 1, 0.0)
    assert cfg.relevance_scale == 0.0 and cfg.diversity_scale == 0.0


def test_weighted_scale_formula():
    table = np.zeros((4, 5))
    cfg = ObjectiveConfig.weighted(table, k=7, lam=0.25, top_p=10)
    assert cfg.relevance_scale == pytest.approx(0.75 * 7 * 6 / (2 * 10 * 5), abs=1e-15)
    assert cfg.diversity_scale == 0.25
    assert cfg.diversity_weight == 0.25
    assert cfg.n_labels == 5


def test_submodularity_and_monotonicity_quick():
    rng = np.random.default_rng(24)
    data, cache = instance_with_cache(seed=24, d=15, n=32, t=3)
    for p in (1, 2, 15):
        cfg = ObjectiveConfig.plain(cache.mi_table(), k=4, top_p=p)
        for _ in range(100):
            t_size = int(rng.integers(1, 10))
            t_set = sorted(rng.choice(15, size=t_size, replace=False).tolist())
            s_set = sorted(rng.choice(t_set, size=int(rng.integers(0, t_size)), replace=False).tolist())
            outside = [i for i in range(15) if i not in t_set]
            if not outside:
                continue
            x = int(rng.choice(outside))
            gs = relevance_g(s_set, cfg)
            gt = relevance_g(t_set, cfg)
            assert gs >= 0.0 and gt >= gs - 1e-9
            d_s = relevance_g(s_set + [x], cfg) - gs
            d_t = relevance_g(t_set + [x], cfg) - gt
            assert d_s >= d_t - 1e-9


def test_selection_state_invariants():
    data, cache = instance_with_cache(seed=25, d=14, n=40, t=2)
    cfg = weighted_cfg(cache, k=6, lam=0.5, p=3)
    state = SelectionState([range(14)], cfg, cache)
    rng = np.random.default_rng(25)
    scratch = InfoCache(data)
    selected = state.picks[0]
    while len(selected) < 6:
        pick = int(rng.choice(state.order[state.alive]))
        state.add(pick)
        assert state.values[0] == pytest.approx(h_value(selected, cfg, scratch), abs=1e-9)
        for pos in state.alive.nonzero()[0]:
            u = int(state.order[pos])
            expect = sum(scratch.distance(x, u) for x in selected)
            assert state.dist_sum[pos] == pytest.approx(expect, abs=1e-9)


def test_selection_state_rejects_bad_adds():
    _, cache = instance_with_cache(seed=26, d=6, n=20, t=2)
    cfg = weighted_cfg(cache, k=3, lam=0.5)
    state = SelectionState([range(6)], cfg, cache)
    state.add(2)
    with pytest.raises(ValueError):
        state.add(2)
    with pytest.raises(ValueError):
        state.add(77)
    with pytest.raises(ValueError):
        SelectionState([[]], cfg, cache)
    # a repeat within a group, or an id in two groups
    for groups in ([[1, 1, 2]], [[0, 1], [1, 2]], [[3], [0, 5], [3]]):
        with pytest.raises(ValueError, match="duplicate candidate ids"):
            SelectionState(groups, cfg, cache)
    for ids in ([0, 6], [-1, 0]):
        with pytest.raises(ValueError, match="out of range"):
            SelectionState([ids], cfg, cache)
