"""Deterministic instance builders and bitwise references shared by the
test suites.

Instances plant some label-correlated features and some duplicate columns
so that both objective terms have signal; everything derives from the seed.
The references compute each value from an explicit joint count table,
or from one scalar ``nvi_distance`` per pair added in a fixed order. The
exhaustive optimum values every k-subset by the oracle search's own running
sums, without its bound, so it is the reference for the pruning only; the
independent checks of an oracle value are ``objective.h_value`` and the
sorting evaluator in ``test_oracle.py``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from divsel import oracle
from divsel.data import Dataset, dataset_from_matrices
from divsel.greedy import GreedyVariant, NicenessReport, greedy_state
from divsel.info import InfoCache, _as_codes, nvi_distance
from divsel.objective import ObjectiveConfig, marginal_g_rows, sorted_feature_ids


def random_instance(seed: int, d: int, n: int, t: int, card_hi: int = 4) -> Dataset:
    """Random dataset with planted structure.

    Roughly a third of the features are noisy label copies, a sixth are
    verbatim duplicates of an earlier feature, the rest are uniform draws
    over a random cardinality <= card_hi.
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=(t, n))
    feats = np.empty((d, n), dtype=np.int64)
    for i in range(d):
        kind = rng.random()
        if kind < 1 / 3:
            col = labels[rng.integers(0, t)].copy()
            flips = rng.choice(n, size=max(1, n // 4), replace=False)
            col[flips] = 1 - col[flips]
            feats[i] = col
        elif kind < 1 / 2 and i > 0:
            feats[i] = feats[rng.integers(0, i)]
        else:
            feats[i] = rng.integers(0, rng.integers(2, card_hi + 1), size=n)
    return dataset_from_matrices(feats, labels)


def instance_with_cache(seed: int, d: int, n: int, t: int, card_hi: int = 4):
    data = random_instance(seed, d, n, t, card_hi)
    return data, InfoCache(data)


def plain_cfg(cache: InfoCache, k: int, p: int = 10) -> ObjectiveConfig:
    return ObjectiveConfig.plain(cache.mi_table(), k, p)


def weighted_cfg(cache: InfoCache, k: int, lam: float, p: int = 10) -> ObjectiveConfig:
    return ObjectiveConfig.weighted(cache.mi_table(), k, lam, p)


class ContingencyTable:
    """Joint count matrix for a column pair plus its marginals."""

    def __init__(self, joint: np.ndarray, n: int):
        joint = np.asarray(joint, dtype=np.int64)
        if joint.ndim != 2:
            raise ValueError("joint must be a matrix")
        if int(joint.sum()) != n:
            raise ValueError("joint counts must total n")
        if joint.min() < 0:
            raise ValueError("counts must be non-negative")
        self.joint = joint
        self.n = n
        self.row_marginal = joint.sum(axis=1)
        self.col_marginal = joint.sum(axis=0)

    @classmethod
    def from_columns(cls, a, b) -> "ContingencyTable":
        a_codes, a_card = _as_codes(a)
        b_codes, b_card = _as_codes(b)
        if a_codes.size != b_codes.size:
            raise ValueError("column lengths differ")
        flat = a_codes.astype(np.int64) * b_card + b_codes
        joint = np.bincount(flat, minlength=a_card * b_card).reshape(a_card, b_card)
        return cls(joint, a_codes.size)


def pair_loop_diversity(selected, data: Dataset) -> float:
    """Sum of ``nvi_distance`` over the sorted ids' (a, b) pairs, from 0.0."""
    ids = sorted(int(i) for i in selected)
    rows = data.features
    total = 0.0
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            total += nvi_distance(rows[ids[a]], rows[ids[b]])
    return total


def pair_loop_niceness(
    candidates,
    cfg: ObjectiveConfig,
    cache: InfoCache,
    variant: GreedyVariant = GreedyVariant.GREEDY,
) -> NicenessReport:
    """``niceness_witness`` one rejected candidate at a time: its distance
    sum is ``nvi_distance`` to each selected id, added in selected order."""
    k = cfg.k
    ids = sorted(int(i) for i in candidates)
    state = greedy_state(ids, variant, cfg, cache)
    selected = state.picks[0]
    f_val = float(state.values[0])
    rows = cache.data.features
    max_gain = max_dist = 0.0
    stable = True
    for t in ids:
        if t in selected:
            continue
        dist_sum = 0.0
        for x in selected:
            dist_sum += nvi_distance(rows[t], rows[x])
        rel = float(marginal_g_rows(cfg.mi_table[t][None, :], state.taus()[0])[0])
        gain = cfg.relevance_scale * rel + cfg.diversity_scale * dist_sum
        weighted_dist = cfg.diversity_scale * dist_sum
        if f_val > 0.0:
            max_gain = max(max_gain, gain * k / f_val)
            max_dist = max(max_dist, weighted_dist * (k - 1) / f_val)
        elif gain > 0.0 or weighted_dist > 0.0:
            max_gain = max_dist = float("inf")
        rerun = greedy_state([i for i in ids if i != t], variant, cfg, cache)
        stable = stable and rerun.picks[0] == selected
    return NicenessReport(
        selected=tuple(selected),
        f_value=f_val,
        rejected_count=len(ids) - len(selected),
        max_gain_ratio=max_gain,
        max_distance_ratio=max_dist,
        removal_stable=stable,
    )


def lexicographic_blocks(c: int, k: int, chunk: int):
    """Every k-subset of range(c) in lexicographic order, as (rows, k)
    int64 blocks of at most ``chunk`` rows."""
    combos = itertools.combinations(range(c), k)
    while True:
        block = np.fromiter(itertools.islice(combos, chunk), dtype=np.dtype((np.int64, k)))
        if not block.size:
            return
        yield block


def leaf_values(search: oracle._Search, combos: np.ndarray) -> np.ndarray:
    """The search's value of each row of ``combos`` (ascending positions):
    the rows walked down ``root``/``expand``/``children`` together, without
    the bound, and each leaf read from expand's r = 1 bound as the search
    reads it."""
    pre, c, n = search.root(), search.positions.size, combos.shape[0]
    for a in range(combos.shape[1]):
        gain, bound, _ = search.expand(pre)
        # the root is one row that every combo extends
        flat = (np.arange(n) * c if a else 0) + combos[:, a]
        if a == combos.shape[1] - 1:
            return bound.reshape(-1)[flat]
        pre = search.children(pre, gain, flat)


def exhaustive_opt(candidates, cfg: ObjectiveConfig, cache: InfoCache) -> oracle.OracleResult:
    """``brute_force_opt`` by valuing every k-subset, ``oracle.CHUNK`` at a
    time with ``leaf_values``, keeping the first strict maximum."""
    ids = sorted_feature_ids(candidates, cfg.mi_table.shape[0])
    search = oracle._Search(oracle.distance_matrix(ids, cache), cfg.mi_table[ids], cfg, cfg.k)
    best_value, best = -np.inf, None
    for combos in lexicographic_blocks(ids.size, cfg.k, oracle.CHUNK):
        values = leaf_values(search, combos)
        at = int(np.argmax(values))
        if values[at] > best_value:
            best_value, best = float(values[at]), combos[at]
    total = math.comb(ids.size, cfg.k)
    return oracle.OracleResult(tuple(int(i) for i in ids[best]), best_value, total, total)
