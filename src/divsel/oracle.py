"""Exhaustive reference optimizer and approximation-ratio reports.

The oracle enumerates every k-subset of the candidates (within a hard
budget), evaluating the same scaled objective the greedy engines maximize.
It exists to verify the engines' guarantees on desk-scale instances, so its
evaluation path is deliberately separate from objective.h_value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import BudgetError, GuaranteeError
from .greedy import GreedyVariant, greedy_select
from .info import InfoCache
from .objective import ObjectiveConfig, sorted_feature_ids
from .runner import check_k, distributed_select, json_fields

DEFAULT_BUDGET = 2_000_000

# brute_force_opt enumerates and values this many subsets per block.
CHUNK = 8192

ALTGREEDY_RATIO = 0.5
DISTRIBUTED_RATIO = 1.0 / 31.0
RATIO_SLACK = 1e-9


def distance_matrix(ids, cache: InfoCache) -> np.ndarray:
    """Symmetric pairwise distance matrix over the given feature ids: one
    memoized distance row per id.
    The kernel gives d(a, b) == d(b, a) and d(a, a) == 0 exactly, so the
    rows form a symmetric matrix with a zero diagonal."""
    ids = np.asarray([int(i) for i in ids], dtype=np.int64)
    mat = np.zeros((ids.size, ids.size), dtype=np.float64)
    for a, i in enumerate(ids.tolist()):
        mat[a] = cache.distance_block(i, ids)
    return mat


def _combinations(c: int, k: int, chunk: int):
    """Every k-subset of range(c) in lexicographic order, as (rows, k) int64
    blocks of at most ``chunk`` rows whose columns are contiguous. Memory is
    O(chunk * k) whatever C(c, k) is.

    Lexicographic rank r of (a_0 < ... < a_{k-1}) is C(c, k) - 1 - N, where
    N = sum_i C(c - 1 - a_i, k - i) is the combinatorial-number-system rank
    of the reversed ids; a block unranks N greedily, one position at a time.
    """
    total = math.comb(c, k)
    # binom[m][b] = C(b, m) for b <= c - 1 - k + m, the entries position
    # k - m reads; all are at most C(c, k)
    binom = [np.ones(c - k, dtype=np.int64)]
    for _ in range(k):
        binom.append(np.concatenate(([0], np.cumsum(binom[-1]))))
    for start in range(0, total, chunk):
        rows = min(chunk, total - start)
        rest = np.arange(total - 1 - start, total - 1 - start - rows, -1, dtype=np.int64)
        block = np.empty((k, rows), dtype=np.int64)
        for i in range(k):
            table = binom[k - i]
            b = np.searchsorted(table, rest, side="right") - 1
            rest -= table[b]
            np.subtract(c - 1, b, out=block[i])
        yield block.T


def _values_for_combos(combos: np.ndarray, dmat: np.ndarray, mi_sub: np.ndarray, cfg: ObjectiveConfig) -> np.ndarray:
    """Objective value of each row of ``combos`` (positions into dmat and
    mi_sub), evaluated one position column at a time.

    Bit-identical to gathering each subset's (k, t) MI block, sorting it
    along positions and summing the top min(top_p, k) of them over
    positions, then over labels: pair distances are added in (a, b) order
    from 0.0, and bubble passes of compare-exchange, which only permute
    values, leave the top values in the same ascending order as the sort.
    """
    n, k = combos.shape
    c = dmat.shape[0]
    cols = [combos[:, a] for a in range(k)]
    dflat = dmat.reshape(-1)
    div = np.zeros(n, dtype=np.float64)
    flat = np.empty(n, dtype=np.int64)
    dist = np.empty(n, dtype=np.float64)
    for a in range(k - 1):
        row = cols[a] * c
        for b in range(a + 1, k):
            np.add(row, cols[b], out=flat)
            np.take(dflat, flat, out=dist)
            div += dist
    take = min(cfg.top_p, k)
    mi = [mi_sub.take(col, axis=0) for col in cols]
    spare = np.empty_like(mi[0])
    for p in range(take):
        # carry the running maximum from position 0 up to position k - 1 - p
        for j in range(k - 1 - p):
            np.minimum(mi[j], mi[j + 1], out=spare)
            np.maximum(mi[j], mi[j + 1], out=mi[j + 1])
            mi[j], spare = spare, mi[j]
    top = mi[k - take :]
    # numpy sums a (rows, take, t) block over positions pairwise when t == 1
    # and position by position otherwise
    if mi_sub.shape[1] == 1:
        rel = np.concatenate(top, axis=1).sum(axis=1)
    else:
        rel = top[0]
        for col in top[1:]:
            rel += col
        rel = rel.sum(axis=1)
    return cfg.relevance_scale * rel + cfg.diversity_scale * div


@dataclass(frozen=True)
class OracleResult:
    ids: tuple
    value: float
    n_evaluated: int


def subset_value(ids, cfg: ObjectiveConfig, cache: InfoCache) -> float:
    """Objective value of one subset, through the oracle's evaluator."""
    ids = sorted_feature_ids(ids, cfg.mi_table.shape[0])
    if ids.size == 0:
        return 0.0
    dmat = distance_matrix(ids, cache)
    mi_sub = cfg.mi_table[ids]
    combo = np.arange(ids.size, dtype=np.int64)[None, :]
    return float(_values_for_combos(combo, dmat, mi_sub, cfg)[0])


def brute_force_opt(candidates, cfg: ObjectiveConfig, cache: InfoCache, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Exact maximizer over all k-subsets of the candidates, k = ``cfg.k``.

    Refuses (BudgetError) when C(|candidates|, k) exceeds the budget and
    ValueError on fewer candidates than k or on duplicate or out-of-range
    ids. Subsets are enumerated and evaluated ``CHUNK`` at a time, so
    memory does not grow with C(|candidates|, k).
    Ties resolve to the lexicographically smallest id tuple; the result
    depends only on the candidate set.
    """
    ids = sorted_feature_ids(candidates, cfg.mi_table.shape[0])
    c, k = ids.size, cfg.k
    if k > c:
        raise ValueError("need 1 <= k <= |candidates|")
    total = math.comb(c, k)
    if total > budget:
        raise BudgetError(f"C({c}, {k}) = {total} subsets exceeds budget {budget}")
    dmat = distance_matrix(ids, cache)
    mi_sub = cfg.mi_table[ids]
    best_value = -np.inf
    best_combo = None
    seen = 0
    for combos in _combinations(c, k, CHUNK):
        values = _values_for_combos(combos, dmat, mi_sub, cfg)
        seen += combos.shape[0]
        local = int(np.argmax(values))
        if values[local] > best_value:
            best_value = float(values[local])
            best_combo = combos[local].copy()
    return OracleResult(tuple(int(i) for i in ids[best_combo]), best_value, seen)


@dataclass(frozen=True)
class ApproximationReport:
    """Greedy, half-relevance, and distributed outcomes against the oracle."""

    opt_ids: tuple
    opt_value: float
    greedy_ids: tuple
    greedy_ratio: float
    altgreedy_ids: tuple
    altgreedy_ratio: float
    distributed: tuple
    mean_distributed_ratio: float

    def to_json_dict(self) -> dict:
        return json_fields(self)


def approximation_report(
    data: Dataset,
    k: int,
    cfg: ObjectiveConfig,
    m: int,
    seeds,
    budget: int = DEFAULT_BUDGET,
    enforce: bool = True,
) -> ApproximationReport:
    """Compare both centralized variants and seeded distributed runs
    against the exact optimum of the same objective.

    All outputs are valued through the oracle's evaluator, so every ratio
    lies in [0, 1]. With ``enforce``, a half-relevance ratio below 1/2 or a
    distributed ratio below 1/31 (beyond fp slack) raises GuaranteeError.
    Empty ``seeds`` and the inputs ``runner.check_k`` refuses are refused
    before any subset is valued.
    """
    seeds = [int(seed) for seed in seeds]
    if not seeds:
        raise ValueError("seeds must name at least one seed")
    cache = InfoCache(data)
    check_k(data, k, cfg, cache)
    opt = brute_force_opt(range(data.n_features), cfg, cache, budget)

    def ratio(ids) -> float:
        if opt.value <= 0.0:
            return 1.0
        return subset_value(ids, cfg, cache) / opt.value

    greedy_ids = greedy_select(range(data.n_features), GreedyVariant.GREEDY, cfg, cache)
    alt_ids = greedy_select(range(data.n_features), GreedyVariant.ALTGREEDY, cfg, cache)
    greedy_ratio = ratio(greedy_ids)
    alt_ratio = ratio(alt_ids)
    runs = []
    violations = []
    if alt_ratio < ALTGREEDY_RATIO - RATIO_SLACK:
        violations.append(f"altgreedy ratio {alt_ratio} below {ALTGREEDY_RATIO}")
    for seed in seeds:
        report = distributed_select(data, k, cfg, m=m, seed=seed)
        r = ratio(report.selected_ids)
        runs.append({"seed": seed, "ids": [int(i) for i in report.selected_ids], "ratio": r})
        if r < DISTRIBUTED_RATIO - RATIO_SLACK:
            violations.append(f"distributed ratio {r} at seed {seed} below 1/31")
    if enforce and violations:
        raise GuaranteeError("; ".join(violations))
    mean_ratio = float(np.mean([r["ratio"] for r in runs]))
    return ApproximationReport(
        opt_ids=opt.ids,
        opt_value=opt.value,
        greedy_ids=tuple(greedy_ids),
        greedy_ratio=greedy_ratio,
        altgreedy_ids=tuple(alt_ids),
        altgreedy_ratio=alt_ratio,
        distributed=tuple(runs),
        mean_distributed_ratio=mean_ratio,
    )
