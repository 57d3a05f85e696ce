"""Exhaustive reference optimizer and approximation-ratio reports.

The oracle enumerates every k-subset of the candidates (within a hard
budget), evaluating the same scaled objective the greedy engines maximize.
It exists to verify the engines' guarantees on desk-scale instances, so its
evaluation path is deliberately separate from objective.h_value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import BudgetError, GuaranteeError
from .greedy import GreedyVariant, greedy_select
from .info import InfoCache
from .objective import ObjectiveConfig
from .runner import distributed_select

DEFAULT_BUDGET = 2_000_000

ALTGREEDY_RATIO = 0.5
DISTRIBUTED_RATIO = 1.0 / 31.0
RATIO_SLACK = 1e-9


def distance_matrix(ids, cache: InfoCache) -> np.ndarray:
    """Symmetric pairwise distance matrix over the given feature ids, which
    must lie in the cache's universe: one memoized distance row per id.
    The kernel gives d(a, b) == d(b, a) and d(a, a) == 0 exactly, so the
    rows form a symmetric matrix with a zero diagonal."""
    ids = np.asarray([int(i) for i in ids], dtype=np.int64)
    mat = np.zeros((ids.size, ids.size), dtype=np.float64)
    for a, i in enumerate(ids.tolist()):
        mat[a] = cache.distance_block(i, ids)
    return mat


def _values_for_combos(combos: np.ndarray, dmat: np.ndarray, mi_sub: np.ndarray, cfg: ObjectiveConfig) -> np.ndarray:
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


@dataclass(frozen=True)
class OracleResult:
    ids: tuple
    value: float
    n_evaluated: int


def subset_value(ids, cfg: ObjectiveConfig, cache: InfoCache) -> float:
    """Objective value of one subset, through the oracle's evaluator."""
    ids = sorted(int(i) for i in ids)
    if not ids:
        return 0.0
    dmat = distance_matrix(ids, cache)
    mi_sub = cfg.mi_table[np.asarray(ids, dtype=np.int64)]
    combo = np.arange(len(ids), dtype=np.int64)[None, :]
    return float(_values_for_combos(combo, dmat, mi_sub, cfg)[0])


def brute_force_opt(
    candidates,
    k: int,
    cfg: ObjectiveConfig,
    cache: InfoCache,
    budget: int = DEFAULT_BUDGET,
    chunk: int = 65536,
) -> OracleResult:
    """Exact maximizer over all k-subsets of the candidates.

    Refuses (BudgetError) when C(|candidates|, k) exceeds the budget. Ties
    resolve to the lexicographically smallest id tuple; the result depends
    only on the candidate set.
    """
    ids = sorted(int(i) for i in candidates)
    c = len(ids)
    if not 1 <= k <= c:
        raise ValueError("need 1 <= k <= |candidates|")
    total = math.comb(c, k)
    if total > budget:
        raise BudgetError(f"C({c}, {k}) = {total} subsets exceeds budget {budget}")
    dmat = distance_matrix(ids, cache)
    mi_sub = cfg.mi_table[np.asarray(ids, dtype=np.int64)]
    best_value = -np.inf
    best_combo = None
    seen = 0
    gen = itertools.combinations(range(c), k)
    while True:
        block = list(itertools.islice(gen, chunk))
        if not block:
            break
        combos = np.asarray(block, dtype=np.int64)
        values = _values_for_combos(combos, dmat, mi_sub, cfg)
        seen += combos.shape[0]
        local = int(np.argmax(values))
        if values[local] > best_value:
            best_value = float(values[local])
            best_combo = combos[local]
    id_arr = np.asarray(ids, dtype=np.int64)
    return OracleResult(tuple(int(i) for i in id_arr[best_combo]), best_value, seen)


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
        return {
            "opt_ids": list(self.opt_ids),
            "opt_value": self.opt_value,
            "greedy_ids": list(self.greedy_ids),
            "greedy_ratio": self.greedy_ratio,
            "altgreedy_ids": list(self.altgreedy_ids),
            "altgreedy_ratio": self.altgreedy_ratio,
            "distributed": [dict(d) for d in self.distributed],
            "mean_distributed_ratio": self.mean_distributed_ratio,
        }


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
    """
    cache = InfoCache(data)
    opt = brute_force_opt(range(data.n_features), k, cfg, cache, budget)

    def ratio(ids) -> float:
        if opt.value <= 0.0:
            return 1.0
        return subset_value(ids, cfg, cache) / opt.value

    greedy_ids = greedy_select(range(data.n_features), k, GreedyVariant.GREEDY, cfg, cache)
    alt_ids = greedy_select(range(data.n_features), k, GreedyVariant.ALTGREEDY, cfg, cache)
    greedy_ratio = ratio(greedy_ids)
    alt_ratio = ratio(alt_ids)
    runs = []
    violations = []
    if alt_ratio < ALTGREEDY_RATIO - RATIO_SLACK:
        violations.append(f"altgreedy ratio {alt_ratio} below {ALTGREEDY_RATIO}")
    for seed in seeds:
        report = distributed_select(data, k, cfg, m=m, seed=int(seed))
        r = ratio(report.selected_ids)
        runs.append(
            {"seed": int(seed), "ids": [int(i) for i in report.selected_ids], "ratio": r}
        )
        if r < DISTRIBUTED_RATIO - RATIO_SLACK:
            violations.append(f"distributed ratio {r} at seed {seed} below 1/31")
    if enforce and violations:
        raise GuaranteeError("; ".join(violations))
    mean_ratio = float(np.mean([r["ratio"] for r in runs])) if runs else float("nan")
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
