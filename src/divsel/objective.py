"""The selection objective: scaled label relevance plus pairwise diversity.

Relevance of a set S is, per label, the sum of the top_p largest normalized
MI values among S's features; diversity is the sum of pairwise distances
over unordered pairs. Both terms carry non-negative scale factors, so the
unweighted objective (both scales 1) and the lambda-weighted one are the
same machinery. Relevance is non-negative, monotone, and submodular;
scaled distances stay a pseudometric.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .info import InfoCache, entropies_and_planes, nvi_distance_spans


@dataclass(frozen=True, eq=False)
class ObjectiveConfig:
    """Weights and shared tables for one selection problem.

    ``mi_table`` has one row per feature (global id) and one column per
    label. ``diversity_weight`` echoes the lambda used to build a weighted
    config; it is None for a plain unweighted one.
    """

    mi_table: np.ndarray
    k: int
    top_p: int
    relevance_scale: float
    diversity_scale: float
    diversity_weight: float | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.top_p < 1:
            raise ValueError("top_p must be >= 1")
        if self.relevance_scale < 0 or self.diversity_scale < 0:
            raise ValueError("scales must be non-negative")
        if self.relevance_scale == 0 and self.diversity_scale == 0 and self.k > 1:
            raise ValueError("scales must not both be zero")
        table = np.asarray(self.mi_table, dtype=np.float64)
        if table.ndim != 2 or table.shape[1] < 1:
            raise ValueError("mi_table must be (n_features, n_labels)")
        # the greedy state's zero-seeded top-p buffer relies on MI >= 0
        if not (table >= 0.0).all():
            raise ValueError("mi_table entries must be non-negative")
        object.__setattr__(self, "mi_table", table)

    @property
    def n_labels(self) -> int:
        return self.mi_table.shape[1]

    @classmethod
    def weighted(cls, mi_table, k: int, lam: float, top_p: int = 10) -> "ObjectiveConfig":
        """Balanced objective: relevance scaled by
        (1 - lam) * k(k-1) / (2 * top_p * n_labels), diversity by lam.

        At k=1 both scales can be 0 (the pair normalization vanishes); the
        selection then degenerates to the highest-relevance single feature.
        """
        if not 0.0 <= lam <= 1.0:
            raise ValueError("lambda must be in [0, 1]")
        mi_table = np.asarray(mi_table, dtype=np.float64)
        n_labels = mi_table.shape[1]
        rel = (1.0 - lam) * (k * (k - 1)) / (2.0 * top_p * n_labels)
        return cls(mi_table, k, top_p, rel, lam, diversity_weight=lam)

    @classmethod
    def plain(cls, mi_table, k: int, top_p: int = 10) -> "ObjectiveConfig":
        """Unweighted objective: relevance plus diversity, both at scale 1."""
        return cls(mi_table, k, top_p, 1.0, 1.0)


def marginal_g_rows(mi_rows: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Relevance gain of each candidate row given per-label thresholds:
    one (n_labels,) row for all candidates, or one row per candidate."""
    gains = np.maximum(mi_rows - tau, 0.0)
    total = np.zeros(gains.shape[0], dtype=np.float64)
    for j in range(gains.shape[1]):
        total = total + gains[:, j]
    return total


def sorted_feature_ids(ids, n_features: int) -> np.ndarray:
    """``ids`` ascending as an int64 array; ValueError unless they are
    distinct feature ids in 0..n_features-1."""
    if isinstance(ids, np.ndarray) and ids.ndim == 1 and ids.dtype.kind in "iu":
        # an integer array, such as a machine's ids, sorts without Python ints
        ids = np.sort(ids.astype(np.int64))
    else:
        ids = np.asarray(sorted(int(i) for i in ids), dtype=np.int64)
    if ids.size and (ids[0] < 0 or ids[-1] >= n_features):
        raise ValueError("feature id out of range")
    if np.any(ids[1:] == ids[:-1]):
        raise ValueError("duplicate candidate ids")
    return ids


def relevance_g(selected, cfg: ObjectiveConfig) -> float:
    """Sum over labels of the top_p largest MI values among ``selected``,
    a set of feature ids.

    Zero on the empty set; with fewer than top_p features every value
    counts.
    """
    ids = sorted_feature_ids(selected, cfg.mi_table.shape[0])
    if ids.size == 0:
        return 0.0
    sub = cfg.mi_table[ids]
    take = min(cfg.top_p, ids.size)
    top = np.sort(sub, axis=0)[ids.size - take :]
    return float(np.sum(top.sum(axis=0)))


def diversity(selected, cache: InfoCache) -> float:
    """Sum of pairwise distances over unordered pairs of ``selected``, a
    set of feature ids.

    The ids are sorted and their rows gathered and packed once; each id is
    one job against the later ids, consecutive jobs share a batched kernel
    call of at most d pairs (one job alone may exceed it only if d is small),
    and the pairs are added in that (a, b) order from 0.0. A call's memory
    is thus that of one greedy step's distance row, whatever the number of
    ids. Nothing is memoized.
    """
    data = cache.data
    ids = sorted_feature_ids(selected, data.n_features)
    if ids.size < 2:
        return 0.0
    mat, cards = data.features[ids], data.feature_cards[ids]
    # planes wider than a job's rows need only add zero counts
    h, packed = entropies_and_planes(mat, cards)
    n = ids.size
    ends = np.cumsum(np.arange(n - 1, 0, -1))  # pairs through job a
    total, lo = 0.0, 0
    while lo < n - 1:
        done = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, done + data.n_features, side="right")))
        jobs = [(a, slice(a + 1, n), None if packed is None else packed[:, :, a + 1 :]) for a in range(lo, hi)]
        for row in nvi_distance_spans(mat, cards, h, jobs):
            for value in row.tolist():
                total += value
        lo = hi
    return total


def h_value(selected, cfg: ObjectiveConfig, cache: InfoCache) -> float:
    """relevance_scale * g(S) + diversity_scale * D(S)."""
    return cfg.relevance_scale * relevance_g(selected, cfg) + cfg.diversity_scale * diversity(
        selected, cache
    )


def _gather(cache: InfoCache, order: np.ndarray, bounds: np.ndarray):
    """Codes, cardinalities and entropies of the candidates in ``order``,
    and each group's bit planes: the cache's own arrays for every feature
    as one group, else gathered, and packed group by group."""
    data = cache.data
    # one group's ids are distinct, non-negative and ascending, so d of them
    # ending at d - 1 are 0..d-1 in order
    if bounds.size == 2 and order.size == data.n_features and order[-1] == order.size - 1:
        mat, cards, h, planes = cache.feature_arrays()
        return mat, cards, h, [planes]
    mat, cards = data.features[order], data.feature_cards[order]
    spans = [entropies_and_planes(mat[lo:hi], cards[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]
    return mat, cards, np.concatenate([h for h, _ in spans]), [planes for _, planes in spans]


class SelectionState:
    """Incremental companion of a greedy run over one group of candidates,
    or over several disjoint groups selected side by side.

    Group g owns the span ``bounds[g]:bounds[g + 1]`` of positions in
    ``order`` (its ids, ascending), ``picks[g]``, ``values[g]`` (its scaled
    objective) and ``top[g]``; it evolves exactly as it would alone. Per
    position, ``alive`` says whether it is still a candidate and
    ``dist_sum`` holds the running sum of raw distances to its group's
    selected set (positions already picked stop being read). ``top[g]``
    holds, per label, the largest MI values of the group's picks in
    min(top_p, largest group + 1) zero-seeded slots, so its minimum is the
    group's threshold: the p-th largest value, or 0 while the group has
    fewer than top_p picks (MI is non-negative). ``mi`` and ``tau`` hold,
    label-major, each position's MI and its group's current threshold, so
    a scoring pass reads every position of every group in place.
    ``columns`` holds the codes, cardinality and entropy per position and
    each group's bit planes, gathered from ``cache``'s dataset when the
    first distance row is computed.
    """

    def __init__(self, groups, cfg: ObjectiveConfig, cache: InfoCache):
        orders = [sorted_feature_ids(g, cfg.mi_table.shape[0]) for g in groups]
        if not orders or any(o.size == 0 for o in orders):
            raise ValueError("no candidates")
        self.cfg, self.cache = cfg, cache
        self.order = order = np.concatenate(orders)
        sizes = [o.size for o in orders]
        self.bounds = np.cumsum([0] + sizes)
        self._by_id = np.argsort(order, kind="stable")
        self._sorted = order[self._by_id]
        # equal ids sort side by side, so one comparison finds any repeat
        if np.any(self._sorted[1:] == self._sorted[:-1]):
            raise ValueError("duplicate candidate ids")
        n = order.size
        self.alive = np.ones(n, dtype=bool)
        self.dist_sum = np.zeros(n, dtype=np.float64)
        self.top = np.zeros((len(orders), cfg.n_labels, min(cfg.top_p, max(sizes) + 1)), dtype=np.float64)
        self.picks = [[] for _ in orders]
        self.values = np.zeros(len(orders), dtype=np.float64)
        self.group = np.repeat(np.arange(len(orders)), sizes)
        self._labels = np.arange(cfg.n_labels)
        self._spans = [slice(lo, hi) for lo, hi in zip(self.bounds[:-1].tolist(), self.bounds[1:].tolist())]
        self.mi = np.ascontiguousarray(cfg.mi_table[order].T)
        self.tau = np.zeros_like(self.mi)
        # the scoring pass's buffers; the relevance buffer is refreshed
        # whenever a threshold moved since it was last summed
        self._rel, self._score, self._term = np.empty(n), np.empty(n), np.empty(n)
        self._rel_stale = True
        # picked positions in pick order, the first _n_taken entries
        self._taken = np.empty(n, dtype=np.int64)
        self._n_taken = 0

    @cached_property
    def columns(self) -> tuple:
        """(mat, cards, h, planes): codes, cardinalities and entropies per
        position, and each group's bit planes."""
        return _gather(self.cache, self.order, self.bounds)

    def taus(self) -> np.ndarray:
        """Relevance thresholds of every group, shape (groups, n_labels)."""
        return self.top.min(axis=2)

    def relevance(self) -> np.ndarray:
        """Every position's relevance gain over its group's thresholds,
        summed label by label from 0.0 as ``marginal_g_rows`` adds them.
        The array is the state's own buffer: read it, do not keep it."""
        if self._rel_stale:
            rel, term = self._rel, self._term
            rel.fill(0.0)
            for mi, tau in zip(self.mi, self.tau):
                np.subtract(mi, tau, out=term)
                np.maximum(term, 0.0, out=term)
                rel += term
            self._rel_stale = False
        return self._rel

    def scores(self, weight) -> np.ndarray:
        """Every position's greedy score: its relevance gain when ``weight``
        is None, else weight * scaled relevance gain + scaled distance sum;
        picked positions read -inf. The array is the state's own buffer,
        rewritten by the next call."""
        cfg, score = self.cfg, self._score
        if weight is None:
            np.copyto(score, self.relevance())
        else:
            np.multiply(self.relevance(), cfg.relevance_scale, out=score)
            np.multiply(score, weight, out=score)
            np.multiply(self.dist_sum, cfg.diversity_scale, out=self._term)
            score += self._term
        score[self._taken[: self._n_taken]] = -np.inf
        return score

    def add(self, feature_ids) -> None:
        """Select one candidate in each of some groups (one id, or one id per
        picking group): update their objective values, thresholds, and the
        running distance sums of their other candidates. Each pick's
        distances are computed over its group's span, every group's in one
        batch."""
        ids = np.asarray(feature_ids, dtype=np.int64).reshape(-1)
        pos = self._by_id[np.minimum(np.searchsorted(self._sorted, ids), self.order.size - 1)]
        ok = self.alive[pos] & (self.order[pos] == ids)
        if not ok.all():
            raise ValueError(f"feature {ids[~ok][0]} is not an available candidate")
        groups = self.group[pos]
        picking = groups.tolist()
        if len(set(picking)) != len(picking):
            raise ValueError("at most one pick per group")
        cfg = self.cfg
        # the picks' relevance gains, as the scoring pass summed them
        self.values[groups] += cfg.relevance_scale * self.relevance()[pos] + cfg.diversity_scale * self.dist_sum[pos]
        # each picking group's minimum slot per label holds its threshold
        slots = (groups[:, None], self._labels, self.top[groups].argmin(axis=2))
        tau = self.top[slots]
        self.top[slots] = np.maximum(tau, cfg.mi_table[ids])
        new_tau = self.top[groups].min(axis=2)
        for i, label in zip(*(new_tau != tau).nonzero()):
            self.tau[label, self._spans[picking[i]]] = new_tau[i, label]
            self._rel_stale = True
        self.alive[pos] = False
        self._taken[self._n_taken : self._n_taken + pos.size] = pos
        self._n_taken += pos.size
        jobs = []
        for g, fid, p in zip(picking, ids.tolist(), pos.tolist()):
            picks = self.picks[g]
            picks.append(fid)
            span = self._spans[g]
            if len(picks) < span.stop - span.start:
                # the group still has a candidate to score
                jobs.append((p, span, g))
        if jobs:
            mat, cards, h, planes = self.columns
            rows = nvi_distance_spans(mat, cards, h, [(p, span, planes[g]) for p, span, g in jobs])
            for (_, span, _), row in zip(jobs, rows):
                self.dist_sum[span] += row
