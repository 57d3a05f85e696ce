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

from .info import InfoCache, entropies_and_planes, nvi_distance_rows, nvi_distance_spans


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


class TopPTracker:
    """Per-label running top-``p`` MI values of the selected features, for
    one group of candidates or for several groups side by side.

    Keeps only a (groups, n_labels, p) buffer. A group's threshold is the
    p-th largest value inserted into it per label, or 0 while it holds fewer
    than p, which makes max(0, mi - tau) the exact relevance gain of a
    candidate.
    """

    def __init__(self, n_labels: int, top_p: int, groups: int = 1):
        self.top_p = top_p
        self.n_labels = n_labels
        self._top = np.zeros((groups, n_labels, top_p), dtype=np.float64)
        self._count = np.zeros(groups, dtype=np.int64)
        self._taus = np.zeros((groups, n_labels), dtype=np.float64)

    def _only(self, per_group):
        if len(per_group) != 1:
            raise ValueError("the tracker holds several groups")
        return per_group[0]

    @property
    def counts(self) -> np.ndarray:
        """Values inserted into each group so far."""
        return self._count

    def taus(self) -> np.ndarray:
        """Thresholds of every group, shape (groups, n_labels), read-only."""
        view = self._taus.view()
        view.flags.writeable = False
        return view

    def tau(self) -> np.ndarray:
        return self._only(self.taus())

    def insert_rows(self, groups: np.ndarray, mi_rows: np.ndarray) -> None:
        """Insert ``mi_rows[i]`` into group ``groups[i]``; groups distinct."""
        fill = self._count[groups] < self.top_p
        self._top[groups[fill], :, self._count[groups[fill]]] = mi_rows[fill]
        full, rows = groups[~fill], mi_rows[~fill]
        if full.size:
            slot = self._top[full].argmin(axis=2)
            current = self._top[full[:, None], np.arange(self.n_labels), slot]
            i, label = np.nonzero(rows > current)
            self._top[full[i], label, slot[i, label]] = rows[i, label]
        self._count[groups] += 1
        full = groups[self._count[groups] >= self.top_p]
        self._taus[full] = self._top[full].min(axis=2)

    def insert(self, mi_row: np.ndarray) -> None:
        self._only(self._count)
        self.insert_rows(np.zeros(1, dtype=np.int64), np.asarray(mi_row, dtype=np.float64)[None, :])


def marginal_g_rows(mi_rows: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Relevance gain of each candidate row given per-label thresholds:
    one (n_labels,) row for all candidates, or one row per candidate."""
    gains = np.maximum(mi_rows - tau, 0.0)
    total = np.zeros(gains.shape[0], dtype=np.float64)
    for j in range(gains.shape[1]):
        total = total + gains[:, j]
    return total


def relevance_g(selected, cfg: ObjectiveConfig) -> float:
    """Sum over labels of the top_p largest MI values among ``selected``.

    Zero on the empty set; with fewer than top_p features every value
    counts.
    """
    ids = np.asarray(sorted(int(i) for i in selected), dtype=np.int64)
    if ids.size == 0:
        return 0.0
    sub = cfg.mi_table[ids]
    take = min(cfg.top_p, ids.size)
    top = np.sort(sub, axis=0)[ids.size - take :]
    return float(np.sum(top.sum(axis=0)))


def diversity(selected, cache: InfoCache) -> float:
    """Sum of pairwise distances over unordered pairs of ``selected``.

    The ids are sorted and their rows gathered and packed once; each id is
    one kernel call against the later ids, and the pairs are added in that
    (a, b) order from 0.0. Nothing is memoized.
    """
    ids = np.asarray(sorted(int(i) for i in selected), dtype=np.int64)
    data = cache.data
    if ids.size and (ids[0] < 0 or ids[-1] >= data.n_features):
        raise ValueError("feature id out of range")
    if ids.size < 2:
        return 0.0
    mat, cards = data.feature_matrix[ids], data.feature_cards[ids]
    # planes wider than a call's rows need only add zero counts
    h, packed = entropies_and_planes(mat, cards)
    total = 0.0
    for a in range(ids.size - 1):
        rest = None if packed is None else packed[:, :, a + 1 :]
        row = nvi_distance_rows(mat[a], cards[a], h[a], mat[a + 1 :], cards[a + 1 :], h[a + 1 :], packed=rest)
        for value in row.tolist():
            total += value
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
    mat, cards = data.feature_matrix[order], data.feature_cards[order]
    spans = [entropies_and_planes(mat[lo:hi], cards[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]
    return mat, cards, np.concatenate([h for h, _ in spans]), [planes for _, planes in spans]


@dataclass
class SelectionState:
    """Incremental companion of a greedy run over one group of candidates,
    or over several disjoint groups selected side by side.

    Group g owns the span ``bounds[g]:bounds[g + 1]`` of positions in
    ``order`` (its ids, ascending), ``picks[g]``, ``values[g]`` (its scaled
    objective) and its row of ``tracker``; it evolves exactly as it would
    alone. Per position, ``mi`` holds the MI row and ``dist_sum`` the
    running sum of raw distances to its group's selected set (positions
    already picked stop being read). ``columns`` holds the codes,
    cardinality and entropy per position and each group's bit planes,
    gathered from ``cache``'s dataset when the first distance row must be
    computed, so a run whose every pick has a memoized row never gathers.
    ``selected`` and ``objective_value`` are the single group's.
    """

    cfg: ObjectiveConfig
    cache: InfoCache | None
    order: np.ndarray
    bounds: np.ndarray
    mi: np.ndarray
    alive: np.ndarray
    dist_sum: np.ndarray
    tracker: TopPTracker
    picks: list
    values: np.ndarray

    def __post_init__(self):
        self.group = np.repeat(np.arange(len(self.picks)), np.diff(self.bounds))
        self._by_id = np.argsort(self.order, kind="stable")
        self._sorted = self.order[self._by_id]

    @classmethod
    def start(cls, candidates, cfg: ObjectiveConfig, cache: InfoCache | None) -> "SelectionState":
        return cls.start_groups([candidates], cfg, cache)

    @classmethod
    def start_groups(cls, groups, cfg: ObjectiveConfig, cache: InfoCache | None) -> "SelectionState":
        orders = [np.asarray(sorted(int(i) for i in g), dtype=np.int64) for g in groups]
        if not orders or any(o.size == 0 for o in orders):
            raise ValueError("no candidates")
        order = np.concatenate(orders)
        if np.unique(order).size != order.size:
            raise ValueError("duplicate candidate ids")
        if order.min() < 0 or order.max() >= cfg.mi_table.shape[0]:
            raise ValueError("feature id out of range")
        bounds = np.cumsum([0] + [o.size for o in orders])
        # a state that only scores (select_first) has no cache
        return cls(
            cfg,
            cache,
            order,
            bounds,
            cfg.mi_table[order],
            alive=np.ones(order.size, dtype=bool),
            dist_sum=np.zeros(order.size, dtype=np.float64),
            tracker=TopPTracker(cfg.n_labels, cfg.top_p, len(orders)),
            picks=[[] for _ in orders],
            values=np.zeros(len(orders), dtype=np.float64),
        )

    @cached_property
    def columns(self) -> tuple:
        """(mat, cards, h, planes): codes, cardinalities and entropies per
        position, and each group's bit planes."""
        return _gather(self.cache, self.order, self.bounds)

    @property
    def mat(self) -> np.ndarray:
        """The candidates' codes, one row per position."""
        return self.columns[0]

    def _single(self, per_group):
        if len(per_group) != 1:
            raise ValueError("the state holds several groups")
        return per_group[0]

    @property
    def selected(self) -> list:
        return self._single(self.picks)

    @property
    def objective_value(self) -> float:
        return float(self._single(self.values))

    def remaining_ids(self) -> np.ndarray:
        return self.order[self.alive]

    def add(self, feature_ids) -> None:
        """Select one candidate in each of some groups (one id, or one id per
        picking group): update their objective values, thresholds, and the
        running distance sums of their other candidates. A pick's distances
        are read from its memoized row in the cache if there is one, else
        computed over its group's span, every group's in one batch."""
        ids = np.asarray(feature_ids, dtype=np.int64).reshape(-1)
        pos = self._by_id[np.minimum(np.searchsorted(self._sorted, ids), self.order.size - 1)]
        bad = (self.order[pos] != ids) | ~self.alive[pos]
        if bad.any():
            raise ValueError(f"feature {ids[bad][0]} is not an available candidate")
        groups = self.group[pos]
        if len(set(groups.tolist())) != groups.size:
            raise ValueError("at most one pick per group")
        mi_rows = self.mi[pos]
        self.values[groups] += (
            self.cfg.relevance_scale * marginal_g_rows(mi_rows, self.tracker.taus()[groups])
            + self.cfg.diversity_scale * self.dist_sum[pos]
        )
        self.tracker.insert_rows(groups, mi_rows)
        self.alive[pos] = False
        jobs = []
        for g, fid, p in zip(groups.tolist(), ids.tolist(), pos.tolist()):
            self.picks[g].append(fid)
            span = slice(self.bounds[g], self.bounds[g + 1])
            row = self.cache.memoized_row(fid)
            if row is not None:
                self.dist_sum[span] += row[self.order[span]]
            elif self.alive[span].any():
                jobs.append((p, span, g))
        if jobs:
            mat, cards, h, planes = self.columns
            rows = nvi_distance_spans(mat, cards, h, [(p, span, planes[g]) for p, span, g in jobs])
            for (_, span, _), row in zip(jobs, rows):
                self.dist_sum[span] += row
