"""Exact reference optimizer and approximation-ratio reports.

The oracle finds the best k-subset of the candidates (within a hard budget
on C(c, k)), valuing subsets with the same scaled objective the greedy
engines maximize. A depth-first bound-and-prune search values only the
subsets an upper bound cannot rule out, so the result is that of valuing
every subset. A subset's value is the search's running sum over its
ascending positions, which ``_Search.walk`` reaches for any rows of
subsets side by side: ``subset_value`` walks one, and
``approximation_report`` walks all its outputs at once. One valuation. It
exists to verify the engines' guarantees on desk-scale instances, so its
evaluation path is deliberately separate from objective.h_value and from
the greedy engine.
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

# brute_force_opt's search expands blocks of prefixes whose tables hold
# about CHUNK * k cells each
CHUNK = 8192

ALTGREEDY_RATIO = 0.5
DISTRIBUTED_RATIO = 1.0 / 31.0
RATIO_SLACK = 1e-9
# the search drops a subtree whose bound falls below the incumbent by more
# than this share of it (at least 1), which covers the float error of the
# search's running sums
PRUNE_SLACK = 1e-9


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


@dataclass(frozen=True)
class OracleResult:
    """The optimum's ids and value. ``n_evaluated`` counts the subsets the
    search covered, C(c, k); ``n_valued`` the leaves it valued: those the
    bound kept, and the plunge's."""

    ids: tuple
    value: float
    n_evaluated: int
    n_valued: int


@dataclass(frozen=True)
class _Prefixes:
    """A block of prefixes of one length j in lexicographic order: each
    row's j positions, its value, its distance sums to every position, and
    per label its largest MI values in min(top_p, k) zero-seeded slots, as
    ``SelectionState.top`` keeps them (the smallest slot is the label's
    relevance threshold)."""

    pos: np.ndarray
    value: np.ndarray
    dist: np.ndarray
    top: np.ndarray


class _Search:
    """Bound-and-prune search for the best k-subset of positions into
    ``dmat`` and ``mi_sub``; k comes from the caller, ``cfg.k`` for
    ``brute_force_opt`` and ``approximation_report``, and the subset's size
    for ``subset_value``.

    A prefix is extended only by later positions, one block of prefixes at
    a time, and the children of a block are taken row-major, so k-subsets
    are reached in lexicographic order. Each prefix carries its exact value
    as a running sum, so a k-subset's value is its last prefix's value plus
    the gain of its last position, the same bits on whatever path or in
    whatever block it is reached. A child whose bound falls below the
    incumbent, less a relative slack for the float error of the running
    sums, is dropped with every subset that extends it; the first strict
    maximum over the other k-subsets wins.
    """

    def __init__(self, dmat: np.ndarray, mi_sub: np.ndarray, cfg: ObjectiveConfig, k: int):
        c = dmat.shape[0]
        self.dmat, self.mi_sub, self.cfg, self.k = dmat, mi_sub, cfg, k
        self.mi_labels = np.ascontiguousarray(mi_sub.T)
        self.positions = np.arange(c)
        # row_top[x, m]: the sum of the m largest distances in row x
        self.row_top = np.zeros((c, k))
        np.cumsum(np.sort(dmat, axis=1)[:, ::-1][:, : k - 1], axis=1, out=self.row_top[:, 1:])
        self.incumbent, self.best, self.best_value, self.n_valued = -np.inf, None, -np.inf, 0

    def root(self) -> _Prefixes:
        c, t = self.mi_sub.shape
        slots = min(self.cfg.top_p, self.k)
        return _Prefixes(np.empty((1, 0), dtype=np.int64), np.zeros(1), np.zeros((1, c)), np.zeros((1, t, slots)))

    def expand(self, pre: _Prefixes):
        """(gain, bound, valid), each (rows, c): the exact gain of every
        child prefix + x over its prefix, an upper bound on the value of
        every k-subset that extends the child, and whether x may extend the
        prefix (a later position with room for the rest after it).

        With r = k - j positions to add, a position's gain in any completion
        is at most its g: its scaled relevance gain over the prefix's
        thresholds (by submodularity also when k > top_p), plus its scaled
        distance sum to the prefix and half its r - 1 largest distances. A
        child's bound is the prefix value plus the smaller of T_r and g_x +
        T_(r-1), T_m the sum of the m largest g over later positions. At
        r = 1 the bound is each k-subset's exact value."""
        cfg = self.cfg
        rows, j = pre.pos.shape
        c, r = self.positions.size, self.k - j
        last = pre.pos[:, -1:] if j else np.full((rows, 1), -1)
        later = self.positions > last
        valid = later & (self.positions <= c - r)
        rel = np.zeros((rows, c))
        term = np.empty((rows, c))
        for mi, tau in zip(self.mi_labels, pre.top.min(axis=2).T):
            np.subtract(mi, tau[:, None], out=term)
            np.maximum(term, 0.0, out=term)
            rel += term
        rel *= cfg.relevance_scale
        gain = rel + cfg.diversity_scale * pre.dist
        if r == 1:
            bound = pre.value[:, None] + gain
        else:
            g = rel + cfg.diversity_scale * (pre.dist + 0.5 * self.row_top[:, r - 1])
            # every g is >= 0 and at least r positions are later, so zeros
            # leave the sums of the largest later ones unchanged
            g[~later] = 0.0
            largest = np.sort(g, axis=1)[:, c - r :]
            bound = np.minimum(largest.sum(axis=1)[:, None], g + largest[:, 1:].sum(axis=1)[:, None])
            bound += pre.value[:, None]
        return gain, bound, valid

    def children(self, pre: _Prefixes, gain: np.ndarray, flat: np.ndarray) -> _Prefixes:
        """The child prefixes at ``flat``, row-major indices into expand's
        (rows, c) tables."""
        rows, x = np.divmod(flat, self.positions.size)
        top = pre.top[rows]
        # each label's smallest slot takes x's MI value when that is larger
        at = (np.arange(flat.size)[:, None], np.arange(top.shape[1]), top.argmin(axis=2))
        top[at] = np.maximum(top[at], self.mi_sub[x])
        return _Prefixes(
            np.concatenate((pre.pos[rows], x[:, None]), axis=1),
            pre.value[rows] + gain.reshape(-1)[flat],
            pre.dist[rows] + self.dmat[x],
            top,
        )

    def floor(self) -> float:
        """The value a bound must reach: the incumbent, less the slack."""
        best = max(self.incumbent, self.best_value)
        return best - PRUNE_SLACK * max(1.0, abs(best))

    def walk(self, paths=None) -> np.ndarray:
        """The running value of each row of ``paths``, (rows, k) ascending
        positions, its rows reached side by side from the empty prefix a
        position at a time, as the search reaches its leaves. By default
        one row, the plunge's: each step the valid child of largest gain
        (the smallest position on ties)."""
        pre, c = self.root(), self.positions.size
        for j in range(self.k):
            gain, _, valid = self.expand(pre)
            x = paths[:, j] if paths is not None else np.argmax(np.where(valid, gain, -1.0), axis=1)
            # the root is one row that every path extends
            pre = self.children(pre, gain, x + (np.arange(x.size) * c if j else 0))
        return pre.value

    def visit(self, pre: _Prefixes, stack: list) -> None:
        """Expand ``pre``: value its kept children when they are k-subsets,
        else open them as the next depth on ``stack``, as [prefixes, gains,
        kept children's flat indices, their bounds, how many were taken]."""
        gain, bound, valid = self.expand(pre)
        kept = valid & (bound >= self.floor())
        if pre.pos.shape[1] < self.k - 1:
            flat = np.flatnonzero(kept)
            stack.append([pre, gain, flat, bound.reshape(-1)[flat], 0])
            return
        # the bound is each leaf's value; a row-major argmax is the first
        # maximum in lexicographic order
        self.n_valued += int(np.count_nonzero(kept))
        values = np.where(kept, bound, -np.inf)
        row, x = np.unravel_index(np.argmax(values), values.shape)
        if values[row, x] > self.best_value:
            self.best, self.best_value = np.append(pre.pos[row], x), float(values[row, x])

    def run(self):
        """(positions, value) of the lexicographically first optimum."""
        self.incumbent = float(self.walk()[0])
        self.n_valued += 1
        block = max(1, CHUNK * self.k // self.positions.size)
        stack = []
        self.visit(self.root(), stack)
        while stack:
            level = stack[-1]
            pre, gain, flat, bounds, lo = level
            if lo >= flat.size:
                stack.pop()
                continue
            level[4] = lo + block
            # the incumbent may have risen since these bounds were taken
            part = flat[lo : lo + block][bounds[lo : lo + block] >= self.floor()]
            if part.size:
                self.visit(self.children(pre, gain, part), stack)
        return self.best, self.best_value


def subset_value(ids, cfg: ObjectiveConfig, cache: InfoCache) -> float:
    """Objective value of one subset, 0.0 for none: the oracle's running sum
    over its sorted ids, the bits its leaf has in ``brute_force_opt``; the
    one-row case of ``_Search.walk``."""
    ids = sorted_feature_ids(ids, cfg.mi_table.shape[0])
    search = _Search(distance_matrix(ids, cache), cfg.mi_table[ids], cfg, ids.size)
    return float(search.walk(np.arange(ids.size)[None])[0])


def brute_force_opt(candidates, cfg: ObjectiveConfig, cache: InfoCache, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Exact maximizer over all k-subsets of the candidates, k = ``cfg.k``.

    Refuses (BudgetError) when C(|candidates|, k) exceeds the budget and
    ValueError on fewer candidates than k or on duplicate or out-of-range
    ids. A bound-and-prune search (``_Search``) values only the subsets
    whose bound reaches the incumbent, and keeps at most k - 1 blocks of
    prefixes open, each with tables of about ``CHUNK * k`` cells, so memory
    does not grow with C(|candidates|, k) however little it prunes.
    Ties resolve to the lexicographically smallest id tuple; the result
    depends only on the candidate set, and its ids and value bits are those
    of valuing every subset with ``subset_value``.
    """
    ids = sorted_feature_ids(candidates, cfg.mi_table.shape[0])
    c, k = ids.size, cfg.k
    if k > c:
        raise ValueError("need 1 <= k <= |candidates|")
    total = math.comb(c, k)
    if total > budget:
        raise BudgetError(f"C({c}, {k}) = {total} subsets exceeds budget {budget}")
    search = _Search(distance_matrix(ids, cache), cfg.mi_table[ids], cfg, k)
    best, value = search.run()
    return OracleResult(tuple(int(i) for i in ids[best]), value, total, search.n_valued)


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

    Every output is valued in one ``_Search.walk`` over the dataset's
    features, a row per output: the search's own running sums, whose bits
    do not depend on the other positions, so each value is the output's
    ``subset_value`` and every ratio lies in [0, 1] exactly. With
    ``enforce``, a half-relevance ratio below 1/2 or a distributed ratio
    below 1/31 (beyond fp slack) raises GuaranteeError. Empty ``seeds``,
    m < 1 and the inputs ``runner.check_k`` refuses are refused before any
    subset is valued.
    """
    seeds = [int(seed) for seed in seeds]
    if not seeds:
        raise ValueError("seeds must name at least one seed")
    if m < 1:
        raise ValueError("m must be >= 1")
    cache = InfoCache(data)
    check_k(data, k, cfg, cache)
    everything = range(data.n_features)
    opt = brute_force_opt(everything, cfg, cache, budget)
    outputs = [greedy_select(everything, v, cfg, cache) for v in (GreedyVariant.GREEDY, GreedyVariant.ALTGREEDY)]
    outputs += [[int(i) for i in distributed_select(data, k, cfg, m=m, seed=seed).selected_ids] for seed in seeds]
    search = _Search(distance_matrix(everything, cache), cfg.mi_table, cfg, k)
    values = search.walk(np.sort(outputs, axis=1))
    ratios = (values / opt.value if opt.value > 0.0 else np.ones(len(outputs))).tolist()
    # GREEDY has no floor, ALTGREEDY's is 1/2 and each distributed run's 1/31
    floors = [("altgreedy ratio {} below 0.5", ALTGREEDY_RATIO)]
    floors += [(f"distributed ratio {{}} at seed {seed} below 1/31", DISTRIBUTED_RATIO) for seed in seeds]
    violations = [text.format(r) for (text, floor), r in zip(floors, ratios[1:]) if r < floor - RATIO_SLACK]
    if enforce and violations:
        raise GuaranteeError("; ".join(violations))
    return ApproximationReport(
        opt_ids=opt.ids,
        opt_value=opt.value,
        greedy_ids=tuple(outputs[0]),
        greedy_ratio=ratios[0],
        altgreedy_ids=tuple(outputs[1]),
        altgreedy_ratio=ratios[1],
        distributed=tuple({"seed": s, "ids": ids, "ratio": r} for s, ids, r in zip(seeds, outputs[2:], ratios[2:])),
        mean_distributed_ratio=float(np.mean(ratios[2:])),
    )
