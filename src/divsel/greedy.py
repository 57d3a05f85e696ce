"""Greedy selection engines over the scaled relevance-plus-diversity
objective.

Both variants seed with the highest-relevance single feature, then
repeatedly add the candidate maximizing (weight * scaled relevance gain +
scaled distance sum to the selected set). The plain engine uses weight 1;
the half-relevance engine ("altgreedy") uses weight 1/2, which carries a
1/2-approximation guarantee for the objective under a metric distance.

Ties: scores within 1e-12 of the maximum count as equal and the smallest
feature id wins, so the output is a deterministic function of the candidate
set and removing a never-selected candidate does not change the result.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .info import InfoCache
# marginal_g_rows is unused here: benchmarks/tracing.py looks it up on greedy with vars()
from .objective import ObjectiveConfig, SelectionState, marginal_g_rows

TIE_BAND = 1e-12


class GreedyVariant(enum.Enum):
    GREEDY = "greedy"
    ALTGREEDY = "altgreedy"

    @property
    def relevance_weight(self) -> float:
        return 1.0 if self is GreedyVariant.GREEDY else 0.5


def _band_argmax(scores: np.ndarray, bounds: np.ndarray, hit: np.ndarray) -> list:
    """In each span ``bounds[g]:bounds[g + 1]`` of ``scores``, the index of
    the first score within TIE_BAND of the span's maximum: the smallest id
    when ids ascend within each span, so a winner depends only on its span's
    score values. A span whose maximum is -inf has none. ``hit`` is a bool
    buffer as long as ``scores``."""
    floors = (np.maximum.reduceat(scores, bounds[:-1]) - TIE_BAND).tolist()
    found = []
    for lo, hi, floor in zip(bounds[:-1].tolist(), bounds[1:].tolist(), floors):
        if floor > -np.inf:
            np.greater_equal(scores[lo:hi], floor, out=hit[lo:hi])
            found.append(lo + int(hit[lo:hi].argmax()))
    return found


def _step(state: SelectionState, weight, hit: np.ndarray) -> np.ndarray:
    """This step's pick in every group with a candidate left: the best alive
    candidate by relevance gain alone when ``weight`` is None (the first
    pick), else by weight * scaled relevance gain + scaled distance sum.
    Picked candidates score -inf, so a group that has run out has no pick."""
    return state.order[_band_argmax(state.scores(weight), state.bounds, hit)]


def greedy_states(groups, variant: GreedyVariant, cfg: ObjectiveConfig, cache: InfoCache) -> SelectionState:
    """Greedy selection of ``cfg.k`` features in each of several disjoint
    candidate groups, run side by side over one cache's dataset.

    Every step picks once in each group with a candidate left, for min(k,
    largest group) steps, so each group ends with exactly the min(k, its
    size) picks it gets alone: a group no larger than k runs out at its
    size, and a larger one is still live at the last step. The groups share
    each step's scoring pass and distance-row batch.
    """
    state = SelectionState(groups, cfg, cache)
    hit = np.empty(state.order.size, dtype=bool)
    for step in range(min(cfg.k, int(np.diff(state.bounds).max()))):
        state.add(_step(state, None if step == 0 else variant.relevance_weight, hit))
    return state


def greedy_state(candidates, variant: GreedyVariant, cfg: ObjectiveConfig, cache: InfoCache) -> SelectionState:
    """Run a greedy selection and return its final state."""
    return greedy_states([candidates], variant, cfg, cache)


def greedy_select(candidates, variant: GreedyVariant, cfg: ObjectiveConfig, cache: InfoCache) -> list:
    """Ordered ids of min(cfg.k, |candidates|) greedily selected features."""
    return list(greedy_state(candidates, variant, cfg, cache).picks[0])


@dataclass(frozen=True)
class NicenessReport:
    """Worst-case rejection ratios of one greedy run.

    For k >= 10 the plain greedy guarantees max_gain_ratio <= 5 (objective
    gain of re-adding any rejected candidate, relative to f(S)/k) and
    max_distance_ratio <= 4.5 (its scaled distance sum relative to
    f(S)/(k-1)); removal_stable reports whether dropping any single
    rejected candidate reproduces the same selection.
    """

    selected: tuple
    f_value: float
    rejected_count: int
    max_gain_ratio: float
    max_distance_ratio: float
    removal_stable: bool


def niceness_witness(
    candidates, cfg: ObjectiveConfig, cache: InfoCache, variant: GreedyVariant = GreedyVariant.GREEDY
) -> NicenessReport:
    """Measure the rejection bounds of one greedy run of ``cfg.k`` picks,
    and re-run it without each rejected candidate to check stability.

    Requires k >= 10 (the bounds hold from there) and more candidates than
    k so at least one candidate is rejected.
    """
    k = cfg.k
    if k < 10:
        raise ValueError("k must be >= 10")
    ids = sorted(int(i) for i in candidates)
    if len(ids) <= k:
        raise ValueError("need more candidates than k")
    state = greedy_state(ids, variant, cfg, cache)
    selected = state.picks[0]
    rejected = state.order[state.alive].tolist()
    f_val = float(state.values[0])
    # each rejected candidate's distances to the selected set, added in
    # selected order from 0.0, and its relevance gain over the final
    # thresholds, as the final state holds them
    dist_sum = state.dist_sum[state.alive]
    rel = state.relevance()[state.alive]
    gain = cfg.relevance_scale * rel + cfg.diversity_scale * dist_sum
    weighted_dist = cfg.diversity_scale * dist_sum
    if f_val > 0.0:
        max_gain = max(0.0, float(np.max(gain * k / f_val)))
        max_dist = max(0.0, float(np.max(weighted_dist * (k - 1) / f_val)))
    elif np.any(gain > 0.0) or np.any(weighted_dist > 0.0):
        max_gain = max_dist = float("inf")
    else:
        max_gain = max_dist = 0.0
    stable = all(greedy_state([i for i in ids if i != t], variant, cfg, cache).picks[0] == selected for t in rejected)
    return NicenessReport(
        selected=tuple(selected),
        f_value=f_val,
        rejected_count=len(rejected),
        max_gain_ratio=max_gain,
        max_distance_ratio=max_dist,
        removal_stable=stable,
    )
