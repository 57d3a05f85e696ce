"""Output checks for the benchmark. Each function returns a list of problems;
an empty list means the output passed."""

from __future__ import annotations

import json
from collections import Counter

import numpy as np

from divsel.info import InfoCache, nvi_distance
from divsel.objective import h_value

H_TOLERANCE = 1e-9
RATIO_SLACK = 1e-9


def dataset_problems(data, w) -> list:
    found = (data.n_features, data.n_instances, data.n_labels)
    expected = (w.features, w.instances, w.labels)
    if found != expected:
        return [f"dataset shape (features, instances, labels) {found}, expected {expected}"]
    if w.cardinality and int(data.feature_cards.max()) > w.cardinality:
        return [f"feature cardinality above {w.cardinality}"]
    return []


def selection_problems(ids, k: int, n_features: int) -> list:
    """|S| = k, ids unique and in range."""
    ids = [int(i) for i in ids]
    problems = []
    if len(ids) != k:
        problems.append(f"selected {len(ids)} features, expected {k}")
    if len(set(ids)) != len(ids):
        problems.append("selected ids repeat")
    if any(not 0 <= i < n_features for i in ids):
        problems.append("selected id out of range")
    return problems


def mode_problems(report, data, cfg, k: int, cache: InfoCache) -> list:
    """Selection shape, plus the reported h against h_value recomputed on
    ``cache``, an InfoCache that no selection run has used."""
    problems = selection_problems(report.selected_ids, k, data.n_features)
    if problems:
        return problems
    recomputed = h_value(report.selected_ids, cfg, cache)
    if not abs(recomputed - report.objective["h"]) <= H_TOLERANCE:
        problems.append(f"reported h {report.objective['h']!r} but recomputed {recomputed!r}")
    return problems


def canonical(report) -> str:
    """The report as JSON without wall-clock fields or the worker count, so
    runs that must agree compare byte for byte."""
    payload = report.to_json_dict()
    payload.pop("timings_ms", None)
    payload["config"].pop("parallelism", None)
    return json.dumps(payload, sort_keys=True)


def oracle_text(report) -> str:
    return json.dumps(report.to_json_dict(), sort_keys=True)


def selection_text(report) -> str:
    return json.dumps({"ids": list(report.selected_ids), "objective": report.objective}, sort_keys=True)


def same_problems(found: str, expected: str, what: str) -> list:
    return [] if found == expected else [f"{what} differ"]


def symmetry_problems(data, pairs) -> list:
    """nvi_distance(a, b) == nvi_distance(b, a) exactly on each pair."""
    problems = []
    for a, b in pairs:
        ab = nvi_distance(data.features[a], data.features[b])
        ba = nvi_distance(data.features[b], data.features[a])
        if ab != ba:
            problems.append(f"nvi_distance({a}, {b}) = {ab!r} but reversed {ba!r}")
    return problems


def symmetry_pairs(rng: np.random.Generator, n_features: int, count: int) -> list:
    picks = rng.choice(n_features, size=(count, 2), replace=True)
    return [(int(a), int(b)) for a, b in picks if a != b]


def oracle_problems(report, k: int, n_features: int) -> list:
    """Optimum shape and every ratio at most 1; the 1/2 and 1/31 floors are
    enforced by approximation_report itself."""
    problems = selection_problems(report.opt_ids, k, n_features)
    ratios = [report.greedy_ratio, report.altgreedy_ratio] + [d["ratio"] for d in report.distributed]
    if any(not 0.0 <= r <= 1.0 + RATIO_SLACK for r in ratios):
        problems.append(f"ratio outside [0, 1]: {ratios}")
    return problems


class Tally:
    """Operations attempted and failed, by operation name, with the
    problems found."""

    def __init__(self):
        self.attempted_by = Counter()
        self.failed_by = Counter()
        self.problems = []

    @property
    def attempted(self) -> int:
        return sum(self.attempted_by.values())

    @property
    def failed(self) -> int:
        return sum(self.failed_by.values())

    def record(self, what: str, problems: list) -> None:
        self.attempted_by[what] += 1
        if problems:
            self.failed_by[what] += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
