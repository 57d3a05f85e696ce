"""Seeded raw inputs for the benchmark workloads.

A workload turns a seed into raw input, either integer code matrices or a
dense CSV file, plus fixed selection settings. The program under test sees
only this raw input: turning it into a ``Dataset`` is the timed set-up step.
A CSV file is written once, before anything is timed, and is read by path
as the ``divsel select`` command reads its input.
This module needs numpy only, so inputs can be built and compared without
importing the program. Why each workload exists is recorded in
``BENCHMARK.json`` and ``benchmarks/README.md``.
"""

from __future__ import annotations

import filecmp
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class RawInput:
    """Generated input: code matrices (one row per column) or a CSV file."""

    feature_rows: np.ndarray | None = None
    label_rows: np.ndarray | None = None
    csv_path: Path | None = None

    @property
    def nbytes(self) -> int:
        if self.csv_path is not None:
            return self.csv_path.stat().st_size
        return int(self.feature_rows.nbytes + self.label_rows.nbytes)

    def same_as(self, other: "RawInput") -> bool:
        if self.csv_path is not None or other.csv_path is not None:
            return (
                self.csv_path is not None
                and other.csv_path is not None
                and filecmp.cmp(self.csv_path, other.csv_path, shallow=False)
            )
        return np.array_equal(self.feature_rows, other.feature_rows) and np.array_equal(
            self.label_rows, other.label_rows
        )


@dataclass(frozen=True)
class Workload:
    """Sizes and settings of one workload.

    ``cardinality`` is the code count of integer features, or 0 for
    continuous features. ``binning`` is the loader strategy for CSV input
    (None for matrix input). ``machines`` None means the library default
    ceil(sqrt(d / k)). ``generate(w, seed, directory)`` builds the raw input,
    writing any file into ``directory``.
    """

    name: str
    features: int
    instances: int
    labels: int
    cardinality: int
    binning: str | None
    k: int
    machines: int | None
    generate: Callable[["Workload", int, Path], RawInput]


def _write_csv(path: Path, feature_rows: np.ndarray, label_rows: np.ndarray) -> None:
    d, t = feature_rows.shape[0], label_rows.shape[0]
    header = ",".join([f"f{i}" for i in range(d)] + [f"y{j}" for j in range(t)])
    table = np.vstack([feature_rows, label_rows]).T
    np.savetxt(path, table, fmt=["%.6f"] * d + ["%d"] * t, delimiter=",", header=header, comments="")


def _wide_lowcard(w: Workload, seed: int, _directory: Path) -> RawInput:
    rng = np.random.default_rng(seed)
    feats = rng.integers(0, w.cardinality, size=(w.features, w.instances))
    labels = rng.integers(0, 2, size=(w.labels, w.instances))
    return RawInput(feature_rows=feats, label_rows=labels)


def _csv_binned(w: Workload, seed: int, directory: Path) -> RawInput:
    # feature i is label (i mod t) shifted by a per-feature strength plus
    # unit noise, so relevance varies and same-label features are redundant
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=(w.labels, w.instances))
    strength = rng.uniform(0.0, 2.0, size=(w.features, 1))
    feats = strength * labels[np.arange(w.features) % w.labels] + rng.standard_normal(
        (w.features, w.instances)
    )
    path = Path(directory) / f"input-{w.name}-{seed}.csv"
    _write_csv(path, feats, labels)
    return RawInput(csv_path=path)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wide-lowcard",
            features=20000,
            instances=128,
            labels=4,
            cardinality=4,
            binning=None,
            k=50,
            machines=20,
            generate=_wide_lowcard,
        ),
        Workload(
            name="csv-binned",
            features=400,
            instances=5000,
            labels=8,
            cardinality=0,
            binning="equal_frequency",
            k=20,
            machines=None,
            generate=_csv_binned,
        ),
    )
}
