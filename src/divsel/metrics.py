"""Multi-label prediction quality measures.

All five measures treat an empty-versus-empty comparison as a score of 1:
an instance with no true and no predicted labels counts as perfect, and a
label never present in truth or prediction contributes 1 to the per-label
average.
"""

from __future__ import annotations

import numpy as np

from .data import read_lines
from .errors import ParseError, ValidationError


class PredictionMatrix:
    """Binary indicator matrix: one row per instance, one column per label."""

    def __init__(self, values):
        arr = np.asarray(values)
        if arr.ndim != 2:
            raise ValidationError("prediction matrix must be two-dimensional")
        if arr.size == 0:
            raise ValidationError("prediction matrix must be non-empty")
        if not np.isin(arr, (0, 1)).all():
            raise ValidationError("prediction matrix entries must be 0 or 1")
        a = arr.astype(np.int8)
        a.flags.writeable = False
        self.values = a

    @property
    def shape(self):
        return self.values.shape

    @classmethod
    def from_csv(cls, source) -> "PredictionMatrix":
        """Dense CSV of 0/1 cells, no header."""
        name, lines = read_lines(source)
        if not lines:
            raise ParseError(f"{name}: file is empty")
        rows = []
        width = len(lines[0].split(","))
        for i, line in enumerate(lines):
            cells = line.split(",")
            if len(cells) != width:
                raise ParseError(f"{name}: line {i + 1}: expected {width} cells")
            row = []
            for cell in cells:
                cell = cell.strip()
                if cell not in ("0", "1"):
                    raise ParseError(f"{name}: line {i + 1}: cell {cell!r} is not 0 or 1")
                row.append(int(cell))
            rows.append(row)
        return cls(np.asarray(rows, dtype=np.int8))


def _as_matrix(x) -> np.ndarray:
    if isinstance(x, PredictionMatrix):
        return x.values
    return PredictionMatrix(x).values


def multilabel_metrics(truth, pred) -> dict:
    """Five set-based measures of predicted label sets against true ones.

    Returns subset_accuracy, example_accuracy (Jaccard per instance),
    example_f (Dice per instance), label_avg_f (F per label, averaged), and
    pooled_f (F over all label decisions pooled), each in [0, 1].
    """
    t = _as_matrix(truth)
    p = _as_matrix(pred)
    if t.shape != p.shape:
        raise ValidationError(f"shape mismatch: truth {t.shape} vs pred {p.shape}")
    inter = np.sum(t & p, axis=1).astype(np.float64)
    union = np.sum(t | p, axis=1).astype(np.float64)
    sizes = np.sum(t, axis=1).astype(np.float64) + np.sum(p, axis=1).astype(np.float64)
    subset = float(np.mean(np.all(t == p, axis=1)))
    example_accuracy = float(np.mean(np.where(union > 0, inter / np.where(union > 0, union, 1), 1.0)))
    example_f = float(np.mean(np.where(sizes > 0, 2 * inter / np.where(sizes > 0, sizes, 1), 1.0)))
    label_inter = np.sum(t & p, axis=0).astype(np.float64)
    label_sizes = np.sum(t, axis=0).astype(np.float64) + np.sum(p, axis=0).astype(np.float64)
    label_avg_f = float(
        np.mean(np.where(label_sizes > 0, 2 * label_inter / np.where(label_sizes > 0, label_sizes, 1), 1.0))
    )
    pooled_denom = float(label_sizes.sum())
    pooled_f = 2.0 * float(label_inter.sum()) / pooled_denom if pooled_denom > 0 else 1.0
    return {
        "subset_accuracy": subset,
        "example_accuracy": example_accuracy,
        "example_f": example_f,
        "label_avg_f": label_avg_f,
        "pooled_f": pooled_f,
    }
