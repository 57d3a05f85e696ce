"""Discrete dataset model: canonical integer codes, CSV and sparse
multi-label loaders, binning of continuous columns, and the synthesized
benchmark generator.

A dataset holds one read-only int32 code matrix per group (features,
labels), a row per variable, so forked worker processes share it without
copying. Every loader builds it with one call of ``canonicalize``, which
works a block of rows at a time; there is no per-column loop.
"""

from __future__ import annotations

import io
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import numpy.random  # numpy would otherwise import it inside the first timed rng call

from .errors import ParseError, ValidationError

BINNING_STRATEGIES = ("equal_frequency", "equal_width", "none")


@dataclass(frozen=True)
class BinningSpec:
    """How a numeric column with many distinct values is discretized.

    Columns with at most ``max_raw_categories`` distinct values are kept
    categorical (codes assigned by sorted raw value) regardless of strategy.
    """

    strategy: str = "equal_frequency"
    bins: int = 5
    max_raw_categories: int = 32

    def __post_init__(self):
        if self.strategy not in BINNING_STRATEGIES:
            raise ValueError(f"unknown binning strategy {self.strategy!r}")
        if self.strategy != "none" and self.bins < 2:
            raise ValueError("bins must be >= 2")
        if self.max_raw_categories < 1:
            raise ValueError("max_raw_categories must be >= 1")


DEFAULT_BINNING = BinningSpec()


# Row blocks of the canonicalization and count kernels hold about this many
# cells, which bounds their temporaries.
BLOCK_CELLS = 1 << 18


def canonicalize(values, binning: BinningSpec = DEFAULT_BINNING) -> tuple[np.ndarray, np.ndarray]:
    """Canonicalize each row of a (rows, n) matrix of raw numeric values.

    Returns read-only int32 codes of the same shape and the int64
    cardinality of each row. A row with at most
    ``binning.max_raw_categories`` distinct values (or any row under
    strategy ``"none"``) maps to codes by sorted raw value; a wider row is
    discretized per the strategy and the bins that occur are then densified
    (quantile ties can merge bins). Rows are worked a block of about
    ``BLOCK_CELLS`` cells at a time, so temporaries stay small.
    """
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError("values must be two-dimensional")
    rows, n = values.shape
    codes = np.zeros((rows, n), dtype=np.int32)
    cards = np.zeros(rows, dtype=np.int64)
    if n:
        step = max(1, BLOCK_CELLS // n)
        for lo in range(0, rows, step):
            codes[lo : lo + step], cards[lo : lo + step] = _canonicalize_block(values[lo : lo + step], binning)
    codes.flags.writeable = False
    cards.flags.writeable = False
    return codes, cards


def _canonicalize_block(values: np.ndarray, binning: BinningSpec) -> tuple[np.ndarray, np.ndarray]:
    v = np.ascontiguousarray(values, dtype=np.float64)
    if not np.isfinite(v).all():
        raise ValidationError("column contains non-finite values")
    rows, n = v.shape
    s = np.sort(v, axis=1)
    new = s[:, 1:] != s[:, :-1]
    cards = new.sum(axis=1, dtype=np.int64) + 1
    codes = np.empty((rows, n), dtype=np.int32)
    if binning.strategy == "none":
        categorical = np.ones(rows, dtype=bool)
    else:
        categorical = cards <= binning.max_raw_categories
    if categorical.any():
        # dense ranks: the sorted row's count of value changes, put back
        # where each value came from
        ranks = np.zeros((int(categorical.sum()), n), dtype=np.int32)
        np.cumsum(new[categorical], axis=1, out=ranks[:, 1:])
        ranked = np.empty_like(ranks)
        np.put_along_axis(ranked, np.argsort(v[categorical], axis=1), ranks, axis=1)
        codes[categorical] = ranked
    binned = ~categorical
    if binned.any():
        codes[binned], cards[binned] = _bin_rows(v[binned], s[binned], binning)
    return codes, cards


def _bin_rows(v: np.ndarray, s: np.ndarray, binning: BinningSpec) -> tuple[np.ndarray, np.ndarray]:
    """Bin ids (the count of cuts at or below a value) of rows with sorted
    copies ``s``, densified to the bins that occur."""
    rows, n = v.shape
    bins = binning.bins
    if binning.strategy == "equal_frequency":
        cuts = s[:, [n * j // bins for j in range(1, bins)]]
    else:
        lo, hi = s[:, :1], s[:, -1:]
        cuts = lo + (hi - lo) * np.arange(1, bins) / bins
    ids = np.zeros((rows, n), dtype=np.int32)
    for j in range(bins - 1):
        ids += v >= cuts[:, j : j + 1]
    offsets = (np.arange(rows, dtype=np.int64) * bins)[:, None]
    occurs = np.bincount((ids + offsets).ravel(), minlength=rows * bins).reshape(rows, bins) > 0
    dense = np.cumsum(occurs, axis=1, dtype=np.int32) - 1
    return np.take_along_axis(dense, ids, axis=1), occurs.sum(axis=1)


def check_codes(codes: np.ndarray, cards: np.ndarray) -> None:
    """Raise ValueError unless each row r of a (rows, n) integer code matrix
    holds exactly the codes 0..cards[r]-1, each at least once (cardinality 0
    when n is 0). Checked a block of rows at a time."""
    if not np.issubdtype(codes.dtype, np.integer):
        raise ValueError("codes must be integers")
    rows, n = codes.shape
    if cards.shape != (rows,):
        raise ValueError("one cardinality per row is needed")
    if n == 0:
        if np.any(cards != 0):
            raise ValueError("empty column must have cardinality 0")
        return
    step = max(1, BLOCK_CELLS // n)
    for lo in range(0, rows, step):
        block, card = codes[lo : lo + step], cards[lo : lo + step]
        if block.min() < 0 or np.any(block.max(axis=1) >= card):
            raise ValueError("codes out of range for cardinality")
        if np.any(card > n):
            raise ValueError("codes must cover 0..cardinality-1")
        offsets = np.cumsum(card) - card
        seen = np.bincount((block + offsets[:, None]).ravel(), minlength=int(card.sum()))
        if np.any(seen == 0):
            raise ValueError("codes must cover 0..cardinality-1")


@dataclass(frozen=True)
class DiscreteColumn:
    """A single variable as dense integer codes 0..cardinality-1: the value
    type of the one-column functions in ``info``.

    Every code below ``cardinality`` occurs at least once; empty columns
    (length 0) have cardinality 0.
    """

    codes: np.ndarray
    cardinality: int

    def __post_init__(self):
        codes = np.asarray(self.codes)
        if codes.ndim != 1:
            raise ValueError("codes must be one-dimensional")
        check_codes(codes[None, :], np.array([self.cardinality]))
        codes = np.ascontiguousarray(codes, dtype=np.int32)
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)

    @property
    def n(self) -> int:
        return self.codes.size

    @classmethod
    def from_values(cls, values, binning: BinningSpec = DEFAULT_BINNING) -> "DiscreteColumn":
        """Canonicalize raw numeric values into a column: ``canonicalize``
        of a one-row matrix."""
        values = np.asarray(values)
        if values.ndim != 1:
            raise ValueError("values must be one-dimensional")
        codes, cards = canonicalize(values[None, :], binning)
        return cls(codes[0], int(cards[0]))


def _code_matrix(codes, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A read-only int32 copy of a (rows, n) integer code matrix and each
    row's cardinality, its largest code + 1, validated by ``check_codes``."""
    codes = np.asarray(codes)
    if codes.ndim != 2 or codes.shape[1] != n:
        raise ValidationError(f"code matrix must be two-dimensional with rows of length n_instances={n}")
    cards = codes.max(axis=1, initial=-1).astype(np.int64) + 1
    check_codes(codes, cards)
    codes = codes.astype(np.int32)
    codes.flags.writeable = False
    cards.flags.writeable = False
    return codes, cards


@dataclass(frozen=True, eq=False, init=False)
class Dataset:
    """Feature and label variables over a common set of instances.

    ``features`` and ``labels`` are read-only int32 code matrices, a row
    per variable and a column per instance, and ``feature_cards`` and
    ``label_cards`` hold each row's cardinality: row r holds exactly the
    codes 0..cards[r]-1. Label rows are binary (cardinality <= 2). Names
    are unique within each group.

    ``Dataset(features, feature_names, labels, label_names, n_instances)``
    takes integer code matrices, derives each row's cardinality, validates
    the codes and stores read-only int32 copies; the loaders build the
    matrices directly.
    """

    features: np.ndarray
    feature_cards: np.ndarray
    feature_names: tuple
    labels: np.ndarray
    label_cards: np.ndarray
    label_names: tuple

    def __init__(self, features, feature_names, labels, label_names, n_instances: int):
        self._set(*_code_matrix(features, n_instances), feature_names, *_code_matrix(labels, n_instances), label_names)

    @classmethod
    def _from_codes(cls, features, feature_cards, feature_names, labels, label_cards, label_names) -> "Dataset":
        """A dataset over matrices from ``canonicalize``, whose codes need no
        re-validation."""
        data = object.__new__(cls)
        data._set(features, feature_cards, feature_names, labels, label_cards, label_names)
        return data

    def _set(self, features, feature_cards, feature_names, labels, label_cards, label_names):
        feature_names, label_names = tuple(feature_names), tuple(label_names)
        if features.shape[0] == 0:
            raise ValidationError("dataset needs at least one feature")
        if labels.shape[0] == 0:
            raise ValidationError("dataset needs at least one label")
        if features.shape[0] != len(feature_names):
            raise ValidationError("feature name count mismatch")
        if labels.shape[0] != len(label_names):
            raise ValidationError("label name count mismatch")
        for group in (feature_names, label_names):
            if len(set(group)) != len(group):
                raise ValidationError("column names must be unique")
            if any(not isinstance(s, str) or not s for s in group):
                raise ValidationError("column names must be non-empty strings")
        for name, card in zip(label_names, label_cards.tolist()):
            if card > 2:
                raise ValidationError(f"label {name!r} has more than 2 values")
        for attr, value in (
            ("features", features),
            ("feature_cards", feature_cards),
            ("feature_names", feature_names),
            ("labels", labels),
            ("label_cards", label_cards),
            ("label_names", label_names),
        ):
            object.__setattr__(self, attr, value)

    @property
    def n_instances(self) -> int:
        return self.features.shape[1]

    @property
    def n_features(self) -> int:
        return self.features.shape[0]

    @property
    def n_labels(self) -> int:
        return self.labels.shape[0]


@contextmanager
def open_text(source):
    """(name, text handle) of a path, opened as UTF-8 and closed on exit, or
    of an open text stream, named ``<stream>``. Bytes that do not decode
    raise ``ParseError``."""
    owned = isinstance(source, (str, Path))
    name = str(source) if owned else "<stream>"
    fh = open(source, "r", encoding="utf-8", newline=None) if owned else source
    try:
        yield name, fh
    except UnicodeDecodeError:
        raise ParseError(f"{name}: not valid UTF-8 text") from None
    finally:
        if owned:
            fh.close()


def load_dense_csv(
    source,
    label_count: int,
    *,
    has_header: bool = True,
    binning: BinningSpec = DEFAULT_BINNING,
) -> Dataset:
    """Load a comma-separated numeric table whose last ``label_count``
    columns are labels.

    No quoting or escaping; a missing or non-numeric cell is a parse error
    naming the line. A cell is read as ``float()`` reads it, so surrounding
    whitespace and underscores between digits are accepted; blank lines and
    non-finite values are errors. Feature columns are discretized per
    ``binning``.

    Lines are read and parsed a block of about ``BLOCK_CELLS`` cells at a
    time by numpy's text parser. A block it refuses is parsed again line by
    line with ``float()`` (``_parse_lines``), which raises the block's first
    error in line order or returns the values ``float()`` gives.
    """
    if label_count < 1:
        raise ValueError("label_count must be >= 1")
    with open_text(source) as (name, fh):
        lines = iter(fh)
        raw_first = next(lines, None)
        if raw_first is None:
            raise ParseError(f"{name}: file is empty")
        first = _strip_line_end(raw_first)
        width = first.count(",") + 1
        if width <= label_count:
            raise ValidationError(f"{name}: no feature columns remain with label_count={label_count}")
        if has_header:
            header = [c.strip() for c in first.split(",")]
            table = _read_rows(name, lines, 2, width)
        else:
            header = None
            table = _read_rows(name, itertools.chain([raw_first], lines), 1, width)
    if table.shape[0] == 0:
        raise ValidationError(f"{name}: no data rows")
    d = width - label_count
    if header is not None:
        feature_names, label_names = header[:d], header[d:]
    else:
        feature_names = [f"f{i}" for i in range(d)]
        label_names = [f"y{j}" for j in range(label_count)]
    features = canonicalize(table[:, :d].T, binning)
    labels = canonicalize(table[:, d:].T, BinningSpec(strategy="none"))
    return Dataset._from_codes(*features, feature_names, *labels, label_names)


def _strip_line_end(line: str) -> str:
    return line.removesuffix("\n").removesuffix("\r")


# ASCII separators that numpy's text parser strips as whitespace around a
# number but float() refuses; a line holding one is parsed by float().
_FLOAT_REFUSES = ("\x1c", "\x1d", "\x1e", "\x1f")


def _read_rows(name: str, lines, lineno: int, width: int) -> np.ndarray:
    """The (rows, width) float64 table of the remaining ``lines``, the first
    of which is line ``lineno``, parsed a block of lines at a time."""
    step = max(1, BLOCK_CELLS // width)
    blocks = []
    while block := [_strip_line_end(line) for line in itertools.islice(lines, step)]:
        blocks.append(_parse_block(name, block, lineno, width))
        lineno += len(block)
    return np.concatenate(blocks) if blocks else np.empty((0, width))


def _parse_block(name: str, lines: list, lineno: int, width: int) -> np.ndarray:
    """Parse ``lines`` with numpy's text parser; on any fault, fall back to
    ``_parse_lines``."""
    commas = width - 1
    # np.loadtxt skips blank lines, so the cell count is checked first
    if all(line.count(",") == commas and not any(c in line for c in _FLOAT_REFUSES) for line in lines):
        try:
            values = np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
        except ValueError:
            pass
        else:
            if values.shape == (len(lines), width) and np.isfinite(values).all():
                return values
    return _parse_lines(name, lines, lineno, width)


def _parse_lines(name: str, lines: list, lineno: int, width: int) -> np.ndarray:
    """Parse ``lines``, the first of which is line ``lineno``, one cell at a
    time with ``float()``. Raises on the first faulty line: a wrong cell
    count, a non-numeric cell or a non-finite value."""
    rows = []
    for i, line in enumerate(lines, lineno):
        cells = line.split(",")
        if len(cells) != width:
            raise ParseError(f"{name}: line {i}: expected {width} cells, got {len(cells)}")
        try:
            row = [float(c) for c in cells]
        except ValueError:
            bad = next(c for c in cells if not _is_number(c))
            raise ParseError(f"{name}: line {i}: non-numeric cell {bad!r}") from None
        if not all(map(math.isfinite, row)):
            raise ParseError(f"{name}: line {i}: non-finite value")
        rows.append(row)
    return np.array(rows, dtype=np.float64)


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def load_sparse_multilabel(
    source,
    n_features: int,
    n_labels: int,
    *,
    binning: BinningSpec = DEFAULT_BINNING,
) -> Dataset:
    """Load the sparse multi-label format.

    Each line is ``<comma-separated 0-based label ids> <idx>:<value> ...``
    with 1-based, strictly increasing feature indices and non-negative
    values; the label field may be empty. Absent features take value 0, so
    they canonicalize to code 0, and a blank line is a row. Input without
    any line is a ValidationError.
    """
    if n_features < 1 or n_labels < 1:
        raise ValueError("n_features and n_labels must be >= 1")
    with open_text(source) as (name, fh):
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValidationError(f"{name}: no data rows")
    lines = [ln[:-1] if ln.endswith("\r") else ln for ln in lines]
    n = len(lines)
    values = np.zeros((n_features, n), dtype=np.float64)
    label_hot = np.zeros((n_labels, n), dtype=np.int32)
    for row, line in enumerate(lines):
        parts = line.split(" ")
        label_field = parts[0]
        if label_field:
            for tok in label_field.split(","):
                try:
                    lab = int(tok)
                except ValueError:
                    raise ParseError(f"{name}: line {row + 1}: bad label id {tok!r}") from None
                if not 0 <= lab < n_labels:
                    raise ParseError(f"{name}: line {row + 1}: label id {lab} out of range")
                label_hot[lab, row] = 1
        prev = 0
        for tok in parts[1:]:
            if not tok:
                continue
            idx_s, _, val_s = tok.partition(":")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(f"{name}: line {row + 1}: bad entry {tok!r}") from None
            if not 1 <= idx <= n_features:
                raise ParseError(f"{name}: line {row + 1}: feature index {idx} out of range")
            if idx <= prev:
                raise ParseError(f"{name}: line {row + 1}: feature indices must increase")
            if not math.isfinite(val) or val < 0:
                raise ParseError(f"{name}: line {row + 1}: value must be finite and >= 0")
            values[idx - 1, row] = val
            prev = idx
    return Dataset._from_codes(
        *canonicalize(values, binning),
        [f"f{i}" for i in range(n_features)],
        *canonicalize(label_hot, BinningSpec(strategy="none")),
        [f"y{j}" for j in range(n_labels)],
    )


def write_dense_csv(data: Dataset, dest) -> None:
    """Write integer codes as dense CSV (header row, labels last). Reloading
    with ``binning='none'`` reproduces names and codes exactly; a name the
    header cannot carry (a comma, a line break, surrounding whitespace) is
    a ValidationError, raised before ``dest`` is opened."""
    for name in data.feature_names + data.label_names:
        if name != name.strip() or any(c in name for c in ",\n\r"):
            raise ValidationError(f"column name {name!r} cannot be written as a dense CSV header cell")
    close = False
    if isinstance(dest, (str, Path)):
        fh = open(dest, "w", encoding="utf-8", newline="")
        close = True
    else:
        fh = dest
    try:
        fh.write(",".join(data.feature_names + data.label_names) + "\n")
        for features, labels in zip(data.features.T, data.labels.T):
            fh.write(",".join(map(str, features.tolist() + labels.tolist())) + "\n")
    finally:
        if close:
            fh.close()


def generate_synthesized(seed: int = 0) -> Dataset:
    """Build the seeded 800x256 benchmark with 8 binary labels.

    Per label: one source feature agreeing with the label on exactly 128
    instances and one agreeing on exactly 64, each repeated verbatim 50
    times (8 x 2 x 50 = 800 columns).
    """
    rng = np.random.default_rng(seed)
    n = 256
    label_rows = []
    sources = []
    feature_names = []
    for lab in range(8):
        y = rng.integers(0, 2, n).astype(np.int64)
        label_rows.append(y)
        for tag, disagree in (("a", 128), ("b", 192)):
            col = y.copy()
            flip = rng.choice(n, size=disagree, replace=False)
            col[flip] ^= 1
            sources.append(col)
            feature_names.extend(f"x{lab}{tag}{rep:02d}" for rep in range(50))
    return Dataset._from_codes(
        *canonicalize(np.repeat(np.stack(sources), 50, axis=0)),
        feature_names,
        *canonicalize(np.stack(label_rows)),
        [f"y{j}" for j in range(8)],
    )


def dataset_from_matrices(feature_rows, label_rows, *, feature_names=None, label_names=None) -> Dataset:
    """Build a dataset from integer matrices (columns as rows). Convenience
    for tests and synthetic instances; rows are canonicalized."""
    feature_rows = np.atleast_2d(np.asarray(feature_rows))
    label_rows = np.atleast_2d(np.asarray(label_rows))
    d, n = feature_rows.shape
    t = label_rows.shape[0]
    if label_rows.shape[1] != n:
        raise ValidationError("feature and label instance counts differ")
    fnames = feature_names if feature_names else [f"f{i}" for i in range(d)]
    lnames = label_names if label_names else [f"y{j}" for j in range(t)]
    return Dataset._from_codes(*canonicalize(feature_rows), fnames, *canonicalize(label_rows), lnames)
