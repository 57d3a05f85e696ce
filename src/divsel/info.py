"""Entropy, mutual information, and the normalized variation-of-information
distance over discrete columns, plus a memoizing cache.

Every quantity comes from one count kernel and one reduction. The kernel
returns the exact integer joint counts of a target column against each row
of a code matrix, laid out cells-major: a (cells, rows) matrix of the
smallest unsigned integer type that holds n, one column of counts per row.
One of two paths is chosen from the joint width ``t_card * max(cards)``
alone:

- up to ``PACKED_MAX_WIDTH`` cells, each code's one-hot indicator is packed
  into uint64 bit planes of shape (words, card, rows) and a joint count is
  the popcount of an AND, summed over words straight into the count matrix;
- above it, each row's joint codes ``x * t_card + t`` are sorted and each
  run's length is a count, held in the cell of the run's last code, so
  memory stays O(rows x n).

An entropy is one column of counts, each count c mapped through a table of
``-(p * log2(p))`` for p = c / n, and the terms added up, one
``np.add.reduce`` over the cell axis per block of columns. Each term is
rounded to a multiple of 2^-e, with e chosen from n so that every partial
sum of a column's terms stays below 2^(53 - e): every such sum is exact in
float64, so the order of the cells does not change a bit and no column is
sorted. A transposed table holds the same counts, so d(a, b) == d(b, a)
bit-for-bit; zero counts add -0.0 and change nothing, so a value does not
depend on the path, on how many pairs are batched together, or on where a
job's cells sit in the count matrix. Cached, batched, and one-off
computations of the same pair agree exactly.
``Columns.of`` packs a code matrix group by group and computes every
entropy; every MI and distance reads one MI expression, ``_mi``.
``InfoCache`` is the one reader of a dataset's feature matrix: it gathers
and packs features into ``Columns``, packs every feature once and memoizes
whole distance rows. ``Columns.distance_rows`` computes the rows of several
targets, each against a span of its own group, in one batch, the way a
greedy run over several machines' candidates needs them: every packed job's
counts share one count matrix, which is reduced once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .data import BLOCK_CELLS, RAW_CODES, Dataset, DiscreteColumn, canonicalize

# Joint widths t_card * max(cards) up to this take the packed-bit path; wider
# tables sort joint codes.
PACKED_MAX_WIDTH = 64


def _as_codes(col) -> tuple[np.ndarray, int]:
    if isinstance(col, DiscreteColumn):
        return col.codes, col.cardinality
    arr = np.asarray(col)
    if arr.ndim != 1:
        raise ValueError("column must be one-dimensional")
    if arr.size == 0:
        raise ValueError("column must have at least one value")
    if not np.issubdtype(arr.dtype, np.integer) and not np.issubdtype(arr.dtype, np.bool_):
        raise ValueError("raw columns must hold integer codes")
    codes, cards = canonicalize(arr[None, :], RAW_CODES)
    return codes[0], int(cards[0])


def pack_codes(mat: np.ndarray, card: int) -> np.ndarray:
    """One-hot bit planes of a (rows, n) code matrix, shape (words, card, rows).

    Bit b of word w of ``[w, v, r]`` is set iff ``mat[r, 64 * w + b] == v``;
    padding bits are zero. Rows are packed a block at a time, so no full
    boolean one-hot is materialized.
    """
    rows, n = mat.shape
    words = -(-n // 64)
    values = np.arange(card, dtype=mat.dtype)[:, None, None]
    step = max(1, BLOCK_CELLS // max(card * n, 1))
    # value-major, so that each value is compared with a whole block of
    # codes in one run instead of one run per row
    planes = np.zeros((card, rows, words * 8), dtype=np.uint8)
    for lo in range(0, rows, step):
        onehot = mat[None, lo : lo + step] == values
        planes[:, lo : lo + step, : -(-n // 8)] = np.packbits(onehot, axis=2, bitorder="little")
    return np.ascontiguousarray(planes.view(np.uint64).transpose(2, 0, 1))


def _packed_counts(t_bits: np.ndarray, packed: np.ndarray, out: np.ndarray) -> None:
    """Joint counts from bit planes: target (words, t_card) against rows
    (words, card, b), written into ``out`` (t_card, card, b)."""
    ones = np.bitwise_count(t_bits.T[:, :, None, None] & packed)
    np.add.reduce(ones, axis=1, dtype=out.dtype, out=out)


def _sorted_counts(t_codes: np.ndarray, t_card: int, mat: np.ndarray, width: int) -> np.ndarray:
    """Joint counts as run lengths of each row's sorted joint codes, shape
    (n, rows): each run's length sits in the cell of its last code, and
    every other cell is zero."""
    rows, n = mat.shape
    dtype = np.int32 if width <= np.iinfo(np.int32).max else np.int64
    joint = mat.astype(dtype) * dtype(t_card) + t_codes.astype(dtype)
    joint.sort(axis=1)
    ends = np.ones((rows, n), dtype=bool)
    np.not_equal(joint[:, 1:], joint[:, :-1], out=ends[:, :-1])
    # a row's last code ends a run, so the first run of a row starts right
    # after the previous row's last end
    at = np.flatnonzero(ends)
    lengths = np.zeros(rows * n, dtype=np.intp)
    lengths[at] = np.diff(at, prepend=-1)
    return lengths.reshape(rows, n).T


@lru_cache(maxsize=16)
def _term_table(n: int) -> np.ndarray:
    """``-(p * log2(p))`` for p = c / n, c = 0..n, rounded to a multiple of
    2^-e with e = 53 - b and 2^b > log2(n) + 1; the c = 0 term is -0.0.

    Terms are non-negative and those of counts that add up to n add up to
    at most log2(n) plus n half-quanta, so every partial sum is a multiple
    of 2^-e below 2^b, which float64 holds exactly: every order of adding
    gives the same bits.
    """
    e = 53 - n.bit_length().bit_length()
    counts = np.arange(n + 1, dtype=np.int64)
    p = counts / float(n)
    terms = -(p * np.log2(np.where(counts > 0, p, 1.0)))
    table = np.ldexp(np.rint(np.ldexp(terms, e)), -e)
    table.flags.writeable = False
    return table


def _reduce(counts: np.ndarray, n: int) -> np.ndarray:
    """Entropy per column of a (cells, rows) count matrix whose columns add
    up to n: the terms of the counts added from 0.0, one ``np.add.reduce``
    over the cell axis per block of about ``BLOCK_CELLS`` cells. Every sum
    is exact (``_term_table``), so neither the order of a column's cells nor
    the blocking changes a bit; zero cells add -0.0 and change nothing.
    """
    table = _term_table(n)
    cells, rows = counts.shape
    total = np.empty(rows, dtype=np.float64)
    step = max(1, BLOCK_CELLS // max(cells, 1))
    for lo in range(0, rows, step):
        np.add.reduce(np.take(table, counts[:, lo : lo + step]), axis=0, out=total[lo : lo + step], initial=0.0)
    return total


def _joint_entropies(jobs, n: int) -> np.ndarray:
    """The count kernel and the reduction: for each job (t_codes, t_card,
    mat, max_card, packed, t_bits), the joint entropy of a target column
    with each row of a code matrix whose codes are below ``max_card``; one
    array holding every job's rows in job order.

    ``packed`` may hand over ``pack_codes(mat, c)`` for any c >= max_card
    and ``t_bits`` the target's bit planes (words, t_card) when they are
    already built; both are used only on the packed-bit path. Packed jobs
    are counted a block of rows at a time, so each popcount temporary holds
    about ``BLOCK_CELLS`` words, into one shared count matrix as tall as the
    widest packed job, whose other jobs leave their lower cells zero; it is
    reduced once. Sorted-codes jobs are reduced block by block.
    """
    if n == 0:
        raise ValueError("columns must have at least one value")
    widths = [int(t_card) * int(max_card) for _, t_card, _, max_card, _, _ in jobs]
    total = sum(job[2].shape[0] for job, w in zip(jobs, widths) if w <= PACKED_MAX_WIDTH)
    width = max([w for w in widths if w <= PACKED_MAX_WIDTH], default=1)
    counts = np.zeros((width, total), dtype=np.min_scalar_type(n))
    out, at = [], 0
    for (t_codes, t_card, mat, max_card, packed, t_bits), w in zip(jobs, widths):
        t_card, max_card, rows = int(t_card), int(max_card), mat.shape[0]
        if w > PACKED_MAX_WIDTH:
            step = max(1, BLOCK_CELLS // n)
            blocks = [
                _reduce(_sorted_counts(t_codes, t_card, mat[lo : lo + step], w), n) for lo in range(0, rows, step)
            ]
            out.append(np.concatenate(blocks) if blocks else np.empty(0, dtype=np.float64))
            continue
        packed = pack_codes(mat, max_card) if packed is None else packed[:, :max_card]
        if t_bits is None:
            t_bits = pack_codes(t_codes[None, :], t_card)[:, :, 0]
        cells = counts[:w].reshape(t_card, max_card, total)
        step = max(1, BLOCK_CELLS // (packed.shape[0] * w))
        for lo in range(0, rows, step):
            hi = min(lo + step, rows)
            _packed_counts(t_bits, packed[:, :, lo:hi], cells[:, :, at + lo : at + hi])
        out.append(slice(at, at + rows))
        at += rows
    h = _reduce(counts, n)
    if all(isinstance(part, slice) for part in out):
        return h  # every job is packed, so h is in job order
    return np.concatenate([h[part] if isinstance(part, slice) else part for part in out])


def joint_entropy_rows(
    t_codes: np.ndarray, t_card: int, mat: np.ndarray, cards: np.ndarray, *, packed=None
) -> np.ndarray:
    """Joint entropy of a target column with each row of a code matrix: the
    count kernel followed by the reduction.

    ``packed`` may hand over ``pack_codes(mat, c)`` for any ``c >= max(cards)``
    when it is already built; it is used only on the packed-bit path.
    """
    t_codes = np.asarray(t_codes)
    if t_codes.size != mat.shape[1]:
        raise ValueError("column lengths differ")
    return _joint_entropies([(t_codes, t_card, mat, int(np.max(cards)), packed, None)], mat.shape[1])


def _mi(h_target, h_rows, h_joint) -> np.ndarray:
    return np.maximum(0.0, (h_target + h_rows) - h_joint)


def _nvi(h_target, h_rows, h_joint) -> np.ndarray:
    mi = _mi(h_target, h_rows, h_joint)
    positive = h_joint > 0.0
    dist = np.where(positive, 1.0 - mi / np.where(positive, h_joint, 1.0), 0.0)
    # clip to [0, 1] in place: mi >= 0 keeps dist at or below 1, and dist is
    # never -0.0, so raising it to 0.0 gives the bits np.clip gives
    return np.maximum(dist, 0.0, out=dist)


def nvi_distance_rows(t_codes, t_card, h_target, mat, cards, h_rows, *, packed=None) -> np.ndarray:
    """Normalized variation-of-information distance, target vs. each row."""
    return _nvi(h_target, h_rows, joint_entropy_rows(t_codes, t_card, mat, cards, packed=packed))


def _nmi(h_target, h_rows, h_joint) -> np.ndarray:
    prod = h_target * h_rows
    denom = np.sqrt(np.where(prod > 0.0, prod, 1.0))
    nmi = np.where(prod > 0.0, _mi(h_target, h_rows, h_joint) / denom, 0.0)
    return np.clip(nmi, 0.0, 1.0)


def entropy(col) -> float:
    """Shannon entropy of one column, in bits."""
    codes, card = _as_codes(col)
    return float(Columns.of(codes[None, :], np.array([card])).h[0])


def _pair(measure, a, b) -> float:
    """``measure(H(a), H(b), H(a, b))`` of two columns, each canonicalized
    once."""
    a_codes, a_card = _as_codes(a)
    b_codes, b_card = _as_codes(b)
    h_ab = joint_entropy_rows(a_codes, a_card, b_codes[None, :], np.array([b_card]))
    h = Columns.of(np.stack([a_codes, b_codes]), np.array([a_card, b_card])).h
    return float(measure(h[0], h[1:], h_ab)[0])


def joint_entropy(a, b) -> float:
    """Shannon entropy of the paired column (a, b)."""
    return _pair(lambda h_a, h_b, h_ab: h_ab, a, b)


def mutual_information(a, b) -> float:
    """I(a; b) = H(a) + H(b) - H(a, b), clamped to be non-negative."""
    return _pair(_mi, a, b)


def nvi_distance(a, b) -> float:
    """1 - I(a; b) / H(a, b): a [0, 1] pseudometric on discrete columns.

    Zero exactly when the columns induce the same partition (duplicates
    included); 0 by convention when H(a, b) = 0.
    """
    return _pair(_nvi, a, b)


def normalized_mi(a, b) -> float:
    """I(a; b) / sqrt(H(a) H(b)) in [0, 1]; 0 if either entropy is 0."""
    return _pair(_nmi, a, b)


@dataclass(frozen=True, eq=False)
class Columns:
    """Codes, cardinalities and entropies of some features, one row each, in
    groups ``bounds[g]:bounds[g + 1]``, and each group's bit planes packed
    at its widest column (None when that is wider than PACKED_MAX_WIDTH)."""

    mat: np.ndarray
    cards: np.ndarray
    h: np.ndarray
    bounds: list
    planes: list

    @classmethod
    def of(cls, mat: np.ndarray, cards: np.ndarray, bounds=None) -> Columns:
        """The rows of a code matrix in groups ``bounds`` (one group when
        None), each group packed once, and every row's entropy, its joint
        entropy with a constant column, from one kernel call."""
        bounds = [0, mat.shape[0]] if bounds is None else [int(b) for b in bounds]
        constant = np.zeros(mat.shape[1], dtype=np.int32)
        planes, jobs = [], []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            top = int(np.max(cards[lo:hi]))
            planes.append(pack_codes(mat[lo:hi], top) if top <= PACKED_MAX_WIDTH else None)
            jobs.append((constant, 1, mat[lo:hi], top, planes[-1], None))
        return cls(mat, cards, _joint_entropies(jobs, mat.shape[1]), bounds, planes)

    def distance_rows(self, jobs) -> list:
        """For each job (t, g, span), with row t and the rows ``span`` both
        inside group g: ``nvi_distance_rows`` of row t against the rows
        ``span``.

        The jobs share one kernel call, in which every packed job counts
        into one count matrix that is reduced once, and one _nvi call covers
        every row. Every value is what ``nvi_distance_rows`` alone gives.
        """
        if not jobs:
            return []
        mat, cards, h = self.mat, self.cards, self.h
        kernel_jobs, sizes = [], []
        for t, g, span in jobs:
            planes, lo = self.planes[g], self.bounds[g]
            if planes is None:
                kernel_jobs.append((mat[t], cards[t], mat[span], int(np.max(cards[span])), None, None))
            else:
                span_bits, t_bits = planes[:, :, span.start - lo : span.stop - lo], planes[:, : cards[t], t - lo]
                kernel_jobs.append((mat[t], cards[t], mat[span], planes.shape[1], span_bits, t_bits))
            sizes.append(span.stop - span.start)
        h_joint = _joint_entropies(kernel_jobs, mat.shape[1])
        targets = [t for t, _, _ in jobs]
        if len(jobs) == 1:
            return [_nvi(h[targets[0]], h[jobs[0][2]], h_joint)]
        rows = _nvi(np.repeat(h[targets], sizes), np.concatenate([h[span] for _, _, span in jobs]), h_joint)
        ends = np.cumsum(sizes).tolist()
        return [rows[end - size : end] for end, size in zip(ends, sizes)]


class InfoCache:
    """The one reader of a dataset's feature matrix: memoized entropies,
    distance rows, and the normalized MI table of its features, and the
    ``Columns`` of any of them.

    Ids are feature ids 0..d-1. A distance row is one feature's distance to
    every feature; ``distance_block`` memoizes it and ``distance`` reads it.
    """

    def __init__(self, data: Dataset):
        self._data = data
        self._rows: dict[int, np.ndarray] = {}
        self._mi_table = None
        self._all = None

    @property
    def data(self) -> Dataset:
        return self._data

    def columns(self, ids=None, bounds=None) -> Columns:
        """The ``Columns`` of the distinct feature ids ``ids`` in that
        order (every feature when None), in groups ``bounds[g]:bounds[g +
        1]`` (one group when None): ``Columns.of``. Every feature in order
        as one group is the dataset's own matrix, built once and kept; any
        other ids are gathered."""
        data = self._data
        d = data.n_features
        whole = (bounds is None or len(bounds) == 2) and (ids is None or np.array_equal(ids, np.arange(d)))
        if whole and self._all is not None:
            return self._all
        mat, cards = data.features, data.feature_cards
        if not whole:
            ids = np.arange(d) if ids is None else np.asarray(ids, dtype=np.int64)
            mat, cards = mat[ids], cards[ids]
        cols = Columns.of(mat, cards, bounds)
        if whole:
            cols.h.flags.writeable = False
            self._all = cols
        return cols

    def distance_block(self, target_id: int, ids=None) -> np.ndarray:
        """d(target, u) for each feature id u in ids; without ids, the whole
        row over every feature (read-only)."""
        t, d = target_id, self._data.n_features
        picked = np.asarray([] if ids is None else ids, dtype=np.int64)
        if not 0 <= t < d or (picked.size and (picked.min() < 0 or picked.max() >= d)):
            raise ValueError("feature id out of range")
        row = self._rows.get(t)
        if row is None:
            c = self.columns()
            row = nvi_distance_rows(c.mat[t], c.cards[t], c.h[t], c.mat, c.cards, c.h, packed=c.planes[0])
            row.flags.writeable = False
            self._rows[t] = row
        return row if ids is None else row[picked]

    def distance(self, i: int, j: int) -> float:
        """d(i, j) for any two feature ids: an entry of i's memoized row."""
        return float(self.distance_block(i, [j])[0])

    def mi_table(self) -> np.ndarray:
        """Normalized MI of every feature against every label, shape
        (n_features, n_labels)."""
        if self._mi_table is None:
            labels, label_cards = self._data.labels, self._data.label_cards
            c = self.columns()
            label_h = Columns.of(labels, label_cards).h
            cols = [
                _nmi(h_y, c.h, joint_entropy_rows(y, card, c.mat, c.cards, packed=c.planes[0]))
                for y, card, h_y in zip(labels, label_cards.tolist(), label_h.tolist())
            ]
            table = np.column_stack(cols)
            table.flags.writeable = False
            self._mi_table = table
        return self._mi_table
