"""Entropy, mutual information, and the normalized variation-of-information
distance over discrete columns, plus a memoizing cache.

Every quantity comes from one count kernel and one reduction over one
operand, ``Columns``: the codes, cardinalities and entropies of some
columns in groups of rows, each group packed once into bit planes, with
their marginal counts, when its widest column has at most
``PACKED_MAX_WIDTH`` values. A kernel job (t, g, span) is row t of one
``Columns`` against the rows ``span`` of group g of another (or the same).
The kernel returns the exact integer joint counts of each job, laid out
cells-major: a (cells, rows) matrix of the smallest unsigned integer type
that holds n, one column of counts per row. A job takes one of two paths:

- when both rows' groups have bit planes and the joint width t_card *
  widest(g) is at most ``PACKED_MAX_WIDTH`` cells, it reads the planes, of
  shape (words, card, rows), and the marginal counts from the two
  ``Columns``. Only the (t_card - 1)(card - 1) leading cells of each joint
  table are counted, each the popcount of an AND summed over words straight
  into the count matrix; the last column and the last row are the marginal
  counts less the counted cells, n(v, last) = n_t(v) - sum_(u < last) n(v,
  u) and n(last, u) = n_row(u) - sum_(v < last) n(v, u), subtracted in the
  count type. Every difference lies in [0, n], so none wraps;
- any other job sorts each row's joint codes ``x * t_card + t`` and each
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
``Columns.of`` packs a code matrix group by group, keeps each packed
group's marginal counts and computes every entropy, a packed group's from
those counts and another's from sorted codes; every MI and distance reads
one MI expression, ``_mi``. The scalar functions build one ``Columns`` of
two groups per pair. ``InfoCache`` is the one reader of a dataset's feature
matrix: it gathers and packs features into ``Columns``, packs every feature
once and memoizes whole distance rows. ``Columns.distance_rows`` computes
the rows of several targets, each against a span of its own group, in one
batch, the way a greedy run over several machines' candidates needs them:
every packed job's counts share one count matrix, which is reduced once.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .data import BLOCK_CELLS, RAW_CODES, Dataset, DiscreteColumn, canonicalize

# A group whose widest column has at most this many values gets bit planes,
# and joint widths t_card * widest up to it take the packed-bit path; wider
# tables sort joint codes.
PACKED_MAX_WIDTH = 64


def _as_codes(col) -> tuple[np.ndarray, int]:
    if isinstance(col, DiscreteColumn):
        return col.codes, col.cardinality
    arr = np.asarray(col)
    if arr.ndim != 1:
        raise ValueError("column must be one-dimensional")
    if arr.size and not np.issubdtype(arr.dtype, np.integer) and not np.issubdtype(arr.dtype, np.bool_):
        raise ValueError("raw columns must hold integer codes")
    codes, cards = canonicalize(arr[None, :], RAW_CODES)
    return codes[0], int(cards[0])


def _feature_ids(ids) -> np.ndarray:
    """``ids`` as int64; ValueError unless every id is an integer (a float
    or a bool is refused, not truncated)."""
    ids = np.asarray(ids)
    if ids.size and ids.dtype.kind not in "iu":
        raise ValueError("feature ids must be integers")
    return ids.astype(np.int64, copy=False)


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


def _margins(planes: np.ndarray, dtype) -> np.ndarray:
    """Each value's count from bit planes (words, card, ...), shape (card,
    ...), in ``dtype``."""
    return np.add.reduce(np.bitwise_count(planes), axis=0, dtype=dtype)


def _derive(cells: np.ndarray, t_margin: np.ndarray, margins: np.ndarray) -> None:
    """Fill the last column and the last row of joint tables (t_card, card,
    rows) whose other cells are counted: the target's marginal counts (at
    least t_card of them) less a row's counted cells, then each row's
    marginal counts (card, rows) less the cells above. Each difference is a
    count in [0, n], so the count type holds every step."""
    last_t, last = cells.shape[0] - 1, cells.shape[1] - 1
    column = cells[:last_t, last]
    np.add.reduce(cells[:last_t, :last], axis=1, dtype=cells.dtype, out=column)
    np.subtract(t_margin[:last_t, None], column, out=column)
    np.add.reduce(cells[:last_t], axis=0, dtype=cells.dtype, out=cells[last_t])
    np.subtract(margins, cells[last_t], out=cells[last_t])


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
        np.add.reduce(table.take(counts[:, lo : lo + step]), axis=0, out=total[lo : lo + step], initial=0.0)
    return total


def _sorted_entropies(mat: np.ndarray, t_codes=0, t_card: int = 1) -> np.ndarray:
    """Joint entropy of a target column with each row of a code matrix, from
    each row's joint codes ``x * t_card + t`` sorted: each run's length is a
    count, held in the cell of the run's last code, and every other cell is
    zero. Rows are sorted a block of about ``BLOCK_CELLS`` codes at a time,
    so memory stays O(rows x n). The default target, one value everywhere,
    gives each row's own entropy. Codes are dense, so each is below n and
    every joint code below t_card * n.
    """
    rows, n = mat.shape
    dtype = np.int32 if t_card * n <= np.iinfo(np.int32).max else np.int64
    h = np.empty(rows, dtype=np.float64)
    step = max(1, BLOCK_CELLS // n)
    for lo in range(0, rows, step):
        joint = mat[lo : lo + step].astype(dtype)
        joint *= t_card
        joint += t_codes
        joint.sort(axis=1)
        block = joint.shape[0]
        ends = np.ones((block, n), dtype=bool)
        np.not_equal(joint[:, 1:], joint[:, :-1], out=ends[:, :-1])
        # a row's last code ends a run, so the first run of a row starts
        # right after the previous row's last end
        at = np.flatnonzero(ends)
        lengths = np.zeros(block * n, dtype=np.intp)
        lengths[at] = np.diff(at, prepend=-1)
        h[lo : lo + block] = _reduce(lengths.reshape(block, n).T, n)
    return h


def _joint_entropies(targets: Columns, cols: Columns, jobs) -> np.ndarray:
    """The count kernel and the reduction: for each job (t, g, span), the
    joint entropy of row t of ``targets`` with each of the rows ``span`` of
    group g of ``cols``, both over the same n values; one array holding
    every job's rows in job order.

    A job takes the packed-bit path when the target's group and group g
    both have bit planes and t_card * widest(g) <= ``PACKED_MAX_WIDTH``. It
    reads the planes and marginal counts of both rows from their
    ``Columns``, so nothing is packed or popcounted here, counts only its
    (t_card - 1)(widest - 1) leading cells, a block of rows at a time so
    that each popcount temporary holds about ``BLOCK_CELLS`` words, and
    derives its last column and row from the marginals (``_derive``). Every
    packed job's table sits in one shared count matrix as tall as the
    widest packed job, whose other jobs leave their lower cells zero; it is
    reduced once. Any other job sorts codes (``_sorted_entropies``).
    """
    plan = []  # (t_card, widest, target group) per job; widest 0 sorts codes
    for t, g, _ in jobs:
        tg, t_card, planes = bisect_right(targets.bounds, t) - 1, int(targets.cards[t]), cols.planes[g]
        top = 0 if targets.planes[tg] is None or planes is None else planes.shape[1]
        plan.append((t_card, top if t_card * top <= PACKED_MAX_WIDTH else 0, tg))
    total = sum(span.stop - span.start for (_, _, span), (_, top, _) in zip(jobs, plan) if top)
    n = cols.mat.shape[1]
    counts = np.zeros((max(t_card * top for t_card, top, _ in plan), total), dtype=np.min_scalar_type(n))
    out, at = [], 0
    for (t, g, span), (t_card, top, tg) in zip(jobs, plan):
        if not top:
            out.append(_sorted_entropies(cols.mat[span], targets.mat[t], t_card))
            continue
        t_at, lo = t - targets.bounds[tg], cols.bounds[g]
        rows = slice(span.start - lo, span.stop - lo)  # the span within group g
        t_bits, planes, size = targets.planes[tg][:, :, t_at], cols.planes[g][:, :, rows], rows.stop - rows.start
        cells = counts[: t_card * top].reshape(t_card, top, total)[:, :, at : at + size]
        free_t, free = t_card - 1, top - 1
        if free_t and free:
            step = max(1, BLOCK_CELLS // (planes.shape[0] * free_t * free))
            for r in range(0, size, step):
                _packed_counts(t_bits[:, :free_t], planes[:, :free, r : r + step], cells[:free_t, :free, r : r + step])
        _derive(cells, targets.margins[tg][:, t_at], cols.margins[g][:, rows])
        out.append(slice(at, at + size))
        at += size
    h = _reduce(counts, n)
    if all(isinstance(part, slice) for part in out):
        return h  # every job is packed, so h is in job order
    return np.concatenate([h[part] if isinstance(part, slice) else part for part in out])


def _mi(h_target, h_rows, h_joint) -> np.ndarray:
    return np.maximum(0.0, (h_target + h_rows) - h_joint)


def _nvi(h_target, h_rows, h_joint) -> np.ndarray:
    mi = _mi(h_target, h_rows, h_joint)
    positive = h_joint > 0.0
    dist = np.where(positive, 1.0 - mi / np.where(positive, h_joint, 1.0), 0.0)
    # clip to [0, 1] in place: mi >= 0 keeps dist at or below 1, and dist is
    # never -0.0, so raising it to 0.0 gives the bits np.clip gives
    return np.maximum(dist, 0.0, out=dist)


def nvi_distance_rows(t_codes, t_card, h_target, mat, cards, h_rows, *, columns=None) -> np.ndarray:
    """Normalized variation-of-information distance of a target column to
    each row of a code matrix. ``columns`` may hand over ``Columns.of(mat,
    cards)`` when it is already built; the target's ``Columns`` is built
    here."""
    t_codes = np.asarray(t_codes)
    if t_codes.size != mat.shape[1]:
        raise ValueError("column lengths differ")
    target = Columns.of(t_codes[None, :], np.array([t_card]))
    cols = Columns.of(mat, cards) if columns is None else columns
    return _nvi(h_target, h_rows, _joint_entropies(target, cols, [(0, 0, slice(0, mat.shape[0]))]))


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
    and packed once: a ``Columns`` of two groups, a's row and b's."""
    a_codes, a_card = _as_codes(a)
    b_codes, b_card = _as_codes(b)
    if a_codes.size != b_codes.size:
        raise ValueError("column lengths differ")
    cols = Columns.of(np.stack([a_codes, b_codes]), np.array([a_card, b_card]), [0, 1, 2])
    h_ab = _joint_entropies(cols, cols, [(0, 1, slice(1, 2))])
    return float(measure(cols.h[0], cols.h[1:], h_ab)[0])


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
    """The count kernel's one operand: codes, cardinalities and entropies of
    some columns over the same n values, one row each, in groups
    ``bounds[g]:bounds[g + 1]``, and each group's bit planes packed at its
    widest column with their marginal counts (widest, rows) in the count
    type (both None when that is wider than PACKED_MAX_WIDTH)."""

    mat: np.ndarray
    cards: np.ndarray
    h: np.ndarray
    bounds: list
    planes: list
    margins: list

    @classmethod
    def of(cls, mat: np.ndarray, cards: np.ndarray, bounds=None) -> Columns:
        """The rows of a code matrix in groups ``bounds`` (one group when
        None), each group packed once, and every row's entropy: a packed
        group's from its marginal counts, another group's from sorted codes.
        ValueError when the rows hold no values."""
        bounds = [0, mat.shape[0]] if bounds is None else [int(b) for b in bounds]
        n = mat.shape[1]
        if n == 0:
            raise ValueError("columns must have at least one value")
        h = np.empty(mat.shape[0], dtype=np.float64)
        planes, margins = [], []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            top = int(np.max(cards[lo:hi]))
            if top <= PACKED_MAX_WIDTH:
                planes.append(pack_codes(mat[lo:hi], top))
                margins.append(_margins(planes[-1], np.min_scalar_type(n)))
                h[lo:hi] = _reduce(margins[-1], n)
            else:
                planes.append(None)
                margins.append(None)
                h[lo:hi] = _sorted_entropies(mat[lo:hi])
        return cls(mat, cards, h, bounds, planes, margins)

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
        h = self.h
        h_joint = _joint_entropies(self, self, jobs)
        sizes = [span.stop - span.start for _, _, span in jobs]
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
        ids = None if ids is None else _feature_ids(ids)
        whole = (bounds is None or len(bounds) == 2) and (ids is None or np.array_equal(ids, np.arange(d)))
        if whole and self._all is not None:
            return self._all
        mat, cards = data.features, data.feature_cards
        if not whole:
            ids = np.arange(d) if ids is None else ids
            mat, cards = mat[ids], cards[ids]
        cols = Columns.of(mat, cards, bounds)
        if whole:
            cols.h.flags.writeable = False
            self._all = cols
        return cols

    def distance_block(self, target_id: int, ids=None) -> np.ndarray:
        """d(target, u) for each feature id u in ids; without ids, the whole
        row over every feature (read-only)."""
        t, d = int(_feature_ids(target_id)), self._data.n_features
        picked = _feature_ids([] if ids is None else ids)
        if not 0 <= t < d or (picked.size and (picked.min() < 0 or picked.max() >= d)):
            raise ValueError("feature id out of range")
        row = self._rows.get(t)
        if row is None:
            c = self.columns()
            row = nvi_distance_rows(c.mat[t], c.cards[t], c.h[t], c.mat, c.cards, c.h, columns=c)
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
            labels, c = Columns.of(self._data.labels, self._data.label_cards), self.columns()
            every = slice(0, c.mat.shape[0])
            # one kernel call per label, so memory stays that of one label
            cols = [_nmi(h_y, c.h, _joint_entropies(labels, c, [(y, 0, every)])) for y, h_y in enumerate(labels.h)]
            table = np.column_stack(cols)
            table.flags.writeable = False
            self._mi_table = table
        return self._mi_table
