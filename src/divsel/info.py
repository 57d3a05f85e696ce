"""Entropy, mutual information, and the normalized variation-of-information
distance over discrete columns, plus a memoizing cache.

Every quantity comes from one count kernel and one reduction. The kernel
returns the exact integer joint counts of a target column against each row
of a code matrix, by one of two paths chosen from the joint width
``t_card * max(cards)`` alone:

- up to ``PACKED_MAX_WIDTH`` cells, each code's one-hot indicator is packed
  into uint64 bit words and a joint count is the popcount of an AND;
- above it, each row's joint codes ``x * t_card + t`` are sorted and the run
  lengths are the counts, so no zero cell is ever created and memory stays
  O(rows x n).

An entropy is one row's counts sorted ascending, each count c mapped through
a table of ``-(p * log(p))`` for p = c / n, and the terms added left to right.
Sorting makes transposed tables sum identically, so d(a, b) == d(b, a)
bit-for-bit; zero counts add -0.0 and change nothing, so a value does not
depend on the path, on how many pairs are batched together, or on padding.
Cached, batched, and one-off computations of the same pair agree exactly.
``InfoCache`` packs its universe once; ``distance_rows`` computes the new
distance rows of several caches in one batch, the way a greedy run over
several machines' candidates needs them.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .data import BLOCK_CELLS, Dataset, DiscreteColumn

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
    uniq, codes = np.unique(arr, return_inverse=True)
    return codes, int(uniq.size)


def _packs(t_card: int, max_card: int) -> bool:
    """Whether a joint table of this shape takes the packed-bit path."""
    return int(t_card) * int(max_card) <= PACKED_MAX_WIDTH


def pack_codes(mat: np.ndarray, card: int) -> np.ndarray:
    """One-hot bit planes of a (rows, n) code matrix, shape (words, rows, card).

    Bit b of word w of ``[w, r, v]`` is set iff ``mat[r, 64 * w + b] == v``;
    padding bits are zero. Rows are packed a block at a time, so no full
    boolean one-hot is materialized.
    """
    rows, n = mat.shape
    words = -(-n // 64)
    values = np.arange(card, dtype=mat.dtype)[:, None]
    step = max(1, BLOCK_CELLS // max(card * n, 1))
    planes = np.zeros((rows, card, words * 8), dtype=np.uint8)
    for lo in range(0, rows, step):
        onehot = mat[lo : lo + step, None, :] == values
        planes[lo : lo + step, :, : -(-n // 8)] = np.packbits(onehot, axis=2, bitorder="little")
    return np.ascontiguousarray(planes.view(np.uint64).transpose(2, 0, 1))


def _packed_counts(t_bits: np.ndarray, packed: np.ndarray) -> np.ndarray:
    """Joint counts from bit planes: target (words, t_card) against rows
    (words, b, card), as a (b, t_card * card) matrix."""
    _, rows, card = packed.shape
    t_card = t_bits.shape[1]
    ones = np.bitwise_count(t_bits.T[:, :, None, None] & packed).sum(axis=1, dtype=np.intp)
    return ones.transpose(1, 0, 2).reshape(rows, t_card * card)


def _sorted_counts(t_codes: np.ndarray, t_card: int, mat: np.ndarray, width: int) -> np.ndarray:
    """Joint counts as run lengths of each row's sorted joint codes, one
    column per run of the row with the most runs; shorter rows are padded
    with zero counts."""
    rows, n = mat.shape
    dtype = np.int32 if width <= np.iinfo(np.int32).max else np.int64
    joint = mat.astype(dtype) * dtype(t_card) + t_codes.astype(dtype)
    joint.sort(axis=1)
    ends = np.ones((rows, n), dtype=bool)
    np.not_equal(joint[:, 1:], joint[:, :-1], out=ends[:, :-1])
    pos = np.arange(n, dtype=np.intp)
    prev_end = np.full((rows, n), -1, dtype=np.intp)
    np.maximum.accumulate(np.where(ends[:, :-1], pos[:-1], -1), axis=1, out=prev_end[:, 1:])
    lengths = np.where(ends, pos - prev_end, 0)
    lengths.sort(axis=1)
    return lengths[:, n - int(ends.sum(axis=1).max()) :]


@lru_cache(maxsize=16)
def _term_table(n: int, log_fn) -> np.ndarray:
    """``-(p * log_fn(p))`` for p = c / n, c = 0..n; the c = 0 term is -0.0."""
    counts = np.arange(n + 1, dtype=np.int64)
    p = counts / float(n)
    table = -(p * log_fn(np.where(counts > 0, p, 1.0)))
    table.flags.writeable = False
    return table


def _entropy_from_counts(counts: np.ndarray, n: int, log_fn) -> np.ndarray:
    """Entropy per row of a count matrix, which is sorted in place: terms of
    the ascending counts, added left to right. Zero cells contribute nothing."""
    counts.sort(axis=1)
    table = _term_table(n, log_fn)
    if counts.shape[0] < counts.shape[1]:
        # few rows: one running sum per row costs less than a loop over
        # columns; + 0.0 turns the -0.0 of an all -0.0 row into the 0.0
        # that a sum started at 0.0 gives
        return np.add.accumulate(table[counts], axis=1)[:, -1] + 0.0
    terms = table[np.ascontiguousarray(counts.T)]
    total = np.zeros(counts.shape[0], dtype=np.float64)
    for column in terms:
        total += column
    return total


def _joint_counts(t_codes: np.ndarray, t_card: int, mat: np.ndarray, max_card: int, packed=None, t_bits=None):
    """The count kernel: exact joint counts of a target column against each
    row of a code matrix whose codes are below ``max_card``, yielded as
    (rows, cells) blocks in row order.

    ``packed`` may hand over ``pack_codes(mat, max_card)`` and ``t_bits`` the
    target's bit planes (words, t_card) when they are already built; both
    are used only on the packed-bit path.
    """
    rows, n = mat.shape
    width = int(t_card) * int(max_card)
    if _packs(t_card, max_card):
        if packed is None:
            packed = pack_codes(mat, max_card)
        if t_bits is None:
            t_bits = pack_codes(t_codes[None, :], int(t_card))[:, 0, :]
        step = max(1, BLOCK_CELLS // (packed.shape[0] * width))
        for lo in range(0, rows, step):
            yield _packed_counts(t_bits, packed[:, lo : lo + step])
    else:
        step = max(1, BLOCK_CELLS // n)
        for lo in range(0, rows, step):
            yield _sorted_counts(t_codes, t_card, mat[lo : lo + step], width)


def _entropies(blocks, n: int, log_fn) -> np.ndarray:
    """The reduction, applied to count blocks in row order."""
    out = [_entropy_from_counts(counts, n, log_fn) for counts in blocks]
    return np.concatenate(out) if out else np.empty(0, dtype=np.float64)


def entropy_rows(mat: np.ndarray, cards: np.ndarray, *, log_fn=np.log2, packed=None) -> np.ndarray:
    """Entropy of each row of a code matrix: its joint entropy with a
    constant column."""
    t_codes = np.zeros(mat.shape[1], dtype=np.int32)
    return joint_entropy_rows(t_codes, 1, mat, cards, log_fn=log_fn, packed=packed)


def joint_entropy_rows(
    t_codes: np.ndarray, t_card: int, mat: np.ndarray, cards: np.ndarray, *, log_fn=np.log2, packed=None
) -> np.ndarray:
    """Joint entropy of a target column with each row of a code matrix: the
    count kernel followed by the reduction, a block of rows at a time.

    ``packed`` may hand over ``pack_codes(mat, c)`` for any ``c >= max(cards)``
    when it is already built; it is used only on the packed-bit path.
    """
    t_codes = np.asarray(t_codes)
    if mat.shape[1] == 0:
        raise ValueError("columns must have at least one value")
    if t_codes.size != mat.shape[1]:
        raise ValueError("column lengths differ")
    blocks = _joint_counts(t_codes, t_card, mat, int(np.max(cards)), packed)
    return _entropies(blocks, mat.shape[1], log_fn)


def _nvi(h_target, h_rows, h_joint) -> np.ndarray:
    mi = np.maximum(0.0, (h_target + h_rows) - h_joint)
    positive = h_joint > 0.0
    dist = np.where(positive, 1.0 - mi / np.where(positive, h_joint, 1.0), 0.0)
    return np.clip(dist, 0.0, 1.0)


def nvi_distance_rows(
    t_codes, t_card, h_target, mat, cards, h_rows, *, log_fn=np.log2, packed=None
) -> np.ndarray:
    """Normalized variation-of-information distance, target vs. each row."""
    h_joint = joint_entropy_rows(t_codes, t_card, mat, cards, log_fn=log_fn, packed=packed)
    return _nvi(h_target, h_rows, h_joint)


def normalized_mi_rows(
    t_codes, t_card, h_target, mat, cards, h_rows, *, log_fn=np.log2, packed=None
) -> np.ndarray:
    """Mutual information scaled by sqrt(H(a) H(b)), target vs. each row."""
    h_joint = joint_entropy_rows(t_codes, t_card, mat, cards, log_fn=log_fn, packed=packed)
    mi = np.maximum(0.0, (h_target + h_rows) - h_joint)
    prod = h_target * h_rows
    denom = np.sqrt(np.where(prod > 0.0, prod, 1.0))
    nmi = np.where(prod > 0.0, mi / denom, 0.0)
    return np.clip(nmi, 0.0, 1.0)


def entropy(col, *, log_fn=np.log2) -> float:
    """Shannon entropy of one column, in bits for the default log."""
    codes, card = _as_codes(col)
    return float(entropy_rows(codes[None, :], np.array([card]), log_fn=log_fn)[0])


def joint_entropy(a, b, *, log_fn=np.log2) -> float:
    """Shannon entropy of the paired column (a, b)."""
    a_codes, a_card = _as_codes(a)
    b_codes, b_card = _as_codes(b)
    return float(
        joint_entropy_rows(a_codes, a_card, b_codes[None, :], np.array([b_card]), log_fn=log_fn)[0]
    )


def mutual_information(a, b, *, log_fn=np.log2) -> float:
    """I(a; b) = H(a) + H(b) - H(a, b), clamped to be non-negative."""
    ha = entropy(a, log_fn=log_fn)
    hb = entropy(b, log_fn=log_fn)
    hab = joint_entropy(a, b, log_fn=log_fn)
    return max(0.0, (ha + hb) - hab)


def _pair(rows_fn, a, b, log_fn) -> float:
    """``rows_fn`` of column a against the one-row matrix of column b."""
    a_codes, a_card = _as_codes(a)
    b_codes, b_card = _as_codes(b)
    ha = float(entropy_rows(a_codes[None, :], np.array([a_card]), log_fn=log_fn)[0])
    hb = entropy_rows(b_codes[None, :], np.array([b_card]), log_fn=log_fn)
    return float(rows_fn(a_codes, a_card, ha, b_codes[None, :], np.array([b_card]), hb, log_fn=log_fn)[0])


def nvi_distance(a, b, *, log_fn=np.log2) -> float:
    """1 - I(a; b) / H(a, b): a [0, 1] pseudometric on discrete columns.

    Zero exactly when the columns induce the same partition (duplicates
    included); 0 by convention when H(a, b) = 0.
    """
    return _pair(nvi_distance_rows, a, b, log_fn)


def normalized_mi(a, b, *, log_fn=np.log2) -> float:
    """I(a; b) / sqrt(H(a) H(b)) in [0, 1]; 0 if either entropy is 0."""
    return _pair(normalized_mi_rows, a, b, log_fn)


class InfoCache:
    """Memoized entropies, distance rows, and the normalized MI table for
    one dataset's columns.

    Column ids: features are 0..d-1; label j is d+j. ``feature_ids``
    restricts the universe that distance rows cover (a machine's partition);
    the vectorized lookups (``distance_block``, ``positions``) take only
    universe ids. ``distance`` accepts any two column ids and is one
    unmemoized kernel call.
    """

    def __init__(self, data: Dataset, feature_ids=None):
        self._data = data
        if feature_ids is None:
            universe = np.arange(data.n_features, dtype=np.int64)
        else:
            universe = np.unique(np.asarray(feature_ids, dtype=np.int64))
            if universe.size and (universe[0] < 0 or universe[-1] >= data.n_features):
                raise ValueError("feature id out of range")
        self._universe = universe
        self._entropies: dict[int, float] = {}
        self._rows: dict[int, np.ndarray] = {}
        self._mi_table = None
        self._umat = None
        self._ucards = None
        self._uH = None
        self._umax = None
        self._upacked = None

    @property
    def data(self) -> Dataset:
        return self._data

    @property
    def universe(self) -> np.ndarray:
        return self._universe

    def _column(self, cid: int) -> tuple[np.ndarray, int]:
        """Codes and cardinality of a column id: a row of the dataset's
        feature or label matrix."""
        data = self._data
        d = data.n_features
        if 0 <= cid < d:
            return data.feature_matrix[cid], int(data.feature_cards[cid])
        if d <= cid < d + data.n_labels:
            return data.label_matrix[cid - d], int(data.label_cards[cid - d])
        raise ValueError(f"column id {cid} out of range")

    def entropy(self, cid: int) -> float:
        h = self._entropies.get(cid)
        if h is None:
            codes, card = self._column(cid)
            h = float(entropy_rows(codes[None, :], np.array([card]))[0])
            self._entropies[cid] = h
        return h

    def _universe_arrays(self):
        if self._umat is None:
            if self._universe.size == self._data.n_features:
                # the universe is every feature, in order
                self._umat, self._ucards = self._data.feature_matrix, self._data.feature_cards
            else:
                self._umat = self._data.feature_matrix[self._universe]
                self._ucards = self._data.feature_cards[self._universe]
            self._umax = int(np.max(self._ucards))
            self._uH = entropy_rows(self._umat, self._ucards, packed=self._packed(1))
            for cid, h in zip(self._universe.tolist(), self._uH.tolist()):
                self._entropies.setdefault(cid, h)
        return self._umat, self._ucards, self._uH

    def _packed(self, t_card: int):
        """The universe's bit planes if a target with ``t_card`` values takes
        the packed path against it, else None. Packed once, on first use."""
        if not _packs(t_card, self._umax):
            return None
        if self._upacked is None:
            self._upacked = pack_codes(self._umat, self._umax)
        return self._upacked

    def distance_block(self, target_id: int, ids=None) -> np.ndarray:
        """d(target, u) for each u in ids, which must lie in the universe;
        without ids, the whole universe row (read-only)."""
        row = self._rows.get(target_id)
        if row is None:
            codes, card = self._column(target_id)
            mat, cards, h_rows = self._universe_arrays()
            row = nvi_distance_rows(
                codes, card, self.entropy(target_id), mat, cards, h_rows, packed=self._packed(card)
            )
            row.flags.writeable = False
            self._rows[target_id] = row
        return row if ids is None else row[self.positions(ids)]

    def positions(self, ids) -> np.ndarray:
        """Index of each id in the universe."""
        ids = np.asarray(ids, dtype=np.int64)
        pos = np.searchsorted(self._universe, ids)
        # an id past the end clips onto the last universe id, which differs
        if np.any(self._universe.take(pos, mode="clip") != ids):
            raise ValueError("id outside this cache's feature universe")
        return pos

    def distance(self, i: int, j: int) -> float:
        """d(i, j) for any two column ids: one kernel call, not memoized."""
        (a, a_card), (b, b_card) = self._column(i), self._column(j)
        h_b = np.array([self.entropy(j)])
        return float(nvi_distance_rows(a, a_card, self.entropy(i), b[None, :], np.array([b_card]), h_b)[0])

    def mi_table(self) -> np.ndarray:
        """Normalized MI of every universe feature against every label,
        shape (universe size, n_labels)."""
        if self._mi_table is None:
            d = self._data.n_features
            mat, cards, h_rows = self._universe_arrays()
            cols = []
            for j in range(self._data.n_labels):
                codes, card = self._column(d + j)
                cols.append(
                    normalized_mi_rows(
                        codes, card, self.entropy(d + j), mat, cards, h_rows, packed=self._packed(card)
                    )
                )
            table = np.column_stack(cols)
            table.flags.writeable = False
            self._mi_table = table
        return self._mi_table


def distance_rows(caches, target_ids) -> list:
    """``caches[i].distance_block(target_ids[i])`` for each i: whole universe
    rows, for caches over one dataset.

    When several rows are not memoized yet, they are computed and memoized
    together: the targets' bit planes are packed at once and one _nvi call
    covers all rows, so many small universes share those fixed costs. Every
    value is what distance_block alone gives.
    """
    todo = [(cache, int(t)) for cache, t in zip(caches, target_ids) if int(t) not in cache._rows]
    if len(todo) > 1:
        jobs = [(cache, t, *cache._column(t), cache._universe_arrays()) for cache, t in todo]
        narrow = [i for i, (cache, _, _, card, _) in enumerate(jobs) if _packs(card, cache._umax)]
        t_bits = {}
        if narrow:
            cols = [jobs[i][2:4] for i in narrow]
            planes = pack_codes(np.stack([codes for codes, _ in cols]), max(card for _, card in cols))
            t_bits = {i: planes[:, j, :card] for j, (i, (_, card)) in enumerate(zip(narrow, cols))}
        blocks, h_target, h_rows = [], [], []
        for i, (cache, t, codes, card, (mat, _, h)) in enumerate(jobs):
            packed = cache._packed(card)
            blocks.append(_joint_counts(codes, card, mat, cache._umax, packed, t_bits.get(i)))
            h_target.append(cache.entropy(t))
            h_rows.append(h)
        h_joint = _entropies(itertools.chain.from_iterable(blocks), mat.shape[1], np.log2)
        sizes = [h.size for h in h_rows]
        rows = _nvi(np.repeat(h_target, sizes), np.concatenate(h_rows), h_joint)
        rows.flags.writeable = False
        for (cache, t, _, _, _), row in zip(jobs, np.split(rows, np.cumsum(sizes)[:-1])):
            cache._rows[t] = row
    return [cache.distance_block(t) for cache, t in zip(caches, target_ids)]
