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
``InfoCache`` packs every feature once and memoizes whole distance rows;
``nvi_distance_spans`` computes the rows of several targets, each against
its own span of one code matrix, in one batch, the way a greedy run over
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
def _term_table(n: int) -> np.ndarray:
    """``-(p * log2(p))`` for p = c / n, c = 0..n; the c = 0 term is -0.0."""
    counts = np.arange(n + 1, dtype=np.int64)
    p = counts / float(n)
    table = -(p * np.log2(np.where(counts > 0, p, 1.0)))
    table.flags.writeable = False
    return table


def _entropy_from_counts(counts: np.ndarray, n: int) -> np.ndarray:
    """Entropy per row of a count matrix, which is sorted in place: terms of
    the ascending counts, added left to right. Zero cells contribute nothing."""
    counts.sort(axis=1)
    table = _term_table(n)
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


def _entropies(blocks, n: int) -> np.ndarray:
    """The reduction, applied to count blocks in row order."""
    out = [_entropy_from_counts(counts, n) for counts in blocks]
    return np.concatenate(out) if out else np.empty(0, dtype=np.float64)


def entropy_rows(mat: np.ndarray, cards: np.ndarray, *, packed=None) -> np.ndarray:
    """Entropy of each row of a code matrix: its joint entropy with a
    constant column."""
    t_codes = np.zeros(mat.shape[1], dtype=np.int32)
    return joint_entropy_rows(t_codes, 1, mat, cards, packed=packed)


def joint_entropy_rows(
    t_codes: np.ndarray, t_card: int, mat: np.ndarray, cards: np.ndarray, *, packed=None
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
    return _entropies(blocks, mat.shape[1])


def _nvi(h_target, h_rows, h_joint) -> np.ndarray:
    mi = np.maximum(0.0, (h_target + h_rows) - h_joint)
    positive = h_joint > 0.0
    dist = np.where(positive, 1.0 - mi / np.where(positive, h_joint, 1.0), 0.0)
    return np.clip(dist, 0.0, 1.0)


def nvi_distance_rows(
    t_codes, t_card, h_target, mat, cards, h_rows, *, packed=None
) -> np.ndarray:
    """Normalized variation-of-information distance, target vs. each row."""
    h_joint = joint_entropy_rows(t_codes, t_card, mat, cards, packed=packed)
    return _nvi(h_target, h_rows, h_joint)


def normalized_mi_rows(
    t_codes, t_card, h_target, mat, cards, h_rows, *, packed=None
) -> np.ndarray:
    """Mutual information scaled by sqrt(H(a) H(b)), target vs. each row."""
    h_joint = joint_entropy_rows(t_codes, t_card, mat, cards, packed=packed)
    mi = np.maximum(0.0, (h_target + h_rows) - h_joint)
    prod = h_target * h_rows
    denom = np.sqrt(np.where(prod > 0.0, prod, 1.0))
    nmi = np.where(prod > 0.0, mi / denom, 0.0)
    return np.clip(nmi, 0.0, 1.0)


def entropy(col) -> float:
    """Shannon entropy of one column, in bits."""
    codes, card = _as_codes(col)
    return float(entropy_rows(codes[None, :], np.array([card]))[0])


def joint_entropy(a, b) -> float:
    """Shannon entropy of the paired column (a, b)."""
    a_codes, a_card = _as_codes(a)
    b_codes, b_card = _as_codes(b)
    return float(
        joint_entropy_rows(a_codes, a_card, b_codes[None, :], np.array([b_card]))[0]
    )


def mutual_information(a, b) -> float:
    """I(a; b) = H(a) + H(b) - H(a, b), clamped to be non-negative."""
    ha = entropy(a)
    hb = entropy(b)
    hab = joint_entropy(a, b)
    return max(0.0, (ha + hb) - hab)


def _pair(rows_fn, a, b) -> float:
    """``rows_fn`` of column a against the one-row matrix of column b."""
    a_codes, a_card = _as_codes(a)
    b_codes, b_card = _as_codes(b)
    ha = float(entropy_rows(a_codes[None, :], np.array([a_card]))[0])
    hb = entropy_rows(b_codes[None, :], np.array([b_card]))
    return float(rows_fn(a_codes, a_card, ha, b_codes[None, :], np.array([b_card]), hb)[0])


def nvi_distance(a, b) -> float:
    """1 - I(a; b) / H(a, b): a [0, 1] pseudometric on discrete columns.

    Zero exactly when the columns induce the same partition (duplicates
    included); 0 by convention when H(a, b) = 0.
    """
    return _pair(nvi_distance_rows, a, b)


def normalized_mi(a, b) -> float:
    """I(a; b) / sqrt(H(a) H(b)) in [0, 1]; 0 if either entropy is 0."""
    return _pair(normalized_mi_rows, a, b)


def entropies_and_planes(mat: np.ndarray, cards: np.ndarray):
    """Entropy of each row of a code matrix, and the rows' bit planes at
    their widest column, which later calls against these rows reuse; None
    when that column is wider than PACKED_MAX_WIDTH."""
    top = int(np.max(cards))
    planes = pack_codes(mat, top) if _packs(1, top) else None
    return entropy_rows(mat, cards, packed=planes), planes


def nvi_distance_spans(mat, cards, h, jobs) -> list:
    """For each job (t, span, planes): ``nvi_distance_rows`` of row t of a
    code matrix against its rows ``span``, whose ``entropies_and_planes``
    are ``h[span]`` and ``planes``.

    One job is that one call. Several share their fixed costs: the targets'
    bit planes are packed at once and one _nvi call covers every row. Every
    value is what the call alone gives.
    """
    if len(jobs) < 2:
        return [nvi_distance_rows(mat[t], cards[t], h[t], mat[s], cards[s], h[s], packed=p) for t, s, p in jobs]
    targets = [t for t, _, _ in jobs]
    tops = [int(np.max(cards[span])) for _, span, _ in jobs]
    narrow = [i for i, (t, top) in enumerate(zip(targets, tops)) if _packs(cards[t], top)]
    t_bits = {}
    if narrow:
        picked = [targets[i] for i in narrow]
        bits = pack_codes(mat[picked], int(np.max(cards[picked])))
        t_bits = {i: bits[:, j, : cards[t]] for j, (i, t) in enumerate(zip(narrow, picked))}
    blocks = [
        _joint_counts(mat[t], cards[t], mat[span], top, planes, t_bits.get(i))
        for i, ((t, span, planes), top) in enumerate(zip(jobs, tops))
    ]
    sizes = [span.stop - span.start for _, span, _ in jobs]
    h_joint = _entropies(itertools.chain.from_iterable(blocks), mat.shape[1])
    rows = _nvi(np.repeat(h[targets], sizes), np.concatenate([h[span] for _, span, _ in jobs]), h_joint)
    return np.split(rows, np.cumsum(sizes)[:-1])


class InfoCache:
    """Memoized entropies, distance rows, and the normalized MI table of
    one dataset's columns.

    Column ids: features are 0..d-1; label j is d+j. A distance row is one
    column's distance to every feature; ``distance_block`` memoizes it.
    ``distance`` accepts any two column ids and is one unmemoized kernel
    call.
    """

    def __init__(self, data: Dataset):
        self._data = data
        self._entropies: dict[int, float] = {}
        self._rows: dict[int, np.ndarray] = {}
        self._mi_table = None
        self._h = None
        self._planes = None

    @property
    def data(self) -> Dataset:
        return self._data

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

    def feature_arrays(self):
        """Every feature's codes, cardinalities and entropies, and their bit
        planes (None when a feature has more than PACKED_MAX_WIDTH values).
        The codes are the dataset's own matrix; the rest is built once."""
        data = self._data
        mat, cards = data.feature_matrix, data.feature_cards
        if self._h is None:
            self._h, self._planes = entropies_and_planes(mat, cards)
            self._h.flags.writeable = False
            for cid, h in enumerate(self._h.tolist()):
                self._entropies.setdefault(cid, h)
        return mat, cards, self._h, self._planes

    def _kernel_rows(self, rows_fn, cid: int) -> np.ndarray:
        """``rows_fn`` of column ``cid`` against every feature."""
        codes, card = self._column(cid)
        mat, cards, h, planes = self.feature_arrays()
        return rows_fn(codes, card, self.entropy(cid), mat, cards, h, packed=planes)

    def memoized_row(self, cid: int):
        """The memoized distance row of column ``cid``, or None."""
        return self._rows.get(cid)

    def distance_block(self, target_id: int, ids=None) -> np.ndarray:
        """d(target, u) for each feature id u in ids; without ids, the whole
        row over every feature (read-only)."""
        row = self._rows.get(target_id)
        if row is None:
            row = self._kernel_rows(nvi_distance_rows, target_id)
            row.flags.writeable = False
            self._rows[target_id] = row
        if ids is None:
            return row
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= row.size):
            raise ValueError("feature id out of range")
        return row[ids]

    def distance(self, i: int, j: int) -> float:
        """d(i, j) for any two column ids: one kernel call, not memoized."""
        (a, a_card), (b, b_card) = self._column(i), self._column(j)
        h_b = np.array([self.entropy(j)])
        return float(nvi_distance_rows(a, a_card, self.entropy(i), b[None, :], np.array([b_card]), h_b)[0])

    def mi_table(self) -> np.ndarray:
        """Normalized MI of every feature against every label, shape
        (n_features, n_labels)."""
        if self._mi_table is None:
            d = self._data.n_features
            cols = [self._kernel_rows(normalized_mi_rows, d + j) for j in range(self._data.n_labels)]
            table = np.column_stack(cols)
            table.flags.writeable = False
            self._mi_table = table
        return self._mi_table
