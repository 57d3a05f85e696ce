"""Information kernels: hand values, conventions, exactness guarantees."""

import math
import tracemalloc

import numpy as np
import pytest

from divsel.data import BinningSpec, Dataset, DiscreteColumn, dataset_from_matrices
from divsel import info
from divsel.info import (
    Columns,
    InfoCache,
    entropy,
    joint_entropy,
    mutual_information,
    normalized_mi,
    nvi_distance,
    nvi_distance_rows,
)
from divsel.objective import ObjectiveConfig, SelectionState
from helpers import ContingencyTable

A = np.array([0, 0, 1, 1])
B = np.array([0, 0, 0, 1])
IND = np.array([0, 1, 0, 1])

H_B = 0.8112781244591328
H_AB = 1.5
I_AB = 0.31127812445913294
D_AB = 0.792481250360578
NMI_AB = 0.34559202994421145


def test_entropy_hand_values():
    assert entropy(IND) == 1.0
    assert entropy(np.zeros(4, dtype=int)) == 0.0
    assert entropy(B) == pytest.approx(H_B, abs=1e-15)


def test_joint_entropy_hand_values():
    assert joint_entropy(IND, IND) == 1.0
    assert joint_entropy(A, IND) == 2.0
    assert joint_entropy(A, B) == pytest.approx(H_AB, abs=1e-15)


def test_mutual_information_hand_values():
    assert mutual_information(IND, IND) == 1.0
    assert mutual_information(A, IND) == 0.0
    assert mutual_information(A, B) == pytest.approx(I_AB, abs=1e-15)


def test_nvi_distance_hand_values():
    assert nvi_distance(A, A) == 0.0
    assert nvi_distance(A, IND) == 1.0
    assert nvi_distance(A, B) == pytest.approx(D_AB, abs=1e-15)


def test_normalized_mi_hand_values():
    assert normalized_mi(IND, IND) == 1.0
    assert normalized_mi(A, np.zeros(4, dtype=int)) == 0.0
    # 0.311278 / sqrt(1 * 0.811278), evaluated once and frozen
    assert normalized_mi(A, B) == pytest.approx(NMI_AB, abs=1e-15)


def test_relabeled_duplicate_is_distance_zero():
    # same partition of instances, different code values
    a = np.array([0, 0, 1, 1, 2, 2])
    b = np.array([5, 5, 9, 9, 1, 1])
    assert nvi_distance(a, b) == 0.0
    assert normalized_mi(a, b) == 1.0


def test_both_constant_convention():
    c = np.zeros(6, dtype=int)
    assert nvi_distance(c, c) == 0.0
    assert normalized_mi(c, c) == 0.0


def test_empty_and_mismatched_inputs_rejected():
    # an empty column is refused by every function with one message, an
    # empty DiscreteColumn too, and no warning comes first
    scalar = (entropy, joint_entropy, mutual_information, nvi_distance, normalized_mi)
    for empty in (np.array([], dtype=int), [], DiscreteColumn(np.array([], dtype=int), 0)):
        for fn in scalar:
            with pytest.raises(ValueError, match="columns must have at least one value"):
                fn(empty) if fn is entropy else fn(empty, empty)
    with pytest.raises(ValueError):
        joint_entropy(np.array([0, 1]), np.array([0, 1, 0]))
    with pytest.raises(ValueError):
        entropy(np.array([0.5, 1.5]))
    with pytest.raises(ValueError):
        entropy(np.zeros((2, 2), dtype=int))


def test_contingency_table():
    tab = ContingencyTable.from_columns(A, B)
    assert tab.n == 4
    assert tab.joint.tolist() == [[2, 0], [1, 1]]
    assert tab.row_marginal.tolist() == [2, 2]
    assert tab.col_marginal.tolist() == [3, 1]
    with pytest.raises(ValueError):
        ContingencyTable(np.array([[1, 1], [1, 1]]), 5)
    with pytest.raises(ValueError):
        ContingencyTable(np.array([[2, -1], [2, 1]]), 4)


def test_symmetry_exact_over_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(2, 64))
        a = rng.integers(0, int(rng.integers(2, 5)), n)
        b = rng.integers(0, int(rng.integers(2, 5)), n)
        assert nvi_distance(a, b) == nvi_distance(b, a)
        assert normalized_mi(a, b) == normalized_mi(b, a)


def test_range_clamped():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(2, 48))
        a = rng.integers(0, 6, n)
        b = rng.integers(0, 6, n)
        assert 0.0 <= nvi_distance(a, b) <= 1.0
        assert 0.0 <= normalized_mi(a, b) <= 1.0


def test_batch_matches_scalar_bitwise():
    """One distance row over a padded batch equals the pair-at-a-time path."""
    rng = np.random.default_rng(14)
    n = 32
    target = rng.integers(0, 3, n)
    mat = rng.integers(0, 4, size=(7, n))
    cards = np.array([int(mat[i].max()) + 1 for i in range(7)])
    h_t = entropy(target)
    h_rows = Columns.of(mat, cards).h
    row = nvi_distance_rows(target.astype(np.int64), 3, h_t, mat, cards, h_rows)
    for i in range(7):
        assert row[i] == nvi_distance(target, mat[i])


def _small_dataset():
    rng = np.random.default_rng(15)
    feats = rng.integers(0, 3, size=(6, 20))
    feats[3] = feats[1]  # duplicate column
    labels = rng.integers(0, 2, size=(2, 20))
    return dataset_from_matrices(feats, labels)


def test_cache_hits_are_bit_identical():
    data = _small_dataset()
    cache = InfoCache(data)
    cold = InfoCache(data)
    for i in range(6):
        for j in range(i, 6):
            first = cache.distance(i, j)
            assert first == cache.distance(i, j)
            assert first == cold.distance(j, i)
            assert first == nvi_distance(data.features[i], data.features[j])
    assert cache.distance(1, 3) == 0.0


def test_scalar_distance_of_matrix_rows_matches_cache_rows(synth, synth_cache):
    # the benchmark's symmetry check calls nvi_distance on raw matrix rows
    rng = np.random.default_rng(16)
    for a, b in rng.integers(0, synth.n_features, size=(20, 2)).tolist():
        assert nvi_distance(synth.features[a], synth.features[b]) == synth_cache.distance_block(a)[b]
        assert nvi_distance(synth.features[b], synth.features[a]) == synth_cache.distance_block(a)[b]


def test_distance_block_matches_scalar_lookups():
    data = _small_dataset()
    cache = InfoCache(data)
    ids = np.array([0, 2, 5])
    block = cache.distance_block(1, ids)
    fresh = InfoCache(data)
    for pos, j in enumerate(ids):
        assert block[pos] == fresh.distance(1, int(j))


def test_distance_block_rejects_foreign_ids():
    data = _small_dataset()
    cache = InfoCache(data)
    cache.distance_block(0, [2, 5])
    for ids in ([6], [-1], [0, 7]):
        with pytest.raises(ValueError, match="out of range"):
            cache.distance_block(0, ids)
    # a float or a bool id is refused, not truncated
    for call in (
        lambda: cache.distance(0, 1.9),
        lambda: cache.distance(1.5, 2),
        lambda: cache.distance_block(0, [1.7, 2.2]),
        lambda: cache.distance_block(True),
        lambda: cache.distance_block(0, np.array([True, False])),
        lambda: cache.columns([0.0, 1.0]),
        lambda: cache.columns(np.arange(6, dtype=float)),
    ):
        with pytest.raises(ValueError, match="feature ids must be integers"):
            call()
    ids = np.array([2, 5], dtype=np.uint8)
    assert cache.distance_block(np.int64(0), ids).tolist() == cache.distance_block(0, [2, 5]).tolist()
    assert cache.distance_block(0, []).size == 0


def test_group_rows_match_full_cache_rows():
    # after one pick per group, a group's distance sums are the pick's row
    # over that group, computed alone or batched with the other group's
    data = _small_dataset()
    full = InfoCache(data)
    cfg = ObjectiveConfig.plain(full.mi_table(), 2)
    for groups, picks in (([[1, 3, 5]], [3]), ([[1, 3, 5], [0, 2, 4]], [3, 0]), ([[5, 3, 1], [4]], [1, 4])):
        state = SelectionState(groups, cfg, InfoCache(data))
        state.add(picks)
        for g, t in enumerate(picks):
            span = slice(state.bounds[g], state.bounds[g + 1])
            assert state.dist_sum[span].tolist() == full.distance_block(t, state.order[span]).tolist()


def test_mi_table_matches_scalar_nmi():
    data = _small_dataset()
    cache = InfoCache(data)
    table = cache.mi_table()
    assert table.shape == (6, 2)
    for i in range(6):
        for j in range(2):
            assert table[i, j] == normalized_mi(data.features[i], data.labels[j])
    with pytest.raises(ValueError):
        table[0, 0] = 0.5


def test_integers_beyond_2_53_are_told_apart_in_every_path():
    # float64 holds 2**53 + 1 as 2**53: an integer column is ranked exactly
    col = np.array([2**53, 2**53 + 1, 2**53, 2**53 + 1])
    label = np.array([0, 1, 0, 1])
    data = dataset_from_matrices(col[None, :], label[None, :])
    assert data.feature_cards.tolist() == [2] and DiscreteColumn.from_values(col).cardinality == 2
    cache = InfoCache(data)
    assert cache.columns().h.tolist() == [entropy(col)] == [1.0]
    assert cache.mi_table().tolist() == [[normalized_mi(col, label)]] == [[1.0]]
    assert mutual_information(col, label) == 1.0 and nvi_distance(col, label) == 0.0


def test_cache_ids_are_feature_ids():
    data = _small_dataset()
    cache = InfoCache(data)
    # entropies come from one batched call; each equals the one-column
    # value bit for bit
    assert cache.columns().h.tolist() == [entropy(x) for x in data.features]
    # labels have no id: 6 and 7 are out of range like any other non-feature
    for cid in (6, 7, 99, -1):
        with pytest.raises(ValueError, match="out of range"):
            cache.distance_block(cid)
        for pair in ((0, cid), (cid, 0)):
            with pytest.raises(ValueError, match="out of range"):
                cache.distance(*pair)


def _quantum_exponent(n):
    """e of the documented rounding: terms are multiples of 2^-e, e = 53 - b,
    with b the bit length of n's bit length, so 2^b > log2(n) + 1."""
    return 53 - n.bit_length().bit_length()


def _ref_entropy(counts, n):
    """The documented reduction, apart from the kernel: one term
    -(p * log2 p) per cell, rounded to an integer number of quanta 2^-e,
    the numbers added as Python ints and scaled once."""
    c = np.ravel(counts)
    p = c / float(n)
    terms = -(p * np.log2(np.where(c > 0, p, 1.0)))
    e = _quantum_exponent(n)
    return sum(round(term * 2**e) for term in terms.tolist()) / 2**e


def _ref_pair(a, b):
    """(H(a), H(b), H(a, b)) from ContingencyTable counts."""
    tab = ContingencyTable.from_columns(a, b)
    return (
        _ref_entropy(tab.row_marginal, tab.n),
        _ref_entropy(tab.col_marginal, tab.n),
        _ref_entropy(tab.joint, tab.n),
    )


def _joint_rows(t_codes, t_card, mat, cards):
    """The kernel's joint entropy of a target column with each row of a code
    matrix, each a ``Columns`` of one group."""
    target = Columns.of(np.asarray(t_codes)[None, :], np.array([t_card]))
    return info._joint_entropies(target, Columns.of(mat, cards), [(0, 0, slice(0, mat.shape[0]))])


def _ref_nvi(ha, hb, hab):
    mi = max(0.0, (ha + hb) - hab)
    return min(1.0, max(0.0, 1.0 - mi / hab)) if hab > 0.0 else 0.0


def _ref_nmi(ha, hb, hab):
    mi = max(0.0, (ha + hb) - hab)
    prod = ha * hb
    return min(1.0, max(0.0, mi / np.sqrt(prod))) if prod > 0.0 else 0.0


def _equivalence_columns(n, rng):
    """Columns of cardinality 1..6 (capped at n) plus one all-distinct one."""
    cols = []
    for card in range(1, 7):
        card = min(card, n)
        codes = rng.integers(0, card, n)
        codes[:card] = rng.permutation(card)
        cols.append(DiscreteColumn(codes, card))
    cols.append(DiscreteColumn.from_values(rng.permutation(n).astype(float), BinningSpec("none")))
    return cols


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_kernel_matches_contingency_reference_bitwise(n):
    rng = np.random.default_rng(100 + n)
    feats = _equivalence_columns(n, rng)
    binary = rng.integers(0, 2, n)
    binary[: min(2, n)] = np.arange(min(2, n))
    targets = [DiscreteColumn(np.zeros(n, dtype=int), 1), DiscreteColumn(binary, int(binary.max()) + 1)]
    # with the all-distinct row every joint table is wide; without it most are narrow
    for rows in (feats, feats[:-1]):
        mat = np.vstack([f.codes for f in rows])
        cards = np.array([f.cardinality for f in rows])
        h_rows = Columns.of(mat, cards).h
        assert h_rows.tolist() == [_ref_pair(f, f)[0] for f in rows]
        for t in feats + targets:
            refs = [_ref_pair(t, f) for f in rows]
            h_t = refs[0][0]
            assert entropy(t) == h_t
            h_joint = _joint_rows(t.codes, t.cardinality, mat, cards)
            assert h_joint.tolist() == [r[2] for r in refs]
            dist = nvi_distance_rows(t.codes, t.cardinality, h_t, mat, cards, h_rows)
            assert dist.tolist() == [_ref_nvi(*r) for r in refs]
            nmi = info._nmi(h_t, h_rows, h_joint)
            assert nmi.tolist() == [_ref_nmi(*r) for r in refs]

    data = Dataset(
        np.vstack([f.codes for f in feats]),
        [f"f{i}" for i in range(len(feats))],
        np.vstack([t.codes for t in targets]),
        ["const", "bin"],
        n,
    )
    d = data.n_features
    cache = InfoCache(data)
    table = cache.mi_table()
    for j, t in enumerate(targets):
        assert table[:, j].tolist() == [_ref_nmi(*_ref_pair(f, t)) for f in feats]
    for cid in range(d):
        assert cache.distance_block(cid).tolist() == [_ref_nvi(*_ref_pair(feats[cid], f)) for f in feats]
    # the targets against every feature, over the cache's arrays and planes
    c = cache.columns()
    for t in targets:
        row = nvi_distance_rows(t.codes, t.cardinality, entropy(t), c.mat, c.cards, c.h, columns=c)
        assert row.tolist() == [_ref_nvi(*_ref_pair(t, f)) for f in feats]
    # selection states' rows: every feature (the cache's arrays), the
    # low-cardinality part alone (its own bit planes), and two groups side
    # by side, one of them holding the all-distinct column
    cfg = ObjectiveConfig.plain(table, 1)
    for groups in ([np.arange(d)], [np.arange(d - 1)], [np.arange(1, d, 2), np.arange(0, d, 2)]):
        for r in range(d):
            picks = [int(g[r % g.size]) for g in groups]
            state = SelectionState(groups, cfg, InfoCache(data))
            state.add(picks)
            for g, (ids, t) in enumerate(zip(groups, picks)):
                span = slice(state.bounds[g], state.bounds[g + 1])
                assert state.dist_sum[span].tolist() == [_ref_nvi(*_ref_pair(feats[t], feats[i])) for i in ids]


def test_distance_row_memory_is_linear_in_rows_times_n():
    # all-distinct columns: the joint table is 600 x 600 cells per row, but
    # the kernel must never hold more than a constant multiple of rows x n
    rng = np.random.default_rng(21)
    rows, n = 8, 600
    cols = [DiscreteColumn.from_values(v, BinningSpec("none")) for v in rng.normal(size=(rows, n))]
    assert all(c.cardinality == n for c in cols)
    mat = np.vstack([c.codes for c in cols])
    cards = np.array([c.cardinality for c in cols])
    h_rows = Columns.of(mat, cards).h
    target = cols[0]
    tracemalloc.start()
    try:
        nvi_distance_rows(target.codes, target.cardinality, float(h_rows[0]), mat, cards, h_rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * rows * n * 8


def _columns_adding_to(n, cells, columns, rng):
    """A (cells, columns) int64 matrix whose columns each add up to n: the
    gaps between sorted cut points, so many cells are zero, and shuffled."""
    cuts = np.sort(rng.integers(0, n + 1, size=(cells - 1, columns)), axis=0)
    edges = np.vstack([np.zeros((1, columns), dtype=np.int64), cuts, np.full((1, columns), n)])
    return rng.permuted(np.diff(edges, axis=0), axis=0)


def _reduce_cell_by_cell(counts: np.ndarray, n: int) -> np.ndarray:
    """The reduction as a loop over cells: each column's terms added top to
    bottom from 0.0, one cell row at a time."""
    total = np.zeros(counts.shape[1], dtype=np.float64)
    for terms in np.take(info._term_table(n), counts):
        total += terms
    return total


@pytest.mark.parametrize("n", [7, 128, 300])
def test_reduction_matches_cell_by_cell_loop_bitwise(n):
    # one add.reduce per block: 1 to 64 cells of real joint counts (adding
    # up to n, with zero cells anywhere), in the count matrix's unsigned
    # type, in int32 and in the transposed intp run lengths of the
    # sorted-codes path
    rng = np.random.default_rng(n)
    for cells in range(1, 65):
        for columns in (1, 2, 3, 64):
            counts = _columns_adding_to(n, cells, columns, rng)
            expected = _reduce_cell_by_cell(counts, n).tobytes()
            for dtype in (np.min_scalar_type(n), np.int32):
                assert info._reduce(counts.astype(dtype), n).tobytes() == expected, (cells, columns)
            assert info._reduce(np.ascontiguousarray(counts.T, dtype=np.intp).T, n).tobytes() == expected
    # a matrix wider than one block, whose last block holds a single column
    for cells in (1, 16, 64):
        columns = info.KERNEL_BLOCK_CELLS // cells + 1
        counts = _columns_adding_to(n, cells, columns, rng)
        found = info._reduce(counts.astype(np.min_scalar_type(n)), n)
        assert found.tobytes() == _reduce_cell_by_cell(counts, n).tobytes(), (cells, columns)


def test_term_table_is_rounded_within_the_exactness_bound():
    # every n up to 5000 and a sample up to about 10^6: each term is a whole
    # number of quanta 2^-e, at most half a quantum from -(p * log2 p), and
    # log2(n) plus n + 1 half-quanta stays below 2^b, so every partial sum
    # of a column's terms is a multiple of 2^-e that float64 holds exactly
    sample = np.random.default_rng(5).integers(5001, 1 << 20, size=12).tolist()
    for n in list(range(1, 5001)) + sample + [(1 << 20) - 1, 1 << 20]:
        e = _quantum_exponent(n)
        b = 53 - e
        counts = np.arange(n + 1)
        p = counts / float(n)
        exact = -(p * np.log2(np.where(counts > 0, p, 1.0)))
        quanta = info._term_table(n) * 2.0**e
        assert np.array_equal(quanta, np.rint(quanta)), n
        assert np.abs(quanta - exact * 2.0**e).max() <= 0.5, n
        assert math.log2(n) + (n + 1) * 2.0 ** -(e + 1) < 2**b, n


@pytest.mark.parametrize("cells", [16, 64, 5000])
def test_reduction_is_independent_of_summation_order(cells):
    # columns adding up to n reduce to the same bytes with their cells
    # permuted or sorted, and as numpy's pairwise sum, as sums of blocks of
    # cells added together, as blocks of columns, and as the Python-int
    # reference
    rng = np.random.default_rng(cells)
    for n in (cells // 2, cells, 5000):
        counts = _columns_adding_to(n, cells, 40, rng)
        found = info._reduce(counts, n).tobytes()
        assert info._reduce(rng.permuted(counts, axis=0), n).tobytes() == found
        assert info._reduce(np.sort(counts, axis=0), n).tobytes() == found
        assert info._reduce(np.sort(counts, axis=0)[::-1], n).tobytes() == found
        terms = np.take(info._term_table(n), counts.T)  # rows contiguous: pairwise
        assert np.add.reduce(terms, axis=1).tobytes() == found
        blocks = [np.add.reduce(terms[:, lo : lo + 7], axis=1) for lo in range(0, cells, 7)]
        assert np.add.reduce(np.vstack(blocks), axis=0).tobytes() == found
        parts = [info._reduce(counts[:, lo : lo + 3], n) for lo in range(0, counts.shape[1], 3)]
        assert np.concatenate(parts).tobytes() == found
        assert np.frombuffer(found).tolist() == [_ref_entropy(col, n) for col in counts.T]


@pytest.mark.parametrize("n", [255, 256])
def test_network_sorted_counts_match_contingency_reference_bitwise(n):
    # 2051 rows at the last n whose counts fit in uint8 and the first that
    # needs uint16; joint widths 5 to 60 cells, where rows of fewer values
    # leave zero cells among their counts, and t_card 13 takes the
    # sorted-codes path
    rng = np.random.default_rng(n)
    rows = 2051
    cards = rng.integers(1, 6, size=rows)
    cards[0] = 5
    mat = (rng.integers(0, 1 << 20, size=(rows, n)) % cards[:, None]).astype(np.int32)
    mat[:, : cards.max()] = np.arange(cards.max()) % cards[:, None]
    h_rows = Columns.of(mat, cards).h
    cols = [DiscreteColumn(codes, int(card)) for codes, card in zip(mat, cards)]
    assert h_rows.tolist() == [_ref_entropy(np.bincount(c.codes), n) for c in cols]
    for t_card in (1, 3, 12, 13):
        codes = rng.integers(0, t_card, size=n)
        codes[:t_card] = np.arange(t_card)
        target = DiscreteColumn(codes, t_card)
        refs = [_ref_pair(target, c) for c in cols]
        assert _joint_rows(codes, t_card, mat, cards).tolist() == [r[2] for r in refs], t_card
        dist = nvi_distance_rows(codes, t_card, refs[0][0], mat, cards, h_rows)
        assert dist.tolist() == [_ref_nvi(*r) for r in refs], t_card


def test_batched_spans_with_mixed_widths_and_paths_match_single_calls():
    # groups of 2, 6, 40 and 3 values per column, the last group holding
    # one column of 70 values, so it has no bit planes. Each job's target
    # lies in its own group; its span is the whole group or the rows after
    # the target, as diversity asks. Jobs are 4 to 4900 cells wide: the two
    # narrow groups' packed jobs count together, the narrow one's counts
    # above 4 zero cells, next to sorted-codes jobs; the last group's jobs,
    # narrow ones too, sort codes
    rng = np.random.default_rng(12)
    n = 90
    sizes, tops = (1200, 1000, 40, 30), (2, 6, 40, 3)
    blocks = [rng.integers(0, top, size=(size, n)) for size, top in zip(sizes, tops)]
    for block, top in zip(blocks, tops):
        block[:, :top] = np.arange(top)
    blocks[3][0] = np.arange(n) % 70
    d = sum(sizes)
    data = Dataset(np.vstack(blocks), [f"f{i}" for i in range(d)], np.zeros((1, n), dtype=int), ["y"], n)
    bounds = np.cumsum((0,) + sizes)
    cols = InfoCache(data).columns(range(d), bounds)
    assert [p is None for p in cols.planes] == [False, False, False, True]
    mat, cards, h = cols.mat, cols.cards, cols.h
    groups = [slice(lo, hi) for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())]
    for targets in ([0, 1200, 2200, 2240], [5, 1210, 2210, 2245], [1198, 2198, 2238, 2268]):
        for after in (False, True):
            jobs = [(t, g, slice(t + 1, s.stop) if after else s) for g, (t, s) in enumerate(zip(targets, groups))]
            batched = cols.distance_rows(jobs)
            for (t, g, s), row in zip(jobs, batched):
                alone = nvi_distance_rows(mat[t], cards[t], h[t], mat[s], cards[s], h[s])
                assert row.tolist() == alone.tolist()
                assert cols.distance_rows([(t, g, s)])[0].tolist() == alone.tolist()
                ids = range(s.start, s.stop, 97)
                expected = [_ref_nvi(*_ref_pair(DiscreteColumn(mat[t], int(cards[t])), mat[i])) for i in ids]
                assert row[:: 97].tolist() == expected


def test_cache_columns_are_the_dataset_matrix_or_gathered_in_order():
    data = _small_dataset()
    d = data.n_features
    cache = InfoCache(data)
    # every feature in order as one group is the cache's own, kept columns
    whole = cache.columns(range(d))
    assert whole.mat is data.features and whole is cache.columns() and whole.bounds == [0, d]
    cfg = ObjectiveConfig.plain(cache.mi_table(), 1)
    assert SelectionState([range(d)], cfg, cache).columns is whole
    # a permutation that ends at d - 1, and several groups over every
    # feature, are gathered in the given order and packed group by group
    perm = np.r_[np.arange(d - 2, -1, -1), d - 1]
    for ids, bounds in ((perm, None), (np.arange(d), [0, 2, 5, d])):
        cols = cache.columns(ids, bounds)
        assert cols.mat is not data.features and cols.bounds == (bounds or [0, d])
        assert cols.mat.tolist() == data.features[ids].tolist()
        assert cols.cards.tolist() == data.feature_cards[ids].tolist()
        assert cols.h.tolist() == whole.h[ids].tolist()
        for g, (lo, hi) in enumerate(zip(cols.bounds[:-1], cols.bounds[1:])):
            top = int(cols.cards[lo:hi].max())
            assert np.array_equal(cols.planes[g], info.pack_codes(cols.mat[lo:hi], top))
    # every feature in several groups is not the kept one-group columns
    assert cache.columns(None, [0, 2, 5, d]).bounds == [0, 2, 5, d]


def test_mutual_information_is_bit_identical_to_its_entropies():
    # one canonicalization per column gives the bits of H(a) + H(b) - H(a, b)
    rng = np.random.default_rng(20)
    for _ in range(3000):
        n = int(rng.integers(1, 50))
        a = rng.integers(-5, int(rng.integers(-4, 9)), size=n)
        b = rng.integers(0, int(rng.integers(1, 70)), size=n) * int(rng.integers(1, 4))
        summed = max(0.0, (entropy(a) + entropy(b)) - joint_entropy(a, b))
        assert mutual_information(a, b).hex() == summed.hex()


@pytest.mark.parametrize("wide", [False, True])
def test_entropies_do_not_depend_on_grouping(wide):
    # rows of 1 to 6 values, and with ``wide`` some of 65 to 120 values,
    # so groups take the packed-bit path, the sorted-codes path, or both
    rng = np.random.default_rng(30 + wide)
    n, rows = 150, 40
    cards = rng.integers(1, 7, size=rows)
    if wide:
        cards[::7] = rng.integers(65, 121, size=cards[::7].size)
    mat = rng.integers(0, 1 << 20, size=(rows, n)) % cards[:, None]
    mat[:, : cards.max()] = np.arange(cards.max()) % cards[:, None]
    one = Columns.of(mat, cards)
    assert one.h.tolist() == [_ref_entropy(np.bincount(row), n) for row in mat]
    assert (max(cards) > 64) == (one.planes[0] is None) == wide
    for bounds in ([0, 3, 17, 18, rows], list(range(rows + 1))):
        cols = Columns.of(mat, cards, bounds)
        assert cols.bounds == bounds and len(cols.planes) == len(bounds) - 1
        assert cols.h.tobytes() == one.h.tobytes()


def _every_value(rng, cards, n):
    """A (rows, n) code matrix whose row r holds each of its cards[r] values."""
    cards = np.asarray(cards)
    mat = rng.integers(0, 1 << 20, size=(cards.size, n)) % cards[:, None]
    mat[:, : cards.max()] = np.arange(cards.max()) % cards[:, None]
    return mat


def _table(t_codes, t_card, row, width):
    """The ContingencyTable joint of a target and a row, its columns padded
    with zeros to ``width``."""
    card = int(row.max()) + 1
    joint = ContingencyTable.from_columns(DiscreteColumn(t_codes, t_card), DiscreteColumn(row, card)).joint
    return np.pad(joint, ((0, 0), (0, width - card)))


def _kernel_counts(monkeypatch, run):
    """``run()``'s result and every count matrix the kernel handed to the
    reduction during it, as int64; the shared packed matrix comes last. The
    kernel reads every bit plane and marginal count from its ``Columns``
    operands: it neither packs nor popcounts a marginal."""
    seen, packed, real = [], [], info._reduce

    def keep(counts, n):
        seen.append(np.array(counts, dtype=np.int64))
        return real(counts, n)

    with monkeypatch.context() as patch:
        patch.setattr(info, "_reduce", keep)
        patch.setattr(info, "pack_codes", lambda *args: packed.append("pack_codes"))
        patch.setattr(info, "_margins", lambda *args: packed.append("_margins"))
        found = run()
    assert packed == []
    return found, seen


def _check_counts(seen, packed_jobs, n):
    """Every column of every count matrix adds up to n, and each packed job
    (t_codes, t_card, rows, max_card), in job order, holds the
    ContingencyTable joint of its target and each row in its columns of the
    shared matrix, zero below its width."""
    for counts in seen:
        assert counts.min() >= 0 and (counts.sum(axis=0) == n).all()
    shared, at = seen[-1], 0
    for t_codes, t_card, rows, max_card in packed_jobs:
        w = t_card * max_card
        block = shared[:, at : at + rows.shape[0]]
        assert not block[w:].any()
        for r, row in enumerate(rows):
            assert block[:w, r].reshape(t_card, max_card).tolist() == _table(t_codes, t_card, row, max_card).tolist()
        at += rows.shape[0]
    assert at == shared.shape[1]


@pytest.mark.parametrize("n", [255, 256, 257])
def test_kernel_counts_equal_contingency_tables(monkeypatch, n):
    # only the leading (t_card - 1)(card - 1) cells are counted and the rest
    # derived from marginals; at n = 255, 256 and 257 the count type goes
    # from uint8 to uint16, where a wrapped subtraction would show. Rows of
    # 1 to 5 values sit in groups packed at 5, 4 and 1 and one of 64 and 7
    # values; targets of 1 to 64 values sit in one group packed at 64, wider
    # than most of them, and each again in a group of its own. Each call
    # mixes packed and sorted-codes jobs: joint widths 1 to 4096, exactly 64
    # at 16 x 4, 64 x 1 and 1 x 64
    rng = np.random.default_rng(n)
    cards = np.array([1, 2, 3, 4, 5, 1, 5, 2] * 3)
    narrow, ones = np.flatnonzero(cards <= 4), np.flatnonzero(cards == 1)
    mat = _every_value(rng, cards, n)
    rows = np.vstack([mat, mat[narrow], mat[ones], _every_value(rng, [64, 7], n)])
    bounds = np.cumsum([0, cards.size, narrow.size, ones.size, 2]).tolist()
    cols = Columns.of(rows, np.concatenate([cards, cards[narrow], cards[ones], [64, 7]]), bounds)
    assert [p.shape[1] for p in cols.planes] == [5, 4, 1, 64]
    margins = cols.margins[0]
    assert margins.dtype == np.min_scalar_type(n) and margins.shape == (5, cards.size)
    assert margins.T.tolist() == [np.bincount(row, minlength=5).tolist() for row in mat]
    assert cols.h.tolist() == [_ref_entropy(np.bincount(row), n) for row in rows]
    t_cards = [1, 2, 3, 12, 13, 16, 64]
    t_mat = _every_value(rng, t_cards, n)
    targets = Columns.of(np.vstack([t_mat, t_mat]), np.array(t_cards * 2), [0, 7, 8, 9, 10, 11, 12, 13, 14])
    assert targets.planes[0].shape[1] == 64
    groups = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    for i, t_card in enumerate(t_cards):
        own = 7 + i  # the same target in a group of its own
        jobs = [(i, 0, groups[0]), (own, 1, groups[1]), (i, 2, groups[2]), (own, 0, slice(3, 20)), (i, 3, groups[3])]
        h, seen = _kernel_counts(monkeypatch, lambda: info._joint_entropies(targets, cols, jobs))
        widest = [5, 4, 1, 5, 64]
        packed = [(t_mat[i], t_card, rows[s], top) for (_, _, s), top in zip(jobs, widest) if t_card * top <= 64]
        assert 0 < len(packed) < len(jobs) or t_card == 1
        _check_counts(seen, packed, n)
        expected = [_ref_entropy(_table(t_mat[i], t_card, row, 64), n) for _, _, s in jobs for row in rows[s]]
        assert h.tolist() == expected, t_card


def test_batched_kernel_counts_equal_contingency_tables(monkeypatch):
    # multi-group batches as greedy steps make them: groups packed at 2, 5
    # and 40 values and one of 70 values with no planes. A target of one
    # value against the 40-value group still takes the packed path; every
    # other job there and in the last group sorts codes
    rng = np.random.default_rng(7)
    n = 200
    sizes, tops = (30, 25, 12, 8), (2, 5, 40, 70)
    cards = np.concatenate([rng.integers(1, top + 1, size=size) for size, top in zip(sizes, tops)])
    bounds = np.cumsum((0,) + sizes).tolist()
    cards[bounds[:-1]] = tops
    cards[bounds[2] + 1] = 1
    mat = _every_value(rng, cards, n)
    cols = Columns.of(mat, cards, bounds)
    assert [p is None for p in cols.planes] == [False, False, False, True]
    for lo, hi, m in zip(bounds[:-1], bounds[1:], cols.margins):
        if m is not None:
            assert m.T.tolist() == [np.bincount(row, minlength=m.shape[0]).tolist() for row in mat[lo:hi]]
    groups = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    widest = [0 if p is None else p.shape[1] for p in cols.planes]
    for picks in ([0, 30, 56, 67], [3, 41, 56, 70], [27, 53, 65, 73]):
        jobs = [(t, g, slice(t + 1, s.stop) if t % 2 else s) for g, (t, s) in enumerate(zip(picks, groups))]
        rows, seen = _kernel_counts(monkeypatch, lambda: cols.distance_rows(jobs))
        packed = [(mat[t], int(cards[t]), mat[s], widest[g]) for t, g, s in jobs if 0 < cards[t] * widest[g] <= 64]
        assert len(packed) == (2 if cards[picks[2]] > 1 else 3)
        _check_counts(seen, packed, n)
        for (t, g, s), row in zip(jobs, rows):
            assert row.tolist() == nvi_distance_rows(mat[t], cards[t], cols.h[t], mat[s], cards[s], cols.h[s]).tolist()
