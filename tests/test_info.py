"""Information kernels: hand values, conventions, exactness guarantees."""

import math
import tracemalloc

import numpy as np
import pytest

from divsel.data import BinningSpec, Dataset, DiscreteColumn, dataset_from_matrices
from divsel import info
from divsel.info import (
    InfoCache,
    entropies_and_planes,
    entropy,
    entropy_rows,
    joint_entropy,
    joint_entropy_rows,
    mutual_information,
    normalized_mi,
    normalized_mi_rows,
    nvi_distance,
    nvi_distance_rows,
    nvi_distance_spans,
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
    with pytest.raises(ValueError):
        entropy(np.array([], dtype=int))
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
    h_rows = entropy_rows(mat, cards)
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


def test_cache_ids_are_feature_ids():
    data = _small_dataset()
    cache = InfoCache(data)
    # entropies come from one batched call; each equals the one-column
    # value bit for bit
    assert cache.feature_arrays()[2].tolist() == [entropy(x) for x in data.features]
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
        h_rows = entropy_rows(mat, cards)
        assert h_rows.tolist() == [_ref_pair(f, f)[0] for f in rows]
        for t in feats + targets:
            refs = [_ref_pair(t, f) for f in rows]
            h_t = refs[0][0]
            assert entropy(t) == h_t
            h_joint = joint_entropy_rows(t.codes, t.cardinality, mat, cards)
            assert h_joint.tolist() == [r[2] for r in refs]
            dist = nvi_distance_rows(t.codes, t.cardinality, h_t, mat, cards, h_rows)
            assert dist.tolist() == [_ref_nvi(*r) for r in refs]
            nmi = normalized_mi_rows(t.codes, t.cardinality, h_t, mat, cards, h_rows)
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
    mat, cards, h, planes = cache.feature_arrays()
    for t in targets:
        row = nvi_distance_rows(t.codes, t.cardinality, entropy(t), mat, cards, h, packed=planes)
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
    h_rows = entropy_rows(mat, cards)
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
        columns = info.BLOCK_CELLS // cells + 1
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
    h_rows = entropy_rows(mat, cards)
    cols = [DiscreteColumn(codes, int(card)) for codes, card in zip(mat, cards)]
    assert h_rows.tolist() == [_ref_entropy(np.bincount(c.codes), n) for c in cols]
    for t_card in (1, 3, 12, 13):
        codes = rng.integers(0, t_card, size=n)
        codes[:t_card] = np.arange(t_card)
        target = DiscreteColumn(codes, t_card)
        refs = [_ref_pair(target, c) for c in cols]
        assert joint_entropy_rows(codes, t_card, mat, cards).tolist() == [r[2] for r in refs], t_card
        dist = nvi_distance_rows(codes, t_card, refs[0][0], mat, cards, h_rows)
        assert dist.tolist() == [_ref_nvi(*r) for r in refs], t_card


def test_batched_spans_with_mixed_widths_and_paths_match_single_calls():
    # spans of 2, 6 and 40 values per column. The first batch counts two
    # packed jobs of different widths (4 and 36 cells) together, the narrow
    # one's counts above 32 zero cells; in the others one packed job
    # shares the batch with jobs whose tables are wider than
    # PACKED_MAX_WIDTH and take the sorted-codes path
    rng = np.random.default_rng(12)
    n = 90
    sizes, tops = (1200, 1000, 40), (2, 6, 40)
    blocks = [rng.integers(0, top, size=(size, n)) for size, top in zip(sizes, tops)]
    for block, top in zip(blocks, tops):
        block[:, :top] = np.arange(top)
    mat = np.vstack(blocks).astype(np.int32)
    cards = mat.max(axis=1) + 1
    bounds = np.cumsum((0,) + sizes)
    spans = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    found = [entropies_and_planes(mat[s], cards[s]) for s in spans]
    h = np.concatenate([hs for hs, _ in found])
    planes = [p for _, p in found]
    # target rows of 2, 6 and 40 values: jobs from 4 to 1600 cells wide
    for targets in ([0, 1200, 2200], [2210, 5, 1210], [1205, 2215, 10]):
        jobs = [(t, s, p) for t, s, p in zip(targets, spans, planes)]
        batched = nvi_distance_spans(mat, cards, h, jobs)
        for (t, s, p), row in zip(jobs, batched):
            alone = nvi_distance_rows(mat[t], cards[t], h[t], mat[s], cards[s], h[s], packed=p)
            assert row.tolist() == alone.tolist()
            assert nvi_distance_spans(mat, cards, h, [(t, s, p)])[0].tolist() == alone.tolist()
            ids = range(s.start, s.stop, 97)
            expected = [_ref_nvi(*_ref_pair(DiscreteColumn(mat[t], int(cards[t])), mat[i])) for i in ids]
            assert row[:: 97].tolist() == expected
