"""Dataset loading, binning, canonicalization, and the synthesized benchmark."""

import dataclasses
import io
import tracemalloc

import numpy as np
import pytest

from divsel import data as data_module
from divsel.data import (
    RAW_CODES,
    BinningSpec,
    Dataset,
    DiscreteColumn,
    canonicalize,
    check_codes,
    dataset_from_matrices,
    generate_synthesized,
    load_dense_csv,
    load_sparse_multilabel,
    write_dense_csv,
)
from divsel.errors import ParseError, ValidationError
from divsel.info import InfoCache, nvi_distance
from divsel.metrics import PredictionMatrix

DENSE_EXAMPLE = "a,b,y\n0,0,0\n0,1,0\n1,0,1\n1,1,1\n"


def test_dense_csv_basic():
    data = load_dense_csv(io.StringIO(DENSE_EXAMPLE), 1)
    assert (data.n_instances, data.n_features, data.n_labels) == (4, 2, 1)
    assert data.feature_names == ("a", "b")
    assert data.label_names == ("y",)
    assert data.features.tolist() == [[0, 0, 1, 1], [0, 1, 0, 1]]
    assert data.labels.tolist() == [[0, 0, 1, 1]]


def test_dense_csv_label_count_leaves_no_features():
    with pytest.raises(ValidationError):
        load_dense_csv(io.StringIO(DENSE_EXAMPLE), 3)


def test_dense_csv_no_header():
    data = load_dense_csv(io.StringIO("0,1\n1,0\n"), 1, has_header=False)
    assert data.feature_names == ("f0",)
    assert data.label_names == ("y0",)


def test_dense_csv_parse_errors_name_the_line():
    with pytest.raises(ParseError, match="line 3"):
        load_dense_csv(io.StringIO("a,y\n0,0\n1\n"), 1)
    with pytest.raises(ParseError, match="line 2.*non-numeric"):
        load_dense_csv(io.StringIO("a,y\n x,0\n"), 1)
    with pytest.raises(ParseError, match="non-finite"):
        load_dense_csv(io.StringIO("a,y\nnan,0\n"), 1)
    with pytest.raises(ValidationError, match="no data rows"):
        load_dense_csv(io.StringIO("a,y\n"), 1)
    with pytest.raises(ParseError, match="empty"):
        load_dense_csv(io.StringIO(""), 1)


def test_dense_csv_crlf_endings():
    data = load_dense_csv(io.StringIO("a,y\r\n0,1\r\n1,0\r\n"), 1)
    assert data.features.tolist() == [[0, 1]]


def test_multiclass_label_is_refused():
    text = "a,y\n0,0\n1,1\n0,2\n"
    with pytest.raises(ValidationError, match="more than 2"):
        load_dense_csv(io.StringIO(text), 1)


def test_equal_frequency_binning_balances_counts():
    rng = np.random.default_rng(3)
    values = rng.permutation(np.linspace(0.0, 1.0, 100))
    col = DiscreteColumn.from_values(values, BinningSpec(bins=5))
    assert col.cardinality == 5
    counts = np.bincount(col.codes)
    assert counts.tolist() == [20, 20, 20, 20, 20]


def test_equal_frequency_binning_with_ties():
    # heavy ties can merge bins; coverage and balance within one element
    values = np.repeat(np.arange(4), 25).astype(float)
    col = DiscreteColumn.from_values(values, BinningSpec(bins=5))
    assert col.cardinality <= 5
    assert set(col.codes.tolist()) == set(range(col.cardinality))


def test_equal_width_binning():
    values = np.linspace(0.0, 10.0, 100)
    col = DiscreteColumn.from_values(values, BinningSpec(strategy="equal_width", bins=4))
    assert col.cardinality == 4
    assert col.codes[0] == 0 and col.codes[-1] == 3


def test_small_cardinality_skips_binning():
    values = np.array([7.0, 3.0, 7.0, 11.0])
    col = DiscreteColumn.from_values(values, BinningSpec(bins=2))
    # 3 distinct <= max_raw_categories: codes by sorted raw value
    assert col.codes.tolist() == [1, 0, 1, 2]
    assert col.cardinality == 3


def test_equal_frequency_bins_beyond_n_are_n_bins():
    rng = np.random.default_rng(8)
    # 10 rows of 1000 values, ties included: every row is binned
    values = rng.integers(0, 400, size=(10, 1000)).astype(float)
    codes, cards = canonicalize(values, BinningSpec(bins=1000))
    # n - 1 cuts, one at every sorted index: the codes are the dense ranks
    ranks, distinct = canonicalize(values, RAW_CODES)
    assert np.array_equal(codes, ranks) and np.array_equal(cards, distinct)
    tracemalloc.start()
    try:
        wide_codes, wide_cards = canonicalize(values, BinningSpec(bins=100000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(wide_codes, codes) and np.array_equal(wide_cards, cards)
    # a rows x bins count table would be 8 MB
    assert peak < 2_000_000


def test_equal_width_bins_beyond_n_are_refused():
    values = np.linspace(0.0, 1.0, 100)[None, :]
    _, cards = canonicalize(values, BinningSpec(strategy="equal_width", bins=100))
    assert cards.tolist() == [100]
    with pytest.raises(ValidationError, match="101 bins needs at least 101 instances, got 100"):
        canonicalize(values, BinningSpec(strategy="equal_width", bins=101))


def test_binning_none_only_canonicalizes():
    values = np.arange(100, dtype=float)
    col = DiscreteColumn.from_values(values, BinningSpec(strategy="none"))
    assert col.cardinality == 100


def test_binning_spec_validation():
    with pytest.raises(ValueError):
        BinningSpec(strategy="magic")
    with pytest.raises(ValueError):
        BinningSpec(bins=1)
    with pytest.raises(ValueError):
        BinningSpec(max_raw_categories=0)
    BinningSpec(strategy="none", bins=1)  # bins unused
    # a non-integer size is refused, not truncated, and a numpy one is an int
    for fields in ({"bins": 2.5}, {"bins": True}, {"max_raw_categories": 2.5}, {"max_raw_categories": True}):
        with pytest.raises(ValueError, match="must be an integer"):
            BinningSpec(**fields)
    spec = BinningSpec(bins=np.int64(3), max_raw_categories=np.uint8(4))
    assert (spec.bins, spec.max_raw_categories) == (3, 4) and type(spec.bins) is type(spec.max_raw_categories) is int
    assert spec == BinningSpec(bins=3, max_raw_categories=4)


def test_discrete_column_invariants():
    with pytest.raises(ValueError):
        DiscreteColumn(np.array([0, 2]), 3)  # code 1 missing
    with pytest.raises(ValueError):
        DiscreteColumn(np.array([0, 3]), 3)  # out of range
    with pytest.raises(ValueError, match="integers"):
        DiscreteColumn(np.array([0.0, 1.5]), 2)
    col = DiscreteColumn(np.array([1, 0, 1]), 2)
    with pytest.raises(ValueError):
        col.codes[0] = 1


def test_dataset_validation():
    row = np.array([[0, 1]])
    with pytest.raises(ValidationError, match="unique"):
        Dataset(np.vstack([row, row]), ("a", "a"), row, ("y",), 2)
    with pytest.raises(ValidationError, match="at least one feature"):
        Dataset(np.zeros((0, 2), dtype=np.int64), (), row, ("y",), 2)
    # a dataset of no instances would fail only at its first entropy
    none = np.zeros((1, 0), dtype=np.int64)
    with pytest.raises(ValidationError, match="at least one instance"):
        Dataset(none, ("a",), none, ("y",), 0)
    with pytest.raises(ValidationError, match="at least one instance"):
        dataset_from_matrices(np.zeros((3, 0), dtype=np.int64), none)
    with pytest.raises(ValidationError, match="length"):
        Dataset(row, ("a",), np.array([[0, 1, 1]]), ("y",), 2)
    with pytest.raises(ValidationError, match="length"):
        Dataset(np.array([0, 1]), ("a",), row, ("y",), 2)
    bad = [([[0, 2]], "cover"), ([[0, -1]], "range"), ([[-1, -1]], "range"), ([[0.0, 1.0]], "integers")]
    for codes, message in bad:
        codes = np.array(codes)
        with pytest.raises(ValueError, match=message):
            Dataset(codes, ("a",), row, ("y",), 2)
        with pytest.raises(ValueError, match=message):
            Dataset(row, ("a",), codes, ("y",), 2)


SPARSE_EXAMPLE = "0 1:1\n 2:1\n0,1 1:1 2:1\n"


def test_sparse_basic():
    data = load_sparse_multilabel(io.StringIO(SPARSE_EXAMPLE), 2, 2)
    assert data.n_instances == 3
    assert data.labels.tolist() == [[1, 0, 1], [0, 0, 1]]
    assert data.features.tolist() == [[1, 0, 1], [0, 1, 1]]


def test_sparse_empty_file_is_a_validation_error():
    with pytest.raises(ValidationError, match="no data rows"):
        load_sparse_multilabel(io.StringIO(""), 2, 1)
    # a blank line is a row: no labels, every feature 0
    data = load_sparse_multilabel(io.StringIO("\n"), 2, 1)
    assert data.n_instances == 1
    assert data.features.tolist() == [[0], [0]]
    assert data.labels.tolist() == [[0]]


def test_sparse_parse_errors():
    with pytest.raises(ParseError, match="line 1.*increase"):
        load_sparse_multilabel(io.StringIO("0 2:1 1:1\n"), 2, 1)
    with pytest.raises(ParseError, match="label id 5"):
        load_sparse_multilabel(io.StringIO("5 1:1\n"), 2, 2)
    with pytest.raises(ParseError, match="index 9"):
        load_sparse_multilabel(io.StringIO("0 9:1\n"), 2, 1)
    with pytest.raises(ParseError, match="bad entry"):
        load_sparse_multilabel(io.StringIO("0 1:zz\n"), 2, 1)
    with pytest.raises(ParseError, match=">= 0"):
        load_sparse_multilabel(io.StringIO("0 1:-3\n"), 2, 1)


# (text, the same lines with LF ends, the sources that read them alike,
# what both text readers make of the LF text as a stream): a lone CR ends a
# line only in a file, which is read with universal newlines
_BLANK_LINE = [[[0, 0, 1], [1, 0, 0]], "<stream>: line 2: cell '' is not 0 or 1"]


@pytest.mark.parametrize(
    "text, lf, kinds, expected",
    [
        ("1\r\n0\r\n", "1\n0\n", "stream file", [[[0, 1], [1, 0]], [[1], [0]]]),
        ("1\r\n\r\n0", "1\n\n0\n", "stream file", _BLANK_LINE),
        ("\r\n1\n", "\n1\n", "stream file", [[[0, 0], [0, 1]], "<stream>: line 1: cell '' is not 0 or 1"]),
        ("1\r0\r", "1\n0\n", "file", [[[0, 1], [1, 0]], [[1], [0]]]),
        ("1\r\r\n0", "1\n\n0\n", "file", _BLANK_LINE),
    ],
)
def test_text_readers_split_cr_crlf_and_blank_lines_alike(tmp_path, text, lf, kinds, expected):
    def outcomes(t, kind):
        found = []
        for read in (
            lambda src: load_sparse_multilabel(src, 1, 2).labels.tolist(),
            lambda src: PredictionMatrix.from_csv(src).values.tolist(),
        ):
            src = io.StringIO(t)
            if kind == "file":
                src = tmp_path / "in.txt"
                src.write_bytes(t.encode())
            try:
                found.append(read(src))
            except ParseError as exc:
                found.append(str(exc))
        return found

    assert outcomes(lf, "stream") == expected
    for kind in kinds.split():
        assert outcomes(text, kind) == outcomes(lf, kind)


def test_round_trip_dense_csv():
    rng = np.random.default_rng(8)
    data = dataset_from_matrices(rng.integers(0, 4, (5, 30)), rng.integers(0, 2, (2, 30)))
    buf = io.StringIO()
    write_dense_csv(data, buf)
    back = load_dense_csv(io.StringIO(buf.getvalue()), 2, binning=BinningSpec(strategy="none"))
    assert back.feature_names == data.feature_names
    assert back.features.tolist() == data.features.tolist()
    assert back.labels.tolist() == data.labels.tolist()


def test_canonicalization_covers_dense_range():
    rng = np.random.default_rng(9)
    for _ in range(50):
        vals = rng.choice([3.0, 7.5, -2.0, 100.0, 0.0], size=rng.integers(1, 40))
        col = DiscreteColumn.from_values(vals)
        assert sorted(set(col.codes.tolist())) == list(range(col.cardinality))


def test_synthesized_shape_and_agreements(synth):
    assert (synth.n_features, synth.n_instances, synth.n_labels) == (800, 256, 8)
    for lab in range(8):
        y = synth.labels[lab]
        a = synth.features[lab * 100]
        b = synth.features[lab * 100 + 50]
        assert int(np.sum(a == y)) == 128
        assert int(np.sum(b == y)) == 64


def test_synthesized_repeats_are_verbatim(synth):
    for block in range(16):
        base = synth.features[block * 50]
        for rep in range(1, 50):
            assert np.array_equal(synth.features[block * 50 + rep], base)


def test_synthesized_duplicates_have_zero_distance(synth):
    assert nvi_distance(synth.features[0], synth.features[17]) == 0.0
    assert nvi_distance(synth.features[120], synth.features[149]) == 0.0


def test_synthesized_deterministic():
    a = generate_synthesized(123)
    b = generate_synthesized(123)
    c = generate_synthesized(124)
    assert np.array_equal(a.features, b.features) and np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.features, c.features)


def test_synthesized_names(synth):
    assert synth.feature_names[0] == "x0a00"
    assert synth.feature_names[50] == "x0b00"
    assert synth.feature_names[799] == "x7b49"
    assert synth.label_names == tuple(f"y{j}" for j in range(8))


def _reference_codes(values, binning):
    """One row canonicalized as np.unique, searchsorted and digitize give it:
    integer and bool values ranked exactly, bins cut from float64 values."""
    values = np.asarray(values)
    if values.dtype.kind not in "biu":
        values = values.astype(np.float64)
    distinct = np.unique(values)
    if binning.strategy == "none" or distinct.size <= binning.max_raw_categories:
        return np.searchsorted(distinct, values), distinct.size
    values = values.astype(np.float64)
    if binning.strategy == "equal_frequency":
        s = np.sort(values)
        cuts = np.unique(s[[s.size * j // binning.bins for j in range(1, binning.bins)]])
        raw = np.searchsorted(cuts, values, side="right")
    else:
        lo, hi = values.min(), values.max()
        raw = np.digitize(values, lo + (hi - lo) * np.arange(1, binning.bins) / binning.bins)
    uniq, codes = np.unique(raw, return_inverse=True)
    return codes, uniq.size


def _canonicalization_rows(n=100):
    rng = np.random.default_rng(41)
    ties = np.concatenate([np.zeros(60), np.arange(1.0, 41.0)])
    return [
        rng.integers(-5, 5, n).astype(float),
        rng.normal(size=n) - 10.0,
        np.tile([-0.0, 0.0, 1.0, -0.0], n // 4),
        np.concatenate([[-0.0, 0.0], np.linspace(0.0, 5.0, n - 2)]),
        np.concatenate([[0.0, -0.0], -np.linspace(0.0, 5.0, n - 2)]),
        np.full(n, 7.0),
        rng.permutation(np.resize(np.arange(32.0), n)),
        rng.permutation(np.resize(np.arange(33.0) - 16.5, n)),
        rng.permutation(ties),  # equal-frequency cuts 0, 0, ... merge bins
        rng.integers(0, 3, n) * 1e9 + rng.normal(size=n),
        rng.exponential(size=n),
    ]


def _integer_matrices(n=100):
    """Integer and bool rows for both ranking paths. Counting takes a row
    whose values span at most n integers (``counts``); sorting takes a
    wider one. In the int64 matrix, rows alternate between the two, so two
    rows per block mix them."""
    rng = np.random.default_rng(43)
    i64, u64 = np.iinfo(np.int64), np.iinfo(np.uint64)
    int64 = [
        (np.arange(-3, n - 3), True),  # span exactly n
        (rng.permutation(np.delete(np.arange(n + 1), 7)), False),  # span n + 1
        (np.arange(n) % 4, True),
        (rng.choice([i64.min, i64.max, 0], n), False),  # max - min overflows int64
        (rng.integers(i64.min, i64.min + 3, n), True),
        (rng.choice([-(2**53) - 1, 2**53 + 1], n), False),  # distinct beyond 2^53
        (i64.max - rng.integers(0, 5, n), True),
        (rng.choice([-(2**60), 2**60], n), False),
        (rng.integers(-20, 20, n), True),  # negative values, more than 32 of them
        (rng.normal(size=n).astype(np.int64) * 1000, False),
        (rng.permutation(np.resize(np.arange(0, 80, 2), n)), True),  # 40 values, span 79
    ]
    return [
        (np.stack([row for row, _ in int64]), [counts for _, counts in int64]),
        (
            np.stack(
                [rng.choice(np.array(pair, dtype=np.uint64), n) for pair in ([u64.max, u64.max - 2], [0, u64.max])]
                + [np.arange(n, dtype=np.uint64) % 3]
            ),
            [True, False, True],
        ),
        (np.stack([np.arange(n) % 3 == 0, np.ones(n, dtype=bool), np.zeros(n, dtype=bool)]), [True] * 3),
        # int8 rows of 256 values span exactly n = 256, and max - min overflows int8
        (
            np.stack([rng.permutation(np.arange(-128, 128)), rng.choice([-128, 127], 256), np.arange(256) % 5 - 2]).astype(
                np.int8
            ),
            [True] * 3,
        ),
        (np.stack([np.arange(256), np.arange(256) // 2]).astype(np.uint8), [True] * 2),
        # non-native byte order
        (np.stack([row for row, _ in int64[3:5]]).astype(">i8"), [False, True]),
        (np.stack([np.arange(n, dtype=np.uint64) % 3 + np.uint64(u64.max - 2)]).astype(">u8"), [True]),
    ]


@pytest.mark.parametrize("block_cells", [None, 250])
@pytest.mark.parametrize(
    "binning",
    [
        BinningSpec(),
        BinningSpec(bins=3),
        BinningSpec(strategy="equal_width", bins=4),
        BinningSpec(strategy="none"),
        BinningSpec(bins=5, max_raw_categories=3),
    ],
)
def test_canonicalize_matches_from_values_per_row(monkeypatch, binning, block_cells):
    if block_cells is not None:
        # two rows per block: categorical and binned rows meet in one block
        monkeypatch.setattr(data_module, "BLOCK_CELLS", block_cells)
    rows = _canonicalization_rows()
    codes, cards = canonicalize(np.stack(rows), binning)
    assert codes.dtype == np.int32 and cards.dtype == np.int64
    assert not codes.flags.writeable and not cards.flags.writeable
    for row, got, card in zip(rows, codes, cards):
        want, want_card = _reference_codes(row, binning)
        assert got.tolist() == want.tolist()
        assert card == want_card
        col = DiscreteColumn.from_values(row, binning)
        assert col.codes.tolist() == want.tolist() and col.cardinality == want_card
    sort_ranks, sorted_rows = data_module._sort_ranks, []

    def spy(v, binning):
        sorted_rows.extend(v.tolist())
        return sort_ranks(v, binning)

    monkeypatch.setattr(data_module, "_sort_ranks", spy)
    for ints, counts in _integer_matrices():
        sorted_rows.clear()
        int_codes, int_cards = canonicalize(ints, binning)
        for row, got, card, count in zip(ints, int_codes, int_cards, counts):
            want, want_card = _reference_codes(row, binning)
            assert got.tolist() == want.tolist() and card == want_card, (ints.dtype, row)
            # a row is sorted only when counting cannot rank it or it is binned
            binned = binning.strategy != "none" and np.unique(row).size > binning.max_raw_categories
            assert (row.tolist() in sorted_rows) == (not count or binned), (ints.dtype, row)


def test_canonicalize_rejects_bad_input():
    with pytest.raises(ValidationError, match="non-finite"):
        canonicalize(np.array([[0.0, 1.0], [np.inf, 1.0]]))
    with pytest.raises(ValueError, match="two-dimensional"):
        canonicalize(np.zeros(3))
    codes, cards = canonicalize(np.zeros((2, 0)))
    assert codes.shape == (2, 0) and cards.tolist() == [0, 0]


def test_canonicalize_refuses_complex_values():
    # reading them as float64 would drop the imaginary parts and merge
    # 1+2j with 1+5j
    for values in (np.array([[1 + 2j, 1 + 5j, 3]]), np.zeros((2, 3), dtype=np.complex64)):
        with pytest.raises(ValueError, match="complex"):
            canonicalize(values, RAW_CODES)
    with pytest.raises(ValueError, match="complex"):
        dataset_from_matrices(np.array([[1 + 2j, 1 + 5j, 3]]), [[0, 1, 1]])


def test_dataset_from_matrices_uses_given_names():
    data = dataset_from_matrices([[0, 1, 1], [1, 0, 0]], [[0, 1, 1]], feature_names=np.array(["a", "b"]))
    assert data.feature_names == ("a", "b") and data.label_names == ("y0",)
    data = dataset_from_matrices([[0, 1, 1]], [[0, 1, 1]], label_names=("lab",))
    assert data.feature_names == ("f0",) and data.label_names == ("lab",)
    with pytest.raises(ValidationError, match="feature name count mismatch"):
        dataset_from_matrices([[0, 1, 1]], [[0, 1, 1]], feature_names=[])
    with pytest.raises(ValidationError, match="label name count mismatch"):
        dataset_from_matrices([[0, 1, 1]], [[0, 1, 1]], label_names=[])


def test_dataset_matrices_are_read_only():
    data = dataset_from_matrices([[0, 1, 1], [5, 5, 2]], [[1, 0, 1]])
    assert data.features.tolist() == [[0, 1, 1], [1, 1, 0]]
    assert data.feature_cards.tolist() == [2, 2]
    assert data.labels.tolist() == [[1, 0, 1]]
    for arr in (data.features, data.feature_cards, data.labels, data.label_cards, data.features[0]):
        with pytest.raises(ValueError):
            arr[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        data.features = None
    # the cache's columns of every feature are the dataset's own matrix
    assert InfoCache(data).columns(range(2)).mat is data.features


def test_dataset_over_a_slice_of_features(synth, synth_cache):
    # the oracle benchmark builds its instance from the first c features
    c = 40
    sub = Dataset(synth.features[:c], synth.feature_names[:c], synth.labels, synth.label_names, synth.n_instances)
    assert sub.features.dtype == np.int32 and not sub.features.flags.writeable
    assert np.array_equal(sub.features, synth.features[:c])
    assert np.array_equal(sub.feature_cards, synth.feature_cards[:c])
    assert np.array_equal(sub.labels, synth.labels)
    assert np.array_equal(sub.label_cards, synth.label_cards)
    assert (sub.feature_names, sub.label_names) == (synth.feature_names[:c], synth.label_names)
    assert not np.shares_memory(sub.features, synth.features)
    assert not np.shares_memory(sub.labels, synth.labels)
    assert np.array_equal(InfoCache(sub).mi_table(), synth_cache.mi_table()[:c])


def test_dataset_validates_stacked_code_matrices(monkeypatch):
    ok = np.array([[0, 1, 1]], dtype=np.int8)
    data = Dataset(np.vstack([ok, [[2, 0, 1]]]), ("a", "b"), ok, ("y",), 3)
    assert data.features.dtype == np.int32 and data.features.tolist() == [[0, 1, 1], [2, 0, 1]]
    assert data.feature_cards.tolist() == [2, 3] and data.label_cards.tolist() == [2]
    # one row per block: a bad row in a later block is found too
    monkeypatch.setattr(data_module, "BLOCK_CELLS", 1)
    codes = np.array([[0, 1, 1], [0, 0, 0], [0, 2, 2]])
    with pytest.raises(ValueError, match="cover"):
        check_codes(codes, np.array([2, 1, 3]))
    with pytest.raises(ValueError, match="range"):
        check_codes(codes, np.array([2, 1, 2]))
    with pytest.raises(ValueError, match="cover"):
        check_codes(codes[:2], np.array([2, 9]))
    with pytest.raises(ValueError, match="cover"):
        check_codes(codes[:2], np.array([2, 10**15]))  # no count table that wide
    check_codes(codes[:2], np.array([2, 1]))


def test_setup_memory_is_bounded():
    rng = np.random.default_rng(11)
    feats = rng.integers(0, 4, size=(20000, 128))
    labels = rng.integers(0, 2, size=(4, 128))
    tracemalloc.start()
    try:
        data = dataset_from_matrices(feats, labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * data.features.nbytes


def test_write_dense_csv_expected_text():
    data = dataset_from_matrices([[0, 1, 1], [2, 0, 1], [1, 1, 0]], [[0, 1, 1]], feature_names=["a", "b", "c"])
    buf = io.StringIO()
    write_dense_csv(data, buf)
    assert buf.getvalue() == "a,b,c,y0\n0,2,1,0\n1,0,1,1\n1,1,0,1\n"


@pytest.mark.parametrize("bad", ["a,b", " c", "c ", "x\ny", "x\rz", "\tt"])
@pytest.mark.parametrize("column", ["feature", "label"])
def test_write_dense_csv_refuses_names_it_cannot_round_trip(tmp_path, bad, column):
    names = {"feature_names": ["f0", "f1"], "label_names": ["y0"]}
    names[f"{column}_names"][0] = bad
    data = dataset_from_matrices([[0, 1, 1], [2, 0, 1]], [[0, 1, 1]], **names)
    dest = tmp_path / "out.csv"
    with pytest.raises(ValidationError, match="cannot be written"):
        write_dense_csv(data, dest)
    assert not dest.exists()


def test_write_dense_csv_round_trips_unusual_names(tmp_path):
    names = {"feature_names": ["a b", "x;y", '"q"', "t\tab", "ü"], "label_names": ["label 0", "y-1"]}
    rng = np.random.default_rng(10)
    data = dataset_from_matrices(rng.integers(0, 4, (5, 12)), rng.integers(0, 2, (2, 12)), **names)
    dest = tmp_path / "out.csv"
    write_dense_csv(data, dest)
    back = load_dense_csv(dest, 2, binning=BinningSpec(strategy="none"))
    assert (back.feature_names, back.label_names) == (data.feature_names, data.label_names)
    assert back.features.tolist() == data.features.tolist()
    assert back.labels.tolist() == data.labels.tolist()
