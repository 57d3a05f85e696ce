"""Dataset loading, binning, canonicalization, and the synthesized benchmark."""

import dataclasses
import io
import tracemalloc

import numpy as np
import pytest

from divsel import data as data_module
from divsel.data import (
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
from divsel.objective import ObjectiveConfig, SelectionState

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
    """One row canonicalized as np.unique, searchsorted and digitize give it."""
    values = np.asarray(values, dtype=np.float64)
    distinct = np.unique(values)
    if binning.strategy == "none" or distinct.size <= binning.max_raw_categories:
        return np.searchsorted(distinct, values), distinct.size
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
    ints = np.stack([np.arange(-3, 97), np.arange(100) % 4]).astype(np.int64)
    int_codes, int_cards = canonicalize(ints, binning)
    for row, got, card in zip(ints, int_codes, int_cards):
        want, want_card = _reference_codes(row, binning)
        assert got.tolist() == want.tolist() and card == want_card


def test_canonicalize_rejects_bad_input():
    with pytest.raises(ValidationError, match="non-finite"):
        canonicalize(np.array([[0.0, 1.0], [np.inf, 1.0]]))
    with pytest.raises(ValueError, match="two-dimensional"):
        canonicalize(np.zeros(3))
    codes, cards = canonicalize(np.zeros((2, 0)))
    assert codes.shape == (2, 0) and cards.tolist() == [0, 0]


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
    # a selection state over every feature reads the dataset's own matrix
    cache = InfoCache(data)
    state = SelectionState([range(2)], ObjectiveConfig.plain(cache.mi_table(), 1), cache)
    assert state.columns[0] is data.features


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
