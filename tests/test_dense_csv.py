"""The dense-CSV loader's accepted files, values and errors.

``load_dense_csv`` parses blocks of lines with numpy's text parser and
re-parses a block it refuses line by line with ``float()``. The outcomes
below (codes, or the exact exception and message) were recorded from the
whole-file, per-cell ``float()`` loader the block parser replaced, which
``_per_line_reference`` keeps as an oracle.
"""

import io
import tracemalloc

import numpy as np
import pytest

from divsel import data as data_module
from divsel.data import BinningSpec, canonicalize, load_dense_csv
from divsel.errors import ParseError, ValidationError

# name: (text, keyword arguments, outcome); an outcome is the feature codes,
# label codes and names, or the exception type and message
CORPUS = {
    "whitespace_and_tabs": (
        "a,y\n 1 ,0\n\t2\t,1\n  3,\t0 \n",
        {},
        ([[0, 1, 2]], [[0, 1, 0]], ("a",), ("y",)),
    ),
    "number_forms": (
        "a,b,y\n+1,.5,0\n5.,1e3,1\n-2,1E-3,0\n",
        {},
        ([[1, 2, 0], [1, 2, 0]], [[0, 1, 0]], ("a", "b"), ("y",)),
    ),
    "underscore": ("a,y\n1_000,0\n999,1\n1001,0\n", {}, ([[1, 0, 2]], [[0, 1, 0]], ("a",), ("y",))),
    "fullwidth_digit": ("a,y\n１,0\n0,1\n2,0\n", {}, ([[1, 0, 2]], [[0, 1, 0]], ("a",), ("y",))),
    "empty_cell": ("a,y\n0,0\n,1\n", {}, (ParseError, "<stream>: line 3: non-numeric cell ''")),
    "lone_hash_cell": ("a,y\n0,0\n#,1\n", {}, (ParseError, "<stream>: line 3: non-numeric cell '#'")),
    "hash_after_number": ("a,y\n0,0\n1,1#5\n", {}, (ParseError, "<stream>: line 3: non-numeric cell '1#5'")),
    "nan": ("a,y\n0,0\nnan,1\n", {}, (ParseError, "<stream>: line 3: non-finite value")),
    "inf": ("a,y\n0,0\n1,inf\n", {}, (ParseError, "<stream>: line 3: non-finite value")),
    "infinity": ("a,y\nInfinity,0\n", {}, (ParseError, "<stream>: line 2: non-finite value")),
    "overflow": ("a,y\n0,0\n1e400,1\n", {}, (ParseError, "<stream>: line 3: non-finite value")),
    "non_numeric_before_non_finite": (
        "a,b,y\nnan,x,0\n",
        {},
        (ParseError, "<stream>: line 2: non-numeric cell 'x'"),
    ),
    "blank_line_in_middle": ("a,y\n0,0\n\n1,1\n", {}, (ParseError, "<stream>: line 3: expected 2 cells, got 1")),
    "whitespace_only_line": ("a,y\n0,0\n \t\n1,1\n", {}, (ParseError, "<stream>: line 3: expected 2 cells, got 1")),
    "trailing_blank_line": ("a,y\n0,0\n1,1\n\n", {}, (ParseError, "<stream>: line 4: expected 2 cells, got 1")),
    "no_final_newline": ("a,y\n0,0\n1,1", {}, ([[0, 1]], [[0, 1]], ("a",), ("y",))),
    "too_many_cells": ("a,y\n0,0\n1,1,1\n", {}, (ParseError, "<stream>: line 3: expected 2 cells, got 3")),
    "crlf_stream": ("a,y\r\n0,1\r\n1,0\r\n", {}, ([[0, 1]], [[1, 0]], ("a",), ("y",))),
    "cr_inside_cell": ("a,y\n0,\r1\n1,0\n", {}, ([[0, 1]], [[1, 0]], ("a",), ("y",))),
    # only one \r is taken off a line end
    "second_cr_kept": ("a,y\n0,0\n1,\r\r\n", {}, (ParseError, "<stream>: line 3: non-numeric cell '\\r'")),
    # numpy's parser strips \x1c-\x1f around a number; float() does not
    "unit_separator": ("a,y\n0,0\n\x1f1,1\n", {}, (ParseError, "<stream>: line 3: non-numeric cell '\\x1f1'")),
    "no_header": ("0,1\n1,0\n2,1\n", {"has_header": False}, ([[0, 1, 2]], [[1, 0, 1]], ("f0",), ("y0",))),
    "no_header_bad_first_line": (
        "0,x\n1,0\n",
        {"has_header": False},
        (ParseError, "<stream>: line 1: non-numeric cell 'x'"),
    ),
    "header_only": ("a,y\n", {}, (ValidationError, "<stream>: no data rows")),
    "empty": ("", {}, (ParseError, "<stream>: file is empty")),
}

# read from a file path, where universal newlines apply
PATH_CORPUS = {
    "crlf_path": (b"a,y\r\n0,1\r\n1,0\r\n", ([[0, 1]], [[1, 0]], ("a",), ("y",))),
    "cr_path": (b"a,y\r0,1\r1,0\r", ([[0, 1]], [[1, 0]], ("a",), ("y",))),
    "crlf_path_blank_line": (b"a,y\r\n0,1\r\n\r\n1,0\r\n", (ParseError, "<path>: line 3: expected 2 cells, got 1")),
}


def _outcome(source, label_count=1, **kwargs):
    try:
        data = load_dense_csv(source, label_count, **kwargs)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)
    return data.features.tolist(), data.labels.tolist(), data.feature_names, data.label_names


@pytest.mark.parametrize("case", sorted(CORPUS))
def test_corpus_case(case):
    text, kwargs, expected = CORPUS[case]
    assert _outcome(io.StringIO(text), **kwargs) == expected


@pytest.mark.parametrize("case", sorted(PATH_CORPUS))
def test_corpus_case_from_path(case, tmp_path):
    raw, expected = PATH_CORPUS[case]
    path = tmp_path / "input.csv"
    path.write_bytes(raw)
    got = _outcome(path)
    if isinstance(got[1], str):
        got = (got[0], got[1].replace(str(path), "<path>"))
    assert got == expected


def _per_line_reference(text, label_count, has_header=True, binning=BinningSpec()):
    """The whole-file, per-cell float() loader: codes and cardinalities of
    both groups, or the exception type and message."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    lines = [ln[:-1] if ln.endswith("\r") else ln for ln in lines]
    width = len(lines[0].split(","))
    rows = []
    for idx in range(1 if has_header else 0, len(lines)):
        cells = lines[idx].split(",")
        if len(cells) != width:
            return ParseError, f"<stream>: line {idx + 1}: expected {width} cells, got {len(cells)}"
        row = []
        for c in cells:
            try:
                row.append(float(c))
            except ValueError:
                return ParseError, f"<stream>: line {idx + 1}: non-numeric cell {c!r}"
        if not all(np.isfinite(row)):
            return ParseError, f"<stream>: line {idx + 1}: non-finite value"
        rows.append(row)
    table = np.asarray(rows, dtype=np.float64)
    d = width - label_count
    return canonicalize(table[:, :d].T, binning) + canonicalize(table[:, d:].T, BinningSpec(strategy="none"))


def _loaded(text, label_count, **kwargs):
    try:
        data = load_dense_csv(io.StringIO(text), label_count, **kwargs)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)
    return data.features, data.feature_cards, data.labels, data.label_cards


def _assert_same(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        else:
            assert a == b


def _table_text(values, labels, header=True):
    d, t = values.shape[1], labels.shape[1]
    lines = [",".join([f"f{i}" for i in range(d)] + [f"y{j}" for j in range(t)])] if header else []
    for vrow, lrow in zip(values.tolist(), labels.tolist()):
        lines.append(",".join([f"{v:.4f}" for v in vrow] + [str(v) for v in lrow]))
    return "\n".join(lines) + "\n"


def _small_blocks(monkeypatch, lines_per_block, width):
    monkeypatch.setattr(data_module, "BLOCK_CELLS", lines_per_block * width)


def _block_file(rows=23, d=2, seed=0):
    rng = np.random.default_rng(seed)
    return _table_text(rng.normal(size=(rows, d)), rng.integers(0, 2, size=(rows, 1))).split("\n")


@pytest.mark.parametrize(
    "line, cell, message",
    [
        (7, "abc", "non-numeric cell 'abc'"),  # first line of the second block
        (11, "abc", "non-numeric cell 'abc'"),  # last line of the second block
        (12, "inf", "non-finite value"),  # first line of the third block
        (16, "1,1", "expected 3 cells, got 4"),  # last line of the third block
    ],
)
def test_fault_at_block_edges(monkeypatch, line, cell, message):
    # 5 data lines per block after the header: blocks are lines 2-6, 7-11, ...
    _small_blocks(monkeypatch, 5, 3)
    lines = _block_file()
    lines[line - 1] = cell + lines[line - 1][lines[line - 1].index(",") :]
    text = "\n".join(lines)
    expected = (ParseError, f"<stream>: line {line}: {message}")
    assert _per_line_reference(text, 1) == expected
    assert _loaded(text, 1) == expected


def test_earlier_fault_in_a_block_wins(monkeypatch):
    _small_blocks(monkeypatch, 5, 3)
    lines = _block_file()
    lines[7] = "x" + lines[7][lines[7].index(",") :]  # line 8: non-numeric
    lines[9] = lines[9] + ",0"  # line 10: one cell too many
    text = "\n".join(lines)
    expected = (ParseError, "<stream>: line 8: non-numeric cell 'x'")
    assert _per_line_reference(text, 1) == expected
    assert _loaded(text, 1) == expected


@pytest.mark.parametrize("strategy", ["equal_frequency", "equal_width", "none"])
@pytest.mark.parametrize("has_header", [True, False])
def test_codes_match_per_line_reference_across_blocks(monkeypatch, strategy, has_header):
    rng = np.random.default_rng(4)
    rows, d = 61, 40
    values = np.round(rng.normal(size=(rows, d)), 1)  # ties, and few distinct values in some columns
    values[:, :5] = rng.integers(0, 4, size=(rows, 5))
    lines = _table_text(values, rng.integers(0, 2, size=(rows, 2)), header=has_header).split("\n")
    # cells only float() reads, in some blocks but not others
    first = 1 if has_header else 0
    for i in (first + 3, first + 40):
        lines[i] = "1_0" + lines[i][lines[i].index(",") :]
    lines[first + 21] = " ３," + lines[first + 21].split(",", 1)[1]
    text = "\n".join(lines)
    _small_blocks(monkeypatch, 8, d + 2)
    binning = BinningSpec(strategy=strategy, bins=4, max_raw_categories=6)
    expected = _per_line_reference(text, 2, has_header=has_header, binning=binning)
    _assert_same(_loaded(text, 2, has_header=has_header, binning=binning), expected)


def test_load_peak_memory_is_a_small_multiple_of_the_table(tmp_path):
    # several blocks at the real block size. The peak is canonicalize's:
    # the table, its codes and one block's temporaries (2.5x the float64
    # table's bytes here); the whole-file per-cell float() loader peaked at
    # 7.6x
    rng = np.random.default_rng(5)
    rows, d = 6000, 256
    path = tmp_path / "wide.csv"
    path.write_text(_table_text(rng.normal(size=(rows, d)), rng.integers(0, 2, size=(rows, 2))))
    assert rows > 2 * (data_module.BLOCK_CELLS // (d + 2))
    table_bytes = rows * (d + 2) * 8
    tracemalloc.start()
    try:
        data = load_dense_csv(path, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.features.shape == (d, rows)
    assert peak < 3 * table_bytes
