"""The column-wise table writer against a row-wise oracle."""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from pathlib import Path

import numpy as np
import pytest

from firmprod import _emit
from firmprod._emit import BlankableFloats, Table, format_cell, write_table



@pytest.fixture(autouse=True, params=[None, 1, 3], ids=["block-default", "block-1", "block-3"])
def block_rows(request, monkeypatch):
    """Run each test with the default CSV block size and with blocks that split the tables."""
    if request.param is not None:
        monkeypatch.setattr(_emit, "_BLOCK_ROWS", request.param)


# -- the row-wise writer the column-wise one replaced, kept as the oracle ----


def _oracle_csv(path: Path, columns: Sequence[str], rows: Sequence[Sequence[object]],
                cfg_hash: str) -> None:
    lines = _emit.header_lines(cfg_hash, len(rows))
    lines.append(_emit._csv_line(columns))
    for row in rows:
        lines.append(_emit._csv_line([format_cell(cell) for cell in row]))
    _emit.atomic_write_text(path, "\n".join(lines) + "\n")


def _oracle_json(path: Path, columns: Sequence[str], rows: Sequence[Sequence[object]],
                 cfg_hash: str) -> None:
    def jsonable(value: object) -> object:
        if isinstance(value, float):
            return float(format_cell(value))
        return value

    doc = {
        "tool": f"firmprod {_emit.__version__}",
        "config": cfg_hash,
        "rows": len(rows),
        "data": [{col: jsonable(cell) for col, cell in zip(columns, row)} for row in rows],
    }
    _emit.atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _cells(column: object) -> list[object]:
    """The cells the oracle sees for one column, as the commands used to pass them."""
    if isinstance(column, BlankableFloats):
        return [v if p else None for v, p in zip(column.values.tolist(), column.present.tolist())]
    if isinstance(column, np.ndarray):
        return column.tolist()
    return list(column)


def _same_bytes(tmp_path: Path, names: Sequence[str], table: Table,
                rows: Sequence[Sequence[object]] | None = None) -> None:
    if rows is None:
        rows = list(zip(*map(_cells, table.columns)))
    for fmt, oracle in (("csv", _oracle_csv), ("json", _oracle_json)):
        got = write_table(tmp_path / "new", names, table, "abc123", fmt)
        want = tmp_path / f"old.{fmt}"
        oracle(want, names, rows, "abc123")
        assert got.read_bytes() == want.read_bytes(), fmt


TEXT = ["plain", "a,b", 'say "hi"', "cr\rhere", "lf\nhere", "crlf\r\n", "", " ", "#x",
        "  #lead", "\t#tab", "mid#dle", ",", '"', "#", "naïve ünïcode"]


@pytest.mark.parametrize("first", TEXT)
def test_text_cells_are_quoted_as_the_row_writer_quoted_them(first, tmp_path):
    column = [first, *TEXT]
    table = Table(column, list(reversed(column)), np.arange(len(column)))
    _same_bytes(tmp_path, ("a", "b", "n"), table)


def test_special_values_match_the_row_writer(tmp_path):
    special = [None, True, False, -0.0, math.nan, math.inf, -math.inf, 1e-300, 0.1,
               123456789012345678.0, 5, -7, "text", np.float64(2.5), np.float64(-0.0),
               np.float64(1 / 3), np.float64(math.nan), "#"]
    floats = np.array([-0.0, math.nan, math.inf, -math.inf, 1e-300, 0.1, 1 / 3, 5e15, 2.0**60,
                       np.nextafter(1.0, 2.0), 1e16, -1.5e-7, 1e22, 7.0, 0.0, -3.25, 12.5,
                       1e-5])
    ints = np.array([0, -1, 2**62, -(2**63), 7, 10, 100, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15])
    blanked = BlankableFloats(floats.copy(), np.array([i % 3 != 0 for i in range(len(floats))]))
    _same_bytes(tmp_path, ("mixed", "floats", "ints", "blank", "u32"),
                Table(special, floats, ints, blanked, ints.astype(np.uint32) % 1000))


def test_numpy_scalars_in_a_text_column_match_the_row_writer(tmp_path):
    # np.float64 is a float; np.int64 and np.bool_ go through str() in CSV as
    # before. JSON cannot hold an np.int64 cell, for either writer.
    cells = [np.float64(0.1), np.float64(-0.0), np.int64(3), np.bool_(True)]
    table = Table(cells, ["x"] * 4)
    rows = list(zip(cells, ["x"] * 4))
    got = write_table(tmp_path / "new", ("v", "t"), table, "h", "csv")
    _oracle_csv(tmp_path / "old.csv", ("v", "t"), rows, "h")
    assert got.read_bytes() == (tmp_path / "old.csv").read_bytes()
    with pytest.raises(TypeError):
        write_table(tmp_path / "new", ("v", "t"), table, "h", "json")
    with pytest.raises(TypeError):
        _oracle_json(tmp_path / "old.json", ("v", "t"), rows, "h")


def test_numpy_columns_match_the_row_writer_fed_numpy_scalars(tmp_path):
    floats = np.array([0.1, -0.0, 1e-300, math.nan, math.inf, 2.5])
    ints = np.arange(-3, 3, dtype=np.int64)
    table = Table(floats, ints)
    scalar_rows = list(zip(floats, ints))  # np.float64 and np.int64 cells
    got = write_table(tmp_path / "new", ("f", "i"), table, "h", "csv")
    _oracle_csv(tmp_path / "old.csv", ("f", "i"), scalar_rows, "h")
    assert got.read_bytes() == (tmp_path / "old.csv").read_bytes()
    _same_bytes(tmp_path, ("f", "i"), table)


def test_empty_and_one_row_tables(tmp_path):
    _same_bytes(tmp_path, ("a", "b"), Table([], np.array([], dtype=float)), [])
    _same_bytes(tmp_path, ("a", "b", "c"), Table.row("#only", 1.5, None), [("#only", 1.5, None)])


def test_float32_arrays_are_formatted_as_their_scalars(tmp_path):
    values = np.array([0.1, 1 / 3, 2.5], dtype=np.float32)
    rows = [(v,) for v in values]  # np.float32 is no float: str() as before
    got = write_table(tmp_path / "new", ("v",), Table(values), "h", "csv")
    _oracle_csv(tmp_path / "old.csv", ("v",), rows, "h")
    assert got.read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_columns_must_match_names_and_each_other(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        Table([1, 2], [1])
    with pytest.raises(ValueError, match="column names"):
        write_table(tmp_path / "t", ("a",), Table([1], [2]), "h")


def test_row_count_is_the_table_length():
    assert len(Table(np.arange(7), ["x"] * 7)) == 7
    assert len(Table.row(1, 2, 3)) == 1
    assert len(Table()) == 0
