"""Deterministic file emission for the CLI.

Every emitted file starts with a comment header recording the tool version,
a hash of the run configuration, and the row count, and is written
atomically (temp file + rename). Numeric cells are formatted at 15
significant digits so identical runs produce byte-identical files.

Tables are handed over as columns (:class:`Table`). CSV is written in
blocks of rows, each column of a block formatted in one pass; only the lines
with a cell that needs quoting are built cell by cell. :func:`_csv_text`
builds the lines of every CSV file firmprod writes, firm files included.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from collections.abc import Iterator, Mapping, Sequence
from contextlib import contextmanager
from pathlib import Path
from typing import IO

import numpy as np

from . import __version__


def config_hash(payload: Mapping[str, object]) -> str:
    """Short stable hash of a run configuration."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def format_cell(value: object) -> str:
    if type(value) is str:  # the common text cell, first
        return value
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.15g}"
    return str(value)


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


@contextmanager
def atomic_open(path: Path, binary: bool = False) -> Iterator[IO]:
    """A new file to write ``path`` through, creating its directory.

    The block writes a temporary file in the same directory, which replaces
    ``path`` when the block ends without an exception, so a reader sees the
    old file or the whole new one. Text is UTF-8 with newlines untranslated.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with (os.fdopen(fd, "wb") if binary
              else os.fdopen(fd, "w", encoding="utf-8", newline="")) as fh:
            yield fh
        # mkstemp creates the file 0600; give it the mode open() would have.
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: Path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


def header_lines(cfg_hash: str, rows: int) -> list[str]:
    return [
        f"# firmprod {__version__}",
        f"# config: {cfg_hash}",
        f"# rows: {rows}",
    ]


def _quote(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"'


def _csv_text(texts: Sequence[Sequence[str]], delimiter: str = ",") -> str:
    """The CSV lines, each ended by LF, of equal-length columns of text cells.

    A cell holding the delimiter, a quote, CR or LF is quoted, and so is a
    first cell starting with ``#`` (after leading whitespace), which a
    reader would otherwise take for a comment line. Each column is tested
    once; only the lines with a cell to quote are built cell by cell.
    """
    specials = delimiter + '"\r\n'
    lines = list(map(delimiter.join, zip(*texts)))
    quote: set[int] = set()
    for j, cells in enumerate(texts):
        joined = "".join(cells)
        if any(ch in joined for ch in specials):
            quote.update(i for i, cell in enumerate(cells) if any(ch in cell for ch in specials))
        if j == 0 and "#" in joined:
            quote.update(i for i, cell in enumerate(cells) if cell.lstrip().startswith("#"))
    for i in quote:
        row = [_quote(cell) if any(ch in cell for ch in specials) else cell
               for cell in (cells[i] for cells in texts)]
        if row[0].lstrip().startswith("#"):  # not yet quoted: a quoted cell starts with '"'
            row[0] = _quote(row[0])
        lines[i] = delimiter.join(row)
    return "\n".join(lines) + "\n" if lines else ""


class Table:
    """Equal-length columns of an emitted table; ``len()`` is its row count.

    A column is a float64 array, an integer array, a :class:`BlankableFloats`
    or any other sequence of cells, each formatted by :func:`format_cell`.
    """

    __slots__ = ("columns", "_rows")

    def __init__(self, *columns: Sequence[object]) -> None:
        lengths = {len(column) for column in columns}
        if len(lengths) > 1:
            raise ValueError(f"table columns differ in length: {sorted(lengths)}")
        self.columns = columns
        self._rows = lengths.pop() if lengths else 0

    @classmethod
    def row(cls, *cells: object) -> Table:
        """A one-row table."""
        return cls(*([cell] for cell in cells))

    def __len__(self) -> int:
        return self._rows


class BlankableFloats:
    """A float64 column whose cells are blank (empty in CSV, null in JSON)
    where ``present`` is False."""

    __slots__ = ("values", "present")

    def __init__(self, values: np.ndarray, present: np.ndarray) -> None:
        self.values = values
        self.present = present

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, rows: slice) -> BlankableFloats:
        return BlankableFloats(self.values[rows], self.present[rows])


#: Rows formatted together when writing CSV.
_BLOCK_ROWS = 512


def _is_float64(column: object) -> bool:
    return isinstance(column, np.ndarray) and column.dtype == np.float64


def _is_integer(column: object) -> bool:
    return isinstance(column, np.ndarray) and column.dtype.kind in "iu"


def _format_column(column: Sequence[object]) -> list[str]:
    if isinstance(column, BlankableFloats):
        cells = list(map("{:.15g}".format, column.values.tolist()))
        for i in np.flatnonzero(~column.present).tolist():
            cells[i] = ""
        return cells
    if _is_float64(column):
        return list(map("{:.15g}".format, column.tolist()))
    if _is_integer(column):
        return list(map(str, column.tolist()))
    return list(map(format_cell, column))


def write_table_csv(path: str | Path, names: Sequence[str], table: Table, cfg_hash: str) -> None:
    with atomic_open(Path(path)) as fh:
        fh.write("\n".join(header_lines(cfg_hash, len(table))) + "\n")
        fh.write(_csv_text([[name] for name in names]))
        # Blocks of rows bound the formatted cells alive at once to one block's.
        for start in range(0, len(table), _BLOCK_ROWS):
            fh.write(_csv_text([_format_column(column[start:start + _BLOCK_ROWS])
                                for column in table.columns]))


def _json_float(cell: str) -> float | str | None:
    """A float's CSV cell read back: null if blank, the text itself if not finite."""
    if not cell:
        return None
    value = float(cell)
    return value if math.isfinite(value) else cell


def _json_column(column: Sequence[object]) -> list[object]:
    if _is_integer(column):
        return column.tolist()
    if isinstance(column, BlankableFloats) or _is_float64(column):  # the CSV text, read back
        return list(map(_json_float, _format_column(column)))
    return [_json_float(format_cell(cell)) if isinstance(cell, float) else cell
            for cell in column]


def write_table_json(path: str | Path, names: Sequence[str], table: Table, cfg_hash: str) -> None:
    doc = {
        "tool": f"firmprod {__version__}",
        "config": cfg_hash,
        "rows": len(table),
        "data": [dict(zip(names, row))
                 for row in zip(*(_json_column(column) for column in table.columns))],
    }
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)  # strict RFC 8259
    atomic_write_text(Path(path), text + "\n")


def write_table(
    path: str | Path,
    names: Sequence[str],
    table: Table,
    cfg_hash: str,
    fmt: str = "csv",
) -> Path:
    """Write ``table`` under the column ``names`` as ``path`` + ``.csv`` or ``.json``.

    A float64 array is formatted with ``"{:.15g}"``, an integer array with
    ``str``, and any other column cell by cell with :func:`format_cell`.
    """
    if len(names) != len(table.columns):
        raise ValueError(f"{len(names)} column names for {len(table.columns)} columns")
    path = Path(path)
    if fmt == "csv":
        target = path.with_suffix(".csv")
        write_table_csv(target, names, table, cfg_hash)
    elif fmt == "json":
        target = path.with_suffix(".json")
        write_table_json(target, names, table, cfg_hash)
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    return target
