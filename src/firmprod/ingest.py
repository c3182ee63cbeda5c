"""Firm-year financial records: parsing, filtering, serialization.

The canonical interchange format is header-labeled delimited text (comma by
default). A :class:`CsvSchema` maps file headers to record fields so vendor
files with arbitrary column names can be ingested without preprocessing.
A line that starts a record with ``#`` is a comment and is skipped; inside a
quoted cell such a line is data. Records are stored as columns (see
:mod:`firmprod.records`).

Parsing fills the columns in blocks of rows. Each column of a block is
converted with one ``map`` and checked column-wise; only a row that fails a
check goes through :func:`_record_from_row`, which owns the skip reasons.
"""

from __future__ import annotations

import csv
import io
import json
import re
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import IO, TextIO

import numpy as np

from ._emit import _csv_text
from .errors import (
    ConfigError,
    DataError,
    RowError,
    SchemaError,
    ValidationError,
)
from .records import (  # the record types and field names stay importable from here
    _INT64_MAX,
    _NONNEGATIVE_MONEY,
    CANONICAL_COLUMNS,
    KEY_FIELDS,
    MANDATORY_FIELDS,
    MONEY_FIELDS,
    OPTIONAL_FIELDS,
    SECTOR_CLASSES,
    Columns,
    Dataset,
    FirmRecord,
    _check_fields,
)

DEFAULT_YEAR_RANGE = (1980, 2030)

#: Rows converted together by :func:`parse_firm_records` (and written together by
#: :func:`write_firm_records`). A block's cells all live at once, so a larger
#: block raises peak memory; it does not make parsing faster.
_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class CsvSchema:
    """Column mapping and parse settings for delimited firm files.

    ``columns`` maps record field names to the header names used in the
    file; unmapped fields default to their canonical names. Optional fields
    whose column is missing entirely are treated as absent for every row.
    Two fields can not read the same column.
    """

    columns: Mapping[str, str] = None  # type: ignore[assignment]
    delimiter: str = ","
    currency_unit: str = "unspecified"
    year_range: tuple[int, int] = DEFAULT_YEAR_RANGE

    def __post_init__(self) -> None:
        mapping = dict(self.columns) if self.columns else {}
        unknown = set(mapping) - set(CANONICAL_COLUMNS)
        if unknown:
            raise SchemaError(f"unknown record fields in column mapping: {sorted(unknown)}")
        for field in CANONICAL_COLUMNS:
            mapping.setdefault(field, field)
        object.__setattr__(self, "columns", mapping)
        readers: dict[str, list[str]] = {}
        for field, column in mapping.items():
            readers.setdefault(column, []).append(field)
        for column, fields in readers.items():
            if len(fields) > 1:
                raise SchemaError(f"column {column!r} is mapped to more than one field: "
                                  + ", ".join(fields))
        if not (isinstance(self.delimiter, str) and len(self.delimiter) == 1):
            raise SchemaError(f"delimiter must be one character, got {self.delimiter!r}")
        if self.delimiter in '"\r\n':
            raise SchemaError(f"delimiter can not be a quote, CR or LF, got {self.delimiter!r}")
        if self.delimiter == "#":  # a row whose first cell is empty would read as a comment
            raise SchemaError("delimiter can not be '#', which starts a comment line")
        if not (isinstance(self.year_range, (tuple, list)) and len(self.year_range) == 2
                and all(type(y) is int for y in self.year_range)):
            raise SchemaError(f"year_range must be two integers, got {self.year_range!r}")
        object.__setattr__(self, "year_range", tuple(self.year_range))
        lo, hi = self.year_range
        if lo > hi:
            raise SchemaError(f"year_range lower bound {lo} exceeds upper bound {hi}")
        if not -_INT64_MAX <= lo <= hi <= _INT64_MAX:
            raise SchemaError(f"year_range must lie within +-{_INT64_MAX}, got {self.year_range}")

    @classmethod
    def from_json(cls, path: str | Path) -> CsvSchema:
        raw = read_json_config(path, "schema file")
        try:
            return cls(**raw)
        except (SchemaError, TypeError, ValueError) as exc:  # a refused value or unknown key
            raise SchemaError(f"{path}: bad schema: {exc}") from exc


def read_json_config(path: str | Path, what: str, *, allow_list: bool = False) -> dict | list:
    """Load a JSON config file holding an object (or, with ``allow_list``, a list)."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise ConfigError(f"{path}: {what} is not readable JSON: {exc}") from exc
    if not isinstance(raw, (dict, list) if allow_list else dict):
        raise ConfigError(f"{path}: {what} must be a JSON object" + " or list" * allow_list)
    return raw


@dataclass(frozen=True)
class RowIssue:
    """One skipped input row: 1-based line number plus the reason."""

    line: int
    reason: str


@dataclass(frozen=True)
class ParseReport:
    """A parsed dataset together with the rows that were skipped."""

    dataset: Dataset
    skipped: tuple[RowIssue, ...]

    @property
    def n_skipped(self) -> int:
        return len(self.skipped)


def _split_at_lone_cr(lines: Iterable[str]) -> Iterator[str]:
    """``lines`` split at a lone CR too, as a file opened with ``newline=""`` splits them."""
    for line in lines:
        cr = line.find("\r", 0, -1)  # a CR before the last character
        if cr < 0 or line[cr + 1:] == "\n":
            yield line
        else:  # pieces that each end at LF, CRLF or a lone CR, or end the line
            yield from re.findall(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+", line)


class _LineFilter:
    """Feeds the csv reader its lines while tracking source line numbers.

    A line that would start a record is dropped when it is blank or its
    first non-blank character is ``#``, and no ``delimiter`` comes before
    that character: under a tab or space delimiter, a line of delimiters
    or one whose empty first cell is followed by ``#`` is a row. A line
    the reader takes while inside a quoted cell is data, whatever it holds;
    the reader's consumer sets ``record_start`` after each row (or csv
    error) it takes. A UTF-8 byte-order mark in front of the first line is
    dropped.
    """

    def __init__(self, lines: Iterable[str], delimiter: str):
        self.lineno = 0
        self.record_start = True
        self._delimiter = delimiter
        self._lines = self._filter(lines)

    def __iter__(self) -> Iterator[str]:
        return self._lines

    def _filter(self, lines: Iterable[str]) -> Iterator[str]:
        lines = iter(lines)
        first = next(lines, None)
        if first is None:
            return
        for self.lineno, line in enumerate(chain([first.removeprefix("\ufeff")], lines), 1):
            if self.record_start:
                # only a line that starts blank or with '#' can be skipped
                if not line or line[0] == "#" or line[0].isspace():
                    rest = line.lstrip()
                    if ((not rest or rest[0] == "#")
                            and self._delimiter not in line[:len(line) - len(rest)]):
                        continue
                self.record_start = False
            yield line


def _parse_money(text: str, field: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{field}: cannot parse {text!r} as a number") from None
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError(f"{field}: non-finite value {text!r}")
    return value


def _record_from_row(
    row: Sequence[str],
    header_index: Mapping[str, int],
    schema: CsvSchema,
) -> dict[str, object]:
    """The checked field values of one row, or the ``ValueError`` or
    :class:`ValidationError` that names why the row is skipped."""
    def cell(field: str) -> str | None:
        idx = header_index.get(field)
        if idx is None or idx >= len(row):
            return None
        text = row[idx].strip()
        return text if text else None

    values: dict[str, object] = {}
    for field in MANDATORY_FIELDS:
        text = cell(field)
        if text is None:
            raise ValueError(f"{field}: mandatory cell is empty")
        if field in ("firm_id", "country", "sector", "sector_class"):
            values[field] = text
        elif field in ("year", "workers"):
            try:
                values[field] = int(text)
            except ValueError:
                raise ValueError(f"{field}: cannot parse {text!r} as an integer") from None
        else:
            money = _parse_money(text, field)
            if money < 0:
                raise ValueError(f"{field}: negative value {money}")
            values[field] = money

    lo, hi = schema.year_range
    if not lo <= values["year"] <= hi:
        raise ValueError(f"year: {values['year']} outside configured range {lo}..{hi}")

    for field in OPTIONAL_FIELDS:
        text = cell(field)
        values[field] = None if text is None else _parse_money(text, field)

    _check_fields(values)
    return values


def _numbers(cells: list[str], convert, fill: object, flagged: set[int]) -> list:
    """``convert`` of each cell; a cell it rejects reads ``fill`` and flags its row."""
    try:
        return list(map(convert, cells))
    except ValueError:
        out = []
        for i, text in enumerate(cells):
            try:
                out.append(convert(text))
            except ValueError:
                flagged.add(i)
                out.append(fill)
        return out


class _BlockParser:
    """Converts blocks of split rows of one file into column parts.

    A block's cells are converted a column at a time and checked
    column-wise. A row that fails any check is flagged and handed to
    :func:`_record_from_row`, which either gives the row's values after all
    (a short row, a cell padded with whitespace ``int`` does not take) or
    the reason the row is skipped. Keys are claimed first-wins in row order.
    """

    def __init__(self, header_index: Mapping[str, int], schema: CsvSchema):
        self.header_index = header_index
        self.schema = schema
        self.width = max(header_index.values()) + 1
        self.seen: set[tuple[str, int]] = set()
        self.parts: list[Columns] = []

    def __call__(self, rows: list[list[str]]) -> list[tuple[int, str]]:
        """Convert one block into a part; the (row index, reason) of each row left out."""
        n = len(rows)
        if min(map(len, rows)) < self.width:  # a short row reads empty cells
            for row in rows:
                row.extend([""] * (self.width - len(row)))
        transposed = list(zip(*rows))  # as long as the shortest row, so at least width

        def column(field: str) -> tuple[str, ...]:
            return transposed[self.header_index[field]]

        flagged: set[int] = set()

        text = {}
        for field in ("firm_id",) + KEY_FIELDS:
            text[field] = list(map(str.strip, column(field)))
            if not all(text[field]):
                flagged.update(i for i, t in enumerate(text[field]) if not t)
        classes = set(text["sector_class"]).difference(SECTOR_CLASSES)
        if classes:
            flagged.update(i for i, t in enumerate(text["sector_class"]) if t in classes)

        lo, hi = self.schema.year_range
        year = _numbers(column("year"), int, lo, flagged)
        if not lo <= min(year) <= max(year) <= hi:
            flagged.update(i for i, y in enumerate(year) if not lo <= y <= hi)
        workers = _numbers(column("workers"), int, 0, flagged)
        if not 0 <= min(workers) <= max(workers) <= _INT64_MAX:
            flagged.update(i for i, w in enumerate(workers) if not 0 <= w <= _INT64_MAX)

        money = np.zeros((len(MONEY_FIELDS), n))
        present = np.zeros((len(OPTIONAL_FIELDS), n), dtype=bool)
        for field, values in zip(MONEY_FIELDS, money):
            if field not in self.header_index:  # an optional column the file lacks: absent
                continue
            cells = column(field)
            mask = present[OPTIONAL_FIELDS.index(field)] if field in OPTIONAL_FIELDS else None
            if mask is not None and not all(cells):
                mask[:] = list(map(bool, cells))
                values[:] = _numbers(cells, lambda t: float(t) if t else 0.0, 0.0, flagged)
            else:
                values[:] = _numbers(cells, float, 0.0, flagged)
                if mask is not None:
                    mask[:] = True
            valid = np.isfinite(values)
            if field in _NONNEGATIVE_MONEY:
                valid &= values >= 0
            if mask is not None:
                valid |= ~mask
            if not valid.all():
                flagged.update(np.flatnonzero(~valid).tolist())

        issues: list[tuple[int, str]] = []
        for i in sorted(flagged):
            try:
                values = _record_from_row(rows[i], self.header_index, self.schema)
            except (ValueError, ValidationError) as exc:
                issues.append((i, str(exc)))
                continue
            for field in ("firm_id",) + KEY_FIELDS:
                text[field][i] = values[field]
            year[i] = values["year"]
            workers[i] = values["workers"]
            money[:, i] = [0.0 if values[field] is None else values[field]
                           for field in MONEY_FIELDS]
            present[:, i] = [values[field] is not None for field in OPTIONAL_FIELDS]

        kept = list(range(n))
        if issues:
            left_out = {i for i, _ in issues}
            kept = [i for i in kept if i not in left_out]
        firm_id = text["firm_id"]
        keys = list(zip(firm_id, year)) if len(kept) == n else [(firm_id[i], year[i]) for i in kept]
        distinct = set(keys)
        if len(distinct) == len(keys) and self.seen.isdisjoint(distinct):
            self.seen |= distinct
        else:
            unique = []
            for i, key in zip(kept, keys):
                if key in self.seen:
                    issues.append((i, f"duplicate (firm_id, year) key ({key[0]}, {key[1]})"))
                else:
                    self.seen.add(key)
                    unique.append(i)
            kept = unique
            issues.sort()

        def select(values: list) -> list:
            return values if len(kept) == n else [values[i] for i in kept]

        pick = np.array(kept, dtype=np.intp)
        self.parts.append(Columns.from_arrays(
            select(firm_id),
            np.array(select(year), dtype=np.int64),
            np.array(select(workers), dtype=np.int64),
            money[:, pick],
            present[:, pick],
            {field: select(text[field]) for field in KEY_FIELDS},
        ))
        return issues


def parse_firm_records(
    source: str | Path | TextIO | IO[bytes],
    schema: CsvSchema | None = None,
    *,
    strict: bool = False,
) -> ParseReport:
    """Parse delimited firm-year records into a dataset.

    Bad rows are skipped and reported in the returned :class:`ParseReport`
    unless ``strict`` is set, in which case the first bad row raises
    :class:`RowError`. A missing mandatory column, or a mapped column that
    the header names twice, always raises :class:`SchemaError`. Row order
    is preserved; a repeated (firm_id, year) key within one file is a row
    error, and the first row with the key is kept.

    A path is read as its bytes. Bytes are decoded as UTF-8, and a byte
    stream is left open. Lines end at LF, CRLF or CR, in bytes and in text
    alike. The dataset's provenance is the stream's ``name`` when that is a
    string, so the path of a file opened from one.
    """
    schema = schema or CsvSchema()
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            return parse_firm_records(fh, schema, strict=strict)
    name = getattr(source, "name", None)
    provenance = (name,) if isinstance(name, str) else ()
    if hasattr(source, "read") and isinstance(source.read(0), bytes):  # type: ignore[union-attr]
        text = io.TextIOWrapper(source, encoding="utf-8", newline="")  # type: ignore[arg-type]
        try:
            return _parse_lines(text, schema, strict, provenance)
        finally:
            text.detach()  # a collected wrapper would close the caller's stream
    lines = _split_at_lone_cr(source)  # type: ignore[arg-type]
    return _parse_lines(lines, schema, strict, provenance)


def _parse_lines(lines: Iterable[str], schema: CsvSchema, strict: bool,
                 provenance: tuple[str, ...]) -> ParseReport:
    """:func:`parse_firm_records` of lines split as by a file opened with ``newline=""``."""
    line_filter = _LineFilter(lines, schema.delimiter)
    reader = csv.reader(line_filter, delimiter=schema.delimiter)
    skipped: list[RowIssue] = []

    def report(events: list[tuple[tuple[int, int], int, str]]) -> None:
        """Report bad rows in input order; in strict mode the first one raises."""
        for _, line, reason in sorted(events):
            if strict:
                raise RowError(line, reason)
            skipped.append(RowIssue(line, reason))

    def read(limit: int) -> tuple[list[list[str]], list[int], list, bool | DataError]:
        """Up to ``limit`` split rows, their line numbers, the lines csv could
        not split, and whether input is left: ``True``, ``False``, or the
        error of an undecodable byte, raised once the rows the reader already
        gave are reported. Bytes are decoded a chunk at a time, so rows
        before the byte in its chunk are not among them."""
        rows: list[list[str]] = []
        numbers: list[int] = []
        errors: list[tuple[tuple[int, int], int, str]] = []
        while True:
            try:
                for row in reader:
                    line_filter.record_start = True
                    rows.append(row)
                    numbers.append(line_filter.lineno)
                    if len(rows) == limit:
                        return rows, numbers, errors, True
                return rows, numbers, errors, False
            except csv.Error as exc:  # such as a cell over csv.field_size_limit()
                line_filter.record_start = True
                errors.append(((len(rows), 0), line_filter.lineno, str(exc)))
            except UnicodeDecodeError as exc:
                return rows, numbers, errors, DataError(f"input is not UTF-8 text: {exc}")

    header, _, errors, more = read(1)
    report(errors)
    if isinstance(more, DataError):
        raise more
    if not header:
        raise SchemaError("input has no header row")

    names = [name.strip() for name in header[0]]
    positions = {name: idx for idx, name in enumerate(names)}
    header_index: dict[str, int] = {}
    for field in CANONICAL_COLUMNS:
        column = schema.columns[field]
        if names.count(column) > 1:
            raise SchemaError(f"column {column!r} (field {field}) appears more than once")
        if column in positions:
            header_index[field] = positions[column]
        elif field in MANDATORY_FIELDS:
            raise SchemaError(f"missing mandatory column {column!r} (field {field})")

    parse_block = _BlockParser(header_index, schema)
    while more is True:
        rows, numbers, errors, more = read(_BLOCK_ROWS)
        if rows:
            errors += [((i, 1), numbers[i], reason) for i, reason in parse_block(rows)]
        report(errors)
    if isinstance(more, DataError):
        raise more

    columns = Columns.concat(parse_block.parts)
    dataset = Dataset._of(columns, None, schema.currency_unit, provenance)
    return ParseReport(dataset=dataset, skipped=tuple(skipped))


def write_firm_records(
    dataset: Dataset,
    dest: str | Path | TextIO,
    schema: CsvSchema | None = None,
) -> None:
    """Write a dataset in the canonical delimited format.

    Floats are written with exact round-trip precision, and a cell is
    quoted where the parser needs it, so that parse(write(d)) reproduces
    ``d`` field for field; only the leading and trailing whitespace of a
    text cell, which the parser strips, is not kept.
    """
    schema = schema or CsvSchema(currency_unit=dataset.currency_unit)
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            write_firm_records(dataset, fh, schema)
        return

    dest.write(_csv_text([[schema.columns[field]] for field in CANONICAL_COLUMNS],
                         schema.delimiter))
    columns, rows = dataset.columns, dataset.rows
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        cells = []
        for field in CANONICAL_COLUMNS:
            values = columns.column(field, block).tolist()
            if field in MONEY_FIELDS:
                values = list(map(repr, values))  # shortest exact round-trip
                for i in np.flatnonzero(~columns.present_mask(field, block)).tolist():
                    values[i] = ""
            elif field in ("year", "workers"):
                values = list(map(str, values))
            cells.append(values)
        dest.write(_csv_text(cells, schema.delimiter))


def filter_dataset(
    d: Dataset,
    *,
    year: int | None = None,
    country: str | None = None,
    sector_class: str | None = None,
    min_workers: int | None = None,
    require_positive: Sequence[str] = (),
) -> Dataset:
    """Keep records satisfying every supplied clause, preserving order.

    ``min_workers`` is inclusive (workers >= threshold). ``require_positive``
    drops records where any named field is absent or <= 0. An empty result
    is valid. The result selects rows of ``d``'s columns: nothing is copied
    or re-checked, and its records are ``d``'s record objects.
    """
    for field in require_positive:
        if field not in CANONICAL_COLUMNS:
            raise ValueError(f"unknown field in require_positive: {field!r}")
        if field not in MONEY_FIELDS + ("year", "workers"):
            raise ValueError(f"require_positive needs a numeric field, got {field!r}")

    columns, rows = d.columns, d.rows
    keep = np.ones(len(rows), dtype=bool)
    if year is not None:
        keep &= columns.column("year", rows) == year
    for name, wanted in (("country", country), ("sector_class", sector_class)):
        if wanted is not None:
            keep &= columns.column(name, rows) == wanted
    if min_workers is not None:
        keep &= columns.column("workers", rows) >= min_workers
    for field in require_positive:
        # not <= 0 rather than > 0: a NaN passes, as it does per record
        keep &= columns.present_mask(field, rows) & ~(columns.column(field, rows) <= 0)
    return Dataset._of(columns, rows[keep], d.currency_unit, d.provenance)
