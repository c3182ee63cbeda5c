"""Firm-year financial records: parsing, merging, filtering, serialization.

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
import json
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import IO, TextIO

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    MergeConflictError,
    RowError,
    SchemaError,
    UnitMismatchError,
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


class MergePolicy(Enum):
    """How to resolve duplicate (firm_id, year) keys when merging."""

    PREFER_A = "prefer_a"
    PREFER_B = "prefer_b"
    REJECT_CONFLICT = "reject_conflict"


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
        except (TypeError, ValueError) as exc:  # an unknown key, or columns that are no mapping
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


class _LineFilter:
    """Feeds the csv reader its lines while tracking source line numbers.

    A line that would start a record is dropped when it is blank or its
    first non-blank character is ``#``. A line the reader takes while
    inside a quoted cell is data, whatever it holds; the reader's consumer
    sets ``record_start`` after each row (or csv error) it takes. A UTF-8
    byte-order mark in front of the first line is dropped.
    """

    def __init__(self, lines: Iterable[str]):
        self.lineno = 0
        self.record_start = True
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
                    stripped = line.strip()
                    if not stripped or stripped.startswith("#"):
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

        money: dict[str, np.ndarray] = {}
        present: dict[str, np.ndarray] = {}
        for field in MONEY_FIELDS:
            if field not in self.header_index:  # an optional column the file lacks
                money[field] = np.zeros(n)
                present[field] = np.zeros(n, dtype=bool)
                continue
            cells = column(field)
            if field in OPTIONAL_FIELDS and not all(cells):
                present[field] = np.array(list(map(bool, cells)), dtype=bool)
                values = _numbers(cells, lambda t: float(t) if t else 0.0, 0.0, flagged)
            else:
                values = _numbers(cells, float, 0.0, flagged)
                if field in OPTIONAL_FIELDS:
                    present[field] = np.ones(n, dtype=bool)
            array = money[field] = np.array(values, dtype=float)
            valid = np.isfinite(array)
            if field in _NONNEGATIVE_MONEY:
                valid &= array >= 0
            if field in OPTIONAL_FIELDS:
                valid |= ~present[field]
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
            for field in MONEY_FIELDS:
                value = values[field]
                money[field][i] = 0.0 if value is None else value
                if field in OPTIONAL_FIELDS:
                    present[field][i] = value is not None

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
            {field: array[pick] for field, array in money.items()},
            {field: mask[pick] for field, mask in present.items()},
            {field: select(text[field]) for field in KEY_FIELDS},
        ))
        return issues


def parse_firm_records(
    source: str | Path | TextIO | IO[bytes],
    schema: CsvSchema | None = None,
    *,
    strict: bool = False,
    provenance: str = "",
) -> ParseReport:
    """Parse delimited firm-year records into a dataset.

    Bad rows are skipped and reported in the returned :class:`ParseReport`
    unless ``strict`` is set, in which case the first bad row raises
    :class:`RowError`. A missing mandatory column, or a mapped column that
    the header names twice, always raises :class:`SchemaError`. Row order
    is preserved; a repeated (firm_id, year) key within one file is a row
    error, and the first row with the key is kept.
    """
    schema = schema or CsvSchema()
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8", newline="") as fh:
            return parse_firm_records(fh, schema, strict=strict, provenance=provenance or str(source))

    lines: Iterable[str]
    if hasattr(source, "read") and isinstance(source.read(0), bytes):  # type: ignore[union-attr]
        lines = (raw.decode("utf-8") for raw in source)  # type: ignore[union-attr]
    else:
        lines = source  # type: ignore[assignment]

    line_filter = _LineFilter(lines)
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
        error of a line that is not UTF-8, raised once the rows before it
        are reported."""
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

    columns = Columns.concat([(part, None) for part in parse_block.parts])
    dataset = Dataset._of(columns, None, schema.currency_unit, (provenance,) if provenance else ())
    return ParseReport(dataset=dataset, skipped=tuple(skipped))


def write_firm_records(
    dataset: Dataset,
    dest: str | Path | TextIO,
    schema: CsvSchema | None = None,
) -> None:
    """Write a dataset in the canonical delimited format.

    Floats are written with exact round-trip precision so that
    parse(write(d)) reproduces ``d`` field for field.
    """
    schema = schema or CsvSchema(currency_unit=dataset.currency_unit)
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            write_firm_records(dataset, fh, schema)
        return

    plain = csv.writer(dest, delimiter=schema.delimiter, lineterminator="\n")
    # A line whose first cell starts with '#' is quoted, or the parser takes it for a comment.
    quoted = csv.writer(dest, delimiter=schema.delimiter, lineterminator="\n",
                        quoting=csv.QUOTE_ALL)
    plain.writerow([schema.columns[field] for field in CANONICAL_COLUMNS])
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
        lines = list(zip(*cells))
        done = 0
        for i, firm_id in enumerate(cells[0]):
            if firm_id.lstrip().startswith("#"):
                plain.writerows(lines[done:i])
                quoted.writerow(lines[i])
                done = i + 1
        plain.writerows(lines[done:])


def merge_datasets(
    a: Dataset,
    b: Dataset,
    policy: MergePolicy = MergePolicy.PREFER_A,
) -> Dataset:
    """Union of two datasets with explicit duplicate-key resolution.

    Record order: all of ``a`` (with losers replaced in place under
    PREFER_B), then the records of ``b`` whose keys are new.
    """
    if a.currency_unit != b.currency_unit:
        raise UnitMismatchError(
            f"currency units differ: {a.currency_unit!r} vs {b.currency_unit!r}"
        )
    a_keys = a.columns.keys(a.rows)
    b_position = {key: i for i, key in enumerate(b.columns.keys(b.rows))}
    duplicates = [key for key in a_keys if key in b_position]
    if duplicates and policy is MergePolicy.REJECT_CONFLICT:
        raise MergeConflictError(duplicates)

    # Rows of the concatenation a + b, in merged order.
    offset = len(a)
    order = [offset + b_position[key] if policy is MergePolicy.PREFER_B and key in b_position
             else i for i, key in enumerate(a_keys)]
    taken = set(a_keys)
    order += [offset + j for j, key in enumerate(b_position) if key not in taken]
    columns = Columns.concat([(a.columns, a.rows), (b.columns, b.rows)])
    return Dataset._of(columns, np.array(order, dtype=np.intp), a.currency_unit,
                       a.provenance + b.provenance)


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
