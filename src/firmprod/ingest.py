"""Firm-year financial records: parsing, merging, filtering, serialization.

The canonical interchange format is header-labeled delimited text (comma by
default). A :class:`CsvSchema` maps file headers to record fields so vendor
files with arbitrary column names can be ingested without preprocessing.
Lines starting with ``#`` are treated as comments and skipped.

Parsing streams: each row is converted as it is read. Once the header is
known, one converter is compiled for the file's column layout; it takes the
row's cells with one ``itemgetter``, converts them inline and builds the
:class:`FirmRecord` positionally. A row the converter rejects goes through
the ordered per-field checks, which give the skip reason.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, fields as dataclass_fields
from enum import Enum
from math import isfinite
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import IO, TextIO

from .errors import (
    ConfigError,
    DataError,
    MergeConflictError,
    RowError,
    SchemaError,
    UnitMismatchError,
    ValidationError,
)

SECTOR_CLASSES = ("manufacturing", "non_manufacturing")

#: Mandatory columns: a file missing any of these cannot be ingested.
MANDATORY_FIELDS = (
    "firm_id",
    "year",
    "country",
    "sector",
    "sector_class",
    "revenue",
    "cogs",
    "workers",
)

#: Optional financial components; absent cells stay absent (``None``), never 0.
OPTIONAL_FIELDS = (
    "total_labor_cost",
    "capital",
    "ordinary_income",
    "financial_expense",
    "tax_public_charge",
    "depreciation",
)

CANONICAL_COLUMNS = MANDATORY_FIELDS + OPTIONAL_FIELDS

#: Money fields that must be non-negative when present (ordinary_income is
#: exempt: losses are legitimate).
_NONNEGATIVE_MONEY = (
    "revenue",
    "cogs",
    "total_labor_cost",
    "capital",
    "financial_expense",
    "tax_public_charge",
    "depreciation",
)

DEFAULT_YEAR_RANGE = (1980, 2030)


@dataclass(frozen=True)
class FirmRecord:
    """One firm-year of financials.

    Monetary amounts are in thousands of the dataset's declared currency
    unit. ``workers`` counts full-time employees only. Optional components
    are ``None`` when the source did not report them; downstream operations
    refuse incomplete records instead of treating absence as zero.
    """

    firm_id: str
    year: int
    country: str
    sector: str
    sector_class: str
    revenue: float
    cogs: float
    workers: int
    total_labor_cost: float | None = None
    capital: float | None = None
    ordinary_income: float | None = None
    financial_expense: float | None = None
    tax_public_charge: float | None = None
    depreciation: float | None = None

    def __post_init__(self) -> None:
        if self.sector_class not in SECTOR_CLASSES:
            raise ValidationError(
                f"sector_class must be one of {SECTOR_CLASSES}, got {self.sector_class!r}"
            )
        if isinstance(self.workers, bool) or not isinstance(self.workers, int):
            raise ValidationError(f"workers must be an integer, got {self.workers!r}")
        if self.workers < 0:
            raise ValidationError(f"workers must be >= 0, got {self.workers}")
        for name in _NONNEGATIVE_MONEY:
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValidationError(f"{name} must be >= 0, got {value}")

    @property
    def key(self) -> tuple[str, int]:
        return (self.firm_id, self.year)


@dataclass(frozen=True)
class Dataset:
    """An immutable collection of firm records sharing one currency unit.

    (firm_id, year) keys are unique; duplicate keys must be resolved by
    :func:`merge_datasets` before a Dataset can be built.
    """

    records: tuple[FirmRecord, ...]
    currency_unit: str = "unspecified"
    provenance: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))
        object.__setattr__(self, "provenance", tuple(self.provenance))
        if len(set(map(attrgetter("firm_id", "year"), self.records))) == len(self.records):
            return
        seen: set[tuple[str, int]] = set()
        dups: list[tuple[str, int]] = []
        for record in self.records:
            if record.key in seen:
                dups.append(record.key)
            seen.add(record.key)
        if dups:
            shown = ", ".join(f"({fid}, {yr})" for fid, yr in dups[:5])
            raise ValidationError(f"duplicate (firm_id, year) keys: {shown}")

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[FirmRecord]:
        return iter(self.records)

    def years(self) -> tuple[int, ...]:
        return tuple(sorted({r.year for r in self.records}))

    def countries(self) -> tuple[str, ...]:
        return tuple(sorted({r.country for r in self.records}))


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
        if not (isinstance(self.delimiter, str) and len(self.delimiter) == 1):
            raise SchemaError(f"delimiter must be one character, got {self.delimiter!r}")
        if not (isinstance(self.year_range, (tuple, list)) and len(self.year_range) == 2
                and all(type(y) is int for y in self.year_range)):
            raise SchemaError(f"year_range must be two integers, got {self.year_range!r}")
        object.__setattr__(self, "year_range", tuple(self.year_range))
        lo, hi = self.year_range
        if lo > hi:
            raise SchemaError(f"year_range lower bound {lo} exceeds upper bound {hi}")

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
    """Yields non-blank, non-comment lines while tracking source line numbers.

    A UTF-8 byte-order mark in front of the first line is dropped. Assumes
    one CSV row per physical line (no quoted newlines), which holds for
    every file this package writes.
    """

    def __init__(self, lines: Iterable[str]):
        self.lineno = 0
        self._lines = self._filter(lines)

    def __iter__(self) -> Iterator[str]:
        return self._lines

    def _filter(self, lines: Iterable[str]) -> Iterator[str]:
        for self.lineno, line in enumerate(lines, 1):
            if self.lineno == 1:
                line = line.removeprefix("\ufeff")
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
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
) -> FirmRecord:
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

    return FirmRecord(**values)  # type: ignore[arg-type]


def _row_converter(header_index: Mapping[str, int],
                   schema: CsvSchema) -> Callable[[list[str]], FirmRecord]:
    """Compile the row conversion for one file layout.

    The converter returns the record :func:`_record_from_row` would build,
    or raises ``ValueError``, ``IndexError`` or :class:`ValidationError`;
    a row that raises goes through :func:`_record_from_row`, which owns the
    skip reasons. Signs are left to :class:`FirmRecord`.
    """
    lo, hi = schema.year_range
    # A missing optional column reads the empty cell the converter appends.
    take = itemgetter(*(header_index.get(field, -1) for field in CANONICAL_COLUMNS))

    def convert(row: list[str]) -> FirmRecord:
        row.append("")  # also the first missing cell of a short row, read as empty
        cells = take(row)
        # int() and float() accept the whitespace strip() removes, or reject the row
        firm_id, country, sector = cells[0].strip(), cells[2].strip(), cells[3].strip()
        year = int(cells[1])
        revenue = float(cells[5])
        cogs = float(cells[6])
        optional = cells[8:]
        optional = (list(map(float, optional)) if all(optional)
                    else [float(text) if text.strip() else None for text in optional])
        if not (firm_id and country and sector and lo <= year <= hi
                and isfinite(revenue + cogs + sum(filter(None, optional)))):
            raise ValueError
        return FirmRecord(firm_id, year, country, sector, cells[4].strip(), revenue, cogs,
                          int(cells[7]), *optional)

    return convert


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
    error.
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

    records: list[FirmRecord] = []
    skipped: list[RowIssue] = []
    seen: set[tuple[str, int]] = set()

    def bad_row(line: int, reason: str) -> None:
        if strict:
            raise RowError(line, reason)
        skipped.append(RowIssue(line, reason))

    def split_rows() -> Iterator[list[str]]:
        """The rows csv can split; any other line is a bad row."""
        while True:
            try:
                yield from reader
                return
            except csv.Error as exc:  # such as a cell over csv.field_size_limit()
                bad_row(line_filter.lineno, str(exc))
            except UnicodeDecodeError as exc:
                raise DataError(f"input is not UTF-8 text: {exc}") from None

    rows = split_rows()
    header = next(rows, None)
    if header is None:
        raise SchemaError("input has no header row")

    names = [name.strip() for name in header]
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

    convert = _row_converter(header_index, schema)
    for row in rows:
        try:
            record = convert(row)
        except (ValueError, IndexError, ValidationError):
            try:
                record = _record_from_row(row, header_index, schema)
            except (ValueError, ValidationError) as exc:
                bad_row(line_filter.lineno, str(exc))
                continue
        key = (record.firm_id, record.year)
        if key in seen:
            bad_row(line_filter.lineno, f"duplicate (firm_id, year) key ({key[0]}, {key[1]})")
            continue
        seen.add(key)
        records.append(record)

    dataset = Dataset(
        records=tuple(records),
        currency_unit=schema.currency_unit,
        provenance=(provenance,) if provenance else (),
    )
    return ParseReport(dataset=dataset, skipped=tuple(skipped))


def _format_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)  # shortest exact round-trip
    return str(value)


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

    def writerow(cells: list[str]) -> None:
        (quoted if cells[0].lstrip().startswith("#") else plain).writerow(cells)

    writerow([schema.columns[field] for field in CANONICAL_COLUMNS])
    field_names = [f.name for f in dataclass_fields(FirmRecord)]
    assert tuple(field_names) == CANONICAL_COLUMNS
    for record in dataset.records:
        writerow([_format_cell(getattr(record, field)) for field in CANONICAL_COLUMNS])


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
    b_by_key = {record.key: record for record in b.records}
    duplicates = [record.key for record in a.records if record.key in b_by_key]
    if duplicates and policy is MergePolicy.REJECT_CONFLICT:
        raise MergeConflictError(duplicates)

    merged: list[FirmRecord] = []
    for record in a.records:
        if policy is MergePolicy.PREFER_B and record.key in b_by_key:
            merged.append(b_by_key[record.key])
        else:
            merged.append(record)
    a_keys = {record.key for record in a.records}
    merged.extend(record for record in b.records if record.key not in a_keys)

    return Dataset(
        records=tuple(merged),
        currency_unit=a.currency_unit,
        provenance=a.provenance + b.provenance,
    )


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
    is valid.
    """
    for field in require_positive:
        if field not in CANONICAL_COLUMNS:
            raise ValueError(f"unknown field in require_positive: {field!r}")

    def keep(record: FirmRecord) -> bool:
        if year is not None and record.year != year:
            return False
        if country is not None and record.country != country:
            return False
        if sector_class is not None and record.sector_class != sector_class:
            return False
        if min_workers is not None and record.workers < min_workers:
            return False
        for field in require_positive:
            value = getattr(record, field)
            if value is None or value <= 0:
                return False
        return True

    return Dataset(
        records=tuple(r for r in d.records if keep(r)),
        currency_unit=d.currency_unit,
        provenance=d.provenance,
    )
