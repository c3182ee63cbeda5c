"""Firm-year records and their column storage.

:class:`FirmRecord` is one firm-year. :class:`Columns` stores many of them
column by column and is the only storage of a :class:`Dataset`, which
holds a row selection of one container; ``Dataset.records`` is a view of
:class:`FirmRecord` objects, built only when it is read.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import FrozenInstanceError, dataclass
from operator import attrgetter

import numpy as np

from .errors import ValidationError

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

#: Text fields stored as codes into one name table shared by the three.
KEY_FIELDS = ("country", "sector", "sector_class")

MONEY_FIELDS = ("revenue", "cogs") + OPTIONAL_FIELDS

_INT64_MAX = 2**63 - 1


def _check_fields(values: Mapping[str, object]) -> None:
    """The record invariants: sector class, worker count, non-negative money."""
    if values["sector_class"] not in SECTOR_CLASSES:
        raise ValidationError(
            f"sector_class must be one of {SECTOR_CLASSES}, got {values['sector_class']!r}"
        )
    workers = values["workers"]
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ValidationError(f"workers must be an integer, got {workers!r}")
    if workers < 0:
        raise ValidationError(f"workers must be >= 0, got {workers}")
    if workers > _INT64_MAX:
        raise ValidationError(f"workers must be <= {_INT64_MAX}, got {workers}")
    for name in _NONNEGATIVE_MONEY:
        value = values[name]
        if value is not None and value < 0:
            raise ValidationError(f"{name} must be >= 0, got {value}")


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
        _check_fields(self.__dict__)

    @property
    def key(self) -> tuple[str, int]:
        return (self.firm_id, self.year)


def _int64_array(values: Sequence[int], name: str) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise ValidationError(f"{name} values must fit in 64 bits") from None


def _encode(texts: Sequence[str], table: dict[str, int]) -> np.ndarray:
    """Codes of ``texts`` in ``table``, adding new names in order of first appearance."""
    for text in dict.fromkeys(texts):
        if text not in table:
            table[text] = len(table)
    return np.fromiter(map(table.__getitem__, texts), dtype=np.int32, count=len(texts))


class Columns:
    """Column storage of firm records: the one representation of a dataset.

    ``year`` and ``workers`` are int64 arrays; ``money`` (float64) has a row
    per :data:`MONEY_FIELDS` entry and ``present`` (bool) a row per
    :data:`OPTIONAL_FIELDS` entry, false where a cell is absent (it holds 0.0
    and is never read as a value). ``codes`` (int32) has a row per
    :data:`KEY_FIELDS` entry, of codes into the one name table ``names``;
    ``firm_id`` is an object array of ``str``. The parse cache stores these
    arrays as they are, and they are never written after construction.

    Record views are built once, for every row, when first asked for.
    """

    __slots__ = ("firm_id", "year", "workers", "money", "present", "codes", "names", "_views")

    def __init__(self, firm_id: np.ndarray, year: np.ndarray, workers: np.ndarray,
                 money: np.ndarray, present: np.ndarray, codes: np.ndarray,
                 names: Sequence[str]):
        self.firm_id = firm_id
        self.year = year
        self.workers = workers
        self.money = money
        self.present = present
        self.codes = codes
        self.names = np.array(list(names), dtype=object)
        self._views: tuple[FirmRecord, ...] | None = None

    def __len__(self) -> int:
        return len(self.year)

    def __repr__(self) -> str:
        return f"Columns(<{len(self)} rows>)"

    @classmethod
    def from_arrays(cls, firm_id: Sequence[str], year: np.ndarray, workers: np.ndarray,
                    money: np.ndarray, present: np.ndarray,
                    texts: Mapping[str, Sequence[str]]) -> Columns:
        """Columns of checked values; ``texts`` holds the key fields as strings."""
        ids = np.empty(len(firm_id), dtype=object)
        ids[:] = firm_id
        table: dict[str, int] = {}
        cells = [text for name in KEY_FIELDS for text in texts[name]]
        codes = _encode(cells, table).reshape(len(KEY_FIELDS), len(ids))
        return cls(ids, year, workers, money, present, codes, table)

    @classmethod
    def from_records(cls, records: Sequence[FirmRecord]) -> Columns:
        """Columns holding ``records``, which become the cached record views."""
        records = tuple(records)

        def field(name: str) -> list:
            return list(map(attrgetter(name), records))

        cells = {name: field(name) for name in MONEY_FIELDS}
        money = np.array([[0.0 if v is None else v for v in cells[name]] for name in MONEY_FIELDS],
                         dtype=float)
        present = np.array([[v is not None for v in cells[name]] for name in OPTIONAL_FIELDS],
                           dtype=bool)
        columns = cls.from_arrays(field("firm_id"), _int64_array(field("year"), "year"),
                                  _int64_array(field("workers"), "workers"), money, present,
                                  {name: field(name) for name in KEY_FIELDS})
        columns._views = records
        return columns

    def column_codes(self, name: str, rows: np.ndarray | None = None) -> np.ndarray:
        return _take(self.codes[KEY_FIELDS.index(name)], rows)

    def column(self, name: str, rows: np.ndarray | None = None) -> np.ndarray:
        """One field's values at ``rows`` (all rows by default), in row order.

        Key fields come back as ``str`` objects. An optional money field
        reads 0.0 where absent; :meth:`present_mask` tells those cells apart.
        """
        if name in KEY_FIELDS:
            return self.names[self.column_codes(name, rows)]
        if name in MONEY_FIELDS:
            return _take(self.money[MONEY_FIELDS.index(name)], rows)
        if name in ("firm_id", "year", "workers"):
            return _take(getattr(self, name), rows)
        raise ValueError(f"unknown record field {name!r}")

    def present_mask(self, name: str, rows: np.ndarray | None = None) -> np.ndarray:
        """Which cells of a field hold a value (always all, for a mandatory field)."""
        if name in OPTIONAL_FIELDS:
            return _take(self.present[OPTIONAL_FIELDS.index(name)], rows)
        return np.ones(len(self) if rows is None else len(rows), dtype=bool)

    def keys(self) -> list[tuple[str, int]]:
        """The (firm_id, year) key of each row."""
        return list(zip(self.firm_id.tolist(), self.year.tolist()))

    def records(self, rows: np.ndarray | None = None) -> tuple[FirmRecord, ...]:
        """Record views of ``rows`` (all rows by default); the same objects on every call."""
        if self._views is None:
            self._views = self._build_views()
        if rows is None:
            return self._views
        views = self._views
        return tuple([views[i] for i in rows.tolist()])

    def _build_views(self, rows: np.ndarray | None = None) -> tuple[FirmRecord, ...]:
        """New record views of ``rows`` (all rows by default)."""
        cells = []
        for name in CANONICAL_COLUMNS:
            values = self.column(name, rows).tolist()
            if name in OPTIONAL_FIELDS:
                values = [v if p else None
                          for v, p in zip(values, self.present_mask(name, rows).tolist())]
            cells.append(values)
        # The columns hold checked values, so the views skip FirmRecord's checks.
        new, names = object.__new__, CANONICAL_COLUMNS
        views = []
        for row in zip(*cells):
            view = new(FirmRecord)
            view.__dict__.update(zip(names, row))
            views.append(view)
        return tuple(views)

    def groups(self, names: Sequence[str], rows: np.ndarray) -> list[tuple[tuple, np.ndarray]]:
        """(key, positions into ``rows``) per distinct key of the named fields.

        Keys are tuples of Python values, one per name, in order of their
        first row; positions are ascending, so each group keeps row order.
        """
        if len(rows) == 0:
            return []
        group = np.zeros(len(rows), dtype=np.int64)
        for name in names:
            raw = self.column_codes(name, rows) if name in KEY_FIELDS else self.column(name, rows)
            distinct, index = np.unique(raw, return_inverse=True)
            group = np.unique(group * len(distinct) + index, return_inverse=True)[1]
        _, first, group = np.unique(group, return_index=True, return_inverse=True)
        members = np.argsort(group, kind="stable")
        sizes = np.bincount(group)
        ends = np.cumsum(sizes).tolist()
        starts = (np.cumsum(sizes) - sizes).tolist()
        order = np.argsort(first)
        keys = zip(*(self.column(name, rows[first[order]]).tolist() for name in names))
        return [(key, members[starts[g]:ends[g]]) for key, g in zip(keys, order.tolist())]


def _take(values: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
    """``values`` at ``rows`` along the last axis (each row's, for a 2-D array)."""
    if rows is None:
        return values
    return values[rows] if values.ndim == 1 else values[:, rows]


def _duplicates(keys: Sequence[tuple[str, int]]) -> list[tuple[str, int]]:
    """Each key that repeats an earlier one, in order."""
    seen: set[tuple[str, int]] = set()
    dups = []
    for key in keys:
        if key in seen:
            dups.append(key)
        seen.add(key)
    return dups


class Dataset:
    """An immutable collection of firm records sharing one currency unit.

    (firm_id, year) keys are unique: a repeated key is refused. The records
    live in a :class:`Columns` container, of which a dataset holds a row
    selection (filters select rows and copy nothing); ``records`` is a view,
    built on first use, and a filtered dataset shares its parent's record
    objects.
    """

    __slots__ = ("_columns", "_rows", "currency_unit", "provenance")

    def __init__(self, records: Iterable[FirmRecord] = (),
                 currency_unit: str = "unspecified", provenance: Iterable[str] = ()):
        columns = Columns.from_records(tuple(records))
        duplicates = _duplicates(columns.keys())
        if duplicates:
            shown = ", ".join(f"({fid}, {yr})" for fid, yr in duplicates[:5])
            raise ValidationError(f"duplicate (firm_id, year) keys: {shown}")
        self._init(columns, None, currency_unit, provenance)

    def _init(self, columns: Columns, rows: np.ndarray | None, currency_unit: str,
              provenance: Iterable[str]) -> None:
        for name, value in (("_columns", columns), ("_rows", rows),
                            ("currency_unit", currency_unit),
                            ("provenance", tuple(provenance))):
            object.__setattr__(self, name, value)

    @classmethod
    def _of(cls, columns: Columns, rows: np.ndarray | None = None,
            currency_unit: str = "unspecified", provenance: Iterable[str] = ()) -> Dataset:
        """A dataset of checked columns with unique keys; nothing is re-checked."""
        dataset = cls.__new__(cls)
        dataset._init(columns, rows, currency_unit, provenance)
        return dataset

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    @property
    def columns(self) -> Columns:
        """The column container; :attr:`rows` selects this dataset's rows of it."""
        return self._columns

    @property
    def rows(self) -> np.ndarray:
        """Indices of this dataset's rows in :attr:`columns`, in record order."""
        return np.arange(len(self._columns)) if self._rows is None else self._rows

    @property
    def records(self) -> tuple[FirmRecord, ...]:
        return self._columns.records(self._rows)

    def column(self, name: str) -> np.ndarray:
        """One field's values in record order (see :meth:`Columns.column`)."""
        return self._columns.column(name, self._rows)

    def __len__(self) -> int:
        return len(self._columns) if self._rows is None else len(self._rows)

    def __iter__(self) -> Iterator[FirmRecord]:
        return iter(self.records)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return ((self.records, self.currency_unit, self.provenance)
                == (other.records, other.currency_unit, other.provenance))

    def __hash__(self) -> int:
        return hash((self.records, self.currency_unit, self.provenance))

    def __repr__(self) -> str:
        return (f"Dataset(<{len(self)} records>, currency_unit={self.currency_unit!r}, "
                f"provenance={self.provenance!r})")

    # A plain np.unique would import numpy.ma.
    def years(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.column("year").tolist())))

    def countries(self) -> tuple[str, ...]:
        codes = set(self._columns.column_codes("country", self._rows).tolist())
        return tuple(sorted(self._columns.names[list(codes)].tolist()))
