"""Productivity and added-value measures, sector aggregates, and size sweeps.

Added value is computed either from gross margin and a macroeconomic labor
share (gross_margin / (1 - labor_share)) or as the five-component accounting
sum (ordinary income + labor cost + financial expense + taxes and public
charges + depreciation). Per-worker productivity divides the chosen value
by the full-time worker count.

:func:`evaluate` computes each record's value under a basis once, into an
:class:`Evaluation`. Every aggregate (per sector, per size threshold, per
year and sector class) comes from its one reducer, :meth:`Evaluation.pool`,
whose sums run left to right in record order, so results are bit-stable.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from contextlib import suppress
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from numbers import Integral
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DegenerateShareError,
    IncompleteRecordError,
    InsufficientDataError,
    MacroContextError,
    ValidationError,
    ZeroWorkersError,
    is_finite,
    is_real,
)
from .ingest import filter_dataset, read_json_config
from .records import Columns, Dataset, FirmRecord


class ValueBasis(Enum):
    """Which value measure feeds the productivity numerator."""

    GROSS_MARGIN = "gross_margin"
    ADDED_VALUE_LABOR_SHARE = "added_value_labor_share"
    ADDED_VALUE_COMPONENTS = "added_value_components"


#: Components of the accounting-sum added value, in summation order.
COMPONENT_FIELDS = (
    "ordinary_income",
    "total_labor_cost",
    "financial_expense",
    "tax_public_charge",
    "depreciation",
)


@dataclass(frozen=True)
class MacroEntry:
    """Macro quantities for one (country, year): labor share, GDP, FX rate."""

    labor_share: float
    gdp: float | None = None
    exchange_rate: float | None = None

    def __post_init__(self) -> None:
        for name in ("labor_share", "gdp", "exchange_rate"):
            value = getattr(self, name)
            if value is not None and not is_finite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        if self.labor_share < 0:
            raise ValidationError(f"labor_share must be >= 0, got {self.labor_share}")
        if self.labor_share >= 1:
            raise DegenerateShareError(
                f"labor_share must be < 1, got {self.labor_share}"
            )
        if self.gdp is not None and self.gdp <= 0:
            raise ValidationError(f"gdp must be > 0 where present, got {self.gdp}")
        if self.exchange_rate is not None and self.exchange_rate <= 0:
            raise ValidationError(f"exchange_rate must be > 0, got {self.exchange_rate}")


def _number(row: Mapping[str, object], name: str) -> float:
    value = row[name]
    if not is_real(value):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


class MacroContext:
    """Lookup table of :class:`MacroEntry` keyed by (country, year)."""

    def __init__(self, entries: Mapping[tuple[str, int], MacroEntry]):
        self._entries = dict(entries)

    @classmethod
    def from_rows(cls, rows: Iterable[Mapping[str, object]]) -> MacroContext:
        """Entries from rows that hold ``country`` (a string), ``year`` (an
        integer) and ``labor_share``, ``gdp`` and ``exchange_rate`` (numbers;
        the last two may be absent or ``None``). A bool is none of these.
        Two entries for one (country, year) are refused."""
        entries: dict[tuple[str, int], MacroEntry] = {}
        for row in rows:
            try:
                country, year = row["country"], row["year"]
                if not isinstance(country, str):
                    raise TypeError(f"country must be a string, got {country!r}")
                if isinstance(year, bool) or not isinstance(year, Integral):
                    raise TypeError(f"year must be an integer, got {year!r}")
                entry = MacroEntry(_number(row, "labor_share"), *(
                    None if row.get(name) is None else _number(row, name)
                    for name in ("gdp", "exchange_rate")))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"bad macro entry {row!r}: {exc}") from exc
            key = (country, int(year))
            if key in entries:
                raise ConfigError(f"duplicate macro entry for ({country}, {key[1]})")
            entries[key] = entry
        return cls(entries)

    @classmethod
    def from_json(cls, path: str | Path) -> MacroContext:
        raw = read_json_config(path, "macro file", as_list=True)
        try:
            return cls.from_rows(raw)
        except ConfigError as exc:  # a bad entry
            raise ConfigError(f"{path}: {exc}") from exc

    def entry(self, country: str, year: int) -> MacroEntry:
        try:
            return self._entries[(country, year)]
        except KeyError:
            raise MacroContextError(f"no macro entry for ({country}, {year})") from None

    def labor_share(self, country: str, year: int) -> float:
        return self.entry(country, year).labor_share

    def gdp(self, country: str, year: int) -> float:
        gdp = self.entry(country, year).gdp
        if gdp is None:
            raise MacroContextError(f"no GDP recorded for ({country}, {year})")
        return gdp


@dataclass(frozen=True)
class ProductivityMeasure:
    """Per-worker value for one record under a declared basis."""

    basis: ValueBasis
    value: float
    workers: int

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ValidationError(f"workers must be > 0, got {self.workers}")


@dataclass(frozen=True)
class SectorAggregate:
    """Pooled totals and productivity for one group of records, such as a sector."""

    total_value: float
    total_workers: int
    productivity: float
    n_firms: int


def gross_margin(r: FirmRecord) -> float:
    """Revenue minus cost of goods sold; negative margins pass through."""
    return r.revenue - r.cogs


def added_value(r: FirmRecord, basis: ValueBasis, ctx: MacroContext | None = None) -> float:
    """Added value under the chosen definition.

    The labor-share form needs a macro context entry for the record's
    (country, year); the components form needs every accounting component
    present on the record.
    """
    if basis is ValueBasis.ADDED_VALUE_LABOR_SHARE:
        if ctx is None:
            raise MacroContextError("labor-share added value requires a MacroContext")
        return gross_margin(r) / (1.0 - ctx.labor_share(r.country, r.year))
    if basis is ValueBasis.ADDED_VALUE_COMPONENTS:
        missing = [name for name in COMPONENT_FIELDS if getattr(r, name) is None]
        if missing:
            raise IncompleteRecordError(
                f"record ({r.firm_id}, {r.year}) lacks components: {', '.join(missing)}"
            )
        total = 0.0
        for name in COMPONENT_FIELDS:
            total += getattr(r, name)
        return total
    raise ValueError(f"not an added-value basis: {basis}")


def labor_productivity(
    r: FirmRecord,
    basis: ValueBasis = ValueBasis.GROSS_MARGIN,
    ctx: MacroContext | None = None,
) -> ProductivityMeasure:
    """Value per worker: :func:`gross_margin`, or :func:`added_value` under an
    added-value basis, over ``r.workers``. Records with zero workers are
    refused, never inf."""
    if r.workers == 0:
        raise ZeroWorkersError(
            f"record ({r.firm_id}, {r.year}) has zero workers; "
            "filter with require_positive=('workers',) first"
        )
    value = gross_margin(r) if basis is ValueBasis.GROSS_MARGIN else added_value(r, basis, ctx)
    return ProductivityMeasure(basis=basis, value=value / r.workers, workers=r.workers)


def _check_mode(mode: str) -> None:
    if mode not in ("pooled", "mean"):
        raise ValueError(f"mode must be 'pooled' or 'mean', got {mode!r}")


def _check_thresholds(thresholds: Sequence[int]) -> None:
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError(f"thresholds must be strictly ascending, got {list(thresholds)}")


#: A grouping key: one field name, or a tuple of them.
GroupKey = str | tuple[str, ...]


@dataclass(frozen=True, eq=False)
class Evaluation:
    """The records a value basis could evaluate, in input order.

    ``rows`` indexes the evaluated records in ``columns``; ``values`` and
    ``workers`` hold their raw values and worker counts, and ``excluded``
    counts the records left out. ``records`` builds the record views on
    first use. Evaluations hold arrays, so they compare by identity.
    """

    columns: Columns
    rows: np.ndarray
    values: np.ndarray
    workers: np.ndarray
    excluded: int = 0

    @cached_property
    def productivity(self) -> np.ndarray:
        return self.values / self.workers

    @cached_property
    def records(self) -> tuple[FirmRecord, ...]:
        return self.columns.records(self.rows)

    def column(self, name: str) -> np.ndarray:
        """One field of the evaluated records (see :meth:`Columns.column`)."""
        return self.columns.column(name, self.rows)

    def _part(self, index: np.ndarray) -> Evaluation:
        return Evaluation(self.columns, self.rows[index], self.values[index], self.workers[index])

    def pool(self, mode: str = "pooled", where: np.ndarray | None = None) -> SectorAggregate:
        """Aggregate a non-empty selection (a mask or index; all records by default).

        ``pooled`` treats the selection as one firm: sum of values over sum
        of workers. ``mean`` averages the per-firm ratios instead. Float sums
        are cumulative, so they add left to right in record order.
        """
        _check_mode(mode)
        pick = slice(None) if where is None else where
        values = self.values[pick]
        if len(values) == 0:
            raise InsufficientDataError("pooling needs at least one record")
        with np.errstate(all="ignore"):  # an overflowed sum is inf, as in evaluate
            total_value = float(np.cumsum(values)[-1])
            total_workers = int(self.workers[pick].sum())  # integers: exact in any order
            if mode == "pooled":
                productivity = total_value / total_workers
            else:
                productivity = float(np.cumsum(self.productivity[pick])[-1]) / len(values)
        return SectorAggregate(total_value, total_workers, productivity, len(values))

    def split(self, key: GroupKey) -> dict:
        """Parts by the value of one field (``"year"``) or a tuple of fields
        (``("country", "year")``), in order of their first record; a part
        keeps its records in input order."""
        names = (key,) if isinstance(key, str) else tuple(key)
        return {(k[0] if isinstance(key, str) else k): self._part(index)
                for k, index in self.columns.groups(names, self.rows)}

    def pool_by(self, key: GroupKey, mode: str = "pooled") -> dict:
        """One aggregate per value of ``key`` (as in :meth:`split`), in order of their first record."""
        return {k: part.pool(mode) for k, part in self.split(key).items()}

    def sweep(self, thresholds: Sequence[int], mode: str = "pooled") -> dict[int, float | None]:
        """Productivity of the records with workers >= each threshold (``None`` if none)."""
        _check_thresholds(thresholds)
        out: dict[int, float | None] = {}
        for threshold in thresholds:
            admitted = self.workers >= threshold
            out[threshold] = self.pool(mode, admitted).productivity if admitted.any() else None
        return out


def _selection(records: Iterable[FirmRecord] | Dataset | Evaluation) -> tuple[Columns, np.ndarray]:
    if isinstance(records, (Dataset, Evaluation)):
        return records.columns, records.rows
    columns = Columns.from_records(tuple(records))
    return columns, np.arange(len(columns))


def evaluate(
    records: Iterable[FirmRecord] | Dataset | Evaluation,
    basis: ValueBasis = ValueBasis.GROSS_MARGIN,
    ctx: MacroContext | None = None,
    *,
    strict: bool = False,
) -> Evaluation:
    """Evaluate each record under ``basis`` once.

    ``records`` is a :class:`Dataset`, an :class:`Evaluation` (its records)
    or any iterable of :class:`FirmRecord`. A record with zero workers, or
    one the basis cannot evaluate, is left out and counted; with ``strict``
    the first such record raises instead. Values are computed column-wise
    with the same IEEE operations, in the same order, as
    :func:`gross_margin` and :func:`added_value` on one record.
    """
    columns, rows = _selection(records)
    workers = columns.column("workers", rows)
    revenue = columns.column("revenue", rows)
    fails = workers == 0
    with np.errstate(all="ignore"):  # inf and nan pass through as Python floats do
        if basis is ValueBasis.GROSS_MARGIN:
            values = revenue - columns.column("cogs", rows)
        elif basis is ValueBasis.ADDED_VALUE_LABOR_SHARE:
            denominators = np.full(len(rows), np.nan)
            if ctx is not None:
                for (country, year), index in columns.groups(("country", "year"), rows):
                    with suppress(MacroContextError):
                        denominators[index] = 1.0 - ctx.labor_share(country, year)
            fails |= np.isnan(denominators)
            values = (revenue - columns.column("cogs", rows)) / denominators
        elif basis is ValueBasis.ADDED_VALUE_COMPONENTS:
            values = np.zeros(len(rows))
            for name in COMPONENT_FIELDS:
                values = values + columns.column(name, rows)
                fails |= ~columns.present_mask(name, rows)
        else:
            raise ValueError(f"not a value basis: {basis}")
    if fails.any():
        if strict:  # the first record left out raises its own error
            labor_productivity(columns._build_views(rows[fails][:1])[0], basis, ctx)
            raise AssertionError("labor_productivity accepted a record evaluate left out")
        keep = ~fails
        return Evaluation(columns, rows[keep], values[keep], workers[keep], int(fails.sum()))
    return Evaluation(columns, rows, values, workers)


def aggregate_by_sector(
    d: Dataset,
    basis: ValueBasis = ValueBasis.GROSS_MARGIN,
    ctx: MacroContext | None = None,
    mode: str = "pooled",
) -> dict[str, SectorAggregate]:
    """Group records by sector and compute sector-level productivity.

    ``pooled`` (default) treats the sector as one firm: sum of values over
    sum of workers. ``mean`` averages per-firm ratios instead. Sectors with
    no records simply do not appear. A record with zero workers, or one the
    basis cannot evaluate, raises.
    """
    _check_mode(mode)
    return evaluate(d, basis, ctx, strict=True).pool_by("sector", mode)


def gdp_coverage(
    d: Dataset,
    ctx: MacroContext,
    year: int,
    basis: ValueBasis = ValueBasis.ADDED_VALUE_LABOR_SHARE,
    country: str | None = None,
) -> float:
    """Aggregated added value of the covered firms divided by GDP.

    The added value is summed as :func:`evaluate` gives it, as for the
    ``measures --macro`` coverage table, except that a record it would
    leave out (zero workers, a missing component or labor share) raises.
    Not clamped: a value above 1 is reported as is. An empty selection
    yields 0 without requiring a GDP entry.
    """
    if basis is ValueBasis.GROSS_MARGIN:
        raise ValueError(f"not an added-value basis: {basis}")
    covered = filter_dataset(d, year=year, country=country)
    if not len(covered):
        return 0.0
    countries = covered.countries()
    if len(countries) > 1:
        raise ValueError(
            f"records for year {year} span countries {list(countries)}; pass country="
        )
    total = evaluate(covered, basis, ctx, strict=True).pool().total_value
    return total / ctx.gdp(countries[0], year)


def backout_nonmanufacturing_ratio(
    share_mfg: float,
    mfg_ratio: float,
    overall_ratio: float,
) -> float:
    """Solve the convex combination share*mfg + (1 - share)*x = overall for x.

    Recovers the non-manufacturing productivity ratio implied by an overall
    ratio, the manufacturing ratio, and manufacturing's output share.
    """
    if not 0.0 < share_mfg < 1.0:
        raise ValueError(
            f"share_mfg must lie strictly between 0 and 1, got {share_mfg}"
            + (" (division degenerates at 1)" if share_mfg == 1.0 else "")
        )
    return (overall_ratio - share_mfg * mfg_ratio) / (1.0 - share_mfg)


def size_sweep(
    d: Dataset,
    thresholds: Sequence[int],
    basis: ValueBasis = ValueBasis.GROSS_MARGIN,
    ctx: MacroContext | None = None,
    mode: str = "pooled",
) -> dict[int, float | None]:
    """Productivity of firms at or above each worker-count threshold.

    Thresholds must be strictly ascending; the cut is inclusive
    (workers >= t). A threshold excluding every firm maps to ``None``.
    Records with zero workers are skipped, and only the records the
    smallest threshold admits are evaluated.
    """
    _check_mode(mode)
    _check_thresholds(thresholds)
    if not thresholds:
        return {}
    admitted = filter_dataset(d, min_workers=max(thresholds[0], 1))
    return evaluate(admitted, basis, ctx, strict=True).sweep(thresholds, mode)
