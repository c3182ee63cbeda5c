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
from math import isfinite
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DegenerateShareError,
    IncompleteRecordError,
    MacroContextError,
    ValidationError,
    ZeroWorkersError,
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
            if value is not None and not isfinite(value):
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


class MacroContext:
    """Lookup table of :class:`MacroEntry` keyed by (country, year)."""

    def __init__(self, entries: Mapping[tuple[str, int], MacroEntry]):
        self._entries = dict(entries)

    @classmethod
    def from_rows(cls, rows: Iterable[Mapping[str, object]]) -> MacroContext:
        entries: dict[tuple[str, int], MacroEntry] = {}
        for row in rows:
            try:
                country = str(row["country"])
                year = int(row["year"])  # type: ignore[arg-type]
                entry = MacroEntry(
                    labor_share=float(row["labor_share"]),  # type: ignore[arg-type]
                    gdp=None if row.get("gdp") is None else float(row["gdp"]),  # type: ignore[arg-type]
                    exchange_rate=(
                        None
                        if row.get("exchange_rate") is None
                        else float(row["exchange_rate"])  # type: ignore[arg-type]
                    ),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad macro entry {row!r}: {exc}") from exc
            entries[(country, year)] = entry
        return cls(entries)

    @classmethod
    def from_json(cls, path: str | Path) -> MacroContext:
        raw = read_json_config(path, "macro file", allow_list=True)
        if isinstance(raw, dict) and "entries" in raw:
            raw = raw["entries"]
        if not isinstance(raw, list):
            raise ConfigError(f"{path}: macro file must be a JSON list of entries")
        return cls.from_rows(raw)

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

    def keys(self) -> tuple[tuple[str, int], ...]:
        return tuple(sorted(self._entries))


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
    """Value per worker, as :func:`evaluate` gives it. Records with zero
    workers are refused, never inf."""
    ev = evaluate((r,), basis, ctx, strict=True)
    return ProductivityMeasure(basis=basis, value=float(ev.productivity[0]), workers=r.workers)


def _check_mode(mode: str) -> None:
    if mode not in ("pooled", "mean"):
        raise ValueError(f"mode must be 'pooled' or 'mean', got {mode!r}")


def _check_thresholds(thresholds: Sequence[int]) -> None:
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError(f"thresholds must be strictly ascending, got {list(thresholds)}")


#: A grouping key: one field name, or a tuple of them.
GroupKey = str | tuple[str, ...]


@dataclass(frozen=True)
class Evaluation:
    """The records a value basis could evaluate, in input order.

    ``rows`` indexes the evaluated records in ``columns``; ``values`` and
    ``workers`` hold their raw values and worker counts, and ``excluded``
    counts the records left out. ``records`` builds the record views on
    first use.
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


def _raise_record_error(columns: Columns, row: int, basis: ValueBasis,
                        ctx: MacroContext | None) -> None:
    """Raise the error that leaves the record at ``row`` out under ``basis``."""
    (firm_id, year), = columns.keys(np.array([row]))
    if columns.workers[row] == 0:
        raise ZeroWorkersError(
            f"record ({firm_id}, {year}) has zero workers; "
            "filter with require_positive=('workers',) first"
        )
    if basis is ValueBasis.ADDED_VALUE_COMPONENTS:
        missing = [name for name in COMPONENT_FIELDS if not columns.present[name][row]]
        raise IncompleteRecordError(
            f"record ({firm_id}, {year}) lacks components: {', '.join(missing)}"
        )
    if ctx is None:
        raise MacroContextError("labor-share added value requires a MacroContext")
    ctx.entry(columns.names[columns.codes["country"][row]], year)  # raises: no entry


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
    workers = columns.workers[rows]
    revenue = columns.money["revenue"][rows]
    fails = workers == 0
    with np.errstate(all="ignore"):  # inf and nan pass through as Python floats do
        if basis is ValueBasis.GROSS_MARGIN:
            values = revenue - columns.money["cogs"][rows]
        elif basis is ValueBasis.ADDED_VALUE_LABOR_SHARE:
            denominators = np.full(len(rows), np.nan)
            if ctx is not None:
                for (country, year), index in columns.groups(("country", "year"), rows):
                    with suppress(MacroContextError):
                        denominators[index] = 1.0 - ctx.labor_share(country, year)
            fails |= np.isnan(denominators)
            values = (revenue - columns.money["cogs"][rows]) / denominators
        elif basis is ValueBasis.ADDED_VALUE_COMPONENTS:
            values = np.zeros(len(rows))
            for name in COMPONENT_FIELDS:
                values = values + columns.money[name][rows]
                fails |= ~columns.present[name][rows]
        else:
            raise ValueError(f"not a value basis: {basis}")
    if fails.any():
        if strict:
            _raise_record_error(columns, int(rows[np.argmax(fails)]), basis, ctx)
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

    Not clamped: a value above 1 is reported as is. An empty selection
    yields 0 without requiring a GDP entry.
    """
    covered = filter_dataset(d, year=year, country=country)
    if not len(covered):
        return 0.0
    countries = covered.countries()
    if len(countries) > 1:
        raise ValueError(
            f"records for year {year} span countries {list(countries)}; pass country="
        )
    total = 0.0
    for record in covered:  # zero-worker firms count: coverage is no per-worker measure
        total += added_value(record, basis, ctx)
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
