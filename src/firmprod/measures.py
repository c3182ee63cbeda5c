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

from collections.abc import Callable, Hashable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from math import isfinite
from operator import attrgetter
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DegenerateShareError,
    IncompleteRecordError,
    MacroContextError,
    ValidationError,
    ZeroWorkersError,
)
from .ingest import Dataset, FirmRecord, read_json_config


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


@dataclass(frozen=True)
class Evaluation:
    """The records a value basis could evaluate, in input order, beside their
    raw values and worker counts; ``excluded`` counts the records left out."""

    records: tuple[FirmRecord, ...]
    values: np.ndarray
    workers: np.ndarray
    excluded: int = 0

    @cached_property
    def productivity(self) -> np.ndarray:
        return self.values / self.workers

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

    def split(self, key: Callable[[FirmRecord], Hashable]) -> dict:
        """Parts by ``key(record)``, in order of their first record."""
        groups: dict = {}
        for i, record in enumerate(self.records):
            groups.setdefault(key(record), []).append(i)
        return {k: Evaluation(tuple(self.records[i] for i in index), self.values[index],
                              self.workers[index]) for k, index in groups.items()}

    def pool_by(self, key: Callable[[FirmRecord], Hashable], mode: str = "pooled") -> dict:
        """One aggregate per ``key(record)``, in order of their first record."""
        return {k: part.pool(mode) for k, part in self.split(key).items()}

    def sweep(self, thresholds: Sequence[int], mode: str = "pooled") -> dict[int, float | None]:
        """Productivity of the records with workers >= each threshold (``None`` if none)."""
        _check_thresholds(thresholds)
        out: dict[int, float | None] = {}
        for threshold in thresholds:
            admitted = self.workers >= threshold
            out[threshold] = self.pool(mode, admitted).productivity if admitted.any() else None
        return out


def evaluate(
    records: Iterable[FirmRecord],
    basis: ValueBasis = ValueBasis.GROSS_MARGIN,
    ctx: MacroContext | None = None,
    *,
    strict: bool = False,
) -> Evaluation:
    """Evaluate each record (a :class:`Dataset` is iterable) under ``basis`` once.

    A record with zero workers, or one the basis cannot evaluate, is left
    out and counted; with ``strict`` the first such record raises instead.
    """
    kept: list[FirmRecord] = []
    values: list[float] = []
    excluded = 0
    for record in records:
        try:
            if record.workers == 0:
                raise ZeroWorkersError(
                    f"record ({record.firm_id}, {record.year}) has zero workers; "
                    "filter with require_positive=('workers',) first"
                )
            values.append(gross_margin(record) if basis is ValueBasis.GROSS_MARGIN
                          else added_value(record, basis, ctx))
        except DataError:
            if strict:
                raise
            excluded += 1
            continue
        kept.append(record)
    workers = np.array([r.workers for r in kept], dtype=np.int64)
    return Evaluation(tuple(kept), np.array(values, dtype=float), workers, excluded)


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
    return evaluate(d, basis, ctx, strict=True).pool_by(attrgetter("sector"), mode)


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
    records = [r for r in d.records if r.year == year]
    if country is not None:
        records = [r for r in records if r.country == country]
    if not records:
        return 0.0
    countries = {r.country for r in records}
    if len(countries) > 1:
        raise ValueError(
            f"records for year {year} span countries {sorted(countries)}; pass country="
        )
    (resolved,) = countries
    total = 0.0
    for record in records:
        total += added_value(record, basis, ctx)
    return total / ctx.gdp(resolved, year)


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
    admitted = (r for r in d.records if thresholds and r.workers >= max(thresholds[0], 1))
    return evaluate(admitted, basis, ctx, strict=True).sweep(thresholds, mode)
