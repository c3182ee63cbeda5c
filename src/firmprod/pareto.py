"""Rank-size series and power-law tail estimation.

A rank-size series sorts positive values in descending order and assigns
ranks 1..n. On log-log axes a power-law tail is a straight line; the tail
exponent mu is estimated by least squares of log10(rank) on log10(value),
whose slope is -mu. A Hill maximum-likelihood estimate is available as a
cross-check but is not the reported number.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    EmptySeriesError,
    InsufficientDataError,
    NumericalError,
    ValidationError,
    ZeroVarianceError,
)
from .ingest import filter_dataset
from .records import Dataset
from .measures import Evaluation, MacroContext, ValueBasis, evaluate

#: Default tail selection for firm-level fits: top 10% of points, at least 10.
DEFAULT_FIRM_TAIL_FRACTION = 0.1
DEFAULT_FIRM_TAIL_MIN_POINTS = 10


@dataclass(frozen=True)
class RankSizeSeries:
    """Descending positive values with implicit ranks 1..n.

    ``excluded`` counts the non-positive inputs dropped before ranking.
    """

    values: np.ndarray
    excluded: int = 0

    def __post_init__(self) -> None:
        values = np.ascontiguousarray(self.values, dtype=float)
        if values.ndim != 1 or len(values) == 0:
            raise ValidationError("a rank-size series needs at least one value")
        if np.any(values[1:] > values[:-1]):
            raise ValidationError("rank-size values must be non-increasing")
        if not values[-1] > 0:  # non-increasing, so the last value is the smallest
            raise ValidationError("rank-size values must all be positive")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def ranks(self) -> np.ndarray:
        return np.arange(1, self.n + 1)


@dataclass(frozen=True)
class TailSpec:
    """Which part of a rank-size series to fit.

    Built via :meth:`whole`, :meth:`fraction`, or :meth:`ranks`; the string
    forms ``whole``, ``frac:0.1`` and ``ranks:2..500`` are accepted by
    :meth:`parse`.
    """

    kind: str  # "whole" | "fraction" | "ranks"
    frac: float | None = None
    min_rank: int | None = None
    max_rank: int | None = None

    @classmethod
    def whole(cls) -> TailSpec:
        return cls(kind="whole")

    @classmethod
    def fraction(cls, frac: float) -> TailSpec:
        if not 0 < frac <= 1:
            raise ValueError(f"tail fraction must lie in (0, 1], got {frac}")
        return cls(kind="fraction", frac=frac)

    @classmethod
    def ranks(cls, min_rank: int, max_rank: int) -> TailSpec:
        if min_rank < 1 or max_rank < min_rank:
            raise ValueError(f"bad rank range {min_rank}..{max_rank}")
        return cls(kind="ranks", min_rank=min_rank, max_rank=max_rank)

    @classmethod
    def parse(cls, text: str) -> TailSpec:
        text = text.strip()
        if text == "whole":
            return cls.whole()
        if text.startswith("frac:"):
            try:
                return cls.fraction(float(text[5:]))
            except ValueError as exc:
                raise ConfigError(f"bad tail spec {text!r}: {exc}") from exc
        match = re.fullmatch(r"ranks:(\d+)\.\.(\d+)", text)
        if match:
            try:
                return cls.ranks(int(match.group(1)), int(match.group(2)))
            except ValueError as exc:
                raise ConfigError(f"bad tail spec {text!r}: {exc}") from exc
        raise ConfigError(
            f"bad tail spec {text!r}: expected 'whole', 'frac:<f>' or 'ranks:<a>..<b>'"
        )

    def select(self, n: int) -> tuple[int, int]:
        """Resolve to an inclusive (min_rank, max_rank) for a series of n points."""
        if self.kind == "whole":
            return 1, n
        if self.kind == "fraction":
            count = max(math.ceil(self.frac * n), DEFAULT_FIRM_TAIL_MIN_POINTS)
            return 1, min(count, n)
        assert self.min_rank is not None and self.max_rank is not None
        if self.min_rank > n:
            raise InsufficientDataError(
                f"rank range starts at {self.min_rank} but the series has {n} points"
            )
        return self.min_rank, min(self.max_rank, n)


@dataclass(frozen=True)
class ParetoFit:
    """Estimated tail exponent with the fit range actually used.

    ``intercept`` is the constant of the fitted line
    log10(rank) = intercept - mu * log10(value).
    """

    mu: float
    se_mu: float
    r2: float
    intercept: float
    min_rank: int
    max_rank: int
    tail_fraction: float
    n: int

    def __post_init__(self) -> None:
        if self.mu <= 0:
            raise ValidationError(f"mu must be > 0, got {self.mu}")
        if self.min_rank < 1 or self.max_rank > self.n:
            raise ValidationError(
                f"fit range {self.min_rank}..{self.max_rank} outside 1..{self.n}"
            )
        if self.max_rank - self.min_rank + 1 < 3:
            raise ValidationError("fit range must contain at least 3 points")


def rank_size(values: Iterable[float]) -> RankSizeSeries:
    """Sort values descending and rank them 1..n.

    Non-positive values are dropped (the count is recorded). Tied values
    keep their input order, which the (rank, value) representation makes
    indistinguishable from any other tie order.
    """
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=float)
    if arr.ndim != 1:
        raise ValueError("expected a flat sequence of values")
    mask = arr > 0
    n_positive = int(mask.sum())
    excluded = len(arr) - n_positive
    if n_positive == 0:
        raise EmptySeriesError("no positive values to rank")
    positive = arr if excluded == 0 else arr[mask]
    return RankSizeSeries(values=np.sort(positive)[::-1], excluded=excluded)


def fit_pareto(series: RankSizeSeries, tail: TailSpec = TailSpec.whole()) -> ParetoFit:
    """Least-squares tail-exponent estimate on the selected rank range.

    Regresses log10(rank) on log10(value); the exponent is minus the slope.
    Needs at least 3 selected points with finite, non-identical values.
    """
    min_rank, max_rank = tail.select(series.n)
    selected = series.values[min_rank - 1 : max_rank]
    count = len(selected)
    if count < 3:
        raise InsufficientDataError(
            f"tail selection {min_rank}..{max_rank} has {count} points, need >= 3"
        )
    x = np.log10(selected)
    if not np.isfinite(x).all():  # values are positive, so only an infinity gets here
        raise NumericalError("a value overflowed to infinity, so its log10 is not finite")
    if selected[0] == selected[-1]:
        raise ZeroVarianceError("all values in the selected fit range are equal")

    y = np.log10(np.arange(min_rank, max_rank + 1, dtype=float))

    x_mean = x.mean()
    y_mean = y.mean()
    sxx = float(np.sum((x - x_mean) ** 2))
    sxy = float(np.sum((x - x_mean) * (y - y_mean)))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean

    residuals = y - (intercept + slope * x)
    rss = float(residuals @ residuals)
    tss = float(np.sum((y - y_mean) ** 2))
    r2 = 1.0 if tss == 0.0 else 1.0 - rss / tss
    r2 = min(max(r2, 0.0), 1.0)

    dof = count - 2
    se_slope = math.sqrt(rss / dof / sxx) if dof > 0 else 0.0

    return ParetoFit(
        mu=-slope,
        se_mu=se_slope,
        r2=r2,
        intercept=intercept,
        min_rank=min_rank,
        max_rank=max_rank,
        tail_fraction=count / series.n,
        n=series.n,
    )


def hill_estimate(series: RankSizeSeries, tail: TailSpec = TailSpec.whole()) -> float:
    """Maximum-likelihood (Hill) tail exponent over the selected top ranks.

    Cross-check only; the least-squares estimate of :func:`fit_pareto` is
    the reported number. A rank window must start at rank 1 (``ValueError``).
    """
    if tail.kind == "ranks" and tail.min_rank > 1:
        raise ValueError(f"a Hill estimate starts at rank 1, not {tail.min_rank}")
    _, max_rank = tail.select(series.n)
    k = max_rank if max_rank < series.n else series.n - 1
    if k < 2:
        raise InsufficientDataError("Hill estimate needs at least 2 tail points")
    top = series.values[:k]
    reference = series.values[k]
    logs = np.log(top / reference)
    total = float(np.sum(logs))
    if total <= 0:
        raise ZeroVarianceError("all selected values equal the reference value")
    return k / total


def _check_level(level: str) -> None:
    if level not in ("firm", "sector"):
        raise ValueError(f"level must be 'firm' or 'sector', got {level!r}")


def level_values(ev: Evaluation, level: str = "firm") -> np.ndarray | list[float]:
    """Per-firm productivity, or pooled productivity per sector, of an evaluation."""
    _check_level(level)
    if level == "firm":
        return ev.productivity
    return [agg.productivity for agg in ev.pool_by("sector").values()]


def productivity_values(
    d: Dataset,
    level: str = "firm",
    basis: ValueBasis = ValueBasis.GROSS_MARGIN,
    ctx: MacroContext | None = None,
) -> list[float]:
    """Per-firm or per-sector productivity values, in dataset order."""
    _check_level(level)
    records = filter_dataset(d, min_workers=1) if level == "firm" else d
    return list(level_values(evaluate(records, basis, ctx, strict=True), level))


def default_tail(level: str) -> TailSpec:
    """Estimator default: fit the tail for firms, the whole series for sectors."""
    _check_level(level)
    return TailSpec.fraction(DEFAULT_FIRM_TAIL_FRACTION) if level == "firm" else TailSpec.whole()


def fit_years(
    parts: Mapping[int, Any], values_of: Callable[[Any], Iterable[float]], tail: TailSpec
) -> tuple[dict[int, ParetoFit], dict[int, str]]:
    """One tail fit of ``values_of(part)`` per year and, separately, the
    years that could not be fitted with the reason."""
    fits: dict[int, ParetoFit] = {}
    failures: dict[int, str] = {}
    for year in sorted(parts):
        try:
            fits[year] = fit_pareto(rank_size(values_of(parts[year])), tail)
        except (DataError, NumericalError) as exc:
            failures[year] = str(exc)
    return fits, failures


def pareto_time_series(
    datasets: Mapping[int, Dataset],
    level: str = "firm",
    basis: ValueBasis = ValueBasis.GROSS_MARGIN,
    ctx: MacroContext | None = None,
    tail: TailSpec | None = None,
) -> dict[int, ParetoFit]:
    """One tail-exponent fit per year; years that cannot be fitted are absent."""
    return fit_years(
        datasets,
        lambda d: productivity_values(d, level, basis, ctx),
        tail or default_tail(level),
    )[0]
