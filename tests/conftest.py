from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

import firmprod
from firmprod import Dataset, FirmRecord, MacroContext
from firmprod.errors import CollinearityError, DataError, InsufficientDataError, NumericalError
from firmprod.measures import evaluate
from firmprod.production import (
    CONDITION_LIMIT,
    LogDesign,
    ProductionFit,
    _diagnose_collinearity,
)

#: The ``src`` directory this checkout's package is imported from.
SRC = Path(firmprod.__file__).parents[1]


def child_env(src: Path = SRC) -> dict[str, str]:
    """The environment of a child Python process: it imports firmprod from
    ``src`` and turns every warning into an error."""
    return {**os.environ, "PYTHONPATH": str(src), "PYTHONWARNINGS": "error"}


@pytest.fixture
def make_record():
    """Factory for valid firm records with sensible defaults."""

    def make(**overrides) -> FirmRecord:
        values = dict(
            firm_id="F000001",
            year=2003,
            country="JP",
            sector="steel",
            sector_class="manufacturing",
            revenue=100.0,
            cogs=40.0,
            workers=10,
            total_labor_cost=30.0,
            capital=50.0,
        )
        values.update(overrides)
        return FirmRecord(**values)

    return make


@pytest.fixture
def make_dataset():
    def make(*records: FirmRecord, currency_unit: str = "kJPY") -> Dataset:
        return Dataset(records=tuple(records), currency_unit=currency_unit)

    return make


@pytest.fixture
def macro_jp2003():
    return MacroContext.from_rows(
        [{"country": "JP", "year": 2003, "labor_share": 1.0 / 3.0, "gdp": 1000.0}]
    )


def reference_design(d, basis, ctx) -> LogDesign:
    """The log design of a dataset as built before strata were split from one
    evaluation: keep the records with positive capital, evaluate them, keep
    the positive values."""
    capitalized = (r for r in d.records if r.capital is not None and r.capital > 0)
    ev = evaluate(capitalized, basis, ctx)
    positive = ev.values > 0
    n = int(positive.sum())
    excluded = len(d) - n
    if n < 3:
        raise InsufficientDataError(
            f"need at least 3 usable records to fit, got {n} ({excluded} excluded)"
        )
    capital = np.array([r.capital for r in ev.records], dtype=float)[positive]
    return LogDesign(
        responses=np.log10(ev.values[positive]),
        regressors=np.log10(np.column_stack([capital, ev.workers[positive]])),
        excluded=excluded,
    )


def reference_fit_log_design(design: LogDesign) -> ProductionFit:
    """OLS on one log design with 2-D numpy calls, as ``fit_log_design`` was
    before every fit went through the stacked solver: the oracle of its fits
    and error texts."""
    if not (np.isfinite(design.responses).all() and np.isfinite(design.regressors).all()):
        raise NumericalError("a value overflowed to infinity, so its log10 is not finite")
    n = design.n
    x = np.column_stack([np.ones(n), design.regressors])
    y = design.responses

    # One SVD gives both the rank (with matrix_rank's tolerance) and the
    # 2-norm condition number.
    singular = np.linalg.svd(x, compute_uv=False)
    if np.count_nonzero(singular > singular[0] * max(x.shape) * np.finfo(float).eps) < 3:
        raise CollinearityError(_diagnose_collinearity(x))

    gram = x.T @ x
    if singular[0] / singular[-1] <= CONDITION_LIMIT:
        coef = np.linalg.solve(gram, x.T @ y)
    else:
        coef, *_ = np.linalg.lstsq(x, y, rcond=None)

    residuals = y - x @ coef
    rss = float(residuals @ residuals)
    tss = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if tss == 0.0 else 1.0 - rss / tss
    r2 = min(max(r2, 0.0), 1.0)

    dof = n - 3
    if dof > 0:
        sigma2 = rss / dof
        try:
            cov = sigma2 * np.linalg.inv(gram)
            ses = np.sqrt(np.maximum(np.diag(cov), 0.0))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"could not invert the normal matrix: {exc}") from exc
    else:
        ses = np.zeros(3)  # exact interpolation at n = 3

    return ProductionFit(
        log_a=float(coef[0]),
        alpha=float(coef[1]),
        beta=float(coef[2]),
        se_log_a=float(ses[0]),
        se_alpha=float(ses[1]),
        se_beta=float(ses[2]),
        r2=r2,
        n_used=n,
        excluded=design.excluded,
    )


def reference_fit_by_stratum(d, basis, ctx, pool_years):
    """``fit_by_stratum`` one stratum at a time: group the records, build a
    Dataset per stratum and fit its :func:`reference_design` with
    :func:`reference_fit_log_design`."""
    groups = {}
    for record in d.records:
        key = (record.country, record.sector_class, None if pool_years else record.year)
        groups.setdefault(key, []).append(record)
    fits, failures = {}, {}
    for key in sorted(groups, key=lambda k: (k[0], k[1], k[2] if k[2] is not None else -1)):
        subset = Dataset(records=tuple(groups[key]), currency_unit=d.currency_unit)
        try:
            fits[key] = reference_fit_log_design(reference_design(subset, basis, ctx))
        except (DataError, NumericalError) as exc:
            failures[key] = str(exc)
    return fits, failures


#: The degenerate strata :func:`stratum_zoo` puts beside the random ones.
DEGENERATE_STRATA = ("collinear", "constant-workers", "overflow", "ill-conditioned")


def stratum_zoo(seed: int, sizes=range(1, 16), per_size: int = 6,
                degenerate_sizes=(3, 8)) -> Dataset:
    """Strata for the components basis: ``per_size`` random strata of each
    size in ``sizes``, and one of each :data:`DEGENERATE_STRATA` of each size
    in ``degenerate_sizes``.

    A random stratum has about one record in ten without capital and one in
    ten with a negative value, so strata of one size spread over several
    numbers of usable records. The degenerate ones: capital proportional to
    workers; constant workers; a components sum that overflows to inf; and
    capital proportional to workers up to 1e-9, a full-rank design above
    ``CONDITION_LIMIT``. A firm id starts with its stratum's kind and size
    (``overflow8-``). Strata 2k and 2k + 1 share a country and sector class
    in two years, so pooling the years merges them.
    """
    rng = np.random.default_rng(seed)
    strata = [("random", n) for n in sizes for _ in range(per_size)]
    strata += [(kind, n) for n in degenerate_sizes for kind in DEGENERATE_STRATA]
    records = []
    for s, (kind, n) in enumerate(strata):
        workers = rng.integers(1, 500, n)
        capital = rng.uniform(1.0, 1e4, n)
        # The value is the income plus 10: negative for about one random record in ten.
        income = rng.uniform(-60.0 if kind == "random" else 1.0, 500.0, n)
        depreciation = np.full(n, 1.0)
        if kind == "collinear":
            capital = 2.5 * workers
        elif kind == "constant-workers":
            workers = np.full(n, 7)
        elif kind == "overflow":
            income = np.full(n, 1.7e308)
            depreciation = np.full(n, 1.7e308)
        elif kind == "ill-conditioned":
            workers = np.arange(1, n + 1) * 10
            capital = workers * (1.0 + 1e-9 * (np.arange(n) % 3))
        for i in range(n):
            missing = kind == "random" and rng.random() < 0.1
            records.append(FirmRecord(
                firm_id=f"{kind}{n}-{s}-{i}", year=2001 + s % 2, country=f"C{s // 2:03d}", sector="s",
                sector_class=("manufacturing", "non_manufacturing")[s // 2 % 2],
                revenue=100.0, cogs=40.0, workers=int(workers[i]), total_labor_cost=5.0,
                capital=None if missing else float(capital[i]),
                ordinary_income=float(income[i]), financial_expense=2.0,
                tax_public_charge=2.0, depreciation=float(depreciation[i]),
            ))
    return Dataset(records=tuple(records), currency_unit="kJPY")
