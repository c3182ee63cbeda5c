"""Cobb-Douglas estimation by ordinary least squares in log10 space.

The model is log10(value) = log_a + alpha*log10(capital) + beta*log10(workers),
fitted per stratum with plain OLS. The solver uses normal equations and
falls back to an orthogonal decomposition when the design matrix is badly
conditioned. Records with non-positive (or absent) value, capital, or
workers are excluded with a reported count: shifting or clamping them would
bias the elasticities.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    CollinearityError,
    DataError,
    InsufficientDataError,
    NumericalError,
    ValidationError,
)
from .records import Dataset
from .measures import Evaluation, MacroContext, ValueBasis, evaluate

#: Above this design-matrix condition number the normal equations are
#: abandoned for a least-squares orthogonal decomposition.
CONDITION_LIMIT = 1e8

#: Default half-width of the constant-returns band around alpha + beta = 1.
RTS_TOLERANCE = 0.05

_R2_SLACK = 1e-12


@dataclass(frozen=True)
class LogDesign:
    """Log-space regression inputs: responses, regressors, exclusion count."""

    responses: np.ndarray  # log10 value, shape (n,)
    regressors: np.ndarray  # columns log10 capital, log10 workers, shape (n, 2)
    excluded: int

    @property
    def n(self) -> int:
        return len(self.responses)


@dataclass(frozen=True)
class ProductionFit:
    """Estimated Cobb-Douglas parameters with OLS diagnostics."""

    log_a: float
    alpha: float
    beta: float
    se_log_a: float
    se_alpha: float
    se_beta: float
    r2: float
    n_used: int
    excluded: int

    def __post_init__(self) -> None:
        if self.n_used < 3:
            raise ValidationError(f"n_used must be >= 3, got {self.n_used}")
        if not -_R2_SLACK <= self.r2 <= 1 + _R2_SLACK:
            raise ValidationError(f"r2 must lie in [0, 1], got {self.r2}")

    @property
    def sum_elasticities(self) -> float:
        return self.alpha + self.beta


class ScaleRegime(Enum):
    CONSTANT = "constant"
    DECREASING = "decreasing"
    INCREASING = "increasing"


@dataclass(frozen=True)
class ReturnsToScale:
    classification: ScaleRegime
    sum_elasticities: float
    tolerance_used: float


def log_design(
    d: Dataset,
    value_basis: ValueBasis = ValueBasis.GROSS_MARGIN,
    ctx: MacroContext | None = None,
) -> LogDesign:
    """Build the log10 regression design from a dataset.

    A record is usable when its value, capital, and worker count are all
    present and strictly positive; everything else is excluded and counted.
    """
    return _usable_design(evaluate(d, value_basis, ctx), len(d))


def _usable_design(ev: Evaluation, size: int) -> LogDesign:
    """Log design of the records in ``ev`` with positive capital and value, out of ``size``."""
    capital = ev.column("capital")  # an absent capital reads 0.0, so it is not usable
    usable = (capital > 0) & (ev.values > 0)
    n = int(usable.sum())
    excluded = size - n
    if n < 3:
        raise InsufficientDataError(
            f"need at least 3 usable records to fit, got {n} ({excluded} excluded)"
        )
    return LogDesign(
        responses=np.log10(ev.values[usable]),
        regressors=np.log10(np.column_stack([capital[usable], ev.workers[usable]])),
        excluded=excluded,
    )


def _diagnose_collinearity(design: np.ndarray) -> str:
    log_k = design[:, 1]
    log_l = design[:, 2]
    if np.ptp(log_k) == 0 and np.ptp(log_l) == 0:
        return "log10 capital and log10 workers both have zero variance"
    if np.ptp(log_k) == 0:
        return "log10 capital has zero variance"
    if np.ptp(log_l) == 0:
        return "log10 workers has zero variance"
    return "log10 capital is an affine function of log10 workers"


def fit_log_design(design: LogDesign) -> ProductionFit:
    """OLS on a prepared log design, with residual-based standard errors."""
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


def fit_cobb_douglas(
    d: Dataset,
    value_basis: ValueBasis = ValueBasis.GROSS_MARGIN,
    ctx: MacroContext | None = None,
) -> ProductionFit:
    """Estimate (log_a, alpha, beta) for a firm population."""
    return fit_log_design(log_design(d, value_basis, ctx))


def classify_returns(fit: ProductionFit, tol: float = RTS_TOLERANCE) -> ReturnsToScale:
    """Classify returns to scale from alpha + beta against a tolerance band."""
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    total = fit.sum_elasticities
    if abs(total - 1.0) <= tol:
        regime = ScaleRegime.CONSTANT
    elif total < 1.0:
        regime = ScaleRegime.DECREASING
    else:
        regime = ScaleRegime.INCREASING
    return ReturnsToScale(classification=regime, sum_elasticities=total, tolerance_used=tol)


StratumKey = tuple[str, str, int | None]


def fit_by_stratum(
    d: Dataset,
    value_basis: ValueBasis = ValueBasis.GROSS_MARGIN,
    ctx: MacroContext | None = None,
    *,
    pool_years: bool = False,
) -> tuple[dict[StratumKey, ProductionFit], dict[StratumKey, str]]:
    """Fit one model per (country, sector_class, year) stratum.

    With ``pool_years`` the year dimension collapses (key year is None).
    Returns successful fits and, separately, the strata that could not be
    fitted with the reason.
    """
    fields = ("country", "sector_class") if pool_years else ("country", "sector_class", "year")

    def stratum(key: tuple) -> StratumKey:
        return (*key, None) if pool_years else key

    sizes = {stratum(key): len(index) for key, index in d.columns.groups(fields, d.rows)}
    parts = {stratum(key): part for key, part in evaluate(d, value_basis, ctx).split(fields).items()}
    fits: dict[StratumKey, ProductionFit] = {}
    failures: dict[StratumKey, str] = {}
    for key in sorted(sizes, key=lambda k: (k[0], k[1], k[2] if k[2] is not None else -1)):
        try:
            # A stratum none of whose records could be evaluated has no part.
            part = parts.get(key) or evaluate(())
            fits[key] = fit_log_design(_usable_design(part, sizes[key]))
        except (DataError, NumericalError) as exc:
            failures[key] = str(exc)
    return fits, failures
