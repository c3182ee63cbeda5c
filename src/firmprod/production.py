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
    _, responses, regressors = _usable_logs(evaluate(d, value_basis, ctx))
    n = len(responses)
    if n < 3:
        raise _too_few(n, len(d) - n)
    return LogDesign(responses=responses, regressors=regressors, excluded=len(d) - n)


def _usable_logs(ev: Evaluation) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Which records of ``ev`` are usable (positive capital and value), and
    their log10 values and log10 (capital, workers) rows, in record order."""
    capital = ev.column("capital")  # an absent capital reads 0.0, so it is not usable
    usable = (capital > 0) & (ev.values > 0)
    return (usable, np.log10(ev.values[usable]),
            np.log10(np.column_stack([capital[usable], ev.workers[usable]])))


def _too_few(n: int, excluded: int) -> InsufficientDataError:
    return InsufficientDataError(
        f"need at least 3 usable records to fit, got {n} ({excluded} excluded)"
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
    fitted with the reason, each in key order.

    The records are evaluated once. The strata with the same number of
    usable records are fitted together by :func:`_fit_stack`, whose fits
    equal :func:`fit_log_design`'s on each stratum's :func:`log_design`.
    """
    fields = ("country", "sector_class") if pool_years else ("country", "sector_class", "year")
    ev = evaluate(d, value_basis, ctx)
    groups = sorted(d.columns.groups(fields, d.rows), key=lambda group: (
        group[0][0], group[0][1], -1 if pool_years else group[0][2]))
    if not groups:
        return {}, {}
    keys: list[StratumKey] = [(*key, None) if pool_years else key for key, _ in groups]
    sizes = np.array([len(index) for _, index in groups])
    # Each record's stratum, numbered in key order, at its row of the columns.
    stratum = np.empty(len(d.columns), dtype=np.intp)
    stratum[d.rows[np.concatenate([index for _, index in groups])]] = np.repeat(
        np.arange(len(groups)), sizes)

    usable, responses, regressors = _usable_logs(ev)
    used_stratum = stratum[ev.rows[usable]]
    by_stratum = np.argsort(used_stratum, kind="stable")  # keeps record order in a stratum
    responses, regressors = responses[by_stratum], regressors[by_stratum]
    used = np.bincount(used_stratum, minlength=len(groups))
    starts = np.cumsum(used) - used
    excluded = sizes - used

    outcomes: list[ProductionFit | str | None] = [
        str(_too_few(n, e)) if n < 3 else None for n, e in zip(used.tolist(), excluded.tolist())]
    for n in sorted(set(used[used >= 3].tolist())):  # np.unique would import numpy.ma
        members = np.flatnonzero(used == n)
        rows = starts[members, None] + np.arange(n)
        stack = _fit_stack(responses[rows], regressors[rows], excluded[members])
        for g, outcome in zip(members.tolist(), stack):
            outcomes[g] = outcome
    fits: dict[StratumKey, ProductionFit] = {}
    failures: dict[StratumKey, str] = {}
    for key, outcome in zip(keys, outcomes):
        if isinstance(outcome, str):
            failures[key] = outcome
        else:
            fits[key] = outcome
    return fits, failures


def _fit_stack(
    responses: np.ndarray, regressors: np.ndarray, excluded: np.ndarray
) -> list[ProductionFit | str]:
    """The fit of each of ``g`` log designs of ``n`` records, or why it has none.

    ``responses`` has shape (g, n) and ``regressors`` (g, n, 2). One SVD of
    the stack gives each design's rank and condition number. The designs
    that are finite, of full rank and within :data:`CONDITION_LIMIT` are
    solved by stacked operations, which numpy runs per matrix with the same
    LAPACK and BLAS calls as the 2-D ones in :func:`fit_log_design`, so the
    fits are equal; the others go through :func:`fit_log_design`, which
    gives their error or their least-squares fit.
    """
    g, n = responses.shape
    x = np.concatenate((np.ones((g, n, 1)), regressors), axis=2)
    alone = ~(np.isfinite(responses).all(axis=1) & np.isfinite(regressors).all(axis=(1, 2)))
    finite = np.flatnonzero(~alone)
    if len(finite):
        singular = np.linalg.svd(x[finite], compute_uv=False)
        tolerance = singular[:, :1] * max(n, 3) * np.finfo(float).eps
        full_rank = np.count_nonzero(singular > tolerance, axis=1) == 3
        with np.errstate(divide="ignore", invalid="ignore"):  # a rank-deficient design
            condition = singular[:, 0] / singular[:, -1]
        alone[finite] = ~(full_rank & (condition <= CONDITION_LIMIT))

    outcomes: list[ProductionFit | str | None] = [None] * g
    stacked = np.flatnonzero(~alone)
    if len(stacked):
        fits = _solve_stack(x[stacked], responses[stacked], excluded[stacked])
        if fits is None:  # a normal matrix LAPACK could not factor: fit one by one
            alone[stacked] = True
        else:
            for i, fit in zip(stacked.tolist(), fits):
                outcomes[i] = fit
    for i in np.flatnonzero(alone).tolist():
        try:
            outcomes[i] = fit_log_design(
                LogDesign(responses[i], regressors[i], int(excluded[i])))
        except (DataError, NumericalError) as exc:
            outcomes[i] = str(exc)
    return outcomes


def _solve_stack(
    x: np.ndarray, y: np.ndarray, excluded: np.ndarray
) -> list[ProductionFit] | None:
    """Normal-equation fits of the stacked designs ``x`` (g, n, 3) to ``y``
    (g, n), or None if LAPACK finds a normal matrix singular."""
    n = y.shape[1]
    xt = np.swapaxes(x, 1, 2)
    gram = xt @ x
    try:
        coef = np.linalg.solve(gram, xt @ y[..., None])
        inverse = np.linalg.inv(gram) if n > 3 else None
    except np.linalg.LinAlgError:
        return None
    residuals = y - (x @ coef)[..., 0]
    rss = (residuals[:, None, :] @ residuals[..., None])[:, 0, 0]
    tss = ((y - y.mean(axis=1, keepdims=True)) ** 2).sum(axis=1)
    if inverse is None:
        ses = np.zeros((len(y), 3))  # exact interpolation at n = 3
    else:
        cov = (rss / (n - 3))[:, None, None] * inverse
        ses = np.sqrt(np.maximum(np.diagonal(cov, axis1=1, axis2=2), 0.0))
    fits = []
    for coef_i, ses_i, rss_i, tss_i, excluded_i in zip(
            coef[..., 0].tolist(), ses.tolist(), rss.tolist(), tss.tolist(), excluded.tolist()):
        r2 = 1.0 if tss_i == 0.0 else 1.0 - rss_i / tss_i
        fits.append(ProductionFit(*coef_i, *ses_i, min(max(r2, 0.0), 1.0), n, excluded_i))
    return fits
