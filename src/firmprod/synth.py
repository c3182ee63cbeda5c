"""Synthetic firm populations with known ground truth.

Every estimator in this package is validated against data generated here:
the Cobb-Douglas generator plants exact (log_a, alpha, beta), the tail
sampler plants an exact power-law exponent, and the size-graded generator
plants a known productivity-size gradient.

Randomness uses numpy's PCG64 consumed in firm-major order: each firm owns
four consecutive uniform draws (size, size auxiliary, and a Box-Muller pair
for capital scatter and value noise), always all four. Growing n only
appends draws, so earlier firms are bit-identical across population sizes,
and output is stable across runs on one host. It is not guaranteed across
hosts: numpy's vectorised ``**``, ``exp`` and ``log`` may round differently
depending on the CPU features it dispatches to (AVX-512 or not).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from numbers import Real
from pathlib import Path

import numpy as np

from .errors import ConfigError, ValidationError
from .ingest import read_json_config
from .records import OPTIONAL_FIELDS, SECTOR_CLASSES, Columns, Dataset


def _check_reals(obj: object, *names: str) -> None:
    """Raise unless each named field holds a finite real number; a bool does not count."""
    for name in names:
        value = getattr(obj, name)
        try:
            finite = isinstance(value, Real) and not isinstance(value, bool) and isfinite(value)
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise ValidationError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class ParetoSize:
    """Worker counts from a power-law tail: P(X > x) = (x/xmin)**-mu."""

    mu: float
    xmin: float

    def __post_init__(self) -> None:
        _check_reals(self, "mu", "xmin")
        if self.mu <= 0 or self.xmin <= 0:
            raise ValidationError("ParetoSize needs mu > 0 and xmin > 0")


@dataclass(frozen=True)
class LognormalSize:
    """Worker counts from exp(Normal(mean_log, sigma_log)) (natural log)."""

    mean_log: float
    sigma_log: float

    def __post_init__(self) -> None:
        _check_reals(self, "mean_log", "sigma_log")
        if self.sigma_log < 0:
            raise ValidationError("sigma_log must be >= 0")


@dataclass(frozen=True)
class FixedSize:
    """Every firm gets the same worker count."""

    workers: float

    def __post_init__(self) -> None:
        _check_reals(self, "workers")
        if self.workers < 1:
            raise ValidationError("fixed size must be >= 1")


SizeDist = ParetoSize | LognormalSize | FixedSize


@dataclass(frozen=True)
class CapitalRule:
    """Capital from workers: coeff * L**exponent * 10**Normal(0, sigma).

    ``sigma`` adds independent log10 scatter; without it capital would be an
    exact function of workers and the log regression design would be rank
    deficient.
    """

    coeff: float = 1.0
    exponent: float = 1.0
    sigma: float = 0.3

    def __post_init__(self) -> None:
        _check_reals(self, "coeff", "exponent", "sigma")
        if self.coeff <= 0:
            raise ValidationError("coeff must be > 0")
        if self.sigma < 0:
            raise ValidationError("sigma must be >= 0")


@dataclass(frozen=True)
class SynthSpec:
    """Ground truth and sampling plan for one synthetic firm population."""

    n: int
    log_a: float = 0.0
    alpha: float = 0.35
    beta: float = 0.6
    noise_sigma: float = 0.0
    size_dist: SizeDist = field(default_factory=lambda: LognormalSize(3.0, 1.0))
    capital_rule: CapitalRule = field(default_factory=CapitalRule)
    labor_share: float = 0.0
    seed: int = 0
    year: int = 2003
    country: str = "JP"
    sector_class: str = "manufacturing"
    n_sectors: int = 1
    currency_unit: str = "synthetic"

    def __post_init__(self) -> None:
        for name in ("n", "seed", "n_sectors", "year"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        _check_reals(self, "log_a", "alpha", "beta", "noise_sigma", "labor_share")
        if self.n < 1:
            raise ValidationError(f"n must be >= 1, got {self.n}")
        if self.noise_sigma < 0:
            raise ValidationError("noise_sigma must be >= 0")
        if not 0 <= self.labor_share < 1:
            raise ValidationError(f"labor_share must lie in [0, 1), got {self.labor_share}")
        if self.seed < 0:
            raise ValidationError("seed must be a non-negative integer")
        if self.n_sectors < 1:
            raise ValidationError("n_sectors must be >= 1")
        if self.sector_class not in SECTOR_CLASSES:
            raise ValidationError(f"sector_class must be one of {SECTOR_CLASSES}")

    @classmethod
    def from_json(cls, path: str | Path) -> SynthSpec:
        raw = read_json_config(path, "synth spec")
        try:
            if "size_dist" in raw:
                raw["size_dist"] = _size_dist_from_json(raw["size_dist"])
            if "capital_rule" in raw:
                raw["capital_rule"] = CapitalRule(**raw["capital_rule"])
            return cls(**raw)
        except (AttributeError, TypeError, ValidationError) as exc:  # e.g. size_dist: 5
            raise ConfigError(f"{path}: bad synth spec: {exc}") from exc


def _size_dist_from_json(raw: dict) -> SizeDist:
    kinds = {"pareto": ParetoSize, "lognormal": LognormalSize, "fixed": FixedSize}
    kind = raw.get("kind")
    if kind not in kinds:
        raise ConfigError(f"size_dist kind must be one of {sorted(kinds)}, got {kind!r}")
    params = {k: v for k, v in raw.items() if k != "kind"}
    return kinds[kind](**params)


def pareto_inverse_cdf(u: float | np.ndarray, mu: float, xmin: float) -> float | np.ndarray:
    """Map u in (0, 1] to the value with survival probability u: xmin * u**(-1/mu)."""
    return xmin * u ** (-1.0 / mu)


def gen_pareto_sample(mu: float, xmin: float, n: int, seed: int = 0) -> np.ndarray:
    """n inverse-transform draws from a power-law tail; all values >= xmin."""
    if mu <= 0 or xmin <= 0:
        raise ValidationError("gen_pareto_sample needs mu > 0 and xmin > 0")
    if n < 1:
        raise ValidationError("n must be >= 1")
    rng = np.random.default_rng(seed)
    u = 1.0 - rng.random(n)  # uniform on (0, 1]
    return pareto_inverse_cdf(u, mu, xmin)


def _box_muller(u1: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two independent standard-normal arrays from two uniform arrays."""
    radius = np.sqrt(-2.0 * np.log1p(-u1))  # 1 - u1 lies in (0, 1], log is finite
    angle = 2.0 * np.pi * u2
    return radius * np.cos(angle), radius * np.sin(angle)


def _draw_all_workers(dist: SizeDist, u_size: np.ndarray, u_aux: np.ndarray) -> np.ndarray:
    if isinstance(dist, ParetoSize):
        raw = pareto_inverse_cdf(1.0 - u_size, dist.mu, dist.xmin)
    elif isinstance(dist, LognormalSize):
        z, _ = _box_muller(u_size, u_aux)
        raw = np.exp(dist.mean_log + dist.sigma_log * z)
    else:
        raw = np.full(len(u_size), float(dist.workers))
    sizes = np.maximum(1, np.rint(raw))
    if not (sizes < 2.0**63).all():  # also false for nan
        raise ValidationError("a drawn worker count exceeds the integer range")
    return sizes.astype(int)


def _firms(spec: SynthSpec, workers: np.ndarray, capital: np.ndarray, values: np.ndarray,
           provenance: str) -> Dataset:
    """The dataset of firms with these draws and values; all money fields present.

    Gross margin equals the value (revenue = 2v, cogs = v), labor cost makes
    the realized labor share equal the configured one, and the accounting
    components sum to the same added value as the labor-share form.
    """
    revenue = 2.0 * values
    labor_cost = values * spec.labor_share / (1.0 - spec.labor_share)
    overflow = ~(np.isfinite(revenue) & np.isfinite(labor_cost))
    if overflow.any():
        value = float(values[np.argmax(overflow)])
        raise ValidationError(f"generated value {value!r} overflows a money cell")
    n = spec.n
    zero = np.zeros(n)
    money = {"revenue": revenue, "cogs": values, "total_labor_cost": labor_cost,
             "capital": capital, "ordinary_income": values, "financial_expense": zero,
             "tax_public_charge": zero, "depreciation": zero}
    sectors = [f"S{k:02d}" for k in range(min(spec.n_sectors, n))]
    columns = Columns.from_arrays(
        firm_id=[f"F{i:06d}" for i in range(n)],
        year=np.full(n, spec.year, dtype=np.int64),
        workers=workers.astype(np.int64),
        money=money,
        present={name: np.ones(n, dtype=bool) for name in OPTIONAL_FIELDS},
        texts={"country": [spec.country] * n,
               "sector": [sectors[k] for k in (np.arange(n) % spec.n_sectors).tolist()],
               "sector_class": [spec.sector_class] * n},
    )
    return Dataset._of(columns, None, spec.currency_unit, (provenance,))


def gen_cobb_douglas_firms(spec: SynthSpec) -> Dataset:
    """Generate firm records satisfying the planted log-linear model.

    Per firm: draw workers from ``size_dist``, derive capital from
    ``capital_rule``, then set
    log10(value) = log_a + alpha*log10(capital) + beta*log10(workers) + eps
    with eps ~ Normal(0, noise_sigma). The worker and capital draws do not
    depend on ``noise_sigma``, so noisy and noiseless populations share the
    same firms. A draw that overflows is caught by the finite checks and
    raises :class:`ValidationError`; numpy's overflow warnings stay silent.
    """
    rng = np.random.default_rng(spec.seed)
    draws = rng.random((spec.n, 4))
    with np.errstate(all="ignore"):
        workers = _draw_all_workers(spec.size_dist, draws[:, 0], draws[:, 1])
        z_capital, z_noise = _box_muller(draws[:, 2], draws[:, 3])

        rule = spec.capital_rule
        capital = rule.coeff * workers.astype(float) ** rule.exponent
        capital = capital * 10.0 ** (rule.sigma * z_capital)
        if not np.isfinite(capital).all():
            raise ValidationError("generated capital overflows: check capital_rule and size_dist")
        log_values = (
            spec.log_a
            + spec.alpha * np.log10(capital)
            + spec.beta * np.log10(workers.astype(float))
            + spec.noise_sigma * z_noise
        )
        values = 10.0 ** log_values
        return _firms(spec, workers, capital, values, f"synth(seed={spec.seed})")


def gen_size_graded_economy(base: SynthSpec, gradient: float) -> Dataset:
    """Rescale each firm's value by (workers / median_workers)**gradient.

    A positive gradient makes larger firms more productive; zero reproduces
    :func:`gen_cobb_douglas_firms` exactly. Capital is left untouched, so
    this generator targets size-dependence analyses, not fitting.
    """
    dataset = gen_cobb_douglas_firms(base)
    workers = dataset.column("workers")
    median_workers = float(np.median(workers))
    # Python's ** per firm, as the values were first defined
    factors = np.array([(w / median_workers) ** gradient for w in workers.tolist()])
    with np.errstate(all="ignore"):  # an overflow is caught by the finite checks
        values = (dataset.column("revenue") - dataset.column("cogs")) * factors
        return _firms(base, workers, dataset.column("capital"), values,
                      f"synth(seed={base.seed}, gradient={gradient})")
