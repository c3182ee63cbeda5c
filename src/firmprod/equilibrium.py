"""Neoclassical wage equilibrium: profit, marginal productivity, reallocation.

Firms produce value = scale * capital**alpha * labor**beta. Profit
maximization in labor equates the marginal labor productivity
beta * value / labor with the real wage, so in equilibrium that quantity is
equal across firms. The simulator moves labor step by step from the firm
with the lowest marginal productivity to the one with the highest until the
relative spread of marginal productivities falls below a tolerance; the
dispersion statistic measures how far a population (observed or simulated)
is from that fixed point.

Each simulator iteration costs a few O(n) vectorised reductions (min, max,
the two sums written to the trace) plus a recomputation of the marginal
product and output of the two firms that moved; the labor-independent
factors are computed once per run. The result is bit-identical to
recomputing every firm on every iteration.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .errors import InsufficientDataError, UnboundedDemandError, ValidationError

#: Labor never drops below this floor during reallocation.
DEFAULT_LABOR_FLOOR = 1e-9

_MAX_STEP_SHRINKS = 200


def _positive_finite(value: float) -> bool:
    """Whether ``value`` is > 0 and finite; an int beyond the float range is not."""
    if value <= 0:
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class TheoryFirm:
    """A Cobb-Douglas firm with continuous labor.

    ``beta`` may equal 1 (linear production in labor) for marginal-product
    arithmetic, but labor-demand and reallocation operations require
    beta < 1 for an interior optimum.
    """

    id: str
    scale: float
    alpha: float
    beta: float
    capital: float
    labor: float

    def __post_init__(self) -> None:
        if not all(map(_positive_finite, (self.scale, self.capital, self.labor))):
            raise ValidationError(
                f"firm {self.id!r}: scale, capital and labor must be finite and > 0"
            )
        if not 0 < self.alpha < 1:
            raise ValidationError(f"firm {self.id!r}: alpha must lie in (0, 1)")
        if not 0 < self.beta <= 1:
            raise ValidationError(f"firm {self.id!r}: beta must lie in (0, 1]")


@dataclass(frozen=True)
class MarketContext:
    """Output price, interest rate, and wage rate shared by all firms."""

    price: float = 1.0
    interest_rate: float = 0.0
    wage: float = 1.0

    def __post_init__(self) -> None:
        if not _positive_finite(self.price):
            raise ValidationError(f"price must be finite and > 0, got {self.price}")
        if self.interest_rate < 0 or self.wage < 0:
            raise ValidationError("interest_rate and wage must be >= 0")


@dataclass(frozen=True)
class DispersionStats:
    """Spread of beta * value / labor across firms; both zero at equilibrium."""

    max_relative_spread: float
    coefficient_of_variation: float


@dataclass(frozen=True)
class FixedStep:
    """Move a constant amount of labor per iteration."""

    delta: float

    def __post_init__(self) -> None:
        if not _positive_finite(self.delta):
            raise ValidationError(f"delta must be finite and > 0, got {self.delta}")


@dataclass(frozen=True)
class AdaptiveStep:
    """Start from the donor's full transferable labor and halve on overshoot.

    A candidate move overshoots when it would reverse the marginal-product
    ordering of the donor/recipient pair; accepted moves therefore never
    decrease total output.
    """

    shrink: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.shrink < 1:
            raise ValidationError(f"shrink must lie in (0, 1), got {self.shrink}")


StepRule = FixedStep | AdaptiveStep


@dataclass(frozen=True)
class TraceStep:
    """State after one reallocation move (iteration 0 is the initial state)."""

    iteration: int
    mover_from: str | None
    mover_to: str | None
    delta_labor: float
    max_spread: float
    total_output: float
    total_labor: float


@dataclass(frozen=True)
class ReallocationTrace:
    steps: tuple[TraceStep, ...]
    converged: bool
    final_firms: tuple[TheoryFirm, ...]

    @property
    def iterations(self) -> int:
        return self.steps[-1].iteration if self.steps else 0


def output(f: TheoryFirm) -> float:
    """Value produced: scale * capital**alpha * labor**beta."""
    return f.scale * f.capital**f.alpha * f.labor**f.beta


def profit(f: TheoryFirm, m: MarketContext) -> float:
    """Operating profit: price*output - interest*capital - wage*labor."""
    return m.price * output(f) - m.interest_rate * f.capital - m.wage * f.labor


def marginal_labor_productivity(f: TheoryFirm) -> float:
    """d(output)/d(labor) = beta * output / labor."""
    return f.beta * output(f) / f.labor


def optimal_labor(f: TheoryFirm, m: MarketContext) -> float:
    """The labor input maximizing profit at the given wage and price.

    Solves price * beta * scale * capital**alpha * L**(beta-1) = wage, which
    has a finite solution only for positive wage and beta < 1.
    """
    if m.wage <= 0:
        raise UnboundedDemandError("labor demand is unbounded at zero wage")
    if f.beta >= 1:
        raise UnboundedDemandError(
            f"firm {f.id!r}: no interior optimum with beta = {f.beta}"
        )
    base = m.price * f.beta * f.scale * f.capital**f.alpha / m.wage
    return base ** (1.0 / (1.0 - f.beta))


def equilibrium_dispersion(
    firms: Sequence[tuple[float, float, float]],
) -> DispersionStats:
    """Dispersion of beta * (value/labor) over (beta, value, labor) triples.

    Returns the max relative spread (max-min)/min and the coefficient of
    variation; both are exactly 0 iff all products are equal.
    """
    if len(firms) < 2:
        raise InsufficientDataError("dispersion needs at least 2 firms")
    products = []
    for beta, value, labor in firms:
        if labor <= 0 or value <= 0:
            raise ValidationError("every firm needs value > 0 and labor > 0")
        products.append(beta * value / labor)
    arr = np.asarray(products)
    lowest = float(arr.min())
    spread = float((arr.max() - lowest) / lowest)
    mean = float(arr.mean())
    cv = float(arr.std() / mean)
    return DispersionStats(max_relative_spread=spread, coefficient_of_variation=cv)


def _extreme(mp: np.ndarray, value: float, ids: Sequence[str]) -> int:
    """Index of the firm whose marginal product equals ``value``; lowest id wins ties."""
    return min(np.flatnonzero(mp == value).tolist(), key=ids.__getitem__)


def _mp_at(coef: float, expo: float, labor: float) -> float:
    """coef * labor**expo on Python floats, inf on overflow as numpy gives."""
    try:
        return coef * labor**expo
    except OverflowError:
        return math.inf


def simulate_reallocation(
    firms: Sequence[TheoryFirm],
    *,
    step_rule: StepRule | None = None,
    tol: float = 1e-8,
    max_iter: int = 100_000,
    labor_floor: float = DEFAULT_LABOR_FLOOR,
) -> ReallocationTrace:
    """Reallocate labor pairwise until marginal productivities equalize.

    Each iteration moves labor from the firm with the lowest marginal labor
    productivity to the firm with the highest (ties broken by firm id).
    Total labor is conserved; moves are clipped so labor never falls below
    ``labor_floor`` (which must be >= 0). The run converges when the max relative spread of
    marginal products is at most ``tol``; hitting ``max_iter`` first is
    reported via ``converged=False``, not an error. The dynamics depend
    only on marginal products, so no price or wage enters.
    """
    if len(firms) < 2:
        raise InsufficientDataError("reallocation needs at least 2 firms")
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if not labor_floor >= 0:
        raise ValueError(f"labor_floor must be >= 0, got {labor_floor}")
    for f in firms:
        if f.beta >= 1:
            raise ValidationError(
                f"firm {f.id!r}: reallocation requires beta < 1"
            )
    step_rule = step_rule or AdaptiveStep()

    ids = [f.id for f in firms]
    scales = np.array([f.scale for f in firms])
    alphas = np.array([f.alpha for f in firms])
    betas = np.array([f.beta for f in firms])
    capitals = np.array([f.capital for f in firms])
    labors = np.array([f.labor for f in firms], dtype=float)

    # Marginal product is mp_coef * labor**mp_exp and output is
    # out_coef * labor**beta; only the labor factor changes during the run.
    # mp_coef keeps the left-to-right order of beta*scale*capital**alpha
    # (not betas * out_coef), the operand order of the plain formula.
    capital_factor = capitals**alphas
    out_coef = scales * capital_factor
    mp_coef = betas * scales * capital_factor
    mp_exp = betas - 1.0
    mp = mp_coef * labors**mp_exp
    outs = out_coef * labors**betas
    # The adaptive overshoot test probes one firm at a time, many times per
    # move; Python floats are much cheaper there than numpy scalars. Python's
    # ** is the C library's pow, while numpy's vectorised ** may differ from
    # it in the last bit where numpy uses AVX-512, so coef need not equal
    # mp_coef there, and traces can differ between hosts.
    coef = [b * s * k**a for b, s, k, a in
            zip(betas.tolist(), scales.tolist(), capitals.tolist(), alphas.tolist())]
    expo = [b - 1.0 for b in betas.tolist()]

    steps: list[TraceStep] = []

    def record(iteration: int, mover_from: str | None, mover_to: str | None,
               delta: float) -> tuple[float, float, float]:
        """Trace the current state; return the lowest and highest marginal product and spread."""
        lowest, highest = float(mp.min()), float(mp.max())
        spread = (highest - lowest) / lowest
        steps.append(TraceStep(iteration, mover_from, mover_to, delta, spread,
                               float(np.sum(outs)), float(labors.sum())))
        return lowest, highest, spread

    lowest, highest, spread = record(0, None, None, 0.0)
    converged = spread <= tol

    iteration = 0
    while not converged and iteration < max_iter:
        iteration += 1
        donor = _extreme(mp, lowest, ids)
        recipient = _extreme(mp, highest, ids)

        available = labors[donor] - labor_floor
        if available <= 0:
            break  # donor pinned at the floor; no admissible move

        if isinstance(step_rule, FixedStep):
            delta = min(step_rule.delta, available)
        else:
            delta = float(available)
            donor_labor = float(labors[donor])
            recipient_labor = float(labors[recipient])
            for _ in range(_MAX_STEP_SHRINKS):
                donor_left = donor_labor - delta
                no_overshoot = donor_left > 0 and _mp_at(
                    coef[donor], expo[donor], donor_left
                ) <= _mp_at(coef[recipient], expo[recipient], recipient_labor + delta)
                if no_overshoot:
                    break
                delta *= step_rule.shrink
            else:
                delta = 0.0
        if delta <= 0 or labors[donor] - delta <= 0:
            break  # no admissible move, or one that would leave the donor no labor

        labors[donor] -= delta
        labors[recipient] += delta

        pair = [donor, recipient]
        moved = labors[pair]
        mp[pair] = mp_coef[pair] * moved**mp_exp[pair]
        outs[pair] = out_coef[pair] * moved**betas[pair]
        lowest, highest, spread = record(iteration, ids[donor], ids[recipient], float(delta))
        converged = spread <= tol

    final_firms = tuple(
        replace(f, labor=float(labors[i])) for i, f in enumerate(firms)
    )
    return ReallocationTrace(
        steps=tuple(steps),
        converged=converged,
        final_firms=final_firms,
    )
