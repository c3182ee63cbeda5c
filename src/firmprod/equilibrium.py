"""Neoclassical wage equilibrium: profit, marginal productivity, reallocation.

Firms produce value = scale * capital**alpha * labor**beta. Profit
maximization in labor equates the marginal labor productivity
beta * value / labor with the real wage, so in equilibrium that quantity is
equal across firms. The simulator moves labor step by step from the firm
with the lowest marginal productivity to the one with the highest until the
relative spread of marginal productivities falls below a tolerance; the
dispersion statistic measures how far a population (observed or simulated)
is from that fixed point.

Each simulator iteration costs four O(n) vectorised reductions: argmin and
argmax over the marginal products, and the sums of output and labor written
to the trace. The marginal products are held in firm-id order (a stable
sort), so the first of exact ties, which argmin and argmax return, is the
firm with the lowest id, and among equal ids the earliest input. The two
firms that moved are recomputed through one index array; the
labor-independent factors are computed once per run. The result is
bit-identical to recomputing every firm on every iteration. The trace is
recorded as columns, one list per field, and kept as arrays; no per-move
object is built unless a caller reads :attr:`ReallocationTrace.steps`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (
    InsufficientDataError,
    NumericalError,
    UnboundedDemandError,
    ValidationError,
)

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
        if not isinstance(self.id, str):  # the simulator sorts firms by id
            raise ValidationError(f"firm {self.id!r}: id must be a string")
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


@dataclass(frozen=True, eq=False)
class ReallocationTrace:
    """A simulator run: its trace as columns with one entry per step (step 0
    is the initial state), whether it converged, and the firms it ended with.

    ``iteration`` is an int64 array and the other numeric columns float64
    arrays; the movers are ``None`` at step 0.
    """

    iteration: np.ndarray
    mover_from: tuple[str | None, ...]
    mover_to: tuple[str | None, ...]
    delta_labor: np.ndarray
    max_spread: np.ndarray
    total_output: np.ndarray
    total_labor: np.ndarray
    converged: bool
    final_firms: tuple[TheoryFirm, ...]

    @cached_property
    def steps(self) -> tuple[TraceStep, ...]:
        """The trace as one :class:`TraceStep` per step, built on first read."""
        return tuple(map(TraceStep, self.iteration.tolist(), self.mover_from, self.mover_to,
                         self.delta_labor.tolist(), self.max_spread.tolist(),
                         self.total_output.tolist(), self.total_labor.tolist()))

    @property
    def iterations(self) -> int:
        return self.iteration.item(-1) if len(self.iteration) else 0


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
    fixed_delta = step_rule.delta if isinstance(step_rule, FixedStep) else None
    shrink = step_rule.shrink if isinstance(step_rule, AdaptiveStep) else None

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
    # The marginal products are held in id order: by_id[k] is the input
    # index of the firm at position k. The sort is stable, so among equal ids
    # the earlier firm comes first, and argmin/argmax, which return the first
    # of exact ties, pick the lowest id. Output and labor stay in input order
    # because the trace sums them in that order.
    by_id = sorted(range(len(ids)), key=ids.__getitem__)
    mp = (mp_coef * labors**mp_exp)[by_id]
    outs = out_coef * labors**betas
    # The adaptive overshoot test probes one firm at a time, many times per
    # move; Python floats are much cheaper there than numpy scalars. Python's
    # ** is the C library's pow, while numpy's vectorised ** may differ from
    # it in the last bit where numpy uses AVX-512, so coef need not equal
    # mp_coef there, and traces can differ between hosts.
    coef = [b * s * k**a for b, s, k, a in
            zip(betas.tolist(), scales.tolist(), capitals.tolist(), alphas.tolist())]
    expo = [b - 1.0 for b in betas.tolist()]

    # The trace, one list per column, one entry per step; the iteration
    # column is the step number.
    movers_from: list[str | None] = []
    movers_to: list[str | None] = []
    deltas: list[float] = []
    spreads: list[float] = []
    total_outputs: list[float] = []
    total_labors: list[float] = []

    def record(mover_from: str | None, mover_to: str | None,
               delta: float) -> tuple[int, int, float]:
        """Trace the current state; return the id-order positions of the next
        donor (lowest marginal product) and recipient (highest), and the spread."""
        low, high = int(mp.argmin()), int(mp.argmax())
        lowest = mp.item(low)
        if not lowest > 0:  # also nan
            raise NumericalError(
                f"firm {ids[by_id[low]]!r}: marginal labor productivity is {lowest!r}, "
                "so the relative spread is undefined"
            )
        spread = (mp.item(high) - lowest) / lowest
        movers_from.append(mover_from)
        movers_to.append(mover_to)
        deltas.append(delta)
        spreads.append(spread)
        total_outputs.append(float(outs.sum()))
        total_labors.append(float(labors.sum()))
        return low, high, spread

    low, high, spread = record(None, None, 0.0)
    converged = spread <= tol

    iteration = 0
    while not converged and iteration < max_iter:
        iteration += 1
        donor, recipient = by_id[low], by_id[high]
        donor_labor = labors.item(donor)
        available = donor_labor - labor_floor
        if available <= 0:
            break  # donor pinned at the floor; no admissible move

        if fixed_delta is not None:
            delta = min(fixed_delta, available)
        else:
            delta = available
            recipient_labor = labors.item(recipient)
            donor_coef, donor_expo = coef[donor], expo[donor]
            recipient_coef, recipient_expo = coef[recipient], expo[recipient]
            for _ in range(_MAX_STEP_SHRINKS):
                donor_left = donor_labor - delta
                no_overshoot = donor_left > 0 and _mp_at(
                    donor_coef, donor_expo, donor_left
                ) <= _mp_at(recipient_coef, recipient_expo, recipient_labor + delta)
                if no_overshoot:
                    break
                delta *= shrink
            else:
                delta = 0.0
        if delta <= 0 or donor_labor - delta <= 0:
            break  # no admissible move, or one that would leave the donor no labor

        labors[donor] -= delta
        labors[recipient] += delta

        # numpy's ** on contiguous length-2 arrays rounds as the initial,
        # whole-array pass does; Python's ** or a scalar numpy ** need not.
        pair = np.array((donor, recipient), dtype=np.intp)
        moved = labors[pair]
        mp[low], mp[high] = (mp_coef[pair] * moved**mp_exp[pair]).tolist()
        outs[pair] = out_coef[pair] * moved**betas[pair]
        low, high, spread = record(ids[donor], ids[recipient], float(delta))
        converged = spread <= tol

    final_firms = tuple(
        replace(f, labor=float(labors[i])) for i, f in enumerate(firms)
    )
    return ReallocationTrace(
        iteration=np.arange(len(spreads), dtype=np.int64),
        mover_from=tuple(movers_from),
        mover_to=tuple(movers_to),
        delta_labor=np.array(deltas, dtype=np.float64),
        max_spread=np.array(spreads, dtype=np.float64),
        total_output=np.array(total_outputs, dtype=np.float64),
        total_labor=np.array(total_labors, dtype=np.float64),
        converged=converged,
        final_firms=final_firms,
    )
