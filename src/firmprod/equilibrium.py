"""Neoclassical wage equilibrium: profit, marginal productivity, reallocation.

Firms produce value = scale * capital**alpha * labor**beta. Profit
maximization in labor equates the marginal labor productivity
beta * value / labor with the real wage, so in equilibrium that quantity is
equal across firms. The simulator moves labor step by step from the firm
with the lowest marginal productivity to the one with the highest until the
relative spread of marginal productivities falls below a tolerance; the
dispersion statistic measures how far a population (observed or simulated)
is from that fixed point. :func:`read_scenario` reads the simulator's firms
and run parameters from a JSON scenario file.

Each simulator iteration costs two O(n) vectorised reductions, argmin and
argmax over the marginal products, and two O(n) copies: the labors and
outputs of each traced state go into a row of two blocks of about 16k cells,
and a full block is summed row by row, which gives each row the pairwise sum
its own ``.sum()`` would. The marginal products are held in firm-id order (a
stable sort), so the first of exact ties, which argmin and argmax return, is
the firm with the lowest id, and among equal ids the earliest input. The two
firms that moved are recomputed by one length-4 numpy power; the
labor-independent factors are computed once per run, and the overshoot
probes of the adaptive step run on Python floats. The result is
bit-identical to recomputing every firm on every iteration; with 350 firms
an iteration takes about 7 µs on one core of an x86-64 VM with AVX-512. The
trace is recorded as columns and kept as arrays; no per-move object is built
unless a caller reads :attr:`ReallocationTrace.steps`. A total labor or a
marginal product beyond the float range is a :class:`NumericalError` (exit 4
from the CLI); a total output beyond it is traced as inf.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from numbers import Integral
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    InsufficientDataError,
    NumericalError,
    UnboundedDemandError,
    ValidationError,
    is_finite,
    is_real,
)
from .ingest import read_json_config

_MAX_STEP_SHRINKS = 200

#: Cells in each of the simulator's two trace blocks: a block holds the
#: states of max(1, _CELLS // n) steps of n firms between two sums.
_CELLS = 16_384


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
        if not all(v > 0 and is_finite(v) for v in (self.scale, self.capital, self.labor)):
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
        if not (self.price > 0 and is_finite(self.price)):
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
        if not (self.delta > 0 and is_finite(self.delta)):
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


def _check_run(options: Mapping[str, object], error: Callable = ValueError) -> None:
    """Raise ``error`` for the first run parameter in ``options`` that breaks its rule."""
    for name, holds, rule in (
        ("tol", lambda v: v > 0 and is_finite(v), "finite and > 0"),
        ("max_iter", lambda v: is_real(v) and isinstance(v, Integral) and v >= 0,
         "an integer >= 0"),
        ("labor_floor", lambda v: v >= 0 and is_finite(v), "finite and >= 0"),
    ):
        if name in options and not holds(value := options[name]):
            raise error(f"{name} must be {rule}, got {value!r}")


def read_scenario(path: str | Path) -> tuple[list[TheoryFirm], dict[str, object]]:
    """The firms of a JSON scenario file and the :func:`simulate_reallocation`
    keyword arguments it sets (a key it leaves out takes the function's
    default); a malformed scenario is a :class:`ConfigError` naming the file."""
    raw = read_json_config(path, "scenario")
    if "firms" not in raw:
        raise ConfigError(f"{path}: scenario must have a 'firms' list")
    try:
        firms, options = [], {}
        for entry in raw["firms"]:
            if isinstance(entry, dict):  # anything else is refused by TheoryFirm(**entry)
                for name in ("scale", "alpha", "beta", "capital", "labor"):
                    value = entry.get(name, 0.0)  # a missing value is TheoryFirm's to refuse
                    if not is_real(value):
                        raise ConfigError(f"{path}: firm {entry.get('id')!r}: {name} must be "
                                          f"a JSON number, got {value!r}")
            firms.append(TheoryFirm(**entry))
        if "step_rule" in raw:
            rule = raw["step_rule"]
            if not isinstance(rule, dict):
                raise ConfigError(f"{path}: step_rule must be a JSON object, got {rule!r}")
            kind = rule.get("kind", "adaptive")
            if kind not in ("adaptive", "fixed"):
                raise ConfigError(f"{path}: step_rule kind must be 'fixed' or 'adaptive', "
                                  f"got {kind!r}")
            step = FixedStep if kind == "fixed" else AdaptiveStep
            options["step_rule"] = step(**{k: v for k, v in rule.items() if k != "kind"})
        for name in ("tol", "labor_floor"):
            if name in raw and not is_real(raw[name]):
                raise ConfigError(f"{path}: {name} must be a JSON number, got {raw[name]!r}")
        # Converted and checked in turn, so the first bad parameter is the one named.
        for name in ("tol", "max_iter", "labor_floor"):
            if name in raw:
                options[name] = raw[name] if name == "max_iter" else float(raw[name])
                _check_run(options, lambda message: ConfigError(f"{path}: {message}"))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: bad scenario: {exc}") from exc
    return firms, options


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
    variation; both are exactly 0 iff all products are equal. Every beta,
    value, labor and product must be finite; a spread, mean or standard
    deviation of the products beyond the float range is a
    :class:`NumericalError`.
    """
    if len(firms) < 2:
        raise InsufficientDataError("dispersion needs at least 2 firms")
    products = []
    for beta, value, labor in firms:
        if not all(map(is_finite, (beta, value, labor))):
            raise ValidationError(
                f"beta, value and labor must be finite, got {(beta, value, labor)!r}")
        if labor <= 0 or value <= 0:
            raise ValidationError("every firm needs value > 0 and labor > 0")
        product = beta * value / labor
        if not math.isfinite(product):
            raise ValidationError(
                f"beta * value / labor is {product!r} for {(beta, value, labor)!r}")
        products.append(product)
    arr = np.asarray(products)
    # Overflow is raised below as NumericalError, so numpy need not warn of it.
    with np.errstate(all="ignore"):
        lowest = float(arr.min())
        highest = arr.max()
        spread = float((highest - lowest) / lowest)
        mean = float(arr.mean())
        std = arr.std()
        cv = float(std / mean)
    if not all(map(math.isfinite, (spread, mean, std))):
        raise NumericalError(
            f"the dispersion of {len(products)} products from {lowest!r} to {float(highest)!r} "
            "is beyond the float range")
    return DispersionStats(max_relative_spread=spread, coefficient_of_variation=cv)


def simulate_reallocation(
    firms: Sequence[TheoryFirm],
    *,
    step_rule: StepRule = AdaptiveStep(),
    tol: float = 1e-8,
    max_iter: int = 100_000,
    labor_floor: float = 1e-9,
) -> ReallocationTrace:
    """Reallocate labor pairwise until marginal productivities equalize.

    Each iteration moves labor from the firm with the lowest marginal labor
    productivity to the firm with the highest (ties broken by firm id).
    Total labor is conserved; moves are clipped so labor never falls below
    ``labor_floor`` (finite, >= 0). The run converges when the max relative
    spread of marginal products is at most ``tol`` (finite, > 0); hitting
    ``max_iter`` (an integer >= 0) first is reported via ``converged=False``,
    not an error. A value outside those rules raises ``ValueError``. The
    dynamics depend only on marginal products, so no price or wage enters.

    A total labor, or a highest marginal product, beyond the float range
    raises :class:`NumericalError`, as a lowest marginal product that is not
    > 0 does; a total output beyond it is traced as inf.
    """
    if len(firms) < 2:
        raise InsufficientDataError("reallocation needs at least 2 firms")
    _check_run({"tol": tol, "max_iter": max_iter, "labor_floor": labor_floor})
    for f in firms:
        if f.beta >= 1:
            raise ValidationError(
                f"firm {f.id!r}: reallocation requires beta < 1"
            )
    fixed_delta = step_rule.delta if isinstance(step_rule, FixedStep) else None
    shrink = step_rule.shrink if isinstance(step_rule, AdaptiveStep) else None

    ids = [f.id for f in firms]
    # The trace, one list per column, one entry per step; the iteration
    # column is the step number. Step 0 is the initial state.
    movers_from: list[str | None] = [None]
    movers_to: list[str | None] = [None]
    deltas: list[float] = [0.0]
    spreads: list[float] = []
    total_outputs: list[float] = []
    total_labors: list[float] = []

    # Overflow is raised below as NumericalError or traced as inf, so numpy
    # need not warn of it.
    with np.errstate(all="ignore"):
        scales = np.array([f.scale for f in firms])
        alphas = np.array([f.alpha for f in firms])
        betas = np.array([f.beta for f in firms])
        capitals = np.array([f.capital for f in firms])
        labors = np.array([f.labor for f in firms], dtype=float)
        total_labor = float(labors.sum())
        if not math.isfinite(total_labor):  # conserved, so every step would trace it
            raise NumericalError(f"total labor is {total_labor!r}, beyond the float range")

        # Marginal product is mp_coef * labor**mp_exp and output is
        # out_coef * labor**beta; only the labor factor changes during the run.
        # mp_coef keeps the left-to-right order of beta*scale*capital**alpha
        # (not betas * out_coef), the operand order of the plain formula.
        capital_factor = capitals**alphas
        out_coef = scales * capital_factor
        mp_coef = betas * scales * capital_factor
        mp_exp = betas - 1.0
        # The marginal products are held in id order: by_id[k] is the input
        # index of the firm at position k. The sort is stable, so among equal
        # ids the earlier firm comes first, and argmin/argmax, which return the
        # first of exact ties, pick the lowest id. Output and labor stay in
        # input order because the trace sums them in that order.
        by_id = sorted(range(len(ids)), key=ids.__getitem__)
        mp = (mp_coef * labors**mp_exp)[by_id]
        outs = out_coef * labors**betas
        # Python-float copies for the scalar work of a move. The adaptive
        # overshoot test probes one firm at a time, many times per move; Python
        # floats are much cheaper there than numpy scalars. Python's ** is the
        # C library's pow, while numpy's vectorised ** may differ from it in
        # the last bit where numpy uses AVX-512, so coef need not equal
        # mp_coef there, and traces can differ between hosts. The exponents,
        # one subtraction each, are equal, so the probes use mp_exps.
        labor = labors.tolist()
        mp_coefs, mp_exps = mp_coef.tolist(), mp_exp.tolist()
        out_coefs, beta = out_coef.tolist(), betas.tolist()
        coef = [b * s * k**a for b, s, k, a in
                zip(beta, scales.tolist(), capitals.tolist(), alphas.tolist())]
        # The two moved firms' new marginal products and outputs, in one
        # length-4 power: lanes (donor mp, recipient mp, donor output,
        # recipient output). numpy's ** rounds a lane of a contiguous array
        # as the initial, whole-array pass does, whatever the length; Python's
        # ** or a scalar numpy ** need not.
        lanes = np.empty(12)
        x4, e4, c4 = lanes.reshape(3, 4)
        y4 = np.empty(4)

        # Each traced state's labors and outputs are copied into a row of two
        # blocks; a full block, and the last, partial one, is summed row by
        # row. A row sum along the contiguous axis is the pairwise sum that
        # the row's own .sum() gives, so the totals are those of a sum per step.
        block = max(1, _CELLS // len(ids))
        labor_rows = np.empty((block, len(ids)))
        output_rows = np.empty((block, len(ids)))

        def add_totals(rows: int) -> None:
            total_labors.extend(labor_rows[:rows].sum(axis=1).tolist())
            total_outputs.extend(output_rows[:rows].sum(axis=1).tolist())

        row = iteration = 0
        while True:
            # Trace the current state, then find the next donor (lowest
            # marginal product) and recipient (highest) by id-order position.
            labor_rows[row] = labors
            output_rows[row] = outs
            row += 1
            if row == block:
                add_totals(row)
                row = 0
            low, high = int(mp.argmin()), int(mp.argmax())
            lowest, highest = mp.item(low), mp.item(high)
            if not lowest > 0:  # also nan
                raise NumericalError(
                    f"firm {ids[by_id[low]]!r}: marginal labor productivity is {lowest!r}, "
                    "so the relative spread is undefined"
                )
            if highest == math.inf:
                raise NumericalError(
                    f"firm {ids[by_id[high]]!r}: marginal labor productivity is "
                    f"{highest!r}, beyond the float range"
                )
            spread = (highest - lowest) / lowest
            spreads.append(spread)
            converged = spread <= tol
            if converged or iteration >= max_iter:
                break

            iteration += 1
            donor, recipient = by_id[low], by_id[high]
            donor_labor = labor[donor]
            available = donor_labor - labor_floor
            if available <= 0:
                break  # donor pinned at the floor; no admissible move

            recipient_labor = labor[recipient]
            if fixed_delta is not None:
                delta = min(fixed_delta, available)
            else:
                # Halve from the donor's whole available labor until the move
                # does not reverse the pair's marginal-product order. A
                # probe is coef * labor**(beta - 1), inf where Python's ** overflows
                # (numpy gives inf there).
                delta = available
                donor_coef, donor_expo = coef[donor], mp_exps[donor]
                recipient_coef, recipient_expo = coef[recipient], mp_exps[recipient]
                for _ in range(_MAX_STEP_SHRINKS):
                    donor_left = donor_labor - delta
                    if donor_left > 0:
                        try:
                            donor_mp = donor_coef * donor_left**donor_expo
                        except OverflowError:
                            donor_mp = math.inf
                        try:
                            recipient_mp = (recipient_coef
                                            * (recipient_labor + delta)**recipient_expo)
                        except OverflowError:
                            recipient_mp = math.inf
                        if donor_mp <= recipient_mp:
                            break
                    delta *= shrink
                else:
                    delta = 0.0
            donor_left = donor_labor - delta
            if delta <= 0 or donor_left <= 0:
                break  # no admissible move, or one that would leave the donor no labor

            recipient_labor += delta
            labor[donor] = labors[donor] = donor_left
            labor[recipient] = labors[recipient] = recipient_labor
            lanes[:] = (donor_left, recipient_labor, donor_left, recipient_labor,
                        mp_exps[donor], mp_exps[recipient], beta[donor], beta[recipient],
                        mp_coefs[donor], mp_coefs[recipient],
                        out_coefs[donor], out_coefs[recipient])
            np.power(x4, e4, y4)
            np.multiply(c4, y4, y4)
            mp[low], mp[high], outs[donor], outs[recipient] = y4.tolist()
            movers_from.append(ids[donor])
            movers_to.append(ids[recipient])
            deltas.append(float(delta))
        add_totals(row)

    final_firms = tuple(replace(f, labor=value) for f, value in zip(firms, labor))
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
