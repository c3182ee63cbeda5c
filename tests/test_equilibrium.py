from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firmprod import (
    AdaptiveStep,
    FixedStep,
    MarketContext,
    TheoryFirm,
    TraceStep,
    equilibrium_dispersion,
    marginal_labor_productivity,
    optimal_labor,
    output,
    profit,
    simulate_reallocation,
)
from firmprod import equilibrium
from firmprod.errors import (
    InsufficientDataError,
    NumericalError,
    UnboundedDemandError,
    ValidationError,
)


def firm(id="f", scale=1.0, alpha=0.4, beta=0.6, capital=1.0, labor=1.0):
    return TheoryFirm(id=id, scale=scale, alpha=alpha, beta=beta, capital=capital, labor=labor)


def random_firms(n, seed, beta=None):
    rng = np.random.default_rng(seed)
    return [
        firm(
            id=f"f{i}",
            scale=float(rng.uniform(0.5, 3.0)),
            alpha=float(rng.uniform(0.2, 0.6)),
            beta=beta if beta is not None else float(rng.uniform(0.3, 0.8)),
            capital=float(rng.uniform(0.5, 20.0)),
            labor=float(rng.uniform(1.0, 50.0)),
        )
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# output, profit, marginal productivity
# ---------------------------------------------------------------------------


def test_output_identity_case():
    assert output(firm(scale=1.0, capital=1.0, labor=1.0)) == 1.0


def test_output_closed_form_case():
    f = firm(scale=2.0, alpha=0.5, beta=0.5, capital=4.0, labor=9.0)
    assert output(f) == pytest.approx(12.0, rel=1e-15)


def test_output_matches_exp_log_oracle():
    for f in random_firms(200, seed=4):
        via_logs = math.exp(
            math.log(f.scale) + f.alpha * math.log(f.capital) + f.beta * math.log(f.labor)
        )
        assert output(f) == pytest.approx(via_logs, rel=1e-14)


def test_profit_cost_free_equals_output():
    f = firm(scale=2.0, alpha=0.5, beta=0.5, capital=4.0, labor=9.0)
    m = MarketContext(price=1.0, interest_rate=0.0, wage=0.0)
    assert profit(f, m) == output(f)


def test_profit_case():
    f = firm(scale=2.0, alpha=0.5, beta=0.5, capital=4.0, labor=9.0)
    m = MarketContext(price=1.0, interest_rate=0.1, wage=1.0)
    assert profit(f, m) == pytest.approx(12.0 - 0.4 - 9.0, rel=1e-14)


def test_profit_derivative_matches_finite_difference():
    m = MarketContext(price=1.3, interest_rate=0.05, wage=0.8)
    for f in random_firms(200, seed=9):
        h = 1e-5 * f.labor
        up = profit(firm(id=f.id, scale=f.scale, alpha=f.alpha, beta=f.beta,
                         capital=f.capital, labor=f.labor + h), m)
        down = profit(firm(id=f.id, scale=f.scale, alpha=f.alpha, beta=f.beta,
                           capital=f.capital, labor=f.labor - h), m)
        fd = (up - down) / (2 * h)
        analytic = m.price * f.beta * output(f) / f.labor - m.wage
        scale = max(abs(m.price * f.beta * output(f) / f.labor), m.wage)
        assert abs(fd - analytic) <= 1e-6 * scale


def test_marginal_productivity_direct_case():
    # value 100 with 10 workers and beta 0.6 -> marginal product 6
    f = firm(scale=100.0 / 10.0**0.6, beta=0.6, capital=1.0, labor=10.0)
    assert output(f) == pytest.approx(100.0, rel=1e-14)
    assert marginal_labor_productivity(f) == pytest.approx(6.0, rel=1e-14)


def test_marginal_productivity_linear_labor_limit():
    f = firm(beta=1.0, scale=3.0, capital=2.0, labor=7.0)
    assert marginal_labor_productivity(f) == pytest.approx(output(f) / f.labor, rel=1e-15)


def test_marginal_productivity_matches_finite_difference():
    for f in random_firms(200, seed=30):
        h = 1e-5 * f.labor
        fd = (
            output(firm(id=f.id, scale=f.scale, alpha=f.alpha, beta=f.beta,
                        capital=f.capital, labor=f.labor + h))
            - output(firm(id=f.id, scale=f.scale, alpha=f.alpha, beta=f.beta,
                          capital=f.capital, labor=f.labor - h))
        ) / (2 * h)
        assert fd == pytest.approx(marginal_labor_productivity(f), rel=1e-8)


# ---------------------------------------------------------------------------
# optimal labor
# ---------------------------------------------------------------------------


def test_optimal_labor_plug_in_case():
    f = firm(beta=0.5, alpha=0.3, scale=1.0, capital=1.0)
    m = MarketContext(price=1.0, wage=0.5)
    assert optimal_labor(f, m) == pytest.approx(1.0, rel=1e-14)


def test_optimal_labor_wage_scaling_law():
    f = firm(beta=0.5, alpha=0.3, scale=2.0, capital=3.0)
    base = optimal_labor(f, MarketContext(wage=1.0))
    assert optimal_labor(f, MarketContext(wage=2.0)) == pytest.approx(base / 4.0, rel=1e-12)


def test_optimal_labor_is_a_local_maximum():
    m = MarketContext(price=1.1, interest_rate=0.02, wage=0.9)
    for f in random_firms(100, seed=12):
        best = optimal_labor(f, m)
        centered = firm(id=f.id, scale=f.scale, alpha=f.alpha, beta=f.beta,
                        capital=f.capital, labor=best)
        at_best = profit(centered, m)
        for eps in (-1e-4, 1e-4):
            nudged = firm(id=f.id, scale=f.scale, alpha=f.alpha, beta=f.beta,
                          capital=f.capital, labor=best * (1 + eps))
            assert at_best >= profit(nudged, m) - 1e-12 * abs(at_best)


def test_optimal_labor_rejects_zero_wage():
    with pytest.raises(UnboundedDemandError):
        optimal_labor(firm(beta=0.5), MarketContext(wage=0.0))


def test_optimal_labor_rejects_unit_beta():
    with pytest.raises(UnboundedDemandError):
        optimal_labor(firm(beta=1.0), MarketContext(wage=1.0))


@given(st.floats(min_value=0.01, max_value=100.0))
def test_optimal_labor_invariant_to_joint_price_wage_scaling(c):
    f = firm(beta=0.6, alpha=0.3, scale=2.0, capital=5.0)
    base = optimal_labor(f, MarketContext(price=1.0, wage=0.7))
    scaled = optimal_labor(f, MarketContext(price=c, wage=0.7 * c))
    assert scaled == pytest.approx(base, rel=1e-9)


# ---------------------------------------------------------------------------
# dispersion
# ---------------------------------------------------------------------------


def test_dispersion_zero_at_equilibrium():
    stats = equilibrium_dispersion([(0.6, 60.0, 6.0), (0.5, 120.0, 10.0)])
    assert stats.max_relative_spread == 0.0
    assert stats.coefficient_of_variation == 0.0


def test_dispersion_spread_and_cv():
    stats = equilibrium_dispersion([(0.6, 100.0, 10.0), (0.6, 200.0, 10.0)])
    assert stats.max_relative_spread == pytest.approx(1.0)
    assert stats.coefficient_of_variation == pytest.approx(1.0 / 3.0)


def test_dispersion_needs_two_firms():
    with pytest.raises(InsufficientDataError):
        equilibrium_dispersion([(0.6, 100.0, 10.0)])


def test_dispersion_rejects_nonpositive_inputs():
    with pytest.raises(ValidationError):
        equilibrium_dispersion([(0.6, 100.0, 0.0), (0.6, 1.0, 1.0)])


@pytest.mark.parametrize("triple", [
    (0.5, math.nan, 1.0), (math.nan, 1.0, 1.0), (0.5, 1.0, math.nan), (0.5, math.inf, 1.0),
    (math.inf, 1.0, 1.0), (0.5, 1.0, math.inf), (0.5, 10**400, 1.0),
], ids=["nan-value", "nan-beta", "nan-labor", "inf-value", "inf-beta", "inf-labor",
        "huge-int-value"])
def test_dispersion_rejects_non_finite_inputs(triple):
    with pytest.raises(ValidationError, match="must be finite"):
        equilibrium_dispersion([triple, (0.5, 1.0, 1.0)])


def test_dispersion_rejects_an_overflowing_product():
    with pytest.raises(ValidationError, match=r"beta \* value / labor is inf"):
        equilibrium_dispersion([(0.5, 1.0, 1.0), (0.5, 1e308, 1e-10)])


@pytest.mark.parametrize("firms, products", [
    ([(0.5, 1e300, 1.0), (0.5, 1.0, 1.0)], "from 0.5 to 5e+299"),
    ([(0.9, 1.7e308, 1.0), (0.9, 1.7e308, 1.0)], "from 1.53e+308 to 1.53e+308"),
    ([(1.0, 1e-200, 1.0), (1.0, 1e150, 1.0)], "from 1e-200 to 1e+150"),
], ids=["std-overflows", "mean-overflows", "spread-overflows"])
def test_dispersion_beyond_the_float_range_is_a_numerical_error(firms, products):
    # finite products whose squares, sum or ratio overflow
    with pytest.raises(NumericalError, match=re.escape(f"dispersion of 2 products {products} is")):
        equilibrium_dispersion(firms)


@pytest.mark.parametrize("seed", range(5))
def test_dispersion_keeps_the_bits_of_the_plain_formula(seed):
    rng = np.random.default_rng(seed)
    firms = list(zip(rng.uniform(0.1, 0.9, 20), rng.lognormal(5, 3, 20), rng.uniform(1, 50, 20)))
    arr = np.asarray([beta * value / labor for beta, value, labor in firms])
    stats = equilibrium_dispersion(firms)
    assert stats.max_relative_spread == float((arr.max() - arr.min()) / arr.min())
    assert stats.coefficient_of_variation == float(arr.std() / arr.mean())


# ---------------------------------------------------------------------------
# reallocation simulator
# ---------------------------------------------------------------------------


def closed_form_two_firm_split(firms):
    # Common alpha and beta: equal marginal products imply labor proportional
    # to (scale * capital**alpha)**(1 / (1 - beta)).
    beta = firms[0].beta
    weights = [(f.scale * f.capital**f.alpha) ** (1.0 / (1.0 - beta)) for f in firms]
    total = sum(f.labor for f in firms)
    return [total * w / sum(weights) for w in weights]


def equal_mp_oracle(firms, total_labor):
    # Independent root finder: the common marginal product lam solves
    # sum_i L_i(lam) = total with L_i = (beta_i scale_i K_i^alpha_i / lam)^(1/(1-beta_i)).
    from scipy.optimize import brentq

    def labor_at(lam):
        return [
            ((f.beta * f.scale * f.capital**f.alpha) / lam) ** (1.0 / (1.0 - f.beta))
            for f in firms
        ]

    lam = brentq(lambda lam: sum(labor_at(lam)) - total_labor, 1e-9, 1e9, xtol=1e-14)
    return labor_at(lam)


def test_two_identical_firms_converge_immediately():
    firms = [firm(id="a", labor=10.0), firm(id="b", labor=10.0)]
    trace = simulate_reallocation(firms)
    assert trace.converged
    assert len(trace.steps) == 1  # initial snapshot only, no moves
    assert trace.steps[0].mover_from is None


def test_two_firm_endpoint_matches_closed_form():
    firms = [
        firm(id="a", scale=1.0, alpha=0.4, beta=0.6, capital=4.0, labor=10.0),
        firm(id="b", scale=2.0, alpha=0.4, beta=0.6, capital=1.0, labor=10.0),
    ]
    trace = simulate_reallocation(firms, tol=1e-10)
    expected = closed_form_two_firm_split(firms)
    for final, target in zip(trace.final_firms, expected):
        assert final.labor == pytest.approx(target, rel=1e-6)


def test_five_firm_endpoint_matches_root_finding_oracle():
    firms = random_firms(5, seed=77)
    trace = simulate_reallocation(firms, tol=1e-10)
    assert trace.converged
    expected = equal_mp_oracle(firms, sum(f.labor for f in firms))
    for final, target in zip(trace.final_firms, expected):
        assert final.labor == pytest.approx(target, rel=1e-6)


def test_labor_conserved_at_every_step():
    firms = random_firms(6, seed=5)
    total = sum(f.labor for f in firms)
    trace = simulate_reallocation(firms, tol=1e-9)
    for step in trace.steps:
        assert abs(step.total_labor - total) <= 1e-12 * total


def test_adaptive_output_never_decreases():
    firms = random_firms(8, seed=6)
    trace = simulate_reallocation(firms, step_rule=AdaptiveStep())
    outputs = [step.total_output for step in trace.steps]
    for prev, nxt in zip(outputs, outputs[1:]):
        assert nxt >= prev - 1e-12 * abs(prev)


def test_converged_state_has_tiny_dispersion():
    firms = random_firms(5, seed=42)
    trace = simulate_reallocation(firms, tol=1e-8)
    assert trace.converged
    stats = equilibrium_dispersion(
        [(f.beta, output(f), f.labor) for f in trace.final_firms]
    )
    assert stats.max_relative_spread <= 1e-8


def test_common_beta_equalizes_labor_productivity():
    firms = random_firms(4, seed=11, beta=0.6)
    trace = simulate_reallocation(firms, tol=1e-10)
    ratios = [output(f) / f.labor for f in trace.final_firms]
    assert max(ratios) - min(ratios) <= 1e-8 * min(ratios)


def test_fixed_step_reports_nonconvergence():
    firms = [
        firm(id="a", scale=1.0, capital=4.0, labor=10.0),
        firm(id="b", scale=2.0, capital=1.0, labor=10.0),
    ]
    trace = simulate_reallocation(firms, step_rule=FixedStep(delta=5.0), tol=1e-12, max_iter=7)
    assert not trace.converged
    assert trace.steps[-1].iteration == 7
    assert [step.delta_labor for step in trace.steps[1:]] == [5.0] * 7


def test_fixed_step_clips_at_labor_floor():
    firms = [
        firm(id="a", scale=0.1, capital=1.0, labor=2.0),
        firm(id="b", scale=5.0, capital=1.0, labor=2.0),
    ]
    trace = simulate_reallocation(firms, step_rule=FixedStep(delta=100.0), max_iter=3)
    assert all(0 < step.delta_labor < 100.0 for step in trace.steps[1:])
    for f in trace.final_firms:
        assert f.labor >= 1e-9


def test_fixed_step_stops_before_a_zero_floor_empties_the_donor():
    firms = [
        firm(id="a", capital=0.1, labor=12.0),
        firm(id="b", capital=0.1, labor=3.0),
        firm(id="c", capital=1.0, labor=7.0),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a firm at zero labor divides by zero
        trace = simulate_reallocation(firms, step_rule=FixedStep(delta=5.0), labor_floor=0.0)
    assert not trace.converged
    # a gives 5 twice; the next move would take its last 2 units of labor.
    assert [(s.mover_from, s.delta_labor) for s in trace.steps[1:]] == [("a", 5.0)] * 2
    assert [f.labor for f in trace.final_firms] == [2.0, 3.0, 17.0]


def test_tie_breaking_uses_firm_id_order():
    firms = [
        firm(id="c", scale=1.0, labor=10.0),
        firm(id="b", scale=1.0, labor=10.0),
        firm(id="a", scale=5.0, labor=10.0),
    ]
    trace = simulate_reallocation(firms, max_iter=1)
    first_move = trace.steps[1]
    assert first_move.mover_from == "b"  # lowest-MP tie between b and c
    assert first_move.mover_to == "a"


def test_recipient_tie_breaking_uses_firm_id_order():
    firms = [
        firm(id="z", scale=5.0, labor=10.0),
        firm(id="y", scale=5.0, labor=10.0),
        firm(id="m", scale=1.0, labor=10.0),
    ]
    trace = simulate_reallocation(firms, max_iter=1)
    first_move = trace.steps[1]
    assert first_move.mover_from == "m"
    assert first_move.mover_to == "y"  # highest-MP tie between z and y


def _reference_reallocation(firms, *, step_rule, tol, max_iter, labor_floor):
    # The simulator as first written: every marginal product and the total
    # output recomputed from scratch each iteration, donor and recipient
    # found by a Python scan over (mp, id) keys, and the overshoot test on
    # numpy scalars. Returns the trace steps, the converged flag and the
    # final labors.
    ids = [f.id for f in firms]
    scales = np.array([f.scale for f in firms])
    alphas = np.array([f.alpha for f in firms])
    betas = np.array([f.beta for f in firms])
    capitals = np.array([f.capital for f in firms])
    labors = np.array([f.labor for f in firms], dtype=float)

    def mp_of(labor_values):
        return betas * scales * capitals**alphas * labor_values ** (betas - 1.0)

    def mp_single(i, labor_value):
        return float(
            betas[i] * scales[i] * capitals[i] ** alphas[i] * labor_value ** (betas[i] - 1.0)
        )

    def total_output(labor_values):
        return float(np.sum(scales * capitals**alphas * labor_values**betas))

    def spread_of(mp):
        lowest = float(mp.min())
        return float((mp.max() - lowest) / lowest)

    mp = mp_of(labors)
    steps = [TraceStep(0, None, None, 0.0, spread_of(mp), total_output(labors),
                       float(labors.sum()))]
    converged = spread_of(mp) <= tol
    iteration = 0
    while not converged and iteration < max_iter:
        iteration += 1
        order = range(len(ids))
        donor = min(order, key=lambda i: (mp[i], ids[i]))
        recipient = min(order, key=lambda i: (-mp[i], ids[i]))
        available = labors[donor] - labor_floor
        if available <= 0:
            break
        if isinstance(step_rule, FixedStep):
            delta = min(step_rule.delta, available)
        else:
            delta = available
            for _ in range(200):
                donor_left = labors[donor] - delta
                if donor_left > 0 and mp_single(donor, donor_left) <= mp_single(
                    recipient, labors[recipient] + delta
                ):
                    break
                delta *= step_rule.shrink
            else:
                delta = 0.0
        if delta <= 0 or labors[donor] - delta <= 0:  # a move may not empty the donor
            break
        labors[donor] -= delta
        labors[recipient] += delta
        mp = mp_of(labors)
        spread = spread_of(mp)
        steps.append(TraceStep(iteration, ids[donor], ids[recipient], float(delta), spread,
                               total_output(labors), float(labors.sum())))
        converged = spread <= tol
    return tuple(steps), converged, [float(labor) for labor in labors]


_firm_params = st.tuples(
    st.floats(0.5, 3.0),  # scale
    st.floats(0.2, 0.6),  # alpha
    st.floats(0.3, 0.8),  # beta
    st.floats(0.5, 20.0),  # capital
    st.floats(1.0, 50.0),  # labor
)


@st.composite
def _reallocation_cases(draw):
    n = draw(st.integers(2, 40))
    # Few distinct parameter rows and ids, so exact marginal-product ties and
    # duplicate ids in arbitrary input order are common.
    rows = draw(st.lists(_firm_params, min_size=1, max_size=n))
    picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=n, max_size=n))
    names = draw(st.lists(st.sampled_from("abcdefghij"), min_size=n, max_size=n))
    firms = [
        TheoryFirm(id=name, scale=s, alpha=a, beta=b, capital=k, labor=lab)
        for name, (s, a, b, k, lab) in zip(names, (rows[i] for i in picks))
    ]
    step_rule = draw(st.one_of(
        st.builds(FixedStep, st.floats(0.01, 20.0)),
        st.builds(AdaptiveStep, st.floats(0.1, 0.9)),
    ))
    # A floor at or just below the smallest labor stops the run as soon as
    # that firm becomes the donor.
    smallest = min(f.labor for f in firms)
    floor = draw(st.sampled_from([1e-9, smallest * 0.999, smallest]))
    tol = draw(st.sampled_from([1e-3, 1e-6, 1e-9]))
    return firms, step_rule, tol, floor


@settings(max_examples=200, deadline=None)
@given(_reallocation_cases())
def test_simulator_matches_full_recompute_reference(case):
    firms, step_rule, tol, floor = case
    kwargs = dict(step_rule=step_rule, tol=tol, max_iter=300, labor_floor=floor)
    trace = simulate_reallocation(firms, **kwargs)
    steps, converged, labors = _reference_reallocation(firms, **kwargs)
    assert trace.steps == steps
    assert trace.converged == converged
    assert [f.labor for f in trace.final_firms] == labors


def _large_tied_population(seed):
    # 40 parameter rows, each held by 4 firms, so every marginal product is
    # shared by 4 firms and both extremes start (and keep being) exact ties.
    # One row is planted far below the others and one far above. The ids are
    # shuffled, so the lowest id of a tie is not its first firm in input order.
    rng = np.random.default_rng(seed)
    rows = [(float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.2, 0.6)),
             float(rng.uniform(0.3, 0.8)), float(rng.uniform(0.5, 20.0)),
             float(rng.uniform(1.0, 50.0))) for _ in range(38)]
    rows += [(0.05, 0.4, 0.6, 1.0, 40.0), (60.0, 0.4, 0.6, 20.0, 1.0)]
    params = [row for row in rows for _ in range(4)]
    ids = [f"f{i:03d}" for i in rng.permutation(len(params))]
    return [TheoryFirm(id, *row) for id, row in zip(ids, params)]


@pytest.mark.parametrize("step_rule", [AdaptiveStep(), AdaptiveStep(0.3), FixedStep(0.5)],
                         ids=["adaptive", "adaptive-0.3", "fixed"])
def test_large_tied_population_matches_full_recompute_reference(step_rule):
    firms = _large_tied_population(seed=2024)
    kwargs = dict(step_rule=step_rule, tol=1e-6, max_iter=5000, labor_floor=1e-9)
    trace = simulate_reallocation(firms, **kwargs)
    steps, converged, labors = _reference_reallocation(firms, **kwargs)
    assert trace.steps == steps
    assert trace.converged == converged == isinstance(step_rule, AdaptiveStep)
    assert [f.labor for f in trace.final_firms] == labors
    # The planted ties decide the first move: the lowest id of each group of
    # four, which is not the group's first firm in input order.
    low_group, high_group = firms[-8:-4], firms[-4:]
    first = trace.steps[1]
    assert first.mover_from == min(f.id for f in low_group) != low_group[0].id
    assert first.mover_to == min(f.id for f in high_group) != high_group[0].id


_PINNED = random_firms(6, seed=28)  # the 5th move's donor is the smallest firm, at the floor

_BLOCK_CASES = {
    # case id: (firms, simulate/reference keyword arguments)
    "converges": (random_firms(5, seed=77), dict(step_rule=AdaptiveStep(), tol=1e-8,
                                                  max_iter=1000, labor_floor=1e-9)),
    "max-iter-0": (random_firms(5, seed=77), dict(step_rule=AdaptiveStep(), tol=1e-8,
                                                   max_iter=0, labor_floor=1e-9)),
    "max-iter-reached": (random_firms(6, seed=5), dict(step_rule=FixedStep(0.25), tol=1e-12,
                                                        max_iter=9, labor_floor=1e-9)),
    "donor-at-floor": (_PINNED, dict(step_rule=AdaptiveStep(), tol=1e-9, max_iter=1000,
                                     labor_floor=min(f.labor for f in _PINNED))),
    "donor-emptied": ([firm(id="a", capital=0.1, labor=12.0), firm(id="b", capital=0.1, labor=3.0),
                       firm(id="c", capital=1.0, labor=7.0)],
                      dict(step_rule=FixedStep(5.0), tol=1e-8, max_iter=1000, labor_floor=0.0)),
}


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(_BLOCK_CASES))
def test_block_summed_totals_match_the_reference_on_every_exit_path(case, rows, monkeypatch):
    # The trace totals are summed once per block of `rows` steps, so with a
    # run of s steps the last sum covers s % rows steps, or a full block.
    firms, kwargs = _BLOCK_CASES[case]
    monkeypatch.setattr(equilibrium, "_CELLS", rows * len(firms))
    trace = simulate_reallocation(firms, **kwargs)
    steps, converged, labors = _reference_reallocation(firms, **kwargs)
    assert len(trace.total_labor) == len(trace.total_output) == len(steps)
    assert trace.steps == steps
    assert trace.converged == converged == (case == "converges")
    assert [f.labor for f in trace.final_firms] == labors
    # Step counts 39, 1, 10, 5 and 3 end both on full and on partial blocks.
    assert len(steps) == {"converges": 39, "max-iter-0": 1, "max-iter-reached": 10,
                          "donor-at-floor": 5, "donor-emptied": 3}[case]


def test_block_sums_over_many_firms_match_the_reference():
    # Above 256 firms numpy's pairwise sum splits each row twice, so the
    # per-block row sums must still add in the order of a per-step sum.
    firms = random_firms(300, seed=19)
    kwargs = dict(step_rule=AdaptiveStep(), tol=1e-6, max_iter=100_000, labor_floor=1e-9)
    trace = simulate_reallocation(firms, **kwargs)
    steps, converged, labors = _reference_reallocation(firms, **kwargs)
    assert converged and trace.converged
    assert len(steps) > equilibrium._CELLS // len(firms)  # more than one block
    assert trace.steps == steps
    assert [f.labor for f in trace.final_firms] == labors


def test_overshoot_probe_overflow_matches_reference():
    # Near-zero labor with beta close to 0 pushes a probed marginal product
    # past the float range: numpy gives inf, Python float ** would raise.
    firms = [
        firm(id="a", scale=1.0, beta=0.01, labor=1e-300),
        firm(id="b", scale=2.0, beta=0.01, labor=1e-300),
    ]
    kwargs = dict(step_rule=AdaptiveStep(), tol=1e-8, max_iter=50, labor_floor=1e-316)
    trace = simulate_reallocation(firms, **kwargs)
    with np.errstate(over="ignore"):
        steps, _, labors = _reference_reallocation(firms, **kwargs)
    assert trace.converged
    assert trace.steps == steps
    assert [f.labor for f in trace.final_firms] == labors


def test_trace_steps_are_python_values_equal_to_the_columns():
    trace = simulate_reallocation(random_firms(12, seed=5), max_iter=200)
    floats = ("delta_labor", "max_spread", "total_output", "total_labor")
    assert trace.iteration.dtype == np.int64
    assert all(getattr(trace, name).dtype == np.float64 for name in floats)
    assert trace.mover_from[0] is trace.mover_to[0] is None
    assert len(trace.steps) == len(trace.iteration) > 1
    assert trace.steps is trace.steps  # built once, on first read
    for i, step in enumerate(trace.steps):
        assert type(step.iteration) is int
        assert step.iteration == trace.iteration[i] == i
        assert (step.mover_from, step.mover_to) == (trace.mover_from[i], trace.mover_to[i])
        for name in floats:
            assert type(getattr(step, name)) is float
            assert getattr(step, name) == getattr(trace, name)[i]
    assert type(trace.iterations) is int
    assert trace.iterations == trace.steps[-1].iteration


def test_simulator_validation():
    with pytest.raises(InsufficientDataError):
        simulate_reallocation([firm()])
    with pytest.raises(ValueError):
        simulate_reallocation([firm(id="a"), firm(id="b")], tol=0.0)
    with pytest.raises(ValueError):
        simulate_reallocation([firm(id="a"), firm(id="b")], labor_floor=-1.0)
    with pytest.raises(ValidationError):
        simulate_reallocation([firm(id="a", beta=1.0), firm(id="b")])


def test_a_zero_marginal_product_is_a_numerical_error():
    # scale * 0.3 underflows to 0, so the spread would divide by zero.
    firms = [firm(id="a", scale=5e-324, beta=0.3), firm(id="b")]
    with pytest.raises(NumericalError, match="firm 'a': marginal labor productivity is 0.0"):
        simulate_reallocation(firms)


def test_an_overflowing_marginal_product_is_a_numerical_error():
    # beta * scale * capital**alpha overflows, so the spread would be inf.
    firms = [firm(id="a", scale=1e308, capital=1e10), firm(id="b")]
    with pytest.raises(NumericalError,
                       match="firm 'a': marginal labor productivity is inf, beyond the float range"):
        simulate_reallocation(firms)


def test_an_overflowing_total_labor_is_a_numerical_error():
    firms = [firm(id="a", beta=0.999, labor=1e308), firm(id="b", beta=0.999, labor=1e308)]
    with pytest.raises(NumericalError, match="total labor is inf, beyond the float range"):
        simulate_reallocation(firms)


def test_an_overflowing_total_output_is_traced_as_inf():
    # scale * capital**alpha overflows; the marginal products do not.
    firms = [firm(id="a", scale=1e308, alpha=0.5, beta=0.5, capital=4.0, labor=1.0),
             firm(id="b", scale=1e308, alpha=0.5, beta=0.5, capital=4.0, labor=4.0)]
    kwargs = dict(step_rule=AdaptiveStep(), tol=1e-8, max_iter=5, labor_floor=1e-9)
    trace = simulate_reallocation(firms, **kwargs)  # warnings are errors here
    with np.errstate(over="ignore"):
        steps, _, labors = _reference_reallocation(firms, **kwargs)
    assert trace.steps == steps
    assert [f.labor for f in trace.final_firms] == labors
    assert trace.iterations == 5
    assert np.isinf(trace.total_output).all()
    assert np.isfinite(trace.max_spread).all()


def test_theory_firm_validation():
    with pytest.raises(ValidationError, match="firm 5: id must be a string"):
        firm(id=5)
    with pytest.raises(ValidationError):
        firm(scale=0.0)
    with pytest.raises(ValidationError):
        firm(alpha=1.0)
    with pytest.raises(ValidationError):
        firm(beta=1.5)
    with pytest.raises(ValidationError):
        MarketContext(price=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400],
                         ids=["nan", "inf", "-inf", "huge-int"])
def test_non_finite_sizes_steps_and_prices_are_rejected(bad):
    for field in ("scale", "capital", "labor"):
        with pytest.raises(ValidationError, match="must be finite and > 0"):
            firm(**{field: bad})
    with pytest.raises(ValidationError, match="delta must be finite and > 0"):
        FixedStep(delta=bad)
    with pytest.raises(ValidationError, match="price must be finite and > 0"):
        MarketContext(price=bad)
