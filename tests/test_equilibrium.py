from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firmprod import (
    AdaptiveStep,
    FixedStep,
    MarketContext,
    ReallocationTrace,
    TheoryFirm,
    TraceStep,
    equilibrium_dispersion,
    marginal_labor_productivity,
    optimal_labor,
    output,
    profit,
    simulate_reallocation,
)
from firmprod.errors import InsufficientDataError, UnboundedDemandError, ValidationError


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
    # numpy scalars.
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
        if delta <= 0:
            break
        labors[donor] -= delta
        labors[recipient] += delta
        mp = mp_of(labors)
        spread = spread_of(mp)
        steps.append(TraceStep(iteration, ids[donor], ids[recipient], float(delta), spread,
                               total_output(labors), float(labors.sum())))
        converged = spread <= tol
    final = tuple(replace(f, labor=float(labors[i])) for i, f in enumerate(firms))
    return ReallocationTrace(steps=tuple(steps), converged=converged, final_firms=final)


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
    expected = _reference_reallocation(firms, **kwargs)
    assert trace.steps == expected.steps
    assert trace.converged == expected.converged
    assert [f.labor for f in trace.final_firms] == [f.labor for f in expected.final_firms]


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
        expected = _reference_reallocation(firms, **kwargs)
    assert trace.converged
    assert trace.steps == expected.steps
    assert [f.labor for f in trace.final_firms] == [f.labor for f in expected.final_firms]


def test_simulator_validation():
    with pytest.raises(InsufficientDataError):
        simulate_reallocation([firm()])
    with pytest.raises(ValueError):
        simulate_reallocation([firm(id="a"), firm(id="b")], tol=0.0)
    with pytest.raises(ValueError):
        simulate_reallocation([firm(id="a"), firm(id="b")], labor_floor=-1.0)
    with pytest.raises(ValidationError):
        simulate_reallocation([firm(id="a", beta=1.0), firm(id="b")])


def test_theory_firm_validation():
    with pytest.raises(ValidationError):
        firm(scale=0.0)
    with pytest.raises(ValidationError):
        firm(alpha=1.0)
    with pytest.raises(ValidationError):
        firm(beta=1.5)
    with pytest.raises(ValidationError):
        MarketContext(price=0.0)
