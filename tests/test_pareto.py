from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from firmprod import (
    Dataset,
    RankSizeSeries,
    TailSpec,
    fit_pareto,
    gen_pareto_sample,
    hill_estimate,
    pareto_time_series,
    rank_size,
)
from firmprod.errors import (
    ConfigError,
    EmptySeriesError,
    InsufficientDataError,
    ValidationError,
    ZeroVarianceError,
)


def exact_series(mu: float, n: int) -> RankSizeSeries:
    ranks = np.arange(1, n + 1, dtype=float)
    return rank_size(ranks ** (-1.0 / mu))


# ---------------------------------------------------------------------------
# rank-size construction
# ---------------------------------------------------------------------------


def test_rank_size_sorts_descending():
    series = rank_size([3.0, 1.0, 2.0])
    assert series.values.tolist() == [3.0, 2.0, 1.0]
    assert series.ranks.tolist() == [1, 2, 3]


def test_rank_size_singleton():
    series = rank_size([5.0])
    assert (series.values.tolist(), series.ranks.tolist()) == ([5.0], [1])


def test_rank_size_drops_nonpositive_with_count():
    series = rank_size([3.0, -1.0, 0.0, 2.0])
    assert series.n == 2
    assert series.excluded == 2


def test_rank_size_no_positive_values():
    with pytest.raises(EmptySeriesError):
        rank_size([0.0, -2.0])


@given(st.lists(st.sampled_from([1.0, 2.0, 3.0, 5.0]), min_size=1, max_size=30))
def test_rank_size_matches_stable_sort_oracle(values):
    series = rank_size(values)
    # Brute-force oracle: Python's stable sort on (original position, value) pairs.
    expected = [values[i] for i, _ in sorted(enumerate(values), key=lambda p: -p[1])]
    assert series.values.tolist() == expected


def test_rank_size_tie_order_is_input_order():
    # Ties must keep input order; track them through distinct neighbors.
    values = [2.0, 3.0, 2.0, 1.0]
    series = rank_size(values)
    assert series.values.tolist() == [3.0, 2.0, 2.0, 1.0]
    # Indices of the two 2.0s in the sort must be (0, 2) in input order:
    order = np.argsort(-np.asarray(values), kind="stable")
    assert order.tolist() == [1, 0, 2, 3]


def test_series_validation():
    with pytest.raises(ValidationError):
        RankSizeSeries(values=np.array([1.0, 2.0]))  # increasing
    with pytest.raises(ValidationError):
        RankSizeSeries(values=np.array([2.0, -1.0]))  # non-positive
    with pytest.raises(ValidationError):
        RankSizeSeries(values=np.array([]))


# ---------------------------------------------------------------------------
# tail exponent fitting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mu", [0.5, 1.0, 2.0, 3.7, 5.0])
@pytest.mark.parametrize("n", [100, 1000])
def test_fit_recovers_exact_power_law(mu, n):
    fit = fit_pareto(exact_series(mu, n))
    assert abs(fit.mu - mu) <= 1e-6
    assert fit.r2 >= 1.0 - 1e-12


def test_fit_zipf_series():
    ranks = np.arange(1, 1001, dtype=float)
    fit = fit_pareto(rank_size(1.0 / ranks))
    assert abs(fit.mu - 1.0) <= 1e-6


def test_fit_constant_series_is_zero_variance():
    with pytest.raises(ZeroVarianceError):
        fit_pareto(rank_size([4.0, 4.0, 4.0, 4.0]))


def test_fit_needs_three_points():
    with pytest.raises(InsufficientDataError):
        fit_pareto(rank_size([2.0, 1.0]))


@given(st.floats(min_value=1e-6, max_value=1e6))
def test_fit_is_scale_invariant(c):
    base = fit_pareto(exact_series(2.0, 200))
    scaled = fit_pareto(rank_size(c * exact_series(2.0, 200).values))
    assert scaled.mu == pytest.approx(base.mu, rel=1e-9)
    assert scaled.r2 == pytest.approx(base.r2, abs=1e-12)
    assert scaled.intercept - base.intercept == pytest.approx(
        base.mu * np.log10(c), abs=1e-6
    )


def test_dropping_largest_point_barely_moves_exact_fit():
    series = exact_series(2.0, 500)
    full = fit_pareto(series, TailSpec.whole())
    trimmed = fit_pareto(series, TailSpec.ranks(2, 500))
    assert abs(trimmed.mu - full.mu) <= 1e-6


def test_whole_equals_explicit_full_range():
    series = exact_series(1.5, 50)
    assert fit_pareto(series, TailSpec.whole()) == fit_pareto(series, TailSpec.ranks(1, 50))


def test_fraction_selection_enforces_minimum_points():
    series = exact_series(2.0, 50)
    fit = fit_pareto(series, TailSpec.fraction(0.1))  # 5 < 10 minimum
    assert (fit.min_rank, fit.max_rank) == (1, 10)
    assert fit.tail_fraction == pytest.approx(0.2)


def test_rank_range_clipped_and_validated():
    series = exact_series(2.0, 50)
    fit = fit_pareto(series, TailSpec.ranks(5, 500))
    assert fit.max_rank == 50
    with pytest.raises(InsufficientDataError):
        fit_pareto(series, TailSpec.ranks(51, 60))


def test_tailspec_parsing():
    assert TailSpec.parse("whole") == TailSpec.whole()
    assert TailSpec.parse("frac:0.25") == TailSpec.fraction(0.25)
    assert TailSpec.parse("ranks:2..500") == TailSpec.ranks(2, 500)
    for bad in ("tail", "frac:1.5", "ranks:5..2", "ranks:0..9"):
        with pytest.raises(ConfigError):
            TailSpec.parse(bad)


def test_fit_range_recorded_in_result():
    fit = fit_pareto(exact_series(2.0, 1000), TailSpec.fraction(0.1))
    assert (fit.min_rank, fit.max_rank) == (1, 100)
    assert fit.tail_fraction == pytest.approx(0.1)
    assert fit.n == 1000


def test_hill_cross_check_on_sampled_tail():
    values = gen_pareto_sample(2.0, 1.0, 20_000, seed=3)
    series = rank_size(values)
    hill = hill_estimate(series, TailSpec.fraction(0.1))
    assert hill == pytest.approx(2.0, rel=0.05)


# ---------------------------------------------------------------------------
# time series
# ---------------------------------------------------------------------------


def records_with_values(values, year, make_record):
    return [
        make_record(
            firm_id=f"f{year}_{i}",
            year=year,
            revenue=2 * v,
            cogs=v,
            workers=1,
        )
        for i, v in enumerate(values)
    ]


def test_single_year_series_equals_direct_fit(make_record):
    values = gen_pareto_sample(2.0, 1.0, 5000, seed=8)
    d = Dataset(records=tuple(records_with_values(values, 2003, make_record)))
    result = pareto_time_series({2003: d}, level="firm", tail=TailSpec.whole())
    assert list(result) == [2003]
    direct = fit_pareto(rank_size(values), TailSpec.whole())
    assert result[2003].mu == pytest.approx(direct.mu, rel=1e-12)


def test_series_tracks_step_in_planted_exponent(make_record):
    datasets = {}
    planted = {1999: 2.0, 2000: 2.0, 2001: 1.5, 2002: 1.5}
    for year, mu in planted.items():
        values = gen_pareto_sample(mu, 1.0, 10_000, seed=year)
        datasets[year] = Dataset(
            records=tuple(records_with_values(values, year, make_record))
        )
    fits = pareto_time_series(datasets, level="firm", tail=TailSpec.whole())
    for year, mu in planted.items():
        assert fits[year].mu == pytest.approx(mu, abs=0.1)


def test_unfittable_year_is_absent_not_fatal(make_record):
    good = Dataset(
        records=tuple(
            records_with_values(gen_pareto_sample(2.0, 1.0, 1000, seed=1), 2000, make_record)
        )
    )
    constant = Dataset(
        records=tuple(records_with_values([5.0] * 20, 2001, make_record))
    )
    fits = pareto_time_series({2000: good, 2001: constant}, level="firm", tail=TailSpec.whole())
    assert list(fits) == [2000]
