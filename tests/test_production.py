from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from firmprod import (
    CapitalRule,
    Dataset,
    FirmRecord,
    LognormalSize,
    MacroContext,
    ProductionFit,
    ScaleRegime,
    SynthSpec,
    ValueBasis,
    classify_returns,
    fit_by_stratum,
    fit_cobb_douglas,
    gen_cobb_douglas_firms,
    log_design,
)
from firmprod.errors import (
    CollinearityError,
    DataError,
    InsufficientDataError,
    NumericalError,
)
from firmprod.measures import COMPONENT_FIELDS, evaluate
from firmprod.production import LogDesign, fit_log_design


def synth(n=1000, *, log_a=0.0, alpha=0.4, beta=0.6, noise=0.0, seed=21, **kwargs):
    spec = SynthSpec(
        n=n,
        log_a=log_a,
        alpha=alpha,
        beta=beta,
        noise_sigma=noise,
        size_dist=kwargs.pop("size_dist", LognormalSize(3.0, 1.0)),
        capital_rule=kwargs.pop("capital_rule", CapitalRule(sigma=0.4)),
        seed=seed,
        **kwargs,
    )
    return gen_cobb_douglas_firms(spec)


def scale_records(dataset, *, value=1.0, capital=1.0):
    from dataclasses import replace

    records = tuple(
        replace(
            r,
            revenue=r.revenue * value,
            cogs=r.cogs * value,
            total_labor_cost=r.total_labor_cost * value,
            ordinary_income=r.ordinary_income * value,
            capital=r.capital * capital,
        )
        for r in dataset.records
    )
    return Dataset(records=records, currency_unit=dataset.currency_unit)


# ---------------------------------------------------------------------------
# log design
# ---------------------------------------------------------------------------


def test_log_design_powers_of_ten(make_record, make_dataset):
    d = make_dataset(
        make_record(firm_id="a", revenue=150.0, cogs=50.0, workers=10, capital=10.0),
        make_record(firm_id="b", revenue=110.0, cogs=10.0, workers=10, capital=100.0),
        make_record(firm_id="c", revenue=1001.0, cogs=1.0, workers=100, capital=10.0),
    )
    design = log_design(d)
    assert design.responses[0] == pytest.approx(2.0, abs=1e-15)
    assert tuple(design.regressors[0]) == (1.0, 1.0)
    assert design.excluded == 0


def test_log_design_excludes_nonpositive_and_absent(make_record, make_dataset):
    d = make_dataset(
        make_record(firm_id="neg", revenue=0.0, cogs=5.0),  # margin -5
        make_record(firm_id="nok", capital=None),
        make_record(firm_id="now", workers=0),
        make_record(firm_id="a", revenue=150.0, cogs=50.0, capital=10.0),
        make_record(firm_id="b", revenue=110.0, cogs=10.0, capital=100.0),
        make_record(firm_id="c", revenue=1001.0, cogs=1.0, workers=100, capital=10.0),
    )
    design = log_design(d)
    assert design.n == 3
    assert design.excluded == 3


def test_log_design_needs_three_records(make_record, make_dataset):
    d = make_dataset(make_record(firm_id="a"), make_record(firm_id="b"))
    with pytest.raises(InsufficientDataError):
        log_design(d)


def test_noiseless_responses_satisfy_the_model_exactly():
    d = synth(200, log_a=0.3, alpha=0.35, beta=0.6)
    design = log_design(d)
    predicted = 0.3 + 0.35 * design.regressors[:, 0] + 0.6 * design.regressors[:, 1]
    assert np.max(np.abs(design.responses - predicted)) < 1e-12


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def test_noiseless_exact_recovery():
    fit = fit_cobb_douglas(synth(1000, log_a=0.0, alpha=0.4, beta=0.6))
    assert abs(fit.log_a) < 1e-10
    assert abs(fit.alpha - 0.4) < 1e-10
    assert abs(fit.beta - 0.6) < 1e-10
    assert fit.r2 >= 1.0 - 1e-12
    assert fit.n_used == 1000


def test_identical_firms_are_collinear(make_record, make_dataset):
    d = make_dataset(*(make_record(firm_id=f"f{i}") for i in range(5)))
    with pytest.raises(CollinearityError, match="zero variance"):
        fit_cobb_douglas(d)


def test_capital_proportional_to_workers_is_collinear():
    d = synth(100, capital_rule=CapitalRule(coeff=3.0, exponent=1.0, sigma=0.0))
    with pytest.raises(CollinearityError, match="affine"):
        fit_cobb_douglas(d)


def test_noisy_recovery_of_planted_elasticities():
    d = synth(5000, alpha=0.35, beta=0.6, noise=0.1, size_dist=LognormalSize(3.0, 1.5))
    fit = fit_cobb_douglas(d)
    assert abs(fit.alpha - 0.35) < 0.02
    assert abs(fit.beta - 0.6) < 0.02
    assert fit.se_alpha > 0 and fit.se_beta > 0 and fit.se_log_a > 0


def test_standard_errors_cover_truth_at_reasonable_multiples():
    d = synth(5000, alpha=0.35, beta=0.6, noise=0.1, size_dist=LognormalSize(3.0, 1.5))
    fit = fit_cobb_douglas(d)
    assert abs(fit.alpha - 0.35) < 6 * fit.se_alpha
    assert abs(fit.beta - 0.6) < 6 * fit.se_beta


# ---------------------------------------------------------------------------
# invariances
# ---------------------------------------------------------------------------


def test_scaling_values_shifts_only_the_intercept():
    d = synth(400, noise=0.1)
    base = fit_cobb_douglas(d)
    scaled = fit_cobb_douglas(scale_records(d, value=7.3))
    assert scaled.log_a - base.log_a == pytest.approx(np.log10(7.3), abs=1e-9)
    assert scaled.alpha == pytest.approx(base.alpha, abs=1e-9)
    assert scaled.beta == pytest.approx(base.beta, abs=1e-9)
    assert scaled.r2 == pytest.approx(base.r2, abs=1e-9)


def test_scaling_capital_shifts_intercept_by_minus_alpha_log_c():
    d = synth(400, noise=0.1)
    base = fit_cobb_douglas(d)
    scaled = fit_cobb_douglas(scale_records(d, capital=5.0))
    assert scaled.alpha == pytest.approx(base.alpha, abs=1e-9)
    assert scaled.beta == pytest.approx(base.beta, abs=1e-9)
    assert scaled.log_a - base.log_a == pytest.approx(-base.alpha * np.log10(5.0), abs=1e-9)


def test_refit_on_own_predictions_is_idempotent(make_record, make_dataset):
    d = synth(300, noise=0.15)
    fit = fit_cobb_douglas(d)
    design = log_design(d)
    log_k, log_l = design.regressors[:, 0], design.regressors[:, 1]
    predicted = fit.log_a + fit.alpha * log_k + fit.beta * log_l
    records = []
    for i, (log_value, row) in enumerate(zip(predicted, design.regressors)):
        value = 10.0 ** float(log_value)
        records.append(
            make_record(
                firm_id=f"p{i}",
                revenue=2 * value,
                cogs=value,
                workers=int(round(10.0 ** row[1])),
                capital=10.0 ** row[0],
            )
        )
    refit = fit_cobb_douglas(make_dataset(*records))
    assert refit.log_a == pytest.approx(fit.log_a, abs=1e-10)
    assert refit.alpha == pytest.approx(fit.alpha, abs=1e-10)
    assert refit.beta == pytest.approx(fit.beta, abs=1e-10)
    assert refit.r2 >= 1.0 - 1e-12


# ---------------------------------------------------------------------------
# returns to scale
# ---------------------------------------------------------------------------


def _fit(alpha, beta):
    return ProductionFit(
        log_a=0.0, alpha=alpha, beta=beta, se_log_a=0.0, se_alpha=0.0, se_beta=0.0,
        r2=1.0, n_used=10, excluded=0,
    )


def test_classification_cases():
    assert classify_returns(_fit(0.4, 0.6), 0.05).classification is ScaleRegime.CONSTANT
    assert classify_returns(_fit(0.25, 0.6), 0.05).classification is ScaleRegime.DECREASING
    assert classify_returns(_fit(0.5, 0.6), 0.05).classification is ScaleRegime.INCREASING


def test_classification_boundaries():
    assert classify_returns(_fit(0.449, 0.6), 0.05).classification is ScaleRegime.CONSTANT
    assert classify_returns(_fit(0.449, 0.6), 0.04).classification is ScaleRegime.INCREASING
    assert classify_returns(_fit(0.351, 0.6), 0.05).classification is ScaleRegime.CONSTANT
    assert classify_returns(_fit(0.351, 0.6), 0.04).classification is ScaleRegime.DECREASING


def test_classification_requires_positive_tolerance():
    with pytest.raises(ValueError):
        classify_returns(_fit(0.4, 0.6), 0.0)


# ---------------------------------------------------------------------------
# productivity from the capital-equipment ratio
# ---------------------------------------------------------------------------


def test_capital_ratio_consistent_with_constant_returns_output():
    d = synth(200, log_a=0.1, alpha=0.4, beta=0.6)  # alpha + beta = 1
    for record in d.records[:50]:
        ratio = record.capital / record.workers
        predicted = 10.0 ** 0.1 * ratio ** 0.4  # 10**log_a * (K/L)**alpha
        actual = (record.revenue - record.cogs) / record.workers
        assert predicted == pytest.approx(actual, rel=1e-12)


# ---------------------------------------------------------------------------
# strata
# ---------------------------------------------------------------------------


def test_fit_by_stratum_splits_and_pools(make_dataset):
    from dataclasses import replace

    base_a = synth(80, seed=1).records
    base_b = synth(80, seed=2).records
    records = tuple(
        [replace(r, firm_id=f"a{i}", year=2001) for i, r in enumerate(base_a)]
        + [replace(r, firm_id=f"b{i}", year=2002, country="US") for i, r in enumerate(base_b)]
    )
    d = Dataset(records=records, currency_unit="synthetic")

    fits, failures = fit_by_stratum(d)
    assert set(fits) == {("JP", "manufacturing", 2001), ("US", "manufacturing", 2002)}
    assert not failures

    pooled, _ = fit_by_stratum(d, pool_years=True)
    assert set(pooled) == {("JP", "manufacturing", None), ("US", "manufacturing", None)}


def test_fit_by_stratum_reports_failures(make_record, make_dataset):
    tiny = make_dataset(make_record(firm_id="only"))
    fits, failures = fit_by_stratum(tiny)
    assert not fits
    assert list(failures) == [("JP", "manufacturing", 2003)]
    assert "3" in failures[("JP", "manufacturing", 2003)]


def _reference_design(d, basis, ctx):
    # The design as built before strata were split from one evaluation:
    # keep the records with positive capital, evaluate them, keep positive values.
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


def _reference_fit_by_stratum(d, basis, ctx, pool_years):
    # Group the records, build a Dataset per stratum and fit each one.
    groups = {}
    for record in d.records:
        key = (record.country, record.sector_class, None if pool_years else record.year)
        groups.setdefault(key, []).append(record)
    fits, failures = {}, {}
    for key in sorted(groups, key=lambda k: (k[0], k[1], k[2] if k[2] is not None else -1)):
        subset = Dataset(records=tuple(groups[key]), currency_unit=d.currency_unit)
        try:
            fits[key] = fit_log_design(_reference_design(subset, basis, ctx))
        except (DataError, NumericalError) as exc:
            failures[key] = str(exc)
    return fits, failures


_positive = st.floats(min_value=0.5, max_value=1e4)
_stratum_records = st.tuples(
    st.sampled_from(["JP", "US"]),
    st.sampled_from([2001, 2002]),
    st.sampled_from(["manufacturing", "non_manufacturing"]),
    _positive,  # revenue
    _positive,  # cogs: the gross margin is negative about half the time
    st.sampled_from([0, 1, 3, 10, 40, 250]),  # workers
    st.none() | st.just(0.0) | _positive,  # capital
    st.none() | st.tuples(  # the components, ordinary income first
        st.none() | st.floats(-500, 500), *[st.none() | st.floats(0, 50)] * 4
    ),
)
# JP 2002 has no macro entry, so the labor-share basis cannot value its records.
_STRATUM_CTX = MacroContext.from_rows(
    {"country": country, "year": year, "labor_share": share}
    for country, year, share in [("JP", 2001, 0.3), ("US", 2001, 0.5), ("US", 2002, 0.7)]
)


@given(
    st.lists(_stratum_records, max_size=30),
    st.sampled_from(list(ValueBasis)),
    st.booleans(),
    st.booleans(),
)
def test_fit_by_stratum_matches_per_stratum_dataset_reference(rows, basis, with_ctx, pool_years):
    d = Dataset(records=tuple(
        FirmRecord(firm_id=f"f{i}", year=year, country=country, sector="s",
                   sector_class=cls, revenue=revenue, cogs=cogs, workers=workers,
                   capital=capital, **dict(zip(COMPONENT_FIELDS, parts or [None] * 5)))
        for i, (country, year, cls, revenue, cogs, workers, capital, parts) in enumerate(rows)
    ))
    ctx = _STRATUM_CTX if with_ctx else None
    fits, failures = fit_by_stratum(d, basis, ctx, pool_years=pool_years)
    expected_fits, expected_failures = _reference_fit_by_stratum(d, basis, ctx, pool_years)
    assert list(fits) == list(expected_fits) and fits == expected_fits
    assert list(failures) == list(expected_failures) and failures == expected_failures
    try:
        reference = _reference_design(d, basis, ctx)
    except InsufficientDataError as exc:
        with pytest.raises(InsufficientDataError, match=re.escape(str(exc))):
            log_design(d, basis, ctx)
    else:
        design = log_design(d, basis, ctx)
        assert design.excluded == reference.excluded
        assert np.array_equal(design.responses, reference.responses)
        assert np.array_equal(design.regressors, reference.regressors)


def test_fit_log_design_direct_three_points(make_record, make_dataset):
    # n = 3 with 3 parameters: exact interpolation, zero standard errors.
    d = make_dataset(
        make_record(firm_id="a", revenue=150.0, cogs=50.0, workers=10, capital=10.0),
        make_record(firm_id="b", revenue=110.0, cogs=10.0, workers=10, capital=100.0),
        make_record(firm_id="c", revenue=1001.0, cogs=1.0, workers=100, capital=10.0),
    )
    fit = fit_log_design(log_design(d))
    assert fit.r2 >= 1.0 - 1e-12
    assert fit.se_alpha == 0.0


def test_ill_conditioned_design_falls_back_to_least_squares():
    # Nearly collinear capital (tiny scatter): condition number far above the
    # normal-equation limit, but still full rank; the fit must succeed and
    # reproduce noiseless data exactly.
    d = synth(500, capital_rule=CapitalRule(coeff=2.0, exponent=1.0, sigma=1e-8))
    design = log_design(d)
    x = np.column_stack([np.ones(design.n), design.regressors])
    assert np.linalg.cond(x) > 1e8
    fit = fit_cobb_douglas(d)
    assert fit.r2 >= 1.0 - 1e-12
