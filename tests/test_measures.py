from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from firmprod import (
    CapitalRule,
    Dataset,
    FirmRecord,
    FixedSize,
    MacroContext,
    SynthSpec,
    ValueBasis,
    added_value,
    aggregate_by_sector,
    backout_nonmanufacturing_ratio,
    evaluate,
    gdp_coverage,
    gen_cobb_douglas_firms,
    gross_margin,
    labor_productivity,
    size_sweep,
)
from firmprod.errors import (
    ConfigError,
    DegenerateShareError,
    IncompleteRecordError,
    InsufficientDataError,
    MacroContextError,
    ZeroWorkersError,
)
from firmprod.measures import COMPONENT_FIELDS, MacroEntry
from firmprod.records import Columns


def ctx_for(country="JP", year=2003, labor_share=1.0 / 3.0, gdp=None):
    return MacroContext.from_rows(
        [{"country": country, "year": year, "labor_share": labor_share, "gdp": gdp}]
    )


# ---------------------------------------------------------------------------
# gross margin and added value
# ---------------------------------------------------------------------------


def test_gross_margin_basic(make_record):
    assert gross_margin(make_record(revenue=100.0, cogs=40.0)) == 60.0
    assert gross_margin(make_record(revenue=40.0, cogs=100.0)) == -60.0


def test_added_value_labor_share_form(make_record):
    record = make_record(revenue=100.0, cogs=40.0)  # gross margin 60
    assert added_value(record, ValueBasis.ADDED_VALUE_LABOR_SHARE, ctx_for()) == pytest.approx(
        90.0, abs=1e-12
    )


def test_added_value_zero_share_equals_gross_margin(make_record):
    record = make_record(revenue=100.0, cogs=40.0)
    ctx = ctx_for(labor_share=0.0)
    assert added_value(record, ValueBasis.ADDED_VALUE_LABOR_SHARE, ctx) == 60.0


def test_added_value_two_forms_agree(make_record):
    # When the labor share is set from the record itself, the ratio form
    # reproduces gross margin + labor cost.
    rng = random.Random(7)
    for _ in range(200):
        margin = rng.uniform(1.0, 500.0)
        labor_cost = rng.uniform(0.0, 400.0)
        record = make_record(revenue=2 * margin, cogs=margin, total_labor_cost=labor_cost)
        share = labor_cost / (margin + labor_cost)
        ctx = ctx_for(labor_share=share)
        ratio_form = added_value(record, ValueBasis.ADDED_VALUE_LABOR_SHARE, ctx)
        sum_form = margin + labor_cost
        assert ratio_form == pytest.approx(sum_form, rel=1e-12)


def test_added_value_components_sum(make_record):
    record = make_record(
        ordinary_income=10.0,
        total_labor_cost=30.0,
        financial_expense=5.0,
        tax_public_charge=3.0,
        depreciation=2.0,
    )
    assert added_value(record, ValueBasis.ADDED_VALUE_COMPONENTS) == 50.0


def test_added_value_components_against_fsum_oracle(make_record):
    rng = random.Random(13)
    for _ in range(200):
        parts = {
            "ordinary_income": rng.uniform(-50, 50),
            "total_labor_cost": rng.uniform(0, 100),
            "financial_expense": rng.uniform(0, 20),
            "tax_public_charge": rng.uniform(0, 20),
            "depreciation": rng.uniform(0, 30),
        }
        record = make_record(**parts)
        expected = math.fsum(parts.values())
        assert added_value(record, ValueBasis.ADDED_VALUE_COMPONENTS) == pytest.approx(
            expected, rel=1e-12, abs=1e-12
        )


def test_added_value_missing_component(make_record):
    record = make_record(ordinary_income=None, depreciation=None)
    with pytest.raises(IncompleteRecordError, match="ordinary_income"):
        added_value(record, ValueBasis.ADDED_VALUE_COMPONENTS)


def test_added_value_requires_av_basis(make_record):
    with pytest.raises(ValueError):
        added_value(make_record(), ValueBasis.GROSS_MARGIN)


def test_added_value_share_form_needs_context(make_record):
    with pytest.raises(MacroContextError):
        added_value(make_record(), ValueBasis.ADDED_VALUE_LABOR_SHARE, None)


def test_degenerate_labor_share_rejected():
    with pytest.raises(DegenerateShareError):
        MacroEntry(labor_share=1.0)


def test_a_second_macro_entry_for_one_country_year_is_refused():
    rows = [{"country": "JP", "year": 2001, "labor_share": 0.3, "gdp": 100.0},
            {"country": "US", "year": 2001, "labor_share": 0.5},
            {"country": "JP", "year": 2001, "labor_share": 0.9, "gdp": 5.0}]
    with pytest.raises(ConfigError, match=r"^duplicate macro entry for \(JP, 2001\)$"):
        MacroContext.from_rows(rows)


# ---------------------------------------------------------------------------
# labor productivity
# ---------------------------------------------------------------------------


def test_labor_productivity_basic(make_record):
    measure = labor_productivity(make_record(revenue=100.0, cogs=40.0, workers=10))
    assert measure.value == 6.0
    assert measure.workers == 10


def test_labor_productivity_single_worker(make_record):
    record = make_record(revenue=100.0, cogs=40.0, workers=1)
    assert labor_productivity(record).value == 60.0


def test_labor_productivity_zero_workers(make_record):
    with pytest.raises(ZeroWorkersError):
        labor_productivity(make_record(workers=0))


def test_labor_productivity_builds_no_columns(make_record, monkeypatch):
    built = []
    init = Columns.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Columns, "__init__", counted_init)
    record = make_record(ordinary_income=5.0, financial_expense=1.0, tax_public_charge=2.0,
                         depreciation=3.0)
    for basis in ValueBasis:
        labor_productivity(record, basis, ctx_for())
    assert built == []


def test_mean_productivity_matches_lognormal_moment():
    # With fixed size and capital, productivity is base * 10**eps with
    # eps ~ Normal(0, sigma); its mean is base * exp((sigma*ln10)**2 / 2).
    sigma = 0.1
    spec = SynthSpec(
        n=20_000,
        log_a=0.0,
        alpha=0.35,
        beta=0.6,
        noise_sigma=sigma,
        size_dist=FixedSize(10),
        capital_rule=CapitalRule(sigma=0.0),
        seed=5,
    )
    dataset = gen_cobb_douglas_firms(spec)
    values = [labor_productivity(r).value for r in dataset.records]
    base = 10.0 ** (0.35 * np.log10(10.0) + 0.6 * np.log10(10.0) - np.log10(10.0))
    expected_mean = base * math.exp((sigma * math.log(10)) ** 2 / 2)
    assert np.mean(values) == pytest.approx(expected_mean, rel=0.01)


# ---------------------------------------------------------------------------
# sector aggregation
# ---------------------------------------------------------------------------


def test_single_firm_sector_is_its_productivity(make_record, make_dataset):
    d = make_dataset(make_record(revenue=100.0, cogs=40.0, workers=10))
    (agg,) = aggregate_by_sector(d).values()
    assert agg.productivity == 6.0
    assert agg.n_firms == 1


def test_pooled_ratio_differs_from_mean_of_ratios(make_record, make_dataset):
    d = make_dataset(
        make_record(firm_id="a", revenue=120.0, cogs=60.0, workers=10),  # 6 per worker
        make_record(firm_id="b", revenue=60.0, cogs=20.0, workers=20),  # 2 per worker
    )
    pooled = aggregate_by_sector(d, mode="pooled")["steel"]
    assert pooled.productivity == pytest.approx(100.0 / 30.0)
    mean = aggregate_by_sector(d, mode="mean")["steel"]
    assert mean.productivity == pytest.approx(4.0)


def test_pooled_example_from_two_equal_sized_firms(make_record, make_dataset):
    d = make_dataset(
        make_record(firm_id="a", revenue=120.0, cogs=60.0, workers=10),
        make_record(firm_id="b", revenue=60.0, cogs=20.0, workers=10),
    )
    assert aggregate_by_sector(d)["steel"].productivity == pytest.approx(100.0 / 20.0)


def test_aggregate_matches_brute_force_grouping(make_record, make_dataset):
    rng = random.Random(3)
    records = [
        make_record(
            firm_id=f"f{i}",
            sector=rng.choice(["food", "steel", "chem"]),
            revenue=rng.uniform(10, 500),
            cogs=rng.uniform(0, 10),
            workers=rng.randint(1, 40),
        )
        for i in range(120)
    ]
    d = make_dataset(*records)
    aggregates = aggregate_by_sector(d)
    for sector in {"food", "steel", "chem"}:
        members = [r for r in records if r.sector == sector]
        total_value = sum(r.revenue - r.cogs for r in members)
        total_workers = sum(r.workers for r in members)
        assert aggregates[sector].total_value == total_value
        assert aggregates[sector].total_workers == total_workers
        assert aggregates[sector].productivity == total_value / total_workers



_money = st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)
_income = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
_record_fields = st.tuples(
    st.sampled_from(["food", "steel", "chem"]),
    st.sampled_from(["JP", "JP", "US", "DE"]),  # the context below has no DE entry
    _money,
    _money,
    st.integers(0, 60),
    # COMPONENT_FIELDS order: ordinary income (may be negative), then four costs;
    # a record either reports all of them or misses one
    st.tuples(_income, _money, _money, _money, _money).flatmap(
        lambda parts: st.sampled_from(
            [parts] * 4 + [parts[:i] + (None,) + parts[i + 1:] for i in range(5)]
        )
    ),
)


_LABOR_SHARES = {"JP": 1.0 / 3.0, "US": 0.6}
_CTX = MacroContext.from_rows([{"country": country, "year": 2003, "labor_share": share}
                               for country, share in _LABOR_SHARES.items()])


def _reference_value(record, basis):
    if basis is ValueBasis.GROSS_MARGIN:
        return record.revenue - record.cogs
    if basis is ValueBasis.ADDED_VALUE_LABOR_SHARE:
        if record.country not in _LABOR_SHARES:
            raise MacroContextError(record.country)
        return (record.revenue - record.cogs) / (1.0 - _LABOR_SHARES[record.country])
    total = 0.0
    for name in COMPONENT_FIELDS:
        part = getattr(record, name)
        if part is None:
            raise IncompleteRecordError(name)
        total += part
    return total


def _reference_pool(records, basis, mode):
    total_value = 0.0
    total_workers = 0
    ratio_sum = 0.0
    for record in records:
        value = _reference_value(record, basis)
        total_value += value
        total_workers += record.workers
        ratio_sum += value / record.workers
    productivity = total_value / total_workers if mode == "pooled" else ratio_sum / len(records)
    return total_value, total_workers, productivity, len(records)


@given(
    st.lists(_record_fields, max_size=25),
    st.sampled_from(list(ValueBasis)),
    st.sampled_from(["pooled", "mean"]),
    st.lists(st.integers(-3, 70), max_size=6, unique=True).map(sorted),
)
def test_reducers_match_left_to_right_reference(fields, basis, mode, thresholds):
    records = [
        FirmRecord(firm_id=f"f{i}", year=2003, country=country, sector=sector,
                   sector_class="manufacturing", revenue=revenue, cogs=cogs, workers=workers,
                   **dict(zip(COMPONENT_FIELDS, parts)))
        for i, (sector, country, revenue, cogs, workers, parts) in enumerate(fields)
    ]
    d = Dataset(records=tuple(records))

    def evaluable(r):
        if basis is ValueBasis.ADDED_VALUE_LABOR_SHARE:
            return r.country in _LABOR_SHARES
        return basis is ValueBasis.GROSS_MARGIN or all(
            getattr(r, name) is not None for name in COMPONENT_FIELDS
        )

    # evaluate keeps exactly the records labor_productivity values, at its values,
    # and in strict mode raises the error of the first record it refuses
    kept, refusals = [], []
    for r in records:
        try:
            kept.append((r, labor_productivity(r, basis, _CTX).value))
        except (ZeroWorkersError, IncompleteRecordError, MacroContextError) as exc:
            refusals.append(exc)
    ev = evaluate(d, basis, _CTX)
    assert ev.records == tuple(r for r, _ in kept)
    assert ev.productivity.tolist() == [value for _, value in kept]
    assert ev.excluded == len(refusals)
    if refusals:
        with pytest.raises(type(refusals[0])) as caught:
            evaluate(d, basis, _CTX, strict=True)
        assert str(caught.value) == str(refusals[0])
    else:
        assert evaluate(d, basis, _CTX, strict=True).records == ev.records

    if all(r.workers > 0 and evaluable(r) for r in records):
        expected = {}
        for sector in dict.fromkeys(r.sector for r in records):
            members = [r for r in records if r.sector == sector]
            expected[sector] = _reference_pool(members, basis, mode)
        got = aggregate_by_sector(d, basis, _CTX, mode=mode)
        assert list(got) == list(expected)
        for sector, agg in got.items():
            assert (agg.total_value, agg.total_workers, agg.productivity, agg.n_firms) == (
                expected[sector]
            )
    else:
        with pytest.raises((ZeroWorkersError, IncompleteRecordError, MacroContextError)):
            aggregate_by_sector(d, basis, _CTX, mode=mode)

    admitted = [r for r in records if thresholds and r.workers >= max(thresholds[0], 1)]
    if all(evaluable(r) for r in admitted):
        expected_sweep = {}
        for threshold in thresholds:
            members = [r for r in admitted if r.workers >= threshold]
            expected_sweep[threshold] = (
                _reference_pool(members, basis, mode)[2] if members else None
            )
        assert size_sweep(d, thresholds, basis, _CTX, mode=mode) == expected_sweep
    else:
        refused = (MacroContextError if basis is ValueBasis.ADDED_VALUE_LABOR_SHARE
                   else IncompleteRecordError)
        with pytest.raises(refused):
            size_sweep(d, thresholds, basis, _CTX, mode=mode)

def test_pooled_productivity_within_member_range(make_record, make_dataset):
    rng = random.Random(17)
    records = [
        make_record(
            firm_id=f"f{i}",
            revenue=rng.uniform(50, 200),
            cogs=rng.uniform(0, 40),
            workers=rng.randint(1, 30),
        )
        for i in range(50)
    ]
    d = make_dataset(*records)
    ratios = [(r.revenue - r.cogs) / r.workers for r in records]
    agg = aggregate_by_sector(d)["steel"]
    assert min(ratios) <= agg.productivity <= max(ratios)


@pytest.mark.parametrize("mode", ["pooled", "mean"])
def test_pooling_an_empty_selection_is_insufficient_data(mode, make_record, make_dataset):
    ev = evaluate(make_dataset(make_record()))
    for source, where in ((evaluate(Dataset()), None), (ev, np.zeros(1, dtype=bool)),
                          (ev, np.array([], dtype=np.intp))):
        with pytest.raises(InsufficientDataError, match="at least one record"):
            source.pool(mode, where)


def test_aggregate_refuses_zero_workers(make_record, make_dataset):
    d = make_dataset(make_record(workers=0))
    with pytest.raises(ZeroWorkersError):
        aggregate_by_sector(d)


def test_empty_dataset_gives_empty_mapping(make_dataset):
    assert aggregate_by_sector(make_dataset()) == {}


def test_an_evaluation_compares_and_hashes_by_identity(make_record, make_dataset):
    d = make_dataset(make_record(), make_record(firm_id="F2", revenue=50.0))
    ev = evaluate(d)
    assert ev == ev
    assert ev != evaluate(d)  # equal arrays, another evaluation
    assert hash(ev) == hash(ev)
    assert len({ev, evaluate(d)}) == 2


# ---------------------------------------------------------------------------
# GDP coverage
# ---------------------------------------------------------------------------


def test_gdp_coverage_basic(make_record, make_dataset):
    # added value via components: 250; gdp 500 -> 0.5
    d = make_dataset(
        make_record(
            ordinary_income=250.0,
            total_labor_cost=0.0,
            financial_expense=0.0,
            tax_public_charge=0.0,
            depreciation=0.0,
        )
    )
    ctx = ctx_for(gdp=500.0)
    assert gdp_coverage(d, ctx, 2003, ValueBasis.ADDED_VALUE_COMPONENTS) == 0.5


def test_gdp_coverage_empty_dataset_is_zero(make_dataset):
    assert gdp_coverage(make_dataset(), ctx_for(), 2003) == 0.0


def test_gdp_coverage_half_constructed_exactly(make_record, make_dataset):
    # gross margin 100, labor share 0.5 -> added value 200; gdp 400 -> exactly 0.5
    d = make_dataset(make_record(revenue=140.0, cogs=40.0))
    ctx = ctx_for(labor_share=0.5, gdp=400.0)
    assert gdp_coverage(d, ctx, 2003) == 0.5


def test_gdp_coverage_counts_only_what_evaluate_keeps(make_record, make_dataset):
    # a zero-worker firm is no firm evaluate keeps: it raises, as in aggregate_by_sector
    d = make_dataset(make_record(firm_id="a", revenue=140.0, cogs=40.0, workers=3),
                     make_record(firm_id="b", revenue=50.0, cogs=10.0, workers=0))
    ctx = ctx_for(labor_share=0.5, gdp=400.0)
    with pytest.raises(ZeroWorkersError, match=r"\(b, 2003\)"):
        gdp_coverage(d, ctx, 2003)


def test_gdp_coverage_refuses_the_gross_margin_basis(make_dataset):
    with pytest.raises(ValueError, match="not an added-value basis"):
        gdp_coverage(make_dataset(), ctx_for(), 2003, ValueBasis.GROSS_MARGIN)


def test_gdp_coverage_additive_over_disjoint_datasets(make_record, make_dataset):
    a = make_dataset(make_record(firm_id="a", revenue=150.0, cogs=30.0))
    b = make_dataset(
        make_record(firm_id="b", revenue=90.0, cogs=10.0),
        make_record(firm_id="c", revenue=55.0, cogs=5.0),
    )
    ctx = ctx_for(labor_share=0.25, gdp=1234.5)
    union = make_dataset(*a.records, *b.records)
    total = gdp_coverage(union, ctx, 2003)
    assert total == pytest.approx(
        gdp_coverage(a, ctx, 2003) + gdp_coverage(b, ctx, 2003), rel=1e-12
    )


def test_gdp_coverage_missing_gdp(make_record, make_dataset):
    d = make_dataset(make_record())
    with pytest.raises(MacroContextError, match="GDP"):
        gdp_coverage(d, ctx_for(gdp=None), 2003)


def test_gdp_coverage_mixed_countries_needs_explicit(make_record, make_dataset):
    d = make_dataset(
        make_record(firm_id="a", country="JP"),
        make_record(firm_id="b", country="US"),
    )
    ctx = MacroContext.from_rows(
        [
            {"country": "JP", "year": 2003, "labor_share": 0.3, "gdp": 100.0},
            {"country": "US", "year": 2003, "labor_share": 0.3, "gdp": 100.0},
        ]
    )
    with pytest.raises(ValueError, match="country"):
        gdp_coverage(d, ctx, 2003)
    assert gdp_coverage(d, ctx, 2003, country="JP") > 0


# ---------------------------------------------------------------------------
# back-out of the non-manufacturing ratio
# ---------------------------------------------------------------------------


def test_backout_published_figures():
    result = backout_nonmanufacturing_ratio(0.36, 0.89, 0.71)
    assert abs(result - 0.60875) <= 1e-12


def test_backout_no_manufacturing_limit():
    # As the manufacturing share vanishes the answer approaches the overall ratio.
    assert backout_nonmanufacturing_ratio(1e-12, 0.89, 0.71) == pytest.approx(0.71, abs=1e-9)


@given(
    st.floats(0.01, 0.99),
    st.floats(0.0, 2.0),
    st.floats(0.0, 2.0),
)
def test_backout_inverts_the_forward_map(share, mfg, overall):
    x = backout_nonmanufacturing_ratio(share, mfg, overall)
    assert share * mfg + (1 - share) * x == pytest.approx(overall, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("share", [0.0, 1.0, -0.2, 1.7])
def test_backout_rejects_degenerate_share(share):
    with pytest.raises(ValueError):
        backout_nonmanufacturing_ratio(share, 0.89, 0.71)


# ---------------------------------------------------------------------------
# size sweep
# ---------------------------------------------------------------------------


def test_sweep_at_zero_equals_whole_dataset_pooled(make_record, make_dataset):
    records = [
        make_record(firm_id=f"f{i}", revenue=100.0 + i, cogs=10.0, workers=5 + i)
        for i in range(10)
    ]
    d = make_dataset(*records)
    sweep = size_sweep(d, [0])
    total_value = sum(r.revenue - r.cogs for r in records)
    total_workers = sum(r.workers for r in records)
    assert sweep[0] == total_value / total_workers


def test_sweep_threshold_excludes_small_firms(make_record, make_dataset):
    d = make_dataset(
        make_record(firm_id="small", revenue=50.0, cogs=0.0, workers=5),
        make_record(firm_id="large", revenue=500.0, cogs=0.0, workers=50),
    )
    sweep = size_sweep(d, [10])
    assert sweep[10] == 10.0  # only the 50-worker firm counts


def test_sweep_inclusive_boundary(make_record, make_dataset):
    d = make_dataset(
        make_record(firm_id="a", workers=5),
        make_record(firm_id="b", workers=10),
        make_record(firm_id="c", workers=20),
    )
    sweep = size_sweep(d, [10])
    kept_workers = 10 + 20
    assert sweep[10] == pytest.approx((60.0 + 60.0) / kept_workers)


def test_sweep_empty_point_is_none(make_record, make_dataset):
    d = make_dataset(make_record(workers=3))
    assert size_sweep(d, [0, 100]) == {0: pytest.approx(20.0), 100: None}


def test_sweep_requires_ascending_thresholds(make_dataset):
    with pytest.raises(ValueError, match="ascending"):
        size_sweep(make_dataset(), [10, 10])
    with pytest.raises(ValueError, match="ascending"):
        size_sweep(make_dataset(), [10, 5])


def test_sweep_mean_mode(make_record, make_dataset):
    d = make_dataset(
        make_record(firm_id="a", revenue=120.0, cogs=60.0, workers=10),  # 6
        make_record(firm_id="b", revenue=60.0, cogs=20.0, workers=20),  # 2
    )
    assert size_sweep(d, [0], mode="mean")[0] == pytest.approx(4.0)
