from __future__ import annotations

import json

import numpy as np
import pytest

from firmprod import (
    CapitalRule,
    FixedSize,
    LognormalSize,
    ParetoSize,
    SynthSpec,
    TailSpec,
    ValueBasis,
    added_value,
    fit_pareto,
    gen_cobb_douglas_firms,
    gen_pareto_sample,
    gen_size_graded_economy,
    gross_margin,
    rank_size,
    size_sweep,
)
from firmprod.errors import ConfigError, ValidationError
from firmprod.measures import MacroContext
from firmprod.synth import pareto_inverse_cdf


def monotone_spec(**overrides):
    """Noiseless, scatter-free population: productivity is a pure function of size."""
    values = dict(
        n=400,
        log_a=0.0,
        alpha=0.35,
        beta=0.6,
        noise_sigma=0.0,
        size_dist=LognormalSize(3.0, 1.0),
        capital_rule=CapitalRule(sigma=0.0),
        seed=31,
    )
    values.update(overrides)
    return SynthSpec(**values)


# ---------------------------------------------------------------------------
# forward model
# ---------------------------------------------------------------------------


def test_single_noiseless_record_satisfies_log_identity():
    spec = SynthSpec(n=1, noise_sigma=0.0, seed=3)
    (record,) = gen_cobb_douglas_firms(spec).records
    log_value = np.log10(gross_margin(record))
    expected = (
        spec.log_a
        + spec.alpha * np.log10(record.capital)
        + spec.beta * np.log10(record.workers)
    )
    assert log_value == pytest.approx(expected, abs=1e-12)


def test_same_seed_is_bit_identical():
    spec = SynthSpec(n=300, noise_sigma=0.1, labor_share=0.4, seed=123)
    assert gen_cobb_douglas_firms(spec).records == gen_cobb_douglas_firms(spec).records


def test_different_seed_differs():
    a = gen_cobb_douglas_firms(SynthSpec(n=50, seed=1, noise_sigma=0.1))
    b = gen_cobb_douglas_firms(SynthSpec(n=50, seed=2, noise_sigma=0.1))
    assert a.records != b.records


def test_growing_n_preserves_earlier_firms():
    small = gen_cobb_douglas_firms(SynthSpec(n=50, seed=9, noise_sigma=0.1))
    large = gen_cobb_douglas_firms(SynthSpec(n=200, seed=9, noise_sigma=0.1))
    assert small.records == large.records[:50]


def test_noise_setting_does_not_change_firms():
    noisy = gen_cobb_douglas_firms(SynthSpec(n=50, seed=9, noise_sigma=0.2))
    clean = gen_cobb_douglas_firms(SynthSpec(n=50, seed=9, noise_sigma=0.0))
    assert [r.workers for r in noisy.records] == [r.workers for r in clean.records]
    assert [r.capital for r in noisy.records] == [r.capital for r in clean.records]


def test_labor_share_identity_is_exact():
    spec = SynthSpec(n=200, noise_sigma=0.1, labor_share=0.35, seed=8)
    ctx = MacroContext.from_rows(
        [{"country": spec.country, "year": spec.year, "labor_share": 0.35}]
    )
    for record in gen_cobb_douglas_firms(spec).records:
        ratio_form = added_value(record, ValueBasis.ADDED_VALUE_LABOR_SHARE, ctx)
        sum_form = gross_margin(record) + record.total_labor_cost
        assert ratio_form == pytest.approx(sum_form, rel=1e-12)


def test_component_sum_matches_labor_share_added_value():
    spec = SynthSpec(n=100, noise_sigma=0.1, labor_share=0.5, seed=8)
    for record in gen_cobb_douglas_firms(spec).records:
        components = added_value(record, ValueBasis.ADDED_VALUE_COMPONENTS)
        sum_form = gross_margin(record) + record.total_labor_cost
        assert components == pytest.approx(sum_form, rel=1e-12)


def test_sector_assignment_round_robin():
    d = gen_cobb_douglas_firms(SynthSpec(n=10, n_sectors=3, seed=0))
    assert [r.sector for r in d.records[:4]] == ["S00", "S01", "S02", "S00"]


def test_fixed_size_population():
    d = gen_cobb_douglas_firms(SynthSpec(n=20, size_dist=FixedSize(17), seed=0))
    assert {r.workers for r in d.records} == {17}


# ---------------------------------------------------------------------------
# power-law sampler
# ---------------------------------------------------------------------------


def test_inverse_cdf_boundary_is_xmin():
    assert pareto_inverse_cdf(1.0, 2.0, 3.5) == 3.5


def test_samples_respect_support():
    for seed in (0, 1, 2):
        values = gen_pareto_sample(1.5, 2.0, 5000, seed=seed)
        assert values.min() >= 2.0


def test_sampler_is_deterministic():
    a = gen_pareto_sample(2.0, 1.0, 1000, seed=5)
    b = gen_pareto_sample(2.0, 1.0, 1000, seed=5)
    assert np.array_equal(a, b)


def test_sampled_exponent_recovered_by_fit():
    values = gen_pareto_sample(2.0, 1.0, 100_000, seed=17)
    fit = fit_pareto(rank_size(values), TailSpec.whole())
    assert abs(fit.mu - 2.0) <= 0.04


def test_sampler_validation():
    with pytest.raises(ValidationError):
        gen_pareto_sample(0.0, 1.0, 10)
    with pytest.raises(ValidationError):
        gen_pareto_sample(2.0, 1.0, 0)
    # The rules of ParetoSize: a nan exponent would draw only nan, an infinite one only xmin.
    for mu, xmin in ((float("nan"), 1.0), (float("inf"), 1.0), (2.0, float("inf"))):
        with pytest.raises(ValidationError, match="must be a finite number"):
            gen_pareto_sample(mu, xmin, 10)


# ---------------------------------------------------------------------------
# size-graded economies
# ---------------------------------------------------------------------------


def test_zero_gradient_reproduces_base_population():
    spec = monotone_spec()
    assert gen_size_graded_economy(spec, 0.0).records == gen_cobb_douglas_firms(spec).records


def test_positive_gradient_gives_nondecreasing_sweep():
    d = gen_size_graded_economy(monotone_spec(), 0.3)
    thresholds = [0, 5, 10, 20, 40, 80]
    sweep = size_sweep(d, thresholds)
    values = [v for v in sweep.values() if v is not None]
    assert all(b >= a - 1e-12 * abs(a) for a, b in zip(values, values[1:]))


def test_negative_gradient_gives_nonincreasing_sweep():
    d = gen_size_graded_economy(monotone_spec(), -0.3)
    sweep = size_sweep(d, [0, 5, 10, 20, 40, 80])
    values = [v for v in sweep.values() if v is not None]
    assert all(b <= a + 1e-12 * abs(a) for a, b in zip(values, values[1:]))


def test_gradient_rescales_productivity_around_median():
    spec = monotone_spec(n=101, size_dist=FixedSize(10))
    base = gen_cobb_douglas_firms(spec)
    graded = gen_size_graded_economy(spec, 0.7)
    # all firms sit at the median size, so grading is a no-op
    assert [gross_margin(r) for r in graded.records] == [
        pytest.approx(gross_margin(r), rel=1e-12) for r in base.records
    ]


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def test_spec_from_json(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps(
            {
                "n": 10,
                "alpha": 0.3,
                "beta": 0.65,
                "size_dist": {"kind": "pareto", "mu": 1.5, "xmin": 5.0},
                "capital_rule": {"coeff": 2.0, "exponent": 0.9, "sigma": 0.2},
                "labor_share": 0.4,
                "seed": 6,
            }
        )
    )
    spec = SynthSpec.from_json(path)
    assert spec.size_dist == ParetoSize(1.5, 5.0)
    assert spec.capital_rule == CapitalRule(2.0, 0.9, 0.2)
    assert len(gen_cobb_douglas_firms(spec)) == 10


def test_spec_from_json_rejects_bad_input(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"n": 10, "size_dist": {"kind": "weibull"}}))
    with pytest.raises(ConfigError):
        SynthSpec.from_json(path)
    path.write_text(json.dumps({"n": 10, "nonsense": 1}))
    with pytest.raises(ConfigError):
        SynthSpec.from_json(path)


def test_spec_validation():
    with pytest.raises(ValidationError):
        SynthSpec(n=0)
    with pytest.raises(ValidationError):
        SynthSpec(n=1, labor_share=1.0)
    with pytest.raises(ValidationError):
        SynthSpec(n=1, seed=-1)
    with pytest.raises(ValidationError):
        SynthSpec(n=1, noise_sigma=-0.1)
