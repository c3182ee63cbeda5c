"""Command-line front end.

Subcommands wire the library end to end: generate synthetic data, validate
and summarize input files, compute productivity tables, fit production
functions and power-law tails, run the reallocation simulator, and emit
plot-ready CSV/JSON. Identical configuration and inputs produce
byte-identical output files.

Exit codes: 0 success, 2 configuration error (including bad flags),
3 data error, 4 numerical degeneracy.
"""

from __future__ import annotations

import io
from contextlib import suppress
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from . import __version__
from ._emit import atomic_write_text, config_hash, header_lines, write_table
from .equilibrium import (
    AdaptiveStep,
    FixedStep,
    TheoryFirm,
    marginal_labor_productivity,
    simulate_reallocation,
)
from .errors import ConfigError, DataError, NumericalError, ValidationError
from .ingest import (
    CsvSchema,
    ParseReport,
    filter_dataset,
    parse_firm_records,
    read_json_config,
    write_firm_records,
)
from .measures import Evaluation, MacroContext, ValueBasis, evaluate
from .pareto import TailSpec, default_tail, fit_pareto, fit_years, level_values, rank_size
from .production import classify_returns, fit_by_stratum
from .synth import SynthSpec, gen_cobb_douglas_firms

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

_BASIS_FLAGS = {
    "gm": ValueBasis.GROSS_MARGIN,
    "av-share": ValueBasis.ADDED_VALUE_LABOR_SHARE,
    "av-components": ValueBasis.ADDED_VALUE_COMPONENTS,
}


class _Cli(click.Group):
    """Maps package errors onto the documented exit codes."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except ConfigError as exc:
            click.echo(f"error (config): {exc}", err=True)
            ctx.exit(EXIT_CONFIG)
        except DataError as exc:
            click.echo(f"error (data): {exc}", err=True)
            ctx.exit(EXIT_DATA)
        except NumericalError as exc:
            click.echo(f"error (numerical): {exc}", err=True)
            ctx.exit(EXIT_NUMERICAL)


@click.group(cls=_Cli)
@click.version_option(version=__version__, prog_name="firmprod")
def main() -> None:
    """Firm-level labor productivity analytics.

    Exit codes: 0 success; 2 config error; 3 data error; 4 numerical error.
    """


_input_option = click.option(
    "--input", "input_path", type=click.Path(exists=True, dir_okay=False), required=True,
    help="Delimited firm-records file.",
)
_schema_option = click.option(
    "--schema", "schema_path", type=click.Path(exists=True, dir_okay=False), default=None,
    help="JSON column-mapping config (canonical headers if omitted).",
)
_macro_option = click.option(
    "--macro", "macro_path", type=click.Path(exists=True, dir_okay=False), default=None,
    help="JSON macro context: labor_share/gdp/exchange_rate per (country, year).",
)
_basis_option = click.option(
    "--basis", type=click.Choice(sorted(_BASIS_FLAGS)), default="gm", show_default=True,
    help="Value measure: gross margin or one of the added-value forms.",
)
_strict_option = click.option(
    "--strict", is_flag=True, help="Fail on the first bad input row instead of skipping."
)
_out_option = click.option(
    "--out", "out_dir", type=click.Path(file_okay=False), required=True,
    help="Output directory (created if missing).",
)
_format_option = click.option(
    "--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True,
    help="Output file format for analysis tables.",
)
_mode_option = click.option(
    "--mode", type=click.Choice(["pooled", "mean"]), default="pooled", show_default=True,
    help="Aggregate productivity as a pooled ratio or a mean of firm ratios.",
)
_year_option = click.option("--year", type=int, default=None, help="Restrict to one year.")


def _load(input_path: str, schema_path: str | None, strict: bool) -> ParseReport:
    schema = CsvSchema.from_json(schema_path) if schema_path else CsvSchema()
    return parse_firm_records(input_path, schema, strict=strict)


def _load_macro(macro_path: str | None) -> MacroContext | None:
    return MacroContext.from_json(macro_path) if macro_path else None


def _evaluate_input(input_path: str, schema_path: str | None, strict: bool,
                    macro_path: str | None, basis: str,
                    year: int | None = None) -> tuple[Evaluation, MacroContext | None]:
    """Parse the input, keep one year if asked, and evaluate each record once."""
    dataset = _load(input_path, schema_path, strict).dataset
    ctx = _load_macro(macro_path)
    records = dataset if year is None else filter_dataset(dataset, year=year)
    return evaluate(records, _BASIS_FLAGS[basis], ctx), ctx


def _echo_excluded(ev: Evaluation) -> None:
    if ev.excluded:
        click.echo(f"excluded {ev.excluded} records the basis could not evaluate", err=True)


def _log10_or_none(value: float) -> float | None:
    return float(np.log10(value)) if value > 0 else None


@main.command()
@click.option("--spec", "spec_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="JSON synthetic-population spec.")
@click.option("--seed", type=int, default=None, help="Override the spec's seed.")
@_out_option
def synth(spec_path: str, seed: int | None, out_dir: str) -> None:
    """Generate a synthetic firm dataset (written in the ingest CSV schema)."""
    spec = SynthSpec.from_json(spec_path)
    if seed is not None:
        spec = replace(spec, seed=seed)
    try:
        dataset = gen_cobb_douglas_firms(spec)
    except ValidationError as exc:  # the spec alone decides every generated value
        raise ConfigError(f"{spec_path}: bad synth spec: {exc}") from exc
    cfg = config_hash({"command": "synth", "spec": spec_path, "seed": spec.seed})

    buffer = io.StringIO()
    write_firm_records(dataset, buffer)
    body = buffer.getvalue()
    head = "\n".join(header_lines(cfg, len(dataset))) + "\n"
    target = Path(out_dir) / "firms.csv"
    atomic_write_text(target, head + body)
    click.echo(f"wrote {len(dataset)} records to {target}")


@main.command()
@_input_option
@_schema_option
@_strict_option
@_out_option
@_format_option
def ingest(input_path: str, schema_path: str | None, strict: bool, out_dir: str, fmt: str) -> None:
    """Validate an input file and write a summary."""
    report = _load(input_path, schema_path, strict)
    dataset = report.dataset
    years = dataset.years()
    rows = [
        ("records", len(dataset)),
        ("skipped_rows", report.n_skipped),
        ("firms", len(set(dataset.column("firm_id").tolist()))),
        ("countries", ";".join(dataset.countries())),
        ("year_min", years[0] if years else None),
        ("year_max", years[-1] if years else None),
        ("currency_unit", dataset.currency_unit),
    ]
    cfg = config_hash({"command": "ingest", "input": input_path, "schema": schema_path,
                       "strict": strict})
    target = write_table(Path(out_dir) / "summary", ("key", "value"), rows, cfg, fmt)
    for issue in report.skipped:
        click.echo(f"skipped line {issue.line}: {issue.reason}", err=True)
    click.echo(f"parsed {len(dataset)} records ({report.n_skipped} skipped); wrote {target}")


@main.command()
@_input_option
@_schema_option
@_macro_option
@_basis_option
@_year_option
@_mode_option
@_strict_option
@_out_option
@_format_option
def measures(input_path: str, schema_path: str | None, macro_path: str | None, basis: str,
             year: int | None, mode: str, strict: bool, out_dir: str, fmt: str) -> None:
    """Per-firm and per-sector productivity tables plus GDP coverage."""
    ev, ctx = _evaluate_input(input_path, schema_path, strict, macro_path, basis, year)
    cfg = config_hash({"command": "measures", "input": input_path, "schema": schema_path,
                       "macro": macro_path, "basis": basis, "year": year, "mode": mode})

    out = Path(out_dir)
    keys = [ev.column(name).tolist()
            for name in ("firm_id", "year", "country", "sector", "sector_class")]
    firm_table = [
        (
            *key, workers, value, productivity,
            _log10_or_none(float(workers)), _log10_or_none(productivity),
        )
        for *key, workers, value, productivity in zip(
            *keys, ev.workers.tolist(), ev.values.tolist(), ev.productivity.tolist())
    ]
    firm_target = write_table(
        out / "firm_productivity",
        ("firm_id", "year", "country", "sector", "sector_class", "workers",
         "value", "productivity", "log10_workers", "log10_productivity"),
        firm_table, cfg, fmt,
    )

    aggregates = ev.pool_by("sector", mode)
    sector_table = [
        (sector, agg.n_firms, agg.total_value, agg.total_workers, agg.productivity,
         _log10_or_none(agg.productivity))
        for sector, agg in sorted(aggregates.items())
    ]
    write_table(
        out / "sector_productivity",
        ("sector", "n_firms", "total_value", "total_workers", "productivity",
         "log10_productivity"),
        sector_table, cfg, fmt,
    )

    if ctx is not None:
        # Coverage needs an added value: gross margin falls back to the labor-share form.
        coverage = ev
        if _BASIS_FLAGS[basis] is ValueBasis.GROSS_MARGIN:
            coverage = evaluate(ev, ValueBasis.ADDED_VALUE_LABOR_SHARE, ctx)
        coverage_rows = []
        for (country, yr), agg in sorted(coverage.pool_by(("country", "year")).items()):
            with suppress(DataError):  # a cell without GDP is left out
                coverage_rows.append((country, yr, agg.total_value / ctx.gdp(country, yr)))
        if coverage_rows:
            write_table(out / "gdp_coverage", ("country", "year", "coverage"),
                        coverage_rows, cfg, fmt)

    _echo_excluded(ev)
    click.echo(f"wrote measures for {len(ev.rows)} firms to {out} ({firm_target.suffix[1:]})")


@main.command("fit-production")
@_input_option
@_schema_option
@_macro_option
@_basis_option
@click.option("--pool-years", is_flag=True, help="Fit one model across all years per stratum.")
@click.option("--rts-tol", type=float, default=0.05, show_default=True,
              help="Half-width of the constant-returns band around alpha + beta = 1.")
@_strict_option
@_out_option
@_format_option
def fit_production(input_path: str, schema_path: str | None, macro_path: str | None,
                   basis: str, pool_years: bool, rts_tol: float, strict: bool,
                   out_dir: str, fmt: str) -> None:
    """Cobb-Douglas fits per (country, sector_class, year) stratum."""
    if not rts_tol > 0:  # also refuses nan
        raise ConfigError(f"--rts-tol must be > 0, got {rts_tol}")
    report = _load(input_path, schema_path, strict)
    ctx = _load_macro(macro_path)
    fits, failures = fit_by_stratum(report.dataset, _BASIS_FLAGS[basis], ctx,
                                    pool_years=pool_years)
    cfg = config_hash({"command": "fit-production", "input": input_path,
                       "schema": schema_path, "macro": macro_path, "basis": basis,
                       "pool_years": pool_years, "rts_tol": rts_tol})
    rows = []
    for (country, sector_class, yr), fit in fits.items():
        regime = classify_returns(fit, rts_tol)
        rows.append((
            country, sector_class, yr, fit.log_a, fit.alpha, fit.beta,
            fit.se_log_a, fit.se_alpha, fit.se_beta, fit.r2, fit.n_used, fit.excluded,
            regime.sum_elasticities, regime.classification.value,
        ))
    target = write_table(
        Path(out_dir) / "production_fits",
        ("country", "sector_class", "year", "log_a", "alpha", "beta",
         "se_log_a", "se_alpha", "se_beta", "r2", "n_used", "excluded",
         "sum_elasticities", "returns_to_scale"),
        rows, cfg, fmt,
    )
    for key, reason in failures.items():
        click.echo(f"skipped stratum {key}: {reason}", err=True)
    click.echo(f"fitted {len(rows)} strata; wrote {target}")


@main.command("fit-pareto")
@_input_option
@_schema_option
@_macro_option
@_basis_option
@click.option("--level", type=click.Choice(["firm", "sector"]), default="firm",
              show_default=True, help="Rank firms or sector aggregates.")
@click.option("--tail", "tail_text", default=None,
              help="Fit range: 'whole', 'frac:0.1', or 'ranks:a..b' "
                   "(default: frac:0.1 for firms, whole for sectors).")
@_year_option
@_strict_option
@_out_option
@_format_option
def fit_pareto_cmd(input_path: str, schema_path: str | None, macro_path: str | None,
                   basis: str, level: str, tail_text: str | None, year: int | None,
                   strict: bool, out_dir: str, fmt: str) -> None:
    """Rank-size series and power-law tail fit of productivity."""
    ev, _ = _evaluate_input(input_path, schema_path, strict, macro_path, basis, year)
    tail = TailSpec.parse(tail_text) if tail_text else default_tail(level)
    series = rank_size(level_values(ev, level))
    fit = fit_pareto(series, tail)

    cfg = config_hash({"command": "fit-pareto", "input": input_path, "schema": schema_path,
                       "macro": macro_path, "basis": basis, "level": level,
                       "tail": tail_text, "year": year})
    out = Path(out_dir)
    series_rows = [
        (rank, value, float(np.log10(rank)), float(np.log10(value)))
        for rank, value in series.points()
    ]
    write_table(out / "rank_size", ("rank", "value", "log10_rank", "log10_value"),
                series_rows, cfg, fmt)
    fit_rows = [(fit.mu, fit.se_mu, fit.r2, fit.intercept, -fit.mu, fit.min_rank,
                 fit.max_rank, fit.tail_fraction, fit.n, series.excluded)]
    target = write_table(
        out / "pareto_fit",
        ("mu", "se_mu", "r2", "intercept", "slope", "min_rank", "max_rank",
         "tail_fraction", "n", "excluded"),
        fit_rows, cfg, fmt,
    )
    _echo_excluded(ev)
    click.echo(f"mu = {fit.mu:.6g} (se {fit.se_mu:.2g}, r2 {fit.r2:.4f}); wrote {target}")


@main.command("pareto-series")
@_input_option
@_schema_option
@_macro_option
@_basis_option
@click.option("--level", type=click.Choice(["firm", "sector"]), default="firm",
              show_default=True, help="Rank firms or sector aggregates.")
@click.option("--tail", "tail_text", default=None,
              help="Fit range (defaults as in fit-pareto).")
@_strict_option
@_out_option
@_format_option
def pareto_series(input_path: str, schema_path: str | None, macro_path: str | None,
                  basis: str, level: str, tail_text: str | None, strict: bool,
                  out_dir: str, fmt: str) -> None:
    """Tail-exponent fit per year."""
    ev, _ = _evaluate_input(input_path, schema_path, strict, macro_path, basis)
    tail = TailSpec.parse(tail_text) if tail_text else default_tail(level)
    per_year = ev.split("year")
    fits = fit_years(per_year, lambda part: level_values(part, level), tail)

    cfg = config_hash({"command": "pareto-series", "input": input_path,
                       "schema": schema_path, "macro": macro_path, "basis": basis,
                       "level": level, "tail": tail_text})
    rows = [(yr, fit.mu, fit.se_mu, fit.r2, fit.tail_fraction)
            for yr, fit in fits.items()]
    target = write_table(Path(out_dir) / "pareto_series",
                         ("year", "mu", "se_mu", "r2", "tail_fraction"), rows, cfg, fmt)
    for yr in sorted(set(per_year) - set(fits)):
        click.echo(f"year {yr}: no fit (insufficient or degenerate data)", err=True)
    _echo_excluded(ev)
    click.echo(f"fitted {len(rows)} years; wrote {target}")


@main.command("prod-series")
@_input_option
@_schema_option
@_macro_option
@_basis_option
@_mode_option
@_strict_option
@_out_option
@_format_option
def prod_series(input_path: str, schema_path: str | None, macro_path: str | None,
                basis: str, mode: str, strict: bool, out_dir: str, fmt: str) -> None:
    """Pooled productivity by sector class over time."""
    ev, _ = _evaluate_input(input_path, schema_path, strict, macro_path, basis)
    series = ev.pool_by(("year", "sector_class"), mode)
    rows = [
        (yr, sector_class, agg.n_firms, agg.total_value, agg.total_workers, agg.productivity)
        for (yr, sector_class), agg in sorted(series.items())
    ]

    cfg = config_hash({"command": "prod-series", "input": input_path, "schema": schema_path,
                       "macro": macro_path, "basis": basis, "mode": mode})
    target = write_table(
        Path(out_dir) / "productivity_series",
        ("year", "sector_class", "n_firms", "total_value", "total_workers", "productivity"),
        rows, cfg, fmt,
    )
    _echo_excluded(ev)
    click.echo(f"wrote {len(rows)} series points to {target}")


@main.command("size-sweep")
@_input_option
@_schema_option
@_macro_option
@_basis_option
@click.option("--thresholds", required=True,
              help="Strictly ascending worker thresholds, e.g. '0,10,50,100'.")
@_mode_option
@_year_option
@_strict_option
@_out_option
@_format_option
def size_sweep_cmd(input_path: str, schema_path: str | None, macro_path: str | None,
                   basis: str, thresholds: str, mode: str, year: int | None,
                   strict: bool, out_dir: str, fmt: str) -> None:
    """Pooled productivity of firms at or above each worker-count threshold."""
    try:
        cuts = [int(part) for part in thresholds.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad --thresholds {thresholds!r}: {exc}") from exc
    ev, _ = _evaluate_input(input_path, schema_path, strict, macro_path, basis, year)
    try:
        sweep = ev.sweep(cuts, mode)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    cfg = config_hash({"command": "size-sweep", "input": input_path, "schema": schema_path,
                       "macro": macro_path, "basis": basis, "thresholds": thresholds,
                       "mode": mode, "year": year})
    rows = list(sweep.items())
    target = write_table(Path(out_dir) / "size_sweep", ("threshold", "productivity"),
                         rows, cfg, fmt)
    _echo_excluded(ev)
    click.echo(f"wrote {len(rows)} sweep points to {target}")


def _scenario_from_json(path: str) -> tuple[list[TheoryFirm], FixedStep | AdaptiveStep,
                                            float, int, float]:
    raw = read_json_config(path, "scenario")
    if "firms" not in raw:
        raise ConfigError(f"{path}: scenario must have a 'firms' list")
    try:
        firms = [TheoryFirm(**entry) for entry in raw["firms"]]
        rule_raw = raw.get("step_rule", {"kind": "adaptive"})
        if not isinstance(rule_raw, dict):
            raise ConfigError(f"{path}: step_rule must be a JSON object, got {rule_raw!r}")
        kind = rule_raw.get("kind", "adaptive")
        if kind == "adaptive":
            rule = AdaptiveStep(**{k: v for k, v in rule_raw.items() if k != "kind"})
        elif kind == "fixed":
            rule = FixedStep(**{k: v for k, v in rule_raw.items() if k != "kind"})
        else:
            raise ConfigError(f"step_rule kind must be 'fixed' or 'adaptive', got {kind!r}")
        tol = float(raw.get("tol", 1e-8))
        if not tol > 0:
            raise ConfigError(f"{path}: tol must be > 0, got {tol}")
        max_iter = int(raw.get("max_iter", 100_000))
        floor = float(raw.get("labor_floor", 1e-9))
        if not floor >= 0:
            raise ConfigError(f"{path}: labor_floor must be >= 0, got {floor}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad scenario: {exc}") from exc
    return firms, rule, tol, max_iter, floor


@main.command()
@click.option("--scenario", "scenario_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="JSON scenario: firms, step_rule, tol, max_iter.")
@_out_option
@_format_option
def simulate(scenario_path: str, out_dir: str, fmt: str) -> None:
    """Run the labor-reallocation simulator and emit its trace."""
    firms, rule, tol, max_iter, floor = _scenario_from_json(scenario_path)
    trace = simulate_reallocation(firms, step_rule=rule, tol=tol, max_iter=max_iter,
                                  labor_floor=floor)
    cfg = config_hash({"command": "simulate", "scenario": scenario_path})
    out = Path(out_dir)
    trace_rows = [
        (s.iteration, s.mover_from, s.mover_to, s.delta_labor, s.max_spread,
         s.total_output, s.total_labor)
        for s in trace.steps
    ]
    write_table(out / "trace",
                ("iteration", "mover_from", "mover_to", "delta_labor", "max_spread",
                 "total_output", "total_labor"),
                trace_rows, cfg, fmt)
    firm_rows = [
        (f.id, f.scale, f.alpha, f.beta, f.capital, f.labor, marginal_labor_productivity(f))
        for f in trace.final_firms
    ]
    target = write_table(out / "final_firms",
                         ("id", "scale", "alpha", "beta", "capital", "labor",
                          "marginal_productivity"),
                         firm_rows, cfg, fmt)
    status = "converged" if trace.converged else "did not converge"
    click.echo(f"{status} after {trace.iterations} iterations; wrote {target}")


if __name__ == "__main__":
    main()
