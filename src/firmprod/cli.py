"""Command-line front end.

Subcommands wire the library end to end: generate synthetic data, validate
and summarize input files, compute productivity tables, fit production
functions and power-law tails, run the reallocation simulator, and emit
plot-ready CSV/JSON. Identical configuration and inputs produce
byte-identical output files.

Exit codes: 0 success, 2 configuration error (including bad flags and
output paths that cannot be written), 3 data error, 4 numerical degeneracy.

The layers are bound by module name below. ``import firmprod`` registers each
one lazily, so a layer's body runs on its first attribute access and a
command loads only the layers it calls.

A CLI process sets up the garbage collector once. Nearly all that importing
numpy, click and this module allocates lives until the process exits, yet each
full collection, and the last one at exit, would traverse it again. So when
the module runs as the program it collects nothing while it imports, and
:func:`run` moves that heap to the permanent generation (``gc.freeze``) and
turns collection back on before the command dispatches; the command's own
objects are collected as usual. That takes 26 to 38 ms off each command, about
15% of its wall time (README). The installed ``firmprod`` script imports this
module before it calls :func:`run`, so it gets the freeze but still collects
while importing. In-process callers of :func:`main`, such as tests and the
benchmark's traced runs, find the collector as they left it.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    gc.disable()  # until run(), which freezes what the imports built

import functools
from collections.abc import Iterable
from contextlib import suppress
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from pathlib import Path

import click
import numpy as np

from . import __version__, _parse_cache, equilibrium, measures, pareto, production, synth
from ._emit import BlankableFloats, Table, atomic_open, config_hash, header_lines, write_table
from .errors import ConfigError, DataError, NumericalError, ValidationError
from .ingest import (
    CsvSchema,
    Dataset,
    ParseReport,
    filter_dataset,
    parse_firm_records,
    write_firm_records,
)

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

#: ``--basis`` flag -> the name of its :class:`~firmprod.measures.ValueBasis` member.
_BASIS_FLAGS = {
    "gm": "GROSS_MARGIN",
    "av-share": "ADDED_VALUE_LABOR_SHARE",
    "av-components": "ADDED_VALUE_COMPONENTS",
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
        except BrokenPipeError:  # a closed stdout: click exits 1 quietly
            raise
        except OSError as exc:  # e.g. an --out path through a file, or onto a directory
            click.echo(f"error (config): {exc}", err=True)
            ctx.exit(EXIT_CONFIG)


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
_level_option = click.option("--level", type=click.Choice(["firm", "sector"]), default="firm",
                             show_default=True, help="Rank firms or sector aggregates.")


def _load(input_path: str, schema_path: str | None, strict: bool) -> ParseReport:
    """Parse the input, or load the parse the cache holds for its bytes and schema."""
    schema = CsvSchema.from_json(schema_path) if schema_path else CsvSchema()
    return (_parse_cache.parse(input_path, schema, strict)
            or parse_firm_records(input_path, schema, strict=strict))


def _basis(flag: str) -> measures.ValueBasis:
    return measures.ValueBasis[_BASIS_FLAGS[flag]]


def _config_hash() -> str:
    """The config hash of the running command: its name and each of its options
    but ``--strict``, ``--out`` and ``--format``, keyed by long flag name."""
    ctx = click.get_current_context()
    payload: dict[str, object] = {"command": ctx.command.name}
    for param in ctx.command.params:
        key = param.opts[0].removeprefix("--").replace("-", "_")
        if key not in ("strict", "out", "format"):
            payload[key] = ctx.params[param.name]
    return config_hash(payload)


@dataclass(frozen=True)
class _Front:
    """The options every analysis command shares, and its one way to load its input."""

    input_path: str
    schema_path: str | None
    macro_path: str | None
    basis: str
    strict: bool
    out_dir: str
    fmt: str
    year: int | None = None  # on the commands that have --year

    def load(self) -> tuple[Dataset, measures.MacroContext | None]:
        """The input's records, of ``--year`` alone if given, and the ``--macro`` context."""
        if self.basis == "av-share" and self.macro_path is None:
            raise ConfigError("--basis av-share needs --macro")
        records = _load(self.input_path, self.schema_path, self.strict).dataset
        ctx = measures.MacroContext.from_json(self.macro_path) if self.macro_path else None
        if self.year is not None:
            records = filter_dataset(records, year=self.year)
        return records, ctx

    def evaluate(self) -> tuple[measures.Evaluation, measures.MacroContext | None]:
        """Each loaded record evaluated once under ``--basis``, and the macro context."""
        records, ctx = self.load()
        return measures.evaluate(records, _basis(self.basis), ctx), ctx

    def write(self, name: str, columns: tuple[str, ...], table: Table) -> Path:
        return write_table(Path(self.out_dir) / name, columns, table, _config_hash(), self.fmt)


def _analysis_command(name: str, *options):
    """Register an analysis command with ``--input --schema --macro --basis``, its
    own ``options``, then ``--strict --out --format``. The function is called
    with a :class:`_Front` of the shared options and ``--year``, then its others."""
    def register(fn):
        @functools.wraps(fn)
        def command(**params):
            front = {field.name: params.pop(field.name) for field in fields(_Front)
                     if field.name in params}
            return fn(_Front(**front), **params)

        for option in reversed((_input_option, _schema_option, _macro_option, _basis_option,
                                *options, _strict_option, _out_option, _format_option)):
            command = option(command)
        return main.command(name)(command)
    return register


def _echo_excluded(ev: measures.Evaluation) -> None:
    if ev.excluded:
        click.echo(f"excluded {ev.excluded} records the basis could not evaluate", err=True)


def _log10_where_positive(values: np.ndarray) -> BlankableFloats:
    """log10 of the positive cells; the others (NaN included) are blank."""
    positive = values > 0
    logs = np.zeros(len(values))
    logs[positive] = np.log10(values[positive])
    return BlankableFloats(logs, positive)


def _fields(items: Iterable[object], *names: str) -> list[list[object]]:
    """One column per attribute name, over ``items``."""
    items = list(items)
    return [list(map(attrgetter(name), items)) for name in names]


def _transpose(rows: Iterable[tuple], width: int) -> list[list[object]]:
    """The ``width`` columns of equal-length tuples (``width`` empty ones for no tuples)."""
    rows = list(rows)
    return [[row[i] for row in rows] for i in range(width)]


def _tail(tail_text: str | None, level: str) -> pareto.TailSpec:
    return pareto.TailSpec.parse(tail_text) if tail_text else pareto.default_tail(level)


@main.command("synth")
@click.option("--spec", "spec_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="JSON synthetic-population spec.")
@click.option("--seed", type=int, default=None, help="Override the spec's seed.")
@_out_option
def synth_cmd(spec_path: str, seed: int | None, out_dir: str) -> None:
    """Generate a synthetic firm dataset (written in the ingest CSV schema)."""
    spec = synth.SynthSpec.from_json(spec_path)
    if seed is not None:
        try:
            spec = replace(spec, seed=seed)
        except ValidationError as exc:
            raise ConfigError(f"bad --seed {seed}: {exc}") from exc
    try:
        dataset = synth.gen_cobb_douglas_firms(spec)
    except ValidationError as exc:  # the spec alone decides every generated value
        raise ConfigError(f"{spec_path}: bad synth spec: {exc}") from exc
    cfg = config_hash({"command": "synth", "spec": spec_path, "seed": spec.seed})

    target = Path(out_dir) / "firms.csv"
    with atomic_open(target) as fh:
        fh.write("\n".join(header_lines(cfg, len(dataset))) + "\n")
        write_firm_records(dataset, fh)
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
    summary = Table(
        ["records", "skipped_rows", "firms", "countries", "year_min", "year_max",
         "currency_unit"],
        [len(dataset), report.n_skipped, len(set(dataset.column("firm_id").tolist())),
         ";".join(dataset.countries()), years[0] if years else None,
         years[-1] if years else None, dataset.currency_unit],
    )
    cfg = config_hash({"command": "ingest", "input": input_path, "schema": schema_path,
                       "strict": strict})
    target = write_table(Path(out_dir) / "summary", ("key", "value"), summary, cfg, fmt)
    for issue in report.skipped:
        click.echo(f"skipped line {issue.line}: {issue.reason}", err=True)
    click.echo(f"parsed {len(dataset)} records ({report.n_skipped} skipped); wrote {target}")


@_analysis_command("measures", _year_option, _mode_option)
def measures_cmd(front: _Front, mode: str) -> None:
    """Per-firm and per-sector productivity tables plus GDP coverage."""
    ev, ctx = front.evaluate()
    firm_table = Table(
        *(ev.column(name) for name in ("firm_id", "year", "country", "sector", "sector_class")),
        ev.workers, ev.values, ev.productivity,
        _log10_where_positive(ev.workers), _log10_where_positive(ev.productivity),
    )
    front.write(
        "firm_productivity",
        ("firm_id", "year", "country", "sector", "sector_class", "workers",
         "value", "productivity", "log10_workers", "log10_productivity"),
        firm_table,
    )

    aggregates = dict(sorted(ev.pool_by("sector", mode).items()))
    pooled = _fields(aggregates.values(), "n_firms", "total_value", "total_workers",
                     "productivity")
    sector_table = Table(list(aggregates), *pooled,
                         _log10_where_positive(np.array(pooled[-1], dtype=float)))
    front.write(
        "sector_productivity",
        ("sector", "n_firms", "total_value", "total_workers", "productivity",
         "log10_productivity"),
        sector_table,
    )

    if ctx is not None:
        # Coverage needs an added value: gross margin falls back to the labor-share form.
        coverage = ev
        if front.basis == "gm":
            coverage = measures.evaluate(ev, measures.ValueBasis.ADDED_VALUE_LABOR_SHARE, ctx)
        coverage_rows = []
        for (country, yr), agg in sorted(coverage.pool_by(("country", "year")).items()):
            with suppress(DataError):  # a cell without GDP is left out
                coverage_rows.append((country, yr, agg.total_value / ctx.gdp(country, yr)))
        if coverage_rows:
            front.write("gdp_coverage", ("country", "year", "coverage"),
                        Table(*_transpose(coverage_rows, 3)))

    _echo_excluded(ev)
    click.echo(f"wrote measures for {len(ev.rows)} firms to {Path(front.out_dir)} ({front.fmt})")


@_analysis_command(
    "fit-production",
    click.option("--pool-years", is_flag=True, help="Fit one model across all years per stratum."),
    click.option("--rts-tol", type=float, default=0.05, show_default=True,
                 help="Half-width of the constant-returns band around alpha + beta = 1."),
)
def fit_production(front: _Front, pool_years: bool, rts_tol: float) -> None:
    """Cobb-Douglas fits per (country, sector_class, year) stratum."""
    if not rts_tol > 0:  # also refuses nan
        raise ConfigError(f"--rts-tol must be > 0, got {rts_tol}")
    records, ctx = front.load()
    fits, failures = production.fit_by_stratum(records, _basis(front.basis), ctx,
                                               pool_years=pool_years)
    regimes = [production.classify_returns(fit, rts_tol) for fit in fits.values()]
    # Array columns: each is formatted in one pass, not cell by cell.
    floats = np.array(_fields(fits.values(), "log_a", "alpha", "beta", "se_log_a", "se_alpha",
                              "se_beta", "r2"), dtype=np.float64)
    counts = np.array(_fields(fits.values(), "n_used", "excluded"), dtype=np.int64)
    table = Table(
        *_transpose(fits, 3), *floats, *counts,
        np.array([regime.sum_elasticities for regime in regimes], dtype=np.float64),
        [regime.classification.value for regime in regimes],
    )
    target = front.write(
        "production_fits",
        ("country", "sector_class", "year", "log_a", "alpha", "beta",
         "se_log_a", "se_alpha", "se_beta", "r2", "n_used", "excluded",
         "sum_elasticities", "returns_to_scale"),
        table,
    )
    for key, reason in failures.items():
        click.echo(f"skipped stratum {key}: {reason}", err=True)
    click.echo(f"fitted {len(table)} strata; wrote {target}")


@_analysis_command(
    "fit-pareto",
    _level_option,
    click.option("--tail", "tail_text", default=None,
                 help="Fit range: 'whole', 'frac:0.1', or 'ranks:a..b' "
                      "(default: frac:0.1 for firms, whole for sectors)."),
    _year_option,
)
def fit_pareto_cmd(front: _Front, level: str, tail_text: str | None) -> None:
    """Rank-size series and power-law tail fit of productivity."""
    ev, _ = front.evaluate()
    tail = _tail(tail_text, level)
    series = pareto.rank_size(pareto.level_values(ev, level))
    fit = pareto.fit_pareto(series, tail)

    # A rank-size series holds positive values only, so no log10 cell is blank.
    series_table = Table(series.ranks, series.values,
                         np.log10(series.ranks), np.log10(series.values))
    front.write("rank_size", ("rank", "value", "log10_rank", "log10_value"), series_table)
    fit_row = Table.row(fit.mu, fit.se_mu, fit.r2, fit.intercept, -fit.mu, fit.min_rank,
                        fit.max_rank, fit.tail_fraction, fit.n, series.excluded)
    target = front.write(
        "pareto_fit",
        ("mu", "se_mu", "r2", "intercept", "slope", "min_rank", "max_rank",
         "tail_fraction", "n", "excluded"),
        fit_row,
    )
    _echo_excluded(ev)
    click.echo(f"mu = {fit.mu:.6g} (se {fit.se_mu:.2g}, r2 {fit.r2:.4f}); wrote {target}")


@_analysis_command(
    "pareto-series",
    _level_option,
    click.option("--tail", "tail_text", default=None,
                 help="Fit range (defaults as in fit-pareto)."),
)
def pareto_series(front: _Front, level: str, tail_text: str | None) -> None:
    """Tail-exponent fit per year."""
    ev, _ = front.evaluate()
    tail = _tail(tail_text, level)
    per_year = ev.split("year")
    fits, failures = pareto.fit_years(per_year, lambda part: pareto.level_values(part, level),
                                      tail)

    table = Table(list(fits), *_fields(fits.values(), "mu", "se_mu", "r2", "tail_fraction"))
    target = front.write("pareto_series", ("year", "mu", "se_mu", "r2", "tail_fraction"),
                         table)
    for yr, reason in failures.items():
        click.echo(f"year {yr}: no fit: {reason}", err=True)
    _echo_excluded(ev)
    click.echo(f"fitted {len(table)} years; wrote {target}")


@_analysis_command("prod-series", _mode_option)
def prod_series(front: _Front, mode: str) -> None:
    """Pooled productivity by sector class over time."""
    ev, _ = front.evaluate()
    series = dict(sorted(ev.pool_by(("year", "sector_class"), mode).items()))
    table = Table(
        *_transpose(series, 2),
        *_fields(series.values(), "n_firms", "total_value", "total_workers", "productivity"),
    )

    target = front.write(
        "productivity_series",
        ("year", "sector_class", "n_firms", "total_value", "total_workers", "productivity"),
        table,
    )
    _echo_excluded(ev)
    click.echo(f"wrote {len(table)} series points to {target}")


@_analysis_command(
    "size-sweep",
    click.option("--thresholds", required=True,
                 help="Strictly ascending worker thresholds, e.g. '0,10,50,100'."),
    _mode_option,
    _year_option,
)
def size_sweep_cmd(front: _Front, thresholds: str, mode: str) -> None:
    """Pooled productivity of firms at or above each worker-count threshold."""
    try:
        cuts = [int(part) for part in thresholds.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad --thresholds {thresholds!r}: {exc}") from exc
    ev, _ = front.evaluate()
    try:
        sweep = ev.sweep(cuts, mode)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    table = Table(list(sweep), list(sweep.values()))
    target = front.write("size_sweep", ("threshold", "productivity"), table)
    _echo_excluded(ev)
    click.echo(f"wrote {len(table)} sweep points to {target}")


@main.command()
@click.option("--scenario", "scenario_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="JSON scenario: firms, step_rule, tol, max_iter.")
@_out_option
@_format_option
def simulate(scenario_path: str, out_dir: str, fmt: str) -> None:
    """Run the labor-reallocation simulator and emit its trace."""
    firms, options = equilibrium.read_scenario(scenario_path)
    trace = equilibrium.simulate_reallocation(firms, **options)
    cfg = _config_hash()
    out = Path(out_dir)
    trace_columns = ("iteration", "mover_from", "mover_to", "delta_labor", "max_spread",
                     "total_output", "total_labor")
    write_table(out / "trace", trace_columns,
                Table(*(getattr(trace, name) for name in trace_columns)), cfg, fmt)
    firm_columns = ("id", "scale", "alpha", "beta", "capital", "labor")
    firms_table = Table(*_fields(trace.final_firms, *firm_columns),
                        list(map(equilibrium.marginal_labor_productivity, trace.final_firms)))
    target = write_table(out / "final_firms", (*firm_columns, "marginal_productivity"),
                         firms_table, cfg, fmt)
    status = "converged" if trace.converged else "did not converge"
    click.echo(f"{status} after {trace.iterations} iterations; wrote {target}")


def run() -> None:
    """Run the CLI as a process: freeze the import-time heap, then dispatch."""
    gc.freeze()
    gc.enable()
    main()


if __name__ == "__main__":
    run()
