"""Firm-level labor productivity analytics.

Covers the full pipeline from delimited firm financials to plot-ready data:
productivity and added-value measures, Cobb-Douglas production-function
estimation, rank-size / power-law tail analysis, a wage-equalization
reallocation simulator, and a seeded synthetic-economy generator used to
validate every estimator against known ground truth.

Importing the package runs none of its modules. Each one is registered in
``sys.modules`` (and as a package attribute) with a lazy loader, so its body
runs on the first attribute access; an exported name resolves through
:data:`_ORIGIN` on first use (PEP 562). A command therefore pays only for the
modules it touches.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "equilibrium": (
        "AdaptiveStep", "DispersionStats", "FixedStep", "MarketContext", "ReallocationTrace",
        "TheoryFirm", "TraceStep", "equilibrium_dispersion", "marginal_labor_productivity",
        "optimal_labor", "output", "profit", "read_scenario", "simulate_reallocation",
    ),
    "ingest": (
        "CsvSchema", "ParseReport", "filter_dataset", "parse_firm_records", "write_firm_records",
    ),
    "measures": (
        "Evaluation", "MacroContext", "MacroEntry", "ProductivityMeasure", "SectorAggregate",
        "ValueBasis", "added_value", "aggregate_by_sector", "backout_nonmanufacturing_ratio",
        "evaluate", "gdp_coverage", "gross_margin", "labor_productivity", "size_sweep",
    ),
    "pareto": (
        "ParetoFit", "RankSizeSeries", "TailSpec", "fit_pareto", "hill_estimate",
        "pareto_time_series", "rank_size",
    ),
    "production": (
        "LogDesign", "ProductionFit", "ReturnsToScale", "ScaleRegime", "classify_returns",
        "fit_by_stratum", "fit_cobb_douglas", "log_design",
    ),
    "records": ("Dataset", "FirmRecord"),
    "synth": (
        "CapitalRule", "FixedSize", "LognormalSize", "ParetoSize", "SynthSpec",
        "gen_cobb_douglas_firms", "gen_pareto_sample", "gen_size_graded_economy",
    ),
}

#: Exported name -> the module that defines it.
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)


def _register_lazily(name: str) -> None:
    fullname = f"{__name__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)  # defers the body to the first attribute access
    globals()[name] = sys.modules[fullname]


# Every module but ``cli``, which ``python -m firmprod.cli`` runs as ``__main__``.
for _name in ("_emit", "_parse_cache", "errors", *_EXPORTS):
    _register_lazily(_name)
del _name


def __getattr__(name: str):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
