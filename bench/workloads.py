"""Workload generators for the firmprod benchmark.

Each ``setup_*`` function writes a workload's input files into a directory
from a seed and returns the ground truth it planted. The same seed always
gives byte-identical files. ``commands`` lists the CLI invocations of a
workload, with paths relative to the work directory so that the
configuration hash in every emitted table, and so its digest, does not
depend on where the benchmark runs.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
from firmprod.synth import LognormalSize, SynthSpec, gen_cobb_douglas_firms

CANONICAL_COLUMNS = (
    "firm_id", "year", "country", "sector", "sector_class", "revenue", "cogs", "workers",
    "total_labor_cost", "capital", "ordinary_income", "financial_expense",
    "tax_public_charge", "depreciation",
)

#: Nominal sizes; the self-tests pass smaller ones.
SIZES = {
    "panel-clean": {"rows": 10_000},
    "panel-vendor": {"countries": 50, "years": 10, "firms_per_stratum": 10},
    "realloc": {"firms": 350},
}

WORKLOADS = tuple(SIZES)

# panel-clean planted model (shared by every stratum)
CLEAN_COUNTRIES = ("JP", "US")
CLEAN_YEARS = (2001, 2002, 2003, 2004, 2005)
CLEAN_CLASSES = (("manufacturing", "M"), ("non_manufacturing", "N"))
CLEAN_MODEL = {"log_a": 0.0, "alpha": 0.35, "beta": 0.6, "noise_sigma": 0.1,
               "labor_share": 0.55, "mean_log": 3.0, "sigma_log": 1.2}
CLEAN_THRESHOLDS = (0, 10, 50, 100, 500)

# panel-vendor layout
VENDOR_HEADERS = {
    "firm_id": "CompanyCode", "year": "FiscalYear", "country": "Nation",
    "sector": "IndustryCode", "sector_class": "IndustryGroup", "revenue": "NetSales",
    "cogs": "CostOfSales", "workers": "Employees", "total_labor_cost": "PersonnelExpense",
    "capital": "FixedAssets", "ordinary_income": "OrdinaryProfit",
    "financial_expense": "InterestPaid", "tax_public_charge": "TaxesAndDues",
    "depreciation": "Depreciation",
}
VENDOR_FIRST_YEAR = 1996
VENDOR_SECTORS = 20
VENDOR_MALFORMED_SHARE = 0.04
VENDOR_INCOMPLETE_SHARE = 0.16
VENDOR_COMMENT_SHARE = 0.01
VENDOR_THRESHOLDS = tuple(range(0, 500, 5))
#: The malformed-row kinds, each of which the parser must skip.
MALFORMED_KINDS = ("non_numeric", "negative_cost", "empty_mandatory", "year_out_of_range")
#: Added-value components that incomplete rows may lack (never the labor cost,
#: so the labor-share basis can still value them).
DROPPABLE_COMPONENTS = ("ordinary_income", "financial_expense", "tax_public_charge",
                        "depreciation")

REALLOC_TOL = 1e-8


def _fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _sub_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def _pooled_sweep(gm: np.ndarray, workers: np.ndarray, thresholds) -> list[float | None]:
    out: list[float | None] = []
    for t in thresholds:
        keep = workers >= t
        out.append(float(gm[keep].sum() / workers[keep].sum()) if keep.any() else None)
    return out


def setup_panel_clean(inputs: Path, seed: int, rows: int) -> dict:
    """A canonical CSV of Cobb-Douglas firm-years drawn by the package's synth layer."""
    m = CLEAN_MODEL
    strata = [(c, y, cls, tag) for c in CLEAN_COUNTRIES for y in CLEAN_YEARS
              for cls, tag in CLEAN_CLASSES]
    per_stratum = rows // len(strata)
    inputs.mkdir(parents=True, exist_ok=True)
    gm_parts, worker_parts, strata_sizes, av_totals = [], [], {}, {}
    with open(inputs / "panel.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CANONICAL_COLUMNS)
        for k, (country, year, cls, tag) in enumerate(strata):
            spec = SynthSpec(
                n=per_stratum, log_a=m["log_a"], alpha=m["alpha"], beta=m["beta"],
                noise_sigma=m["noise_sigma"],
                size_dist=LognormalSize(m["mean_log"], m["sigma_log"]),
                labor_share=m["labor_share"], seed=_sub_seed(seed, k), year=year,
                country=country, sector_class=cls, n_sectors=5, currency_unit="kUSD",
            )
            dataset = gen_cobb_douglas_firms(spec)
            gm = np.empty(per_stratum)
            workers = np.empty(per_stratum)
            for i, r in enumerate(dataset.records):
                writer.writerow([
                    f"{country}{tag}{r.firm_id}", r.year, r.country, f"{tag}{r.sector}",
                    r.sector_class, *(_fmt(getattr(r, f)) for f in CANONICAL_COLUMNS[5:]),
                ])
                gm[i] = r.revenue - r.cogs
                workers[i] = r.workers
            gm_parts.append(gm)
            worker_parts.append(workers)
            strata_sizes[f"{country}|{cls}|{year}"] = per_stratum
            key = (country, year)
            av_totals[key] = av_totals.get(key, 0.0) + float(gm.sum()) / (1.0 - m["labor_share"])

    rng = np.random.default_rng(_sub_seed(seed, 999))
    coverage = {}
    macro = []
    for country, year in sorted(av_totals):
        planted = float(rng.uniform(0.2, 0.8))
        coverage[f"{country}|{year}"] = planted
        macro.append({"country": country, "year": year, "labor_share": m["labor_share"],
                      "gdp": av_totals[(country, year)] / planted, "exchange_rate": 1.0})
    (inputs / "macro.json").write_text(json.dumps(macro, indent=1) + "\n", encoding="utf-8")

    total = per_stratum * len(strata)
    synth_spec = {
        "n": total, "log_a": m["log_a"], "alpha": m["alpha"], "beta": m["beta"],
        "noise_sigma": m["noise_sigma"],
        "size_dist": {"kind": "lognormal", "mean_log": m["mean_log"],
                      "sigma_log": m["sigma_log"]},
        "labor_share": m["labor_share"], "seed": _sub_seed(seed, 1000), "year": 2003,
        "country": "JP", "sector_class": "manufacturing", "n_sectors": 10,
        "currency_unit": "kUSD",
    }
    (inputs / "synth_spec.json").write_text(json.dumps(synth_spec) + "\n", encoding="utf-8")

    gm_all = np.concatenate(gm_parts)
    workers_all = np.concatenate(worker_parts)
    return {
        "rows": total,
        "skipped": 0,
        "strata": strata_sizes,
        "alpha": m["alpha"],
        "beta": m["beta"],
        "coverage": coverage,
        "years": len(CLEAN_YEARS),
        "series_points": len(CLEAN_YEARS) * len(CLEAN_CLASSES),
        "sweep": _pooled_sweep(gm_all, workers_all, CLEAN_THRESHOLDS),
    }


def setup_panel_vendor(inputs: Path, seed: int, countries: int, years: int,
                       firms_per_stratum: int) -> dict:
    """A vendor TSV with mapped headers, comments, malformed and incomplete rows.

    Drawn with numpy alone, so it plants its truth independently of the package.
    """
    rng = np.random.default_rng(seed)
    n_classes = 2
    shape = (countries, years, n_classes, firms_per_stratum)
    n = int(np.prod(shape))
    c_idx, y_idx, k_idx, f_idx = (a.ravel() for a in np.indices(shape))

    workers = np.maximum(1, np.rint(np.exp(3.0 + 1.2 * rng.standard_normal(n)))).astype(int)
    capital = workers * 10.0 ** (0.3 * rng.standard_normal(n))
    value = 10.0 ** (0.35 * np.log10(capital) + 0.6 * np.log10(workers)
                     + 0.1 * rng.standard_normal(n))
    cogs = value * rng.uniform(0.5, 2.0, n)
    revenue = value + cogs
    gm = revenue - cogs
    share_by_country = rng.uniform(0.45, 0.65, countries)
    share = share_by_country[c_idx]
    av = gm / (1.0 - share)
    labor_cost = share * av
    financial = av * rng.uniform(0.0, 0.05, n)
    tax = av * rng.uniform(0.0, 0.05, n)
    depreciation = av * rng.uniform(0.0, 0.1, n)
    ordinary = av - labor_cost - financial - tax - depreciation
    sector = rng.integers(0, VENDOR_SECTORS, countries * n_classes * firms_per_stratum)

    # malformed and incomplete rows are disjoint sets
    u = rng.random(n)
    malformed = u < VENDOR_MALFORMED_SHARE
    incomplete = (u >= VENDOR_MALFORMED_SHARE) & (
        u < VENDOR_MALFORMED_SHARE + VENDOR_INCOMPLETE_SHARE)
    kind = rng.integers(0, len(MALFORMED_KINDS), n)
    dropped = rng.integers(0, len(DROPPABLE_COMPONENTS), n)
    comment_after = rng.random(n) < VENDOR_COMMENT_SHARE

    columns = list(VENDOR_HEADERS)
    order = [columns[i] for i in np.random.default_rng(7).permutation(len(columns))]
    class_names = ("manufacturing", "non_manufacturing")
    inputs.mkdir(parents=True, exist_ok=True)
    with open(inputs / "vendor.tsv", "w", encoding="utf-8", newline="") as fh:
        fh.write("# vendor extract: firm financials, thousands of EUR\n")
        fh.write("# generated for the firmprod benchmark\n")
        writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
        writer.writerow([VENDOR_HEADERS[c] for c in order])
        for i in range(n):
            firm = (c_idx[i] * n_classes + k_idx[i]) * firms_per_stratum + f_idx[i]
            cells = {
                "firm_id": f"V{firm:06d}",
                "year": str(VENDOR_FIRST_YEAR + int(y_idx[i])),
                "country": f"C{int(c_idx[i]):03d}",
                "sector": f"IND{int(sector[firm]):02d}",
                "sector_class": class_names[k_idx[i]],
                "revenue": repr(float(revenue[i])),
                "cogs": repr(float(cogs[i])),
                "workers": str(int(workers[i])),
                "total_labor_cost": repr(float(labor_cost[i])),
                "capital": repr(float(capital[i])),
                "ordinary_income": repr(float(ordinary[i])),
                "financial_expense": repr(float(financial[i])),
                "tax_public_charge": repr(float(tax[i])),
                "depreciation": repr(float(depreciation[i])),
            }
            if incomplete[i]:
                cells[DROPPABLE_COMPONENTS[dropped[i]]] = ""
            if malformed[i]:
                bad = MALFORMED_KINDS[kind[i]]
                if bad == "non_numeric":
                    cells["workers"] = f"approx {cells['workers']}"
                elif bad == "negative_cost":
                    cells["cogs"] = repr(-float(cogs[i]))
                elif bad == "empty_mandatory":
                    cells["sector"] = ""
                else:
                    cells["year"] = "1850"
            writer.writerow([cells[c] for c in order])
            if comment_after[i]:
                fh.write(f"# checkpoint after source row {i + 1}\n")

    schema = {"columns": VENDOR_HEADERS, "delimiter": "\t", "currency_unit": "kEUR",
              "year_range": [1990, 2010]}
    (inputs / "schema.json").write_text(json.dumps(schema, indent=1) + "\n", encoding="utf-8")
    macro = [
        {"country": f"C{c:03d}", "year": VENDOR_FIRST_YEAR + y,
         "labor_share": float(share_by_country[c]), "gdp": 1.0e7}
        for c in range(countries) for y in range(years)
    ]
    (inputs / "macro.json").write_text(json.dumps(macro) + "\n", encoding="utf-8")

    valid = ~malformed
    strata: dict[str, int] = {}
    for c, y, k in zip(c_idx[valid], y_idx[valid], k_idx[valid]):
        key = f"C{int(c):03d}|{class_names[k]}|{VENDOR_FIRST_YEAR + int(y)}"
        strata[key] = strata.get(key, 0) + 1
    return {
        "rows": n,
        "valid": int(valid.sum()),
        "skipped": int(malformed.sum()),
        "skipped_by_kind": {b: int((malformed & (kind == j)).sum())
                            for j, b in enumerate(MALFORMED_KINDS)},
        "incomplete": int(incomplete.sum()),
        "strata": strata,
        "years": years,
        "sweep": _pooled_sweep(gm[valid], workers[valid], VENDOR_THRESHOLDS),
    }


def setup_realloc(inputs: Path, seed: int, firms: int) -> dict:
    """A simulator scenario of heterogeneous Cobb-Douglas firms."""
    rng = np.random.default_rng(seed)
    scale = rng.uniform(0.5, 3.0, firms)
    alpha = rng.uniform(0.2, 0.6, firms)
    beta = rng.uniform(0.3, 0.8, firms)
    capital = rng.uniform(0.5, 20.0, firms)
    labor = rng.uniform(1.0, 50.0, firms)
    scenario = {
        "firms": [
            {"id": f"f{i:05d}", "scale": float(scale[i]), "alpha": float(alpha[i]),
             "beta": float(beta[i]), "capital": float(capital[i]), "labor": float(labor[i])}
            for i in range(firms)
        ],
        "step_rule": {"kind": "adaptive"},
        "tol": REALLOC_TOL,
        "max_iter": 100_000,
    }
    inputs.mkdir(parents=True, exist_ok=True)
    (inputs / "scenario.json").write_text(json.dumps(scenario) + "\n", encoding="utf-8")
    return {"firms": firms, "tol": REALLOC_TOL, "scenario": scenario}


SETUP = {"panel-clean": setup_panel_clean, "panel-vendor": setup_panel_vendor,
         "realloc": setup_realloc}


def setup(workload: str, inputs: Path, seed: int, sizes: dict | None = None) -> dict:
    return SETUP[workload](inputs, seed, **(sizes or SIZES[workload]))


def commands(workload: str) -> list[tuple[str, list[str]]]:
    """(subcommand, argv) pairs, run in order from the work directory."""
    if workload == "panel-clean":
        data = ["--input", "inputs/panel.csv"]
        steps = [
            ("synth", ["--spec", "inputs/synth_spec.json"]),
            ("ingest", data),
            ("measures", data + ["--basis", "av-share", "--macro", "inputs/macro.json"]),
            ("fit-production", data),
            ("fit-pareto", data),
            ("pareto-series", data),
            ("prod-series", data),
            ("size-sweep", data + ["--thresholds", ",".join(map(str, CLEAN_THRESHOLDS))]),
        ]
    elif workload == "panel-vendor":
        data = ["--input", "inputs/vendor.tsv", "--schema", "inputs/schema.json"]
        steps = [
            ("ingest", data),
            ("measures", data + ["--basis", "av-components", "--mode", "mean"]),
            ("fit-production", data + ["--basis", "av-share", "--macro", "inputs/macro.json"]),
            ("pareto-series", data + ["--level", "sector"]),
            ("size-sweep", data + ["--thresholds", ",".join(map(str, VENDOR_THRESHOLDS))]),
        ]
    elif workload == "realloc":
        steps = [("simulate", ["--scenario", "inputs/scenario.json"])]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [(name, [name, *args, "--out", f"out/{name}"]) for name, args in steps]
