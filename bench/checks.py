"""Ground-truth checks on the tables each firmprod subcommand emits.

``check(workload, command, out_dir, stdout, stderr, truth)`` returns a list
of problems; an empty list means the command's outputs agree with what the
generator planted. The simulator's result is compared with an oracle the
benchmark computes itself.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
from pathlib import Path

import numpy as np

from workloads import CLEAN_THRESHOLDS, VENDOR_THRESHOLDS

#: Planted elasticities must lie within this many reported standard errors.
SE_BAND = 5.0
#: Relative tolerance for sums the package and the benchmark add in different orders.
SUM_RTOL = 1e-9


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file a command wrote, keyed by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def read_table(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _close(got: str, want: float | None) -> bool:
    if want is None:
        return got == ""
    return got != "" and math.isclose(float(got), want, rel_tol=SUM_RTOL)


def _expect(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _check_sweep(problems: list[str], out: Path, thresholds, want: list) -> None:
    rows = read_table(out / "size_sweep.csv")
    got = [(int(r["threshold"]), r["productivity"]) for r in rows]
    _expect(problems, [t for t, _ in got] == list(thresholds), "size_sweep thresholds differ")
    for (t, value), expected in zip(got, want):
        _expect(problems, _close(value, expected),
                f"size_sweep at {t}: {value!r} != planted {expected!r}")


def _summary(out: Path) -> dict[str, str]:
    return {r["key"]: r["value"] for r in read_table(out / "summary.csv")}


def _excluded(stderr: str) -> int:
    found = re.search(r"excluded (\d+) records", stderr)
    return int(found.group(1)) if found else 0


def _check_panel_clean(command: str, out: Path, stdout: str, stderr: str, truth: dict,
                       problems: list[str]) -> None:
    rows = truth["rows"]
    if command == "synth":
        with open(out / "firms.csv", encoding="utf-8") as fh:
            data_lines = sum(1 for line in fh if not line.startswith("#")) - 1
        _expect(problems, data_lines == rows, f"synth wrote {data_lines} rows, want {rows}")
    elif command == "ingest":
        summary = _summary(out)
        _expect(problems, summary.get("records") == str(rows),
                f"records {summary.get('records')} != generated {rows}")
        _expect(problems, summary.get("skipped_rows") == "0",
                f"skipped_rows {summary.get('skipped_rows')} != 0")
    elif command == "measures":
        firm_rows = len(read_table(out / "firm_productivity.csv"))
        _expect(problems, firm_rows == rows, f"firm_productivity has {firm_rows} rows")
        coverage = {f"{r['country']}|{r['year']}": r["coverage"]
                    for r in read_table(out / "gdp_coverage.csv")}
        _expect(problems, set(coverage) == set(truth["coverage"]), "gdp_coverage keys differ")
        for key, planted in truth["coverage"].items():
            _expect(problems, _close(coverage.get(key, ""), planted),
                    f"gdp_coverage {key}: {coverage.get(key)} != planted {planted}")
    elif command == "fit-production":
        fits = read_table(out / "production_fits.csv")
        seen = {f"{r['country']}|{r['sector_class']}|{r['year']}": r for r in fits}
        _expect(problems, set(seen) == set(truth["strata"]), "fitted strata differ")
        for key, r in seen.items():
            for name in ("alpha", "beta"):
                est, se = float(r[name]), float(r[f"se_{name}"])
                _expect(problems, abs(est - truth[name]) <= SE_BAND * se,
                        f"{key}: {name} {est} more than {SE_BAND} se ({se}) "
                        f"from planted {truth[name]}")
            _expect(problems, int(r["n_used"]) == truth["strata"].get(key),
                    f"{key}: n_used {r['n_used']} != {truth['strata'].get(key)}")
    elif command == "fit-pareto":
        (fit,) = read_table(out / "pareto_fit.csv")
        _expect(problems, int(fit["n"]) == rows, f"pareto_fit.n {fit['n']} != usable {rows}")
    elif command == "pareto-series":
        years = len(read_table(out / "pareto_series.csv"))
        _expect(problems, years == truth["years"], f"pareto_series has {years} years")
    elif command == "prod-series":
        series = read_table(out / "productivity_series.csv")
        _expect(problems, len(series) == truth["series_points"],
                f"productivity_series has {len(series)} points")
        firms = sum(int(r["n_firms"]) for r in series)
        _expect(problems, firms == rows, f"productivity_series counts {firms} firms")
    elif command == "size-sweep":
        _check_sweep(problems, out, CLEAN_THRESHOLDS, truth["sweep"])


def _check_panel_vendor(command: str, out: Path, stdout: str, stderr: str, truth: dict,
                        problems: list[str]) -> None:
    valid = truth["valid"]
    if command == "ingest":
        summary = _summary(out)
        _expect(problems, summary.get("skipped_rows") == str(truth["skipped"]),
                f"skipped_rows {summary.get('skipped_rows')} != planted {truth['skipped']}")
        _expect(problems, summary.get("records") == str(valid),
                f"records {summary.get('records')} != planted {valid}")
    elif command == "measures":
        excluded = _excluded(stderr)
        _expect(problems, excluded == truth["incomplete"],
                f"measures excluded {excluded} != planted incomplete {truth['incomplete']}")
        firm_rows = len(read_table(out / "firm_productivity.csv"))
        _expect(problems, firm_rows == valid - truth["incomplete"],
                f"firm_productivity has {firm_rows} rows")
    elif command == "fit-production":
        fits = read_table(out / "production_fits.csv")
        used = {f"{r['country']}|{r['sector_class']}|{r['year']}": int(r["n_used"])
                for r in fits}
        _expect(problems, used == truth["strata"],
                f"per-stratum n_used differs from the planted valid rows "
                f"({len(used)} strata fitted, {len(truth['strata'])} planted)")
    elif command == "pareto-series":
        years = len(read_table(out / "pareto_series.csv"))
        _expect(problems, years == truth["years"], f"pareto_series has {years} years")
    elif command == "size-sweep":
        _check_sweep(problems, out, VENDOR_THRESHOLDS, truth["sweep"])


def equilibrium_oracle(scenario: dict) -> np.ndarray:
    """Labor at the common marginal product, by bisection in log w.

    Solves sum_i L_i(w) = L_total with
    L_i(w) = (beta_i * s_i * K_i**alpha_i / w)**(1 / (1 - beta_i)).
    """
    firms = scenario["firms"]
    beta = np.array([f["beta"] for f in firms])
    log_base = np.log(beta * np.array([f["scale"] for f in firms])
                      * np.array([f["capital"] for f in firms])
                      ** np.array([f["alpha"] for f in firms]))
    total = float(np.sum([f["labor"] for f in firms]))

    def demand(log_w: float) -> np.ndarray:
        return np.exp((log_base - log_w) / (1.0 - beta))

    lo, hi = -50.0, 50.0  # demand(lo) > total > demand(hi) for the drawn ranges
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if demand(mid).sum() > total:
            lo = mid
        else:
            hi = mid
    return demand(0.5 * (lo + hi))


def _check_realloc(command: str, out: Path, stdout: str, stderr: str, truth: dict,
                   problems: list[str]) -> None:
    _expect(problems, stdout.startswith("converged"), f"simulate: {stdout.strip()!r}")
    trace = read_table(out / "trace.csv")
    firms = read_table(out / "final_firms.csv")
    total = float(np.sum([f["labor"] for f in truth["scenario"]["firms"]]))
    labors = [float(r["total_labor"]) for r in trace]
    drift = max(abs(x - total) for x in labors)
    _expect(problems, drift <= 1e-12 * total, f"labor drifted by {drift} over the trace")
    outputs = [float(r["total_output"]) for r in trace]
    _expect(problems, all(b >= a - 1e-12 * abs(a) for a, b in zip(outputs, outputs[1:])),
            "total output decreased during reallocation")
    spread = float(trace[-1]["max_spread"])
    _expect(problems, spread <= truth["tol"], f"final spread {spread} > tol {truth['tol']}")
    final = np.array([float(r["labor"]) for r in firms])
    _expect(problems, abs(final.sum() - total) <= 1e-12 * total,
            f"final labor sums to {final.sum()}, want {total}")
    if "oracle" not in truth:
        truth["oracle"] = equilibrium_oracle(truth["scenario"])
    rel = float(np.max(np.abs(final - truth["oracle"]) / truth["oracle"]))
    _expect(problems, rel <= 1e-6, f"final labor is {rel:.3g} relative from the oracle")


_CHECKS = {"panel-clean": _check_panel_clean, "panel-vendor": _check_panel_vendor,
           "realloc": _check_realloc}


def check(workload: str, command: str, out_dir: Path, stdout: str, stderr: str,
          truth: dict) -> list[str]:
    problems: list[str] = []
    try:
        _CHECKS[workload](command, out_dir, stdout, stderr, truth, problems)
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"{command}: unreadable output: {exc!r}")
    return problems
