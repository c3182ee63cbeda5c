from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import firmprod
from firmprod._emit import format_cell
from firmprod.cli import main
from firmprod.ingest import Dataset, FirmRecord, write_firm_records

GOLDEN_DIR = Path(__file__).parent / "golden"

SYNTH_SPEC = {
    "n": 1000,
    "log_a": 0.0,
    "alpha": 0.4,
    "beta": 0.6,
    "noise_sigma": 0.05,
    "size_dist": {"kind": "lognormal", "mean_log": 3.0, "sigma_log": 1.2},
    "capital_rule": {"coeff": 1.0, "exponent": 1.0, "sigma": 0.4},
    "labor_share": 0.55,
    "seed": 424,
    "year": 2003,
    "country": "JP",
    "sector_class": "manufacturing",
    "n_sectors": 5,
    "currency_unit": "kUSD",
}

MACRO = [{"country": "JP", "year": 2003, "labor_share": 0.55, "gdp": 1.0e6,
          "exchange_rate": 1.0}]


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return result


def setup_data(runner):
    Path("spec.json").write_text(json.dumps(SYNTH_SPEC))
    Path("macro.json").write_text(json.dumps(MACRO))
    run_ok(runner, ["synth", "--spec", "spec.json", "--out", "data"])


def read_rows(path):
    lines = [ln for ln in Path(path).read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_synth_then_fit_production_recovers_ground_truth(runner):
    with runner.isolated_filesystem():
        setup_data(runner)
        run_ok(runner, ["fit-production", "--input", "data/firms.csv", "--out", "out"])
        (row,) = read_rows("out/production_fits.csv")
        assert abs(float(row["alpha"]) - 0.4) < 0.05
        assert abs(float(row["beta"]) - 0.6) < 0.05
        assert float(row["r2"]) > 0.9
        assert row["returns_to_scale"] == "constant"


def test_fit_pareto_three_point_exact_power_law(runner):
    with runner.isolated_filesystem():
        header = "firm_id,year,country,sector,sector_class,revenue,cogs,workers"
        values = [1.0, 2.0 ** -0.5, 3.0 ** -0.5]
        lines = [header] + [
            f"F{i},2003,JP,s,manufacturing,{2 * v},{v},1" for i, v in enumerate(values)
        ]
        Path("three.csv").write_text("\n".join(lines) + "\n")
        run_ok(runner, ["fit-pareto", "--input", "three.csv", "--tail", "whole",
                        "--out", "out"])
        (row,) = read_rows("out/pareto_fit.csv")
        assert float(row["mu"]) == pytest.approx(2.0, abs=1e-9)
        assert float(row["r2"]) == pytest.approx(1.0, abs=1e-12)


def test_size_sweep_consistent_with_measures(runner):
    with runner.isolated_filesystem():
        setup_data(runner)
        run_ok(runner, ["size-sweep", "--input", "data/firms.csv", "--thresholds", "0",
                        "--out", "sweep"])
        run_ok(runner, ["measures", "--input", "data/firms.csv", "--out", "meas"])
        (point,) = read_rows("sweep/size_sweep.csv")
        firms = read_rows("meas/firm_productivity.csv")
        total_value = sum(float(r["value"]) for r in firms)
        total_workers = sum(int(r["workers"]) for r in firms)
        assert float(point["productivity"]) == pytest.approx(
            total_value / total_workers, rel=1e-12
        )


def test_outputs_are_deterministic(runner):
    with runner.isolated_filesystem():
        Path("spec.json").write_text(json.dumps(SYNTH_SPEC))
        run_ok(runner, ["synth", "--spec", "spec.json", "--out", "a"])
        run_ok(runner, ["synth", "--spec", "spec.json", "--out", "b"])
        assert Path("a/firms.csv").read_bytes() == Path("b/firms.csv").read_bytes()


def test_seed_override_changes_output(runner):
    with runner.isolated_filesystem():
        Path("spec.json").write_text(json.dumps(SYNTH_SPEC))
        run_ok(runner, ["synth", "--spec", "spec.json", "--out", "a"])
        run_ok(runner, ["synth", "--spec", "spec.json", "--seed", "55", "--out", "b"])
        assert Path("a/firms.csv").read_text() != Path("b/firms.csv").read_text()


def test_measures_emits_gdp_coverage_with_macro(runner):
    with runner.isolated_filesystem():
        setup_data(runner)
        run_ok(runner, ["measures", "--input", "data/firms.csv", "--macro", "macro.json",
                        "--basis", "av-share", "--out", "out"])
        (row,) = read_rows("out/gdp_coverage.csv")
        assert row["country"] == "JP"
        assert float(row["coverage"]) > 0


_COVERAGE_FIRMS = """\
firm_id,year,country,sector,sector_class,revenue,cogs,workers,total_labor_cost,capital,\
ordinary_income,financial_expense,tax_public_charge,depreciation
a,2002,JP,s1,manufacturing,120.5,20.25,10,30,50,40.5,1.25,2,3
b,2002,JP,s2,manufacturing,80.75,60,4,10,20,5.5,0.5,1,1
c,2002,JP,s1,manufacturing,50,10,0,10,20,5,0,0,0
d,2003,JP,s1,non_manufacturing,300.1,100.3,20,70,90,60.7,3.3,4.4,5.5
e,2003,JP,s2,manufacturing,45,5,3,9,,12,,1,1
f,2004,JP,s1,manufacturing,64,4,6,12,30,20,2,2,2
g,2002,US,s1,manufacturing,99,9,9,19,29,39,1,1,1
h,2002,DE,s1,manufacturing,77,7,7,17,27,37,1,1,1
"""
_COVERAGE_MACRO = [
    {"country": "JP", "year": 2002, "labor_share": 0.4, "gdp": 1700.0},
    {"country": "JP", "year": 2003, "labor_share": 0.6, "gdp": 2900.5},
    {"country": "US", "year": 2002, "labor_share": 0.5},
]


@pytest.mark.parametrize("basis", ["gm", "av-share", "av-components"])
def test_gdp_coverage_rows_match_the_library_function(runner, basis):
    # Cells: JP 2002 and 2003 have GDP, JP 2004 and DE 2002 have no macro
    # entry, US 2002 has no GDP; c has zero workers, e lacks two components.
    with runner.isolated_filesystem():
        Path("firms.csv").write_text(_COVERAGE_FIRMS)
        Path("macro.json").write_text(json.dumps(_COVERAGE_MACRO))
        run_ok(runner, ["measures", "--input", "firms.csv", "--macro", "macro.json",
                        "--basis", basis, "--out", "out"])
        ctx = firmprod.MacroContext.from_json("macro.json")
        value_basis = {"gm": firmprod.ValueBasis.GROSS_MARGIN,
                       "av-share": firmprod.ValueBasis.ADDED_VALUE_LABOR_SHARE,
                       "av-components": firmprod.ValueBasis.ADDED_VALUE_COMPONENTS}[basis]
        parsed = firmprod.parse_firm_records("firms.csv").dataset
        kept = firmprod.Dataset(records=firmprod.evaluate(parsed, value_basis, ctx).records)
        if value_basis is firmprod.ValueBasis.GROSS_MARGIN:
            value_basis = firmprod.ValueBasis.ADDED_VALUE_LABOR_SHARE
        expected = []
        for country, year in sorted({(r.country, r.year) for r in kept}):
            try:
                ratio = firmprod.gdp_coverage(kept, ctx, year, value_basis, country)
            except firmprod.errors.DataError:
                continue
            expected.append({"country": country, "year": str(year),
                             "coverage": format_cell(ratio)})
        assert len(expected) == 2
        assert read_rows("out/gdp_coverage.csv") == expected


def test_pareto_series_and_prod_series(runner):
    with runner.isolated_filesystem():
        Path("spec.json").write_text(json.dumps(SYNTH_SPEC))
        spec2 = dict(SYNTH_SPEC, year=2004, seed=77)
        Path("spec2.json").write_text(json.dumps(spec2))
        run_ok(runner, ["synth", "--spec", "spec.json", "--out", "y1"])
        run_ok(runner, ["synth", "--spec", "spec2.json", "--out", "y2"])
        merged = Path("y1/firms.csv").read_text()
        extra = [
            line
            for line in Path("y2/firms.csv").read_text().splitlines()
            if not line.startswith("#") and not line.startswith("firm_id")
        ]
        Path("both.csv").write_text(merged + "\n".join(extra) + "\n")

        run_ok(runner, ["pareto-series", "--input", "both.csv", "--tail", "whole",
                        "--out", "out"])
        rows = read_rows("out/pareto_series.csv")
        assert [r["year"] for r in rows] == ["2003", "2004"]

        run_ok(runner, ["prod-series", "--input", "both.csv", "--out", "out"])
        series = read_rows("out/productivity_series.csv")
        assert [(r["year"], r["sector_class"]) for r in series] == [
            ("2003", "manufacturing"),
            ("2004", "manufacturing"),
        ]



def test_value_columns_carry_the_raw_value_sum(runner):
    # 102.505908 - 94.566958 is 7.93895000000001 at 15 digits; dividing by
    # 180 workers and multiplying back would round it to 7.93895.
    with runner.isolated_filesystem():
        header = "firm_id,year,country,sector,sector_class,revenue,cogs,workers"
        Path("one.csv").write_text(
            header + "\nF1,2003,JP,s,manufacturing,102.505908,94.566958,180\n"
        )
        run_ok(runner, ["measures", "--input", "one.csv", "--out", "out"])
        (firm,) = read_rows("out/firm_productivity.csv")
        assert firm["value"] == "7.93895000000001"
        (sector,) = read_rows("out/sector_productivity.csv")
        assert sector["total_value"] == "7.93895000000001"
        run_ok(runner, ["prod-series", "--input", "one.csv", "--out", "out"])
        (point,) = read_rows("out/productivity_series.csv")
        assert point["total_value"] == "7.93895000000001"
        assert float(point["productivity"]) == float(firm["productivity"])

def test_simulate_emits_trace_and_final_state(runner):
    scenario = {
        "firms": [
            {"id": "a", "scale": 1.0, "alpha": 0.4, "beta": 0.6, "capital": 4.0, "labor": 10.0},
            {"id": "b", "scale": 2.0, "alpha": 0.4, "beta": 0.6, "capital": 1.0, "labor": 10.0},
        ],
        "market": {"price": 1.0, "interest_rate": 0.0, "wage": 1.0},
        "step_rule": {"kind": "adaptive"},
        "tol": 1e-8,
    }
    with runner.isolated_filesystem():
        Path("scenario.json").write_text(json.dumps(scenario))
        result = run_ok(runner, ["simulate", "--scenario", "scenario.json", "--out", "out"])
        assert "converged" in result.output
        trace = read_rows("out/trace.csv")
        assert trace[0]["iteration"] == "0"
        finals = read_rows("out/final_firms.csv")
        mps = [float(r["marginal_productivity"]) for r in finals]
        assert max(mps) - min(mps) <= 1e-7 * min(mps)


def test_simulate_reproduces_golden_files(runner, tmp_path, monkeypatch):
    # 30 firms, several with identical parameters, so the run breaks exact
    # marginal-product ties by firm id on both sides of a move.
    monkeypatch.chdir(tmp_path)
    shutil.copy(GOLDEN_DIR / "sim_scenario.json", "scenario.json")
    run_ok(runner, ["simulate", "--scenario", "scenario.json", "--out", "out"])
    assert Path("out/trace.csv").read_bytes() == (GOLDEN_DIR / "sim_trace.csv").read_bytes()
    assert (Path("out/final_firms.csv").read_bytes()
            == (GOLDEN_DIR / "sim_final_firms.csv").read_bytes())


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_emitted_files_follow_umask(runner, tmp_path, monkeypatch, umask, mode):
    monkeypatch.chdir(tmp_path)
    shutil.copy(GOLDEN_DIR / "sim_scenario.json", "scenario.json")
    previous = os.umask(umask)
    try:
        run_ok(runner, ["simulate", "--scenario", "scenario.json", "--out", "out"])
    finally:
        os.umask(previous)
    for name in ("trace.csv", "final_firms.csv"):
        assert Path("out", name).stat().st_mode & 0o777 == mode


def run_process(cwd, *args):
    """Run the CLI in a real process, so an uncaught exception prints its traceback."""
    env = {**os.environ, "PYTHONPATH": str(Path(firmprod.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "firmprod.cli", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)


_TWO_FIRMS = [
    {"id": "a", "scale": 1.0, "alpha": 0.4, "beta": 0.6, "capital": 4.0, "labor": 10.0},
    {"id": "b", "scale": 2.0, "alpha": 0.4, "beta": 0.6, "capital": 1.0, "labor": 10.0},
]


@pytest.mark.parametrize("text", [
    json.dumps({"firms": _TWO_FIRMS})[:40],  # truncated file
    json.dumps({"firms": _TWO_FIRMS, "step_rule": "adaptive"}),
    json.dumps({"firms": _TWO_FIRMS, "tol": 0}),
    json.dumps({"firms": _TWO_FIRMS, "labor_floor": -1.0}),
], ids=["truncated", "step-rule-not-object", "zero-tol", "negative-floor"])
def test_malformed_scenario_is_a_config_error(text, tmp_path):
    (tmp_path / "scenario.json").write_text(text)
    result = run_process(tmp_path, "simulate", "--scenario", "scenario.json", "--out", "out")
    assert result.returncode == 2, result.stderr
    assert "error (config)" in result.stderr
    assert "Traceback" not in result.stderr


_HEADER = "firm_id,year,country,sector,sector_class,revenue,cogs,workers\n"


@pytest.mark.parametrize("command, option, text", [
    ("ingest", "--schema", '{"columns": '),
    ("measures", "--macro", '{"columns": '),
    ("synth", "--spec", '{"columns": '),
    ("synth", "--spec", '{"n": 10, "size_dist": 5}'),
    ("ingest", "--schema", '{"delimiter": ""}'),
    ("ingest", "--schema", '{"year_range": 5}'),
    ("ingest", "--schema", '{"columns": 5}'),
    ("measures", "--macro", '"entries"'),
    ("synth", "--spec", '{"n": 1.5}'),
    ("synth", "--spec", '{"n": true}'),
    ("synth", "--spec", '{"n": 5, "seed": 1.5}'),
    ("synth", "--spec", '{"n": 5, "n_sectors": 2.5}'),
    ("synth", "--spec", '{"n": 5, "year": 2003.5}'),
    ("synth", "--spec", '{"n": 5, "log_a": "x"}'),
    ("synth", "--spec", '{"n": 5, "alpha": null}'),
    ("synth", "--spec", '{"n": 5, "beta": "0.6"}'),
    ("synth", "--spec",
     '{"n": 5, "size_dist": {"kind": "lognormal", "mean_log": "x", "sigma_log": 1}}'),
    ("synth", "--spec", '{"n": 5, "capital_rule": {"exponent": "x"}}'),
    ("synth", "--spec", '{"n": 5, "alpha": NaN}'),
    ("synth", "--spec", '{"n": 5, "noise_sigma": true}'),
    ("synth", "--spec", '{"n": 5, "log_a": 1e308}'),
    ("synth", "--spec", '{"n": 5, "size_dist": {"kind": "fixed", "workers": Infinity}}'),
    ("synth", "--spec", '{"n": 5, "size_dist": {"kind": "fixed", "workers": 1e300}}'),
    ("synth", "--spec", '{"n": 5, "capital_rule": {"exponent": 400}}'),
], ids=["schema-truncated", "macro-truncated", "spec-truncated", "scalar-size-dist",
        "empty-delimiter", "scalar-year-range", "scalar-columns", "macro-string",
        "float-n", "bool-n", "float-seed", "float-n-sectors", "float-year",
        "string-log-a", "null-alpha", "string-beta", "string-mean-log", "string-exponent",
        "nan-alpha", "bool-noise-sigma", "overflowing-value", "infinite-workers",
        "overflowing-workers", "overflowing-capital"])
def test_malformed_config_file_is_a_config_error(command, option, text, tmp_path):
    (tmp_path / "config.json").write_text(text)
    (tmp_path / "firms.csv").write_text(_HEADER + "F1,2003,JP,s,manufacturing,2,1,1\n")
    data = [] if command == "synth" else ["--input", "firms.csv"]
    result = run_process(tmp_path, command, option, "config.json", *data, "--out", "out")
    assert result.returncode == 2, result.stderr
    assert "error (config)" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_nonpositive_rts_tol_is_a_config_error(tol, tmp_path):
    (tmp_path / "firms.csv").write_text(_HEADER + "F1,2003,JP,s,manufacturing,2,1,1\n")
    result = run_process(tmp_path, "fit-production", "--input", "firms.csv",
                         "--rts-tol", tol, "--out", "out")
    assert result.returncode == 2, result.stderr
    assert "error (config): --rts-tol must be > 0" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("entry", [
    {"labor_share": float("nan"), "gdp": 1e6},
    {"labor_share": 0.5, "gdp": float("inf")},
    {"labor_share": 0.5, "gdp": 1e6, "exchange_rate": float("nan")},
], ids=["nan-labor-share", "infinite-gdp", "nan-exchange-rate"])
def test_non_finite_macro_entry_is_a_data_error(entry, tmp_path):
    (tmp_path / "macro.json").write_text(json.dumps([{"country": "JP", "year": 2003, **entry}]))
    (tmp_path / "firms.csv").write_text(_HEADER + "F1,2003,JP,s,manufacturing,2,1,1\n")
    result = run_process(tmp_path, "measures", "--input", "firms.csv", "--macro", "macro.json",
                         "--basis", "av-share", "--out", "out")
    assert result.returncode == 3, result.stderr
    assert "must be finite" in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "out").exists()


def test_tables_quote_cells_a_csv_reader_would_split(runner):
    cells = [("Acme, Inc", "steel, raw"), ("#7", 'say "hi"'), ("F8", "#tin\ncan")]
    with runner.isolated_filesystem():
        records = [FirmRecord(firm_id, 2003, "JP", sector, "manufacturing", 10.0 + i, 1.0, 2)
                   for i, (firm_id, sector) in enumerate(cells)]
        write_firm_records(Dataset(tuple(records)), "firms.csv")
        run_ok(runner, ["measures", "--input", "firms.csv", "--out", "out"])

        def read_back(name):
            with open(f"out/{name}.csv", newline="") as fh:
                lines = [line for line in fh if not line.startswith("#")]
            return list(csv.DictReader(lines))

        firms = read_back("firm_productivity")
        assert [(r["firm_id"], r["sector"]) for r in firms] == cells
        assert [r["productivity"] for r in firms] == ["4.5", "5", "5.5"]
        sectors = read_back("sector_productivity")
        assert sorted(r["sector"] for r in sectors) == sorted(sector for _, sector in cells)
        assert all(r["n_firms"] == "1" for r in sectors)


@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
def test_undecodable_or_oversized_input_is_a_data_error(strict, tmp_path):
    row = "F2,2003,JP,s,manufacturing,2,1,1\n"
    (tmp_path / "bytes.csv").write_bytes((_HEADER + row).encode().replace(b",s,", b",s\xff,"))
    (tmp_path / "big.csv").write_text(_HEADER + row.replace(",s,", "," + "s" * 200_000 + ",") + row)
    flags = ["--strict"] if strict else []
    undecodable = run_process(tmp_path, "ingest", "--input", "bytes.csv", *flags, "--out", "a")
    assert undecodable.returncode == 3, undecodable.stderr
    assert "not UTF-8" in undecodable.stderr
    oversized = run_process(tmp_path, "ingest", "--input", "big.csv", *flags, "--out", "b")
    assert "field larger than field limit" in oversized.stderr
    assert oversized.returncode == (3 if strict else 0), oversized.stderr
    for result in (undecodable, oversized):
        assert "Traceback" not in result.stderr


_COMPONENT_FIRMS = (
    "firm_id,year,country,sector,sector_class,revenue,cogs,workers,total_labor_cost,"
    "capital,ordinary_income,financial_expense,tax_public_charge,depreciation\n"
    "F1,2003,JP,s1,manufacturing,10,4,2,3,5,1,1,0.5,0.5\n"
    "F2,2003,JP,s1,manufacturing,30,10,3,8,5,5,3,2,2\n"
    "F3,2003,JP,s2,manufacturing,90,20,4,30,5,20,10,5,5\n"
    "F4,2003,JP,s2,manufacturing,50,10,5,20,5,10,5,3,\n"  # no depreciation
)


@pytest.mark.parametrize("command", ["fit-pareto", "pareto-series"])
def test_pareto_commands_report_records_the_basis_could_not_evaluate(runner, command):
    with runner.isolated_filesystem():
        Path("firms.csv").write_text(_COMPONENT_FIRMS)
        result = run_ok(runner, [command, "--input", "firms.csv", "--basis", "av-components",
                                 "--tail", "whole", "--out", "out"])
        assert "excluded 1 records the basis could not evaluate" in result.stderr


def test_json_format_output(runner):
    with runner.isolated_filesystem():
        setup_data(runner)
        run_ok(runner, ["ingest", "--input", "data/firms.csv", "--out", "out",
                        "--format", "json"])
        doc = json.loads(Path("out/summary.json").read_text())
        assert doc["tool"].startswith("firmprod ")
        assert doc["rows"] == len(doc["data"])


def test_exit_code_for_config_errors(runner):
    with runner.isolated_filesystem():
        setup_data(runner)
        result = runner.invoke(main, ["fit-pareto", "--input", "data/firms.csv",
                                      "--tail", "bogus", "--out", "out"])
        assert result.exit_code == 2

        Path("bad.csv").write_text("firm_id,year\n")  # missing mandatory columns
        result = runner.invoke(main, ["ingest", "--input", "bad.csv", "--out", "out"])
        assert result.exit_code == 2


def test_exit_code_for_data_errors(runner):
    with runner.isolated_filesystem():
        header = "firm_id,year,country,sector,sector_class,revenue,cogs,workers"
        Path("bad_row.csv").write_text(
            header + "\nF1,2003,JP,s,manufacturing,oops,1,1\n"
        )
        result = runner.invoke(main, ["ingest", "--input", "bad_row.csv", "--strict",
                                      "--out", "out"])
        assert result.exit_code == 3
        assert "error (data)" in result.output


def test_exit_code_for_numerical_errors(runner):
    with runner.isolated_filesystem():
        header = "firm_id,year,country,sector,sector_class,revenue,cogs,workers"
        rows = [f"F{i},2003,JP,s,manufacturing,2,1,1" for i in range(5)]
        Path("const.csv").write_text(header + "\n" + "\n".join(rows) + "\n")
        result = runner.invoke(main, ["fit-pareto", "--input", "const.csv",
                                      "--tail", "whole", "--out", "out"])
        assert result.exit_code == 4
        assert "error (numerical)" in result.output


def test_ingest_summary_contents(runner):
    with runner.isolated_filesystem():
        setup_data(runner)
        run_ok(runner, ["ingest", "--input", "data/firms.csv", "--out", "out"])
        summary = {r["key"]: r["value"] for r in read_rows("out/summary.csv")}
        assert summary["records"] == "1000"
        assert summary["skipped_rows"] == "0"
        assert summary["currency_unit"] == "unspecified"


def test_emitted_files_carry_metadata_header(runner):
    with runner.isolated_filesystem():
        setup_data(runner)
        run_ok(runner, ["fit-production", "--input", "data/firms.csv", "--out", "out"])
        head = Path("out/production_fits.csv").read_text().splitlines()[:3]
        assert head[0].startswith("# firmprod ")
        assert head[1].startswith("# config: ")
        assert head[2].startswith("# rows: ")


@pytest.mark.parametrize("command", ["ingest", "measures"])
def test_a_schema_reading_one_column_for_two_fields_is_a_config_error(command, tmp_path):
    (tmp_path / "schema.json").write_text(json.dumps({"columns": {"revenue": "X", "cogs": "X"}}))
    (tmp_path / "firms.csv").write_text(
        "firm_id,year,country,sector,sector_class,X,workers\nF1,2003,JP,s,manufacturing,100,10\n")
    result = run_process(tmp_path, command, "--input", "firms.csv", "--schema", "schema.json",
                         "--out", "out")
    assert result.returncode == 2
    assert result.stderr == ("error (config): column 'X' is mapped to more than one field: "
                             "revenue, cogs\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spec, reason", [
    ({"n": 5, "log_a": 1e308}, "generated value inf overflows a money cell"),
    ({"n": 5, "size_dist": {"kind": "pareto", "mu": 0.001, "xmin": 1}},
     "a drawn worker count exceeds the integer range"),
], ids=["huge-log-a", "tiny-pareto-mu"])
def test_an_overflowing_synth_spec_prints_only_its_error_line(spec, reason, tmp_path):
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    result = run_process(tmp_path, "synth", "--spec", "spec.json", "--out", "out")
    assert result.returncode == 2
    assert result.stderr == f"error (config): spec.json: bad synth spec: {reason}\n"


def test_no_command_builds_a_record_object(runner, monkeypatch):
    """Commands read columns: neither a FirmRecord nor a record view is built."""
    calls = []
    init = FirmRecord.__init__
    views = firmprod.records.Columns.records

    def counted_init(self, *args, **kwargs):
        calls.append("FirmRecord.__init__")
        init(self, *args, **kwargs)

    def counted_views(self, *args, **kwargs):
        calls.append("Columns.records")
        return views(self, *args, **kwargs)

    with runner.isolated_filesystem():
        setup_data(runner)
        with open("data/firms.csv", "a") as fh:  # bad rows take the row-wise path
            fh.write("B1,2003,JP,S00,manufacturing,abc,1,1,,,,,,\n"
                     "B2,2003,JP,S00,manufacturing,5,1,1,-1,,,,,\n"
                     "B3,2003,JP,S00,manufacturing,5,1,  7 ,,,,,,\n"
                     "F000001,2003,JP,S00,manufacturing,5,1,1,,,,,,\n")
        monkeypatch.setattr(FirmRecord, "__init__", counted_init)
        monkeypatch.setattr(firmprod.records.Columns, "records", counted_views)
        data = ["--input", "data/firms.csv"]
        for args in (
            ["synth", "--spec", "spec.json"],
            ["ingest", *data],
            *(["measures", *data, "--basis", basis, "--macro", "macro.json", "--year", "2003"]
              for basis in ("gm", "av-share", "av-components")),
            ["fit-production", *data],
            ["fit-production", *data, "--pool-years", "--basis", "av-components"],
            ["fit-pareto", *data],
            ["fit-pareto", *data, "--level", "sector", "--year", "2003"],
            ["pareto-series", *data, "--level", "sector"],
            ["prod-series", *data, "--mode", "mean"],
            ["size-sweep", *data, "--thresholds", "0,10,100"],
        ):
            run_ok(runner, [*args, "--out", "out"])
    assert calls == []
