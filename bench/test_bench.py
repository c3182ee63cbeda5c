"""Self-tests of the benchmark, kept out of the package's test suite.

Run from the root of a checkout::

    python -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from firmprod import cli  # noqa: E402
from firmprod.errors import DataError  # noqa: E402
from firmprod.ingest import CsvSchema, parse_firm_records  # noqa: E402
from firmprod.measures import ValueBasis, labor_productivity  # noqa: E402

SMALL = {
    "panel-clean": {"rows": 2_000},
    "panel-vendor": {"countries": 4, "years": 3, "firms_per_stratum": 10},
    "realloc": {"firms": 20},
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_seed_deterministic(workload, tmp_path):
    first = workloads.setup(workload, tmp_path / "a", 7, SMALL[workload])
    again = workloads.setup(workload, tmp_path / "b", 7, SMALL[workload])
    other = workloads.setup(workload, tmp_path / "c", 8, SMALL[workload])
    assert checks.digests(tmp_path / "a") == checks.digests(tmp_path / "b")
    assert first == again
    assert checks.digests(tmp_path / "a") != checks.digests(tmp_path / "c")
    assert first != other


def test_planted_bad_rows_are_what_the_parser_skips(tmp_path):
    truth = workloads.setup_panel_vendor(tmp_path, 3, countries=10, years=5,
                                         firms_per_stratum=10)
    schema = CsvSchema.from_json(tmp_path / "schema.json")
    report = parse_firm_records(tmp_path / "vendor.tsv", schema)
    assert all(truth["skipped_by_kind"].values())  # every kind is planted
    assert report.n_skipped == truth["skipped"]
    assert len(report.dataset) == truth["valid"]
    reasons = {
        "non_numeric": "workers: cannot parse",
        "negative_cost": "cogs: negative value",
        "empty_mandatory": "sector: mandatory cell is empty",
        "year_out_of_range": "year: 1850 outside",
    }
    for kind, prefix in reasons.items():
        found = sum(issue.reason.startswith(prefix) for issue in report.skipped)
        assert found == truth["skipped_by_kind"][kind], kind

    excluded = 0
    for record in report.dataset:
        try:
            labor_productivity(record, ValueBasis.ADDED_VALUE_COMPONENTS)
        except DataError:
            excluded += 1
    assert excluded == truth["incomplete"]


def _bindings() -> dict[tuple[str, str], object]:
    out = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "firmprod" or name.startswith("firmprod.")):
            out.update({(name, attr): obj for attr, obj in vars(module).items()})
    out[("Dataset", "__init__")] = sys.modules["firmprod.ingest"].Dataset.__init__
    return out


def test_tracer_restores_every_wrapped_function():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = _bindings()
        assert wrapped[("firmprod.cli", "parse_firm_records")] is not (
            before[("firmprod.cli", "parse_firm_records")])
        assert wrapped[("firmprod.production", "fit_cobb_douglas")] is not (
            before[("firmprod.production", "fit_cobb_douglas")])
        assert wrapped[("Dataset", "__init__")] is not before[("Dataset", "__init__")]
        assert "production.log_design" in tracer.names
        assert not set(tracer.names) & tracing.UNWRAPPED
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pipeline_is_correct_and_spans_nest(workload, tmp_path):
    runner = run.Runner(workload, 5, tmp_path, SMALL[workload])
    runner.setup()
    tracer = tracing.Tracer(workload=workload)
    run.traced_pipeline(runner, cli.main, tracer)
    assert runner.problems == []
    assert runner.attempted == len(workloads.commands(workload))

    spans = tracer.spans
    commands = [s for s in spans if s["name"].startswith("cli.")]
    assert [s["command"] for s in commands] == [name for name, _ in runner.steps]
    assert tracing.child_overruns(spans) == []
    for i, span in enumerate(spans):
        assert span["start"] <= span["end"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"], i
    # a traced run and an untraced one write byte-identical tables
    untraced = run.Runner(workload, 5, tmp_path, SMALL[workload])
    untraced.truth = runner.truth
    untraced.reference = dict(runner.reference)
    untraced.pipeline(lambda argv: untraced.call(cli.main, argv))
    assert untraced.problems == []


def test_untraced_run_divides_each_pipeline_by_the_references_around_it(tmp_path):
    runner = run.Runner("realloc", 5, tmp_path, SMALL["realloc"])
    values, detail = run.run_untraced(runner, 1.0)
    assert runner.problems == [] and runner.attempted >= 1
    walls = detail["pipeline_s"]["samples"]
    references = detail["reference_s"]["samples"]
    ratios = detail["pipeline_vs_reference"]["samples"]
    assert len(references) == len(walls) + 1
    assert ratios == [w / statistics.mean(references[i:i + 2]) for i, w in enumerate(walls)]
    assert values["pipeline_vs_reference"] == statistics.median(ratios)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [*spec["command"], "--workload", "realloc", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
