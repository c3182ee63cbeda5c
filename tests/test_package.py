"""The package's lazy exports, what each command loads, and what a CLI process
does with the garbage collector."""

from __future__ import annotations

import gc
import importlib
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import firmprod
from conftest import SRC, child_env
from firmprod import cli

#: The modules ``import firmprod`` registers without running them.
LAZY_MODULES = ("_emit", "_parse_cache", "errors", "equilibrium", "ingest", "measures",
                "pareto", "production", "records", "synth")


def test_every_exported_name_is_what_its_defining_module_binds():
    for name in firmprod.__all__:
        module = importlib.import_module(f"firmprod.{firmprod._ORIGIN[name]}")
        assert getattr(firmprod, name) is getattr(module, name), name
        assert getattr(firmprod, name).__module__ == module.__name__, name


def test_star_import_binds_every_exported_name():
    namespace: dict[str, object] = {}
    exec("from firmprod import *", namespace)
    assert set(firmprod.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(firmprod, name) for name in firmprod.__all__)


def test_dir_lists_every_exported_name():
    listed = dir(firmprod)
    assert set(firmprod.__all__) <= set(listed)
    assert "__version__" in listed
    assert listed == sorted(listed)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        firmprod.no_such_name  # noqa: B018
    assert not hasattr(firmprod, "cli_main")
    with pytest.raises(ImportError):
        exec("from firmprod import no_such_name", {})
    # library API that no command reached, deleted with its own tests
    for owner, name in ((firmprod, "merge_datasets"), (firmprod, "MergePolicy"),
                        (firmprod, "productivity_from_capital_ratio"),
                        (firmprod.ingest, "merge_datasets"), (firmprod.ingest, "MergePolicy"),
                        (firmprod.errors, "MergeConflictError"),
                        (firmprod.errors, "UnitMismatchError"),
                        (firmprod.production, "predict_log_values"),
                        (firmprod.production, "productivity_from_capital_ratio"),
                        (firmprod.ProductionFit, "scale"), (firmprod.MacroContext, "keys"),
                        (firmprod.RankSizeSeries, "points")):
        assert not hasattr(owner, name), name


#: The firmprod module behind each layer of the benchmark's per-layer metric names.
_BENCH_LAYERS = {"ingest": "ingest", "measures": "measures", "production": "production",
                 "pareto": "pareto", "equilibrium": "equilibrium", "synth": "synth",
                 "emit": "_emit"}


def test_every_function_the_benchmark_times_is_defined():
    spec = json.loads((SRC.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    timed = [metric["name"].split(".") for metric in spec["per_layer"]]
    timed = [(layer, name) for layer, name, *unit in timed
             if layer in _BENCH_LAYERS and unit in (["s"], ["calls"])]
    assert ("measures", "aggregate_by_sector") in timed
    for layer, name in timed:
        module = importlib.import_module(f"firmprod.{_BENCH_LAYERS[layer]}")
        bound = getattr(module, name, None)
        assert not name.startswith("_"), name
        assert inspect.isfunction(bound) or (name == "Dataset" and inspect.isclass(bound)), (
            f"{layer}.{name}")


# A child process reports, after its work, which firmprod modules have run their
# body. A module registered lazily and never touched still has only the
# attributes the import system set; running its body binds ``__builtins__``.
_REPORT = """
import json, sys
def report():
    ran = sorted(name for name, module in sys.modules.items()
                 if name.startswith("firmprod.")
                 and "__builtins__" in object.__getattribute__(module, "__dict__"))
    print("\\nRAN " + json.dumps(ran))
"""


def _run(tmp_path: Path, body: str) -> list[str]:
    proc = subprocess.run([sys.executable, "-c", _REPORT + body], cwd=tmp_path, env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.rsplit("\nRAN ", 1)[1])


def _run_cli(tmp_path: Path, *argv: str) -> list[str]:
    """Run ``firmprod.cli`` as ``__main__`` in a child, as ``python -m`` does.

    The child also checks that the command never imported ``numpy.ma``,
    which a plain ``np.unique`` does (about 15 ms).
    """
    return _run(tmp_path, f"""
import runpy
sys.argv = ["firmprod", *{list(argv)!r}]
try:
    runpy.run_module("firmprod.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code in (0, None), exc.code
assert "numpy.ma" not in sys.modules, "the command imported numpy.ma"
report()
""")


def test_a_bare_import_runs_no_module(tmp_path):
    assert _run(tmp_path, "import firmprod\nreport()") == []


def test_the_lazy_registration_covers_every_module_but_the_cli(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, firmprod; print(' '.join(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    loaded = {name for name in proc.stdout.split() if name.startswith("firmprod.")}
    assert loaded == {f"firmprod.{name}" for name in LAZY_MODULES}


_SPEC = {"n": 50, "log_a": 0.0, "alpha": 0.4, "beta": 0.6, "noise_sigma": 0.05,
         "size_dist": {"kind": "lognormal", "mean_log": 3.0, "sigma_log": 1.2},
         "capital_rule": {"coeff": 1.0, "exponent": 1.0, "sigma": 0.4}, "labor_share": 0.55,
         "seed": 1, "year": 2003, "country": "JP", "sector_class": "manufacturing",
         "n_sectors": 2, "currency_unit": "kUSD"}


#: The layers every command runs: ``ingest``, and what it imports.
_BASE = ("_emit", "errors", "ingest", "records")
_READS = ("_parse_cache",)  # the commands that read --input
_EVALUATES = (*_READS, "measures")

#: Each command, and the layers it runs besides :data:`_BASE` (README's table).
_COMMAND_LAYERS = [
    (("--version",), ()),
    (("--help",), ()),
    (("synth", "--spec", "spec.json", "--out", "out"), ("synth",)),
    (("ingest", "--input", "firms.csv", "--out", "out"), _READS),
    (("measures", "--input", "firms.csv", "--out", "out"), _EVALUATES),
    (("prod-series", "--input", "firms.csv", "--out", "out"), _EVALUATES),
    (("size-sweep", "--input", "firms.csv", "--thresholds", "0,10", "--out", "out"),
     _EVALUATES),
    (("fit-production", "--input", "firms.csv", "--out", "out"),
     (*_EVALUATES, "production")),
    (("fit-pareto", "--input", "firms.csv", "--out", "out"), (*_EVALUATES, "pareto")),
    (("pareto-series", "--input", "firms.csv", "--out", "out"), (*_EVALUATES, "pareto")),
    (("simulate", "--scenario", "scenario.json", "--out", "out"), ("equilibrium",)),
]


@pytest.mark.parametrize("argv, layers", _COMMAND_LAYERS,
                         ids=[argv[0].lstrip("-") for argv, _ in _COMMAND_LAYERS])
def test_each_command_runs_exactly_the_layers_of_the_readme_table(tmp_path, argv, layers):
    (tmp_path / "spec.json").write_text(json.dumps(_SPEC))
    golden = Path(__file__).parent / "golden"
    shutil.copy(golden / "firms.csv", tmp_path / "firms.csv")
    shutil.copy(golden / "sim_scenario.json", tmp_path / "scenario.json")
    ran = _run_cli(tmp_path, *argv)
    assert set(ran) == {f"firmprod.{name}" for name in (*_BASE, *layers)}
    # Only the commands that read --input keep a parse cache beside it.
    caches = list(tmp_path.rglob(".firmprod-cache"))
    assert caches == ([tmp_path / ".firmprod-cache"] if "_parse_cache" in layers else [])


# A child reports, at exit, whether the collector is on and how many objects are
# frozen, and whether it was on when numpy and click were first imported.
_COLLECTOR = """
import atexit, gc, json, sys
imported = {}
def audit(event, args):
    if event == "import" and args[0] in ("numpy", "click"):
        imported.setdefault(args[0], gc.isenabled())
sys.addaudithook(audit)
atexit.register(lambda: print("\\nGC " + json.dumps(
    {"enabled": gc.isenabled(), "frozen": gc.get_freeze_count(), "imported": imported})))
sys.argv = ["firmprod", "simulate", "--scenario", "scenario.json", "--out", "out"]
"""


def _collector(tmp_path: Path, body: str) -> dict:
    shutil.copy(Path(__file__).parent / "golden" / "sim_scenario.json", tmp_path / "scenario.json")
    proc = subprocess.run([sys.executable, "-c", _COLLECTOR + body], cwd=tmp_path,
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "trace.csv").is_file()
    return json.loads(proc.stdout.rsplit("\nGC ", 1)[1])


def test_a_cli_process_imports_uncollected_and_freezes_that_heap(tmp_path):
    state = _collector(tmp_path, """
import runpy
runpy.run_module("firmprod.cli", run_name="__main__", alter_sys=True)
""")
    assert state["imported"] == {"numpy": False, "click": False}
    assert state["enabled"] and state["frozen"] > 0


def test_the_installed_script_freezes_the_import_heap(tmp_path):
    # The same two lines as the wrapper an installer writes for [project.scripts].
    pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    module, function = re.search(r'^firmprod = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
    state = _collector(tmp_path, f"from {module} import {function}\nsys.exit({function}())")
    assert state["enabled"] and state["frozen"] > 0


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_an_in_process_command_leaves_the_collector_as_it_found_it(tmp_path, enabled):
    shutil.copy(Path(__file__).parent / "golden" / "sim_scenario.json", tmp_path / "scenario.json")
    argv = ["simulate", "--scenario", str(tmp_path / "scenario.json"),
            "--out", str(tmp_path / "out")]
    was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        cli.main(argv, standalone_mode=False)
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was_enabled else gc.disable)()
