"""The package's lazy exports and what each command loads."""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import firmprod

SRC = Path(firmprod.__file__).parents[1]

#: The modules ``import firmprod`` registers without running them.
LAZY_MODULES = ("_emit", "errors", "equilibrium", "ingest", "measures", "pareto",
                "production", "records", "synth")


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
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", _REPORT + body], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.rsplit("\nRAN ", 1)[1])


def _run_cli(tmp_path: Path, *argv: str) -> list[str]:
    """Run ``firmprod.cli`` as ``__main__`` in a child, as ``python -m`` does."""
    return _run(tmp_path, f"""
import runpy
sys.argv = ["firmprod", *{list(argv)!r}]
try:
    runpy.run_module("firmprod.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code in (0, None), exc.code
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


def test_help_runs_neither_the_simulator_nor_the_generator(tmp_path):
    ran = _run_cli(tmp_path, "--help")
    assert "firmprod.equilibrium" not in ran
    assert "firmprod.synth" not in ran
    assert "firmprod.ingest" in ran  # the control: a module the CLI imports did run


def test_measures_runs_only_the_layers_it_uses(tmp_path):
    (tmp_path / "firms.csv").write_text(
        "firm_id,year,country,sector,sector_class,revenue,cogs,workers\n"
        "F1,2003,JP,s,manufacturing,5,1,2\nF2,2003,JP,s,manufacturing,9,4,3\n")
    ran = _run_cli(tmp_path, "measures", "--input", "firms.csv", "--out", "out")
    assert (tmp_path / "out" / "firm_productivity.csv").is_file()
    assert {"firmprod.ingest", "firmprod.measures", "firmprod._emit",
            "firmprod._parse_cache"} <= set(ran)
    assert (tmp_path / ".firmprod-cache").is_dir()
    for layer in ("equilibrium", "synth", "pareto", "production"):
        assert f"firmprod.{layer}" not in ran


_SPEC = {"n": 50, "log_a": 0.0, "alpha": 0.4, "beta": 0.6, "noise_sigma": 0.05,
         "size_dist": {"kind": "lognormal", "mean_log": 3.0, "sigma_log": 1.2},
         "capital_rule": {"coeff": 1.0, "exponent": 1.0, "sigma": 0.4}, "labor_share": 0.55,
         "seed": 1, "year": 2003, "country": "JP", "sector_class": "manufacturing",
         "n_sectors": 2, "currency_unit": "kUSD"}


@pytest.mark.parametrize("argv", [
    ("--version",),
    ("--help",),
    ("synth", "--spec", "spec.json", "--out", "out"),
    ("simulate", "--scenario", "scenario.json", "--out", "out"),
], ids=["version", "help", "synth", "simulate"])
def test_commands_that_parse_no_input_leave_the_parse_cache_alone(tmp_path, argv):
    (tmp_path / "spec.json").write_text(json.dumps(_SPEC))
    shutil.copy(Path(__file__).parent / "golden" / "sim_scenario.json",
                tmp_path / "scenario.json")
    ran = _run_cli(tmp_path, *argv)
    assert "firmprod._parse_cache" not in ran
    assert not list(tmp_path.rglob(".firmprod-cache"))


@pytest.mark.parametrize("argv", [
    ("--version",),
    ("--help",),
    ("synth", "--spec", "spec.json", "--out", "out"),
    ("ingest", "--input", "firms.csv", "--out", "out"),
    ("simulate", "--scenario", "scenario.json", "--out", "out"),
], ids=["version", "help", "synth", "ingest", "simulate"])
def test_commands_that_evaluate_nothing_leave_the_measures_layer_alone(tmp_path, argv):
    # test_measures_runs_only_the_layers_it_uses is the control: measures does run it.
    (tmp_path / "spec.json").write_text(json.dumps(_SPEC))
    (tmp_path / "firms.csv").write_text(
        "firm_id,year,country,sector,sector_class,revenue,cogs,workers\n"
        "F1,2003,JP,s,manufacturing,5,1,2\n")
    shutil.copy(Path(__file__).parent / "golden" / "sim_scenario.json",
                tmp_path / "scenario.json")
    ran = _run_cli(tmp_path, *argv)
    assert "firmprod.ingest" in ran
    assert "firmprod.measures" not in ran
