"""Metamorphic relations: outputs that must not move when the input changes in
a way that should not matter.

Row order. A firm-level tail fit ranks per-record productivities, which do not
depend on the other records, so a seeded shuffle of the data rows leaves
``fit-pareto`` (under gross margin, and under the labor-share added value with
``--macro``) and ``pareto-series`` byte-identical. Sector-level fits and
``prod-series`` pool sums in record order, so a shuffle may move their last
bits; they are left for a relation with a stated bound.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from firmprod import LognormalSize, SynthSpec, gen_cobb_douglas_firms
from firmprod.cli import main
from firmprod.records import CANONICAL_COLUMNS

_LABOR_SHARE = 0.55


def _panel(directory: Path, order: np.ndarray | None = None) -> None:
    """A 300-row panel (2 countries x 3 years x 50 firms) and its macro file in
    ``directory``; ``order`` permutes the data rows."""
    rows, macro = [], []
    for k, (country, year) in enumerate((c, y) for c in ("JP", "US") for y in (2001, 2002, 2003)):
        spec = SynthSpec(n=50, alpha=0.35, beta=0.6, noise_sigma=0.1,
                         size_dist=LognormalSize(3.0, 1.2), labor_share=_LABOR_SHARE, seed=k,
                         year=year, country=country, n_sectors=5)
        for r in gen_cobb_douglas_firms(spec).records:
            rows.append([f"{country}{r.firm_id}",
                         *(getattr(r, name) for name in CANONICAL_COLUMNS[1:])])
        macro.append({"country": country, "year": year, "labor_share": _LABOR_SHARE})
    directory.mkdir()
    with open(directory / "panel.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CANONICAL_COLUMNS)
        writer.writerows(rows if order is None else [rows[i] for i in order])
    (directory / "macro.json").write_text(json.dumps(macro))


def _outputs(directory: Path, argv: list[str], monkeypatch) -> dict[str, bytes]:
    monkeypatch.chdir(directory)
    result = CliRunner().invoke(main, [*argv, "--input", "panel.csv", "--out", "out"])
    assert result.exit_code == 0, result.output
    return {path.name: path.read_bytes() for path in sorted(Path("out").iterdir())}


@pytest.mark.parametrize("argv", [
    ["fit-pareto"],
    ["fit-pareto", "--basis", "av-share", "--macro", "macro.json"],
    ["pareto-series"],
    ["pareto-series", "--basis", "av-share", "--macro", "macro.json"],
], ids=["fit-pareto-gm", "fit-pareto-av-share", "pareto-series-gm", "pareto-series-av-share"])
@pytest.mark.parametrize("seed", [1, 2])
def test_a_shuffle_of_the_rows_leaves_firm_level_tail_fits_byte_identical(
        argv, seed, tmp_path, monkeypatch):
    _panel(tmp_path / "sorted")
    _panel(tmp_path / "shuffled", np.random.default_rng(seed).permutation(300))
    assert ((tmp_path / "sorted/panel.csv").read_bytes()
            != (tmp_path / "shuffled/panel.csv").read_bytes())
    sorted_out = _outputs(tmp_path / "sorted", argv, monkeypatch)
    assert sorted_out  # at least one table was written
    assert _outputs(tmp_path / "shuffled", argv, monkeypatch) == sorted_out
