from __future__ import annotations

import os
from pathlib import Path

import pytest

import firmprod
from firmprod import Dataset, FirmRecord, MacroContext

#: The ``src`` directory this checkout's package is imported from.
SRC = Path(firmprod.__file__).parents[1]


def child_env(src: Path = SRC) -> dict[str, str]:
    """The environment of a child Python process: it imports firmprod from
    ``src`` and turns every warning into an error."""
    return {**os.environ, "PYTHONPATH": str(src), "PYTHONWARNINGS": "error"}


@pytest.fixture
def make_record():
    """Factory for valid firm records with sensible defaults."""

    def make(**overrides) -> FirmRecord:
        values = dict(
            firm_id="F000001",
            year=2003,
            country="JP",
            sector="steel",
            sector_class="manufacturing",
            revenue=100.0,
            cogs=40.0,
            workers=10,
            total_labor_cost=30.0,
            capital=50.0,
        )
        values.update(overrides)
        return FirmRecord(**values)

    return make


@pytest.fixture
def make_dataset():
    def make(*records: FirmRecord, currency_unit: str = "kJPY") -> Dataset:
        return Dataset(records=tuple(records), currency_unit=currency_unit)

    return make


@pytest.fixture
def macro_jp2003():
    return MacroContext.from_rows(
        [{"country": "JP", "year": 2003, "labor_share": 1.0 / 3.0, "gdp": 1000.0}]
    )
