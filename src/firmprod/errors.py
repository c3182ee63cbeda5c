"""Exception hierarchy.

Three top-level categories mirror the CLI exit codes: configuration
problems (exit 2), data-contract violations (exit 3), and numerical
degeneracies (exit 4).
"""

from __future__ import annotations


class FirmprodError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(FirmprodError):
    """A configuration input (schema, macro file, scenario, flag) is invalid."""


class SchemaError(ConfigError):
    """The column mapping does not match the input file."""


class DataError(FirmprodError):
    """Input data violates a contract."""


class RowError(DataError):
    """A data row could not be parsed. Carries the 1-based line number."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class ValidationError(DataError):
    """A record or dataset invariant does not hold."""


class IncompleteRecordError(DataError):
    """A field required by the requested computation is absent."""


class ZeroWorkersError(DataError):
    """Per-worker productivity requested for a record with zero workers."""


class MacroContextError(DataError):
    """No macro entry (or no value for the requested quantity) for a (country, year)."""


class EmptySeriesError(DataError):
    """No positive values remain to build a rank-size series."""


class InsufficientDataError(DataError):
    """Fewer usable observations than the estimator requires."""


class NumericalError(FirmprodError):
    """The computation is numerically degenerate for the given input."""


class CollinearityError(NumericalError):
    """The regressor matrix is rank deficient. Names the dependency found."""


class ZeroVarianceError(NumericalError):
    """All values in the selected fit range are equal."""


class DegenerateShareError(NumericalError):
    """A labor share of 1 or more makes the added-value ratio undefined."""


class UnboundedDemandError(NumericalError):
    """Labor demand has no finite optimum (zero wage or unit labor elasticity)."""
