"""Exception hierarchy shared across the package.

The CLI maps these onto exit statuses: assumption violations exit with 2,
numerical failures with 3, configuration/parse problems with 4.
"""


class AerError(Exception):
    """Base class for all package errors."""


class ConfigError(AerError):
    """Bad configuration value or file."""


class ExprError(ConfigError):
    """Expression parse error; carries the byte offset of the problem."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ZeroNormError(AerError):
    """Relative error requested against a zero-norm reference field."""


class AssumptionViolation(AerError):
    """A solvability assumption fails for the given problem data."""


class NumericalError(AerError):
    """A solver failed to produce a usable result."""


class SolverBlowUp(NumericalError):
    """Time integration produced non-finite values."""


class DiscrepancyUnreachable(NumericalError):
    """The discrepancy target cannot be bracketed by the smoothing sweep."""


class LayerTooWide(NumericalError):
    """The excluded transition band leaves no usable data rows."""
