"""Exception types shared across the package."""

__all__ = [
    "MvhmmError",
    "DomainError",
    "AllWeightsZero",
    "SchemaError",
    "OrderError",
    "DegeneracyError",
]


class MvhmmError(Exception):
    """Base class for all package-specific errors."""


class DomainError(MvhmmError, ValueError):
    """An argument is outside the mathematical domain of a function."""


class AllWeightsZero(MvhmmError, ValueError):
    """Every mixture component has zero weight; normalization is impossible."""


class SchemaError(MvhmmError, ValueError):
    """A data or config file does not match the expected schema."""


class OrderError(MvhmmError, ValueError):
    """Duplicate or out-of-order records found without an aggregation flag."""


class DegeneracyError(MvhmmError, RuntimeError):
    """A Monte Carlo estimate collapsed (effective sample size too small)."""
