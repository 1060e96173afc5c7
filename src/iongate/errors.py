"""Shared exception types, and the finiteness checks every parameter set shares."""

import math


class ParameterError(ValueError):
    """Raised when a parameter set violates its documented invariants."""


class DomainError(ValueError):
    """Raised when an evaluation point lies outside the valid domain."""


class GridError(ValueError):
    """Raised when a sampling grid is too coarse for the requested evaluation."""


class ConvergenceError(RuntimeError):
    """Raised when an iterative numerical routine fails to converge."""


class TruncationError(RuntimeError):
    """Raised when a Fock-space truncation is detected to be too small."""


class ConfigError(ValueError):
    """Raised for malformed or inconsistent run configurations."""


def check_finite(**values: float) -> None:
    """Raise ParameterError naming the first value that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite")


def check_nbar(nbar: float) -> None:
    """Raise ParameterError unless the mean occupation nbar is finite and >= 0."""
    check_finite(nbar=nbar)
    if nbar < 0:
        raise ParameterError("nbar must be >= 0")
