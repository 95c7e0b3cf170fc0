"""Shared exception types."""

from __future__ import annotations


class ParameterError(ValueError):
    """A request was malformed (bad lattice dimensions, ranges, flags)."""


class ResourceLimitError(RuntimeError):
    """A computation would exceed its configured state/work cap."""


class CheckFailedError(ArithmeticError):
    """An exact value disagreed with the independent route that certifies it."""


class IntegralityError(CheckFailedError):
    """An exact-rational pipeline produced a non-integer where an integer is required."""
