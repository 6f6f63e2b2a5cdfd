"""Lightweight argument validation helpers.

The public API of the library validates its inputs eagerly so that
mis-configured experiments fail with a clear message instead of producing
silently wrong measurements.
"""

from __future__ import annotations

from typing import Any


class ValidationError(ValueError):
    """Raised when a configuration or function argument is invalid."""


def check_positive_int(value: Any, name: str) -> int:
    """Return ``value`` as ``int`` if it is a positive integer, else raise."""
    if isinstance(value, bool) or not isinstance(value, (int,)):
        try:
            ivalue = int(value)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{name} must be a positive integer, got {value!r}") from exc
        if ivalue != value:
            raise ValidationError(f"{name} must be a positive integer, got {value!r}")
        value = ivalue
    if value <= 0:
        raise ValidationError(f"{name} must be positive, got {value}")
    return int(value)


def check_non_negative(value: Any, name: str) -> float:
    """Return ``value`` as float if non-negative, else raise (NaN included)."""
    try:
        fvalue = float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a non-negative number, got {value!r}") from exc
    if not fvalue >= 0:
        raise ValidationError(f"{name} must be non-negative, got {value}")
    return fvalue


def check_probability(value: Any, name: str) -> float:
    """Return ``value`` as float if it lies in ``[0, 1]``, else raise."""
    fvalue = check_non_negative(value, name)
    if fvalue > 1:
        raise ValidationError(f"{name} must lie in [0, 1], got {value}")
    return fvalue


def check_in_range(value: Any, name: str, low: float, high: float) -> float:
    """Return ``value`` as float if it lies in ``[low, high]``, else raise."""
    try:
        fvalue = float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a number in [{low}, {high}], got {value!r}") from exc
    if not (low <= fvalue <= high):
        raise ValidationError(f"{name} must lie in [{low}, {high}], got {value}")
    return fvalue
