"""Tests for repro.util.validation."""

from __future__ import annotations

import pytest

from repro.baselines.dense_model import DenseModelSimulation
from repro.util.validation import (
    ValidationError,
    check_in_range,
    check_non_negative,
    check_positive_int,
    check_probability,
)


class TestCheckPositiveInt:
    def test_accepts_positive(self):
        assert check_positive_int(3, "x") == 3

    def test_accepts_numpy_like_integral_float(self):
        assert check_positive_int(4.0, "x") == 4

    def test_rejects_zero(self):
        with pytest.raises(ValidationError):
            check_positive_int(0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_positive_int(-2, "x")

    def test_rejects_fractional(self):
        with pytest.raises(ValidationError):
            check_positive_int(2.5, "x")

    def test_rejects_string(self):
        with pytest.raises(ValidationError):
            check_positive_int("many", "x")

    def test_error_message_contains_name(self):
        with pytest.raises(ValidationError, match="n_agents"):
            check_positive_int(-1, "n_agents")


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative(0, "x") == 0.0

    def test_accepts_positive_float(self):
        assert check_non_negative(2.5, "x") == 2.5

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_non_negative(-0.1, "x")

    def test_rejects_non_numeric(self):
        with pytest.raises(ValidationError):
            check_non_negative(object(), "x")

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            check_non_negative(float("nan"), "x")

    def test_accepts_infinity(self):
        assert check_non_negative(float("inf"), "x") == float("inf")


class TestCheckProbability:
    def test_accepts_bounds(self):
        assert check_probability(0, "p") == 0.0
        assert check_probability(1, "p") == 1.0

    def test_rejects_above_one(self):
        with pytest.raises(ValidationError):
            check_probability(1.01, "p")

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_probability(-0.5, "p")

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            check_probability(float("nan"), "p")


class TestNaNReachesNoSimulation:
    def test_dense_model_rejects_nan_exchange_radius(self):
        with pytest.raises(ValidationError, match="exchange_radius"):
            DenseModelSimulation(100, 100, exchange_radius=float("nan"), jump_radius=1)


class TestCheckInRange:
    def test_accepts_interior(self):
        assert check_in_range(5, "x", 0, 10) == 5.0

    def test_accepts_bounds(self):
        assert check_in_range(0, "x", 0, 10) == 0.0
        assert check_in_range(10, "x", 0, 10) == 10.0

    def test_rejects_outside(self):
        with pytest.raises(ValidationError):
            check_in_range(11, "x", 0, 10)

    def test_rejects_non_numeric(self):
        with pytest.raises(ValidationError):
            check_in_range("mid", "x", 0, 10)
