"""Forecast accuracy metrics for unit-level sales velocity.

Velocity is the 7-day average of daily unit sales.  Accuracy is reported
as MAE plus a weighted MAPE whose denominator is offset by one unit so
that rows with zero actual sales (common in sparse retail data) remain
defined instead of blowing up the percentage.
"""

from __future__ import annotations

import math
from array import array
from itertools import repeat
from operator import add, sub, truediv
from typing import Sequence

from .errors import ValidationError

__all__ = [
    "VELOCITY_WINDOW_DAYS",
    "WMAPE_OFFSET",
    "mae",
    "wmape",
    "coefficient_of_variation",
]

#: Length of the velocity averaging window, in days.
VELOCITY_WINDOW_DAYS = 7

#: Added to the actual velocity in the wMAPE denominator.  One unit per day
#: keeps zero-sales rows defined while barely affecting fast movers.
WMAPE_OFFSET = 1.0


def _check_velocities(metric: str, predicted: Sequence[float], actual: Sequence[float]) -> None:
    """Reject velocity lists that cannot be scored: unequal lengths, no
    pairs at all, or any value that is non-finite or negative."""
    if len(predicted) != len(actual):
        raise ValidationError(
            f"{metric} needs one actual per prediction, got {len(predicted)} predicted "
            f"and {len(actual)} actual velocities"
        )
    if not predicted:
        raise ValidationError(f"{metric} requires at least one velocity pair")
    for name, values in (("predicted", predicted), ("actual", actual)):
        # Whole-list passes in C.  An ``array('d')`` holds only floats, so it
        # skips the type pass.  ``min`` can miss a NaN, and a negative value
        # behind it, but any NaN or infinity makes the sum non-finite; a sum
        # that overflows only sends a good list through the loop below.
        if (
            (
                isinstance(values, array) and values.typecode == "d"
                or all(issubclass(t, (int, float)) for t in set(map(type, values)))
            )
            and min(values) >= 0.0
            and math.isfinite(sum(values))
        ):
            continue
        for v in values:
            if not (isinstance(v, (int, float)) and 0.0 <= v < math.inf):
                raise ValidationError(
                    f"{name} velocity must be finite and non-negative, got {v!r}"
                )


def mae(predicted: Sequence[float], actual: Sequence[float]) -> float:
    """Mean absolute error of predicted vs actual velocity, unit by unit."""
    _check_velocities("mae", predicted, actual)
    return _mae(predicted, actual)


def wmape(predicted: Sequence[float], actual: Sequence[float]) -> float:
    """Mean percentage error weighted against ``actual + 1`` per unit."""
    _check_velocities("wmape", predicted, actual)
    return _wmape(predicted, actual)


def _scores(predicted: Sequence[float], actual: Sequence[float]) -> dict[str, float]:
    """``mae`` and ``wmape`` of one run, its velocities checked once."""
    _check_velocities("scoring", predicted, actual)
    return {"mae": _mae(predicted, actual), "wmape": _wmape(predicted, actual)}


def _mae(predicted: Sequence[float], actual: Sequence[float]) -> float:
    return math.fsum(map(abs, map(sub, predicted, actual))) / len(predicted)


def _wmape(predicted: Sequence[float], actual: Sequence[float]) -> float:
    total = math.fsum(
        map(truediv, map(abs, map(sub, predicted, actual)), map(add, actual, repeat(WMAPE_OFFSET)))
    )
    return total / len(predicted) * 100.0


def coefficient_of_variation(values: list[float]) -> float:
    """Sample standard deviation over sample mean.

    Dimensionless spread of a metric series; requires at least two points
    and a non-zero mean.
    """
    n = len(values)
    if n < 2:
        raise ValidationError("coefficient of variation requires at least two values")
    mean = math.fsum(values) / n
    if mean == 0.0:
        raise ValidationError("coefficient of variation is undefined for a zero mean")
    variance = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return math.sqrt(variance) / mean
