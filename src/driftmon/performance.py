"""Forecast accuracy metrics for unit-level sales velocity.

Velocity is the 7-day average of daily unit sales.  Accuracy is reported
as MAE plus a weighted MAPE whose denominator is offset by one unit so
that rows with zero actual sales (common in sparse retail data) remain
defined instead of blowing up the percentage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

__all__ = [
    "VELOCITY_WINDOW_DAYS",
    "WMAPE_OFFSET",
    "VelocityPair",
    "actual_velocity",
    "mae",
    "wmape",
    "coefficient_of_variation",
]

#: Length of the velocity averaging window, in days.
VELOCITY_WINDOW_DAYS = 7

#: Added to the actual velocity in the wMAPE denominator.  One unit per day
#: keeps zero-sales rows defined while barely affecting fast movers.
WMAPE_OFFSET = 1.0


@dataclass(frozen=True)
class VelocityPair:
    """Predicted and realised velocity for one unit."""

    unit_id: str
    predicted: float
    actual: float

    def __post_init__(self) -> None:
        for name in ("predicted", "actual"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)) or v < 0.0:
                raise ValidationError(
                    f"{name} velocity must be finite and non-negative, got {v!r}"
                )


def actual_velocity(daily_sales: list[float]) -> float:
    """Average units per day over one full 7-day window.

    Exactly seven entries are required; days with no sales must be passed
    as explicit zeros so a short list always signals missing ground truth.
    """
    if len(daily_sales) != VELOCITY_WINDOW_DAYS:
        raise ValidationError(
            f"velocity window must contain exactly {VELOCITY_WINDOW_DAYS} days, "
            f"got {len(daily_sales)}"
        )
    for v in daily_sales:
        if not math.isfinite(v) or v < 0.0:
            raise ValidationError(f"daily sales must be finite and non-negative, got {v!r}")
    return math.fsum(daily_sales) / VELOCITY_WINDOW_DAYS


def mae(pairs: list[VelocityPair]) -> float:
    """Mean absolute error of predicted vs actual velocity."""
    if not pairs:
        raise ValidationError("mae requires at least one velocity pair")
    return math.fsum(abs(p.predicted - p.actual) for p in pairs) / len(pairs)


def wmape(pairs: list[VelocityPair]) -> float:
    """Mean percentage error weighted against ``actual + 1`` per unit."""
    if not pairs:
        raise ValidationError("wmape requires at least one velocity pair")
    total = math.fsum(
        abs(p.predicted - p.actual) / (p.actual + WMAPE_OFFSET) for p in pairs
    )
    return total / len(pairs) * 100.0


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
