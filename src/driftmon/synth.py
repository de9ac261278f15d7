"""Deterministic synthetic retail-style datasets for exercising monitors.

One call produces a matched trio of CSV files: a training snapshot, a
production-day inference file, and a sparse daily sales file covering the
7-day window after the production date.  Feature columns mix one
heavy-tailed, one bimodal, and otherwise unimodal distributions, and the
prediction column is correlated with the first feature.  Drift is injected
by shifting production feature means by ``location_shift`` baseline
standard deviations (and scaling by ``scale_factor``); the underlying
draws do not depend on either knob, so sweeps over shift values see the
same base sample.
"""

from __future__ import annotations

import csv
import math
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from ._record import Record
from .data import DatasetHandle, DatasetKind, open_dataset
from .errors import ValidationError
from .performance import VELOCITY_WINDOW_DAYS

__all__ = ["SynthSpec", "TRAINING_DATE", "PRODUCTION_DATE", "generate_synthetic"]

#: Fixed dates written into the generated files.
TRAINING_DATE = date(2022, 3, 7)
PRODUCTION_DATE = date(2022, 3, 20)

#: Prediction model: 0.4 * f1 plus half-normal noise.
_PREDICTION_SLOPE = 0.4
_PREDICTION_NOISE = 0.3


class SynthSpec(Record):
    """Shape of one synthetic dataset trio."""

    n_units: int
    density: float = 0.3
    n_features: int = 3
    location_shift: float = 0.0
    scale_factor: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_units < 1:
            raise ValidationError(f"n_units must be >= 1, got {self.n_units}")
        if not 0.0 < self.density <= 1.0:
            raise ValidationError(f"density must be in (0, 1], got {self.density}")
        if self.n_features < 1:
            raise ValidationError(f"n_features must be >= 1, got {self.n_features}")
        if not math.isfinite(self.location_shift):
            raise ValidationError("location_shift must be finite")
        if not (math.isfinite(self.scale_factor) and self.scale_factor > 0.0):
            raise ValidationError(f"scale_factor must be positive, got {self.scale_factor}")


def _draw_features(rng: np.random.Generator, n: int, n_features: int) -> np.ndarray:
    """Sample the baseline feature matrix, one column per feature.

    Column 0 is heavy-tailed (lognormal), column 1 bimodal (two-component
    normal mixture), and any further columns are plain unimodal normals.
    """
    columns = []
    for j in range(n_features):
        if j == 0:
            columns.append(rng.lognormal(mean=0.0, sigma=1.0, size=n))
        elif j == 1:
            component = rng.integers(0, 2, size=n)
            centers = np.where(component == 0, -2.0, 2.0)
            columns.append(rng.normal(loc=centers, scale=1.0, size=n))
        else:
            columns.append(rng.normal(loc=float(j), scale=1.0, size=n))
    return np.column_stack(columns)


def _feature_sigmas(n_features: int) -> np.ndarray:
    """Analytic baseline standard deviation per feature column."""
    sigmas = np.ones(n_features)
    sigmas[0] = math.sqrt((math.e - 1.0) * math.e)
    if n_features >= 2:
        sigmas[1] = math.sqrt(5.0)
    return sigmas


def _predictions(rng: np.random.Generator, f1: np.ndarray) -> np.ndarray:
    noise = np.abs(rng.normal(loc=0.0, scale=_PREDICTION_NOISE, size=f1.shape[0]))
    return np.maximum(_PREDICTION_SLOPE * f1 + noise, 0.0)


def _write_prediction_file(
    path: Path,
    unit_ids: list[str],
    eval_date: date,
    predictions: np.ndarray,
    features: np.ndarray,
) -> None:
    header = ["unit_id", "eval_date", "prediction"]
    header += [f"f{j + 1}" for j in range(features.shape[1])]
    iso = eval_date.isoformat()
    # No field can need quoting (unit ids, an ISO date, float reprs), so the
    # rows are formatted directly: the same bytes as csv.writer, faster.
    with path.open("w", newline="", encoding="utf-8") as stream:
        stream.write(",".join(header) + "\n")
        stream.writelines(
            f"{unit},{iso},{','.join(map(repr, values))}\n"
            for unit, values in zip(unit_ids, np.column_stack((predictions, features)).tolist())
        )


def generate_synthetic(
    spec: SynthSpec, out_dir: Path | str
) -> tuple[DatasetHandle, DatasetHandle, DatasetHandle]:
    """Write ``training.csv``, ``inference.csv``, and ``sales.csv``.

    Returns validated handles for the three files.  Every unit appears in
    both prediction files; ``ceil(density * n_units)`` units get at least
    one sales row, and a unit-day with no row means zero sales.  The same
    spec always produces byte-identical files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    width = max(len(str(spec.n_units)), 4)
    unit_ids = [f"u{i:0{width}d}" for i in range(1, spec.n_units + 1)]

    train_features = _draw_features(rng, spec.n_units, spec.n_features)
    train_predictions = _predictions(rng, train_features[:, 0])
    # Base draws happen before the shift is applied, so sweeping
    # location_shift with a fixed seed reuses the same sample.
    prod_features = _draw_features(rng, spec.n_units, spec.n_features)
    shifted = (prod_features + spec.location_shift * _feature_sigmas(spec.n_features)) \
        * spec.scale_factor
    prod_predictions = _predictions(rng, shifted[:, 0])

    training_path = out_dir / "training.csv"
    inference_path = out_dir / "inference.csv"
    sales_path = out_dir / "sales.csv"
    _write_prediction_file(training_path, unit_ids, TRAINING_DATE, train_predictions, train_features)
    _write_prediction_file(inference_path, unit_ids, PRODUCTION_DATE, prod_predictions, shifted)

    n_selling = math.ceil(spec.density * spec.n_units)
    selling = np.sort(rng.choice(spec.n_units, size=n_selling, replace=False))
    rates = np.maximum(prod_predictions[selling], 0.05)
    counts = rng.poisson(rates[:, None], size=(n_selling, VELOCITY_WINDOW_DAYS))
    # Guarantee every selling unit is present in the file: one sale on a
    # deterministically chosen day for a unit that drew none.
    idle = ~counts.any(axis=1)
    counts[idle, selling[idle] % VELOCITY_WINDOW_DAYS] = 1
    window = [
        (PRODUCTION_DATE + timedelta(days=i)).isoformat() for i in range(VELOCITY_WINDOW_DAYS)
    ]
    with sales_path.open("w", newline="", encoding="utf-8") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["unit_id", "date", "units"])
        writer.writerows(
            (unit_ids[unit_index], window[day_index], sold)
            for unit_index, daily in zip(selling.tolist(), counts.tolist())
            for day_index, sold in enumerate(daily)
            if sold > 0
        )

    return (
        open_dataset(training_path, DatasetKind.TRAINING),
        open_dataset(inference_path, DatasetKind.DAILY_INFERENCE),
        open_dataset(sales_path, DatasetKind.DAILY_SALES),
    )
