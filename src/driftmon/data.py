"""CSV dataset access: handles, one-pass column streams, and velocity assembly.

All files are plain UTF-8 CSV with a header row and ISO-8601 dates.
Prediction files carry one row per unit and evaluation date; sales files
are sparse, so a unit-day with no row means zero units sold that day.
"""

from __future__ import annotations

import csv
import logging
import math
from array import array
from dataclasses import dataclass
from datetime import date, timedelta
from enum import Enum
from itertools import islice
from pathlib import Path
from typing import Iterator, Sequence

from .errors import PreconditionError, SchemaError, StorageError, ValidationError
from .performance import VELOCITY_WINDOW_DAYS

__all__ = [
    "DatasetKind",
    "DatasetHandle",
    "open_dataset",
    "read_columns",
    "assemble_velocity_pairs",
]

log = logging.getLogger(__name__)

_REQUIRED_COLUMNS = {
    "training": ("unit_id", "eval_date", "prediction"),
    "daily_inference": ("unit_id", "eval_date", "prediction"),
    "daily_sales": ("unit_id", "date", "units"),
}

#: Data rows per block yielded by ``read_columns``.  Larger blocks raise a
#: drift run's peak memory for little time saved, so a block stays small
#: whatever the file size.
_BLOCK_ROWS = 256


class DatasetKind(str, Enum):
    TRAINING = "training"
    DAILY_INFERENCE = "daily_inference"
    DAILY_SALES = "daily_sales"


@dataclass(frozen=True)
class DatasetHandle:
    """A validated reference to one CSV file of a known kind."""

    path: Path
    kind: DatasetKind
    columns: tuple[str, ...]


def open_dataset(path: Path | str, kind: DatasetKind | str) -> DatasetHandle:
    """Validate the header of ``path`` and return a handle to it."""
    kind = DatasetKind(kind)
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as handle:
            header = next(csv.reader(handle), None)
    except OSError as exc:
        raise StorageError(f"cannot open dataset {path}: {exc}") from exc
    if not header:
        raise SchemaError(f"{path}: missing header row")
    missing = [c for c in _REQUIRED_COLUMNS[kind.value] if c not in header]
    if missing:
        raise SchemaError(f"{path}: missing required columns {missing} for kind {kind.value}")
    return DatasetHandle(path=path, kind=kind, columns=tuple(header))


def _rows(handle: DatasetHandle, columns: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line, cells)`` for each non-empty data row of ``handle``.

    ``cells`` holds the stripped cells of ``columns``, in that order; a row
    too short to reach a column reads it as blank.  A header name that
    occurs twice resolves to its last occurrence.  ``line`` is the physical
    line the row ends on, so blank lines are counted.
    """
    position = {name: i for i, name in enumerate(handle.columns)}
    picks = [position[column] for column in columns]
    width = max(picks, default=-1) + 1
    with handle.path.open(newline="", encoding="utf-8") as stream:
        reader = csv.reader(stream)
        next(reader, None)
        for row in reader:
            if not row:
                continue
            if len(row) < width:
                row += [""] * (width - len(row))
            yield reader.line_num, [row[i].strip() for i in picks]


def _number(
    handle: DatasetHandle, line: int, column: str, cell: str, *, non_negative: bool = False
) -> float:
    """Parse one numeric cell, naming file, line and column on failure."""
    try:
        value = float(cell)
    except ValueError:
        raise SchemaError(
            f"{handle.path}:{line}: cannot parse {cell!r} in column {column!r}"
        ) from None
    if not math.isfinite(value):
        raise SchemaError(f"{handle.path}:{line}: non-finite value {cell!r} in column {column!r}")
    if non_negative and value < 0.0:
        raise SchemaError(f"{handle.path}:{line}: negative value {cell!r} in column {column!r}")
    return value


def read_columns(
    handle: DatasetHandle, columns: Sequence[str]
) -> Iterator[tuple[list[float], ...]]:
    """Stream ``columns`` of ``handle`` in one pass, in blocks of rows.

    Each block is a tuple holding, per requested column, a list of that
    column's non-blank values from up to ``_BLOCK_ROWS`` rows, in file order.
    Blanks are counted per column and logged once the file is exhausted.  An
    unknown column is a schema error raised here, before any row is read.
    """
    columns = tuple(columns)
    for column in columns:
        if column not in handle.columns:
            raise SchemaError(f"{handle.path}: no column named {column!r}")
    return _blocks(handle, columns)


def _blocks(handle: DatasetHandle, columns: tuple[str, ...]) -> Iterator[tuple[list[float], ...]]:
    blanks = [0] * len(columns)
    rows = _rows(handle, columns)
    while chunk := list(islice(rows, _BLOCK_ROWS)):
        block: tuple[list[float], ...] = tuple([] for _ in columns)
        for line, cells in chunk:
            for i, cell in enumerate(cells):
                if cell:
                    block[i].append(_number(handle, line, columns[i], cell))
                else:
                    blanks[i] += 1
        yield block
    for column, count in zip(columns, blanks):
        if count:
            log.warning("%s: skipped %d blank cell(s) in column %r", handle.path, count, column)


def assemble_velocity_pairs(
    predictions: DatasetHandle,
    sales: DatasetHandle,
    forecast_date: date,
) -> tuple[array, array, int]:
    """Join forecasts with realised 7-day velocities.

    Takes each unit predicted for ``forecast_date`` and averages its sales
    over the window starting that day, treating absent unit-days as zero.
    Returns ``(predicted, actual, excluded)``: two equal-length
    ``array('d')`` of velocities, one entry per scored unit in the order
    each unit first appears in the predictions file, and the count of
    predicted units excluded because their prediction cell was blank.
    Duplicate prediction rows for a unit keep the last one.  Every velocity
    is finite and non-negative: ``_number`` rejects any other cell.
    """
    if predictions.kind is DatasetKind.DAILY_SALES:
        raise ValidationError("predictions handle must be a training or daily_inference dataset")
    if sales.kind is not DatasetKind.DAILY_SALES:
        raise ValidationError("sales handle must be a daily_sales dataset")

    # ISO day -> offset into the velocity window.
    window = {
        (forecast_date + timedelta(days=i)).isoformat(): i for i in range(VELOCITY_WINDOW_DAYS)
    }
    days = VELOCITY_WINDOW_DAYS

    # Per-unit state lives in flat buffers addressed through one index, so
    # a run holds a few bytes per unit rather than Python objects.  NaN
    # marks a unit whose (last) prediction cell was blank; ``_number``
    # rejects every non-finite cell, so no real prediction reads NaN.
    index: dict[str, int] = {}
    predicted = array("d")
    target = forecast_date.isoformat()
    for line, (day, unit, cell) in _rows(predictions, ("eval_date", "unit_id", "prediction")):
        if day != target:
            continue
        if not unit:
            raise SchemaError(f"{predictions.path}:{line}: missing unit_id")
        value = (
            _number(predictions, line, "prediction", cell, non_negative=True) if cell else math.nan
        )
        i = index.setdefault(unit, len(predicted))
        if i == len(predicted):
            predicted.append(value)
        else:
            predicted[i] = value

    # Seven day slots per indexed unit.  Sales of units with no prediction
    # are still checked, so a bad cell fails wherever it sits, but not kept.
    slots = array("d", [0.0]) * (days * len(predicted))
    dates_seen: set[str] = set()
    for line, (day, unit, cell) in _rows(sales, ("date", "unit_id", "units")):
        if not day:
            raise SchemaError(f"{sales.path}:{line}: missing date")
        dates_seen.add(day)
        offset = window.get(day)
        if offset is None:
            continue
        units = _number(sales, line, "units", cell, non_negative=True)
        i = index.get(unit)
        if i is not None:
            slots[i * days + offset] += units
    # The index is the largest buffer; drop it before the velocities grow.
    del index

    missing_days = [d for d in window if d not in dates_seen]
    if missing_days:
        raise PreconditionError(
            f"sales data covers no rows at all for day(s) {missing_days}; "
            f"the {VELOCITY_WINDOW_DAYS}-day window from {target} is incomplete"
        )

    scored = array("d")
    actual = array("d")
    for i, value in enumerate(predicted):
        if not math.isnan(value):
            scored.append(value)
            actual.append(math.fsum(slots[i * days : (i + 1) * days]) / days)
    return scored, actual, len(predicted) - len(scored)
