"""CSV dataset access: handles, columnar block reads, and velocity assembly.

All files are UTF-8 CSV with a header row and ISO-8601 dates; a leading
byte-order mark, as spreadsheet exports write, is skipped.  Prediction
files carry one row per unit and evaluation date; sales files are sparse,
so a unit-day with no row means zero units sold that day.

Every data file is read by one columnar block reader, ``_column_blocks``.
It cuts the non-empty data rows into blocks of at most ``_BLOCK_ROWS`` and
hands over one list of cells per requested column, each built in C, in one
of two lanes that read the same cells:

- the split lane takes ``_BLOCK_ROWS`` raw lines at a time.  A block whose
  lines are plain (no quote, lone CR or NUL, none past the field limit,
  and the same number of commas, at least one, on every line) is one row
  per line, so its text is split on commas and each column is a stride
  slice of that one list;
- the csv lane: from the first block that is not plain, ``csv.reader``
  reads the rest of the file, quoted cells spanning lines included.

Cells are handed over as the file spells them.  The callers strip the
string columns they compare, and parse a whole numeric column of a block
with ``map(float, ...)``, which skips surrounding whitespace, and check it
in one pass as well; only a block that fails that check is walked row by
row, stripped, with the checks and messages of a row-by-row read, so the
first bad row in file order is the one reported.  Blocks carry no line
numbers: the ``file:line`` of a bad row is resolved on the error path
alone, by reading the file again up to that row (``_line``).

``assemble_velocity_pairs`` reads each file once.  While both files are
in unit order it keeps the predicted units in one sorted list, and each
sales block looks up only the units it spans; from the first unit out of
order, a ``unit -> index`` dict holds them all, with the same result.
"""

from __future__ import annotations

import csv
import math
from array import array
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from datetime import date, timedelta
from enum import Enum
from itertools import chain, compress, islice, repeat
from operator import eq, itemgetter, le, ne, truediv
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

from ._record import Record
from .errors import PreconditionError, SchemaError, StorageError, ValidationError

__all__ = [
    "DatasetKind",
    "DatasetHandle",
    "open_dataset",
    "read_columns",
    "assemble_velocity_pairs",
]

_REQUIRED_COLUMNS = {
    "training": ("unit_id", "eval_date", "prediction"),
    "daily_inference": ("unit_id", "eval_date", "prediction"),
    "daily_sales": ("unit_id", "date", "units"),
}

#: Data rows per block yielded by ``read_columns``.  Larger blocks raise a
#: drift run's peak memory for little time saved, so a block stays small
#: whatever the file size.
_BLOCK_ROWS = 256

#: ``utf-8-sig`` reads plain UTF-8 and drops a leading byte-order mark,
#: which would otherwise glue itself to the first header name.
_ENCODING = "utf-8-sig"


class DatasetKind(str, Enum):
    TRAINING = "training"
    DAILY_INFERENCE = "daily_inference"
    DAILY_SALES = "daily_sales"


class DatasetHandle(Record):
    """A validated reference to one CSV file of a known kind."""

    path: Path
    kind: DatasetKind
    columns: tuple[str, ...]


@contextmanager
def _open_text(path: Path) -> Iterator[TextIO]:
    """Open a data file for ``csv``; a byte that is not UTF-8, wherever it
    is read, is a schema error naming the file."""
    try:
        with path.open(newline="", encoding=_ENCODING) as stream:
            yield stream
    except UnicodeDecodeError as exc:
        # The decoder's position counts from its read chunk, not the file.
        raise SchemaError(f"{path}: not UTF-8 text") from exc


def open_dataset(path: Path | str, kind: DatasetKind | str) -> DatasetHandle:
    """Validate the header of ``path`` and return a handle to it."""
    kind = DatasetKind(kind)
    path = Path(path)
    try:
        with _open_text(path) as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
    except OSError as exc:
        raise StorageError(f"cannot open dataset {path}: {exc}") from exc
    except csv.Error as exc:
        raise SchemaError(f"{path}:{reader.line_num}: {exc}") from None
    if not header:
        raise SchemaError(f"{path}: missing header row")
    missing = [c for c in _REQUIRED_COLUMNS[kind.value] if c not in header]
    if missing:
        raise SchemaError(f"{path}: missing required columns {missing} for kind {kind.value}")
    return DatasetHandle(path=path, kind=kind, columns=tuple(header))


def _column_blocks(
    handle: DatasetHandle, columns: tuple[str, ...]
) -> Iterator[tuple[int, list[list[str]]]]:
    """Yield ``(first, cells)`` for each block of non-empty data rows.

    ``cells`` holds, per name in ``columns``, the cells of that column for
    up to ``_BLOCK_ROWS`` rows in file order, as the file spells them:
    callers strip what they compare or report.  ``first`` is the ordinal of
    the block's first row among the non-empty data rows, counting from 0.
    A row too short to reach a column reads it as blank.  A header name
    that occurs twice resolves to its last occurrence.  A cell past
    ``csv.field_size_limit()`` is a ``SchemaError`` naming its file and
    line, raised after the blocks before it.  The lanes are described in
    the module docstring.
    """
    position = {name: i for i, name in enumerate(handle.columns)}
    picks = [position[column] for column in columns]
    width = max(picks, default=-1) + 1
    limit = csv.field_size_limit()
    first = 0
    with _open_text(handle.path) as stream:
        header = csv.reader(stream)
        next(header, None)
        read = header.line_num  # physical lines before the next block
        while lines := list(islice(stream, _BLOCK_ROWS)):
            text = "".join(lines)
            if "\r" in text:
                text = text.replace("\r\n", "\n")
            # csv reads the block as these lines split on commas if no cell
            # is quoted, no line ends in a lone CR or holds a NUL, none is
            # past the field limit, and every line has the same number of
            # commas, at least one (so no line is empty), enough to reach
            # every requested column.
            if (
                '"' in text
                or "\r" in text
                or "\x00" in text
                or (len(text) > limit and max(map(len, lines)) > limit)
            ):
                break
            commas = set(map(str.count, lines, repeat(",")))
            if len(commas) != 1 or (cells := commas.pop() + 1) < max(width, 2):
                break
            n = len(lines)
            flat = text.replace("\n", ",").split(",")
            yield first, [flat[i : n * cells : cells] for i in picks]
            first += n
            read += n
        else:
            return
        reader = csv.reader(chain(lines, stream))
        rows = filter(None, reader)
        fault = None
        while fault is None:
            chunk: list[list[str]] = []
            try:
                chunk.extend(islice(rows, _BLOCK_ROWS))
            except csv.Error as exc:
                # The rows before it go out first, so that a bad cell among
                # them is reported before this: faults surface in file order.
                fault = SchemaError(f"{handle.path}:{read + reader.line_num}: {exc}")
            if not chunk:
                break
            if min(map(len, chunk)) < width:
                chunk = [row + [""] * (width - len(row)) for row in chunk]
            yield first, [list(map(itemgetter(i), chunk)) for i in picks]
            first += len(chunk)
        if fault is not None:
            raise fault


def _line(handle: DatasetHandle, row: int) -> int:
    """The physical line that non-empty data row ``row`` (from 0) ends on.

    Only error messages need it, so it reads the file again.  ``line_num``
    counts blank lines and the lines of a quoted cell holding newlines.
    """
    with _open_text(handle.path) as stream:
        reader = csv.reader(stream)
        next(reader, None)
        next(islice(filter(None, reader), row, None))
        return reader.line_num


def _error(handle: DatasetHandle, row: int, problem: str) -> SchemaError:
    return SchemaError(f"{handle.path}:{_line(handle, row)}: {problem}")


def _number(
    handle: DatasetHandle, row: int, column: str, cell: str, *, non_negative: bool = False
) -> float:
    """Parse one numeric cell of data row ``row``, naming file, line and
    column on failure."""
    try:
        value = float(cell)
    except ValueError:
        raise _error(handle, row, f"cannot parse {cell!r} in column {column!r}") from None
    if not math.isfinite(value):
        raise _error(handle, row, f"non-finite value {cell!r} in column {column!r}")
    if non_negative and value < 0.0:
        raise _error(handle, row, f"negative value {cell!r} in column {column!r}")
    return value


def _floats(cells: list[str], *, non_negative: bool = False) -> list[float] | None:
    """Parse a non-empty column of a block in C passes, or return ``None``
    if any cell is blank, unparseable, non-finite or, with
    ``non_negative``, negative; ``_number`` then says which."""
    try:
        values = list(map(float, cells))
    except ValueError:
        return None
    if not all(map(math.isfinite, values)) or (non_negative and min(values) < 0.0):
        return None
    return values


def read_columns(
    handle: DatasetHandle, columns: Sequence[str]
) -> Iterator[tuple[list[float], ...]]:
    """Stream ``columns`` of ``handle`` in one pass, in blocks of rows.

    Each block is a tuple holding, per requested column, a list of that
    column's non-blank values from up to ``_BLOCK_ROWS`` rows, in file order.
    Each column of a block is parsed and checked in one pass; a column that
    holds a blank or a bad cell is then read cell by cell, so blanks are
    counted and the first bad cell in file order raises a ``SchemaError``
    naming its file, line and column.  The line is found by reading the file
    again, on that error path only.  Blanks are logged once the file is
    exhausted.  An unknown column is a schema error raised here, before any
    row is read.
    """
    columns = _known(handle, columns)
    return _logged_blocks(handle, columns)


def _known(handle: DatasetHandle, columns: Sequence[str]) -> tuple[str, ...]:
    """``columns`` as a tuple, once each is known to be in ``handle``."""
    columns = tuple(columns)
    for column in columns:
        if column not in handle.columns:
            raise SchemaError(f"{handle.path}: no column named {column!r}")
    return columns


def _logged_blocks(
    handle: DatasetHandle, columns: tuple[str, ...]
) -> Iterator[tuple[list[float], ...]]:
    blanks = [0] * len(columns)
    yield from _blocks(handle, columns, blanks)
    _warn_blanks(handle, columns, blanks)


def _blocks(
    handle: DatasetHandle, columns: tuple[str, ...], blanks: list[int]
) -> Iterator[tuple[list[float], ...]]:
    """``read_columns``' blocks of known ``columns``, adding each column's
    blank cells to its count in ``blanks`` instead of logging them."""
    for first, cells in _column_blocks(handle, columns):
        block = [_floats(column) for column in cells]
        slow = [i for i, values in enumerate(block) if values is None]
        if slow:
            # Row by row over the columns that failed, so the first bad cell
            # in file order is the one reported: the other columns hold none.
            for i in slow:
                block[i] = []
            for row, picked in enumerate(zip(*(cells[i] for i in slow)), first):
                for i, cell in zip(slow, picked):
                    if cell := cell.strip():
                        block[i].append(_number(handle, row, columns[i], cell))
                    else:
                        blanks[i] += 1
        yield tuple(block)


def _warn_blanks(handle: DatasetHandle, columns: Sequence[str], blanks: Sequence[int]) -> None:
    """Log one warning per column with blank cells, in the order of ``columns``."""
    for column, count in zip(columns, blanks):
        if count:
            import logging  # only here: a file without blanks never loads it

            logging.getLogger(__name__).warning(
                "%s: skipped %d blank cell(s) in column %r", handle.path, count, column
            )


def assemble_velocity_pairs(
    predictions: DatasetHandle,
    sales: DatasetHandle,
    forecast_date: date,
) -> tuple[array, array, int]:
    """Join forecasts with realised 7-day velocities.

    Takes each unit predicted for ``forecast_date`` and averages its sales
    over the window starting that day, treating absent unit-days as zero:
    its velocity is the sum of its in-window sales rows, in file order from
    0.0, divided by ``VELOCITY_WINDOW_DAYS``.  Returns ``(predicted, actual,
    excluded)``: two equal-length ``array('d')`` of velocities, one entry
    per scored unit in the order each unit first appears in the predictions
    file, and the count of predicted units excluded because their
    prediction cell was blank.  Duplicate prediction rows for a unit keep
    the last one.  Every velocity is finite and non-negative: ``_number``
    rejects any other cell.

    Each file is read once, all predictions before any sale, in lanes
    that differ only in memory.  While both files' stripped unit ids never
    decrease in ``str`` order (other days' rows and out-of-window sales
    aside), the predicted units are kept in one sorted list, and each sales
    block looks its units up in a dict of those its ids span.  From the
    first id out of order in either file on, one ``unit -> index`` dict
    holds every predicted unit instead.
    """
    from .performance import VELOCITY_WINDOW_DAYS

    if predictions.kind is DatasetKind.DAILY_SALES:
        raise ValidationError("predictions handle must be a training or daily_inference dataset")
    if sales.kind is not DatasetKind.DAILY_SALES:
        raise ValidationError("sales handle must be a daily_sales dataset")

    # The ISO days of the velocity window, in order.
    window = dict.fromkeys(
        (forecast_date + timedelta(days=i)).isoformat() for i in range(VELOCITY_WINDOW_DAYS)
    )
    target = forecast_date.isoformat()

    # Each unit's last prediction, NaN if blank (a stored one is finite), in
    # the order units first appear.  In a sorted file a unit's rows are
    # adjacent, so ``units`` keeps the last of each run, across block edges
    # too; out of order, a dict's ``update`` places a block.
    units: list[str] = []
    predicted = array("d")
    index: dict | None = None
    for block, values in _prediction_blocks(predictions, target):
        if index is None:
            run = units[-1:] + block
            if all(map(le, run, run[1:])):
                last = [*map(ne, run, run[1:]), True]
                if units and not last[0]:
                    units.pop()
                    predicted.pop()
                last = last[len(run) - len(block) :]
                units += compress(block, last)
                predicted.extend(compress(values, last))
                continue
            index = _index(units, predicted)
        index.update(zip(block, values))
    if index is None:
        index = {}
    else:
        predicted = array("d", index.values())
        # Replacing values while iterating the keys is allowed: no key comes or goes.
        index.update(zip(index, range(len(predicted))))

    # Each unit's in-window sales, summed in file order from 0.0.  Sales of
    # other units are checked but not kept.  While ``units`` is left, a
    # block that keeps the unit order looks up the predicted units from its
    # first to its last; over the file, those add up to about one index of
    # every unit.
    sold = array("d", [0.0]) * len(predicted)
    dates_seen: set[str] = set()
    previous: list[str] = []
    for block, values in _sales_blocks(sales, window, dates_seen):
        if units and block:
            run = previous + block
            if all(map(le, run, run[1:])):
                lo, hi = bisect_left(units, block[0]), bisect_right(units, block[-1])
                index = dict(zip(units[lo:hi], range(lo, hi)))
                previous = block[-1:]
            else:
                index = _index(units, range(len(units)))
        for i, value in zip(map(index.get, block), values):
            if i is not None:
                sold[i] += value
    # The units are the largest buffer; drop them before the velocities are
    # laid out.
    del units, index

    missing_days = [d for d in window if d not in dates_seen]
    if missing_days:
        raise PreconditionError(
            f"sales data covers no rows at all for day(s) {missing_days}; "
            f"the {VELOCITY_WINDOW_DAYS}-day window from {target} is incomplete"
        )
    scored = list(map(eq, predicted, predicted))  # False at a NaN
    excluded = scored.count(False)
    if excluded:
        predicted = array("d", compress(predicted, scored))
        sold = array("d", compress(sold, scored))
    actual = array("d", map(truediv, sold, repeat(VELOCITY_WINDOW_DAYS)))
    return predicted, actual, excluded


def _index(units: list[str], values: Iterable) -> dict:
    """Each of ``units``, which is emptied, mapped to its value, in order."""
    index = dict(zip(units, values))
    units.clear()
    return index


def _prediction_blocks(handle: DatasetHandle, target: str) -> Iterator[tuple[list[str], list]]:
    """Per block of ``handle``, each row for day ``target``: its unit and
    its prediction, NaN where blank.  A blank unit id or bad cell fails."""
    for first, (dates, units, cells) in _column_blocks(
        handle, ("eval_date", "unit_id", "prediction")
    ):
        rows: Sequence[int] = range(first, first + len(dates))
        dates = list(map(str.strip, dates))
        units = list(map(str.strip, units))
        if dates.count(target) != len(dates):
            keep = [k for k, day in enumerate(dates) if day == target]
            if not keep:
                continue
            rows = [first + k for k in keep]
            units = [units[k] for k in keep]
            cells = [cells[k] for k in keep]
        values = _floats(cells, non_negative=True) if all(units) else None
        if values is None:
            # Row by row, so the first bad row in file order is the one reported.
            values = []
            for row, unit, cell in zip(rows, units, cells):
                if not unit:
                    raise _error(handle, row, "missing unit_id")
                cell = cell.strip()
                values.append(
                    _number(handle, row, "prediction", cell, non_negative=True)
                    if cell
                    else math.nan
                )
        yield units, values


def _sales_blocks(
    handle: DatasetHandle, window: dict, dates_seen: set[str]
) -> Iterator[tuple[list[str], list]]:
    """Per block of ``handle``, each row dated in ``window``: its unit and
    units sold.  Every date read goes to ``dates_seen``, and a blank one
    fails anywhere; a bad cell fails in the window, and only there."""
    for first, (dates, units, cells) in _column_blocks(handle, ("date", "unit_id", "units")):
        dates = list(map(str.strip, dates))
        inside = list(map(window.__contains__, dates))
        values = _floats(cells, non_negative=True) if all(dates) else None
        if values is None:
            # Row by row: a blank date fails anywhere, a cell only in the window.
            values = []
            for row, (day, kept, cell) in enumerate(zip(dates, inside, cells), first):
                if not day:
                    raise _error(handle, row, "missing date")
                values.append(
                    _number(handle, row, "units", cell.strip(), non_negative=True) if kept else None
                )
        dates_seen.update(dates)
        if not all(inside):
            units, values = list(compress(units, inside)), list(compress(values, inside))
        yield list(map(str.strip, units)), values
