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

``assemble_velocity_pairs`` reads each file once.  The sales are summed
per unit, in a second process while the predictions are read when the
sales file is large and a second CPU is free (``_fork``), and the sums are
matched to the predicted units as they come.  While both files are in unit
order the predicted units are kept in one sorted list; from the first unit
out of order, a ``unit -> index`` dict holds them all, with the same
result; the second process, which has no predicted units, sums the sales
from there on in a dict of its own.
"""

from __future__ import annotations

import csv
import marshal
import math
from array import array
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from datetime import date, timedelta
from enum import Enum
from functools import partial
from itertools import chain, compress, islice, repeat
from operator import eq, itemgetter, le, ne, truediv
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from . import _fork
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

    The sales are summed per unit (``_sales_sums``), then matched to the
    predicted units as the sums come (``_sold``).  When ``_fork.cpus`` lets
    a worker run (a sales file of ``_fork.FORK_MIN_BYTES`` or more, two
    CPUs, no other thread), the sums are made in a worker pinned to the
    second CPU while this process, pinned to the first, reads the
    predictions; its affinity mask is restored after.  Otherwise, or when
    the worker does not reply whole, they are made here once the
    predictions are read, so a bad prediction is reported before a bad
    sale, and every error is the one a serial read raises.  While the
    stripped unit ids of the predictions, and of the sales summed here,
    never decrease in ``str`` order (other days' rows and out-of-window
    sales aside), the predicted units are kept in one sorted list; from the
    first id out of order on, one ``unit -> index`` dict holds them
    instead.
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

    # The sales are summed in a worker, when the gate in ``_fork`` lets one
    # run, while this process reads the predictions.
    job = partial(_sales_reply, sales, window)
    cpus = _fork.cpus(sales.path, 2)
    named: list[list[str]] = []  # the list of window days that ends a reply
    with _fork.replies([job], cpus[1:]) as replies, _fork.pinned(cpus[:1] if replies else ()):
        # Each unit's last prediction, NaN if blank (a stored one is
        # finite), in the order units first appear.  In a sorted file a
        # unit's rows are adjacent, so ``units`` keeps the last of each run,
        # across block edges too; out of order, a dict's ``update`` places
        # a block.
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
        if index is not None:
            predicted = array("d", index.values())
            # Replacing values while iterating the keys is allowed: no key comes or goes.
            index.update(zip(index, range(len(predicted))))
        if replies:
            sold = array("d", [0.0]) * len(predicted)
            _sold(sold, _received(replies[0], named), units, index)
    if named and replies[0].whole:
        days = set(named[0])
    else:
        # In-process: no worker ran or replied whole.  A bad sale raises here.
        days = set()
        sold = array("d", [0.0]) * len(predicted)
        sums = _sales_sums(sales, window, days, partial(_added, units, index, sold))
        _sold(sold, sums, units, index)
        del sums
    # The units are the largest buffer; drop them before the velocities are
    # laid out.
    del units, index

    missing_days = [d for d in window if d not in days]
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


def _sales_reply(handle: DatasetHandle, window: dict) -> list[bytes]:
    """The sales half of the join, as the worker sends it: each message of
    ``_sales_sums`` as a ``marshal`` pair of its ids and its sums as raw
    doubles, then the days of ``window`` that ``handle`` has rows for,
    paired with ``None``.  ``marshal`` spells any id, newlines included, in
    C.

    From the first unit out of order, the messages made so far, none of
    them written yet (``_fork`` writes a reply once it is whole), are taken
    back into one ``unit -> sum`` dict, the rest of the file is added to
    it, and its units are sent in order once the file is read.
    """
    seen: set[str] = set()
    messages: list[bytes] = []

    def rest(blocks: Iterable[tuple[list[str], list]]) -> Iterator[tuple[list[str], array]]:
        totals: dict[str, float] = {}
        for message in messages:
            ids, raw = marshal.loads(message)
            totals.update(zip(ids, array("d", raw)))
        messages.clear()
        for block, values in blocks:
            for key, value in zip(block, values):
                totals[key] = totals.get(key, 0.0) + value
        keys = sorted(totals)
        sums = array("d", map(totals.__getitem__, keys))
        del totals  # before the messages are made
        for k in range(0, len(keys), _BLOCK_ROWS):
            yield keys[k : k + _BLOCK_ROWS], sums[k : k + _BLOCK_ROWS]

    for ids, sums in _sales_sums(handle, window, seen, rest):
        messages.append(marshal.dumps((ids, sums.tobytes())))
    messages.append(marshal.dumps(([day for day in window if day in seen], None)))
    return messages


def _received(
    reply: Iterable[bytes], named: list[list[str]]
) -> Iterator[tuple[list[str], array]]:
    """The messages of ``_sales_sums`` in a ``_sales_reply``; the list of
    days that ends it is appended to ``named``."""
    for message in reply:
        ids, raw = marshal.loads(message)
        if raw is None:
            named.append(ids)
        else:
            yield ids, array("d", raw)


def _sales_sums(
    handle: DatasetHandle,
    window: dict,
    dates_seen: set[str],
    rest: Callable[[Iterator[tuple[list[str], list]]], Iterable[tuple[list[str], array]]],
) -> Iterator[tuple[list[str], array]]:
    """Each unit's in-window sales in ``handle``, summed in file order from
    0.0, in messages of up to ``_BLOCK_ROWS`` units: their ids, in
    increasing ``str`` order, and their sums.  Every date read goes to
    ``dates_seen``.

    While the units never decrease, each one's run is summed as it ends,
    and a message goes out once it is full, so the sums of a sorted file
    are never all held.  At the first unit out of order, the runs summed so
    far go out, and the sales blocks from there on go to ``rest``, whose
    messages follow: it sums them on from the sums already sent.
    """
    ids: list[str] = []
    sums = array("d")
    unit: str | None = None  # the unit of the current run
    total = 0.0
    blocks = _sales_blocks(handle, window, dates_seen)
    for block, values in blocks:
        if (block and unit is not None and block[0] < unit) or not all(map(le, block, block[1:])):
            break
        for key, value in zip(block, values):
            if key != unit:
                if unit is not None:
                    ids.append(unit)
                    sums.append(total)
                    if len(ids) == _BLOCK_ROWS:
                        yield ids, sums
                        ids, sums = [], array("d")
                unit, total = key, 0.0
            total += value
    else:
        block = None  # the whole file is in unit order
    if unit is not None:
        ids.append(unit)
        sums.append(total)
    if ids:
        yield ids, sums
    if block is not None:
        yield from rest(chain([(block, values)], blocks))


def _sold(
    sold: array, sums: Iterable[tuple[list[str], array]], units: list[str], index: dict | None
) -> None:
    """Fill in ``sold``, each predicted unit's summed sales, from the
    messages of ``_sales_sums``.  The units are ``index``'s keys or, if it
    is ``None``, the sorted ``units``: each message then fills the span of
    ``units`` that its ids cover, found by ``bisect``."""
    for ids, values in sums:
        if index is None:
            lo, hi = bisect_left(units, ids[0]), bisect_right(units, ids[-1])
            if lo < hi:
                found = dict(zip(ids, values))
                sold[lo:hi] = array("d", map(found.get, units[lo:hi], repeat(0.0)))
        else:
            for i, value in zip(map(index.get, ids), values):
                if i is not None:
                    sold[i] = value


def _added(
    units: list[str],
    index: dict | None,
    sold: array,
    blocks: Iterable[tuple[list[str], list]],
) -> tuple[()]:
    """The in-process ``rest`` of ``_sales_sums``: add the sales in
    ``blocks`` to ``sold`` in place, each at its unit's place in ``index``
    or, when it is ``None``, in the sorted ``units``, indexed now.  Other
    units' sales are dropped.  It sends nothing."""
    where = _index(units, range(len(units))) if index is None else index
    for block, values in blocks:
        for i, value in zip(map(where.get, block), values):
            if i is not None:
                sold[i] += value
    return ()


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
