"""Tests for file ingestion, velocity-pair assembly, and the synthetic
data generator."""

from __future__ import annotations

import csv
import gc
import io
import logging
import math
import os
import random
import tempfile
import tracemalloc
from array import array
from contextlib import contextmanager
from datetime import date, timedelta
from itertools import islice
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from driftmon import (
    DatasetKind,
    PreconditionError,
    QuantileSketch,
    SchemaError,
    StorageError,
    SynthSpec,
    ValidationError,
    assemble_velocity_pairs,
    build_cdf,
    drift_evaluate,
    generate_synthetic,
    ks_critical_distance,
    mae,
    open_dataset,
    read_columns,
    wmape,
)
from driftmon import _fork, data, synth
from driftmon.data import _BLOCK_ROWS

PREDICTION_HEADER = "unit_id,eval_date,prediction,f1\n"
SALES_HEADER = "unit_id,date,units\n"


def shuffle_rows(path: Path) -> None:
    """Shuffle the data rows of the CSV file at ``path``, header first."""
    header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
    random.Random(5).shuffle(rows)
    path.write_text(header + "".join(rows), encoding="utf-8")


def write_csv(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def sales_rows(day_units: dict[str, list[tuple[str, float]]]) -> str:
    lines = [SALES_HEADER.rstrip("\n")]
    for day, entries in day_units.items():
        for unit, units in entries:
            lines.append(f"{unit},{day},{units}")
    return "\n".join(lines) + "\n"


@contextmanager
def two_cpus():
    """The CPU set reads as two CPUs or more, every CPU this process may use
    among them, whatever the machine has; yields the mock of
    ``_fork._spawn``, which counts the workers forked."""
    cpus = os.sched_getaffinity(0)
    cpus = cpus if len(cpus) > 1 else cpus | {0, 1}
    with mock.patch("os.sched_getaffinity", lambda pid: cpus), mock.patch(
        "driftmon._fork._spawn", wraps=_fork._spawn
    ) as spawn:
        yield spawn


@contextmanager
def sales_worker(forked: bool):
    """With ``forked``, the join sums every sales file in a worker, however
    small, and asserts that one forked; without, it sums them in-process."""
    with two_cpus() as spawn, mock.patch(
        "driftmon._fork.FORK_MIN_BYTES", 0 if forked else math.inf
    ):
        yield
    assert spawn.call_count == forked


def summarize_column(handle, column: str, epsilon: float = 0.001, points: int = 100):
    sketch = QuantileSketch(epsilon)
    for (values,) in read_columns(handle, [column]):
        sketch.extend(values)
    return build_cdf(sketch, points, column)


class TestOpenDataset:
    def test_accepts_kind_as_string_or_enum(self, tmp_path: Path) -> None:
        f = write_csv(tmp_path / "t.csv", PREDICTION_HEADER + "u1,2022-03-07,1.0,2.0\n")
        assert open_dataset(f, "training").kind is DatasetKind.TRAINING
        assert open_dataset(f, DatasetKind.DAILY_INFERENCE).kind is DatasetKind.DAILY_INFERENCE

    def test_discovers_columns(self, tmp_path: Path) -> None:
        f = write_csv(tmp_path / "t.csv", "unit_id,eval_date,prediction,f1,f2\n")
        assert open_dataset(f, "training").columns == (
            "unit_id", "eval_date", "prediction", "f1", "f2",
        )

    def test_missing_required_columns_is_a_schema_error(self, tmp_path: Path) -> None:
        f = write_csv(tmp_path / "bad.csv", "a,b\n1,2\n")
        with pytest.raises(SchemaError, match="missing required columns"):
            open_dataset(f, "training")
        g = write_csv(tmp_path / "s.csv", PREDICTION_HEADER)
        with pytest.raises(SchemaError, match="daily_sales"):
            open_dataset(g, "daily_sales")
        empty = write_csv(tmp_path / "empty.csv", "")
        with pytest.raises(SchemaError, match="missing header row"):
            open_dataset(empty, "training")

    def test_missing_file_is_a_storage_error(self, tmp_path: Path) -> None:
        with pytest.raises(StorageError, match="cannot open"):
            open_dataset(tmp_path / "ghost.csv", "training")

    def test_unknown_kind_is_rejected(self, tmp_path: Path) -> None:
        f = write_csv(tmp_path / "t.csv", PREDICTION_HEADER)
        with pytest.raises(ValueError, match="weird"):
            open_dataset(f, "weird")


class TestReadColumn:
    def test_yields_values_in_file_order(self, tmp_path: Path) -> None:
        f = write_csv(
            tmp_path / "t.csv",
            PREDICTION_HEADER + "u1,2022-03-07,1.5,10.0\nu2,2022-03-07,0.25,20.0\n",
        )
        handle = open_dataset(f, "training")
        assert list(read_columns(handle, ["f1"])) == [([10.0, 20.0],)]
        assert list(read_columns(handle, ["prediction"])) == [([1.5, 0.25],)]

    def test_blank_cells_are_skipped_and_counted(self, tmp_path: Path, caplog) -> None:
        f = write_csv(
            tmp_path / "t.csv",
            PREDICTION_HEADER + "u1,2022-03-07,1.0,1.0\nu2,2022-03-07,,2.0\nu3,2022-03-07,3.0,3.0\n",
        )
        reader = read_columns(open_dataset(f, "training"), ["prediction"])
        with caplog.at_level(logging.WARNING):
            values = [v for (block,) in reader for v in block]
        assert values == [1.0, 3.0]
        assert any("skipped 1 blank" in message for message in caplog.messages)

    def test_unparseable_cell_error_names_file_and_line(self, tmp_path: Path) -> None:
        for rows, line in (
            ("u1,2022-03-07,1.0,1.0\nu2,2022-03-07,oops,2.0\n", 3),
            # A blank line is skipped but still counts as a line.
            ("u1,2022-03-07,1.0,1.0\n\nu2,2022-03-07,oops,2.0\n", 4),
        ):
            f = write_csv(tmp_path / "t.csv", PREDICTION_HEADER + rows)
            with pytest.raises(SchemaError, match=rf"t\.csv:{line}: cannot parse 'oops'"):
                list(read_columns(open_dataset(f, "training"), ["prediction"]))

    def test_non_finite_cell_is_rejected_with_line(self, tmp_path: Path) -> None:
        f = write_csv(tmp_path / "t.csv", PREDICTION_HEADER + "u1,2022-03-07,inf,1.0\n")
        with pytest.raises(SchemaError, match=r"t\.csv:2: non-finite"):
            list(read_columns(open_dataset(f, "training"), ["prediction"]))

    def test_missing_column_is_a_schema_error(self, tmp_path: Path) -> None:
        f = write_csv(tmp_path / "t.csv", PREDICTION_HEADER)
        with pytest.raises(SchemaError, match="no column named 'nope'"):
            read_columns(open_dataset(f, "training"), ["nope"])

    def test_rows_are_read_as_a_dict_reader_would(self, tmp_path: Path) -> None:
        """Empty rows are skipped, a short row reads its missing cells as
        blank, and a duplicated header name resolves to its last column."""
        f = write_csv(
            tmp_path / "t.csv",
            "unit_id,eval_date,prediction,f1,f1\n"
            "u1,2022-03-07,1.0,5.0,6.0\n"
            "\n"
            "u2,2022-03-07,2.0\n",
        )
        rows = read_columns(open_dataset(f, "training"), ["prediction", "f1"])
        assert list(rows) == [([1.0, 2.0], [6.0])]

    def test_blocks_hold_each_columns_non_blank_values(self, tmp_path: Path) -> None:
        """Two full blocks and a remainder, with f1 blank for the whole
        second block and scattered blanks in prediction."""
        rows = 2 * _BLOCK_ROWS + 3
        cells = {
            "prediction": ["" if i % 7 == 3 else f"{i}.5" for i in range(rows)],
            "f1": ["" if _BLOCK_ROWS <= i < 2 * _BLOCK_ROWS else f"-{i}.0" for i in range(rows)],
        }
        f = write_csv(
            tmp_path / "t.csv",
            PREDICTION_HEADER
            + "".join(
                f"u{i},2022-03-07,{cells['prediction'][i]},{cells['f1'][i]}\n" for i in range(rows)
            ),
        )
        blocks = list(read_columns(open_dataset(f, "training"), ["f1", "prediction"]))
        assert len(blocks) == 3
        for b, block in enumerate(blocks):
            span = slice(b * _BLOCK_ROWS, (b + 1) * _BLOCK_ROWS)
            assert block == tuple(
                [float(cell) for cell in cells[column][span] if cell]
                for column in ("f1", "prediction")
            )
        assert blocks[1][0] == []


class TestAssembleVelocityPairs:
    FORECAST = date(2022, 3, 20)
    WINDOW = [f"2022-03-{day}" for day in range(20, 27)]

    def full_window(self, extra: dict[str, list[tuple[str, float]]] | None = None) -> str:
        """Sales text where a filler unit covers every window day, plus
        any extra per-day rows."""
        days: dict[str, list[tuple[str, float]]] = {d: [("filler", 0.0)] for d in self.WINDOW}
        for day, entries in (extra or {}).items():
            days[day] = days[day] + entries
        return sales_rows(days)

    def handles(self, tmp_path: Path, pred_text: str, sales_text: str):
        pred = open_dataset(write_csv(tmp_path / "pred.csv", pred_text), "daily_inference")
        sales = open_dataset(write_csv(tmp_path / "sales.csv", sales_text), "daily_sales")
        return pred, sales

    def test_single_sale_of_seven_units_means_velocity_one(self, tmp_path: Path) -> None:
        pred, sales = self.handles(
            tmp_path,
            PREDICTION_HEADER + "u1,2022-03-20,1.0,0.0\n",
            self.full_window({"2022-03-22": [("u1", 7.0)]}),
        )
        predicted, actual, excluded = assemble_velocity_pairs(pred, sales, self.FORECAST)
        assert excluded == 0
        assert (predicted, actual) == (array("d", [1.0]), array("d", [1.0]))

    def test_steady_sales_of_seven_a_day_mean_velocity_seven(self, tmp_path: Path) -> None:
        pred, sales = self.handles(
            tmp_path,
            PREDICTION_HEADER + "u1,2022-03-20,1.0,0.0\n",
            self.full_window({day: [("u1", 7.0)] for day in self.WINDOW}),
        )
        predicted, actual, _ = assemble_velocity_pairs(pred, sales, self.FORECAST)
        assert (predicted, actual) == (array("d", [1.0]), array("d", [7.0]))

    def test_unit_without_sales_rows_has_zero_velocity(self, tmp_path: Path) -> None:
        pred, sales = self.handles(
            tmp_path,
            PREDICTION_HEADER + "u1,2022-03-20,2.5,0.0\n",
            self.full_window(),
        )
        predicted, actual, _ = assemble_velocity_pairs(pred, sales, self.FORECAST)
        assert (predicted, actual) == (array("d", [2.5]), array("d", [0.0]))

    def test_duplicate_unit_day_sales_are_summed(self, tmp_path: Path) -> None:
        pred, sales = self.handles(
            tmp_path,
            PREDICTION_HEADER + "u1,2022-03-20,1.0,0.0\n",
            self.full_window({"2022-03-21": [("u1", 3.0), ("u1", 4.0)]}),
        )
        _, actual, _ = assemble_velocity_pairs(pred, sales, self.FORECAST)
        assert actual == array("d", [1.0])

    def test_sales_outside_window_are_ignored(self, tmp_path: Path) -> None:
        sales_text = self.full_window({"2022-03-20": [("u1", 7.0)]})
        sales_text += "u1,2022-03-19,100\nu1,2022-03-27,100\n"
        pred, sales = self.handles(
            tmp_path, PREDICTION_HEADER + "u1,2022-03-20,1.0,0.0\n", sales_text
        )
        _, actual, _ = assemble_velocity_pairs(pred, sales, self.FORECAST)
        assert actual == array("d", [1.0])

    def test_blank_predictions_are_excluded_and_counted(self, tmp_path: Path) -> None:
        pred, sales = self.handles(
            tmp_path,
            PREDICTION_HEADER
            + "u1,2022-03-20,1.0,0.0\nu2,2022-03-20,,0.0\nu3,2022-03-20,2.0,0.0\n",
            self.full_window(),
        )
        predicted, actual, excluded = assemble_velocity_pairs(pred, sales, self.FORECAST)
        assert excluded == 1
        assert (predicted, actual) == (array("d", [1.0, 2.0]), array("d", [0.0, 0.0]))

    def test_blank_row_after_a_valid_one_excludes_the_unit(self, tmp_path: Path) -> None:
        pred, sales = self.handles(
            tmp_path,
            PREDICTION_HEADER
            + "u1,2022-03-20,4.0,0.0\nu2,2022-03-20,2.0,0.0\nu1,2022-03-20,,0.0\n",
            self.full_window({"2022-03-21": [("u1", 7.0)]}),
        )
        predicted, actual, excluded = assemble_velocity_pairs(pred, sales, self.FORECAST)
        assert excluded == 1
        assert (predicted, actual) == (array("d", [2.0]), array("d", [0.0]))

    def test_duplicate_prediction_rows_keep_the_last(self, tmp_path: Path) -> None:
        pred, sales = self.handles(
            tmp_path,
            PREDICTION_HEADER + "u1,2022-03-20,,0.0\nu1,2022-03-20,4.0,0.0\n",
            self.full_window(),
        )
        predicted, _, excluded = assemble_velocity_pairs(pred, sales, self.FORECAST)
        assert excluded == 0
        assert predicted == array("d", [4.0])

    def test_row_order_does_not_change_the_scores(self, tmp_path: Path) -> None:
        """Velocities come out in file order, and ``mae`` and ``wmape`` sum
        exactly, so shuffling both files leaves their bits unchanged."""
        rng = random.Random(11)
        pred_rows = [
            f"u{i},2022-03-20,{rng.uniform(0.0, 10.0 ** rng.randint(-3, 3))!r},0.0"
            for i in range(300)
        ]
        sales_lines = [
            f"u{rng.randrange(400)},{day},{rng.randint(1, 9)}"
            for day in self.WINDOW
            for _ in range(150)
        ]
        scores = []
        for attempt in range(3):
            if attempt:
                rng.shuffle(pred_rows)
                rng.shuffle(sales_lines)
            pred, sales = self.handles(
                tmp_path,
                PREDICTION_HEADER + "\n".join(pred_rows) + "\n",
                SALES_HEADER + "\n".join(sales_lines) + "\n",
            )
            predicted, actual, excluded = assemble_velocity_pairs(pred, sales, self.FORECAST)
            assert (len(predicted), len(actual), excluded) == (300, 300, 0)
            scores.append((mae(predicted, actual).hex(), wmape(predicted, actual).hex()))
        assert scores[1:] == scores[:1] * 2

    @staticmethod
    def traced(call) -> tuple[object, float, float]:
        """(result, held, peak): what ``call()`` returns, and what it leaves
        allocated and peaks at in this process, in traced bytes."""
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = call()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, held - base, peak - base

    def traced_join(
        self, out: Path, density: float, shuffled: tuple[str, ...] = ()
    ) -> tuple[tuple[array, array, int], float, float, int, float]:
        """(result, held, peak, indexes, worker): one in-process join of a
        2e4-unit ``synth`` day at ``density``, with the data rows of the
        ``shuffled`` files (``"predictions"``, ``"sales"``) shuffled; what it
        leaves allocated and peaks at, in traced B/unit; how many times it
        indexed every predicted unit; and the traced peak, in B/unit, of the
        sales worker's reply to the same files, made here."""
        n = 20_000
        _, inference, sales = generate_synthetic(
            SynthSpec(n_units=n, density=density, seed=5), out
        )
        for name in shuffled:
            shuffle_rows({"predictions": inference, "sales": sales}[name].path)
        with mock.patch("driftmon.data._index", wraps=data._index) as index, sales_worker(False):
            result, held, peak = self.traced(
                lambda: assemble_velocity_pairs(inference, sales, synth.PRODUCTION_DATE)
            )
        _, _, worker = self.traced(lambda: list(data._sales_reply(sales, dict.fromkeys(self.WINDOW))))
        return result, held / n, peak / n, index.call_count, worker / n

    @pytest.mark.parametrize("density", [0.3, 1.0])
    def test_memory_per_unit_stays_flat(self, tmp_path: Path, density: float) -> None:
        """The result holds two doubles per unit, and the in-process call's
        peak is a few objects per predicted unit, not per sale, however
        dense the sales: with every unit selling, it stays within 8 B/unit
        of sparse sales.  Files in unit order are joined without an index of
        every unit, and peak lower; with either file shuffled, one such
        index is built.  The sales worker's reply, made on its own, peaks
        below the in-process call."""
        for shuffled in [(), ("sales",), ("predictions", "sales")]:
            lane = f"shuffled {shuffled}"
            result, held, peak, indexes, worker = self.traced_join(
                tmp_path / f"days{len(shuffled)}", density, shuffled
            )
            assert len(result[0]) == 20_000
            assert indexes == (1 if shuffled else 0), lane
            assert held <= 32, f"{lane}: result holds {held:.1f} B/unit"
            assert peak <= (270 if shuffled else 96), f"{lane}: call peaks at {peak:.1f} B/unit"
            assert worker < peak, f"{lane}: worker peaks at {worker:.1f} B/unit, call {peak:.1f}"
            sparse = (
                peak
                if density == 0.3
                else self.traced_join(tmp_path / f"sparse{len(shuffled)}", 0.3, shuffled)[2]
            )
            assert peak - sparse <= 8, f"{lane}: peaks at {peak:.1f} B/unit, {sparse:.1f} sparse"

    @pytest.mark.parametrize("block_rows", [1, 16, 256])
    def test_days_that_outgrow_flat_rows_keep_file_order_sums(
        self, tmp_path: Path, block_rows: int
    ) -> None:
        """Whatever the block size, each unit's velocity is its in-window
        sales summed in file order from 0.0, zeros of either sign included,
        and divided by 7, as a plain loop does."""
        rng = random.Random(3)
        units = [f"u{i}" for i in range(40)]
        lines = [
            f"{rng.choice(units[:4])},{day},{rng.uniform(0, 10.0 ** rng.randint(-3, 6))!r}"
            for day in self.WINDOW[1:]
            for _ in range(48)
        ]
        # The first day holds fewer rows, over fewer units.
        lines += [
            f"{rng.choice(units[:3])},{self.WINDOW[0]},{rng.uniform(0, 1e3)!r}" for _ in range(9)
        ]
        # Zero sales, of either sign, add nothing.
        lines += [
            f"{unit},{day},{zero}"
            for unit in units[::5]
            for day in self.WINDOW
            for zero in ("0", "-0.0")
        ]
        rng.shuffle(lines)
        pred, sales = self.handles(
            tmp_path,
            PREDICTION_HEADER + "".join(f"{unit},2022-03-20,1.0,0.0\n" for unit in units),
            SALES_HEADER + "\n".join(lines) + "\n",
        )
        sums = dict.fromkeys(units, 0.0)
        for line in lines:
            unit, _, value = line.split(",")
            sums[unit] += float(value)
        expected = [sums[unit] / 7 for unit in units]
        with mock.patch("driftmon.data._BLOCK_ROWS", block_rows):
            _, actual, _ = assemble_velocity_pairs(pred, sales, self.FORECAST)
        assert [v.hex() for v in actual] == [v.hex() for v in expected]

    def test_repeated_unit_day_rows_do_not_grow_the_peak(self, tmp_path: Path) -> None:
        """A sales file that lists every unit-day three times peaks within
        the bound of a sparse one, in unit order and shuffled, in-process
        and in the sales worker's reply: rows are summed as they are read,
        so nothing grows with their count."""
        n = 5_000
        _, inference, _ = generate_synthetic(SynthSpec(n_units=n, seed=5), tmp_path)
        units = [f"u{i:04d}" for i in range(1, n + 1)]
        days = [(synth.PRODUCTION_DATE + timedelta(days=i)).isoformat() for i in range(7)]
        sales = open_dataset(
            write_csv(
                tmp_path / "repeated.csv",
                SALES_HEADER + "".join(f"{u},{d},1\n" * 3 for u in units for d in days),
            ),
            "daily_sales",
        )
        for shuffled in (False, True):
            if shuffled:
                shuffle_rows(inference.path)
                shuffle_rows(sales.path)
            with sales_worker(False):
                (_, actual, _), _, peak = self.traced(
                    lambda: assemble_velocity_pairs(inference, sales, synth.PRODUCTION_DATE)
                )
            _, _, worker = self.traced(lambda: list(data._sales_reply(sales, dict.fromkeys(self.WINDOW))))
            assert set(actual) == {3.0}
            assert peak / n <= 270, f"shuffled {shuffled}: call peaks at {peak / n:.1f} B/unit"
            assert worker / n <= 270, f"shuffled {shuffled}: worker peaks at {worker / n:.1f} B/unit"

    def test_missing_window_day_is_a_precondition_error(self, tmp_path: Path) -> None:
        days = {d: [("filler", 0.0)] for d in self.WINDOW if d != "2022-03-23"}
        pred, sales = self.handles(
            tmp_path, PREDICTION_HEADER + "u1,2022-03-20,1.0,0.0\n", sales_rows(days)
        )
        with pytest.raises(PreconditionError, match="2022-03-23"):
            assemble_velocity_pairs(pred, sales, self.FORECAST)

    @pytest.mark.parametrize(
        ("pred_row", "sales_row", "where"),
        [
            ("u2,2022-03-20,-1.0,0.0", "", r"pred\.csv:3: negative value '-1\.0'"),
            ("u2,2022-03-20,abc,0.0", "", r"pred\.csv:3: cannot parse 'abc'"),
            ("", "u1,2022-03-21,lots", r"sales\.csv:9: cannot parse 'lots'"),
            ("", "u9,2022-03-21,lots", r"sales\.csv:9: cannot parse 'lots'"),
            ("", "u1,2022-03-21,-2", r"sales\.csv:9: negative value '-2'"),
            (",2022-03-20,1.0,0.0", "", r"pred\.csv:3: missing unit_id"),
            ("", "u1,,3", r"sales\.csv:9: missing date"),
        ],
    )
    def test_bad_cells_name_file_and_line(
        self, tmp_path: Path, pred_row: str, sales_row: str, where: str
    ) -> None:
        pred_text = PREDICTION_HEADER + "u1,2022-03-20,1.0,0.0\n"
        sales_text = self.full_window()  # header plus 7 filler rows
        pred, sales = self.handles(
            tmp_path,
            pred_text + (pred_row + "\n" if pred_row else ""),
            sales_text + (sales_row + "\n" if sales_row else ""),
        )
        with pytest.raises(SchemaError, match=where):
            assemble_velocity_pairs(pred, sales, self.FORECAST)

    @pytest.mark.parametrize(
        ("pred_rows", "sales_rows", "indexes"),
        [
            # Sorted but for the last sales row.
            (
                ["u1,2022-03-20,1,0", "u2,2022-03-20,2,0"],
                ["u2,2022-03-21,4", "u1,2022-03-22,7"],
                (1, 0),
            ),
            # Sorted by day, then by unit.
            (
                ["u1,2022-03-20,1,0", "u2,2022-03-20,2,0"],
                ["u1,2022-03-21,4", "u2,2022-03-21,1", "u1,2022-03-22,7", "u2,2022-03-22,3"],
                (1, 0),
            ),
            # A bad sale is met before a bad prediction of a later block, and
            # the prediction is reported, as every prediction is read first.
            (
                ["u1,2022-03-20,1,0", "u2,2022-03-20,2,0", "u3,2022-03-20,-1,0"],
                ["u1,2022-03-21,lots"],
                (0, 0),
            ),
            # In order as numbers, not as strings.
            (
                ["u9,2022-03-20,1,0", "u10,2022-03-20,2,0"],
                ["u9,2022-03-21,7", "u10,2022-03-21,14"],
                (1, 1),
            ),
        ],
        ids=[
            "last-sale-out-of-order",
            "sales-by-day",
            "bad-sale-then-bad-prediction",
            "numeric-order",
        ],
    )
    def test_files_out_of_order_switch_to_one_index(
        self, tmp_path: Path, pred_rows: list[str], sales_rows: list[str], indexes: tuple
    ) -> None:
        """From the first unit out of order in either file, every predicted
        unit is indexed once, and the join goes on with the reference join's
        bits, or its error and ``file:line``.  ``indexes`` counts the indexes
        in-process and with the sales summed in a worker, which sums sales
        out of order in a dict of its own."""
        pred, sales = self.handles(
            tmp_path,
            PREDICTION_HEADER + "".join(f"{row}\n" for row in pred_rows),
            # The filler rows sort before every ``u`` unit.
            self.full_window() + "".join(f"{row}\n" for row in sales_rows),
        )
        expected = outcome(lambda: reference_assemble(pred, sales, self.FORECAST))
        for forked in (False, True):
            with mock.patch("driftmon.data._BLOCK_ROWS", 2), mock.patch(
                "driftmon.data._index", wraps=data._index
            ) as index, sales_worker(forked):
                got = outcome(lambda: assemble_velocity_pairs(pred, sales, self.FORECAST))
            assert bits(got) == bits(expected), f"forked {forked}"
            assert index.call_count == indexes[forked], f"forked {forked}"

    def test_handle_kinds_are_enforced(self, tmp_path: Path) -> None:
        pred, sales = self.handles(
            tmp_path, PREDICTION_HEADER + "u1,2022-03-20,1.0,0.0\n", self.full_window()
        )
        with pytest.raises(ValidationError, match="predictions handle"):
            assemble_velocity_pairs(sales, sales, self.FORECAST)
        with pytest.raises(ValidationError, match="sales handle"):
            assemble_velocity_pairs(pred, pred, self.FORECAST)

    def test_a_byte_order_mark_changes_nothing(self, tmp_path: Path) -> None:
        """Spreadsheet exports start with a UTF-8 BOM; the files score, and
        read, exactly as they do without it."""
        pred_text = PREDICTION_HEADER + "u1,2022-03-20,1.5,2.0\nu2,2022-03-20,,3.0\n"
        sales_text = self.full_window({"2022-03-21": [("u1", 7.0)]})
        results = []
        for bom in ("", "\ufeff"):
            folder = tmp_path / f"bom{len(bom)}"
            folder.mkdir()
            pred, sales = self.handles(folder, bom + pred_text, bom + sales_text)
            assert pred.columns[0] == "unit_id" and sales.columns[0] == "unit_id"
            predicted, actual, excluded = assemble_velocity_pairs(pred, sales, self.FORECAST)
            results.append(
                (
                    predicted.tobytes(),
                    actual.tobytes(),
                    excluded,
                    mae(predicted, actual).hex(),
                    wmape(predicted, actual).hex(),
                    list(read_columns(pred, ["f1", "prediction"])),
                )
            )
        assert results[0] == results[1]
        assert results[0][2] == 1


# Reference implementations: the row-by-row reader and join that the
# columnar block reader replaced.  They stay here as the oracle, as
# ``reference_insert`` does for ``QuantileSketch.extend``: the library must
# return bit-identical results, or raise the same error with the same
# ``file:line`` message.


def reference_rows(handle, columns):
    """Yield ``(line, cells)`` for each non-empty data row of ``handle``."""
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


def reference_number(handle, line, column, cell, *, non_negative=False):
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


def reference_blocks(handle, columns, block_rows):
    blanks = [0] * len(columns)
    rows = reference_rows(handle, columns)
    while chunk := list(islice(rows, block_rows)):
        block = tuple([] for _ in columns)
        for line, cells in chunk:
            for i, cell in enumerate(cells):
                if cell:
                    block[i].append(reference_number(handle, line, columns[i], cell))
                else:
                    blanks[i] += 1
        yield block
    for column, count in zip(columns, blanks):
        if count:
            logging.getLogger("driftmon.data").warning(
                "%s: skipped %d blank cell(s) in column %r", handle.path, count, column
            )


def reference_assemble(predictions, sales, forecast_date):
    window = [(forecast_date + timedelta(days=i)).isoformat() for i in range(7)]
    index = {}
    predicted = array("d")
    target = forecast_date.isoformat()
    for line, (day, unit, cell) in reference_rows(
        predictions, ("eval_date", "unit_id", "prediction")
    ):
        if day != target:
            continue
        if not unit:
            raise SchemaError(f"{predictions.path}:{line}: missing unit_id")
        value = (
            reference_number(predictions, line, "prediction", cell, non_negative=True)
            if cell
            else math.nan
        )
        i = index.setdefault(unit, len(predicted))
        if i == len(predicted):
            predicted.append(value)
        else:
            predicted[i] = value
    slots = array("d", [0.0]) * len(predicted)
    dates_seen = set()
    for line, (day, unit, cell) in reference_rows(sales, ("date", "unit_id", "units")):
        if not day:
            raise SchemaError(f"{sales.path}:{line}: missing date")
        dates_seen.add(day)
        if day not in window:
            continue
        units = reference_number(sales, line, "units", cell, non_negative=True)
        i = index.get(unit)
        if i is not None:
            slots[i] += units
    missing_days = [d for d in window if d not in dates_seen]
    if missing_days:
        raise PreconditionError(
            f"sales data covers no rows at all for day(s) {missing_days}; "
            f"the 7-day window from {target} is incomplete"
        )
    scored = array("d")
    actual = array("d")
    for i, value in enumerate(predicted):
        if not math.isnan(value):
            scored.append(value)
            actual.append(slots[i] / 7)
    return scored, actual, len(predicted) - len(scored)


@contextmanager
def warnings_of(logger_name: str):
    """Collect the messages logged to ``logger_name`` inside the block."""
    messages: list[str] = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger(logger_name)
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)


def outcome(call):
    """``("ok", result)``, or the type and message of what ``call`` raised."""
    try:
        return "ok", call()
    except Exception as exc:  # the oracle comparison covers any error
        return type(exc), str(exc)


def bits(result):
    """``result`` with every float spelled exactly, so -0.0 and 0.0 differ."""
    if isinstance(result, float):
        return result.hex()
    if isinstance(result, array):
        return result.tobytes()
    if isinstance(result, (list, tuple)):
        return type(result)(map(bits, result))
    return result


GOOD_CELLS = ["0", "1.5", "2", " 3.25 ", "1e2", "-0.0", '"4.5"', '"\n6.0"', '" 7\r\n"']
BLANK_CELLS = ["", " ", '""']
BAD_CELLS = ["abc", "inf", "-inf", "nan", "-1.0", '"1,5"']
UNITS = [f"u{i}" for i in range(1, 13)] + ['"u\n7"', " u1 "]
TARGET = "2022-03-20"
WINDOW_DAYS = [f"2022-03-{day}" for day in range(20, 27)]


@st.composite
def csv_text(draw, header: str, cells: list[st.SearchStrategy[str]], extra: list[str]) -> str:
    """A CSV file: ``header``, then drawn rows, some blank or cut short,
    with the ``extra`` rows mixed in at drawn places."""
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    size = draw(st.integers(0, 40))
    rows = []
    for row, shape, cut in draw(
        st.lists(
            st.tuples(
                st.tuples(*cells),
                st.sampled_from(["full"] * 6 + ["blank", "short"]),
                st.integers(1, len(cells) - 1),
            ),
            min_size=size,
            max_size=size,
        )
    ):
        rows.append("" if shape == "blank" else ",".join(row[:cut] if shape == "short" else row))
    rows = draw(st.permutations(rows + extra))
    end = newline if draw(st.booleans()) else ""
    return header + newline + newline.join(rows) + end


def numbers(blank: bool, bad: bool) -> st.SearchStrategy[str]:
    return st.sampled_from(
        GOOD_CELLS * 10 + (BLANK_CELLS if blank else []) + (BAD_CELLS if bad else [])
    )


class TestColumnarReadsMatchTheRowReader:
    """The block reader against the reference row reader, on drawn files
    with blank lines, short rows, quoted cells holding newlines, blank
    cells, duplicate units, out-of-window junk and bad, negative or
    non-finite cells.  Small block sizes put every case at a block edge."""

    @settings(max_examples=200, deadline=None)
    @given(
        block_rows=st.sampled_from([1, 2, 3, 5, _BLOCK_ROWS]),
        bad=st.booleans(),
        columns=st.sampled_from([("f1",), ("prediction", "f1"), ("f1", "prediction", "f1")]),
        drawn=st.data(),
    )
    def test_read_columns(self, block_rows, bad, columns, drawn) -> None:
        text = drawn.draw(
            csv_text(
                PREDICTION_HEADER.rstrip("\n"),
                [st.sampled_from(UNITS), st.just(TARGET), numbers(True, bad), numbers(True, bad)],
                [],
            )
        )
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "t.csv"
            path.write_text(text, encoding="utf-8", newline="")
            handle = open_dataset(path, "training")
            with warnings_of("driftmon.data") as expected_log:
                expected = outcome(lambda: list(reference_blocks(handle, columns, block_rows)))
            with warnings_of("driftmon.data") as log, mock.patch(
                "driftmon.data._BLOCK_ROWS", block_rows
            ):
                got = outcome(lambda: list(read_columns(handle, columns)))
        assert bits(got) == bits(expected)
        assert log == expected_log

    @settings(max_examples=200, deadline=None)
    @given(
        block_rows=st.sampled_from([1, 2, 3, 5, _BLOCK_ROWS]),
        bad_predictions=st.booleans(),
        bad_sales=st.booleans(),
        drawn=st.data(),
    )
    def test_assemble_velocity_pairs(
        self, block_rows, bad_predictions, bad_sales, drawn
    ) -> None:
        """Blank predictions in every file; with ``bad_predictions`` also
        blank units and bad cells.  Sales always carry junk outside the
        window, which must be ignored; with ``bad_sales`` also blank
        dates and blank or bad cells inside it."""
        pred_text = drawn.draw(
            csv_text(
                PREDICTION_HEADER.rstrip("\n"),
                [
                    st.sampled_from(UNITS * 3 + ([""] if bad_predictions else [])),
                    st.sampled_from([TARGET] * 6 + ["2022-03-19", "", f" {TARGET} "]),
                    numbers(True, bad_predictions),
                    numbers(True, True),
                ],
                [],
            )
        )
        sales_text = drawn.draw(
            csv_text(
                SALES_HEADER.rstrip("\n"),
                [
                    st.sampled_from(UNITS + ["u9"] + ([""] if bad_sales else [])),
                    st.sampled_from(WINDOW_DAYS * 20 + ([""] if bad_sales else [])),
                    numbers(bad_sales, bad_sales),
                ],
                [f"filler,{day},0" for day in WINDOW_DAYS]
                + ["u1,2022-03-19,abc", "u2,2022-03-27,-5", "u3,x,inf", "u4,2022-03-27,"],
            )
        )
        with tempfile.TemporaryDirectory() as folder:
            pred_path, sales_path = Path(folder) / "pred.csv", Path(folder) / "sales.csv"
            pred_path.write_text(pred_text, encoding="utf-8", newline="")
            sales_path.write_text(sales_text, encoding="utf-8", newline="")
            pred = open_dataset(pred_path, "daily_inference")
            sales = open_dataset(sales_path, "daily_sales")
            expected = outcome(lambda: reference_assemble(pred, sales, date(2022, 3, 20)))
            for forked in (False, True):
                with mock.patch("driftmon.data._BLOCK_ROWS", block_rows), sales_worker(forked):
                    got = outcome(lambda: assemble_velocity_pairs(pred, sales, date(2022, 3, 20)))
                assert bits(got) == bits(expected), f"forked {forked}"


#: Cells the split lane reads: padded ones included, since ``float`` skips
#: the whitespace it would strip, and ``\x1c`` is whitespace to ``strip``
#: that ``float`` refuses.
PLAIN_CELLS = ["0", "1.5", "2", "1e2", "-0.0", " 3.25 ", "\t5", "\x1c4\x1c", "1_0", ""]
#: Cells that send the rest of a file to the csv lane: quoted ones, and one
#: that puts its line, but no cell, past ``FIELD_LIMIT``.
SWITCH_CELLS = ['"4.5"', '"1,5"', '"\n6.0"', '" 7\r\n"', '"2\r8"', "1" * 30]
#: Cells that fail in either lane, or read blank only once stripped: a NUL
#: byte, a cell past ``FIELD_LIMIT``, and bad, negative and non-finite ones.
ODD_CELLS = ["1\x005", "8" * 60, "abc", "-1.0", "inf", " "]
#: ``csv.field_size_limit`` while a drawn file is read; no plain line,
#: over-wide ones included, is longer.
FIELD_LIMIT = 40


@st.composite
def lane_text(draw, header: str, cells: list[st.SearchStrategy[str]], extra: list[str]) -> str:
    """A CSV file of mostly plain rows, with the odd blank, short or
    over-wide row, line ending in a lone CR or another newline, and
    byte-order mark; ``cells`` draws the odd quoted, NUL or oversized cell."""
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    size = draw(st.integers(0, 40))
    rows = []
    for row, shape, cut in draw(
        st.lists(
            st.tuples(
                st.tuples(*cells),
                st.sampled_from(["full"] * 20 + ["blank", "short", "wide"]),
                st.integers(1, len(cells) - 1),
            ),
            min_size=size,
            max_size=size,
        )
    ):
        if shape == "wide":
            row += ("9", "u1")
        rows.append("" if shape == "blank" else ",".join(row[:cut] if shape == "short" else row))
    rows = draw(st.permutations(rows + extra))
    ends = draw(
        st.lists(
            st.sampled_from([newline] * 30 + ["\r", "\n", "\r\n"]),
            min_size=len(rows),
            max_size=len(rows),
        )
    )
    text = header + newline + "".join(row + end for row, end in zip(rows, ends))
    if rows and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return ("\ufeff" if draw(st.booleans()) else "") + text


def lane_numbers(odd: bool) -> st.SearchStrategy[str]:
    return st.sampled_from(PLAIN_CELLS * 12 + SWITCH_CELLS + (ODD_CELLS if odd else []))


def as_raised(result, *paths: Path):
    """A reference ``outcome`` with its ``csv.Error`` as the ``SchemaError``
    the library raises for it: the first of ``paths`` that ``csv`` cannot
    read, with the line it stops on."""
    if result[0] is not csv.Error:
        return result
    for path in paths:
        with path.open(newline="", encoding="utf-8") as stream:
            reader = csv.reader(stream)
            try:
                for _ in reader:
                    pass
            except csv.Error as exc:
                return SchemaError, f"{path}:{reader.line_num}: {exc}"
    raise AssertionError("csv read every file")


@contextmanager
def field_limit(limit: int):
    old = csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(old)


#: A failing drawn file takes minutes to shrink, against seconds for a
#: passing run, so the lane properties report a failure as drawn.
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)


class TestSplitLaneMatchesTheCsvReader:
    """Both lanes of the block reader against the ``csv.reader`` reference,
    on drawn files whose blocks go from the split lane to the csv lane at
    drawn places: quoted cells holding commas, CRs or newlines, lines
    ending in a lone CR, NUL bytes, blank, short and over-wide rows, padded
    cells, a byte-order mark and cells past the field limit."""

    @settings(max_examples=200, deadline=None, phases=NO_SHRINK)
    @given(
        block_rows=st.sampled_from([1, 2, 3, 5, _BLOCK_ROWS]),
        odd=st.booleans(),
        columns=st.sampled_from([("f1",), ("prediction", "f1"), ("f1", "prediction", "f1")]),
        drawn=st.data(),
    )
    def test_read_columns(self, block_rows, odd, columns, drawn) -> None:
        text = drawn.draw(
            lane_text(
                PREDICTION_HEADER.rstrip("\n"),
                [st.sampled_from(UNITS), st.just(TARGET), lane_numbers(odd), lane_numbers(odd)],
                [],
            )
        )
        with tempfile.TemporaryDirectory() as folder, field_limit(FIELD_LIMIT):
            path = Path(folder) / "t.csv"
            path.write_text(text, encoding="utf-8", newline="")
            handle = open_dataset(path, "training")
            with warnings_of("driftmon.data") as expected_log:
                expected = outcome(lambda: list(reference_blocks(handle, columns, block_rows)))
            if expected[0] is csv.Error:
                # The first fault in file order, as a row-by-row read meets it.
                expected = as_raised(
                    outcome(lambda: list(reference_blocks(handle, columns, 1))), path
                )
            with warnings_of("driftmon.data") as log, mock.patch(
                "driftmon.data._BLOCK_ROWS", block_rows
            ):
                got = outcome(lambda: list(read_columns(handle, columns)))
        assert bits(got) == bits(expected)
        assert log == expected_log

    @settings(max_examples=200, deadline=None, phases=NO_SHRINK)
    @given(
        block_rows=st.sampled_from([1, 2, 3, 5, _BLOCK_ROWS]),
        odd=st.booleans(),
        drawn=st.data(),
    )
    def test_assemble_velocity_pairs(self, block_rows, odd, drawn) -> None:
        units = st.sampled_from(
            UNITS * 3 + ['"u,8"', " u2\t"] + (["", '"u1\r"', "u\x001"] if odd else [])
        )
        pred_text = drawn.draw(
            lane_text(
                PREDICTION_HEADER.rstrip("\n"),
                [
                    units,
                    st.sampled_from([TARGET] * 12 + ["2022-03-19", "", f" {TARGET} "]),
                    lane_numbers(odd),
                    lane_numbers(True),
                ],
                [],
            )
        )
        sales_text = drawn.draw(
            lane_text(
                SALES_HEADER.rstrip("\n"),
                [
                    units,
                    st.sampled_from(WINDOW_DAYS * 12 + [f"{TARGET}\t"] + ([""] if odd else [])),
                    lane_numbers(odd),
                ],
                [f"filler,{day},0" for day in WINDOW_DAYS]
                + ["u1,2022-03-19,abc", "u2,2022-03-27,-5", "u3,x,inf", "u4,2022-03-27,"],
            )
        )
        with tempfile.TemporaryDirectory() as folder, field_limit(FIELD_LIMIT):
            pred_path, sales_path = Path(folder) / "pred.csv", Path(folder) / "sales.csv"
            pred_path.write_text(pred_text, encoding="utf-8", newline="")
            sales_path.write_text(sales_text, encoding="utf-8", newline="")
            pred = open_dataset(pred_path, "daily_inference")
            sales = open_dataset(sales_path, "daily_sales")
            expected = outcome(lambda: reference_assemble(pred, sales, date(2022, 3, 20)))
            expected = as_raised(expected, pred_path, sales_path)
            for forked in (False, True):
                with mock.patch("driftmon.data._BLOCK_ROWS", block_rows), sales_worker(forked):
                    got = outcome(lambda: assemble_velocity_pairs(pred, sales, date(2022, 3, 20)))
                assert bits(got) == bits(expected), f"forked {forked}"

    @pytest.mark.parametrize(
        "text,csv_reads_rows",
        [
            (PREDICTION_HEADER + "u1,2022-03-07,1.0,2.0\r\nu2,2022-03-07, 3.0 ,4.0\r\n", False),
            (PREDICTION_HEADER + "u1,2022-03-07,1.0,2.0\nu2,2022-03-07,3.0,4.0,5.0\n", True),
            (PREDICTION_HEADER + 'u1,2022-03-07,1.0,2.0\nu2,2022-03-07,"3.0",4.0\n', True),
            (PREDICTION_HEADER + "u1,2022-03-07,1.0,2.0\r\n\r\nu2,2022-03-07,3.0,4.0\r\n", True),
            (PREDICTION_HEADER + "u1,2022-03-07,1.0,2.0\ru2,2022-03-07,3.0,4.0\r", True),
            # One cell a line: no comma tells an empty line from a blank cell.
            ("prediction,f1,unit_id,eval_date\n1.0\n\n3.0\n", True),
        ],
    )
    def test_only_plain_blocks_take_the_split_lane(
        self, tmp_path: Path, text: str, csv_reads_rows: bool
    ) -> None:
        """``csv.reader`` reads the header, and reads rows only from a
        block that is not a grid of plain lines, one row each."""
        handle = open_dataset(write_csv(tmp_path / "t.csv", text), "training")
        with mock.patch("driftmon.data.csv.reader", wraps=csv.reader) as reader:
            blocks = list(read_columns(handle, ["prediction"]))
        assert blocks == [([1.0, 3.0],)]
        assert reader.call_count == 1 + csv_reads_rows


#: (spelling, unit id) pairs for unit-sorted files: padded and quoted
#: spellings read as the id they strip to.  ``u10`` sorts before ``u2``.
SORTED_UNITS = [(unit, unit) for unit in ("u1", "u10", "u2", "u3", "u4", "u5", "u9")] + [
    (" u1 ", "u1"),
    ('"u1"', "u1"),
    (" u2\t", "u2"),
    ('"u,8"', "u,8"),
]
#: Odd spellings: a blank unit, a quoted CR, and a NUL that ``csv`` refuses.
ODD_UNITS = [("", ""), ('"u1\r"', "u1"), ("u\x001", "u\x001")]


@st.composite
def sorted_text(
    draw, header: str, units, cells: list[st.SearchStrategy[str]], fixed: list, extra: list[str]
) -> str:
    """A CSV file of up to 40 rows of a drawn (spelling, unit id) of
    ``units`` and drawn ``cells``, and the ``fixed`` rows of that shape, in
    stable order of unit id; with the ``extra`` rows and blank lines at
    drawn places, a drawn newline and an optional byte-order mark."""
    size = draw(st.integers(0, 40))
    rows = draw(st.lists(st.tuples(units, *cells), min_size=size, max_size=size)) + fixed
    lines = [",".join([spelling, *row]) for (spelling, _), *row in sorted(rows, key=unit_id)]
    for line in extra + [""] * draw(st.integers(0, 2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    end = newline if draw(st.booleans()) else ""
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + header + newline + newline.join(lines) + end


def unit_id(row: tuple) -> str:
    return row[0][1]


class TestSortedLaneMatchesTheRowJoin:
    """The join of unit-sorted files against the reference join, on drawn
    files with adjacent duplicate predictions, blank ones, rows of other
    days and out-of-window sales at drawn places, the odd cells of the
    split-lane properties and, in some files, one row moved out of order.
    Small blocks put runs of duplicates across block edges."""

    @settings(max_examples=200, deadline=None, phases=NO_SHRINK)
    @given(
        block_rows=st.sampled_from([1, 2, 3, 5, _BLOCK_ROWS]),
        odd=st.booleans(),
        moved=st.sampled_from([None, "pred", "sales"]),
        drawn=st.data(),
    )
    def test_assemble_velocity_pairs(self, block_rows, odd, moved, drawn) -> None:
        units = st.sampled_from(SORTED_UNITS * 6 + (ODD_UNITS if odd else []))
        # Only odd files hold bad cells: the odd ones, the switch cells that
        # do not parse, and a blank sale in the window.
        odd_cells = ODD_CELLS + ['"1,5"', '"2\r8"', ""] if odd else []
        switch = [cell for cell in SWITCH_CELLS if cell not in ('"1,5"', '"2\r8"')]
        prediction = st.sampled_from(PLAIN_CELLS * 12 + switch + odd_cells)
        sold = st.sampled_from([cell for cell in PLAIN_CELLS if cell] * 12 + switch + odd_cells)
        texts = {
            "pred": drawn.draw(
                sorted_text(
                    PREDICTION_HEADER.rstrip("\n"),
                    units,
                    [
                        st.sampled_from([TARGET] * 6 + [f" {TARGET} "]),
                        prediction,
                        prediction,
                    ],
                    [],
                    [f"u{i},2022-03-19,{i}" for i in range(3)] + ["u5,,1"],
                )
            ),
            "sales": drawn.draw(
                sorted_text(
                    SALES_HEADER.rstrip("\n"),
                    units,
                    [st.sampled_from(WINDOW_DAYS * 4 + [f"{TARGET}\t"]), sold],
                    [(("filler", "filler"), day, "0") for day in WINDOW_DAYS],
                    ["u1,2022-03-19,abc", "u2,2022-03-27,-5", "u3,x,inf", "u4,2022-03-27,"],
                )
            ),
        }
        if moved:
            header, *lines = texts[moved].split("\n")
            line = lines.pop(drawn.draw(st.integers(0, len(lines) - 1)))
            lines.insert(drawn.draw(st.integers(0, len(lines))), line)
            texts[moved] = "\n".join([header, *lines])
        with tempfile.TemporaryDirectory() as folder, field_limit(FIELD_LIMIT):
            paths = {name: Path(folder) / f"{name}.csv" for name in texts}
            for name, text in texts.items():
                paths[name].write_text(text, encoding="utf-8", newline="")
            pred = open_dataset(paths["pred"], "daily_inference")
            sales = open_dataset(paths["sales"], "daily_sales")
            expected = outcome(lambda: reference_assemble(pred, sales, date(2022, 3, 20)))
            expected = as_raised(expected, paths["pred"], paths["sales"])
            for forked in (False, True):
                with mock.patch("driftmon.data._BLOCK_ROWS", block_rows), mock.patch(
                    "driftmon.data._index", wraps=data._index
                ) as index, sales_worker(forked):
                    got = outcome(lambda: assemble_velocity_pairs(pred, sales, date(2022, 3, 20)))
                assert bits(got) == bits(expected), f"forked {forked}"
                # A worker that replied whole leaves the parent no sales to
                # index; one that met a bad sale is rerun in-process.
                if moved is None or (moved == "sales" and forked and got[0] == "ok"):
                    assert index.call_count == 0, "sorted files indexed every unit"


class TestSynthSpec:
    def test_field_validation(self) -> None:
        with pytest.raises(ValidationError, match="n_units"):
            SynthSpec(n_units=0)
        with pytest.raises(ValidationError, match="density"):
            SynthSpec(n_units=10, density=0.0)
        with pytest.raises(ValidationError, match="density"):
            SynthSpec(n_units=10, density=1.5)
        with pytest.raises(ValidationError, match="n_features"):
            SynthSpec(n_units=10, n_features=0)
        with pytest.raises(ValidationError, match="scale_factor"):
            SynthSpec(n_units=10, scale_factor=0.0)
        for shift in (float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="location_shift"):
                SynthSpec(n_units=10, location_shift=shift)
        SynthSpec(n_units=10, density=1.0)


class TestGenerateSynthetic:
    def test_prediction_rows_match_a_csv_writer_byte_for_byte(self, tmp_path: Path) -> None:
        """The writer formats rows itself; csv.writer is the reference."""
        predictions = np.array([0.0, -0.0, 1e-300, 1e300, -2.5, 0.1])
        features = np.array(
            [
                [-1.0, 3.0], [0.0, -0.0], [1e300, -1e-300],
                [-7.25, 1e-5], [2.0**-1074, -1e16], [1.0, 0.3],
            ]
        )
        units = [f"u{i:04d}" for i in range(len(predictions))]
        path = tmp_path / "p.csv"
        synth._write_prediction_file(path, units, date(2022, 3, 7), predictions, features)

        reference = io.StringIO(newline="")
        writer = csv.writer(reference, lineterminator="\n")
        writer.writerow(["unit_id", "eval_date", "prediction", "f1", "f2"])
        writer.writerows(
            [unit, "2022-03-07", repr(p), *map(repr, row)]
            for unit, p, row in zip(units, predictions.tolist(), features.tolist())
        )
        assert path.read_bytes() == reference.getvalue().encode("utf-8")

    def test_same_seed_gives_byte_identical_files(self, tmp_path: Path) -> None:
        spec = SynthSpec(n_units=200, seed=42)
        first = generate_synthetic(spec, tmp_path / "a")
        second = generate_synthetic(spec, tmp_path / "b")
        for h1, h2 in zip(first, second):
            assert h1.path.read_bytes() == h2.path.read_bytes()

    def test_different_seeds_differ(self, tmp_path: Path) -> None:
        a = generate_synthetic(SynthSpec(n_units=50, seed=1), tmp_path / "a")
        b = generate_synthetic(SynthSpec(n_units=50, seed=2), tmp_path / "b")
        assert a[0].path.read_bytes() != b[0].path.read_bytes()

    def test_full_density_covers_every_unit(self, tmp_path: Path) -> None:
        _, _, sales = generate_synthetic(
            SynthSpec(n_units=100, density=1.0, seed=3), tmp_path / "d"
        )
        units = set()
        with sales.path.open(encoding="utf-8") as stream:
            next(stream)
            for line in stream:
                units.add(line.split(",")[0])
        assert len(units) == 100

    def test_declared_schemas(self, tmp_path: Path) -> None:
        train, infer, sales = generate_synthetic(
            SynthSpec(n_units=10, n_features=4, seed=5), tmp_path / "s"
        )
        assert train.columns == ("unit_id", "eval_date", "prediction", "f1", "f2", "f3", "f4")
        assert infer.columns == train.columns
        assert sales.columns == ("unit_id", "date", "units")
        assert train.kind is DatasetKind.TRAINING
        assert infer.kind is DatasetKind.DAILY_INFERENCE
        assert sales.kind is DatasetKind.DAILY_SALES

    def test_row_counts_match_spec(self, tmp_path: Path) -> None:
        train, infer, _ = generate_synthetic(SynthSpec(n_units=77, seed=6), tmp_path / "r")
        for handle in (train, infer):
            with handle.path.open(encoding="utf-8") as stream:
                assert sum(1 for _ in stream) == 78  # header + one row per unit

    def test_predictions_are_non_negative(self, tmp_path: Path) -> None:
        train, infer, _ = generate_synthetic(SynthSpec(n_units=500, seed=7), tmp_path / "p")
        for handle in (train, infer):
            assert all(
                v >= 0.0 for (values,) in read_columns(handle, ["prediction"]) for v in values
            )

    def test_unshifted_features_rarely_flag_drift(self, tmp_path: Path) -> None:
        """Calibration: with no injected shift, the drifted-feature test
        stays below the 5 percent critical distance in at least 90 percent
        of seeded trials at N = 10k."""
        critical = ks_critical_distance(0.05, 10_000, 10_000)
        below = 0
        seeds = range(20)
        for seed in seeds:
            train, infer, _ = generate_synthetic(
                SynthSpec(n_units=10_000, seed=seed), tmp_path / f"cal{seed}"
            )
            result = drift_evaluate(summarize_column(train, "f1"), summarize_column(infer, "f1"))
            below += result["ks_distance"] < critical
        assert below >= 0.9 * len(seeds)

    def test_injected_shift_raises_distance_and_lowers_overlap(self, tmp_path: Path) -> None:
        base_train, _, _ = generate_synthetic(
            SynthSpec(n_units=4000, seed=11), tmp_path / "shift0"
        )
        baseline = summarize_column(base_train, "f1")
        distances, overlaps = [], []
        for shift in (0.0, 1.0, 2.0):
            _, infer, _ = generate_synthetic(
                SynthSpec(n_units=4000, location_shift=shift, seed=11),
                tmp_path / f"shift{shift}",
            )
            result = drift_evaluate(baseline, summarize_column(infer, "f1"))
            distances.append(result["ks_distance"])
            overlaps.append(result["bhattacharyya_coefficient"])
        assert distances == sorted(distances)
        assert overlaps == sorted(overlaps, reverse=True)
