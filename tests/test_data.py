"""Tests for file ingestion, velocity-pair assembly, and the synthetic
data generator."""

from __future__ import annotations

import logging
from datetime import date
from pathlib import Path

import pytest

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
    open_dataset,
    read_columns,
)
from driftmon.data import _BLOCK_ROWS

PREDICTION_HEADER = "unit_id,eval_date,prediction,f1\n"
SALES_HEADER = "unit_id,date,units\n"


def write_csv(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def sales_rows(day_units: dict[str, list[tuple[str, float]]]) -> str:
    lines = [SALES_HEADER.rstrip("\n")]
    for day, entries in day_units.items():
        for unit, units in entries:
            lines.append(f"{unit},{day},{units}")
    return "\n".join(lines) + "\n"


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
        pairs, excluded = assemble_velocity_pairs(pred, sales, self.FORECAST)
        assert excluded == 0
        assert pairs == {"u1": (1.0, 1.0)}

    def test_steady_sales_of_seven_a_day_mean_velocity_seven(self, tmp_path: Path) -> None:
        pred, sales = self.handles(
            tmp_path,
            PREDICTION_HEADER + "u1,2022-03-20,1.0,0.0\n",
            self.full_window({day: [("u1", 7.0)] for day in self.WINDOW}),
        )
        pairs, _ = assemble_velocity_pairs(pred, sales, self.FORECAST)
        assert pairs == {"u1": (1.0, 7.0)}

    def test_unit_without_sales_rows_has_zero_velocity(self, tmp_path: Path) -> None:
        pred, sales = self.handles(
            tmp_path,
            PREDICTION_HEADER + "u1,2022-03-20,2.5,0.0\n",
            self.full_window(),
        )
        pairs, _ = assemble_velocity_pairs(pred, sales, self.FORECAST)
        assert pairs == {"u1": (2.5, 0.0)}

    def test_duplicate_unit_day_sales_are_summed(self, tmp_path: Path) -> None:
        pred, sales = self.handles(
            tmp_path,
            PREDICTION_HEADER + "u1,2022-03-20,1.0,0.0\n",
            self.full_window({"2022-03-21": [("u1", 3.0), ("u1", 4.0)]}),
        )
        pairs, _ = assemble_velocity_pairs(pred, sales, self.FORECAST)
        assert pairs["u1"][1] == 1.0

    def test_sales_outside_window_are_ignored(self, tmp_path: Path) -> None:
        sales_text = self.full_window({"2022-03-20": [("u1", 7.0)]})
        sales_text += "u1,2022-03-19,100\nu1,2022-03-27,100\n"
        pred, sales = self.handles(
            tmp_path, PREDICTION_HEADER + "u1,2022-03-20,1.0,0.0\n", sales_text
        )
        pairs, _ = assemble_velocity_pairs(pred, sales, self.FORECAST)
        assert pairs["u1"][1] == 1.0

    def test_blank_predictions_are_excluded_and_counted(self, tmp_path: Path) -> None:
        pred, sales = self.handles(
            tmp_path,
            PREDICTION_HEADER
            + "u1,2022-03-20,1.0,0.0\nu2,2022-03-20,,0.0\nu3,2022-03-20,2.0,0.0\n",
            self.full_window(),
        )
        pairs, excluded = assemble_velocity_pairs(pred, sales, self.FORECAST)
        assert excluded == 1
        assert list(pairs) == ["u1", "u3"]

    def test_duplicate_prediction_rows_keep_the_last(self, tmp_path: Path) -> None:
        pred, sales = self.handles(
            tmp_path,
            PREDICTION_HEADER + "u1,2022-03-20,,0.0\nu1,2022-03-20,4.0,0.0\n",
            self.full_window(),
        )
        pairs, excluded = assemble_velocity_pairs(pred, sales, self.FORECAST)
        assert excluded == 0
        assert pairs["u1"][0] == 4.0

    def test_output_is_sorted_by_unit_id(self, tmp_path: Path) -> None:
        pred, sales = self.handles(
            tmp_path,
            PREDICTION_HEADER
            + "zz,2022-03-20,1.0,0.0\naa,2022-03-20,1.0,0.0\nmm,2022-03-20,1.0,0.0\n",
            self.full_window(),
        )
        pairs, _ = assemble_velocity_pairs(pred, sales, self.FORECAST)
        assert list(pairs) == ["aa", "mm", "zz"]

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

    def test_handle_kinds_are_enforced(self, tmp_path: Path) -> None:
        pred, sales = self.handles(
            tmp_path, PREDICTION_HEADER + "u1,2022-03-20,1.0,0.0\n", self.full_window()
        )
        with pytest.raises(ValidationError, match="predictions handle"):
            assemble_velocity_pairs(sales, sales, self.FORECAST)
        with pytest.raises(ValidationError, match="sales handle"):
            assemble_velocity_pairs(pred, pred, self.FORECAST)


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
