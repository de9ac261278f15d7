"""Tests for the monitoring lifecycle: models, monitors, metrics,
reactions, and logs over the document store."""

from __future__ import annotations

from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

from driftmon import (
    FileStore,
    LogRecord,
    MetricRecord,
    MonitorConfig,
    MonitorKind,
    MonitoringService,
    NotFoundError,
    PreconditionError,
    QuantileSketch,
    ReactionConfig,
    ReactionKind,
    SchemaError,
    Severity,
    StoreKey,
    ValidationError,
    build_cdf,
    drift_evaluate,
    dumps_doc,
    loads_doc,
    open_dataset,
    read_columns,
)
from driftmon.core import stride_sample
from driftmon.data import _BLOCK_ROWS

FORECAST = date(2022, 3, 20)


@pytest.fixture
def store(tmp_path: Path) -> FileStore:
    return FileStore(tmp_path / "store")


@pytest.fixture
def service(store: FileStore) -> MonitoringService:
    return MonitoringService(store)


def write_predictions(path: Path, values, *, eval_date: str = "2022-03-20") -> Path:
    """Prediction/feature file with prediction == f1 == the given values."""
    lines = ["unit_id,eval_date,prediction,f1"]
    for i, v in enumerate(values):
        cell = repr(float(v))
        lines.append(f"u{i:03d},{eval_date},{cell},{cell}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_sales(path: Path, per_unit_daily: dict[str, float]) -> Path:
    """Sales covering the 7-day window with constant units/day per unit."""
    lines = ["unit_id,date,units"]
    for offset in range(7):
        day = (FORECAST + timedelta(days=offset)).isoformat()
        for unit, units in per_unit_daily.items():
            lines.append(f"{unit},{day},{units!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def drift_setup(service: MonitoringService, tmp_path: Path):
    """A registered model with a snapshotted drift monitor on f1."""
    rng = np.random.default_rng(0)
    train = write_predictions(tmp_path / "train.csv", rng.lognormal(0, 1, 300), eval_date="2022-03-07")
    service.register_model("m1")
    service.set_monitor(
        MonitorConfig("d1", "m1", MonitorKind.DRIFT, ("f1",), epsilon=0.01, cdf_points=20)
    )
    service.snapshot_baseline("m1", "d1", open_dataset(train, "training"))
    return train


class TestModelRegistry:
    def test_register_round_trips_through_the_store(
        self, service: MonitoringService, store: FileStore
    ) -> None:
        registration = service.register_model("prod-forecaster", description="demand model")
        assert registration.model_id == "prod-forecaster"
        assert registration.created_at.tzinfo is not None
        body = store.get(StoreKey.of("model", "prod-forecaster"))
        assert loads_doc(body)["description"] == "demand model"

    def test_model_id_charset_is_enforced(self, service: MonitoringService) -> None:
        for bad in ("bad id", "a/b", ""):
            with pytest.raises(ValidationError, match="model_id"):
                service.register_model(bad)


class TestMonitorConfig:
    def test_set_get_round_trip(self, service: MonitoringService) -> None:
        service.register_model("m1")
        config = MonitorConfig(
            "d1", "m1", MonitorKind.DRIFT, ("f1", "prediction"), epsilon=0.005, cdf_points=50
        )
        service.set_monitor(config)
        assert service.get_monitor("m1", "d1") == config

    def test_unknown_monitor_is_not_found(self, service: MonitoringService) -> None:
        service.register_model("m1")
        with pytest.raises(NotFoundError, match="monitor 'nope'"):
            service.get_monitor("m1", "nope")

    def test_set_requires_registered_model(self, service: MonitoringService) -> None:
        with pytest.raises(NotFoundError, match="not registered"):
            service.set_monitor(MonitorConfig("d1", "ghost", MonitorKind.DRIFT, ("f1",)))

    def test_drift_monitor_needs_quantities(self) -> None:
        with pytest.raises(ValidationError, match="quantity"):
            MonitorConfig("d1", "m1", MonitorKind.DRIFT, ())
        with pytest.raises(ValidationError, match="performance monitor takes no quantities"):
            MonitorConfig("p1", "m1", MonitorKind.PERFORMANCE, ("f1",))

    def test_identifier_charset(self) -> None:
        with pytest.raises(ValidationError, match="monitor_id"):
            MonitorConfig("bad id", "m1", MonitorKind.DRIFT, ("f1",))
        for dots in (".", ".."):
            with pytest.raises(ValidationError, match="model_id"):
                MonitorConfig("d1", dots, MonitorKind.PERFORMANCE)

    def test_sketch_parameters_are_validated(self) -> None:
        with pytest.raises(ValidationError, match="epsilon"):
            MonitorConfig("d1", "m1", MonitorKind.DRIFT, ("f1",), epsilon=0.7)
        with pytest.raises(ValidationError, match="cdf_points"):
            MonitorConfig("d1", "m1", MonitorKind.DRIFT, ("f1",), cdf_points=0)
        with pytest.raises(ValidationError, match="density_bins"):
            MonitorConfig("d1", "m1", MonitorKind.DRIFT, ("f1",), density_bins=-1)


class TestSnapshotBaseline:
    def test_snapshot_returns_and_persists_one_summary_per_quantity(
        self, service: MonitoringService, store: FileStore, tmp_path: Path
    ) -> None:
        train = write_predictions(tmp_path / "t.csv", [1.0, 2.0, 3.0, 4.0], eval_date="2022-03-07")
        service.register_model("m1")
        service.set_monitor(
            MonitorConfig("d1", "m1", MonitorKind.DRIFT, ("f1", "prediction"), cdf_points=4)
        )
        summaries = service.snapshot_baseline("m1", "d1", open_dataset(train, "training"))
        assert [s.label for s in summaries] == ["f1", "prediction"]
        assert all(s.sample_count == 4 for s in summaries)
        keys = store.list(StoreKey.parse("model/m1/monitor/d1/baseline"))
        assert [k.render() for k in keys] == [
            "model/m1/monitor/d1/baseline/f1",
            "model/m1/monitor/d1/baseline/prediction",
        ]

    def test_snapshot_is_deterministic_for_identical_data(
        self, drift_setup: Path, service: MonitoringService, store: FileStore
    ) -> None:
        key = StoreKey.parse("model/m1/monitor/d1/baseline/f1")
        first = store.get(key)
        service.snapshot_baseline("m1", "d1", open_dataset(drift_setup, "training"))
        assert store.get(key) == first

    def test_performance_monitor_has_no_baseline(
        self, service: MonitoringService, tmp_path: Path
    ) -> None:
        train = write_predictions(tmp_path / "t.csv", [1.0, 2.0])
        service.register_model("m1")
        service.set_monitor(MonitorConfig("p1", "m1", MonitorKind.PERFORMANCE))
        with pytest.raises(PreconditionError, match="drift"):
            service.snapshot_baseline("m1", "p1", open_dataset(train, "training"))


    @staticmethod
    def write_columns(path: Path, cells: dict[str, list[str]]) -> Path:
        names = list(cells)
        lines = [",".join(["unit_id", "eval_date", *names])]
        for i, row in enumerate(zip(*cells.values())):
            lines.append(",".join([f"u{i}", "2022-03-07", *row]))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_chunked_reading_matches_a_sketch_fed_by_insert(
        self, service: MonitoringService, tmp_path: Path
    ) -> None:
        """Three blocks of rows and a remainder, with scattered blanks in f1
        and f2 blank for the whole second block."""
        rows = 3 * _BLOCK_ROWS + 77
        rng = np.random.default_rng(23)
        cells = {
            name: [repr(float(v)) for v in rng.normal(mean, 1.0, rows)]
            for name, mean in (("prediction", 3.0), ("f1", 0.0), ("f2", -5.0))
        }
        for i in rng.choice(rows, 150, replace=False):
            cells["f1"][i] = ""
        cells["f2"][_BLOCK_ROWS : 2 * _BLOCK_ROWS] = [""] * _BLOCK_ROWS
        train = self.write_columns(tmp_path / "t.csv", cells)
        service.register_model("m1")
        config = MonitorConfig("d1", "m1", MonitorKind.DRIFT, ("f1", "f2", "prediction"))
        service.set_monitor(config)
        summaries = service.snapshot_baseline("m1", "d1", open_dataset(train, "training"))
        expected = []
        for quantity in config.quantities:
            sketch = QuantileSketch(config.epsilon)
            sketch.extend([float(cell) for cell in cells[quantity] if cell])
            expected.append(build_cdf(sketch, config.cdf_points, quantity))
        assert [s.sample_count for s in summaries] == [rows - 150, rows - _BLOCK_ROWS, rows]
        assert summaries == expected

    def test_an_all_blank_column_holds_no_usable_values(
        self, service: MonitoringService, store: FileStore, tmp_path: Path
    ) -> None:
        rows = _BLOCK_ROWS + 5
        cells = {"prediction": ["1.0"] * rows, "f1": [""] * rows}
        train = self.write_columns(tmp_path / "t.csv", cells)
        service.register_model("m1")
        service.set_monitor(MonitorConfig("d1", "m1", MonitorKind.DRIFT, ("prediction", "f1")))
        with pytest.raises(PreconditionError, match="'f1' .* holds no usable values"):
            service.snapshot_baseline("m1", "d1", open_dataset(train, "training"))
        assert store.list(StoreKey.parse("model/m1/monitor/d1/baseline")) == []


class TestRunDriftMonitor:
    def test_run_before_snapshot_fails_and_writes_nothing(
        self, service: MonitoringService, store: FileStore, tmp_path: Path
    ) -> None:
        data = write_predictions(tmp_path / "t.csv", [1.0, 2.0, 3.0])
        service.register_model("m1")
        service.set_monitor(MonitorConfig("d1", "m1", MonitorKind.DRIFT, ("f1",), cdf_points=3))
        with pytest.raises(PreconditionError, match="baseline"):
            service.run_monitor("m1", "d1", FORECAST, open_dataset(data, "daily_inference"))
        assert store.list(StoreKey.parse("model/m1/monitor/d1/metrics")) == []

    def test_identity_run_reports_no_drift(
        self, drift_setup: Path, service: MonitoringService
    ) -> None:
        records = service.run_monitor(
            "m1", "d1", FORECAST, open_dataset(drift_setup, "daily_inference")
        )
        assert len(records) == 1
        record = records[0]
        assert record.quantity == "f1"
        assert record.metrics["ks_distance"] == 0.0
        assert record.metrics["ks_p_value"] == 1.0
        assert record.metrics["bhattacharyya_coefficient"] == 1.0
        assert record.context["n_baseline"] == 300
        assert record.context["n_current"] == 300
        assert "computed_at" in record.context

    def test_matches_direct_metric_composition(
        self, drift_setup: Path, service: MonitoringService, tmp_path: Path
    ) -> None:
        """The service produces exactly what the metric functions produce
        when fed summaries built with the monitor's parameters."""
        rng = np.random.default_rng(5)
        current = write_predictions(tmp_path / "cur.csv", rng.lognormal(0.3, 1, 300))
        records = service.run_monitor(
            "m1", "d1", FORECAST, open_dataset(current, "daily_inference")
        )

        def summarize(path: Path) -> object:
            sketch = QuantileSketch(0.01)
            blocks = read_columns(open_dataset(path, "daily_inference"), ["f1"])
            sketch.extend([v for (values,) in blocks for v in values])
            return build_cdf(sketch, 20, "f1")

        expected = drift_evaluate(summarize(drift_setup), summarize(current))
        assert records[0].metrics["ks_distance"] == expected["ks_distance"]
        assert records[0].metrics["ks_p_value"] == expected["ks_p_value"]
        assert records[0].metrics["bhattacharyya_coefficient"] == expected["bhattacharyya_coefficient"]

    def test_rerun_is_deterministic_modulo_computed_at(
        self, drift_setup: Path, service: MonitoringService, store: FileStore, tmp_path: Path
    ) -> None:
        current = write_predictions(
            tmp_path / "cur.csv", np.random.default_rng(9).lognormal(0, 1, 300)
        )
        handle = open_dataset(current, "daily_inference")
        service.run_monitor("m1", "d1", FORECAST, handle)
        key = StoreKey.parse("model/m1/monitor/d1/metrics/2022-03-20/f1")
        first = loads_doc(store.get(key))
        service.run_monitor("m1", "d1", FORECAST, handle)
        second = loads_doc(store.get(key))
        assert first["context"].pop("computed_at") is not None
        assert second["context"].pop("computed_at") is not None
        assert first == second

    def test_failure_on_one_quantity_writes_no_records_at_all(
        self, service: MonitoringService, store: FileStore, tmp_path: Path
    ) -> None:
        """Metric computation is all-or-nothing per run: a quantity that
        fails mid-run must not leave partial records behind."""
        train = tmp_path / "t.csv"
        train.write_text(
            "unit_id,eval_date,prediction,f1,f2\n"
            "u0,2022-03-07,1.0,1.0,1.0\n"
            "u1,2022-03-07,2.0,2.0,2.0\n",
            encoding="utf-8",
        )
        current = tmp_path / "c.csv"  # valid schema, but no f2 column
        current.write_text(
            "unit_id,eval_date,prediction,f1\n"
            "u0,2022-03-20,1.0,1.5\n"
            "u1,2022-03-20,2.0,2.5\n",
            encoding="utf-8",
        )
        service.register_model("m1")
        service.set_monitor(
            MonitorConfig("d1", "m1", MonitorKind.DRIFT, ("f1", "f2"), cdf_points=2)
        )
        service.snapshot_baseline("m1", "d1", open_dataset(train, "training"))
        with pytest.raises(SchemaError, match="f2"):
            service.run_monitor("m1", "d1", FORECAST, open_dataset(current, "daily_inference"))
        assert store.list(StoreKey.parse("model/m1/monitor/d1/metrics")) == []

    def test_snapshot_fails_cleanly_on_missing_column(
        self, service: MonitoringService, store: FileStore, tmp_path: Path
    ) -> None:
        train = write_predictions(tmp_path / "t.csv", [1.0, 2.0], eval_date="2022-03-07")
        service.register_model("m1")
        service.set_monitor(
            MonitorConfig("d1", "m1", MonitorKind.DRIFT, ("absent", "f1"), cdf_points=2)
        )
        with pytest.raises(SchemaError, match="absent"):
            service.snapshot_baseline("m1", "d1", open_dataset(train, "training"))
        assert store.list(StoreKey.parse("model/m1/monitor/d1/baseline")) == []


class TestRunPerformanceMonitor:
    def setup_perf(self, service: MonitoringService, tmp_path: Path):
        service.register_model("m1")
        service.set_monitor(MonitorConfig("p1", "m1", MonitorKind.PERFORMANCE))
        predictions = write_predictions(tmp_path / "pred.csv", [1.0, 2.0, 3.0])
        sales = write_sales(
            tmp_path / "sales.csv", {"u000": 1.0, "u001": 2.0, "u002": 3.0}
        )
        return (
            open_dataset(predictions, "daily_inference"),
            open_dataset(sales, "daily_sales"),
        )

    def test_perfect_forecast_scores_zero(
        self, service: MonitoringService, tmp_path: Path
    ) -> None:
        pred, sales = self.setup_perf(service, tmp_path)
        records = service.run_monitor("m1", "p1", FORECAST, pred, sales)
        assert len(records) == 1
        record = records[0]
        assert record.quantity == "velocity"
        assert record.metrics == {"mae": 0.0, "wmape": 0.0}
        assert record.context["n"] == 3
        assert record.context["n_excluded"] == 0

    def test_sales_handle_is_required(
        self, service: MonitoringService, tmp_path: Path
    ) -> None:
        pred, _ = self.setup_perf(service, tmp_path)
        with pytest.raises(ValidationError, match="sales"):
            service.run_monitor("m1", "p1", FORECAST, pred)

    def test_day_without_predictions_writes_nothing(
        self, service: MonitoringService, store: FileStore, tmp_path: Path
    ) -> None:
        _, sales = self.setup_perf(service, tmp_path)
        other_day = write_predictions(tmp_path / "other.csv", [1.0], eval_date="2022-03-19")
        with pytest.raises(PreconditionError, match="no predictions found for 2022-03-20"):
            service.run_monitor(
                "m1", "p1", FORECAST, open_dataset(other_day, "daily_inference"), sales
            )
        assert store.list(StoreKey.parse("model/m1/monitor/p1/metrics")) == []

    def test_known_error_values(self, service: MonitoringService, tmp_path: Path) -> None:
        """Predictions one unit above constant velocities: MAE is exactly 1
        and the weighted percentage error follows the +1 denominators."""
        service.register_model("m1")
        service.set_monitor(MonitorConfig("p1", "m1", MonitorKind.PERFORMANCE))
        predictions = write_predictions(tmp_path / "pred.csv", [2.0, 3.0])
        sales = write_sales(tmp_path / "sales.csv", {"u000": 1.0, "u001": 2.0})
        records = service.run_monitor(
            "m1",
            "p1",
            FORECAST,
            open_dataset(predictions, "daily_inference"),
            open_dataset(sales, "daily_sales"),
        )
        assert records[0].metrics["mae"] == pytest.approx(1.0, abs=1e-12)
        # per-pair terms: 1/2 and 1/3, mean 5/12, times 100
        assert records[0].metrics["wmape"] == pytest.approx(500.0 / 12.0, abs=1e-9)

    def test_blank_predictions_are_counted_not_dropped_silently(
        self, service: MonitoringService, tmp_path: Path
    ) -> None:
        service.register_model("m1")
        service.set_monitor(MonitorConfig("p1", "m1", MonitorKind.PERFORMANCE))
        path = tmp_path / "pred.csv"
        path.write_text(
            "unit_id,eval_date,prediction,f1\n"
            "u000,2022-03-20,1.0,0.0\n"
            "u001,2022-03-20,,0.0\n",
            encoding="utf-8",
        )
        sales = write_sales(tmp_path / "sales.csv", {"u000": 1.0})
        records = service.run_monitor(
            "m1",
            "p1",
            FORECAST,
            open_dataset(path, "daily_inference"),
            open_dataset(sales, "daily_sales"),
        )
        assert records[0].context["n"] == 1
        assert records[0].context["n_excluded"] == 1

    def test_incomplete_window_writes_nothing(
        self, service: MonitoringService, store: FileStore, tmp_path: Path
    ) -> None:
        service.register_model("m1")
        service.set_monitor(MonitorConfig("p1", "m1", MonitorKind.PERFORMANCE))
        predictions = write_predictions(tmp_path / "pred.csv", [1.0])
        sales = tmp_path / "sales.csv"
        sales.write_text("unit_id,date,units\nu000,2022-03-20,1.0\n", encoding="utf-8")
        with pytest.raises(PreconditionError, match="2022-03-21"):
            service.run_monitor(
                "m1",
                "p1",
                FORECAST,
                open_dataset(predictions, "daily_inference"),
                open_dataset(sales, "daily_sales"),
            )
        assert store.list(StoreKey.parse("model/m1/monitor/p1/metrics")) == []


class TestGetMetrics:
    def seed_metrics(self, service: MonitoringService, drift_setup: Path, tmp_path: Path) -> None:
        rng = np.random.default_rng(2)
        for offset in range(3):
            day = FORECAST + timedelta(days=offset)
            current = write_predictions(
                tmp_path / f"cur{offset}.csv", rng.lognormal(0.1 * offset, 1, 300)
            )
            service.run_monitor("m1", "d1", day, open_dataset(current, "daily_inference"))

    def test_range_is_inclusive_and_sorted(
        self, drift_setup: Path, service: MonitoringService, tmp_path: Path
    ) -> None:
        self.seed_metrics(service, drift_setup, tmp_path)
        records = service.get_metrics("m1", "d1", FORECAST, FORECAST + timedelta(days=2))
        assert [r.eval_date for r in records] == [
            FORECAST,
            FORECAST + timedelta(days=1),
            FORECAST + timedelta(days=2),
        ]
        partial = service.get_metrics(
            "m1", "d1", FORECAST + timedelta(days=1), FORECAST + timedelta(days=1)
        )
        assert len(partial) == 1

    def test_sorts_by_date_then_quantity(
        self, service: MonitoringService, tmp_path: Path
    ) -> None:
        rng = np.random.default_rng(0)
        train = write_predictions(tmp_path / "t.csv", rng.lognormal(0, 1, 100), eval_date="2022-03-07")
        service.register_model("m1")
        service.set_monitor(
            MonitorConfig("d1", "m1", MonitorKind.DRIFT, ("prediction", "f1"), cdf_points=10)
        )
        service.snapshot_baseline("m1", "d1", open_dataset(train, "training"))
        service.run_monitor("m1", "d1", FORECAST, open_dataset(train, "daily_inference"))
        records = service.get_metrics("m1", "d1", FORECAST, FORECAST)
        assert [r.quantity for r in records] == ["f1", "prediction"]

    def test_reversed_range_is_rejected(self, service: MonitoringService) -> None:
        with pytest.raises(ValidationError, match="reversed"):
            service.get_metrics("m1", "d1", FORECAST, FORECAST - timedelta(days=1))

    def test_unknown_monitor_yields_empty(self, service: MonitoringService) -> None:
        assert service.get_metrics("mx", "dx", FORECAST, FORECAST) == []


class TestReactions:
    @pytest.fixture
    def with_metrics(self, drift_setup: Path, service: MonitoringService, tmp_path: Path):
        rng = np.random.default_rng(3)
        shifted = write_predictions(tmp_path / "cur.csv", rng.lognormal(1.2, 1, 300))
        service.run_monitor("m1", "d1", FORECAST, open_dataset(shifted, "daily_inference"))
        return service.get_metrics("m1", "d1", FORECAST, FORECAST)

    def test_set_requires_existing_model_and_monitor(self, service: MonitoringService) -> None:
        config = ReactionConfig(
            "r1", "m1", ReactionKind.THRESHOLD, "d1",
            metric_name="ks_distance", comparator=">", threshold=0.1,
        )
        with pytest.raises(NotFoundError, match="not registered"):
            service.set_reaction(config)
        service.register_model("m1")
        with pytest.raises(NotFoundError, match="monitor"):
            service.set_reaction(config)

    @pytest.mark.parametrize(
        "kind,fields,message",
        [
            (ReactionKind.THRESHOLD, {"comparator": ">", "threshold": 0.1}, "metric_name"),
            (
                ReactionKind.THRESHOLD,
                {"metric_name": "ks_distance", "comparator": "!=", "threshold": 0.1},
                "comparator must be one of",
            ),
            (
                ReactionKind.THRESHOLD,
                {"metric_name": "ks_distance", "comparator": ">", "threshold": float("nan")},
                "finite threshold",
            ),
            (
                ReactionKind.REPORT,
                {"date_from": date(2022, 3, 20), "sample_size": 5},
                "date_from and date_to",
            ),
            (
                ReactionKind.REPORT,
                {"date_from": date(2022, 3, 27), "date_to": date(2022, 3, 20), "sample_size": 5},
                "reversed",
            ),
            (
                ReactionKind.REPORT,
                {"date_from": date(2022, 3, 20), "date_to": date(2022, 3, 27), "sample_size": 1},
                "sample_size >= 2",
            ),
        ],
    )
    def test_config_is_validated_per_kind(
        self, kind: ReactionKind, fields: dict, message: str
    ) -> None:
        with pytest.raises(ValidationError, match=message):
            ReactionConfig("r1", "m1", kind, "d1", **fields)

    def test_round_trip(self, drift_setup: Path, service: MonitoringService) -> None:
        config = ReactionConfig(
            "r1", "m1", ReactionKind.THRESHOLD, "d1",
            metric_name="ks_distance", comparator=">=", threshold=0.25,
        )
        service.set_reaction(config)
        assert service.get_reaction("m1", "r1") == config
        with pytest.raises(NotFoundError, match="reaction"):
            service.get_reaction("m1", "nope")

    def test_threshold_fires_with_alert_severity(
        self, with_metrics, service: MonitoringService
    ) -> None:
        service.set_reaction(
            ReactionConfig(
                "r1", "m1", ReactionKind.THRESHOLD, "d1",
                metric_name="ks_distance", comparator=">", threshold=0.05,
            )
        )
        logs = service.run_reaction("m1", "r1", FORECAST)
        assert len(logs) == 1
        log = logs[0]
        assert log.severity is Severity.ALERT
        assert log.body["fired"] is True
        assert log.body["metric"] == "ks_distance"
        assert log.body["comparator"] == ">"
        assert log.body["eval_date"] == FORECAST.isoformat()
        assert log.body["values"]["f1"] > 0.05

    def test_threshold_stays_quiet_below_the_line(
        self, with_metrics, service: MonitoringService
    ) -> None:
        service.set_reaction(
            ReactionConfig(
                "r1", "m1", ReactionKind.THRESHOLD, "d1",
                metric_name="ks_distance", comparator=">", threshold=0.99,
            )
        )
        logs = service.run_reaction("m1", "r1", FORECAST)
        assert logs[0].severity is Severity.INFO
        assert logs[0].body["fired"] is False

    def test_threshold_uses_latest_metrics_at_or_before_as_of(
        self, drift_setup: Path, service: MonitoringService, tmp_path: Path
    ) -> None:
        rng = np.random.default_rng(4)
        for offset in (0, 2):
            current = write_predictions(
                tmp_path / f"c{offset}.csv", rng.lognormal(0.5 * offset, 1, 300)
            )
            service.run_monitor(
                "m1", "d1", FORECAST + timedelta(days=offset),
                open_dataset(current, "daily_inference"),
            )
        service.set_reaction(
            ReactionConfig(
                "r1", "m1", ReactionKind.THRESHOLD, "d1",
                metric_name="ks_distance", comparator=">=", threshold=0.0,
            )
        )
        logs = service.run_reaction("m1", "r1", FORECAST + timedelta(days=1))
        assert logs[0].body["eval_date"] == FORECAST.isoformat()
        logs = service.run_reaction("m1", "r1", FORECAST + timedelta(days=5))
        assert logs[0].body["eval_date"] == (FORECAST + timedelta(days=2)).isoformat()

    def test_threshold_without_metrics_fails_and_logs_nothing(
        self, drift_setup: Path, service: MonitoringService
    ) -> None:
        service.set_reaction(
            ReactionConfig(
                "r1", "m1", ReactionKind.THRESHOLD, "d1",
                metric_name="ks_distance", comparator=">", threshold=0.1,
            )
        )
        with pytest.raises(PreconditionError, match="no 'ks_distance' metrics"):
            service.run_reaction("m1", "r1", FORECAST - timedelta(days=1))
        assert service.get_logs("m1", "r1") == []

    def test_report_without_metrics_fails_and_logs_nothing(
        self, with_metrics, service: MonitoringService
    ) -> None:
        service.set_reaction(
            ReactionConfig(
                "rep", "m1", ReactionKind.REPORT, "d1",
                date_from=date(2022, 3, 1), date_to=date(2022, 3, 19), sample_size=5,
            )
        )
        with pytest.raises(PreconditionError, match=r"no metrics in \[2022-03-01, 2022-03-19\]"):
            service.run_reaction("m1", "rep", FORECAST)
        assert service.get_logs("m1", "rep") == []

    def test_report_builds_stride_sampled_series(
        self, drift_setup: Path, service: MonitoringService, tmp_path: Path
    ) -> None:
        rng = np.random.default_rng(6)
        for offset in range(10):
            current = write_predictions(
                tmp_path / f"c{offset}.csv", rng.lognormal(0.05 * offset, 1, 300)
            )
            service.run_monitor(
                "m1", "d1", FORECAST + timedelta(days=offset),
                open_dataset(current, "daily_inference"),
            )
        service.set_reaction(
            ReactionConfig(
                "rep", "m1", ReactionKind.REPORT, "d1",
                date_from=FORECAST, date_to=FORECAST + timedelta(days=9), sample_size=5,
            )
        )
        logs = service.run_reaction("m1", "rep", FORECAST + timedelta(days=9))
        body = logs[0].body
        assert body["date_from"] == FORECAST.isoformat()
        assert body["sample_size"] == 5
        series = body["series"]
        assert {(s["quantity"], s["metric"]) for s in series} == {
            ("f1", "bhattacharyya_coefficient"),
            ("f1", "ks_distance"),
            ("f1", "ks_p_value"),
        }
        for entry in series:
            dates = [point_date for point_date, _ in entry["points"]]
            # the 10-to-5 stride keeps indices 0, 2, 4, 7, 9
            expected = [
                (FORECAST + timedelta(days=i)).isoformat() for i in (0, 2, 4, 7, 9)
            ]
            assert dates == expected
            assert all(isinstance(value, float) for _, value in entry["points"])

    def test_reaction_runs_never_touch_metrics(
        self, with_metrics, service: MonitoringService, store: FileStore
    ) -> None:
        prefix = StoreKey.parse("model/m1/monitor/d1/metrics")
        before = {k.render(): store.get(k) for k in store.list(prefix)}
        service.set_reaction(
            ReactionConfig(
                "r1", "m1", ReactionKind.THRESHOLD, "d1",
                metric_name="ks_distance", comparator=">", threshold=0.05,
            )
        )
        service.run_reaction("m1", "r1", FORECAST)
        after = {k.render(): store.get(k) for k in store.list(prefix)}
        assert after == before

    def test_monitor_runs_never_create_logs(
        self, with_metrics, service: MonitoringService, store: FileStore
    ) -> None:
        assert [
            k.render() for k in store.list(StoreKey.of("model", "m1")) if "/log/" in k.render()
        ] == []


class TestGetLogs:
    @pytest.fixture
    def logged(self, drift_setup: Path, service: MonitoringService, tmp_path: Path):
        current = write_predictions(
            tmp_path / "cur.csv", np.random.default_rng(7).lognormal(0, 1, 300)
        )
        service.run_monitor("m1", "d1", FORECAST, open_dataset(current, "daily_inference"))
        service.set_reaction(
            ReactionConfig(
                "r1", "m1", ReactionKind.THRESHOLD, "d1",
                metric_name="ks_distance", comparator=">=", threshold=0.0,
            )
        )
        return [service.run_reaction("m1", "r1", FORECAST)[0] for _ in range(3)]

    def test_round_trip_and_order(self, logged, service: MonitoringService) -> None:
        logs = service.get_logs("m1", "r1")
        assert len(logs) == 3
        stamps = [log.created_at for log in logs]
        assert stamps == sorted(stamps)
        assert logs == sorted(logged, key=lambda l: l.created_at)

    def test_timestamp_range_filters_inclusively(self, logged, service: MonitoringService) -> None:
        middle = sorted(log.created_at for log in logged)[1]
        subset = service.get_logs("m1", "r1", from_ts=middle, to_ts=middle)
        assert [log.created_at for log in subset] == [middle]

    def test_reversed_range_is_rejected(self, logged, service: MonitoringService) -> None:
        early = datetime(2022, 1, 1, tzinfo=timezone.utc)
        late = datetime(2023, 1, 1, tzinfo=timezone.utc)
        with pytest.raises(ValidationError, match="reversed"):
            service.get_logs("m1", "r1", from_ts=late, to_ts=early)

    def test_unknown_reaction_yields_empty(self, service: MonitoringService) -> None:
        assert service.get_logs("mx", "rx") == []


class TestDelete:
    @pytest.fixture
    def populated(self, drift_setup: Path, service: MonitoringService, tmp_path: Path):
        current = write_predictions(
            tmp_path / "cur.csv", np.random.default_rng(8).lognormal(0, 1, 300)
        )
        service.run_monitor("m1", "d1", FORECAST, open_dataset(current, "daily_inference"))
        service.set_reaction(
            ReactionConfig(
                "r1", "m1", ReactionKind.THRESHOLD, "d1",
                metric_name="ks_distance", comparator=">=", threshold=0.0,
            )
        )
        service.run_reaction("m1", "r1", FORECAST)
        return service

    def test_deleting_a_monitor_keeps_its_metrics(
        self, populated: MonitoringService, store: FileStore
    ) -> None:
        removed = populated.delete("monitor", model_id="m1", monitor_id="d1")
        assert removed == 2  # config + one baseline summary
        with pytest.raises(NotFoundError):
            populated.get_monitor("m1", "d1")
        assert len(populated.get_metrics("m1", "d1", FORECAST, FORECAST)) == 1

    def test_deleting_metrics_keeps_the_monitor(
        self, populated: MonitoringService
    ) -> None:
        removed = populated.delete("metrics", model_id="m1", monitor_id="d1")
        assert removed == 1
        assert populated.get_metrics("m1", "d1", FORECAST, FORECAST) == []
        assert populated.get_monitor("m1", "d1").monitor_id == "d1"

    def test_deleting_a_reaction_keeps_its_logs(
        self, populated: MonitoringService
    ) -> None:
        removed = populated.delete("reaction", model_id="m1", reaction_id="r1")
        assert removed == 1
        with pytest.raises(NotFoundError):
            populated.get_reaction("m1", "r1")
        assert len(populated.get_logs("m1", "r1")) == 1

    def test_deleting_logs_keeps_the_reaction(
        self, populated: MonitoringService
    ) -> None:
        removed = populated.delete("logs", model_id="m1", reaction_id="r1")
        assert removed == 1
        assert populated.get_logs("m1", "r1") == []
        assert populated.get_reaction("m1", "r1").reaction_id == "r1"

    def test_the_four_kinds_together_leave_only_the_registration(
        self, populated: MonitoringService, store: FileStore
    ) -> None:
        populated.delete("metrics", model_id="m1", monitor_id="d1")
        populated.delete("monitor", model_id="m1", monitor_id="d1")
        populated.delete("logs", model_id="m1", reaction_id="r1")
        populated.delete("reaction", model_id="m1", reaction_id="r1")
        remaining = [k.render() for k in store.list(StoreKey.of("model", "m1"))]
        assert remaining == ["model/m1"]

    def test_unknown_kind_is_unsupported(self, populated: MonitoringService) -> None:
        with pytest.raises(ValidationError, match="gadget"):
            populated.delete("gadget", model_id="m1")
        with pytest.raises(ValidationError, match="model"):
            populated.delete("model", model_id="m1")

    @pytest.mark.parametrize(
        "kind,selector",
        [
            ("monitor", "monitor_id"),
            ("metrics", "monitor_id"),
            ("reaction", "reaction_id"),
            ("logs", "reaction_id"),
        ],
    )
    def test_missing_selector_is_rejected(
        self, populated: MonitoringService, store: FileStore, kind: str, selector: str
    ) -> None:
        before = [k.render() for k in store.list(StoreKey.of("model", "m1"))]
        with pytest.raises(ValidationError, match=f"deleting {kind} requires {selector}"):
            populated.delete(kind, model_id="m1")
        assert [k.render() for k in store.list(StoreKey.of("model", "m1"))] == before

    def test_deleting_nothing_returns_zero(self, service: MonitoringService) -> None:
        assert service.delete("monitor", model_id="mx", monitor_id="dx") == 0


class TestStrideSample:
    def test_ten_to_five_keeps_documented_indices(self) -> None:
        assert stride_sample(list(range(10)), 5) == [0, 2, 4, 7, 9]

    def test_short_series_pass_through(self) -> None:
        assert stride_sample([1, 2, 3], 5) == [1, 2, 3]
        assert stride_sample([], 5) == []

    def test_exact_length_passes_through(self) -> None:
        assert stride_sample([1, 2, 3], 3) == [1, 2, 3]

    def test_two_samples_keep_the_endpoints(self) -> None:
        assert stride_sample(list(range(100)), 2) == [0, 99]

    def test_sample_size_must_be_at_least_two(self) -> None:
        with pytest.raises(ValidationError, match="sample_size"):
            stride_sample([1, 2, 3], 1)

    @pytest.mark.parametrize("n,k", [(10, 3), (50, 7), (365, 12)])
    def test_endpoints_and_order_are_preserved(self, n: int, k: int) -> None:
        sampled = stride_sample(list(range(n)), k)
        assert len(sampled) == k
        assert sampled[0] == 0
        assert sampled[-1] == n - 1
        assert sampled == sorted(sampled)


class TestRecordSerialization:
    def test_metric_record_round_trip(self) -> None:
        record = MetricRecord(
            model_id="m1",
            monitor_id="d1",
            eval_date=FORECAST,
            quantity="f1",
            metrics={"ks_distance": 0.25},
            context={"computed_at": "2022-03-20T10:00:00Z", "n_baseline": 10, "n_current": 12},
        )
        assert MetricRecord.from_doc(loads_doc(dumps_doc(record.to_doc()))) == record

    def test_log_record_round_trip(self) -> None:
        record = LogRecord(
            model_id="m1",
            reaction_id="r1",
            created_at=datetime(2022, 3, 20, 10, 30, 0, tzinfo=timezone.utc),
            severity=Severity.ALERT,
            body={"fired": True, "values": {"f1": 0.3}},
        )
        assert LogRecord.from_doc(loads_doc(dumps_doc(record.to_doc()))) == record

    def test_severity_serializes_as_plain_text(self) -> None:
        assert Severity.INFO.value == "info"
        assert Severity.ALERT.value == "alert"
