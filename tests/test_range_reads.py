"""Queries and reactions read only the stored days and logs they need.

``get_metrics`` parses only the day directories in its range, a threshold
reaction walks the days down from ``as_of`` until one holds its metric, and
``get_logs`` reads only the logs whose key names fall in its window.  The
reference for each is the full scan it replaces: parse every stored
document, then filter.  A query command also starts without numpy,
and so does every drift command; only ``synth`` loads it.  Queries and
reactions load no data-file, statistics, ``dataclasses`` or ``logging`` code,
and a drift command over a file without blank cells loads no ``logging``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import pytest

import driftmon
from driftmon import (
    FileStore,
    LogRecord,
    MetricRecord,
    MonitorConfig,
    MonitorKind,
    MonitoringService,
    PreconditionError,
    ReactionConfig,
    ReactionKind,
    StorageError,
    StoreKey,
    dumps_doc,
    loads_doc,
)
from driftmon.cli import EXIT_IO, EXIT_OK, main

FIRST = date(2022, 1, 1)
LAST = date(2022, 2, 18)
#: Days the history leaves out, so that a date can fall between stored days.
GAPS = {date(2022, 1, 9), date(2022, 1, 20), date(2022, 1, 21), date(2022, 2, 16)}
QUANTITIES = ("f1", "prediction")


def metrics_prefix(model_id: str = "m1", monitor_id: str = "d1") -> StoreKey:
    return StoreKey.of("model", model_id, "monitor", monitor_id, "metrics")


def scan_metrics(
    service: MonitoringService, date_from: date, date_to: date
) -> list[MetricRecord]:
    """The full-scan reference: every stored document parsed, then filtered."""
    records = []
    for key in service.store.list(metrics_prefix()):
        record = MetricRecord.from_doc(loads_doc(service.store.get(key)))
        if date_from <= record.eval_date <= date_to:
            records.append(record)
    records.sort(key=lambda r: (r.eval_date, r.quantity))
    return records


def scan_threshold(
    service: MonitoringService, metric: str, as_of: date
) -> tuple[str, dict[str, float]]:
    """The full-scan reference of a threshold reaction's date and values."""
    records = [r for r in scan_metrics(service, date.min, as_of) if metric in r.metrics]
    latest = max(r.eval_date for r in records)
    values = {r.quantity: r.metrics[metric] for r in records if r.eval_date == latest}
    return latest.isoformat(), values


def put_record(store: FileStore, day: date, quantity: str, metrics: dict[str, float]) -> None:
    record = MetricRecord(
        model_id="m1",
        monitor_id="d1",
        eval_date=day,
        quantity=quantity,
        metrics=metrics,
        context={"computed_at": f"{day.isoformat()}T06:00:00Z"},
    )
    store.put(metrics_prefix().child(day.isoformat(), quantity), dumps_doc(record.to_doc()))


def corrupt(service: MonitoringService, day: str) -> None:
    """Truncate the day's ``f1`` document so that it no longer parses."""
    path = Path(service.store.root, *metrics_prefix().segments, day, "f1.json")
    path.write_text('{"eval_date": "2022-0', encoding="utf-8")


@pytest.fixture
def history(tmp_path: Path) -> MonitoringService:
    """About 40 stored days with gaps.  The last day holds only a velocity
    record, without ``ks_distance``, and the metrics directory also holds a
    stray directory of each kind that listing passes over."""
    store = FileStore(tmp_path / "store")
    service = MonitoringService(store)
    service.register_model("m1")
    service.set_monitor(MonitorConfig("d1", "m1", MonitorKind.DRIFT, QUANTITIES))
    day, i = FIRST, 0
    while day < LAST:
        if day not in GAPS:
            for q, quantity in enumerate(QUANTITIES):
                ks = ((i * 7 + q * 3) % 11) / 100.0
                put_record(store, day, quantity, {"ks_distance": ks, "ks_p_value": 1.0 - ks})
        day += timedelta(days=1)
        i += 1
    put_record(store, LAST, "velocity", {"mae": 0.5, "wmape": 12.0})
    metrics = tmp_path / "store" / "model" / "m1" / "monitor" / "d1" / "metrics"
    (metrics / "notes").mkdir()
    (metrics / "notes" / "readme.txt").write_text("not a document\n", encoding="utf-8")
    (metrics / "2022-01-05 old").mkdir()
    (metrics / "2022-01-05 old" / "f1.json").write_text("{}\n", encoding="utf-8")
    service.set_reaction(
        ReactionConfig(
            "alert", "m1", ReactionKind.THRESHOLD, "d1",
            metric_name="ks_distance", comparator=">=", threshold=0.05,
        )
    )
    return service


RANGES = {
    "one day": (date(2022, 1, 15), date(2022, 1, 15)),
    "seven days": (date(2022, 1, 17), date(2022, 1, 23)),
    "every day": (FIRST, LAST),
    "wider than the history": (date.min, date.max),
    "no stored day": (date(2022, 1, 20), date(2022, 1, 21)),
    "before the history": (date(2021, 12, 1), date(2021, 12, 31)),
    "after the history": (date(2022, 2, 19), date(2022, 3, 31)),
    "overlapping the start": (date(2021, 12, 30), date(2022, 1, 2)),
    "overlapping the end": (date(2022, 2, 15), date(2022, 2, 25)),
}


class TestGetMetrics:
    @pytest.mark.parametrize("date_from, date_to", RANGES.values(), ids=RANGES.keys())
    def test_matches_the_full_scan(
        self, history: MonitoringService, date_from: date, date_to: date
    ) -> None:
        got = history.get_metrics("m1", "d1", date_from, date_to)
        assert got == scan_metrics(history, date_from, date_to)

    def test_parses_only_the_days_in_range(
        self, history: MonitoringService, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        read: list[StoreKey] = []
        real_get = FileStore.get

        def counting_get(store: FileStore, key: StoreKey) -> str | None:
            read.append(key)
            return real_get(store, key)

        monkeypatch.setattr(FileStore, "get", counting_get)
        records = history.get_metrics("m1", "d1", date(2022, 1, 17), date(2022, 1, 23))
        assert len(records) == 5 * len(QUANTITIES)
        assert sorted(read, key=StoreKey.render) == sorted(
            (metrics_prefix().child(r.eval_date.isoformat(), r.quantity) for r in records),
            key=StoreKey.render,
        )

    def test_a_corrupt_document_outside_the_range_is_not_read(
        self, history: MonitoringService
    ) -> None:
        corrupt(history, "2022-01-03")
        records = history.get_metrics("m1", "d1", date(2022, 1, 4), LAST)
        assert records and all(r.eval_date >= date(2022, 1, 4) for r in records)
        with pytest.raises(StorageError, match="corrupt document .*2022-01-03/f1"):
            history.get_metrics("m1", "d1", date(2022, 1, 3), date(2022, 1, 3))


class TestThresholdWalk:
    @pytest.mark.parametrize(
        "as_of",
        [
            date(2022, 1, 15),  # a stored day
            date(2022, 1, 21),  # between stored days
            LAST,  # the last day, which lacks ks_distance
            date(2022, 6, 1),  # after the last day
            FIRST,  # the first day
        ],
    )
    def test_picks_the_same_day_and_values_as_the_full_scan(
        self, history: MonitoringService, as_of: date
    ) -> None:
        (log,) = history.run_reaction("m1", "alert", as_of)
        eval_date, values = scan_threshold(history, "ks_distance", as_of)
        assert (log.body["eval_date"], log.body["values"]) == (eval_date, values)
        assert log.body["fired"] == any(v >= 0.05 for v in values.values())

    def test_before_the_first_day_fails_as_before(self, history: MonitoringService) -> None:
        with pytest.raises(
            PreconditionError,
            match=r"^no 'ks_distance' metrics at or before 2021-12-31 for monitor 'd1'$",
        ):
            history.run_reaction("m1", "alert", date(2021, 12, 31))
        assert history.get_logs("m1", "alert") == []

    def test_a_corrupt_day_below_the_latest_is_not_read(
        self, history: MonitoringService
    ) -> None:
        corrupt(history, "2022-01-03")
        (log,) = history.run_reaction("m1", "alert", date(2022, 1, 15))
        assert log.body["eval_date"] == "2022-01-15"


#: When the threshold reaction of ``logged`` ran: hours apart, and two
#: runs one microsecond apart.
LOG_TIMES = [
    datetime(2022, 3, 1, tzinfo=timezone.utc) + timedelta(hours=h) for h in range(6)
] + [datetime(2022, 3, 1, 5, 0, 0, 1, tzinfo=timezone.utc)]
PLUS_2 = timezone(timedelta(hours=2))
MINUS_2 = timezone(timedelta(hours=-2))
LOG_WINDOWS = {
    "everything": (None, None),
    "from only": (datetime(2022, 3, 1, 2, tzinfo=timezone.utc), None),
    "to only": (None, datetime(2022, 3, 1, 2, tzinfo=timezone.utc)),
    "exact bounds": (LOG_TIMES[1], LOG_TIMES[3]),
    "one microsecond": (LOG_TIMES[-1], LOG_TIMES[-1]),
    "between logs": (
        datetime(2022, 3, 1, 1, 30, tzinfo=timezone.utc),
        datetime(2022, 3, 1, 1, 45, tzinfo=timezone.utc),
    ),
    "without a zone": (datetime(2022, 3, 1, 1), datetime(2022, 3, 1, 3)),
    "in another zone": (
        datetime(2022, 3, 1, 3, tzinfo=PLUS_2),
        datetime(2022, 3, 1, 1, tzinfo=MINUS_2),
    ),
    "the whole calendar": (
        datetime.min.replace(tzinfo=PLUS_2),
        datetime.max.replace(tzinfo=MINUS_2),
    ),
    "after every log": (datetime.max.replace(tzinfo=MINUS_2), None),
}


@pytest.fixture
def logged(history: MonitoringService, monkeypatch: pytest.MonkeyPatch) -> MonitoringService:
    """``history`` with one threshold log per time in ``LOG_TIMES``."""
    times = iter(LOG_TIMES)
    monkeypatch.setattr("driftmon.core._now", lambda: next(times))
    for _ in LOG_TIMES:
        history.run_reaction("m1", "alert", LAST)
    monkeypatch.undo()
    return history


def log_prefix() -> StoreKey:
    return StoreKey.of("model", "m1", "reaction", "alert", "log")


def scan_logs(
    service: MonitoringService, from_ts: datetime | None, to_ts: datetime | None
) -> list[LogRecord]:
    """The full-scan reference: every stored log parsed, then filtered."""
    from_ts, to_ts = (
        ts and ts.replace(tzinfo=ts.tzinfo or timezone.utc) for ts in (from_ts, to_ts)
    )
    logs = []
    for key in service.store.list(log_prefix()):
        log = LogRecord.from_doc(loads_doc(service.store.get(key)))
        if from_ts is not None and log.created_at < from_ts:
            continue
        if to_ts is not None and log.created_at > to_ts:
            continue
        logs.append(log)
    logs.sort(key=lambda log: log.created_at)
    return logs


class TestGetLogs:
    @pytest.mark.parametrize("from_ts, to_ts", LOG_WINDOWS.values(), ids=LOG_WINDOWS.keys())
    def test_matches_the_full_scan(
        self,
        logged: MonitoringService,
        from_ts: datetime | None,
        to_ts: datetime | None,
        monkeypatch: pytest.MonkeyPatch,
    ) -> None:
        read: list[StoreKey] = []
        real_get = FileStore.get

        def counting_get(store: FileStore, key: StoreKey) -> str | None:
            read.append(key)
            return real_get(store, key)

        expected = scan_logs(logged, from_ts, to_ts)
        monkeypatch.setattr(FileStore, "get", counting_get)
        got = logged.get_logs("m1", "alert", from_ts, to_ts)
        assert got == expected
        # Only the logs in the window are read, each once.
        assert read == [
            log_prefix().child(log.created_at.strftime("%Y%m%dT%H%M%S.%fZ")) for log in got
        ]

    def test_the_windows_select_some_logs(self, logged: MonitoringService) -> None:
        counts = [len(scan_logs(logged, *window)) for window in LOG_WINDOWS.values()]
        assert counts == [7, 5, 3, 3, 1, 0, 3, 3, 7, 0]

    def test_a_corrupt_log_outside_the_window_is_not_read(
        self, logged: MonitoringService, cli
    ) -> None:
        name = LOG_TIMES[0].strftime("%Y%m%dT%H%M%S.%fZ")
        path = Path(logged.store.root, *log_prefix().segments, f"{name}.json")
        path.write_text('{"created_at": "2022-0', encoding="utf-8")
        logs = logged.get_logs("m1", "alert", from_ts=LOG_TIMES[1])
        assert [log.created_at for log in logs] == LOG_TIMES[1:]
        query = ["get-logs", "--store", str(logged.store.root), "--model", "m1"]
        query += ["--reaction", "alert", "--format", "csv"]
        code, out, err = cli(*query, "--from", "2022-03-01T00:00:00.000001Z")
        assert (code, err) == (EXIT_OK, "")
        assert len(out.splitlines()) == 1 + len(LOG_TIMES) - 1
        code, out, err = cli(*query, "--to", "2022-03-01T00:00:00Z")
        assert (code, out) == (EXIT_IO, "")
        assert f"corrupt document {log_prefix()}/{name}" in err


@pytest.fixture
def cli(capsys):
    def call(*args: str) -> tuple[int, str, str]:
        code = main(list(args))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return call


def test_cli_query_skips_a_corrupt_day_outside_its_range(
    history: MonitoringService, cli
) -> None:
    """A corrupt document fails with exit 3 only the queries whose range
    holds it."""
    corrupt(history, "2022-01-03")
    store = str(history.store.root)
    query = ["get-metrics", "--store", store, "--model", "m1", "--monitor", "d1"]
    code, out, err = cli(*query, "--from", "2022-01-10", "--to", "2022-01-16", "--format", "csv")
    assert (code, err) == (EXIT_OK, "")
    assert len(out.splitlines()) == 1 + 7 * len(QUANTITIES)
    code, _, err = cli(*query, "--from", "2022-01-01", "--to", "2022-01-16")
    assert code == EXIT_IO
    assert "2022-01-03/f1" in err


def test_query_and_reaction_commands_leave_numpy_unloaded(tmp_path: Path) -> None:
    store = FileStore(tmp_path / "store")
    service = MonitoringService(store)
    service.register_model("m1")
    service.set_monitor(MonitorConfig("p1", "m1", MonitorKind.PERFORMANCE))
    service.set_reaction(
        ReactionConfig(
            "alert", "m1", ReactionKind.THRESHOLD, "p1",
            metric_name="mae", comparator=">", threshold=1.0,
        )
    )
    predictions = tmp_path / "predictions.csv"
    predictions.write_text(
        "unit_id,eval_date,prediction\nu1,2022-03-20,1.5\nu2,2022-03-20,0.0\n",
        encoding="utf-8",
    )
    sales = tmp_path / "sales.csv"
    window = [date(2022, 3, 20) + timedelta(days=d) for d in range(7)]
    sales.write_text(
        "unit_id,date,units\n" + "".join(f"u1,{day.isoformat()},1\n" for day in window),
        encoding="utf-8",
    )
    common = ["--store", str(tmp_path / "store"), "--model", "m1"]
    commands = [
        ["run-monitor", *common, "--monitor", "p1", "--date", "2022-03-20"]
        + ["--data", str(predictions), "--sales", str(sales)],
        ["get-metrics", *common, "--monitor", "p1", "--from", "2022-03-01", "--to", "2022-03-31"],
        ["run-reaction", *common, "--reaction", "alert", "--as-of", "2022-03-31"],
        ["get-logs", *common, "--reaction", "alert", "--format", "csv"],
    ]
    assert run_in_fresh_interpreter(commands, ("numpy", "dataclasses")) == {
        "codes": [EXIT_OK] * len(commands),
        "loaded": [],
    }


#: Modules that only data, statistics or ``synth`` commands run.
NOT_FOR_QUERIES = (
    "driftmon.data",
    "driftmon.performance",
    "driftmon.sketch",
    "driftmon.summary",
    "driftmon.drift",
    "driftmon.synth",
    "dataclasses",
    "logging",
    "numpy",
    # What a generic annotation reader would load; the record codec reads
    # annotation strings by a table instead.
    "inspect",
    "ast",
)


def test_queries_and_reactions_load_no_data_statistics_or_dataclass_code(
    history: MonitoringService,
) -> None:
    """``import driftmon.cli``, queries, setting and running both kinds of
    reaction, and reading and deleting logs load none of the modules that
    data files, drift statistics or ``synth`` need, nor ``dataclasses``,
    ``logging``, ``inspect`` or ``ast``."""
    common = ["--store", str(history.store.root), "--model", "m1"]
    commands = [
        ["set-reaction", *common, "--id", "report", "--kind", "report", "--monitor", "d1"]
        + ["--from", "2022-01-01", "--to", "2022-02-18", "--sample-size", "5"],
        ["get-metrics", *common, "--monitor", "d1", "--from", "2022-01-17", "--to", "2022-01-23"],
        ["get-metrics", *common, "--monitor", "d1", "--from", "2022-01-01", "--to", "2022-02-18"]
        + ["--format", "doc"],
        ["run-reaction", *common, "--reaction", "alert", "--as-of", "2022-02-18"],
        ["run-reaction", *common, "--reaction", "report", "--as-of", "2022-02-18"],
        ["get-logs", *common, "--reaction", "alert"],
        ["get-logs", *common, "--reaction", "report", "--format", "doc"],
        ["delete", *common, "--kind", "logs", "--reaction", "report"],
    ]
    assert run_in_fresh_interpreter([], NOT_FOR_QUERIES) == {"codes": [], "loaded": []}
    assert run_in_fresh_interpreter(commands, NOT_FOR_QUERIES) == {
        "codes": [EXIT_OK] * len(commands),
        "loaded": [],
    }


def run_in_fresh_interpreter(
    commands: list[list[str]], modules: tuple[str, ...] = ("numpy",)
) -> dict:
    """Run each command through ``cli.main`` in one new interpreter and
    return its exit codes and which of ``modules`` were loaded at the end."""
    script = (
        "import json, sys\n"
        "from driftmon.cli import main\n"
        f"codes = [main(argv) for argv in {commands!r}]\n"
        f"loaded = [name for name in {modules!r} if name in sys.modules]\n"
        "print(json.dumps({'codes': codes, 'loaded': loaded}))\n"
    )
    src = str(Path(driftmon.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_drift_commands_leave_numpy_unloaded_and_synth_loads_it(tmp_path: Path) -> None:
    data = str(tmp_path / "data")
    synth = [["synth", "--out", data, "--units", "300", "--seed", "5", "--shift", "0.2"]]
    assert run_in_fresh_interpreter(synth, ("numpy", "dataclasses")) == {
        "codes": [EXIT_OK],
        "loaded": ["numpy"],
    }
    common = ["--store", str(tmp_path / "store"), "--model", "m1"]
    commands = [["register-model", "--store", str(tmp_path / "store"), "--id", "m1"]]
    # At epsilon 0.05 a sketch level holds 258 values, so d2 compacts each
    # 300-row column; at the default (d1) nothing compacts.
    for monitor, resolution in (("d1", []), ("d2", ["--epsilon", "0.05"])):
        commands += [
            ["set-monitor", *common, "--id", monitor, "--kind", "drift"]
            + ["--quantities", "f1,f2,f3,prediction", *resolution],
            ["snapshot-baseline", *common, "--monitor", monitor]
            + ["--data", f"{data}/training.csv"],
            ["run-monitor", *common, "--monitor", monitor, "--date", "2022-03-20"]
            + ["--data", f"{data}/inference.csv"],
        ]
    # The synth files hold no blank cell, so nothing is logged, and a
    # drift run scores no forecast.
    modules = ("numpy", "dataclasses", "logging", "driftmon.performance")
    assert run_in_fresh_interpreter(commands, modules) == {
        "codes": [EXIT_OK] * len(commands),
        "loaded": [],
    }
    stored = list((tmp_path / "store").rglob("2022-03-20/*.json"))
    assert len(stored) == 8
    assert {json.loads(p.read_text(encoding="utf-8"))["context"]["n_current"] for p in stored} == {
        300
    }
