"""``get-metrics`` and ``get-logs`` render each record as it is decoded.

The records are not kept, so a query's memory grows with its output text,
not with its decoded records: a year of history is pinned under
``tracemalloc``.  The output must stay what the list-sort-union renderer
printed, byte for byte; that renderer is kept here as the reference.  A
range mixing column sets (drift and performance records under one monitor
id, and a hand-edited record with an extra metric, a context value that
needs CSV quoting and a boolean one) exercises the lines laid out again
under the union header.  And since the text is written only after the
last record has decoded, a corrupt document fails the command with
nothing on stdout.
Cells longer than a CSV reader takes (a report log's series, a long
context value) print as the reference prints them.
"""

from __future__ import annotations

import csv
import io
import os
import re
import shutil
import sys
import tracemalloc
from datetime import date, timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftmon import (
    FileStore,
    LogRecord,
    MetricRecord,
    StoreKey,
    dumps_doc,
    loads_doc,
)
from driftmon.cli import _CSV_FIELD, EXIT_IO, EXIT_OK, main

FORMATS = ("table", "csv", "doc")
METRICS = StoreKey.of("model", "m1", "monitor", "d1", "metrics")


@pytest.fixture
def cli(capsys):
    def call(*args: str) -> tuple[int, str, str]:
        code = main(list(args))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return call


# -- the reference: every record listed, sorted, then rendered ---------------


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def reference_metrics(store: FileStore, date_from: date, date_to: date) -> list[MetricRecord]:
    records = [
        MetricRecord.from_doc(loads_doc(store.get(key))) for key in store.list(METRICS)
    ]
    records = [r for r in records if date_from <= r.eval_date <= date_to]
    records.sort(key=lambda r: (r.eval_date, r.quantity))
    return records


def reference_logs(store: FileStore, reaction_id: str) -> list[LogRecord]:
    prefix = StoreKey.of("model", "m1", "reaction", reaction_id, "log")
    logs = [LogRecord.from_doc(loads_doc(store.get(key))) for key in store.list(prefix)]
    logs.sort(key=lambda r: r.created_at)
    return logs


def metric_table(records: list[MetricRecord]) -> tuple[list[str], list[list[str]]]:
    metric_names = sorted({name for r in records for name in r.metrics})
    context_names = sorted({name for r in records for name in r.context})
    header = ["model_id", "monitor_id", "eval_date", "quantity"] + metric_names + context_names
    rows = []
    for r in records:
        row = [r.model_id, r.monitor_id, r.eval_date.isoformat(), r.quantity]
        row += [_cell(r.metrics[n]) if n in r.metrics else "" for n in metric_names]
        row += [_cell(r.context[n]) if n in r.context else "" for n in context_names]
        rows.append(row)
    return header, rows


def log_table(records: list[LogRecord]) -> tuple[list[str], list[list[str]]]:
    header = ["model_id", "reaction_id", "created_at", "severity", "body"]
    rows = [
        [
            r.model_id,
            r.reaction_id,
            r.created_at.strftime("%Y-%m-%dT%H:%M:%SZ"),
            r.severity.value,
            dumps_doc(r.body).rstrip("\n"),
        ]
        for r in records
    ]
    return header, rows


def render(records, table, fmt: str) -> str:
    out = io.StringIO()
    if fmt == "doc":
        for r in records:
            out.write(dumps_doc(r.to_doc()))
        return out.getvalue()
    header, rows = table(records)
    if fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)
        return out.getvalue()
    widths = [len(h) for h in header]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(), file=out)
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip(), file=out)
    return out.getvalue()


# -- a range that mixes column sets ------------------------------------------


@pytest.fixture
def mixed(tmp_path: Path, cli) -> str:
    """Drift records on 2022-03-18..20 and a velocity record on 2022-03-20,
    all under monitor ``d1``; one drift record carries an extra metric, a
    context value with a comma, a quote and a line break, and a boolean
    context value.  A threshold and a report reaction have run twice each."""
    store = str(tmp_path / "store")
    data = tmp_path / "data"
    assert cli("synth", "--out", str(data), "--units", "200", "--seed", "3")[0] == EXIT_OK
    common = ["--store", store, "--model", "m1"]
    steps = [
        ["register-model", "--store", store, "--id", "m1"],
        ["set-monitor", *common, "--id", "d1", "--kind", "drift", "--quantities", "f1,prediction"]
        + ["--epsilon", "0.01", "--cdf-points", "25"],
        ["snapshot-baseline", *common, "--monitor", "d1", "--data", str(data / "training.csv")],
    ]
    steps += [
        ["run-monitor", *common, "--monitor", "d1", "--date", day]
        + ["--data", str(data / "inference.csv")]
        for day in ("2022-03-18", "2022-03-19", "2022-03-20")
    ]
    steps += [
        # Deleting the monitor keeps its metrics; d1 becomes a performance monitor.
        ["delete", *common, "--kind", "monitor", "--monitor", "d1"],
        ["set-monitor", *common, "--id", "d1", "--kind", "performance"],
        ["run-monitor", *common, "--monitor", "d1", "--date", "2022-03-20"]
        + ["--data", str(data / "inference.csv"), "--sales", str(data / "sales.csv")],
        ["set-reaction", *common, "--id", "alert", "--kind", "threshold", "--monitor", "d1"]
        + ["--metric", "ks_distance", "--comparator", ">=", "--threshold", "0.0"],
        ["set-reaction", *common, "--id", "report", "--kind", "report", "--monitor", "d1"]
        + ["--from", "2022-03-18", "--to", "2022-03-20", "--sample-size", "2"],
    ]
    for reaction in ("alert", "report", "alert", "report"):
        steps.append(["run-reaction", *common, "--reaction", reaction, "--as-of", "2022-03-20"])
    for step in steps:
        code, _, err = cli(*step)
        assert code == EXIT_OK, (step, err)
    path = Path(store, *METRICS.segments, "2022-03-19", "f1.json")
    doc = loads_doc(path.read_text(encoding="utf-8"))
    doc["metrics"]["extra_metric"] = 0.25
    doc["context"]["note"] = 'hand-edited, "checked"\non two lines'
    doc["context"]["checked"] = True
    path.write_text(dumps_doc(doc), encoding="utf-8")
    return store


RANGES = {
    "every day": ("2022-03-18", "2022-03-20"),
    "the edited day": ("2022-03-19", "2022-03-19"),
    "drift and velocity": ("2022-03-20", "2022-03-20"),
    "no stored day": ("2022-03-01", "2022-03-02"),
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("date_from, date_to", RANGES.values(), ids=RANGES.keys())
def test_get_metrics_prints_the_reference_bytes(
    mixed: str, cli, fmt: str, date_from: str, date_to: str
) -> None:
    code, out, err = cli(
        "get-metrics", "--store", mixed, "--model", "m1", "--monitor", "d1",
        "--from", date_from, "--to", date_to, "--format", fmt,
    )
    assert (code, err) == (EXIT_OK, "")
    records = reference_metrics(
        FileStore(mixed), date.fromisoformat(date_from), date.fromisoformat(date_to)
    )
    assert out == render(records, metric_table, fmt)


def test_the_mixed_range_mixes_column_sets(mixed: str) -> None:
    records = reference_metrics(FileStore(mixed), date(2022, 3, 18), date(2022, 3, 20))
    layouts = {(tuple(sorted(r.metrics)), tuple(sorted(r.context))) for r in records}
    assert len(records) == 7
    assert len(layouts) == 3


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("reaction", ["alert", "report"])
def test_get_logs_prints_the_reference_bytes(mixed: str, cli, fmt: str, reaction: str) -> None:
    code, out, err = cli(
        "get-logs", "--store", mixed, "--model", "m1", "--reaction", reaction, "--format", fmt
    )
    assert (code, err) == (EXIT_OK, "")
    logs = reference_logs(FileStore(mixed), reaction)
    assert len(logs) == 2
    assert out == render(logs, log_table, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_corrupt_last_metric_prints_nothing(mixed: str, cli, fmt: str) -> None:
    """The corrupt document is the last in key order, so every other record
    of the range has been rendered before it is met."""
    path = Path(mixed, *METRICS.segments, "2022-03-20", "velocity.json")
    path.write_text('{"eval_date": "2022-0', encoding="utf-8")
    code, out, err = cli(
        "get-metrics", "--store", mixed, "--model", "m1", "--monitor", "d1",
        "--from", "2022-03-18", "--to", "2022-03-20", "--format", fmt,
    )
    assert (code, out) == (EXIT_IO, "")
    assert "corrupt document model/m1/monitor/d1/metrics/2022-03-20/velocity" in err


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_corrupt_last_log_prints_nothing(mixed: str, cli, fmt: str) -> None:
    log = Path(mixed, "model", "m1", "reaction", "report", "log")
    last = sorted(log.glob("*.json"))[-1]
    last.write_text('{"created_at": ', encoding="utf-8")
    code, out, err = cli(
        "get-logs", "--store", mixed, "--model", "m1", "--reaction", "report", "--format", fmt
    )
    assert (code, out) == (EXIT_IO, "")
    assert f"corrupt document model/m1/reaction/report/log/{last.stem}" in err


# -- cells past the CSV reader's field limit ----------------------------------

#: Longer than the 131072 characters of ``csv.field_size_limit()``, which a CSV
#: reader refuses; the output is written, never read back.
LONG = 200_000


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_context_value_past_the_field_limit_is_laid_out_again(
    mixed: str, cli, fmt: str
) -> None:
    """The edited record lacks the velocity metrics of the range's union,
    so its line, long cell and all, is laid out again under the header."""
    path = Path(mixed, *METRICS.segments, "2022-03-19", "f1.json")
    doc = loads_doc(path.read_text(encoding="utf-8"))
    doc["context"]["note"] = 'long, "quoted"\n' + "x" * LONG
    path.write_text(dumps_doc(doc), encoding="utf-8")
    code, out, err = cli(
        "get-metrics", "--store", mixed, "--model", "m1", "--monitor", "d1",
        "--from", "2022-03-18", "--to", "2022-03-20", "--format", fmt,
    )
    assert (code, err) == (EXIT_OK, "")
    records = reference_metrics(FileStore(mixed), date(2022, 3, 18), date(2022, 3, 20))
    assert out == render(records, metric_table, fmt)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(alphabet=',"\r\n x\x00\u00e9'), min_size=2, max_size=6))
def test_a_written_line_splits_into_its_fields_as_written(cells: list[str]) -> None:
    """Laying a CSV line out again splits it at the commas between the
    fields ``csv.writer`` wrote; each field, read alone, is its cell."""
    out = io.StringIO()
    csv.writer(out).writerow(cells)
    line = out.getvalue()
    fields = re.findall(_CSV_FIELD, line[:-2] + ",")
    assert ",".join(fields) + "\r\n" == line
    assert [next(csv.reader([f]))[0] if f else "" for f in fields] == cells


@pytest.fixture
def long_report(year: str, tmp_path: Path, cli) -> str:
    """A copy of the year of drift records, with a report reaction over the
    year run twice: each log's body holds 12 series of 365 points."""
    store = str(tmp_path / "store")
    shutil.copytree(year, store)
    common = ["--store", store, "--model", "m1"]
    steps = [
        ["register-model", "--store", store, "--id", "m1"],
        ["set-monitor", *common, "--id", "d1", "--kind", "drift"]
        + ["--quantities", ",".join(QUANTITIES)],
        ["set-reaction", *common, "--id", "report", "--kind", "report", "--monitor", "d1"]
        + ["--from", "2022-01-01", "--to", "2022-12-31", "--sample-size", str(DAYS)],
    ]
    steps += [["run-reaction", *common, "--reaction", "report", "--as-of", "2022-12-31"]] * 2
    for step in steps:
        code, _, err = cli(*step)
        assert code == EXIT_OK, (step, err)
    return store


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_report_body_past_the_field_limit_prints_the_reference_bytes(
    long_report: str, cli, fmt: str
) -> None:
    code, out, err = cli(
        "get-logs", "--store", long_report, "--model", "m1", "--reaction", "report",
        "--format", fmt,
    )
    assert (code, err) == (EXIT_OK, "")
    logs = reference_logs(FileStore(long_report), "report")
    assert len(logs) == 2
    assert all(len(dumps_doc(log.body)) > csv.field_size_limit() for log in logs)
    assert out == render(logs, log_table, fmt)


# -- memory ------------------------------------------------------------------

DAYS = 365
QUANTITIES = ("f1", "f2", "f3", "prediction")
#: Peak bytes traced per stored record in the range.  Keeping every decoded
#: record, and then every row, took about 2,200.
BYTES_PER_RECORD = 600


@pytest.fixture(scope="module")
def year(tmp_path_factory: pytest.TempPathFactory) -> str:
    """A year of drift records, four quantities a day, shaped like a
    monitor run's."""
    root = tmp_path_factory.mktemp("year") / "store"
    store = FileStore(root)
    first = date(2022, 1, 1)
    for i in range(DAYS):
        day = first + timedelta(days=i)
        for q, quantity in enumerate(QUANTITIES):
            d = ((i * 31 + q * 7) % 97 + 1) / 17_321.0
            record = MetricRecord(
                model_id="m1",
                monitor_id="d1",
                eval_date=day,
                quantity=quantity,
                metrics={
                    "bhattacharyya_coefficient": 1.0 - d / 3.0,
                    "ks_distance": d,
                    "ks_p_value": 1.0 - d * 97.0,
                },
                context={
                    "computed_at": f"{day.isoformat()}T06:00:00Z",
                    "n_baseline": 1000,
                    "n_current": 1000,
                },
            )
            store.put(METRICS.child(day.isoformat(), quantity), dumps_doc(record.to_doc()))
    return str(root)


@pytest.mark.parametrize("fmt", ["csv", "doc"])
def test_a_year_query_peaks_at_a_few_hundred_bytes_a_record(
    year: str, fmt: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    query = ["get-metrics", "--store", year, "--model", "m1", "--monitor", "d1", "--format", fmt]
    with open(os.devnull, "w", encoding="utf-8") as devnull:
        monkeypatch.setattr(sys, "stdout", devnull)
        # Once over one day, so imports and codec tables are not counted.
        assert main([*query, "--from", "2022-01-01", "--to", "2022-01-01"]) == EXIT_OK
        tracemalloc.start()
        try:
            code = main([*query, "--from", "2022-01-01", "--to", "2022-12-31"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == EXIT_OK
    records = DAYS * len(QUANTITIES)
    assert peak / records <= BYTES_PER_RECORD, f"{peak / records:.0f} bytes a record"
