"""Tests for the command-line interface, run in-process."""

from __future__ import annotations

import csv
import io
import json
import shutil
from pathlib import Path

import pytest

from driftmon import FileStore, dumps_doc, loads_doc
from driftmon.cli import EXIT_DOMAIN, EXIT_IO, EXIT_OK, EXIT_USAGE, main


@pytest.fixture
def cli(capsys):
    """Invoke the CLI and capture (exit_code, stdout, stderr)."""

    def call(*args: str) -> tuple[int, str, str]:
        code = main(list(args))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return call


@pytest.fixture
def workspace(tmp_path: Path, cli):
    """A store with synthetic data, a drift monitor, and one metrics run."""
    store = str(tmp_path / "store")
    data = tmp_path / "data"
    assert cli("synth", "--out", str(data), "--units", "200", "--seed", "7")[0] == EXIT_OK
    steps = [
        ("register-model", "--store", store, "--id", "m1"),
        (
            "set-monitor", "--store", store, "--model", "m1", "--id", "d1",
            "--kind", "drift", "--quantities", "f1,prediction",
            "--epsilon", "0.01", "--cdf-points", "25",
        ),
        (
            "snapshot-baseline", "--store", store, "--model", "m1",
            "--monitor", "d1", "--data", str(data / "training.csv"),
        ),
        (
            "run-monitor", "--store", store, "--model", "m1", "--monitor", "d1",
            "--date", "2022-03-20", "--data", str(data / "inference.csv"),
        ),
    ]
    for step in steps:
        code, _, err = cli(*step)
        assert code == EXIT_OK, err
    return store, data


class TestExitCodes:
    def test_success_is_zero(self, tmp_path: Path, cli) -> None:
        code, out, err = cli(
            "register-model", "--store", str(tmp_path / "s"), "--id", "m1"
        )
        assert code == EXIT_OK
        assert err == ""
        assert "m1" in out

    def test_domain_errors_are_one(self, tmp_path: Path, cli) -> None:
        store = str(tmp_path / "s")
        cli("register-model", "--store", store, "--id", "m1")
        code, _, err = cli(
            "run-reaction", "--store", store, "--model", "m1",
            "--reaction", "nope", "--as-of", "2022-03-20",
        )
        assert code == EXIT_DOMAIN
        assert "error:" in err
        assert "nope" in err

    def test_usage_errors_are_two(self, tmp_path: Path, cli) -> None:
        store = str(tmp_path / "s")
        assert cli("get-metrics", "--bogus-flag")[0] == EXIT_USAGE
        cli("register-model", "--store", store, "--id", "m1")
        code, _, err = cli(
            "get-metrics", "--store", store, "--model", "m1", "--monitor", "d1",
            "--from", "2022-03-25", "--to", "2022-03-20",
        )
        assert code == EXIT_USAGE
        assert "reversed" in err

    def test_dot_segments_are_usage_errors_that_write_nothing(self, tmp_path: Path, cli) -> None:
        store = tmp_path / "s"
        code, _, err = cli("register-model", "--store", str(store), "--id", "..")
        assert code == EXIT_USAGE
        assert "model_id" in err
        cli("register-model", "--store", str(store), "--id", "m1")
        code, _, err = cli(
            "set-monitor", "--store", str(store), "--model", "..", "--id", "x",
            "--kind", "performance",
        )
        assert code == EXIT_USAGE
        assert sorted(p.relative_to(store).as_posix() for p in store.rglob("*")) == [
            "model", "model/m1.json",
        ]

    def test_missing_store_root_is_a_usage_error(self, cli, monkeypatch) -> None:
        monkeypatch.delenv("MON_STORE_ROOT", raising=False)
        code, _, err = cli("register-model", "--id", "m1")
        assert code == EXIT_USAGE
        assert "MON_STORE_ROOT" in err

    def test_io_errors_are_three(self, tmp_path: Path, cli) -> None:
        store = str(tmp_path / "s")
        cli("register-model", "--store", store, "--id", "m1")
        cli(
            "set-monitor", "--store", store, "--model", "m1", "--id", "d1",
            "--kind", "drift", "--quantities", "f1",
        )
        code, _, err = cli(
            "snapshot-baseline", "--store", store, "--model", "m1",
            "--monitor", "d1", "--data", str(tmp_path / "ghost.csv"),
        )
        assert code == EXIT_IO
        assert "error:" in err

    def test_truncated_metric_document_is_an_io_error(self, workspace, cli) -> None:
        store, _ = workspace
        key = "model/m1/monitor/d1/metrics/2022-03-20/f1"
        path = Path(store, key + ".json")
        path.write_text(path.read_text(encoding="utf-8")[:40], encoding="utf-8")
        code, _, err = cli(
            "get-metrics", "--store", store, "--model", "m1", "--monitor", "d1",
            "--from", "2022-03-20", "--to", "2022-03-20",
        )
        assert code == EXIT_IO
        assert key in err
        assert "Traceback" not in err

    def test_monitor_document_without_id_is_an_io_error(self, workspace, cli) -> None:
        store, data = workspace
        key = "model/m1/monitor/d1"
        path = Path(store, key + ".json")
        doc = json.loads(path.read_text(encoding="utf-8"))
        del doc["monitor_id"]
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = cli(
            "run-monitor", "--store", store, "--model", "m1", "--monitor", "d1",
            "--date", "2022-03-20", "--data", str(data / "inference.csv"),
        )
        assert code == EXIT_IO
        assert key in err
        assert "Traceback" not in err

    def test_invalid_date_is_a_usage_error(self, tmp_path: Path, cli) -> None:
        code, _, err = cli(
            "run-monitor", "--store", str(tmp_path / "s"), "--model", "m1",
            "--monitor", "d1", "--date", "not-a-date", "--data", "x.csv",
        )
        assert code == EXIT_USAGE
        assert "not an ISO date" in err


class TestEnvironmentDefaults:
    def test_store_root_from_environment(self, tmp_path: Path, cli, monkeypatch) -> None:
        monkeypatch.setenv("MON_STORE_ROOT", str(tmp_path / "envstore"))
        code, out, _ = cli("register-model", "--id", "m1")
        assert code == EXIT_OK
        assert (tmp_path / "envstore" / "model" / "m1.json").exists()

    def test_data_root_resolves_relative_paths(self, tmp_path: Path, cli, monkeypatch) -> None:
        data = tmp_path / "data"
        code, _, err = cli("synth", "--out", str(data), "--units", "50", "--seed", "1")
        assert code == EXIT_OK, err
        store = str(tmp_path / "store")
        monkeypatch.setenv("MON_DATA_ROOT", str(data))
        cli("register-model", "--store", store, "--id", "m1")
        cli(
            "set-monitor", "--store", store, "--model", "m1", "--id", "d1",
            "--kind", "drift", "--quantities", "f1",
        )
        code, _, err = cli(
            "snapshot-baseline", "--store", store, "--model", "m1",
            "--monitor", "d1", "--data", "training.csv",
        )
        assert code == EXIT_OK, err


class TestMetricsOutput:
    def test_csv_has_sorted_header_and_rfc_line_endings(self, workspace, cli) -> None:
        store, _ = workspace
        code, out, _ = cli(
            "get-metrics", "--store", store, "--model", "m1", "--monitor", "d1",
            "--from", "2022-03-20", "--to", "2022-03-20", "--format", "csv",
        )
        assert code == EXIT_OK
        assert "\r\n" in out
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [
            "model_id", "monitor_id", "eval_date", "quantity",
            "bhattacharyya_coefficient", "ks_distance", "ks_p_value",
            "computed_at", "n_baseline", "n_current",
        ]
        assert len(rows) == 3  # header + f1 + prediction
        assert [r[3] for r in rows[1:]] == ["f1", "prediction"]

    def test_csv_floats_round_trip(self, workspace, cli) -> None:
        store, _ = workspace
        _, csv_out, _ = cli(
            "get-metrics", "--store", store, "--model", "m1", "--monitor", "d1",
            "--from", "2022-03-20", "--to", "2022-03-20", "--format", "csv",
        )
        _, doc_out, _ = cli(
            "get-metrics", "--store", store, "--model", "m1", "--monitor", "d1",
            "--from", "2022-03-20", "--to", "2022-03-20", "--format", "doc",
        )
        rows = list(csv.DictReader(io.StringIO(csv_out)))
        docs = [loads_doc(line) for line in doc_out.splitlines()]
        for row, doc in zip(rows, docs):
            assert float(row["ks_distance"]) == doc["metrics"]["ks_distance"]
            assert float(row["bhattacharyya_coefficient"]) == (
                doc["metrics"]["bhattacharyya_coefficient"]
            )

    def test_csv_output_is_byte_stable(self, workspace, cli) -> None:
        store, _ = workspace
        args = (
            "get-metrics", "--store", store, "--model", "m1", "--monitor", "d1",
            "--from", "2022-03-20", "--to", "2022-03-20", "--format", "csv",
        )
        assert cli(*args)[1] == cli(*args)[1]

    def test_doc_output_is_canonical_ndjson(self, workspace, cli) -> None:
        store, _ = workspace
        _, out, _ = cli(
            "get-metrics", "--store", store, "--model", "m1", "--monitor", "d1",
            "--from", "2022-03-20", "--to", "2022-03-20", "--format", "doc",
        )
        lines = out.splitlines()
        assert len(lines) == 2
        for line in lines:
            parsed = json.loads(line)
            assert list(parsed) == sorted(parsed)
            assert parsed["model_id"] == "m1"

    def test_table_output_shows_quantities(self, workspace, cli) -> None:
        store, _ = workspace
        code, out, _ = cli(
            "get-metrics", "--store", store, "--model", "m1", "--monitor", "d1",
            "--from", "2022-03-20", "--to", "2022-03-20",
        )
        assert code == EXIT_OK
        assert "quantity" in out.splitlines()[0]
        assert any("f1" in line for line in out.splitlines()[1:])

    def test_empty_range_prints_nothing_but_succeeds(self, workspace, cli) -> None:
        store, _ = workspace
        code, out, _ = cli(
            "get-metrics", "--store", store, "--model", "m1", "--monitor", "d1",
            "--from", "2021-01-01", "--to", "2021-01-02", "--format", "doc",
        )
        assert code == EXIT_OK
        assert out == ""


class TestReactionCommands:
    def test_threshold_lifecycle(self, workspace, cli) -> None:
        store, _ = workspace
        code, _, err = cli(
            "set-reaction", "--store", store, "--model", "m1", "--id", "r1",
            "--kind", "threshold", "--monitor", "d1", "--metric", "ks_distance",
            "--comparator", ">=", "--threshold", "0.0",
        )
        assert code == EXIT_OK, err
        code, out, _ = cli(
            "run-reaction", "--store", store, "--model", "m1",
            "--reaction", "r1", "--as-of", "2022-03-25",
        )
        assert code == EXIT_OK
        assert "alert" in out
        code, out, _ = cli(
            "get-logs", "--store", store, "--model", "m1", "--reaction", "r1",
            "--format", "doc",
        )
        assert code == EXIT_OK
        log = loads_doc(out.splitlines()[0])
        assert log["severity"] == "alert"
        assert log["body"]["fired"] is True
        assert set(log["body"]["values"]) == {"f1", "prediction"}

        # The same log as csv and table rows: seconds-precision timestamp and
        # the body as its canonical one-line document.
        header = ["model_id", "reaction_id", "created_at", "severity", "body"]
        row = ["m1", "r1", log["created_at"][:19] + "Z", "alert", dumps_doc(log["body"]).rstrip()]
        code, out, _ = cli(
            "get-logs", "--store", store, "--model", "m1", "--reaction", "r1",
            "--format", "csv",
        )
        assert code == EXIT_OK
        assert out.endswith("\r\n")
        assert list(csv.reader(io.StringIO(out))) == [header, row]
        code, out, _ = cli(
            "get-logs", "--store", store, "--model", "m1", "--reaction", "r1",
            "--format", "table",
        )
        assert code == EXIT_OK
        widths = [max(len(h), len(c)) for h, c in zip(header, row)]
        assert out == "".join(
            "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() + "\n"
            for line in (header, row)
        )

        # --from/--to are inclusive timestamps: a Z suffix, a +00:00 offset
        # and a naive time (read as UTC) all select the log at its own time.
        def logs(*window: str) -> tuple[int, str, str]:
            return cli(
                "get-logs", "--store", store, "--model", "m1", "--reaction", "r1",
                "--format", "doc", *window,
            )

        created = log["created_at"]
        assert created.endswith("Z")
        doc = dumps_doc(log)
        assert logs("--from", created, "--to", created)[:2] == (EXIT_OK, doc)
        assert logs("--to", created[:-1] + "+00:00")[:2] == (EXIT_OK, doc)
        assert logs("--from", created[:-1])[:2] == (EXIT_OK, doc)
        assert logs("--from", "2000-01-01T00:00:00Z", "--to", "2000-01-02T00:00:00Z")[:2] == (
            EXIT_OK, "",
        )
        code, out, err = logs("--from", created, "--to", "2000-01-01T00:00:00Z")
        assert (code, out) == (EXIT_USAGE, "")
        assert "reversed" in err
        code, out, err = logs("--from", "yesterday")
        assert (code, out) == (EXIT_USAGE, "")
        assert "not an ISO timestamp" in err
        assert "Traceback" not in err

    def test_report_lifecycle(self, workspace, cli) -> None:
        store, _ = workspace
        code, _, err = cli(
            "set-reaction", "--store", store, "--model", "m1", "--id", "rep",
            "--kind", "report", "--monitor", "d1",
            "--from", "2022-03-20", "--to", "2022-03-27", "--sample-size", "5",
        )
        assert code == EXIT_OK, err
        code, out, _ = cli(
            "run-reaction", "--store", store, "--model", "m1",
            "--reaction", "rep", "--as-of", "2022-03-27",
        )
        assert code == EXIT_OK
        _, out, _ = cli(
            "get-logs", "--store", store, "--model", "m1", "--reaction", "rep",
            "--format", "doc",
        )
        log = loads_doc(out.splitlines()[0])
        series = log["body"]["series"]
        assert len(series) == 6  # 2 quantities x 3 drift metrics
        assert all(len(entry["points"]) >= 1 for entry in series)


class TestDeleteCommand:
    def test_monitor_delete_spares_metrics(self, workspace, cli) -> None:
        store, _ = workspace
        code, out, _ = cli(
            "delete", "--store", store, "--kind", "monitor",
            "--model", "m1", "--monitor", "d1",
        )
        assert code == EXIT_OK
        assert "3" in out  # config + 2 baselines
        code, out, _ = cli(
            "get-metrics", "--store", store, "--model", "m1", "--monitor", "d1",
            "--from", "2022-03-20", "--to", "2022-03-20", "--format", "doc",
        )
        assert code == EXIT_OK
        assert len(out.splitlines()) == 2

    def test_stray_files_are_passed_over(self, workspace, cli) -> None:
        """A copied metric file and a renamed day directory are not keys:
        queries still succeed, and deleting the history counts only the
        store's own documents but removes the whole subtree."""
        store, _ = workspace
        query = (
            "get-metrics", "--store", store, "--model", "m1", "--monitor", "d1",
            "--from", "2022-03-20", "--to", "2022-03-20", "--format", "doc",
        )
        clean = cli(*query)
        metrics = Path(store, "model", "m1", "monitor", "d1", "metrics")
        shutil.copy(metrics / "2022-03-20" / "f1.json", metrics / "2022-03-20" / "f1 copy.json")
        shutil.copytree(metrics / "2022-03-20", metrics / "2022-03-20 old")
        assert cli(*query) == clean
        code, out, _ = cli(
            "delete", "--store", store, "--kind", "metrics", "--model", "m1", "--monitor", "d1",
        )
        assert (code, out) == (EXIT_OK, "deleted 2\n")
        assert not metrics.exists()

    def test_missing_selector_is_a_usage_error(self, workspace, cli) -> None:
        store, _ = workspace
        code, _, err = cli("delete", "--store", store, "--kind", "monitor", "--model", "m1")
        assert code == EXIT_USAGE
        assert "monitor" in err


class TestSynthCommand:
    def test_writes_three_files(self, tmp_path: Path, cli) -> None:
        out_dir = tmp_path / "synthdata"
        code, out, _ = cli("synth", "--out", str(out_dir), "--units", "40", "--seed", "3")
        assert code == EXIT_OK
        for name in ("training.csv", "inference.csv", "sales.csv"):
            assert (out_dir / name).exists()
            assert name in out

    def test_deterministic_across_invocations(self, tmp_path: Path, cli) -> None:
        a, b = tmp_path / "a", tmp_path / "b"
        cli("synth", "--out", str(a), "--units", "40", "--seed", "3")
        cli("synth", "--out", str(b), "--units", "40", "--seed", "3")
        for name in ("training.csv", "inference.csv", "sales.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_output_under_a_regular_file_is_an_io_error(self, tmp_path: Path, cli) -> None:
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        code, out, err = cli("synth", "--out", str(blocker / "data"), "--units", "5")
        assert (code, out) == (EXIT_IO, "")
        assert str(blocker / "data") in err
        assert "Traceback" not in err

    def test_rejects_bad_spec(self, tmp_path: Path, cli) -> None:
        code, _, err = cli(
            "synth", "--out", str(tmp_path / "x"), "--units", "0", "--seed", "3"
        )
        assert code == EXIT_USAGE
        assert "n_units" in err


class TestPerformanceFlow:
    def test_performance_monitor_via_cli(self, tmp_path: Path, cli) -> None:
        store = str(tmp_path / "store")
        data = tmp_path / "data"
        cli("synth", "--out", str(data), "--units", "150", "--seed", "11")
        cli("register-model", "--store", store, "--id", "m1")
        code, _, err = cli(
            "set-monitor", "--store", store, "--model", "m1", "--id", "p1",
            "--kind", "performance",
        )
        assert code == EXIT_OK, err
        code, out, err = cli(
            "run-monitor", "--store", store, "--model", "m1", "--monitor", "p1",
            "--date", "2022-03-20", "--data", str(data / "inference.csv"),
            "--sales", str(data / "sales.csv"), "--format", "doc",
        )
        assert code == EXIT_OK, err
        doc = loads_doc(out.splitlines()[0])
        assert doc["quantity"] == "velocity"
        assert set(doc["metrics"]) == {"mae", "wmape"}

    def test_sales_flag_is_required_for_performance(self, tmp_path: Path, cli) -> None:
        store = str(tmp_path / "store")
        data = tmp_path / "data"
        cli("synth", "--out", str(data), "--units", "50", "--seed", "2")
        cli("register-model", "--store", store, "--id", "m1")
        cli(
            "set-monitor", "--store", store, "--model", "m1", "--id", "p1",
            "--kind", "performance",
        )
        code, _, err = cli(
            "run-monitor", "--store", store, "--model", "m1", "--monitor", "p1",
            "--date", "2022-03-20", "--data", str(data / "inference.csv"),
        )
        assert code == EXIT_USAGE
        assert "--sales" in err


class TestRunMonitorCommand:
    def run(self, cli, store: str, data: Path, *extra: str) -> tuple[int, str, str]:
        return cli(
            "run-monitor", "--store", store, "--model", "m1", "--monitor", "d1",
            "--date", "2022-03-21", "--data", str(data / "inference.csv"),
            "--format", "doc", *extra,
        )

    def test_reads_the_monitor_document_once(self, workspace, cli, monkeypatch) -> None:
        store, data = workspace
        reads = []
        get = FileStore.get

        def counting_get(self, key):
            reads.append(key.render())
            return get(self, key)

        monkeypatch.setattr(FileStore, "get", counting_get)
        code, _, err = self.run(cli, store, data)
        assert code == EXIT_OK, err
        assert reads.count("model/m1/monitor/d1") == 1

    def test_drift_run_ignores_a_valid_sales_file(self, workspace, cli) -> None:
        store, data = workspace

        def masked(out: str) -> list[dict]:
            docs = [loads_doc(line) for line in out.splitlines()]
            for doc in docs:
                del doc["context"]["computed_at"]
            return docs

        plain = self.run(cli, store, data)
        with_sales = self.run(cli, store, data, "--sales", str(data / "sales.csv"))
        assert plain[0] == with_sales[0] == EXIT_OK
        assert masked(with_sales[1]) == masked(plain[1])
        assert len(masked(plain[1])) == 2

    def test_drift_run_opens_a_given_sales_file(self, workspace, cli) -> None:
        store, data = workspace
        ghost = data / "ghost-sales.csv"
        code, out, err = self.run(cli, store, data, "--sales", str(ghost))
        assert (code, out) == (EXIT_IO, "")
        assert str(ghost) in err
