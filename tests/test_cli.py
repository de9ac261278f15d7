"""Tests for the command-line interface, run in-process."""

from __future__ import annotations

import csv
import io
import json
import math
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

    def test_repeated_quantity_is_a_usage_error_that_stores_nothing(
        self, tmp_path: Path, cli
    ) -> None:
        store = tmp_path / "s"
        cli("register-model", "--store", str(store), "--id", "m1")
        code, _, err = cli(
            "set-monitor", "--store", str(store), "--model", "m1", "--id", "d1",
            "--kind", "drift", "--quantities", "f1,f2,f1",
        )
        assert code == EXIT_USAGE
        assert "quantity 'f1'" in err
        assert not (store / "model" / "m1").exists()

    @pytest.mark.parametrize(
        "flag,value,field",
        [("--epsilon", "0.05", "epsilon"), ("--cdf-points", "7", "cdf_points"),
         ("--density-bins", "9", "density_bins")],
    )
    def test_resolution_of_a_performance_monitor_is_a_usage_error(
        self, tmp_path: Path, cli, flag: str, value: str, field: str
    ) -> None:
        store = tmp_path / "s"
        cli("register-model", "--store", str(store), "--id", "m1")
        code, _, err = cli(
            "set-monitor", "--store", str(store), "--model", "m1", "--id", "p1",
            "--kind", "performance", flag, value,
        )
        assert code == EXIT_USAGE
        assert f"takes no {field}" in err
        assert not (store / "model" / "m1").exists()

    def test_set_monitor_help_shows_the_resolution_defaults(self, cli) -> None:
        code, out, _ = cli("set-monitor", "--help")
        assert code == EXIT_OK
        text = " ".join(out.split())
        assert "sketch rank-error budget (default: 0.001)" in text
        assert "quantile grid size (default: 100)" in text
        assert "histogram bins for overlap (default: 100)" in text

    @pytest.mark.parametrize(
        "kind,flags,field",
        [
            ("threshold", ("--from", "2022-03-20"), "date_from"),
            ("threshold", ("--sample-size", "5"), "sample_size"),
            ("report", ("--threshold", "0.5"), "threshold"),
            ("report", ("--metric", "mae"), "metric_name"),
        ],
    )
    def test_the_other_kinds_reaction_flag_is_a_usage_error(
        self, tmp_path: Path, cli, kind: str, flags: tuple[str, ...], field: str
    ) -> None:
        store = tmp_path / "s"
        cli("register-model", "--store", str(store), "--id", "m1")
        cli("set-monitor", "--store", str(store), "--model", "m1", "--id", "p1",
            "--kind", "performance")
        own = {
            "threshold": ("--metric", "mae", "--comparator", ">", "--threshold", "1.0"),
            "report": ("--from", "2022-03-20", "--to", "2022-03-27", "--sample-size", "5"),
        }[kind]
        code, _, err = cli(
            "set-reaction", "--store", str(store), "--model", "m1", "--id", "r1",
            "--kind", kind, "--monitor", "p1", *own, *flags,
        )
        assert code == EXIT_USAGE
        assert f"{kind} reaction takes no {field}" in err
        assert not (store / "model" / "m1" / "reaction").exists()

    def test_missing_store_root_is_a_usage_error(self, cli, monkeypatch) -> None:
        monkeypatch.delenv("MON_STORE_ROOT", raising=False)
        code, _, err = cli("register-model", "--id", "m1")
        assert code == EXIT_USAGE
        assert "MON_STORE_ROOT" in err

    def test_store_root_that_is_a_file_is_an_io_error(self, tmp_path: Path, cli) -> None:
        root = tmp_path / "s"
        root.write_text("not a directory\n", encoding="utf-8")
        code, out, err = cli("register-model", "--store", str(root), "--id", "m1")
        assert (code, out) == (EXIT_IO, "")
        assert f"cannot create store root {root}" in err
        assert "Traceback" not in err

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

    def test_truncated_model_document_is_an_io_error(self, workspace, cli) -> None:
        """A monitor is stored only under a model whose document decodes."""
        store, _ = workspace
        Path(store, "model/m1.json").write_text('{"created_at": 5', encoding="utf-8")
        code, out, err = cli(
            "set-monitor", "--store", store, "--model", "m1", "--id", "p1",
            "--kind", "performance",
        )
        assert (code, out) == (EXIT_IO, "")
        assert "corrupt document model/m1" in err
        assert "Traceback" not in err
        assert not Path(store, "model/m1/monitor/p1.json").exists()

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_baseline_breakpoint_is_an_io_error(self, workspace, cli, bad) -> None:
        """``json`` reads ``NaN`` and ``Infinity``; the store does not."""
        store, data = workspace
        key = "model/m1/monitor/d1/baseline"
        path = Path(store, key + ".json")
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["summaries"][0]["breakpoints"][-1] = bad
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = cli(
            "run-monitor", "--store", store, "--model", "m1", "--monitor", "d1",
            "--date", "2022-03-20", "--data", str(data / "inference.csv"),
        )
        assert code == EXIT_IO
        assert f"corrupt document {key}" in err
        assert "Traceback" not in err

    def test_nan_metric_value_is_an_io_error(self, workspace, cli) -> None:
        store, _ = workspace
        key = "model/m1/monitor/d1/metrics/2022-03-20/f1"
        path = Path(store, key + ".json")
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["metrics"]["ks_distance"] = math.nan
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = cli(
            "get-metrics", "--store", store, "--model", "m1", "--monitor", "d1",
            "--from", "2022-03-20", "--to", "2022-03-20",
        )
        assert code == EXIT_IO
        assert f"corrupt document {key}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["table", "csv", "doc"])
    def test_overflowing_metric_value_is_an_io_error(self, workspace, cli, fmt) -> None:
        """``json`` reads ``1e400`` as infinity, which no metric can be."""
        store, _ = workspace
        key = "model/m1/monitor/d1/metrics/2022-03-20/f1"
        path = Path(store, key + ".json")
        body = path.read_text(encoding="utf-8")
        doc = json.loads(body)
        old = f'"ks_distance": {doc["metrics"]["ks_distance"]!r}'
        assert old in body
        path.write_text(body.replace(old, '"ks_distance": 1e400'), encoding="utf-8")
        code, out, err = cli(
            "get-metrics", "--store", store, "--model", "m1", "--monitor", "d1",
            "--from", "2022-03-20", "--to", "2022-03-20", "--format", fmt,
        )
        assert code == EXIT_IO
        assert f"corrupt document {key}" in err
        assert "ks_distance" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["table", "csv", "doc"])
    def test_metric_with_a_non_string_quantity_is_an_io_error(self, workspace, cli, fmt) -> None:
        """Queries sort records by quantity; a number there is corrupt."""
        store, _ = workspace
        key = "model/m1/monitor/d1/metrics/2022-03-20/f1"
        path = Path(store, key + ".json")
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["quantity"] = 5
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = cli(
            "get-metrics", "--store", store, "--model", "m1", "--monitor", "d1",
            "--from", "2022-03-20", "--to", "2022-03-20", "--format", fmt,
        )
        assert (code, out) == (EXIT_IO, "")
        assert f"corrupt document {key}" in err
        assert "quantity" in err
        assert "Traceback" not in err

    def test_non_integer_stored_cdf_points_is_an_io_error(self, workspace, cli) -> None:
        """``2.5`` is not truncated to a 2-point grid."""
        store, data = workspace
        key = "model/m1/monitor/d1"
        path = Path(store, key + ".json")
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["parameters"]["cdf_points"] = 2.5
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = cli(
            "snapshot-baseline", "--store", store, "--model", "m1", "--monitor", "d1",
            "--data", str(data / "training.csv"),
        )
        assert (code, out) == (EXIT_IO, "")
        assert f"corrupt document {key}" in err
        assert "cdf_points" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field", ["cdf_points", "density_bins"])
    def test_resolution_past_the_bound_is_rejected(self, workspace, cli, field) -> None:
        """A resolution too large to build a grid for is a usage error when
        set and a corrupt document when stored; no grid is allocated."""
        store, data = workspace
        code, out, err = cli(
            "set-monitor", "--store", store, "--model", "m1", "--id", "d2",
            "--kind", "drift", "--quantities", "f1", f"--{field.replace('_', '-')}", str(10**400),
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert f"{field} must be in" in err
        assert "Traceback" not in err
        assert not Path(store, "model/m1/monitor/d2.json").exists()
        key = "model/m1/monitor/d1"
        path = Path(store, key + ".json")
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["parameters"][field] = 10**400
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = cli(
            "snapshot-baseline", "--store", store, "--model", "m1", "--monitor", "d1",
            "--data", str(data / "training.csv"),
        )
        assert (code, out) == (EXIT_IO, "")
        assert f"corrupt document {key}" in err
        assert field in err
        assert "Traceback" not in err

    def test_stored_document_that_is_not_utf8_is_an_io_error(self, workspace, cli) -> None:
        store, _ = workspace
        with open(Path(store, "model", "m1.json"), "ab") as handle:
            handle.write(b"\xe9")
        code, _, err = cli(
            "set-monitor", "--store", store, "--model", "m1", "--id", "d2",
            "--kind", "drift", "--quantities", "f1",
        )
        assert code == EXIT_IO
        assert "model/m1" in err
        assert "not UTF-8" in err
        assert "Traceback" not in err

    def test_column_past_the_sketch_cap_is_a_usage_error(
        self, workspace, cli, monkeypatch
    ) -> None:
        """A day with more values than a sketch takes, shown here with the
        cap lowered, fails naming the file and column, and stores nothing."""
        store, data = workspace
        monkeypatch.setattr("driftmon.sketch._MAX_COUNT", 50)
        code, out, err = cli(
            "run-monitor", "--store", store, "--model", "m1", "--monitor", "d1",
            "--date", "2022-03-21", "--data", str(data / "inference.csv"),
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "Traceback" not in err
        assert "inference.csv" in err and "at most 50 observations" in err
        metrics = Path(store) / "model" / "m1" / "monitor" / "d1" / "metrics"
        assert not (metrics / "2022-03-21").exists()

    def test_invalid_date_is_a_usage_error(self, tmp_path: Path, cli) -> None:
        code, _, err = cli(
            "run-monitor", "--store", str(tmp_path / "s"), "--model", "m1",
            "--monitor", "d1", "--date", "not-a-date", "--data", "x.csv",
        )
        assert code == EXIT_USAGE
        assert "not an ISO date" in err

    @pytest.mark.parametrize(
        "corrupt,message",
        [
            (lambda f1, p: [f1, p, {**p, "sample_count": 3}], "'prediction' is listed twice"),
            (lambda f1, p: {"f1": f1, "prediction": p}, "summaries must be a list of objects"),
            (lambda f1, p: [f1, [p]], "summaries must be a list of objects"),
        ],
        ids=["a quantity listed twice", "not a list", "a summary that is not an object"],
    )
    def test_corrupt_baseline_is_an_io_error(self, workspace, cli, corrupt, message) -> None:
        store, data = workspace
        key = "model/m1/monitor/d1/baseline"
        path = Path(store, key + ".json")
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["summaries"] = corrupt(*doc["summaries"])
        path.write_text(json.dumps(doc))
        code, out, err = cli(
            "run-monitor", "--store", store, "--model", "m1", "--monitor", "d1",
            "--date", "2022-03-21", "--data", str(data / "inference.csv"),
        )
        assert (code, out) == (EXIT_IO, "")
        assert f"corrupt document {key}" in err
        assert message in err
        assert "Traceback" not in err

    def test_baselines_of_the_per_quantity_layout_are_missing(self, workspace, cli) -> None:
        """A store written when each quantity had its own baseline document
        has no baseline document: a drift run asks for a new snapshot."""
        store, data = workspace
        monitor = Path(store, "model/m1/monitor/d1")
        baseline = json.loads((monitor / "baseline.json").read_text(encoding="utf-8"))
        (monitor / "baseline.json").unlink()
        (monitor / "baseline").mkdir()
        for doc in baseline["summaries"]:
            (monitor / "baseline" / f"{doc['label']}.json").write_text(dumps_doc(doc))
        code, out, err = cli(
            "run-monitor", "--store", store, "--model", "m1", "--monitor", "d1",
            "--date", "2022-03-21", "--data", str(data / "inference.csv"),
        )
        assert (code, out) == (EXIT_DOMAIN, "")
        assert "no baseline for quantity 'f1'; run snapshot-baseline first" in err
        code, out, _ = cli(
            "delete", "--store", store, "--kind", "monitor", "--model", "m1", "--monitor", "d1",
        )
        assert code == EXIT_OK
        assert "3" in out  # config + the 2 old baselines
        assert not (monitor / "baseline").exists()

    def test_a_baseline_of_the_list_form_is_missing(self, workspace, cli) -> None:
        """A baseline stored as a bare list of summaries names no resolution
        and holds no baseline: a drift run asks for a new snapshot."""
        store, data = workspace
        path = Path(store, "model/m1/monitor/d1/baseline.json")
        path.write_text(dumps_doc(json.loads(path.read_text(encoding="utf-8"))["summaries"]))
        code, out, err = cli(
            "run-monitor", "--store", store, "--model", "m1", "--monitor", "d1",
            "--date", "2022-03-21", "--data", str(data / "inference.csv"),
        )
        assert (code, out) == (EXIT_DOMAIN, "")
        assert "no baseline for quantity 'f1'; run snapshot-baseline first" in err
        code, out, _ = cli(
            "delete", "--store", store, "--kind", "monitor", "--model", "m1", "--monitor", "d1",
        )
        assert (code, out) == (EXIT_OK, "deleted 2\n")  # config + the old baseline
        assert not path.exists()

    def test_deeply_nested_document_is_an_io_error(self, workspace, cli) -> None:
        """Nesting past the JSON decoder's recursion limit is corrupt, not a
        ``RecursionError`` traceback."""
        store, data = workspace
        key = "model/m1/monitor/d1"
        Path(store, key + ".json").write_text("[" * 5000 + "]" * 5000, encoding="utf-8")
        code, out, err = cli(
            "snapshot-baseline", "--store", store, "--model", "m1", "--monitor", "d1",
            "--data", str(data / "training.csv"),
        )
        assert (code, out) == (EXIT_IO, "")
        assert f"corrupt document {key}: RecursionError" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "copy_to", ["2022-03-19/f1", "2022-03-20/f2"], ids=["another day", "another quantity"]
    )
    def test_metric_under_another_key_is_an_io_error(self, workspace, cli, copy_to) -> None:
        """A metric record must sit at its own eval_date and quantity: a
        query, a report and a threshold reaction that meet a copy elsewhere
        fail naming the copy's key."""
        store, _ = workspace
        key = f"model/m1/monitor/d1/metrics/{copy_to}"
        metrics = Path(store, "model/m1/monitor/d1/metrics")
        (metrics / copy_to).parent.mkdir(exist_ok=True)
        shutil.copyfile(metrics / "2022-03-20/f1.json", metrics / f"{copy_to}.json")
        common = ("--store", store, "--model", "m1")
        for kind, flags in (
            ("threshold", ("--metric", "ks_distance", "--comparator", ">=", "--threshold", "0.0")),
            ("report", ("--from", "2022-03-19", "--to", "2022-03-20", "--sample-size", "2")),
        ):
            code, _, err = cli(
                "set-reaction", *common, "--id", kind, "--kind", kind, "--monitor", "d1", *flags
            )
            assert code == EXIT_OK, err
        day = copy_to.split("/")[0]
        commands = [
            ("get-metrics", *common, "--monitor", "d1", "--from", day, "--to", day)
            + ("--format", fmt)
            for fmt in ("table", "csv", "doc")
        ] + [
            ("run-reaction", *common, "--reaction", reaction, "--as-of", day)
            for reaction in ("threshold", "report")
        ]
        for command in commands:
            code, out, err = cli(*command)
            assert (code, out) == (EXIT_IO, ""), command
            assert f"corrupt document {key}: its record belongs at " in err
            assert "model/m1/monitor/d1/metrics/2022-03-20/f1" in err
            assert "Traceback" not in err
        assert not Path(store, "model/m1/reaction/threshold/log").exists()
        assert not Path(store, "model/m1/reaction/report/log").exists()

    def test_log_under_another_time_is_an_io_error(self, workspace, cli) -> None:
        """A log must sit at its own ``created_at`` in key form."""
        store, _ = workspace
        reaction = ("--store", store, "--model", "m1", "--reaction", "r1")
        cli(
            "set-reaction", "--store", store, "--model", "m1", "--id", "r1",
            "--kind", "threshold", "--monitor", "d1", "--metric", "ks_distance",
            "--comparator", ">=", "--threshold", "0.0",
        )
        assert cli("run-reaction", *reaction, "--as-of", "2022-03-25")[0] == EXIT_OK
        (path,) = Path(store, "model/m1/reaction/r1/log").glob("*.json")
        path.rename(path.with_name("20220101T000000.000000Z.json"))
        for window in ((), ("--from", "2022-01-01T00:00:00Z", "--to", "2022-01-01T00:00:00Z")):
            for fmt in ("table", "csv", "doc"):
                code, out, err = cli("get-logs", *reaction, *window, "--format", fmt)
                assert (code, out) == (EXIT_IO, "")
                assert (
                    "corrupt document model/m1/reaction/r1/log/20220101T000000.000000Z: "
                    f"its record belongs at model/m1/reaction/r1/log/{path.stem}"
                ) in err
                assert "Traceback" not in err

    @pytest.mark.parametrize(
        "kind",
        ["model", "monitor", "monitor under another model", "reaction", "metric", "log",
         "baseline"],
    )
    def test_record_under_another_id_is_an_io_error(self, workspace, cli, kind) -> None:
        """A record is read only at the key its own ids name: every command
        that meets a copy under another model, monitor or reaction id fails
        naming the copy's key and the record's own, and writes nothing."""
        store, data = workspace
        on = ("--store", store, "--model")
        threshold = ("--kind", "threshold", "--metric", "ks_distance", "--comparator", ">=")
        threshold += ("--threshold", "0.0")
        for step in [
            ("register-model", "--store", store, "--id", "m2"),
            ("set-monitor", *on, "m1", "--id", "d9", "--kind", "drift", "--quantities", "f1"),
            ("set-reaction", *on, "m1", "--id", "r1", "--monitor", "d1", *threshold),
            ("set-reaction", *on, "m1", "--id", "r9", "--monitor", "d9", *threshold),
            ("run-reaction", *on, "m1", "--reaction", "r1", "--as-of", "2022-03-20"),
        ]:
            code, _, err = cli(*step)
            assert code == EXIT_OK, err
        (log,) = Path(store, "model/m1/reaction/r1/log").glob("*.json")
        training = ("--data", str(data / "training.csv"))
        day = ("--date", "2022-03-21", "--data", str(data / "inference.csv"))
        # Per kind: the key a record is stored at, the key of its copy
        # under another id, and the commands that read the copy.
        source, copy, commands = {
            "model": ("model/m1", "model/m2", [
                ("set-monitor", *on, "m2", "--id", "p1", "--kind", "performance"),
                ("set-reaction", *on, "m2", "--id", "r1", "--monitor", "d1", *threshold),
            ]),
            "monitor": ("model/m1/monitor/d1", "model/m1/monitor/d8", [
                ("snapshot-baseline", *on, "m1", "--monitor", "d8", *training),
                ("run-monitor", *on, "m1", "--monitor", "d8", *day),
                ("set-reaction", *on, "m1", "--id", "r8", "--monitor", "d8", *threshold),
            ]),
            "monitor under another model": ("model/m1/monitor/d1", "model/m2/monitor/d1", [
                ("snapshot-baseline", *on, "m2", "--monitor", "d1", *training),
                ("run-monitor", *on, "m2", "--monitor", "d1", *day),
                ("set-reaction", *on, "m2", "--id", "r1", "--monitor", "d1", *threshold),
            ]),
            "baseline": ("model/m1/monitor/d1/baseline", "model/m1/monitor/d8/baseline", [
                ("run-monitor", *on, "m1", "--monitor", "d8", *day),
            ]),
            "reaction": ("model/m1/reaction/r1", "model/m1/reaction/r8", [
                ("run-reaction", *on, "m1", "--reaction", "r8", "--as-of", "2022-03-20"),
            ]),
            "metric": (
                "model/m1/monitor/d1/metrics/2022-03-20/f1",
                "model/m1/monitor/d9/metrics/2022-03-20/f1",
                [
                    ("get-metrics", *on, "m1", "--monitor", "d9", "--from", "2022-03-20",
                     "--to", "2022-03-20", "--format", fmt)
                    for fmt in ("table", "csv", "doc")
                ] + [("run-reaction", *on, "m1", "--reaction", "r9", "--as-of", "2022-03-20")],
            ),
            "log": (
                f"model/m1/reaction/r1/log/{log.stem}",
                f"model/m1/reaction/r9/log/{log.stem}",
                [
                    ("get-logs", *on, "m1", "--reaction", "r9", "--format", fmt)
                    for fmt in ("table", "csv", "doc")
                ],
            ),
        }[kind]
        if kind == "model":
            Path(store, "model/m2.json").unlink()
        if kind == "baseline":  # a monitor that d1's baseline would answer for
            assert cli("set-monitor", *on, "m1", "--id", "d8", "--kind", "drift", "--quantities",
                       "f1,prediction", "--epsilon", "0.01", "--cdf-points", "25")[0] == EXIT_OK
        Path(store, copy).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(Path(store, source + ".json"), Path(store, copy + ".json"))
        before = {p: p.read_bytes() for p in Path(store).rglob("*") if p.is_file()}
        for command in commands:
            code, out, err = cli(*command)
            assert (code, out) == (EXIT_IO, ""), command
            assert f"corrupt document {copy}: its record belongs at {source}\n" in err
            assert "Traceback" not in err
        assert {p: p.read_bytes() for p in Path(store).rglob("*") if p.is_file()} == before


#: Stored fields of the wrong JSON type, each of which an older decoder
#: coerced into a value: (document, field, stored value, command that reads
#: it, other fields set so that the coerced value would make a valid record).
WRONG_TYPES = [
    ("baseline", "sample_count", 7.9, "run-monitor", {}),
    ("baseline", "breakpoints", "12", "run-monitor", {"probabilities": [0.5, 1.0]}),
    ("baseline", "label", 5, "run-monitor", {}),
    # The baseline's resolution, as the workspace monitor's would be coerced.
    ("baseline", "epsilon", "0.01", "run-monitor", {}),
    ("baseline", "cdf_points", 25.0, "run-monitor", {}),
    ("monitor", "quantities", "f1", "run-monitor", {}),
    ("threshold", "threshold", True, "run-reaction", {}),
    ("threshold", "threshold", "0.2", "run-reaction", {}),
    ("threshold", "metric_name", 5, "run-reaction", {}),
    ("report", "sample_size", 2.9, "run-reaction", {}),
    ("metric", "metrics", {"ks_distance": "0.1"}, "get-metrics", {}),
    ("metric", "context", [["n", 1]], "get-metrics", {}),
    ("log", "body", [["a", 1]], "get-logs", {}),
    # Parameters that are not an object, or that name a field no monitor has.
    ("monitor", "parameters", [], "run-monitor", {}),
    ("monitor", "parameters", {"epsilon": 0.01, "bins": 5}, "run-monitor", {}),
    # Dates in other ISO 8601 forms than ``YYYY-MM-DD``.
    ("metric", "eval_date", "20220320", "get-metrics", {}),
    ("report", "date_to", "2022-W12-1", "run-reaction", {}),
]


class TestWrongTypesInStoredDocuments:
    @pytest.mark.parametrize(
        "document,field,value,command,others",
        WRONG_TYPES,
        ids=[f"{doc}.{field}={value!r}" for doc, field, value, *_ in WRONG_TYPES],
    )
    def test_is_a_corrupt_document(
        self, workspace, cli, document, field, value, command, others
    ) -> None:
        store, data = workspace
        common = ("--store", store, "--model", "m1")
        for step in [
            ("set-reaction", *common, "--id", "threshold", "--kind", "threshold", "--monitor",
             "d1", "--metric", "ks_distance", "--comparator", ">=", "--threshold", "0.0"),
            ("set-reaction", *common, "--id", "report", "--kind", "report", "--monitor", "d1",
             "--from", "2022-03-01", "--to", "2022-03-31", "--sample-size", "5"),
            ("run-reaction", *common, "--reaction", "threshold", "--as-of", "2022-03-25"),
        ]:
            assert cli(*step)[0] == EXIT_OK
        key = {
            "baseline": "model/m1/monitor/d1/baseline",
            "monitor": "model/m1/monitor/d1",
            "threshold": "model/m1/reaction/threshold",
            "report": "model/m1/reaction/report",
            "metric": "model/m1/monitor/d1/metrics/2022-03-20/f1",
            "log": "model/m1/reaction/threshold/log",
        }[document]
        if document == "log":
            (path,) = Path(store, key).glob("*.json")
            key += "/" + path.stem
        path = Path(store, key + ".json")
        doc = json.loads(path.read_text(encoding="utf-8"))
        # A baseline's summaries list the monitor's quantities; f1 is first.
        target = doc["summaries"][0] if document == "baseline" and field not in doc else doc
        assert field in target
        target.update({field: value, **others})
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = {
            "run-monitor": ("--monitor", "d1", "--date", "2022-03-21", "--data",
                            str(data / "inference.csv")),
            "run-reaction": ("--reaction", document, "--as-of", "2022-03-25"),
            "get-metrics": ("--monitor", "d1", "--from", "2022-03-20", "--to", "2022-03-20"),
            "get-logs": ("--reaction", "threshold"),
        }[command]
        code, out, err = cli(command, *common, *argv)
        assert (code, out) == (EXIT_IO, "")
        assert f"corrupt document {key}" in err
        assert field in err
        assert "Traceback" not in err


@pytest.fixture
def monitored(tmp_path: Path, cli):
    """A drift monitor with a baseline and a performance monitor, over
    600 synth units; no run yet."""
    store = str(tmp_path / "store")
    data = tmp_path / "data"
    # 600 units put every file, sales too, well past 8 KiB.
    assert cli("synth", "--out", str(data), "--units", "600", "--seed", "5")[0] == EXIT_OK
    steps = [
        ("register-model", "--store", store, "--id", "m1"),
        (
            "set-monitor", "--store", store, "--model", "m1", "--id", "d1",
            "--kind", "drift", "--quantities", "f1,prediction",
        ),
        ("set-monitor", "--store", store, "--model", "m1", "--id", "p1", "--kind", "performance"),
        (
            "snapshot-baseline", "--store", store, "--model", "m1",
            "--monitor", "d1", "--data", str(data / "training.csv"),
        ),
    ]
    for step in steps:
        code, _, err = cli(*step)
        assert code == EXIT_OK, err
    return store, data


#: The data file that each ``read_in`` case reads, or corrupts.
READ_BY = {
    "snapshot": "training", "drift": "inference", "predictions": "inference", "sales": "sales"
}


def read_in(cli, monitored, case: str) -> tuple[int, str, str]:
    """Run the command of ``case`` over the ``monitored`` files: a snapshot
    of the training file, a drift run, or a performance run (which reads
    both the predictions and the sales)."""
    store, data = monitored
    base = ("--store", store, "--model", "m1")
    run = ("run-monitor", *base, "--date", "2022-03-20")
    predictions, sales = str(data / "inference.csv"), str(data / "sales.csv")
    training = str(data / "training.csv")
    return cli(*{
        "snapshot": ("snapshot-baseline", *base, "--monitor", "d1", "--data", training),
        "drift": (*run, "--monitor", "d1", "--data", predictions),
        "predictions": (*run, "--monitor", "p1", "--data", predictions, "--sales", sales),
        "sales": (*run, "--monitor", "p1", "--data", predictions, "--sales", sales),
    }[case])


class TestOversizedCells:
    """A cell past ``csv.field_size_limit()`` is a schema error naming the
    file and line, wherever it sits and whichever columns a run reads."""

    @pytest.mark.parametrize("line", [1, 2, 401])
    @pytest.mark.parametrize("case", ["snapshot", "drift", "predictions", "sales"])
    def test_exits_one_naming_the_file_and_line(
        self, monitored, cli, case: str, line: int
    ) -> None:
        bad = monitored[1] / f"{READ_BY[case]}.csv"
        lines = bad.read_text(encoding="utf-8").splitlines(keepends=True)
        cells = lines[line - 1].split(",")
        cells[1 if case == "sales" else 3] = "9" * 200_000
        lines[line - 1] = ",".join(cells)
        bad.write_text("".join(lines), encoding="utf-8")
        code, out, err = read_in(cli, monitored, case)
        assert (code, out) == (EXIT_DOMAIN, "")
        assert f"{bad}:{line}: field larger than field limit (131072)" in err
        assert "Traceback" not in err


class TestNonUtf8DataFiles:
    """A latin-1 byte in a data file is a schema error naming the file,
    whether it sits in the header or past the first 8 KiB read."""

    @pytest.mark.parametrize("offset", [0, 9000])
    @pytest.mark.parametrize("case", ["snapshot", "drift", "predictions", "sales"])
    def test_exits_one_naming_the_file(self, monitored, cli, case: str, offset: int) -> None:
        bad = monitored[1] / f"{READ_BY[case]}.csv"
        raw = bytearray(bad.read_bytes())
        assert len(raw) > 9000
        # The first byte of the header, or of the first line starting past ``offset``.
        raw[raw.index(b"\n", offset) + 1 if offset else 0] = 0xE9
        bad.write_bytes(raw)
        code, out, err = read_in(cli, monitored, case)
        assert (code, out) == (EXIT_DOMAIN, "")
        assert f"{bad}: not UTF-8 text" in err
        assert "Traceback" not in err


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

    def test_stored_log_times_are_read_and_shown_in_utc(self, workspace, cli) -> None:
        """A stored ``created_at`` without a zone is UTC, and one in another
        zone is shown converted to UTC.  Each edited log is moved to the key
        its time names, as a log stored elsewhere is corrupt."""
        store, _ = workspace
        reaction = ("--store", store, "--model", "m1", "--reaction", "r1")
        cli(
            "set-reaction", "--store", store, "--model", "m1", "--id", "r1",
            "--kind", "threshold", "--monitor", "d1", "--metric", "ks_distance",
            "--comparator", ">=", "--threshold", "0.0",
        )
        assert cli("run-reaction", *reaction, "--as-of", "2022-03-25")[0] == EXIT_OK
        (path,) = Path(store, "model/m1/reaction/r1/log").glob("*.json")
        doc = json.loads(path.read_text(encoding="utf-8"))

        def move(name: str) -> None:
            nonlocal path
            path = path.rename(path.with_name(f"{name}.json"))

        doc["created_at"] = "2022-03-21T12:00:00.000000"
        move("20220321T120000.000000Z")
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = cli("get-logs", *reaction, "--from", "2022-01-01T00:00:00Z")
        assert code == EXIT_OK, err
        assert "2022-03-21T12:00:00Z" in out
        code, out, _ = cli("get-logs", *reaction, "--from", "2022-03-21T12:00:01Z")
        assert (code, out.splitlines()[1:]) == (EXIT_OK, [])

        doc["created_at"] = "2022-03-21T12:00:00.000000+02:00"
        move("20220321T100000.000000Z")
        path.write_text(json.dumps(doc), encoding="utf-8")
        for fmt in ("table", "csv"):
            code, out, err = cli("get-logs", *reaction, "--format", fmt)
            assert code == EXIT_OK, err
            assert "2022-03-21T10:00:00Z" in out
            assert "12:00:00" not in out
        code, out, _ = cli("get-logs", *reaction, "--format", "doc")
        assert loads_doc(out)["created_at"] == "2022-03-21T10:00:00.000000Z"

        # A zone that puts the time before year 1 in UTC: corrupt, not a traceback.
        doc["created_at"] = "0001-01-01T00:00:00.000000+02:00"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for fmt in ("table", "doc"):
            code, out, err = cli("get-logs", *reaction, "--format", fmt)
            assert (code, out) == (EXIT_IO, "")
            assert "corrupt document model/m1/reaction/r1/log/" in err
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
        assert "2" in out  # config + one baseline document of 2 quantities
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

    @pytest.mark.parametrize(
        "kind,ids,foreign",
        [
            ("monitor", ("--monitor", "d1", "--reaction", "zz"), "reaction_id"),
            ("metrics", ("--monitor", "d1", "--reaction", "zz"), "reaction_id"),
            ("reaction", ("--reaction", "r1", "--monitor", "d1"), "monitor_id"),
            ("logs", ("--reaction", "r1", "--monitor", "d1"), "monitor_id"),
        ],
    )
    def test_an_id_the_kind_does_not_take_is_a_usage_error(
        self, workspace, cli, kind: str, ids: tuple[str, ...], foreign: str
    ) -> None:
        store, _ = workspace
        before = sorted(Path(store).rglob("*"))
        code, out, err = cli("delete", "--store", store, "--kind", kind, "--model", "m1", *ids)
        assert (code, out) == (EXIT_USAGE, "")
        assert f"deleting {kind} takes no {foreign}" in err
        assert sorted(Path(store).rglob("*")) == before


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


class TestSetMonitorAndTheBaseline:
    """A baseline names the ``epsilon`` and ``cdf_points`` its summaries
    were taken at; ``set-monitor`` keeps it, and a drift run refuses it
    once the monitor names another resolution."""

    @pytest.fixture
    def snapshotted(self, tmp_path: Path, cli) -> tuple[str, Path]:
        store = str(tmp_path / "store")
        data = tmp_path / "data"
        assert cli("synth", "--out", str(data), "--units", "300", "--seed", "4")[0] == EXIT_OK
        steps = [
            ("register-model", "--store", store, "--id", "m1"),
            ("set-monitor", "--store", store, "--model", "m1", "--id", "d1", "--kind", "drift",
             "--quantities", "f1,prediction"),
            ("snapshot-baseline", "--store", store, "--model", "m1", "--monitor", "d1",
             "--data", str(data / "training.csv")),
        ]
        for step in steps:
            code, _, err = cli(*step)
            assert code == EXIT_OK, err
        return store, data

    def reset_and_run(self, cli, snapshotted, *flags: str) -> tuple[int, str, str]:
        store, data = snapshotted
        code, _, err = cli(
            "set-monitor", "--store", store, "--model", "m1", "--id", "d1", "--kind", "drift",
            *flags,
        )
        assert code == EXIT_OK, err
        return cli(
            "run-monitor", "--store", store, "--model", "m1", "--monitor", "d1",
            "--date", "2022-03-20", "--data", str(data / "inference.csv"), "--format", "doc",
        )

    @pytest.mark.parametrize(
        "flags",
        [("--cdf-points", "7", "--epsilon", "0.2"), ("--cdf-points", "7"), ("--epsilon", "0.2")],
    )
    def test_a_new_resolution_asks_for_a_new_snapshot(self, snapshotted, cli, flags) -> None:
        store, data = snapshotted
        baseline = Path(store, "model", "m1", "monitor", "d1", "baseline.json")
        before = baseline.read_bytes()
        code, out, err = self.reset_and_run(
            cli, snapshotted, "--quantities", "f1,prediction", *flags
        )
        assert (code, out) == (EXIT_DOMAIN, "")
        assert "the baseline is at epsilon 0.001, cdf_points 100" in err
        assert "run snapshot-baseline again" in err
        assert baseline.read_bytes() == before
        code, _, err = cli(
            "snapshot-baseline", "--store", store, "--model", "m1", "--monitor", "d1",
            "--data", str(data / "training.csv"),
        )
        assert code == EXIT_OK, err
        code, out, err = self.reset_and_run(
            cli, snapshotted, "--quantities", "f1,prediction", *flags
        )
        assert code == EXIT_OK, err
        assert len(out.splitlines()) == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ("--quantities", "f1,prediction"),
            ("--quantities", "f1,prediction", "--epsilon", "0.001", "--cdf-points", "100"),
            ("--quantities", "f1,prediction", "--density-bins", "9"),
            ("--quantities", "prediction"),
        ],
    )
    def test_the_same_resolution_keeps_the_baseline(self, snapshotted, cli, flags) -> None:
        store, _ = snapshotted
        baseline = Path(store, "model", "m1", "monitor", "d1", "baseline.json")
        before = baseline.read_bytes()
        code, out, err = self.reset_and_run(cli, snapshotted, *flags)
        assert code == EXIT_OK, err
        assert len(out.splitlines()) == len(flags[1].split(","))
        assert baseline.read_bytes() == before


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

    def test_drift_run_rejects_a_valid_sales_file(self, workspace, cli) -> None:
        """A drift monitor takes no sales: the run is a usage error naming
        the flag, and stores nothing."""
        store, data = workspace
        code, out, err = self.run(cli, store, data, "--sales", str(data / "sales.csv"))
        assert (code, out) == (EXIT_USAGE, "")
        assert "--sales" in err
        assert not Path(store, "model", "m1", "monitor", "d1", "metrics", "2022-03-21").exists()
        assert self.run(cli, store, data)[0] == EXIT_OK

    def test_drift_run_opens_a_given_sales_file(self, workspace, cli) -> None:
        store, data = workspace
        ghost = data / "ghost-sales.csv"
        code, out, err = self.run(cli, store, data, "--sales", str(ghost))
        assert (code, out) == (EXIT_IO, "")
        assert str(ghost) in err

    def test_a_day_spanning_the_float_range_has_finite_metrics(self, tmp_path: Path, cli) -> None:
        """Cells at -1e308 and 1e308: the density edges and the CDF between
        those breakpoints span more than the largest float, and still every
        stored metric is finite."""
        store = str(tmp_path / "store")
        header = "unit_id,eval_date,prediction,f1\n"
        for name, middle in (("train.csv", "0"), ("day.csv", "5")):
            cells = ("-1e308", middle, "1e308")
            rows = "".join(f"u{i},2022-03-20,1.0,{cell}\n" for i, cell in enumerate(cells))
            (tmp_path / name).write_text(header + rows, encoding="utf-8")
        steps = [
            ("register-model", "--store", store, "--id", "m1"),
            ("set-monitor", "--store", store, "--model", "m1", "--id", "d1", "--kind", "drift",
             "--quantities", "f1"),
            ("snapshot-baseline", "--store", store, "--model", "m1", "--monitor", "d1",
             "--data", str(tmp_path / "train.csv")),
            ("run-monitor", "--store", store, "--model", "m1", "--monitor", "d1",
             "--date", "2022-03-20", "--data", str(tmp_path / "day.csv"), "--format", "doc"),
        ]
        for step in steps:
            code, out, err = cli(*step)
            assert code == EXIT_OK, err
        metrics = json.loads(out)["metrics"]
        assert all(map(math.isfinite, metrics.values()))
        assert 0.0 < metrics["ks_distance"] < 1.0
