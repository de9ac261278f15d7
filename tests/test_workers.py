"""The forked workers: a drift run summarises a data file of 1 MiB or
more in one forked process per CPU, and a performance run sums a sales file
of 1 MiB or more in one forked process while it reads the predictions, with
the stored bytes, output, warnings, messages and exit codes of the
in-process read.

Every test reads the CPU set as two CPUs, whatever the machine has; a
worker that cannot be pinned to its CPU still runs.
"""

from __future__ import annotations

import logging
import os
import random
import re
import signal
import threading
from pathlib import Path

import pytest

from driftmon import SynthSpec, _fork, data, generate_synthetic, summary, synth
from driftmon.cli import EXIT_DOMAIN, EXIT_OK, main
from driftmon.data import assemble_velocity_pairs, open_dataset

HEADER = "unit_id,eval_date,prediction,f1,f2,f3\n"
#: Two workers take (prediction, f2) and (f1, f3).
QUANTITIES = ("prediction", "f1", "f2", "f3")
REAL_AFFINITY = os.sched_getaffinity
#: At least two CPUs, and every CPU this process may use: a performance run
#: pins this process to one of them while its worker runs, then restores the
#: mask it read.
TWO_OR_MORE = REAL_AFFINITY(0) if len(REAL_AFFINITY(0)) > 1 else REAL_AFFINITY(0) | {0, 1}


def rows(seed: int, shift: float) -> list[str]:
    """Data lines, without the header, filling 1 MiB with room to spare."""
    rng = random.Random(seed)
    lines: list[str] = []
    size = len(HEADER)
    while size < _fork.FORK_MIN_BYTES * 4 // 3:
        cells = (rng.lognormvariate(0, 1), rng.gauss(shift, 1), rng.gauss(0, 2), rng.random())
        lines.append(f"u{len(lines)},2022-03-20," + ",".join(map(repr, cells)) + "\n")
        size += len(lines[-1])
    return lines


@pytest.fixture(scope="module")
def days() -> dict[str, list[str]]:
    return {"training": rows(1, 0.0), "day": rows(2, 0.2)}


def with_cells(lines: list[str], changes: dict[tuple[int, str], str]) -> list[str]:
    """``lines`` with the cell of each (row, column) set to its value."""
    lines = list(lines)
    for (row, column), value in changes.items():
        cells = lines[row].rstrip("\n").split(",")
        cells[HEADER.rstrip("\n").split(",").index(column)] = value
        lines[row] = ",".join(cells) + "\n"
    return lines


def write(path: Path, lines: list[str], variant: str = "plain") -> Path:
    text = HEADER + "".join(lines)
    if variant == "crlf":
        text = text.replace("\n", "\r\n")
    elif variant == "bom":
        text = "﻿" + text
    elif variant == "quoted":  # the first block is not plain: csv reads the file
        text = text.replace("\nu0,", '\n"u0",', 1)
    path.write_bytes(text.encode("utf-8"))
    assert path.stat().st_size >= _fork.FORK_MIN_BYTES
    return path


@pytest.fixture
def forks(monkeypatch) -> list[int]:
    """The pid of each worker forked; the CPU set reads as two CPUs."""
    pids: list[int] = []
    real_fork = os.fork

    def fork() -> int:
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return pids


def assert_no_worker_left(affinity: set[int]) -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert REAL_AFFINITY(0) == affinity


def mask(text: str) -> str:
    return re.sub(r'"(computed_at|created_at)": "[^"]*"', r'"\1": X', text)


def lifecycle(
    capsys, caplog, monkeypatch, cpus: set[int], store: Path, training: Path, day: Path
) -> list[object]:
    """Snapshot ``training`` and run ``day`` on CPU set ``cpus``: each
    command's exit code, output, errors and warnings, then every stored
    document, with times masked."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
    seen: list[object] = []
    common = ("--store", str(store), "--model", "m1")
    steps = [
        ("register-model", "--store", str(store), "--id", "m1"),
        ("set-monitor", *common, "--id", "d1", "--kind", "drift",
         "--quantities", ",".join(QUANTITIES)),
        ("snapshot-baseline", *common, "--monitor", "d1", "--data", str(training)),
        ("run-monitor", *common, "--monitor", "d1", "--date", "2022-03-20",
         "--data", str(day), "--format", "doc"),
    ]
    for step in steps:
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            code = main(list(step))
        captured = capsys.readouterr()
        warnings = [(r.process, r.getMessage()) for r in caplog.records]
        seen.append((code, mask(captured.out), captured.err.replace(str(store), "STORE"), warnings))
    for path in sorted(store.rglob("*.json")):
        seen.append((path.relative_to(store).as_posix(), mask(path.read_text())))
    return seen


class TestSameBytesAsTheSerialPath:
    @pytest.mark.parametrize("variant", ["plain", "crlf", "bom", "quoted", "blanks"])
    def test_stored_documents_and_output(
        self, tmp_path: Path, days, forks, capsys, caplog, monkeypatch, variant: str
    ) -> None:
        training, day = days["training"], days["day"]
        if variant == "blanks":
            training = with_cells(training, {(5, "f1"): "", (9, "f2"): " ", (11, "f1"): ""})
            day = with_cells(day, {(3, "f3"): "", (4000, "prediction"): ""})
        files = tmp_path / "files"
        files.mkdir()
        training = write(files / "training.csv", training, variant)
        day = write(files / "day.csv", day, variant)
        affinity = REAL_AFFINITY(0)

        serial = lifecycle(capsys, caplog, monkeypatch, {0}, tmp_path / "serial", training, day)
        assert forks == []
        workers = lifecycle(capsys, caplog, monkeypatch, {0, 1}, tmp_path / "workers", training, day)
        assert len(forks) == 4  # two for the snapshot, two for the run
        assert_no_worker_left(affinity)
        assert workers == serial
        assert [step[0] for step in serial[:4]] == [EXIT_OK] * 4
        assert len(serial) == 4 + 3 + 4  # outputs; model, monitor, baseline; metrics
        if variant == "blanks":
            # Once each, in quantity order, from this process.
            assert [(pid, m.split(": ", 1)[1]) for pid, m in serial[2][3] + serial[3][3]] == [
                (os.getpid(), "skipped 2 blank cell(s) in column 'f1'"),
                (os.getpid(), "skipped 1 blank cell(s) in column 'f2'"),
                (os.getpid(), "skipped 1 blank cell(s) in column 'prediction'"),
                (os.getpid(), "skipped 1 blank cell(s) in column 'f3'"),
            ]


class TestFaults:
    @pytest.mark.parametrize(
        "changes",
        [
            {(6000, "f2"): "abc"},  # the first worker's column
            {(7000, "f1"): "x"},  # the second worker's column
            {(8000, "f2"): "abc", (3000, "f3"): "inf"},  # both: the first in file order
            {(3000, "f2"): "-inf", (8000, "f1"): "nan"},
        ],
        ids=["first-worker", "second-worker", "both-second-first", "both-first-first"],
    )
    def test_bad_cells_give_the_serial_message_and_exit_code(
        self, tmp_path: Path, days, forks, capsys, caplog, monkeypatch, changes
    ) -> None:
        training = write(tmp_path / "training.csv", with_cells(days["training"], changes))
        day = write(tmp_path / "day.csv", days["day"])
        affinity = REAL_AFFINITY(0)

        serial = lifecycle(capsys, caplog, monkeypatch, {0}, tmp_path / "serial", training, day)
        workers = lifecycle(capsys, caplog, monkeypatch, {0, 1}, tmp_path / "workers", training, day)
        assert len(forks) == 2  # the snapshot's; the run stops without a baseline
        assert_no_worker_left(affinity)
        assert workers == serial
        code, out, err, _ = serial[2]
        assert (code, out) == (1, "")
        row, column = min(changes)
        assert f"training.csv:{row + 2}: " in err and repr(column) in err

    def test_a_column_without_values_fails_after_its_warning(
        self, tmp_path: Path, days, forks, capsys, caplog, monkeypatch
    ) -> None:
        lines = with_cells(days["training"], {(i, "f3"): "" for i in range(len(days["training"]))})
        training = write(tmp_path / "training.csv", lines)
        day = write(tmp_path / "day.csv", days["day"])

        serial = lifecycle(capsys, caplog, monkeypatch, {0}, tmp_path / "serial", training, day)
        workers = lifecycle(capsys, caplog, monkeypatch, {0, 1}, tmp_path / "workers", training, day)
        assert len(forks) == 2
        assert_no_worker_left(REAL_AFFINITY(0))
        assert workers == serial
        code, _, err, warnings = serial[2]
        assert code == 1
        assert "column 'f3'" in err and "holds no usable values" in err
        assert [m.split(": ", 1)[1] for _, m in warnings] == [
            f"skipped {len(lines)} blank cell(s) in column 'f3'"
        ]

    @pytest.mark.parametrize("fault", ["worker-killed", "nothing-written", "fork-fails"])
    def test_a_worker_that_does_not_return_whole_is_rerun_in_process(
        self, tmp_path: Path, days, forks, monkeypatch, fault: str
    ) -> None:
        handle = open_dataset(write(tmp_path / "day.csv", days["day"]), "daily_inference")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        expected = summary._summarise(handle, QUANTITIES, 0.001, 100)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        parent = os.getpid()
        if fault == "worker-killed":
            sketches = summary._sketches

            def killed(*args):
                if os.getpid() != parent:
                    os.kill(os.getpid(), signal.SIGKILL)
                return sketches(*args)

            monkeypatch.setattr(summary, "_sketches", killed)
        elif fault == "nothing-written":  # and the worker exits 0
            monkeypatch.setattr(summary, "dumps_doc", lambda doc: "")
        else:

            def fork() -> int:
                raise OSError("no more processes")

            monkeypatch.setattr(os, "fork", fork)
        assert summary._summarise(handle, QUANTITIES, 0.001, 100) == expected
        assert_no_worker_left(REAL_AFFINITY(0))


class TestInProcess:
    def test_another_thread_alive_forks_nothing(self, tmp_path: Path, days, forks) -> None:
        handle = open_dataset(write(tmp_path / "day.csv", days["day"]), "daily_inference")
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            summaries = summary._summarise(handle, QUANTITIES, 0.001, 100)
        finally:
            release.set()
            other.join(timeout=30)
        assert not other.is_alive()
        assert forks == []
        assert [cdf.label for cdf in summaries] == list(QUANTITIES)

    @pytest.mark.parametrize("case", ["one-quantity", "small-file", "one-cpu"])
    def test_forks_nothing(self, tmp_path: Path, days, forks, monkeypatch, case: str) -> None:
        lines = days["day"][:100] if case == "small-file" else days["day"]
        path = tmp_path / "day.csv"
        path.write_text(HEADER + "".join(lines), encoding="utf-8")
        if case == "one-cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        quantities = QUANTITIES[:1] if case == "one-quantity" else QUANTITIES
        summaries = summary._summarise(
            open_dataset(path, "daily_inference"), quantities, 0.001, 100
        )
        assert forks == []
        assert [cdf.label for cdf in summaries] == list(quantities)


class TestInterrupted:
    def test_no_worker_outlives_an_interrupt(self, tmp_path: Path, days, forks, monkeypatch) -> None:
        """An interrupt arriving just after the first fork is raised only
        once every worker is reaped."""
        handle = open_dataset(write(tmp_path / "day.csv", days["day"]), "daily_inference")
        fork = os.fork

        def interrupted_fork() -> int:
            pid = fork()
            if pid:
                os.kill(os.getpid(), signal.SIGINT)
            return pid

        monkeypatch.setattr(os, "fork", interrupted_fork)
        with pytest.raises(KeyboardInterrupt):
            summary._summarise(handle, QUANTITIES, 0.001, 100)
        assert len(forks) == 1
        assert_no_worker_left(REAL_AFFINITY(0))


@pytest.fixture(scope="module")
def forecast(tmp_path_factory) -> tuple[list[str], list[str]]:
    """The lines, header first, of a 5e4-unit ``synth`` prediction file and
    of its sales file, which holds 1 MiB or more."""
    out = tmp_path_factory.mktemp("forecast")
    _, inference, sales = generate_synthetic(SynthSpec(n_units=50_000, seed=2), out)
    assert sales.path.stat().st_size >= _fork.FORK_MIN_BYTES
    return (
        inference.path.read_text().splitlines(keepends=True),
        sales.path.read_text().splitlines(keepends=True),
    )


def forecast_files(folder: Path, forecast, order: str = "sorted", edits=()) -> tuple[Path, Path]:
    """The ``forecast`` files in ``folder``, with the data rows of the
    files ``order`` names shuffled, then each ``(name, row, old, new)`` of
    ``edits`` applied: data row ``row`` (from 0) of file ``name``
    (``"pred"`` or ``"sales"``) with ``old`` replaced by ``new``."""
    folder.mkdir(exist_ok=True)
    lines = dict(zip(("pred", "sales"), map(list, forecast)))
    for name in lines:
        if name in order or order == "shuffled-both":
            header, *rows = lines[name]
            random.Random(7).shuffle(rows)
            lines[name] = [header, *rows]
    for name, row, old, new in edits:
        assert old in lines[name][row + 1]
        lines[name][row + 1] = lines[name][row + 1].replace(old, new, 1)
    paths = folder / "pred.csv", folder / "sales.csv"
    for path, name in zip(paths, ("pred", "sales")):
        path.write_text("".join(lines[name]), encoding="utf-8")
    return paths


def forecast_handles(folder: Path, forecast, order: str = "sorted"):
    """The handles of ``forecast_files(folder, forecast, order)``."""
    pred, sales = forecast_files(folder, forecast, order)
    return open_dataset(pred, "daily_inference"), open_dataset(sales, "daily_sales")


def performance_run(
    capsys, monkeypatch, cpus: set[int], store: Path, pred: Path, sales: Path
) -> list[object]:
    """A performance ``run-monitor`` of ``pred`` against ``sales`` on CPU
    set ``cpus``: its exit code, output and errors, then every stored
    document, with times masked."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
    common = ("--store", str(store), "--model", "m1")
    assert main(["register-model", "--store", str(store), "--id", "m1"]) == EXIT_OK
    assert main(["set-monitor", *common, "--id", "p1", "--kind", "performance"]) == EXIT_OK
    capsys.readouterr()
    code = main(
        ["run-monitor", *common, "--monitor", "p1", "--date", "2022-03-20",
         "--data", str(pred), "--sales", str(sales), "--format", "doc"]
    )
    captured = capsys.readouterr()
    seen: list[object] = [(code, mask(captured.out), captured.err.replace(str(store), "STORE"))]
    for path in sorted(store.rglob("*.json")):
        seen.append((path.relative_to(store).as_posix(), mask(path.read_text())))
    return seen


class TestForecastSameBytesAsTheSerialPath:
    @pytest.mark.parametrize(
        "order", ["sorted", "shuffled-sales", "shuffled-pred", "shuffled-both"]
    )
    def test_stored_documents_and_output(
        self, tmp_path: Path, forecast, forks, capsys, monkeypatch, order: str
    ) -> None:
        pred, sales = forecast_files(tmp_path / "files", forecast, order)
        affinity = REAL_AFFINITY(0)

        serial = performance_run(capsys, monkeypatch, {0}, tmp_path / "serial", pred, sales)
        assert forks == []
        worker = performance_run(capsys, monkeypatch, TWO_OR_MORE, tmp_path / "worker", pred, sales)
        assert len(forks) == 1
        assert_no_worker_left(affinity)
        assert worker == serial
        code, out, _ = serial[0]
        assert code == EXIT_OK and '"n": 50000' in out
        assert len(serial) == 1 + 3  # output; model, monitor, metric


class TestForecastFaults:
    @pytest.mark.parametrize(
        "edits,where",
        [
            ([("sales", 9000, "\n", "x\n")], "sales.csv:9002: cannot parse"),
            ([("sales", 9000, "\n", "x\n"), ("pred", 40000, ",2022-03-20,", ",2022-03-20,-")],
             "pred.csv:40002: negative value"),
        ],
        ids=["bad-sale", "bad-prediction-then-bad-sale"],
    )
    def test_bad_cells_give_the_serial_message_and_exit_code(
        self, tmp_path: Path, forecast, forks, capsys, monkeypatch, edits, where: str
    ) -> None:
        pred, sales = forecast_files(tmp_path / "files", forecast, edits=edits)
        affinity = REAL_AFFINITY(0)
        serial = performance_run(capsys, monkeypatch, {0}, tmp_path / "serial", pred, sales)
        worker = performance_run(capsys, monkeypatch, TWO_OR_MORE, tmp_path / "worker", pred, sales)
        assert len(forks) == 1
        assert_no_worker_left(affinity)
        assert worker == serial
        code, out, err = serial[0]
        assert (code, out) == (EXIT_DOMAIN, "")
        assert where in err

    def test_a_missing_window_day_is_the_same_precondition_error(
        self, tmp_path: Path, forecast, forks, capsys, monkeypatch
    ) -> None:
        """Every row of 2022-03-23 moves to 2022-03-29, outside the window;
        the file keeps its size."""
        edits = [
            ("sales", row, ",2022-03-23,", ",2022-03-29,")
            for row, line in enumerate(forecast[1][1:])
            if ",2022-03-23," in line
        ]
        pred, sales = forecast_files(tmp_path / "files", forecast, edits=edits)
        affinity = REAL_AFFINITY(0)
        serial = performance_run(capsys, monkeypatch, {0}, tmp_path / "serial", pred, sales)
        worker = performance_run(capsys, monkeypatch, TWO_OR_MORE, tmp_path / "worker", pred, sales)
        assert len(forks) == 1
        assert_no_worker_left(affinity)
        assert worker == serial
        code, _, err = serial[0]
        assert code == EXIT_DOMAIN
        assert "no rows at all for day(s) ['2022-03-23']" in err

    @pytest.mark.parametrize("order", ["sorted", "shuffled-sales"])
    @pytest.mark.parametrize("fault", ["worker-killed", "nothing-written", "fork-fails"])
    def test_a_worker_that_does_not_return_whole_is_rerun_in_process(
        self, tmp_path: Path, forecast, forks, monkeypatch, fault: str, order: str
    ) -> None:
        pred, sales = forecast_handles(tmp_path, forecast, order)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        expected = assemble_velocity_pairs(pred, sales, synth.PRODUCTION_DATE)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: TWO_OR_MORE)
        parent = os.getpid()
        if fault == "fork-fails":

            def fork() -> int:
                raise OSError("no more processes")

            monkeypatch.setattr(os, "fork", fork)
        else:
            reply = data._sales_reply

            def failing(*args):
                if os.getpid() != parent:
                    if fault == "worker-killed":
                        os.kill(os.getpid(), signal.SIGKILL)
                    return []  # and the worker exits 0
                return reply(*args)

            monkeypatch.setattr(data, "_sales_reply", failing)
        affinity = REAL_AFFINITY(0)
        got = assemble_velocity_pairs(pred, sales, synth.PRODUCTION_DATE)
        assert len(forks) == (fault != "fork-fails")
        assert [a.tobytes() for a in got[:2]] + [got[2]] == [
            a.tobytes() for a in expected[:2]
        ] + [expected[2]]
        assert_no_worker_left(affinity)


class TestForecastInProcess:
    def test_another_thread_alive_forks_nothing(
        self, tmp_path: Path, forecast, forks, monkeypatch
    ) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: TWO_OR_MORE)
        pred, sales = forecast_handles(tmp_path, forecast)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            predicted, _, _ = assemble_velocity_pairs(pred, sales, synth.PRODUCTION_DATE)
        finally:
            release.set()
            other.join(timeout=30)
        assert not other.is_alive()
        assert forks == []
        assert len(predicted) == 50_000

    @pytest.mark.parametrize("case", ["small-file", "one-cpu"])
    def test_forks_nothing(self, tmp_path: Path, forecast, forks, monkeypatch, case: str) -> None:
        if case == "small-file":  # the rows of the first 25000 units
            header, *rows = forecast[1]
            forecast = forecast[0], [header] + [line for line in rows if line < "u25001"]
        pred, sales = forecast_handles(tmp_path, forecast)
        assert (sales.path.stat().st_size < _fork.FORK_MIN_BYTES) == (case == "small-file")
        cpus = {0} if case == "one-cpu" else TWO_OR_MORE
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        predicted, _, _ = assemble_velocity_pairs(pred, sales, synth.PRODUCTION_DATE)
        assert forks == []
        assert len(predicted) == 50_000


class TestForecastInterrupted:
    @pytest.mark.parametrize("when", ["after-fork", "reading-predictions"])
    def test_no_worker_outlives_an_interrupt(
        self, tmp_path: Path, forecast, forks, monkeypatch, when: str
    ) -> None:
        """An interrupt arriving just after the fork is raised only once
        the worker is reaped; one arriving while this process, pinned, reads
        the predictions also leaves its affinity mask as it was."""
        pred, sales = forecast_handles(tmp_path, forecast)
        affinity = REAL_AFFINITY(0)
        if when == "after-fork":
            fork = os.fork

            def interrupted_fork() -> int:
                pid = fork()
                if pid:
                    os.kill(os.getpid(), signal.SIGINT)
                return pid

            monkeypatch.setattr(os, "fork", interrupted_fork)
        else:
            blocks = data._prediction_blocks

            def interrupted_blocks(*args):
                for k, block in enumerate(blocks(*args)):
                    if k == 50:
                        assert len(REAL_AFFINITY(0)) == 1  # pinned
                        os.kill(os.getpid(), signal.SIGINT)
                    yield block

            monkeypatch.setattr(data, "_prediction_blocks", interrupted_blocks)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: TWO_OR_MORE)
        with pytest.raises(KeyboardInterrupt):
            assemble_velocity_pairs(pred, sales, synth.PRODUCTION_DATE)
        assert len(forks) == 1
        assert_no_worker_left(affinity)
