"""The drift path's summary workers: a data file of 1 MiB or more is
summarised by one forked process per CPU, with the stored bytes, output,
warnings, messages and exit codes of the in-process read.

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

from driftmon import summary
from driftmon.cli import EXIT_OK, main
from driftmon.data import open_dataset

HEADER = "unit_id,eval_date,prediction,f1,f2,f3\n"
#: Two workers take (prediction, f2) and (f1, f3).
QUANTITIES = ("prediction", "f1", "f2", "f3")
REAL_AFFINITY = os.sched_getaffinity


def rows(seed: int, shift: float) -> list[str]:
    """Data lines, without the header, filling 1 MiB with room to spare."""
    rng = random.Random(seed)
    lines: list[str] = []
    size = len(HEADER)
    while size < summary._FORK_MIN_BYTES * 4 // 3:
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
    assert path.stat().st_size >= summary._FORK_MIN_BYTES
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
