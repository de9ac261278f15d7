"""The benchmark's workloads: seeded inputs, command sequences and checks.

Each workload builds its inputs as three replicas, each made the same way
from the seed: data files from ``driftmon.synth.generate_synthetic`` and a
store prepared through the library.  Timing the replicas gives a median
set-up time, and the spare replicas give the traced run identical stores
for its untraced and traced passes.  The measured commands see only these
files and stores.

A workload yields cycles of ``Step``s without end (one production day,
say); the runner decides how many whole cycles to run.  Each step carries a check of the command's output, run after the
timed loop, against oracles computed here from the raw CSV files with
numpy and scipy, independently of driftmon's own code.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass
from datetime import date, timedelta
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from driftmon import (
    FileStore,
    MetricRecord,
    MonitorConfig,
    MonitorKind,
    MonitoringService,
    ReactionConfig,
    ReactionKind,
    StoreKey,
    SynthSpec,
    dumps_doc,
    generate_synthetic,
    ks_p_value,
)
from driftmon.synth import PRODUCTION_DATE

MODEL = "m1"
QUANTITIES = ("f1", "f2", "f3", "prediction")
#: Largest allowed |stored KS - exact KS| (acceptance criterion 4).
KS_TOLERANCE = 0.02
#: Relative tolerance of mae and wmape against the numpy oracle.
REL_TOLERANCE = 1e-9
#: Critical KS distance at production sample sizes (acceptance criterion 1).
ALERT_KS = 0.0033
#: Dates the closed loops start evaluating from.
FIRST_DAY = date(2023, 1, 1)
REPLICAS = 3


@dataclass
class Step:
    """One CLI command of a workload and what its output must show."""

    kind: str  # "data" (reads a CSV file), "query" or "reaction"
    args: list[str]
    check: Callable[[str], str | None]  # stdout -> problem, or None when correct
    values: int = 0  # input values the command summarises or scores
    records: int = 0  # records the command needs to read or produce
    #: Interpreter start-up and imports take most of the command's time.
    startup_bound: bool = True


def subseed(seed: int, k: int) -> int:
    """An independent seed for part ``k`` of the inputs of ``seed``."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def read_columns(path: Path, names) -> dict[str, np.ndarray]:
    """Non-blank cells of the named columns, as floats."""
    with path.open(newline="", encoding="utf-8") as stream:
        rows = list(csv.reader(stream))
    header = rows[0]
    columns = {}
    for name in names:
        i = header.index(name)
        cells = [row[i].strip() for row in rows[1:]]
        columns[name] = np.array([cell for cell in cells if cell], dtype=np.float64)
    return columns


def exact_ks(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample KS distance computed on the raw samples."""
    from scipy.stats import ks_2samp

    return float(ks_2samp(a, b, method="asymp").statistic)


def velocity_oracle(predictions: Path, sales: Path, day: date) -> tuple[float, float, int]:
    """(mae, wmape, units) of the forecasts for ``day`` against the mean
    sales over the seven days starting on ``day``."""
    forecast: dict[str, float] = {}
    with predictions.open(newline="", encoding="utf-8") as stream:
        for row in csv.DictReader(stream):
            if row["eval_date"] == day.isoformat() and row["prediction"].strip():
                forecast[row["unit_id"]] = float(row["prediction"])
    window = {(day + timedelta(days=i)).isoformat() for i in range(7)}
    index = {unit: i for i, unit in enumerate(forecast)}
    sold = np.zeros(len(index))
    with sales.open(newline="", encoding="utf-8") as stream:
        for row in csv.DictReader(stream):
            i = index.get(row["unit_id"])
            if i is not None and row["date"] in window:
                sold[i] += float(row["units"])
    predicted = np.fromiter(forecast.values(), dtype=float, count=len(forecast))
    actual = sold / 7.0
    error = np.abs(predicted - actual)
    return float(error.mean()), float((error / (actual + 1.0)).mean() * 100.0), len(forecast)


def _docs(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def _csv_rows(stdout: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(stdout)))[1:]


def check_rows(expected: int, stdout: str) -> str | None:
    rows = len(_csv_rows(stdout))
    return None if rows == expected else f"expected {expected} rows, got {rows}"


def check_threshold_log(eval_date: str, quantities: int, stdout: str) -> str | None:
    """The threshold log must judge the latest stored date, every quantity."""
    docs = _docs(stdout)
    if len(docs) != 1:
        return f"expected one log document, got {len(docs)}"
    body = docs[0]["body"]
    if body["eval_date"] != eval_date:
        return f"threshold log judged {body['eval_date']}, latest stored date is {eval_date}"
    if len(body["values"]) != quantities:
        return f"threshold log holds {len(body['values'])} values, expected {quantities}"
    return None


def _relative_gap(x: float, y: float) -> float:
    return abs(x - y) / max(abs(y), 1e-300)


class Workload:
    """Inputs, an endless command sequence and checks for one workload."""

    name = ""
    #: Cycles in the fixed sequence the traced run compares.
    traced_cycles = 0
    #: Fewest commands one closed-loop run completes.
    min_commands = 1

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.logs: dict[tuple[int, str], int] = {}  # (replica, reaction) -> runs
        self.ks_errors: list[float] = []
        self.bc_null: list[float] = []
        self._columns: dict[Path, dict[str, np.ndarray]] = {}
        self._ks: dict[tuple[Path, Path, str], float] = {}

    def replica(self, k: int) -> Path:
        return self.work / f"r{k}"

    def store_args(self, k: int) -> list[str]:
        return ["--store", str(self.replica(k) / "store")]

    def service(self, k: int) -> MonitoringService:
        return MonitoringService(FileStore(self.replica(k) / "store"))

    def build(self, k: int) -> None:
        """Create replica ``k``: the timed set-up."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Read what the oracles need; runs after set-up, untimed."""

    def cycles(self, k: int) -> Iterator[list[Step]]:
        """Endless command cycles against replica ``k``'s store."""
        raise NotImplementedError

    def columns(self, path: Path) -> dict[str, np.ndarray]:
        if path not in self._columns:
            self._columns[path] = read_columns(path, QUANTITIES)
        return self._columns[path]

    def values_in(self, path: Path) -> int:
        return sum(len(v) for v in self.columns(path).values())

    def reaction_step(self, k: int, reaction: str, as_of: str, check, records: int) -> Step:
        self.logs[(k, reaction)] = self.logs.get((k, reaction), 0) + 1
        args = ["run-reaction", "--model", MODEL, "--reaction", reaction, "--as-of", as_of]
        return Step("reaction", args + self.store_args(k), check, records=records)

    def check_baseline(self, training: Path, stdout: str) -> str | None:
        counts = self.columns(training)
        lines = [line for line in stdout.splitlines() if line.startswith("baseline stored:")]
        if len(lines) != len(QUANTITIES):
            return f"expected {len(QUANTITIES)} baselines, got {len(lines)}"
        for line in lines:
            label = line.split()[2]
            n = int(line.split("n=")[1].split(",")[0])
            if n != len(counts[label]):
                return f"baseline {label} counts {n} values, file holds {len(counts[label])}"
        return None

    def check_drift(
        self, training: Path, day: Path, null: bool, eval_date: str, stdout: str
    ) -> str | None:
        """Stored KS distances must match the exact KS of the raw columns."""
        docs = _docs(stdout)
        if sorted(d["quantity"] for d in docs) != sorted(QUANTITIES):
            return f"expected one record per quantity, got {[d['quantity'] for d in docs]}"
        for doc in docs:
            q = doc["quantity"]
            base, current = self.columns(training)[q], self.columns(day)[q]
            if doc["eval_date"] != eval_date:
                return f"{q}: record dated {doc['eval_date']}, expected {eval_date}"
            if (doc["context"]["n_baseline"], doc["context"]["n_current"]) != (
                len(base),
                len(current),
            ):
                return f"{q}: sample counts {doc['context']} do not match the files"
            key = (training, day, q)
            if key not in self._ks:
                self._ks[key] = exact_ks(base, current)
            error = abs(doc["metrics"]["ks_distance"] - self._ks[key])
            self.ks_errors.append(error)
            if null:
                self.bc_null.append(doc["metrics"]["bhattacharyya_coefficient"])
            if error > KS_TOLERANCE:
                return f"{q}: |stored KS - exact KS| = {error:.4f} > {KS_TOLERANCE}"
        return None

    def finish(self, k: int) -> list[str]:
        """Store-state checks for replica ``k`` after its commands ran."""
        store = FileStore(self.replica(k) / "store")
        problems = []
        for (replica, reaction), runs in sorted(self.logs.items()):
            if replica != k:
                continue
            logs = len(store.list(StoreKey.of("model", MODEL, "reaction", reaction, "log")))
            if logs != runs:
                problems.append(f"{reaction}: {runs} runs left {logs} logs, expected one each")
        return problems


class DriftDay(Workload):
    """A baseline, then production days of about 1e5 rows, each followed by
    the day's metric query and threshold reaction."""

    name = "drift-day"
    traced_cycles = 3  # the baseline, a null day and a drifted day
    min_commands = 4  # every kind of command at least once
    # Feature shift of each replica's production file, in baseline standard
    # deviations.  Each replica's training file is another null day.
    SHIFTS = (0.0, 0.1, 0.3)

    def __init__(self, work: Path, seed: int, toy: bool) -> None:
        super().__init__(work, seed)
        self.rows = 400 if toy else 100_000

    def data(self, k: int, name: str) -> Path:
        return self.replica(k) / "data" / name

    def build(self, k: int) -> None:
        spec = SynthSpec(
            n_units=self.rows, location_shift=self.SHIFTS[k], seed=subseed(self.seed, k)
        )
        generate_synthetic(spec, self.replica(k) / "data")
        service = self.service(k)
        service.register_model(MODEL)
        service.set_monitor(
            MonitorConfig(
                monitor_id="d1", model_id=MODEL, kind=MonitorKind.DRIFT, quantities=QUANTITIES
            )
        )
        service.set_reaction(
            ReactionConfig(
                reaction_id="alert",
                model_id=MODEL,
                kind=ReactionKind.THRESHOLD,
                monitor_id="d1",
                metric_name="ks_distance",
                comparator=">=",
                threshold=ALERT_KS,
            )
        )

    def prepare(self) -> None:
        self.training = self.data(0, "training.csv")
        # (file, same distribution as the training file?)
        self.days = [
            (self.data(0, "inference.csv"), True),
            (self.data(1, "inference.csv"), False),
            (self.data(1, "training.csv"), True),
            (self.data(2, "inference.csv"), False),
            (self.data(2, "training.csv"), True),
        ]
        for path in [self.training] + [path for path, _ in self.days]:
            self.columns(path)

    def cycles(self, k: int) -> Iterator[list[Step]]:
        store = self.store_args(k)
        monitor = ["--model", MODEL, "--monitor", "d1"]
        q = len(QUANTITIES)
        yield [
            Step(
                "data",
                ["snapshot-baseline", *monitor, "--data", str(self.training), *store],
                partial(self.check_baseline, self.training),
                values=self.values_in(self.training),
                records=q,
                startup_bound=False,
            )
        ]
        for i in itertools.count():
            day = (FIRST_DAY + timedelta(days=i)).isoformat()
            path, null = self.days[i % len(self.days)]
            yield [
                Step(
                    "data",
                    ["run-monitor", *monitor, "--date", day, "--data", str(path)]
                    + ["--format", "doc", *store],
                    partial(self.check_drift, self.training, path, null, day),
                    values=self.values_in(path),
                    records=q,
                    startup_bound=False,
                ),
                Step(
                    "query",
                    ["get-metrics", *monitor, "--from", day, "--to", day, "--format", "csv"]
                    + store,
                    partial(check_rows, q),
                    records=q,
                ),
                self.reaction_step(k, "alert", day, partial(check_threshold_log, day, q), q),
            ]


class ForecastDay(Workload):
    """Performance run-monitor over seeded forecast and sales files, each
    followed by the day's metric query and threshold reaction."""

    name = "forecast-day"
    traced_cycles = 2  # two forecast files
    min_commands = 3  # every kind of command at least once

    def __init__(self, work: Path, seed: int, toy: bool) -> None:
        super().__init__(work, seed)
        self.rows = 400 if toy else 100_000
        self.oracle: dict[int, tuple[float, float, int]] = {}

    def pair(self, k: int) -> tuple[Path, Path]:
        data = self.replica(k) / "data"
        return data / "inference.csv", data / "sales.csv"

    def build(self, k: int) -> None:
        generate_synthetic(
            SynthSpec(n_units=self.rows, seed=subseed(self.seed, k)), self.replica(k) / "data"
        )
        service = self.service(k)
        service.register_model(MODEL)
        service.set_monitor(
            MonitorConfig(monitor_id="p1", model_id=MODEL, kind=MonitorKind.PERFORMANCE)
        )
        service.set_reaction(
            ReactionConfig(
                reaction_id="alert",
                model_id=MODEL,
                kind=ReactionKind.THRESHOLD,
                monitor_id="p1",
                metric_name="wmape",
                comparator=">=",
                threshold=50.0,
            )
        )

    def prepare(self) -> None:
        for k in range(REPLICAS):
            self.oracle[k] = velocity_oracle(*self.pair(k), PRODUCTION_DATE)

    def check_forecast(self, k: int, stdout: str) -> str | None:
        docs = _docs(stdout)
        if len(docs) != 1:
            return f"expected one performance record, got {len(docs)}"
        metrics, context = docs[0]["metrics"], docs[0]["context"]
        mae, wmape, units = self.oracle[k]
        if context["n"] != units:
            return f"scored {context['n']} units, the file predicts {units}"
        for name, expected in (("mae", mae), ("wmape", wmape)):
            gap = _relative_gap(metrics[name], expected)
            if gap > REL_TOLERANCE:
                return f"{name} = {metrics[name]!r}, oracle {expected!r} (relative gap {gap:.2e})"
        return None

    def cycles(self, k: int) -> Iterator[list[Step]]:
        store = self.store_args(k)
        monitor = ["--model", MODEL, "--monitor", "p1"]
        day = PRODUCTION_DATE.isoformat()
        for i in itertools.count():
            pair = i % REPLICAS
            predictions, sales = self.pair(pair)
            yield [
                Step(
                    "data",
                    ["run-monitor", *monitor, "--date", day, "--data", str(predictions)]
                    + ["--sales", str(sales), "--format", "doc", *store],
                    partial(self.check_forecast, pair),
                    values=self.oracle[pair][2],
                    records=1,
                    startup_bound=False,
                ),
                Step(
                    "query",
                    ["get-metrics", *monitor, "--from", day, "--to", day, "--format", "csv"]
                    + store,
                    partial(check_rows, 1),
                    records=1,
                ),
                self.reaction_step(k, "alert", day, partial(check_threshold_log, day, 1), 1),
            ]


class OpsCycle(Workload):
    """Small daily appends, reactions and queries over a year of history."""

    name = "ops-cycle"
    traced_cycles = 3  # so each rotating command runs once
    REPORT_SAMPLES = 10

    def __init__(self, work: Path, seed: int, toy: bool) -> None:
        super().__init__(work, seed)
        self.rows = 300 if toy else 1_000
        self.history = 30 if toy else 365
        self.report_days = 10 if toy else 90
        # Ten samples beyond the 90th percentile of command latency.
        self.min_commands = 12 if toy else 100

    def build(self, k: int) -> None:
        # Every replica is the same store: same seed, same history.
        training, _, _ = generate_synthetic(
            SynthSpec(n_units=self.rows, seed=subseed(self.seed, 0)), self.replica(k) / "data"
        )
        service = self.service(k)
        service.register_model(MODEL)
        service.set_monitor(
            MonitorConfig(
                monitor_id="d1", model_id=MODEL, kind=MonitorKind.DRIFT, quantities=QUANTITIES
            )
        )
        service.snapshot_baseline(MODEL, "d1", training)
        rng = np.random.default_rng(subseed(self.seed, 1))
        n = self.rows
        for offset in range(self.history, 0, -1):
            day = FIRST_DAY - timedelta(days=offset)
            for quantity in QUANTITIES:
                d = float(abs(rng.normal(0.004, 0.002)))
                record = MetricRecord(
                    model_id=MODEL,
                    monitor_id="d1",
                    eval_date=day,
                    quantity=quantity,
                    metrics={
                        "bhattacharyya_coefficient": 1.0 - float(abs(rng.normal(0.0, 0.003))),
                        "ks_distance": d,
                        "ks_p_value": ks_p_value(d, n, n),
                    },
                    context={
                        "computed_at": f"{day.isoformat()}T06:00:00Z",
                        "n_baseline": n,
                        "n_current": n,
                    },
                )
                key = StoreKey.of(
                    "model", MODEL, "monitor", "d1", "metrics", day.isoformat(), quantity
                )
                service.store.put(key, dumps_doc(record.to_doc()))
        service.set_reaction(
            ReactionConfig(
                reaction_id="alert",
                model_id=MODEL,
                kind=ReactionKind.THRESHOLD,
                monitor_id="d1",
                metric_name="ks_distance",
                comparator=">=",
                threshold=ALERT_KS,
            )
        )
        service.set_reaction(
            ReactionConfig(
                reaction_id="report",
                model_id=MODEL,
                kind=ReactionKind.REPORT,
                monitor_id="d1",
                date_from=FIRST_DAY - timedelta(days=self.report_days),
                date_to=FIRST_DAY - timedelta(days=1),
                sample_size=self.REPORT_SAMPLES,
            )
        )

    def prepare(self) -> None:
        for k in range(REPLICAS):
            for name in ("training.csv", "inference.csv"):
                self.columns(self.replica(k) / "data" / name)

    def check_report(self, stdout: str) -> str | None:
        docs = _docs(stdout)
        if len(docs) != 1:
            return f"expected one report log, got {len(docs)}"
        series = docs[0]["body"]["series"]
        if len(series) != len(QUANTITIES) * 3:
            return f"report holds {len(series)} series, expected {len(QUANTITIES) * 3}"
        first = (FIRST_DAY - timedelta(days=self.report_days)).isoformat()
        last = (FIRST_DAY - timedelta(days=1)).isoformat()
        for s in series:
            points = s["points"]
            if len(points) != min(self.REPORT_SAMPLES, self.report_days):
                return f"series {s['quantity']}/{s['metric']} holds {len(points)} points"
            if (points[0][0], points[-1][0]) != (first, last):
                return f"series {s['quantity']}/{s['metric']} spans {points[0][0]}..{points[-1][0]}"
        return None

    def cycles(self, k: int) -> Iterator[list[Step]]:
        store = self.store_args(k)
        monitor = ["--model", MODEL, "--monitor", "d1"]
        training = self.replica(k) / "data" / "training.csv"
        inference = self.replica(k) / "data" / "inference.csv"
        q = len(QUANTITIES)
        for cycle in itertools.count():
            today = FIRST_DAY + timedelta(days=cycle)
            day = today.isoformat()
            week = (today - timedelta(days=6)).isoformat()
            steps = [
                Step(
                    "data",
                    ["run-monitor", *monitor, "--date", day, "--data", str(inference)]
                    + ["--format", "doc", *store],
                    partial(self.check_drift, training, inference, True, day),
                    values=self.values_in(inference),
                    records=q,
                ),
                self.reaction_step(k, "alert", day, partial(check_threshold_log, day, q), q),
                Step(
                    "query",
                    ["get-metrics", *monitor, "--from", week, "--to", day, "--format", "csv"]
                    + store,
                    partial(check_rows, 7 * q),
                    records=7 * q,
                ),
            ]
            if cycle % 3 == 0:
                year = (today - timedelta(days=self.history - 1)).isoformat()
                steps.append(
                    Step(
                        "query",
                        ["get-metrics", *monitor, "--from", year, "--to", day, "--format", "csv"]
                        + store,
                        partial(check_rows, self.history * q),
                        records=self.history * q,
                    )
                )
            elif cycle % 3 == 1:
                steps.append(
                    self.reaction_step(k, "report", day, self.check_report, self.report_days * q)
                )
            else:
                runs = self.logs[(k, "alert")]
                steps.append(
                    Step(
                        "query",
                        ["get-logs", "--model", MODEL, "--reaction", "alert", "--format", "csv"]
                        + store,
                        partial(check_rows, runs),
                        records=runs,
                    )
                )
            yield steps


WORKLOADS = {w.name: w for w in (DriftDay, ForecastDay, OpsCycle)}
