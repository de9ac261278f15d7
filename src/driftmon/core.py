"""Monitor, metric, reaction, and log lifecycle over a document store.

Monitors and reactions support set/get/run/delete, while metrics and logs
only support get/delete because they are produced by running monitors and
reactions, never written directly.  All state lives under hierarchical keys::

    model/{model_id}
    model/{model_id}/monitor/{monitor_id}
    model/{model_id}/monitor/{monitor_id}/baseline
    model/{model_id}/monitor/{monitor_id}/metrics/{eval_date}/{quantity}
    model/{model_id}/reaction/{reaction_id}
    model/{model_id}/reaction/{reaction_id}/log/{timestamp}

Each layout is spelled once, as a function of the ids it names.  A record
is written at the key its own ids name and read back only from there: a
record found at any other key is a corrupt document.
"""

from __future__ import annotations

import math
import operator
from datetime import date, datetime, timedelta, timezone
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, TypeVar

from ._record import Record, _as_utc, _iso_micro, _iso_seconds, _parse_ts, replace
from .errors import NotFoundError, PreconditionError, StorageError, ValidationError
from .store import _SEGMENT_RE, FileStore, StoreKey, dumps_doc, loads_doc

if TYPE_CHECKING:
    from .data import DatasetHandle
    from .summary import ApproxCdf

__all__ = [
    "MonitorKind",
    "ReactionKind",
    "Severity",
    "ModelRegistration",
    "MonitorConfig",
    "MetricRecord",
    "ReactionConfig",
    "LogRecord",
    "MonitoringService",
]

#: Default summary resolution used when a drift monitor does not override it.
DEFAULT_EPSILON = 0.001
DEFAULT_CDF_POINTS = 100
DEFAULT_DENSITY_BINS = 100
#: Largest ``cdf_points`` and ``density_bins``: a thousand times the
#: defaults, and far from a grid too large to allocate.
MAX_RESOLUTION = 10**5

#: Summary resolution fields of a drift monitor; a performance monitor
#: keeps them at these values.
_RESOLUTION_DEFAULTS = {
    "epsilon": DEFAULT_EPSILON,
    "cdf_points": DEFAULT_CDF_POINTS,
    "density_bins": DEFAULT_DENSITY_BINS,
}

#: Quantity label under which performance records are stored.
VELOCITY_QUANTITY = "velocity"

_COMPARATORS: dict[str, Callable[[float, float], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: Entity kinds that ``MonitoringService.delete`` removes.
_DELETABLE_KINDS = ("monitor", "metrics", "reaction", "logs")

_T = TypeVar("_T")


class MonitorKind(str, Enum):
    DRIFT = "drift"
    PERFORMANCE = "performance"


class ReactionKind(str, Enum):
    THRESHOLD = "threshold"
    REPORT = "report"


class Severity(str, Enum):
    INFO = "info"
    ALERT = "alert"


def _check_identifier(name: str, value: str) -> None:
    if not isinstance(value, str) or not _SEGMENT_RE.fullmatch(value):
        raise ValidationError(
            f"{name} must match [A-Za-z0-9._-]+ and be neither '.' nor '..', got {value!r}"
        )


def _now() -> datetime:
    return datetime.now(timezone.utc)


# -- layouts: the key segments of each kind of record, from its ids ---------


def _model_at(model_id: str) -> tuple[str, ...]:
    return ("model", model_id)


def _monitor_at(model_id: str, monitor_id: str) -> tuple[str, ...]:
    return (*_model_at(model_id), "monitor", monitor_id)


def _baseline_at(model_id: str, monitor_id: str) -> tuple[str, ...]:
    return (*_monitor_at(model_id, monitor_id), "baseline")


def _metrics_at(model_id: str, monitor_id: str, *place: str) -> tuple[str, ...]:
    """A monitor's metrics prefix; with ``place``, a day directory or, with
    a day and a quantity, one record."""
    return (*_monitor_at(model_id, monitor_id), "metrics", *place)


def _reaction_at(model_id: str, reaction_id: str) -> tuple[str, ...]:
    return (*_model_at(model_id), "reaction", reaction_id)


def _logs_at(model_id: str, reaction_id: str, *place: str) -> tuple[str, ...]:
    """A reaction's logs prefix; with ``place``, one log's key name."""
    return (*_reaction_at(model_id, reaction_id), "log", *place)


class ModelRegistration(Record):
    """A deployed model known to the monitoring service."""

    model_id: str
    description: str
    created_at: datetime

    def to_doc(self) -> dict[str, Any]:
        # Registered to the second, unlike a log's microseconds.
        return {**super().to_doc(), "created_at": _iso_seconds(self.created_at)}

    def place(self) -> tuple[str, ...]:
        return _model_at(self.model_id)


class MonitorConfig(Record):
    """What to watch for one model and with what resolution."""

    monitor_id: str
    model_id: str
    kind: MonitorKind
    quantities: tuple[str, ...] = ()
    epsilon: float = DEFAULT_EPSILON
    cdf_points: int = DEFAULT_CDF_POINTS
    density_bins: int = DEFAULT_DENSITY_BINS

    def __post_init__(self) -> None:
        _check_identifier("monitor_id", self.monitor_id)
        _check_identifier("model_id", self.model_id)
        # The types and sizes the sketch and the summary grid take, so that a
        # stored monitor never runs at another resolution than it names.
        if not isinstance(self.epsilon, float):
            raise ValidationError(f"epsilon must be a float, got {self.epsilon!r}")
        for name, low in (("cdf_points", 2), ("density_bins", 1)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
            if not low <= value <= MAX_RESOLUTION:
                raise ValidationError(f"{name} must be in [{low}, {MAX_RESOLUTION}], got {value!r}")
        if self.kind is MonitorKind.DRIFT:
            if not self.quantities:
                raise ValidationError("a drift monitor needs at least one quantity")
            for i, q in enumerate(self.quantities):
                _check_identifier("quantity", q)
                if q in self.quantities[:i]:
                    raise ValidationError(f"quantity {q!r} is listed more than once")
            if not 0.0 < self.epsilon <= 0.5:
                raise ValidationError(f"epsilon must be in (0, 0.5], got {self.epsilon!r}")
        elif self.quantities:
            raise ValidationError("a performance monitor takes no quantities")
        else:
            for name, default in _RESOLUTION_DEFAULTS.items():
                if getattr(self, name) != default:
                    raise ValidationError(f"a performance monitor takes no {name}")

    def to_doc(self) -> dict[str, Any]:
        # The resolution fields are stored in one ``parameters`` object,
        # left empty by a performance monitor.
        doc = super().to_doc()
        parameters = {name: doc.pop(name) for name in _RESOLUTION_DEFAULTS}
        doc["parameters"] = parameters if self.kind is MonitorKind.DRIFT else {}
        return doc

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "MonitorConfig":
        parameters = doc.get("parameters", {})
        if parameters.__class__ is not dict or parameters.keys() - _RESOLUTION_DEFAULTS.keys():
            raise ValueError(f"parameters must be an object of {list(_RESOLUTION_DEFAULTS)}")
        return super().from_doc({**doc, **_RESOLUTION_DEFAULTS, **parameters})

    def place(self) -> tuple[str, ...]:
        return _monitor_at(self.model_id, self.monitor_id)


class Baseline(Record):
    """A drift monitor's training summaries, one per watched quantity, and
    the ``epsilon`` and ``cdf_points`` they were summarised at."""

    model_id: str
    monitor_id: str
    epsilon: float
    cdf_points: int
    summaries: tuple[ApproxCdf, ...]

    def __post_init__(self) -> None:
        labels = [cdf.label for cdf in self.summaries]
        for i, label in enumerate(labels):
            if label in labels[:i]:
                raise ValidationError(f"quantity {label!r} is listed twice")

    @classmethod
    def from_doc(cls, doc: Any) -> "Baseline | None":
        # A bare list of summaries, stored before baselines named a resolution, is none.
        return None if doc.__class__ is list else super().from_doc(doc)

    def place(self) -> tuple[str, ...]:
        return _baseline_at(self.model_id, self.monitor_id)


class MetricRecord(Record):
    """One monitor evaluation for one quantity on one date."""

    model_id: str
    monitor_id: str
    eval_date: date
    quantity: str
    metrics: dict[str, float]
    context: dict[str, Any]

    def place(self) -> tuple[str, ...]:
        return _metrics_at(self.model_id, self.monitor_id, self.eval_date.isoformat(), self.quantity)


class ReactionConfig(Record):
    """A rule that turns stored metrics into log entries."""

    reaction_id: str
    model_id: str
    kind: ReactionKind
    monitor_id: str
    metric_name: str | None = None
    comparator: str | None = None
    threshold: float | None = None
    date_from: date | None = None
    date_to: date | None = None
    sample_size: int | None = None

    def __post_init__(self) -> None:
        _check_identifier("reaction_id", self.reaction_id)
        _check_identifier("model_id", self.model_id)
        _check_identifier("monitor_id", self.monitor_id)
        foreign = (
            ("date_from", "date_to", "sample_size")
            if self.kind is ReactionKind.THRESHOLD
            else ("metric_name", "comparator", "threshold")
        )
        for name in foreign:
            if getattr(self, name) is not None:
                raise ValidationError(f"a {self.kind.value} reaction takes no {name}")
        if self.kind is ReactionKind.THRESHOLD:
            if not self.metric_name:
                raise ValidationError("a threshold reaction needs a metric_name")
            if self.comparator not in _COMPARATORS:
                raise ValidationError(
                    f"comparator must be one of {sorted(_COMPARATORS)}, got {self.comparator!r}"
                )
            if self.threshold is None or not math.isfinite(self.threshold):
                raise ValidationError("a threshold reaction needs a finite threshold")
        else:
            if self.date_from is None or self.date_to is None:
                raise ValidationError("a report reaction needs date_from and date_to")
            if self.date_from > self.date_to:
                raise ValidationError("report range is reversed: date_from is after date_to")
            if self.sample_size is None or self.sample_size < 2:
                raise ValidationError("a report reaction needs sample_size >= 2")

    def place(self) -> tuple[str, ...]:
        return _reaction_at(self.model_id, self.reaction_id)


class LogRecord(Record):
    """The outcome of one reaction run."""

    model_id: str
    reaction_id: str
    created_at: datetime
    severity: Severity
    body: dict[str, Any]

    def place(self) -> tuple[str, ...]:
        return _logs_at(self.model_id, self.reaction_id, _log_name(self.created_at))


def _log_name(ts: datetime) -> str:
    """The key name of a log created at ``ts``: its UTC time to the
    microsecond, ``%Y%m%dT%H%M%S.%fZ`` with a four-digit year, which sorts
    as time."""
    return _iso_micro(ts).replace("-", "").replace(":", "")


def _log_bound(ts: datetime) -> str:
    """``ts`` as a key name to compare log key names with.  A bound whose
    UTC time falls outside the years 1-9999 is before or after every name."""
    try:
        return _log_name(ts)
    except OverflowError:
        return "" if ts.year == 1 else "~"


def stride_sample(points: list, sample_size: int) -> list:
    """Deterministic uniform down-sampling that keeps the first and last
    elements; series at or under ``sample_size`` pass through unchanged."""
    if sample_size < 2:
        raise ValidationError(f"sample_size must be >= 2, got {sample_size}")
    n = len(points)
    if n <= sample_size:
        return list(points)
    indices = [round(i * (n - 1) / (sample_size - 1)) for i in range(sample_size)]
    return [points[i] for i in indices]


class MonitoringService:
    """Coordinates summaries, metrics, reactions, and logs for models."""

    def __init__(self, store: FileStore) -> None:
        self.store = store

    def _read(self, key: StoreKey, kind: type[_T]) -> _T | None:
        """The record of class ``kind`` at ``key``, or None when it is
        absent.  A document that does not decode, or whose record's own ids
        name another key, is corrupt: a copy never answers for another id,
        and key order stays record order."""
        body = self.store.get(key)
        if body is None:
            return None
        try:
            record = kind.from_doc(loads_doc(body))
        except (
            AttributeError, KeyError, OverflowError, RecursionError, TypeError, ValueError
        ) as exc:
            raise StorageError(f"corrupt document {key}: {exc!r}") from exc
        if record is not None and record.place() != key.segments:
            raise StorageError(
                f"corrupt document {key}: its record belongs at {'/'.join(record.place())}"
            )
        return record

    def _put(self, record: Any) -> None:
        """Write ``record`` at the key its own ids name."""
        self.store.put(StoreKey(record.place()), dumps_doc(record.to_doc()))

    # -- models ----------------------------------------------------------

    def register_model(self, model_id: str, description: str = "") -> ModelRegistration:
        """Create (or refresh) a model registration."""
        _check_identifier("model_id", model_id)
        registration = ModelRegistration(
            model_id=model_id, description=description, created_at=_now()
        )
        self._put(registration)
        return registration

    def _require_model(self, model_id: str) -> None:
        _check_identifier("model_id", model_id)
        if self._read(StoreKey(_model_at(model_id)), ModelRegistration) is None:
            raise NotFoundError(f"model {model_id!r} is not registered")

    # -- monitors ----------------------------------------------------------

    def set_monitor(self, config: MonitorConfig) -> MonitorConfig:
        """Store a monitor configuration; overwrites any previous version.  A
        stored baseline is kept: a drift run refuses one taken at another
        ``epsilon`` or ``cdf_points``."""
        self._require_model(config.model_id)
        self._put(config)
        return config

    def get_monitor(self, model_id: str, monitor_id: str) -> MonitorConfig:
        config = self._read(StoreKey(_monitor_at(model_id, monitor_id)), MonitorConfig)
        if config is None:
            raise NotFoundError(f"monitor {monitor_id!r} not found for model {model_id!r}")
        return config

    def snapshot_baseline(
        self, model_id: str, monitor_id: str, training: DatasetHandle
    ) -> list[ApproxCdf]:
        """Summarise every configured quantity of the training data in one
        pass and persist the summaries as the monitor's baseline, one
        document naming the resolution they were taken at: a snapshot
        replaces the previous one whole or not at all."""
        config = self.get_monitor(model_id, monitor_id)
        if config.kind is not MonitorKind.DRIFT:
            raise PreconditionError(
                f"monitor {monitor_id!r} is a {config.kind.value} monitor; "
                f"only drift monitors take baselines"
            )
        summaries = self._summarise(training, config)
        self._put(
            Baseline(model_id, monitor_id, config.epsilon, config.cdf_points, tuple(summaries))
        )
        return summaries

    @staticmethod
    def _summarise(data: DatasetHandle, config: MonitorConfig) -> list[ApproxCdf]:
        """One summary per configured quantity, in the configured order."""
        # The data and statistics modules load here, on the drift path only,
        # so queries and reactions do not pay their import time.
        from .summary import _summarise

        return _summarise(data, config.quantities, config.epsilon, config.cdf_points)

    def run_monitor(
        self,
        model_id: str,
        monitor_id: str,
        eval_date: date,
        data: DatasetHandle,
        sales: DatasetHandle | None = None,
    ) -> list[MetricRecord]:
        """Evaluate a monitor for one day and persist the metric records.

        Drift monitors compare each quantity's current summary against its
        stored baseline, and take no sales handle.  Performance monitors
        need the daily sales handle to realise actual velocities.  Records
        are computed for every quantity before anything is written, so a
        bad input or a missing baseline writes nothing.  The day is then
        written one document per quantity, so a storage failure while
        writing can leave part of the day stored.
        """
        config = self.get_monitor(model_id, monitor_id)
        if config.kind is MonitorKind.DRIFT:
            if sales is not None:
                raise ValidationError("a drift monitor run takes no sales data (--sales)")
            records = self._run_drift(config, eval_date, data)
        else:
            records = self._run_performance(config, eval_date, data, sales)
        for record in records:
            self._put(record)
        return records

    def _run_drift(
        self, config: MonitorConfig, eval_date: date, data: DatasetHandle
    ) -> list[MetricRecord]:
        from .drift import drift_evaluate

        stored = self._read(StoreKey(_baseline_at(config.model_id, config.monitor_id)), Baseline)
        resolution = (config.epsilon, config.cdf_points)
        if stored is not None and (stored.epsilon, stored.cdf_points) != resolution:
            raise PreconditionError(
                f"the baseline is at epsilon {stored.epsilon!r}, cdf_points {stored.cdf_points}"
                f" and monitor {config.monitor_id!r} at epsilon {config.epsilon!r}, cdf_points "
                f"{config.cdf_points}; run snapshot-baseline again"
            )
        baselines = {cdf.label: cdf for cdf in stored.summaries} if stored else {}
        for quantity in config.quantities:
            if quantity not in baselines:
                raise PreconditionError(
                    f"no baseline for quantity {quantity!r}; run snapshot-baseline first"
                )
        computed_at = _iso_seconds(_now())
        records = []
        for current in self._summarise(data, config):
            baseline = baselines[current.label]
            records.append(
                MetricRecord(
                    model_id=config.model_id,
                    monitor_id=config.monitor_id,
                    eval_date=eval_date,
                    quantity=current.label,
                    metrics=drift_evaluate(baseline, current, config.density_bins),
                    context={
                        "computed_at": computed_at,
                        "n_baseline": baseline.sample_count,
                        "n_current": current.sample_count,
                    },
                )
            )
        return records

    def _run_performance(
        self,
        config: MonitorConfig,
        eval_date: date,
        data: DatasetHandle,
        sales: DatasetHandle | None,
    ) -> list[MetricRecord]:
        if sales is None:
            raise ValidationError("a performance monitor run needs daily sales data (--sales)")
        from .data import assemble_velocity_pairs
        from .performance import _scores

        predicted, actual, excluded = assemble_velocity_pairs(data, sales, eval_date)
        if not predicted:
            raise PreconditionError(
                f"no predictions found for {eval_date.isoformat()} in {data.path}"
            )
        return [
            MetricRecord(
                model_id=config.model_id,
                monitor_id=config.monitor_id,
                eval_date=eval_date,
                quantity=VELOCITY_QUANTITY,
                metrics=_scores(predicted, actual),
                context={
                    "computed_at": _iso_seconds(_now()),
                    "n": len(predicted),
                    "n_excluded": excluded,
                },
            )
        ]

    def _placed(self, keys: Iterable[StoreKey], kind: type[_T]) -> Iterator[_T]:
        """The records of class ``kind`` at ``keys``, decoded one at a time;
        a key removed since it was listed is passed over."""
        for key in keys:
            record = self._read(key, kind)
            if record is not None:
                yield record

    def _records_on(self, model_id: str, monitor_id: str, day: str) -> Iterator[MetricRecord]:
        """The records stored under one day directory of a monitor, by
        quantity."""
        return self._placed(
            self.store.list(StoreKey(_metrics_at(model_id, monitor_id, day))), MetricRecord
        )

    def _iter_metrics(
        self, model_id: str, monitor_id: str, date_from: date, date_to: date
    ) -> Iterator[MetricRecord]:
        """Stored records in the inclusive date range, ordered by
        (eval_date, quantity), each yielded as soon as it is decoded.

        Day directories are ISO dates and a day's keys are its quantities,
        so key order is record order.  Only the day directories in the
        range are read, so a query costs the days it asks for, not the
        history.
        """
        if date_from > date_to:
            raise ValidationError("metric range is reversed: date_from is after date_to")
        days = self.store.children(StoreKey(_metrics_at(model_id, monitor_id)))
        first, last = date_from.isoformat(), date_to.isoformat()
        return (
            record
            for day in days
            if first <= day <= last
            for record in self._records_on(model_id, monitor_id, day)
        )

    def get_metrics(
        self, model_id: str, monitor_id: str, date_from: date, date_to: date
    ) -> list[MetricRecord]:
        """Stored records in the inclusive date range, ordered by
        (eval_date, quantity); only the days in the range are read."""
        return list(self._iter_metrics(model_id, monitor_id, date_from, date_to))

    # -- reactions ---------------------------------------------------------

    def set_reaction(self, config: ReactionConfig) -> ReactionConfig:
        """Store a reaction; the referenced model and monitor must exist."""
        self._require_model(config.model_id)
        self.get_monitor(config.model_id, config.monitor_id)
        self._put(config)
        return config

    def get_reaction(self, model_id: str, reaction_id: str) -> ReactionConfig:
        config = self._read(StoreKey(_reaction_at(model_id, reaction_id)), ReactionConfig)
        if config is None:
            raise NotFoundError(f"reaction {reaction_id!r} not found for model {model_id!r}")
        return config

    def run_reaction(self, model_id: str, reaction_id: str, as_of: date) -> list[LogRecord]:
        """Evaluate a reaction against stored metrics and append one log.

        Threshold reactions look at the latest evaluation date at or
        before ``as_of`` and alert when any quantity's metric crosses the
        threshold.  Report reactions bundle a down-sampled time series per
        quantity/metric.  Without any metrics there is nothing to react
        to, so no log is written and the run fails.
        """
        config = self.get_reaction(model_id, reaction_id)
        if config.kind is ReactionKind.THRESHOLD:
            record = self._threshold_log(config, as_of)
        else:
            record = self._report_log(config)
        # A log is never overwritten: a key taken in the same microsecond,
        # by this process or another, moves the record to the next one.
        while not self.store.create(StoreKey(record.place()), dumps_doc(record.to_doc())):
            record = replace(record, created_at=record.created_at + timedelta(microseconds=1))
        return [record]

    def _threshold_log(self, config: ReactionConfig, as_of: date) -> LogRecord:
        # Day directories are ISO dates, which sort as strings: walk them
        # down from ``as_of`` and stop at the first day holding the metric.
        days = self.store.children(StoreKey(_metrics_at(config.model_id, config.monitor_id)))
        last = as_of.isoformat()
        values: dict[str, float] = {}
        for day in reversed(days):
            if day <= last:
                values = {
                    r.quantity: r.metrics[config.metric_name]
                    for r in self._records_on(config.model_id, config.monitor_id, day)
                    if config.metric_name in r.metrics
                }
                if values:
                    break
        if not values:
            raise PreconditionError(
                f"no {config.metric_name!r} metrics at or before {as_of.isoformat()} "
                f"for monitor {config.monitor_id!r}"
            )
        compare = _COMPARATORS[config.comparator]
        fired = any(compare(v, config.threshold) for v in values.values())
        return LogRecord(
            model_id=config.model_id,
            reaction_id=config.reaction_id,
            created_at=_now(),
            severity=Severity.ALERT if fired else Severity.INFO,
            body={
                "comparator": config.comparator,
                "eval_date": day,
                "fired": fired,
                "metric": config.metric_name,
                "threshold": config.threshold,
                "values": values,
            },
        )

    def _report_log(self, config: ReactionConfig) -> LogRecord:
        by_series: dict[tuple[str, str], list[list]] = {}
        records = 0
        for record in self._iter_metrics(
            config.model_id, config.monitor_id, config.date_from, config.date_to
        ):
            records += 1
            for metric, value in sorted(record.metrics.items()):
                by_series.setdefault((record.quantity, metric), []).append(
                    [record.eval_date.isoformat(), value]
                )
        if not records:
            raise PreconditionError(
                f"no metrics in [{config.date_from}, {config.date_to}] "
                f"for monitor {config.monitor_id!r}"
            )
        series = [
            {
                "metric": metric,
                "points": stride_sample(points, config.sample_size),
                "quantity": quantity,
            }
            for (quantity, metric), points in sorted(by_series.items())
        ]
        return LogRecord(
            model_id=config.model_id,
            reaction_id=config.reaction_id,
            created_at=_now(),
            severity=Severity.INFO,
            body={
                "date_from": config.date_from.isoformat(),
                "date_to": config.date_to.isoformat(),
                "sample_size": config.sample_size,
                "series": series,
            },
        )

    def _iter_logs(
        self,
        model_id: str,
        reaction_id: str,
        from_ts: datetime | None = None,
        to_ts: datetime | None = None,
    ) -> Iterator[LogRecord]:
        """Stored logs in the inclusive timestamp range, oldest first, each
        yielded as soon as it is decoded; no zone means UTC.

        A log's key is its ``created_at`` in key form, which sorts as time,
        so the bounds are compared with key names and no log outside them
        is read.
        """
        from_ts, to_ts = (ts and _as_utc(ts) for ts in (from_ts, to_ts))
        if from_ts is not None and to_ts is not None and from_ts > to_ts:
            raise ValidationError("log range is reversed: from_ts is after to_ts")
        first = "" if from_ts is None else _log_bound(from_ts)
        last = "~" if to_ts is None else _log_bound(to_ts)  # "~" follows every name
        keys = self.store.list(StoreKey(_logs_at(model_id, reaction_id)))
        return self._placed((key for key in keys if first <= key.segments[-1] <= last), LogRecord)

    def get_logs(
        self,
        model_id: str,
        reaction_id: str,
        from_ts: datetime | None = None,
        to_ts: datetime | None = None,
    ) -> list[LogRecord]:
        """Stored logs in the inclusive timestamp range, oldest first; no
        zone means UTC.  Only the logs in the range are read."""
        return list(self._iter_logs(model_id, reaction_id, from_ts, to_ts))

    # -- deletion ----------------------------------------------------------

    def delete(
        self,
        kind: str,
        *,
        model_id: str,
        monitor_id: str | None = None,
        reaction_id: str | None = None,
    ) -> int:
        """Remove one entity; returns the number of documents deleted.

        Deleting a monitor removes its configuration and baselines but
        keeps its metric history; deleting a reaction keeps its logs.
        Histories go away via the ``metrics`` and ``logs`` kinds.  The
        ``monitor`` and ``metrics`` kinds take a ``monitor_id`` and no
        ``reaction_id``; ``reaction`` and ``logs`` the other way round.
        """
        if kind not in _DELETABLE_KINDS:
            raise ValidationError(
                f"cannot delete kind {kind!r}; expected one of {', '.join(_DELETABLE_KINDS)}"
            )
        _check_identifier("model_id", model_id)
        ids = {"monitor_id": monitor_id, "reaction_id": reaction_id}
        selector, other = "monitor_id", "reaction_id"
        if kind in ("reaction", "logs"):
            selector, other = other, selector
        if not ids[selector]:
            raise ValidationError(f"deleting {kind} requires {selector}")
        if ids[other] is not None:
            raise ValidationError(f"deleting {kind} takes no {other}")
        _check_identifier(selector, ids[selector])
        if kind == "monitor":
            removed = self.store.delete(StoreKey(_baseline_at(model_id, monitor_id)))
            return removed + int(self.store.remove(StoreKey(_monitor_at(model_id, monitor_id))))
        if kind == "metrics":
            return self.store.delete(StoreKey(_metrics_at(model_id, monitor_id)))
        if kind == "reaction":
            return int(self.store.remove(StoreKey(_reaction_at(model_id, reaction_id))))
        return self.store.delete(StoreKey(_logs_at(model_id, reaction_id)))
