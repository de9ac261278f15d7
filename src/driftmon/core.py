"""Monitor, metric, reaction, and log lifecycle over a document store.

Monitors and reactions support set/get/run/delete, while metrics and logs
only support get/delete because they are produced by running monitors and
reactions, never written directly.  All state lives under hierarchical keys::

    model/{model_id}
    model/{model_id}/monitor/{monitor_id}
    model/{model_id}/monitor/{monitor_id}/baseline/{quantity}
    model/{model_id}/monitor/{monitor_id}/metrics/{eval_date}/{quantity}
    model/{model_id}/reaction/{reaction_id}
    model/{model_id}/reaction/{reaction_id}/log/{timestamp}
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from datetime import date, datetime, timezone
from enum import Enum
from typing import Any, Callable, Mapping, TypeVar

from .data import DatasetHandle, assemble_velocity_pairs, read_columns
from .drift import drift_evaluate
from .errors import NotFoundError, PreconditionError, StorageError, ValidationError
from .performance import mae, wmape
from .sketch import QuantileSketch
from .store import _SEGMENT_RE, FileStore, StoreKey, dumps_doc, loads_doc
from .summary import ApproxCdf, build_cdf

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


def _iso_seconds(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).replace(microsecond=0).isoformat().replace("+00:00", "Z")


def _iso_micro(ts: datetime) -> str:
    # Log records keep full precision: their append-only keys are derived
    # from this timestamp and must stay unique and faithful to the body.
    return ts.astimezone(timezone.utc).isoformat(timespec="microseconds").replace("+00:00", "Z")


def _parse_ts(text: str) -> datetime:
    return datetime.fromisoformat(text.replace("Z", "+00:00"))


@dataclass(frozen=True)
class ModelRegistration:
    """A deployed model known to the monitoring service."""

    model_id: str
    description: str
    created_at: datetime

    def to_doc(self) -> dict[str, Any]:
        return {
            "created_at": _iso_seconds(self.created_at),
            "description": self.description,
            "model_id": self.model_id,
        }


@dataclass(frozen=True)
class MonitorConfig:
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
        if self.kind is MonitorKind.DRIFT:
            if not self.quantities:
                raise ValidationError("a drift monitor needs at least one quantity")
            for q in self.quantities:
                _check_identifier("quantity", q)
            if not 0.0 < self.epsilon <= 0.5:
                raise ValidationError(f"epsilon must be in (0, 0.5], got {self.epsilon!r}")
            if self.cdf_points < 2:
                raise ValidationError(f"cdf_points must be >= 2, got {self.cdf_points!r}")
            if self.density_bins < 1:
                raise ValidationError(f"density_bins must be >= 1, got {self.density_bins!r}")
        elif self.quantities:
            raise ValidationError("a performance monitor takes no quantities")

    def to_doc(self) -> dict[str, Any]:
        parameters: dict[str, Any] = {}
        if self.kind is MonitorKind.DRIFT:
            parameters = {
                "cdf_points": self.cdf_points,
                "density_bins": self.density_bins,
                "epsilon": self.epsilon,
            }
        return {
            "kind": self.kind.value,
            "model_id": self.model_id,
            "monitor_id": self.monitor_id,
            "parameters": parameters,
            "quantities": list(self.quantities),
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "MonitorConfig":
        params = doc.get("parameters") or {}
        return cls(
            monitor_id=doc["monitor_id"],
            model_id=doc["model_id"],
            kind=MonitorKind(doc["kind"]),
            quantities=tuple(doc.get("quantities") or ()),
            epsilon=float(params.get("epsilon", DEFAULT_EPSILON)),
            cdf_points=int(params.get("cdf_points", DEFAULT_CDF_POINTS)),
            density_bins=int(params.get("density_bins", DEFAULT_DENSITY_BINS)),
        )


@dataclass(frozen=True)
class MetricRecord:
    """One monitor evaluation for one quantity on one date."""

    model_id: str
    monitor_id: str
    eval_date: date
    quantity: str
    metrics: dict[str, float]
    context: dict[str, Any]

    def to_doc(self) -> dict[str, Any]:
        return {
            "context": dict(self.context),
            "eval_date": self.eval_date.isoformat(),
            "metrics": dict(self.metrics),
            "model_id": self.model_id,
            "monitor_id": self.monitor_id,
            "quantity": self.quantity,
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "MetricRecord":
        return cls(
            model_id=doc["model_id"],
            monitor_id=doc["monitor_id"],
            eval_date=date.fromisoformat(doc["eval_date"]),
            quantity=doc["quantity"],
            metrics={k: float(v) for k, v in doc["metrics"].items()},
            context=dict(doc["context"]),
        )


@dataclass(frozen=True)
class ReactionConfig:
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

    def to_doc(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "kind": self.kind.value,
            "model_id": self.model_id,
            "monitor_id": self.monitor_id,
            "reaction_id": self.reaction_id,
        }
        if self.kind is ReactionKind.THRESHOLD:
            doc["comparator"] = self.comparator
            doc["metric_name"] = self.metric_name
            doc["threshold"] = float(self.threshold)
        else:
            doc["date_from"] = self.date_from.isoformat()
            doc["date_to"] = self.date_to.isoformat()
            doc["sample_size"] = self.sample_size
        return doc

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "ReactionConfig":
        kind = ReactionKind(doc["kind"])
        if kind is ReactionKind.THRESHOLD:
            return cls(
                reaction_id=doc["reaction_id"],
                model_id=doc["model_id"],
                kind=kind,
                monitor_id=doc["monitor_id"],
                metric_name=doc["metric_name"],
                comparator=doc["comparator"],
                threshold=float(doc["threshold"]),
            )
        return cls(
            reaction_id=doc["reaction_id"],
            model_id=doc["model_id"],
            kind=kind,
            monitor_id=doc["monitor_id"],
            date_from=date.fromisoformat(doc["date_from"]),
            date_to=date.fromisoformat(doc["date_to"]),
            sample_size=int(doc["sample_size"]),
        )


@dataclass(frozen=True)
class LogRecord:
    """The outcome of one reaction run."""

    model_id: str
    reaction_id: str
    created_at: datetime
    severity: Severity
    body: dict[str, Any]

    def to_doc(self) -> dict[str, Any]:
        return {
            "body": dict(self.body),
            "created_at": _iso_micro(self.created_at),
            "model_id": self.model_id,
            "reaction_id": self.reaction_id,
            "severity": self.severity.value,
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "LogRecord":
        return cls(
            model_id=doc["model_id"],
            reaction_id=doc["reaction_id"],
            created_at=_parse_ts(doc["created_at"]),
            severity=Severity(doc["severity"]),
            body=dict(doc["body"]),
        )


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

    # -- keys ------------------------------------------------------------

    @staticmethod
    def _model_key(model_id: str) -> StoreKey:
        return StoreKey.of("model", model_id)

    @staticmethod
    def _monitor_key(model_id: str, monitor_id: str) -> StoreKey:
        return StoreKey.of("model", model_id, "monitor", monitor_id)

    @classmethod
    def _baseline_prefix(cls, model_id: str, monitor_id: str) -> StoreKey:
        return cls._monitor_key(model_id, monitor_id).child("baseline")

    @classmethod
    def _metrics_prefix(cls, model_id: str, monitor_id: str) -> StoreKey:
        return cls._monitor_key(model_id, monitor_id).child("metrics")

    @staticmethod
    def _reaction_key(model_id: str, reaction_id: str) -> StoreKey:
        return StoreKey.of("model", model_id, "reaction", reaction_id)

    @classmethod
    def _log_prefix(cls, model_id: str, reaction_id: str) -> StoreKey:
        return cls._reaction_key(model_id, reaction_id).child("log")

    def _load(self, key: StoreKey, decode: Callable[[Any], _T]) -> _T | None:
        """Decode the document at ``key``, or None when it is absent.

        A document that does not parse or decode is a storage fault, so it
        is reported against its key instead of escaping as a traceback.
        """
        body = self.store.get(key)
        if body is None:
            return None
        try:
            return decode(loads_doc(body))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise StorageError(f"corrupt document {key}: {exc!r}") from exc

    # -- models ----------------------------------------------------------

    def register_model(self, model_id: str, description: str = "") -> ModelRegistration:
        """Create (or refresh) a model registration."""
        _check_identifier("model_id", model_id)
        registration = ModelRegistration(
            model_id=model_id, description=description, created_at=_now()
        )
        self.store.put(self._model_key(model_id), dumps_doc(registration.to_doc()))
        return registration

    def _require_model(self, model_id: str) -> None:
        _check_identifier("model_id", model_id)
        if self.store.get(self._model_key(model_id)) is None:
            raise NotFoundError(f"model {model_id!r} is not registered")

    # -- monitors ----------------------------------------------------------

    def set_monitor(self, config: MonitorConfig) -> MonitorConfig:
        """Store a monitor configuration; overwrites any previous version."""
        self._require_model(config.model_id)
        self.store.put(
            self._monitor_key(config.model_id, config.monitor_id),
            dumps_doc(config.to_doc()),
        )
        return config

    def get_monitor(self, model_id: str, monitor_id: str) -> MonitorConfig:
        config = self._load(self._monitor_key(model_id, monitor_id), MonitorConfig.from_doc)
        if config is None:
            raise NotFoundError(f"monitor {monitor_id!r} not found for model {model_id!r}")
        return config

    def snapshot_baseline(
        self, model_id: str, monitor_id: str, training: DatasetHandle
    ) -> list[ApproxCdf]:
        """Summarise every configured quantity of the training data in one
        pass and persist the summaries as the monitor's baselines."""
        config = self.get_monitor(model_id, monitor_id)
        if config.kind is not MonitorKind.DRIFT:
            raise PreconditionError(
                f"monitor {monitor_id!r} is a {config.kind.value} monitor; "
                f"only drift monitors take baselines"
            )
        summaries = self._summarise(training, config)
        for cdf in summaries:
            self.store.put(
                self._baseline_prefix(model_id, monitor_id).child(cdf.label),
                dumps_doc(_cdf_to_doc(cdf)),
            )
        return summaries

    @staticmethod
    def _summarise(data: DatasetHandle, config: MonitorConfig) -> list[ApproxCdf]:
        """One summary per configured quantity, from a single read of ``data``."""
        sketches = [QuantileSketch(config.epsilon) for _ in config.quantities]
        for block in read_columns(data, config.quantities):
            for sketch, values in zip(sketches, block):
                sketch.extend(values)
        for quantity, sketch in zip(config.quantities, sketches):
            if sketch.count == 0:
                raise PreconditionError(
                    f"column {quantity!r} of {data.path} holds no usable values"
                )
        return [
            build_cdf(sketch, config.cdf_points, quantity)
            for quantity, sketch in zip(config.quantities, sketches)
        ]

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
        stored baseline.  Performance monitors additionally need the daily
        sales handle to realise actual velocities.  Records are computed
        for every quantity before anything is written, so a bad input or a
        missing baseline writes nothing.  The day is then written one
        document per quantity, so a storage failure while writing can leave
        part of the day stored.
        """
        config = self.get_monitor(model_id, monitor_id)
        if config.kind is MonitorKind.DRIFT:
            records = self._run_drift(config, eval_date, data)
        else:
            records = self._run_performance(config, eval_date, data, sales)
        for record in records:
            key = self._metrics_prefix(model_id, monitor_id).child(
                record.eval_date.isoformat(), record.quantity
            )
            self.store.put(key, dumps_doc(record.to_doc()))
        return records

    def _run_drift(
        self, config: MonitorConfig, eval_date: date, data: DatasetHandle
    ) -> list[MetricRecord]:
        baselines: dict[str, ApproxCdf] = {}
        for quantity in config.quantities:
            key = self._baseline_prefix(config.model_id, config.monitor_id).child(quantity)
            baseline = self._load(key, _cdf_from_doc)
            if baseline is None:
                raise PreconditionError(
                    f"no baseline for quantity {quantity!r}; run snapshot-baseline first"
                )
            baselines[quantity] = baseline
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
        pairs, excluded = assemble_velocity_pairs(data, sales, eval_date)
        if not pairs:
            raise PreconditionError(
                f"no predictions found for {eval_date.isoformat()} in {data.path}"
            )
        predicted, actual = zip(*pairs.values())
        return [
            MetricRecord(
                model_id=config.model_id,
                monitor_id=config.monitor_id,
                eval_date=eval_date,
                quantity=VELOCITY_QUANTITY,
                metrics={"mae": mae(predicted, actual), "wmape": wmape(predicted, actual)},
                context={
                    "computed_at": _iso_seconds(_now()),
                    "n": len(pairs),
                    "n_excluded": excluded,
                },
            )
        ]

    def get_metrics(
        self, model_id: str, monitor_id: str, date_from: date, date_to: date
    ) -> list[MetricRecord]:
        """Stored records in the inclusive date range, ordered by
        (eval_date, quantity)."""
        if date_from > date_to:
            raise ValidationError("metric range is reversed: date_from is after date_to")
        records = []
        for key in self.store.list(self._metrics_prefix(model_id, monitor_id)):
            record = self._load(key, MetricRecord.from_doc)
            if record is not None and date_from <= record.eval_date <= date_to:
                records.append(record)
        records.sort(key=lambda r: (r.eval_date, r.quantity))
        return records

    # -- reactions ---------------------------------------------------------

    def set_reaction(self, config: ReactionConfig) -> ReactionConfig:
        """Store a reaction; the referenced model and monitor must exist."""
        self._require_model(config.model_id)
        self.get_monitor(config.model_id, config.monitor_id)
        self.store.put(
            self._reaction_key(config.model_id, config.reaction_id),
            dumps_doc(config.to_doc()),
        )
        return config

    def get_reaction(self, model_id: str, reaction_id: str) -> ReactionConfig:
        config = self._load(self._reaction_key(model_id, reaction_id), ReactionConfig.from_doc)
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
        key = self._log_prefix(model_id, reaction_id).child(
            record.created_at.strftime("%Y%m%dT%H%M%S.%fZ")
        )
        self.store.put(key, dumps_doc(record.to_doc()))
        return [record]

    def _threshold_log(self, config: ReactionConfig, as_of: date) -> LogRecord:
        records = [
            r
            for r in self.get_metrics(config.model_id, config.monitor_id, date.min, as_of)
            if config.metric_name in r.metrics
        ]
        if not records:
            raise PreconditionError(
                f"no {config.metric_name!r} metrics at or before {as_of.isoformat()} "
                f"for monitor {config.monitor_id!r}"
            )
        latest = max(r.eval_date for r in records)
        values = {
            r.quantity: r.metrics[config.metric_name]
            for r in records
            if r.eval_date == latest
        }
        compare = _COMPARATORS[config.comparator]
        fired = any(compare(v, config.threshold) for v in values.values())
        return LogRecord(
            model_id=config.model_id,
            reaction_id=config.reaction_id,
            created_at=_now(),
            severity=Severity.ALERT if fired else Severity.INFO,
            body={
                "comparator": config.comparator,
                "eval_date": latest.isoformat(),
                "fired": fired,
                "metric": config.metric_name,
                "threshold": config.threshold,
                "values": values,
            },
        )

    def _report_log(self, config: ReactionConfig) -> LogRecord:
        records = self.get_metrics(
            config.model_id, config.monitor_id, config.date_from, config.date_to
        )
        if not records:
            raise PreconditionError(
                f"no metrics in [{config.date_from}, {config.date_to}] "
                f"for monitor {config.monitor_id!r}"
            )
        by_series: dict[tuple[str, str], list[list]] = {}
        for record in records:
            for metric, value in sorted(record.metrics.items()):
                by_series.setdefault((record.quantity, metric), []).append(
                    [record.eval_date.isoformat(), value]
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

    def get_logs(
        self,
        model_id: str,
        reaction_id: str,
        from_ts: datetime | None = None,
        to_ts: datetime | None = None,
    ) -> list[LogRecord]:
        """Stored logs in the inclusive timestamp range, oldest first."""
        if from_ts is not None and to_ts is not None and from_ts > to_ts:
            raise ValidationError("log range is reversed: from_ts is after to_ts")
        logs = []
        for key in self.store.list(self._log_prefix(model_id, reaction_id)):
            record = self._load(key, LogRecord.from_doc)
            if record is None:
                continue
            if from_ts is not None and record.created_at < from_ts:
                continue
            if to_ts is not None and record.created_at > to_ts:
                continue
            logs.append(record)
        logs.sort(key=lambda r: r.created_at)
        return logs

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
        Histories go away via the ``metrics`` and ``logs`` kinds.
        """
        if kind not in _DELETABLE_KINDS:
            raise ValidationError(
                f"cannot delete kind {kind!r}; expected one of {', '.join(_DELETABLE_KINDS)}"
            )
        _check_identifier("model_id", model_id)
        if kind in ("monitor", "metrics"):
            if not monitor_id:
                raise ValidationError(f"deleting {kind} requires monitor_id")
            _check_identifier("monitor_id", monitor_id)
            if kind == "monitor":
                removed = self.store.delete(self._baseline_prefix(model_id, monitor_id))
                removed += int(self.store.remove(self._monitor_key(model_id, monitor_id)))
                return removed
            return self.store.delete(self._metrics_prefix(model_id, monitor_id))
        if not reaction_id:
            raise ValidationError(f"deleting {kind} requires reaction_id")
        _check_identifier("reaction_id", reaction_id)
        if kind == "reaction":
            return int(self.store.remove(self._reaction_key(model_id, reaction_id)))
        return self.store.delete(self._log_prefix(model_id, reaction_id))


def _cdf_to_doc(cdf: ApproxCdf) -> dict[str, Any]:
    return {
        "breakpoints": list(cdf.breakpoints),
        "label": cdf.label,
        "probabilities": list(cdf.probabilities),
        "sample_count": cdf.sample_count,
    }


def _cdf_from_doc(doc: Mapping[str, Any]) -> ApproxCdf:
    return ApproxCdf(
        label=doc["label"],
        sample_count=int(doc["sample_count"]),
        breakpoints=tuple(float(b) for b in doc["breakpoints"]),
        probabilities=tuple(float(p) for p in doc["probabilities"]),
    )
