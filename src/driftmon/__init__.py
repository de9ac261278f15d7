"""Drift and performance monitoring for deployed ML models.

Summaries of training data (quantile sketches turned into interpolated
CDFs) are stored once per monitored quantity; each production day is then
summarised the same way and compared via Kolmogorov-Smirnov distance and
the Bhattacharyya coefficient, alongside forecast-accuracy metrics for
unit sales velocity.  Reactions turn stored metrics into alert or report
logs, and everything persists as plain documents under one directory.
"""

import importlib

from .core import (
    LogRecord,
    MetricRecord,
    ModelRegistration,
    MonitorConfig,
    MonitorKind,
    MonitoringService,
    ReactionConfig,
    ReactionKind,
    Severity,
)
from .errors import (
    EmptySummaryError,
    MonitoringError,
    NotFoundError,
    PreconditionError,
    SchemaError,
    StorageError,
    ValidationError,
)
from .store import FileStore, StoreKey, dumps_doc, loads_doc

__version__ = "0.1.0"

#: Names whose modules load on first access (PEP 562), with the module
#: that defines each.  The data and statistics modules take several
#: milliseconds to import, which ``import driftmon`` and the query and
#: reaction commands do not pay; ``synth`` also imports numpy.
_LAZY = {
    "DatasetHandle": "data",
    "DatasetKind": "data",
    "assemble_velocity_pairs": "data",
    "open_dataset": "data",
    "read_columns": "data",
    "coefficient_of_variation": "performance",
    "mae": "performance",
    "wmape": "performance",
    "QuantileSketch": "sketch",
    "ApproxCdf": "summary",
    "build_cdf": "summary",
    "density_from_cdf": "summary",
    "bhattacharyya": "drift",
    "drift_evaluate": "drift",
    "ks_critical_distance": "drift",
    "ks_distance": "drift",
    "ks_p_value": "drift",
    "SynthSpec": "synth",
    "generate_synthetic": "synth",
}

__all__ = [
    "LogRecord",
    "MetricRecord",
    "ModelRegistration",
    "MonitorConfig",
    "MonitorKind",
    "MonitoringService",
    "ReactionConfig",
    "ReactionKind",
    "Severity",
    "EmptySummaryError",
    "MonitoringError",
    "NotFoundError",
    "PreconditionError",
    "SchemaError",
    "StorageError",
    "ValidationError",
    "FileStore",
    "StoreKey",
    "dumps_doc",
    "loads_doc",
    *_LAZY,
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
