"""Drift and performance monitoring for deployed ML models.

Summaries of training data (quantile sketches turned into interpolated
CDFs) are stored once per monitored quantity; each production day is then
summarised the same way and compared via Kolmogorov-Smirnov distance and
the Bhattacharyya coefficient, alongside forecast-accuracy metrics for
unit sales velocity.  Reactions turn stored metrics into alert or report
logs, and everything persists as plain documents under one directory.
"""

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
from .data import (
    DatasetHandle,
    DatasetKind,
    assemble_velocity_pairs,
    open_dataset,
    read_columns,
)
from .drift import (
    bhattacharyya,
    drift_evaluate,
    ks_critical_distance,
    ks_distance,
    ks_p_value,
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
from .performance import (
    coefficient_of_variation,
    mae,
    wmape,
)
from .sketch import QuantileSketch
from .store import FileStore, StoreKey, dumps_doc, loads_doc
from .summary import ApproxCdf, build_cdf, density_from_cdf
from .synth import SynthSpec, generate_synthetic

__version__ = "0.1.0"
