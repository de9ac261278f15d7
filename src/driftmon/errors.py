"""Exception types shared across the monitoring toolkit.

The hierarchy separates caller mistakes (bad parameters), domain failures
(missing entities, unmet preconditions, malformed data files), and storage
failures, so the CLI can map them onto distinct exit codes.
"""


class MonitoringError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(MonitoringError, ValueError):
    """A parameter or input value is outside its documented domain."""


class EmptySummaryError(MonitoringError, ValueError):
    """An operation requires a non-empty sketch or summary."""


class SchemaError(MonitoringError):
    """A data file is missing a column or contains an unparseable cell."""


class NotFoundError(MonitoringError):
    """A referenced model, monitor, or reaction does not exist."""


class PreconditionError(MonitoringError):
    """State required by an operation (baselines, metrics, ground truth) is absent."""


class StorageError(MonitoringError):
    """An underlying filesystem operation failed."""
