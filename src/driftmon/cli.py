"""Command-line interface for the monitoring toolkit.

Every command works against a store root directory (``--store`` or
``MON_STORE_ROOT``); relative data file paths resolve against a data root
(``--data-root`` or ``MON_DATA_ROOT``, default the working directory).
Query commands render as an aligned table, RFC-4180 CSV, or the store's
document serialization.  Exit codes: 0 success, 1 domain error, 2 usage
error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Callable

from . import core
from .core import (
    LogRecord,
    MetricRecord,
    MonitorConfig,
    MonitorKind,
    MonitoringService,
    ReactionConfig,
    ReactionKind,
)
from .data import DatasetKind, open_dataset
from .errors import MonitoringError, StorageError, ValidationError
from .store import FileStore, dumps_doc, format_real
from .synth import SynthSpec, generate_synthetic

__all__ = ["build_parser", "main"]

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_IO = 3

_FORMATS = ("table", "csv", "doc")


def _iso_date(text: str) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an ISO date: {text!r}") from None


def _iso_timestamp(text: str) -> datetime:
    try:
        ts = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an ISO timestamp: {text!r}") from None
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--store", help="store root directory (default: $MON_STORE_ROOT)")
    common.add_argument(
        "--data-root", help="base directory for relative data paths (default: $MON_DATA_ROOT)"
    )

    parser = argparse.ArgumentParser(
        prog="driftmon", description="Monitor deployed models for drift and forecast accuracy."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("register-model", parents=[common], help="register a model id")
    p.add_argument("--id", required=True, dest="model_id")
    p.add_argument("--description", default="")

    p = sub.add_parser("set-monitor", parents=[common], help="create or replace a monitor")
    p.add_argument("--model", required=True)
    p.add_argument("--id", required=True, dest="monitor_id")
    p.add_argument("--kind", required=True, choices=[k.value for k in MonitorKind])
    p.add_argument("--quantities", help="comma-separated column names (drift monitors)")
    p.add_argument(
        "--epsilon", type=float, default=core.DEFAULT_EPSILON,
        help="sketch rank-error budget (default: %(default)s)",
    )
    p.add_argument(
        "--cdf-points", type=int, default=core.DEFAULT_CDF_POINTS,
        help="quantile grid size (default: %(default)s)",
    )
    p.add_argument(
        "--density-bins", type=int, default=core.DEFAULT_DENSITY_BINS,
        help="histogram bins for overlap (default: %(default)s)",
    )

    p = sub.add_parser("snapshot-baseline", parents=[common], help="summarise training data")
    p.add_argument("--model", required=True)
    p.add_argument("--monitor", required=True)
    p.add_argument("--data", required=True, help="training CSV")

    p = sub.add_parser("run-monitor", parents=[common], help="evaluate one day of data")
    p.add_argument("--model", required=True)
    p.add_argument("--monitor", required=True)
    p.add_argument("--date", required=True, type=_iso_date, dest="eval_date")
    p.add_argument("--data", required=True, help="inference CSV (or predictions for performance)")
    p.add_argument("--sales", help="daily sales CSV (performance monitors)")
    p.add_argument("--format", choices=_FORMATS, default="table")

    p = sub.add_parser("get-metrics", parents=[common], help="read stored metric records")
    p.add_argument("--model", required=True)
    p.add_argument("--monitor", required=True)
    p.add_argument("--from", required=True, type=_iso_date, dest="date_from")
    p.add_argument("--to", required=True, type=_iso_date, dest="date_to")
    p.add_argument("--format", choices=_FORMATS, default="table")

    p = sub.add_parser("set-reaction", parents=[common], help="create or replace a reaction")
    p.add_argument("--model", required=True)
    p.add_argument("--id", required=True, dest="reaction_id")
    p.add_argument("--kind", required=True, choices=[k.value for k in ReactionKind])
    p.add_argument("--monitor", required=True)
    p.add_argument("--metric", help="metric name (threshold reactions)")
    p.add_argument("--comparator", choices=sorted(core._COMPARATORS))
    p.add_argument("--threshold", type=float)
    p.add_argument("--from", type=_iso_date, dest="date_from", help="report start date")
    p.add_argument("--to", type=_iso_date, dest="date_to", help="report end date")
    p.add_argument("--sample-size", type=int, help="points kept per report series")

    p = sub.add_parser("run-reaction", parents=[common], help="evaluate a reaction")
    p.add_argument("--model", required=True)
    p.add_argument("--reaction", required=True)
    p.add_argument("--as-of", required=True, type=_iso_date, dest="as_of")

    p = sub.add_parser("get-logs", parents=[common], help="read reaction logs")
    p.add_argument("--model", required=True)
    p.add_argument("--reaction", required=True)
    p.add_argument("--from", type=_iso_timestamp, dest="from_ts")
    p.add_argument("--to", type=_iso_timestamp, dest="to_ts")
    p.add_argument("--format", choices=_FORMATS, default="table")

    p = sub.add_parser("delete", parents=[common], help="delete an entity")
    p.add_argument("--kind", required=True, choices=core._DELETABLE_KINDS)
    p.add_argument("--model", required=True)
    p.add_argument("--monitor")
    p.add_argument("--reaction")

    p = sub.add_parser("synth", parents=[common], help="generate synthetic datasets")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--units", required=True, type=int)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--features", type=int, default=3)
    p.add_argument("--shift", type=float, default=0.0)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _store_root(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Path:
    root = args.store or os.environ.get("MON_STORE_ROOT")
    if not root:
        parser.error("no store root: pass --store or set MON_STORE_ROOT")
    return Path(root)


def _data_path(args: argparse.Namespace, name: str) -> Path:
    path = Path(name)
    if path.is_absolute():
        return path
    root = args.data_root or os.environ.get("MON_DATA_ROOT") or "."
    return Path(root) / path


# -- rendering --------------------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_real(value)
    return str(value)


def _metric_table_rows(records: list[MetricRecord]) -> tuple[list[str], list[list[str]]]:
    metric_names = sorted({name for r in records for name in r.metrics})
    context_names = sorted({name for r in records for name in r.context})
    header = ["model_id", "monitor_id", "eval_date", "quantity"] + metric_names + context_names
    rows = []
    for r in records:
        row = [r.model_id, r.monitor_id, r.eval_date.isoformat(), r.quantity]
        row += [_cell(r.metrics[n]) if n in r.metrics else "" for n in metric_names]
        row += [_cell(r.context[n]) if n in r.context else "" for n in context_names]
        rows.append(row)
    return header, rows


def _log_table_rows(records: list[LogRecord]) -> tuple[list[str], list[list[str]]]:
    header = ["model_id", "reaction_id", "created_at", "severity", "body"]
    rows = [
        [
            r.model_id,
            r.reaction_id,
            r.created_at.strftime("%Y-%m-%dT%H:%M:%SZ"),
            r.severity.value,
            dumps_doc(r.body).rstrip("\n"),
        ]
        for r in records
    ]
    return header, rows


def _print_table(header: list[str], rows: list[list[str]]) -> None:
    widths = [len(h) for h in header]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def _print_csv(header: list[str], rows: list[list[str]]) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buffer.getvalue())


def _emit(
    records: list[MetricRecord] | list[LogRecord],
    table_rows: Callable[..., tuple[list[str], list[list[str]]]],
    fmt: str,
) -> None:
    """Print ``records`` as canonical documents, or as the csv or table
    rendering of the ``(header, rows)`` that ``table_rows`` builds."""
    if fmt == "doc":
        for r in records:
            sys.stdout.write(dumps_doc(r.to_doc()))
        return
    header, rows = table_rows(records)
    if fmt == "csv":
        _print_csv(header, rows)
    else:
        _print_table(header, rows)


# -- command handlers ---------------------------------------------------------


def _cmd_register_model(service: MonitoringService, args) -> None:
    registration = service.register_model(args.model_id, args.description)
    sys.stdout.write(dumps_doc(registration.to_doc()))


def _cmd_set_monitor(service: MonitoringService, args) -> None:
    config = MonitorConfig(
        monitor_id=args.monitor_id,
        model_id=args.model,
        kind=MonitorKind(args.kind),
        quantities=tuple(q for q in (args.quantities or "").split(",") if q),
        epsilon=args.epsilon,
        cdf_points=args.cdf_points,
        density_bins=args.density_bins,
    )
    service.set_monitor(config)
    sys.stdout.write(dumps_doc(config.to_doc()))


def _cmd_snapshot_baseline(service: MonitoringService, args) -> None:
    handle = open_dataset(_data_path(args, args.data), DatasetKind.TRAINING)
    summaries = service.snapshot_baseline(args.model, args.monitor, handle)
    for cdf in summaries:
        print(f"baseline stored: {cdf.label} (n={cdf.sample_count}, points={len(cdf.breakpoints)})")


def _cmd_run_monitor(service: MonitoringService, args) -> None:
    data = open_dataset(_data_path(args, args.data), DatasetKind.DAILY_INFERENCE)
    sales = None
    if args.sales:
        sales = open_dataset(_data_path(args, args.sales), DatasetKind.DAILY_SALES)
    records = service.run_monitor(args.model, args.monitor, args.eval_date, data, sales)
    _emit(records, _metric_table_rows, args.format)


def _cmd_get_metrics(service: MonitoringService, args) -> None:
    records = service.get_metrics(args.model, args.monitor, args.date_from, args.date_to)
    _emit(records, _metric_table_rows, args.format)


def _cmd_set_reaction(service: MonitoringService, args) -> None:
    kind = ReactionKind(args.kind)
    config = ReactionConfig(
        reaction_id=args.reaction_id,
        model_id=args.model,
        kind=kind,
        monitor_id=args.monitor,
        metric_name=args.metric,
        comparator=args.comparator,
        threshold=args.threshold,
        date_from=args.date_from,
        date_to=args.date_to,
        sample_size=args.sample_size,
    )
    service.set_reaction(config)
    sys.stdout.write(dumps_doc(config.to_doc()))


def _cmd_run_reaction(service: MonitoringService, args) -> None:
    for record in service.run_reaction(args.model, args.reaction, args.as_of):
        sys.stdout.write(dumps_doc(record.to_doc()))


def _cmd_get_logs(service: MonitoringService, args) -> None:
    records = service.get_logs(args.model, args.reaction, args.from_ts, args.to_ts)
    _emit(records, _log_table_rows, args.format)


def _cmd_delete(service: MonitoringService, args) -> None:
    count = service.delete(
        args.kind,
        model_id=args.model,
        monitor_id=args.monitor,
        reaction_id=args.reaction,
    )
    print(f"deleted {count}")


def _cmd_synth(args) -> None:
    spec = SynthSpec(
        n_units=args.units,
        density=args.density,
        n_features=args.features,
        location_shift=args.shift,
        scale_factor=args.scale,
        seed=args.seed,
    )
    out_dir = _data_path(args, args.out)
    for handle in generate_synthetic(spec, out_dir):
        print(handle.path)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if args.command == "synth":
            _cmd_synth(args)
            return EXIT_OK
        service = MonitoringService(FileStore(_store_root(args, parser)))
        handler = {
            "register-model": _cmd_register_model,
            "set-monitor": _cmd_set_monitor,
            "snapshot-baseline": _cmd_snapshot_baseline,
            "run-monitor": _cmd_run_monitor,
            "get-metrics": _cmd_get_metrics,
            "set-reaction": _cmd_set_reaction,
            "run-reaction": _cmd_run_reaction,
            "get-logs": _cmd_get_logs,
            "delete": _cmd_delete,
        }[args.command]
        handler(service, args)
        return EXIT_OK
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except StorageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MonitoringError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
