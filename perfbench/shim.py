"""Run one driftmon CLI command with timing spans around each layer.

Usage (from a driftmon checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/shim.py TRACE_OUT.json <driftmon arguments...>

The shim wraps the public functions of each driftmon module (one module is
one layer), then calls ``driftmon.cli.main`` exactly as the ``driftmon``
console script does.  Spans stay in memory and are written to
``TRACE_OUT.json`` when the command ends, together with per-layer self
times and counters.  Nothing under ``src/`` is modified.

Calls made once per value (sketch inserts, CSV iterator steps, per-unit
velocity averages) are aggregated into totals instead of one span each, so
the trace stays small; their time is still subtracted from the enclosing
span's self time.
"""

from __future__ import annotations

import builtins
import io
import json
import os
import sys
from collections import defaultdict
from time import perf_counter_ns

# Functions wrapped per layer: (module, attribute, span?).  ``span=False``
# marks calls made once per value, which are aggregated rather than
# recorded one span each.  Missing attributes are skipped, so a layer whose
# functions are renamed reads as zero work instead of breaking the run.
_FUNCTIONS = [
    ("data", "open_dataset", True),
    ("data", "assemble_velocity_pairs", True),
    ("summary", "build_cdf", True),
    ("summary", "density_from_cdf", True),
    ("drift", "drift_evaluate", True),
    ("performance", "mae", True),
    ("performance", "wmape", True),
    ("performance", "actual_velocity", False),
    ("store", "dumps_doc", True),
    ("store", "loads_doc", True),
]
_METHODS = [
    ("sketch", "QuantileSketch", "insert", False),
    ("sketch", "QuantileSketch", "query", False),
    ("store", "FileStore", "put", True),
    ("store", "FileStore", "get", True),
    ("store", "FileStore", "list", True),
    ("store", "FileStore", "delete", True),
    ("store", "FileStore", "remove", True),
]


class Tracer:
    """Nested spans with self time per layer and named counters."""

    def __init__(self) -> None:
        # Finished spans: [name, layer, start_ns, end_ns, parent_index].
        self.spans: list[list] = []
        # Open spans: [span_index, name, child_ns].
        self.stack: list[list] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.csv_opens: dict[str, int] = defaultdict(int)

    def current(self) -> str | None:
        return self.stack[-1][1] if self.stack else None

    def wrap(self, layer: str, name: str, fn, before=None, after=None):
        """Record one span per call.  ``before(args)`` and
        ``after(args, result)`` update counters outside the timed region."""
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            index = len(tracer.spans)
            parent = tracer.stack[-1][0] if tracer.stack else -1
            tracer.spans.append([name, layer, 0, 0, parent])
            frame = [index, name, 0]
            tracer.stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                tracer.stack.pop()
                duration = end - start
                tracer.self_ns[layer] += duration - frame[2]
                if tracer.stack:
                    tracer.stack[-1][2] += duration
                span = tracer.spans[index]
                span[2], span[3] = start, end
                tracer.counts[name + ".calls"] += 1
            if after is not None:
                after(args, result)
            return result

        return traced

    def wrap_leaf(self, layer: str, name: str, fn):
        """Aggregate a per-value call into its layer's total and a count."""
        tracer = self

        def traced(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start
                tracer.self_ns[layer] += duration
                if tracer.stack:
                    tracer.stack[-1][2] += duration
                tracer.counts[name + ".calls"] += 1

        return traced

    def wrap_iter(self, layer: str, name: str, iter_fn):
        """Time each step of a generator; the consumer's time is excluded."""
        tracer = self

        def traced(obj):
            it = iter_fn(obj)
            while True:
                start = perf_counter_ns()
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    duration = perf_counter_ns() - start
                    tracer.self_ns[layer] += duration
                    if tracer.stack:
                        tracer.stack[-1][2] += duration
                tracer.counts[name + ".values"] += 1
                yield value

        return traced


def _replace_everywhere(modules, original, replacement) -> None:
    """Point every module-level reference to ``original`` at ``replacement``,
    so ``from .x import f`` bindings in other modules are traced too."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def instrument(tracer: Tracer):
    """Install the wrappers and return the traced ``driftmon.cli`` module."""
    import importlib

    import driftmon.cli as cli

    names = ["cli", "core", "data", "drift", "performance", "sketch", "store", "summary"]
    modules = {name: importlib.import_module(f"driftmon.{name}") for name in names}
    everywhere = list(modules.values())

    def count_tuples(args):
        sketch = args[0] if args else None
        tuples = getattr(sketch, "tuples", None)
        if tuples is not None:
            tracer.counts["sketch.tuples_max"] = max(
                tracer.counts["sketch.tuples_max"], len(tuples)
            )

    def count_get(args, result):
        if result is not None:
            tracer.counts["store.docs_read"] += 1
            tracer.counts["store.bytes_read"] += len(result.encode("utf-8"))

    def count_put(args, result):
        body = args[2] if len(args) > 2 else ""
        tracer.counts["store.bytes_written"] += len(body.encode("utf-8"))

    def count_pairs(args, result):
        tracer.counts["data.pairs"] += len(result[0])

    before_hooks = {"build_cdf": count_tuples}
    after_hooks = {"get": count_get, "put": count_put, "assemble_velocity_pairs": count_pairs}

    for layer, attr, as_span in _FUNCTIONS:
        original = getattr(modules[layer], attr, None)
        if original is None:
            continue
        name = f"{layer}.{attr}"
        if as_span:
            traced = tracer.wrap(
                layer, name, original, before=before_hooks.get(attr), after=after_hooks.get(attr)
            )
        else:
            traced = tracer.wrap_leaf(layer, name, original)
        _replace_everywhere(everywhere, original, traced)

    for layer, cls_name, attr, as_span in _METHODS:
        cls = getattr(modules[layer], cls_name, None)
        original = getattr(cls, attr, None) if cls is not None else None
        if original is None:
            continue
        name = f"{layer}.{cls_name}.{attr}"
        if as_span:
            traced = tracer.wrap(layer, name, original, after=after_hooks.get(attr))
        else:
            traced = tracer.wrap_leaf(layer, name, original)
        setattr(cls, attr, traced)

    reader = getattr(modules["data"], "ColumnReader", None)
    if reader is not None:
        reader.__iter__ = tracer.wrap_iter("data", "data.ColumnReader.__iter__", reader.__iter__)

    service = getattr(modules["core"], "MonitoringService", None)
    if service is not None:
        for attr, value in list(vars(service).items()):
            if not attr.startswith("_") and callable(value):
                setattr(service, attr, tracer.wrap("core", f"core.MonitoringService.{attr}", value))

    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        path = os.fspath(file) if isinstance(file, (str, os.PathLike)) else ""
        # The header check in open_dataset is not a read of the data.
        if path.endswith(".csv") and tracer.current() != "data.open_dataset":
            tracer.csv_opens[path] += 1
        return real_open(file, *args, **kwargs)

    builtins.open = counting_open
    io.open = counting_open

    cli.main = tracer.wrap("cli", "cli.main", cli.main)
    return cli


def main() -> int:
    if len(sys.argv) < 2:
        print("usage: shim.py TRACE_OUT.json <driftmon arguments...>", file=sys.stderr)
        return 2
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    cli = instrument(tracer)
    code = cli.main(argv)
    with open(out_path, "w", encoding="utf-8") as out:
        json.dump(
            {
                "exit_code": code,
                "self_ns": dict(tracer.self_ns),
                "counts": dict(tracer.counts),
                "csv_opens": dict(tracer.csv_opens),
                "spans": tracer.spans,
            },
            out,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
