"""Benchmark of the driftmon CLI: seeded workloads, each command its own process.

Run from the root of a driftmon checkout::

    python3 perfbench/run.py --workload drift-day --seed 1 --seconds 30 --trace 0

The benchmark builds its inputs from ``--seed`` (see ``workloads.py``),
then runs one client in a closed loop: each command is started the way the
``driftmon`` console script starts it, as a new interpreter with the
checkout's ``src`` on ``PYTHONPATH``, and the next one starts when it has
exited.  Commands are timed from outside, by wall clock around the process,
and their peak memory comes from ``wait4``.  Each cycle of commands is
preceded by a start-up probe, a process that only imports numpy; the times
of commands dominated by interpreter start-up (queries, reactions, small
appends) are scaled to a probe time of ``STARTUP_NOMINAL_S``, because the
host's start-up speed flips by up to 40% within seconds.  The raw times are
printed as well.  After the loop every output is
checked against independent oracles; any failed command or check makes the
run fail.

With ``--trace 0`` the loop runs whole command cycles until ``--seconds``
have passed (and, on ``ops-cycle``, at least 100 commands have run) and the end-to-end metrics are reported.  With
``--trace 1`` a fixed command sequence runs twice on identical stores, once
plain and once through ``shim.py``, which times each driftmon layer; the
per-layer metrics and the tracing overhead are reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
describe the machine and every metric by name and unit.  Exit codes: 0 when
every check passed, 1 when a command or check failed, 2 when the working
directory is not a driftmon checkout or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = Path.cwd()
SRC = CHECKOUT / "src"
#: What the ``driftmon`` console script runs.
ENTRY = "import sys; from driftmon.cli import main; sys.exit(main())"
COMMAND_TIMEOUT_S = 120
#: The closed loop stops here even short of its minimum command count, so
#: a run ends within the 180 s a benchmark run may take.
LOOP_LIMIT_S = 120
IMPORT_PROBES = 5
#: The start-up probe ``python3 -c "import numpy"`` runs before each cycle.
#: The host's process start-up speed flips by up to 40% within seconds, so
#: latencies of start-up-bound commands are scaled to a probe of this time.
STARTUP_PROBE = [sys.executable, "-c", "import numpy"]
STARTUP_NOMINAL_S = 0.2


@dataclass
class Done:
    """A finished command."""

    step: object
    wall_s: float
    rss_mb: float
    exit_code: int
    stdout: str
    stderr: str
    trace: dict | None = None
    probe_s: float = STARTUP_NOMINAL_S  # start-up probe run just before

    def adjusted_s(self) -> float:
        """Wall time, at nominal start-up speed if start-up bound."""
        if self.step.startup_bound:
            return self.wall_s * STARTUP_NOMINAL_S / self.probe_s
        return self.wall_s


class Runner:
    """Runs one command at a time through ``launch.py``, which times it
    from outside and reports its peak memory."""

    def __init__(self, work: Path) -> None:
        self.work = work
        env = {k: v for k, v in os.environ.items() if not k.startswith("MON_")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py")],
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()

    def spawn(self, argv: list[str]) -> tuple[float, float, int, str, str]:
        """Run ``argv``; return (wall seconds, max RSS in MB, exit code,
        stdout, stderr)."""
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        request = {
            "argv": argv,
            "cwd": str(self.work),
            "stdout": str(out_path),
            "stderr": str(err_path),
            "timeout": COMMAND_TIMEOUT_S,
        }
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        return reply["wall_s"], reply["maxrss_kb"] / 1024.0, reply["exit_code"], stdout, stderr

    def run(self, step, traced: bool = False) -> Done:
        if traced:
            trace_path = self.work / "trace.json"
            trace_path.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "shim.py"), str(trace_path), *step.args]
        else:
            argv = [sys.executable, "-c", ENTRY, *step.args]
        wall, rss, code, stdout, stderr = self.spawn(argv)
        done = Done(step, wall, rss, code, stdout, stderr)
        if traced and trace_path.exists():
            done.trace = json.loads(trace_path.read_text(encoding="utf-8"))
        return done


def machine_info() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def check_all(workload, done: list[Done], replicas) -> list[str]:
    """Problems found in the outputs and in the final store states."""
    problems = []
    for i, d in enumerate(done):
        if d.exit_code != 0:
            tail = d.stderr.strip().splitlines()[-1:] or [""]
            problems.append(f"command {i} {d.step.args[0]} exited {d.exit_code}: {tail[0]}")
            continue
        problem = d.step.check(d.stdout)
        if problem:
            problems.append(f"command {i} {d.step.args[0]}: {problem}")
    for k in replicas:
        problems.extend(workload.finish(k))
    return problems


def end_to_end(done: list[Done], setup_times: list[float]) -> dict:
    data = [d for d in done if d.step.kind == "data"]
    queries = [d.adjusted_s() for d in done if d.step.kind == "query"]
    reactions = [d.adjusted_s() for d in done if d.step.kind == "reaction"]
    walls = [d.adjusted_s() for d in done]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "values_per_s": (
            sum(d.step.values for d in data) / sum(d.adjusted_s() for d in data),
            "values/s",
        ),
        "query_p50_ms": (statistics.median(queries) * 1e3, "ms"),
        "reaction_p50_ms": (statistics.median(reactions) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(walls, n=10, method="inclusive")[-1] * 1e3, "ms"),
        "ops_per_s": (len(done) / sum(walls), "commands/s"),
        "peak_rss_mb": (max(d.rss_mb for d in done), "MB"),
    }


def import_time(runner: Runner) -> float:
    """Median ``import driftmon.cli`` process time minus a bare interpreter's."""
    bare, full = [], []
    for _ in range(IMPORT_PROBES):
        bare.append(runner.spawn([sys.executable, "-c", "pass"])[0])
        full.append(runner.spawn([sys.executable, "-c", "import driftmon.cli"])[0])
    return statistics.median(full) - statistics.median(bare)


def per_layer(workload, plain: list[Done], traced: list[Done], import_s: float) -> dict:
    self_ns: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    opens, read_files = 0, 0
    for d in traced:
        for layer, ns in d.trace["self_ns"].items():
            self_ns[layer] += ns
        for name, n in d.trace["counts"].items():
            if name == "sketch.tuples_max":
                counts[name] = max(counts[name], n)
            else:
                counts[name] += n
        opens += sum(d.trace["csv_opens"].values())
        read_files += len(d.trace["csv_opens"])
    records = sum(d.step.records for d in traced)
    ks_errors, bc_null = workload.ks_errors, workload.bc_null

    def busy(layer: str) -> float:
        return self_ns[layer] / 1e9

    return {
        "data.busy_s": (busy("data"), "s"),
        "data.values": (
            counts["data.ColumnReader.__iter__.values"] + counts["data.pairs"],
            "count",
        ),
        "data.csv_opens_per_command": (opens / read_files if read_files else 0.0, "count"),
        "sketch.busy_s": (busy("sketch"), "s"),
        "sketch.inserts": (counts["sketch.QuantileSketch.insert.calls"], "count"),
        "sketch.tuples_max": (counts["sketch.tuples_max"], "count"),
        "summary.busy_s": (busy("summary"), "s"),
        "drift.busy_s": (busy("drift"), "s"),
        "drift.ks_err_max": (max(ks_errors, default=0.0), "KS"),
        "drift.bc_null_gap_max": (max((1.0 - bc for bc in bc_null), default=0.0), "ratio"),
        "performance.busy_s": (busy("performance"), "s"),
        "store.busy_s": (busy("store"), "s"),
        "store.get_calls": (counts["store.FileStore.get.calls"], "count"),
        "store.put_calls": (counts["store.FileStore.put.calls"], "count"),
        "store.list_calls": (counts["store.FileStore.list.calls"], "count"),
        "store.bytes_read": (counts["store.bytes_read"], "bytes"),
        "store.bytes_written": (counts["store.bytes_written"], "bytes"),
        "store.docs_read_per_record": (
            counts["store.docs_read"] / records if records else 0.0,
            "ratio",
        ),
        "core.self_s": (busy("core"), "s"),
        "cli.import_s": (import_s, "s"),
        "cli.self_s": (busy("cli"), "s"),
        "trace_overhead_ratio": (
            sum(d.wall_s for d in traced) / sum(d.wall_s for d in plain),
            "ratio",
        ),
    }


def top_spans(traced: list[Done], limit: int = 10) -> list[tuple[str, float]]:
    """Span names with the largest total self time, in seconds."""
    totals: dict[str, float] = defaultdict(float)
    for d in traced:
        spans = d.trace["spans"]
        child = [0] * len(spans)
        for name, layer, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, layer, start, end, parent), inner in zip(spans, child):
            totals[name] += (end - start - inner) / 1e9
    return sorted(totals.items(), key=lambda item: -item[1])[:limit]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--toy", action="store_true", help="a few hundred rows per file; for the self-check"
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "driftmon" / "cli.py").is_file():
        print(f"error: {CHECKOUT} is not a driftmon checkout (no src/driftmon)", file=sys.stderr)
        return 2
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / ".work"))
    # Started before numpy or any input is loaded; see launch.py.
    runner = Runner(work)
    try:
        sys.path.insert(0, str(SRC))
        import driftmon

        if Path(driftmon.__file__).resolve().parent != (SRC / "driftmon").resolve():
            print(f"error: driftmon imported from {driftmon.__file__}, not {SRC}", file=sys.stderr)
            return 2
        from workloads import REPLICAS, WORKLOADS

        if args.workload not in WORKLOADS:
            names = sorted(WORKLOADS)
            print(f"error: unknown workload {args.workload!r}; one of {names}", file=sys.stderr)
            return 2
        workload = WORKLOADS[args.workload](work, args.seed, args.toy)
        return measure(args, runner, workload, REPLICAS)
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (HERE / ".work").rmdir()


def measure(args, runner: Runner, workload, replicas: int) -> int:
    # Compile the package's bytecode before anything is timed: users pay
    # that once per install, not per command.
    runner.spawn([sys.executable, "-c", "import driftmon.cli"])

    setup_times = []
    for k in range(replicas):
        start = time.perf_counter()
        workload.build(k)
        setup_times.append(time.perf_counter() - start)
    workload.prepare()

    probes: list[float] = []
    if args.trace:

        def sequence(k: int) -> list:
            cycles = itertools.islice(workload.cycles(k), workload.traced_cycles)
            return [step for cycle in cycles for step in cycle]

        plain = [runner.run(step) for step in sequence(1)]
        traced = [runner.run(step, traced=True) for step in sequence(2)]
        done = plain + traced
        problems = check_all(workload, done, (1, 2))
        problems += [
            f"traced command {i} left no trace" for i, d in enumerate(traced) if d.trace is None
        ]
        metrics = None
        if not problems:
            metrics = per_layer(workload, plain, traced, import_time(runner))
    else:
        cycles = workload.cycles(0)
        done = []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= LOOP_LIMIT_S or (
                elapsed >= args.seconds and len(done) >= workload.min_commands
            ):
                break
            probes.append(runner.spawn(STARTUP_PROBE)[0])
            # Whole cycles only, so every run holds the same mix of commands.
            for step in next(cycles):
                done.append(runner.run(step))
                done[-1].probe_s = probes[-1]
        problems = check_all(workload, done, (0,))
        metrics = end_to_end(done, setup_times)

    failed_commands = sum(1 for p in problems if p.startswith("command "))
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_info(),
        "commands": len(done),
        "wall_s": {
            kind: [round(d.wall_s, 4) for d in done if d.step.kind == kind]
            for kind in ("data", "query", "reaction")
        },
        "startup_probe_s": [round(p, 4) for p in probes],
        "setup_times_s": setup_times,
        "problems": problems,
    }
    if args.trace and metrics is not None:
        report["top_self_s"] = top_spans(traced)
    print(json.dumps(report))
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    if metrics is None:
        metrics = {}
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:>16.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(done),
                "failed": max(failed_commands, 1 if problems else 0),
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
