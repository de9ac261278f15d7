"""No stored document, however mangled, makes a command raise.

A small store is built through the CLI: a model, a drift and a
performance monitor, a baseline, a day of metrics for each, and a
threshold and a report reaction that have each logged once.  Every
document of it is then mangled in a fixed list of ways: truncated, empty,
behind a byte-order mark, holding a byte that is not UTF-8, nested 5,000
deep, wrapped in a list, and with each field (one level into a nested
object, and of a baseline's first summary) deleted or set to each JSON
type.  Every command that reads the store runs in-process on each mangled
store and must end in a documented exit code, 0 to 3, with no exception
escaping ``cli.main``.

``all_cases`` is the whole list, 818 cases of 20 commands each; the test
runs a fixed seeded sample of it that takes a few seconds.  Passing every
case to ``run_case`` runs them all.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

import pytest

from driftmon.cli import main

#: One value of each JSON type a field can be set to.
JSON_VALUES = (None, True, 0, 1.5, "x", [], {})
SAMPLE_SIZE = 50
SAMPLE_SEED = 7


def _commands(store: str, data: Path) -> list[tuple[str, ...]]:
    """Every command that reads a stored document, as ``cli.main`` takes it."""
    at = ("--store", store, "--model", "m1")
    day = ("--date", "2022-03-20")
    commands = [
        ("register-model", "--store", store, "--id", "m1"),
        ("set-monitor", *at, "--id", "d2", "--kind", "performance"),
        ("set-reaction", *at, "--id", "r2", "--kind", "threshold", "--monitor", "d1",
         "--metric", "ks_distance", "--comparator", ">", "--threshold", "0.5"),
        ("snapshot-baseline", *at, "--monitor", "d1", "--data", str(data / "training.csv")),
        ("run-monitor", *at, "--monitor", "d1", *day, "--data", str(data / "inference.csv")),
        ("run-monitor", *at, "--monitor", "p1", *day, "--data", str(data / "inference.csv"),
         "--sales", str(data / "sales.csv")),
        ("run-reaction", *at, "--reaction", "alert", "--as-of", "2022-03-20"),
        ("run-reaction", *at, "--reaction", "report", "--as-of", "2022-03-20"),
    ]
    for fmt in ("table", "csv", "doc"):
        for monitor in ("d1", "p1"):
            commands.append(("get-metrics", *at, "--monitor", monitor, "--from", "2022-03-01",
                             "--to", "2022-03-31", "--format", fmt))
        for reaction in ("alert", "report"):
            commands.append(("get-logs", *at, "--reaction", reaction, "--format", fmt))
    return commands


def _build(root: Path) -> None:
    store, data = str(root / "store"), root / "data"
    at = ("--store", store, "--model", "m1")
    steps = [
        ("synth", "--out", str(data), "--units", "40", "--seed", "3"),
        ("register-model", "--store", store, "--id", "m1"),
        ("set-monitor", *at, "--id", "d1", "--kind", "drift", "--quantities", "f1,prediction",
         "--cdf-points", "20", "--density-bins", "10"),
        ("set-monitor", *at, "--id", "p1", "--kind", "performance"),
        ("snapshot-baseline", *at, "--monitor", "d1", "--data", str(data / "training.csv")),
        ("run-monitor", *at, "--monitor", "d1", "--date", "2022-03-20",
         "--data", str(data / "inference.csv")),
        ("run-monitor", *at, "--monitor", "p1", "--date", "2022-03-20",
         "--data", str(data / "inference.csv"), "--sales", str(data / "sales.csv")),
        ("set-reaction", *at, "--id", "alert", "--kind", "threshold", "--monitor", "d1",
         "--metric", "ks_distance", "--comparator", ">=", "--threshold", "0.0"),
        ("set-reaction", *at, "--id", "report", "--kind", "report", "--monitor", "p1",
         "--from", "2022-03-01", "--to", "2022-03-20", "--sample-size", "5"),
        ("run-reaction", *at, "--reaction", "alert", "--as-of", "2022-03-20"),
        ("run-reaction", *at, "--reaction", "report", "--as-of", "2022-03-20"),
    ]
    for step in steps:
        assert main(list(step)) == 0, step


def _fields(doc: dict) -> list[tuple]:
    """Paths to every field of an object document and of each object one
    level into it, directly or as the first element of a list."""
    paths = []
    for name, value in doc.items():
        paths.append((name,))
        if isinstance(value, list) and value and isinstance(value[0], dict):
            paths.extend((name, 0, inner) for inner in value[0])
        elif isinstance(value, dict):
            paths.extend((name, inner) for inner in value)
    return paths


def _with(doc, path: tuple, value, delete: bool = False) -> bytes:
    """``doc`` written with the field at ``path`` set to ``value``, or
    deleted."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(doc).encode()


def _mutations(body: bytes) -> list[tuple[str, bytes]]:
    """Each mangled form of one document, with a name for it."""
    doc = json.loads(body)
    forms = [
        ("truncated", body[: len(body) // 2]),
        ("empty", b""),
        ("bom", b"\xef\xbb\xbf" + body),
        ("not-utf8", body[:1] + b"\xff\xfe" + body[1:]),
        ("nested", b"[" * 5000 + b"]" * 5000),
        ("wrapped", b"[" + body + b"]"),
    ]
    for path in _fields(doc):
        name = ".".join(map(str, path))
        forms.append((f"{name} deleted", _with(doc, path, None, delete=True)))
        forms += [(f"{name}={json.dumps(value)}", _with(doc, path, value)) for value in JSON_VALUES]
    return forms


@pytest.fixture(scope="module")
def template(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("fuzz")
    _build(root)
    return root


def all_cases(template: Path) -> list[tuple[str, str, bytes]]:
    """``(document, mutation, body)`` for every document of the template
    store and every way of mangling it."""
    store = template / "store"
    cases = []
    for path in sorted(store.rglob("*.json")):
        document = path.relative_to(store).as_posix()
        cases.extend((document, name, body) for name, body in _mutations(path.read_bytes()))
    return cases


def run_case(template: Path, work: Path, case: tuple[str, str, bytes]) -> list[str]:
    """Run every command on a copy of the store holding one mangled
    document, put back before each command; returns what went wrong."""
    document, mutation, body = case
    if work.exists():
        shutil.rmtree(work)
    shutil.copytree(template / "store", work)
    target = work / document
    faults = []
    for command in _commands(str(work), template / "data"):
        target.write_bytes(body)
        try:
            code = main(list(command))
        except Exception as exc:  # any escape is the finding
            faults.append(f"{document} [{mutation}] {command[0]}: {type(exc).__name__}: {exc}")
            continue
        if code not in (0, 1, 2, 3):
            faults.append(f"{document} [{mutation}] {command[0]}: exit {code!r}")
    return faults


def test_mangled_documents_end_in_documented_exit_codes(
    template: Path, tmp_path: Path, capsys
) -> None:
    cases = all_cases(template)
    assert len({document for document, _, _ in cases}) == 11
    faults = []
    for case in random.Random(SAMPLE_SEED).sample(cases, SAMPLE_SIZE):
        faults += run_case(template, tmp_path / "work", case)
        capsys.readouterr()
    assert not faults, "\n".join(faults[:20])
