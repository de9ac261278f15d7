"""Stored documents stay byte-identical: one golden digest per document.

Small seeded inputs go through ``snapshot_baseline`` and the
``run_monitor`` of two drift monitors, one of them fine enough that no
sketch compacts and one coarse enough that every sketch does, and of a
performance monitor; a threshold and a report reaction then run once
each.  Every baseline and metric document, with its ``computed_at``
timestamp masked, must hash to the digest recorded below, and so must
the model, monitor, reaction and log documents, with ``created_at``
masked.
Input values come from ``random.Random``, whose stream is fixed across
Python versions, and are written with a fixed number of decimals, so the
inputs themselves do not move.  A change that alters a stored byte fails
here, naming the document; a deliberate format change updates the digests
in the same change and says why.
"""

from __future__ import annotations

import hashlib
import random
import re
from datetime import date, timedelta
from pathlib import Path

from driftmon import (
    FileStore,
    MonitorConfig,
    MonitorKind,
    MonitoringService,
    ReactionConfig,
    ReactionKind,
    StoreKey,
    open_dataset,
)

FORECAST = date(2022, 3, 20)
UNITS = 300

GOLDEN = {
    "model/m1/monitor/d1/baseline": (
        "7d7fe8e0753c7ff626d8e1517e1158f799f5fe91bc5f35866a4ee9a26f635c58"
    ),
    "model/m1/monitor/d1/metrics/2022-03-20/f1": (
        "fd7eeb111364a3f305bb06ecafe76e7eb31707443e0cb3bab3a42af83b88e3ee"
    ),
    "model/m1/monitor/d1/metrics/2022-03-20/f2": (
        "4e9f052a0649d6dd1ab1dd3e70453dbfb34adbaed0c031915f80c99d97946c88"
    ),
    "model/m1/monitor/d1/metrics/2022-03-20/prediction": (
        "f5372416005a01e8e9856acb2fae3766dce19f19e53384eb57eaa32155b5a82e"
    ),
    "model/m1/monitor/d2/baseline": (
        "94fb565460fc17c6ec529b1dd58bc209e94fd2e03365cd31402ff47ed027961e"
    ),
    "model/m1/monitor/d2/metrics/2022-03-20/f1": (
        "58bbd05c700b3356e5351a44a6612712b11355136a2dd149154baa1eb6db9208"
    ),
    "model/m1/monitor/d2/metrics/2022-03-20/f2": (
        "6e009b07f606049b3bee055a361cebffbdb09dd960650f3cc214f93aa9ea36a2"
    ),
    "model/m1/monitor/d2/metrics/2022-03-20/prediction": (
        "375593b397e2f1ca066b59b3ec94c4a50909266290e9ee795efeca26d4e29e5c"
    ),
    "model/m1/monitor/p1/metrics/2022-03-20/velocity": (
        "63f82f3406b42eb9ad33cc00578559d26a66236705825b5f14b36c1b3a4998d7"
    ),
}

#: Documents the service writes from its arguments rather than from data;
#: a log's key holds its creation time, so it is shown here as ``*``.
GOLDEN_CONFIGS = {
    "model/m1": (
        "52d5cbe89d94c995f5d10805808b3af7a7e0403e51222da77937de59ed2f5398"
    ),
    "model/m1/monitor/d1": (
        "e685a8bba95f49255a9b41c4f244080daeaceaf3737757e89c833dee40ad536d"
    ),
    "model/m1/monitor/d2": (
        "5e2f57a0e8777bc530fc2ff8cbade4cc2192957c50bcea768ca5663cc1b59160"
    ),
    "model/m1/monitor/p1": (
        "eb29451c18106076ca16ff4c0c442d051d8443829e4e1dfa91cb55676f74d830"
    ),
    "model/m1/reaction/alert": (
        "1b64a9eab6fa868e1eba196f5d8b114ec527920ea7a379b3484eaf83fa6bd851"
    ),
    "model/m1/reaction/alert/log/*": (
        "50fa171b8a9c976b5a660a11d30282cc5a227e6669c5e235e5170a52ffb33176"
    ),
    "model/m1/reaction/report": (
        "d7bba299392b9864dbf356926feed9b117ece3cb8963e61dacc0fc9114abd570"
    ),
    "model/m1/reaction/report/log/*": (
        "4b278dccfe6ae023f94ca3f92d9ecadc1359dfdf2fa5a66c3e9db58472b6db16"
    ),
}

_COMPUTED_AT = re.compile(r'"computed_at": "[^"]*"')
_CREATED_AT = re.compile(r'"created_at": "[^"]*"')


def _write_features(path: Path, rng: random.Random, day: date, rows: int, shift: float) -> Path:
    """Rows of ``unit_id,eval_date,prediction,f1,f2``; unit u007 has a blank
    prediction and every 50th row a blank ``f2``."""
    lines = ["unit_id,eval_date,prediction,f1,f2"]
    for i in range(rows):
        unit = f"u{i % UNITS:03d}"
        prediction = "" if unit == "u007" else f"{rng.random() * 6.0 + shift:.6f}"
        f1 = f"{rng.random() ** 2 * 10.0 + shift:.6f}"
        f2 = "" if i % 50 == 0 else f"{(rng.random() + rng.random()) * 3.0:.6f}"
        lines.append(f"{unit},{day.isoformat()},{prediction},{f1},{f2}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _write_sales(path: Path, rng: random.Random) -> Path:
    """Sparse fractional sales over the 7-day window plus one day after it;
    a unit-day may carry several rows."""
    lines = ["unit_id,date,units"]
    for offset in range(8):
        day = (FORECAST + timedelta(days=offset)).isoformat()
        for i in range(UNITS):
            while rng.random() < 0.6:
                lines.append(f"u{i:03d},{day},{rng.random() * 9.0:.3f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _populated_store(tmp_path: Path) -> FileStore:
    rng = random.Random(20220320)
    train = _write_features(tmp_path / "train.csv", rng, date(2022, 3, 6), 2000, 0.0)
    today = _write_features(tmp_path / "today.csv", rng, FORECAST, UNITS, 0.4)
    sales = _write_sales(tmp_path / "sales.csv", rng)

    store = FileStore(tmp_path / "store")
    service = MonitoringService(store)
    service.register_model("m1")
    service.set_monitor(
        MonitorConfig("d1", "m1", MonitorKind.DRIFT, ("f1", "f2", "prediction"), epsilon=0.005)
    )
    # At epsilon 0.05 a sketch level holds 258 values, so both files go
    # through compactions; at 0.005 (2200 values) neither does.
    service.set_monitor(
        MonitorConfig("d2", "m1", MonitorKind.DRIFT, ("f1", "f2", "prediction"), epsilon=0.05)
    )
    service.set_monitor(MonitorConfig("p1", "m1", MonitorKind.PERFORMANCE))
    for monitor in ("d1", "d2"):
        service.snapshot_baseline("m1", monitor, open_dataset(train, "training"))
        service.run_monitor("m1", monitor, FORECAST, open_dataset(today, "daily_inference"))
    service.run_monitor(
        "m1",
        "p1",
        FORECAST,
        open_dataset(today, "daily_inference"),
        open_dataset(sales, "daily_sales"),
    )
    service.set_reaction(
        ReactionConfig("alert", "m1", ReactionKind.THRESHOLD, "d2", "ks_distance", ">=", 0.05)
    )
    service.set_reaction(
        ReactionConfig(
            "report", "m1", ReactionKind.REPORT, "p1",
            date_from=date(2022, 3, 1), date_to=FORECAST, sample_size=5,
        )
    )
    for reaction in ("alert", "report"):
        service.run_reaction("m1", reaction, FORECAST)
    return store


def _stored_digests(tmp_path: Path) -> dict[str, str]:
    """Digest of every document under ``model/m1``, itself included, with
    its timestamps masked and a log's time in its key replaced by ``*``."""
    store = _populated_store(tmp_path)
    digests = {}
    for key in store.list(StoreKey.of("model", "m1")):
        body = _COMPUTED_AT.sub('"computed_at": X', store.get(key))
        body = _CREATED_AT.sub('"created_at": X', body)
        name = key.render() if "log" not in key.segments else "/".join(key.segments[:-1]) + "/*"
        digests[name] = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return digests


def _check(digests: dict[str, str], golden: dict[str, str]) -> None:
    assert sorted(digests) == sorted(golden), "stored document keys changed"
    changed = [key for key in golden if digests[key] != golden[key]]
    assert not changed, f"stored bytes changed for {changed}"


def test_stored_documents_match_golden_digests(tmp_path: Path) -> None:
    digests = _stored_digests(tmp_path)
    _check(
        {k: v for k, v in digests.items() if k.endswith("/baseline") or "/metrics/" in k}, GOLDEN
    )


def test_configuration_and_log_documents_match_golden_digests(tmp_path: Path) -> None:
    digests = _stored_digests(tmp_path)
    _check({k: v for k, v in digests.items() if k not in GOLDEN}, GOLDEN_CONFIGS)
