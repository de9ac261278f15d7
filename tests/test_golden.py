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
    "model/m1/monitor/d1/baseline/f1": (
        "802401e9910b69d862d3fe5f440aab49703e072bcfcac8067d5ac254d1d6d452"
    ),
    "model/m1/monitor/d1/baseline/f2": (
        "248b86ae9efc1eabdf2b9a273558e7041221ace87592cbbfbee4f6fbf0cd37d3"
    ),
    "model/m1/monitor/d1/baseline/prediction": (
        "168ed0b362826c2c81e09e1c906b8496bdbb324197e00fd3e0dd811ce76bbe10"
    ),
    "model/m1/monitor/d1/metrics/2022-03-20/f1": (
        "fba2935145d636f25222b50ef0643de961ceed762095c27ad3c9da561b5c010e"
    ),
    "model/m1/monitor/d1/metrics/2022-03-20/f2": (
        "0cde7923f26a85ea5d81816944fb9931d1380a76dd08964fdf45ac818e2f53e0"
    ),
    "model/m1/monitor/d1/metrics/2022-03-20/prediction": (
        "0ccf9dd1873ed2b054b341995fea7d25e14d4d593c4a6dc4dac045f976770c86"
    ),
    "model/m1/monitor/d2/baseline/f1": (
        "e228d4e3283f3ebc340a609d387948121937938d46aa2877f9366f3ab573692f"
    ),
    "model/m1/monitor/d2/baseline/f2": (
        "1403df1661352228885643d7fbe75b52991978f4db6aa94b4e08029c41dc0cb6"
    ),
    "model/m1/monitor/d2/baseline/prediction": (
        "395c70d14351cbc969b6e64669e5a9850a92881d3b8b319178d104f5a64b5702"
    ),
    "model/m1/monitor/d2/metrics/2022-03-20/f1": (
        "1432bb634a159bb1b7f717a68e09cf0a401952179d47670a7e34460842303203"
    ),
    "model/m1/monitor/d2/metrics/2022-03-20/f2": (
        "5a6335fa2ca49e2912600a50ad4fe129c768505684191fe17b5971e40f94b944"
    ),
    "model/m1/monitor/d2/metrics/2022-03-20/prediction": (
        "3c331ae6ec4da014637f8c5b2b9ac695c7f123afb7cee2be8866330f4dbcbe47"
    ),
    "model/m1/monitor/p1/metrics/2022-03-20/velocity": (
        "2126185cb641be8bede0f113a7e9fcf25b387e9469451985ca80ebf7b14ef698"
    ),
}

#: Documents the service writes from its arguments rather than from data;
#: a log's key holds its creation time, so it is shown here as ``*``.
GOLDEN_CONFIGS = {
    "model/m1": (
        "52d5cbe89d94c995f5d10805808b3af7a7e0403e51222da77937de59ed2f5398"
    ),
    "model/m1/monitor/d1": (
        "1e21c8319e089d321ae59a5422831244fddfb0fbf56209e3f5ec35a7ffb4484f"
    ),
    "model/m1/monitor/d2": (
        "a49d3bcaf3697c1cb3a241c199ee95ef7d0b52b91ce57dda5ed66e574a7d8f87"
    ),
    "model/m1/monitor/p1": (
        "eb29451c18106076ca16ff4c0c442d051d8443829e4e1dfa91cb55676f74d830"
    ),
    "model/m1/reaction/alert": (
        "8747cf93c192db813a662e2fd9af1bf124634aef654dc4ff4c47c356b6d1ec13"
    ),
    "model/m1/reaction/alert/log/*": (
        "98748bd420791040b79b781c44f2c451fc189cadbbd3887df0046282452da251"
    ),
    "model/m1/reaction/report": (
        "d7bba299392b9864dbf356926feed9b117ece3cb8963e61dacc0fc9114abd570"
    ),
    "model/m1/reaction/report/log/*": (
        "e3604d71faa1074055062aefc692703127808858b57af2c2bd8627fe2b9002f9"
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
    _check({k: v for k, v in digests.items() if "/baseline/" in k or "/metrics/" in k}, GOLDEN)


def test_configuration_and_log_documents_match_golden_digests(tmp_path: Path) -> None:
    digests = _stored_digests(tmp_path)
    _check({k: v for k, v in digests.items() if k not in GOLDEN}, GOLDEN_CONFIGS)
