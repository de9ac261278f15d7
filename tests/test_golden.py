"""Stored documents stay byte-identical: one golden digest per document.

Small seeded inputs go through ``snapshot_baseline`` and a drift and a
performance ``run_monitor``.  Every baseline and metric document, with its
``computed_at`` timestamp masked, must hash to the digest recorded below.
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
    "model/m1/monitor/p1/metrics/2022-03-20/velocity": (
        "2126185cb641be8bede0f113a7e9fcf25b387e9469451985ca80ebf7b14ef698"
    ),
}

_COMPUTED_AT = re.compile(r'"computed_at": "[^"]*"')


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


def _stored_digests(tmp_path: Path) -> dict[str, str]:
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
    service.set_monitor(MonitorConfig("p1", "m1", MonitorKind.PERFORMANCE))
    service.snapshot_baseline("m1", "d1", open_dataset(train, "training"))
    service.run_monitor("m1", "d1", FORECAST, open_dataset(today, "daily_inference"))
    service.run_monitor(
        "m1",
        "p1",
        FORECAST,
        open_dataset(today, "daily_inference"),
        open_dataset(sales, "daily_sales"),
    )

    digests = {}
    for key in store.list(StoreKey.of("model", "m1")):
        if not {"baseline", "metrics"} & set(key.segments):
            continue
        body = _COMPUTED_AT.sub('"computed_at": X', store.get(key))
        digests[key.render()] = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return digests


def test_stored_documents_match_golden_digests(tmp_path: Path) -> None:
    digests = _stored_digests(tmp_path)
    assert sorted(digests) == sorted(GOLDEN), "stored document keys changed"
    changed = [key for key in GOLDEN if digests[key] != GOLDEN[key]]
    assert not changed, f"stored bytes changed for {changed}"
