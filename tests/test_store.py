"""Tests for the filesystem document store and its canonical serializer."""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import driftmon
from driftmon import (
    FileStore,
    LogRecord,
    MetricRecord,
    MonitorConfig,
    MonitorKind,
    MonitoringService,
    ReactionConfig,
    ReactionKind,
    StorageError,
    StoreKey,
    ValidationError,
    dumps_doc,
    loads_doc,
)


@pytest.fixture
def store(tmp_path: Path) -> FileStore:
    return FileStore(tmp_path / "store")


class TestStoreKey:
    def test_of_parse_render_round_trip(self) -> None:
        key = StoreKey.of("model", "m1", "monitor", "drift-1")
        assert key.render() == "model/m1/monitor/drift-1"
        assert StoreKey.parse(key.render()) == key

    def test_child_appends_segments(self) -> None:
        assert StoreKey.of("model").child("m1", "metrics").render() == "model/m1/metrics"

    def test_segment_charset_is_restricted(self) -> None:
        for bad in ("a b", "a/b", "", "ä", "a\tb", "a\nb", "a\n", ".", ".."):
            with pytest.raises(ValidationError, match="segment"):
                StoreKey.of(bad)
        with pytest.raises(ValidationError, match="segment"):
            StoreKey.of("model", "..")
        # dots, dashes, underscores and digits are all legal
        StoreKey.of("a.b-c_d", "2022-03-20", "q.0")

    def test_parse_rejects_empty_segments(self) -> None:
        with pytest.raises(ValidationError, match="segment"):
            StoreKey.parse("a//b")
        with pytest.raises(ValidationError, match="segment"):
            StoreKey.parse("/a")

    def test_segment_count_limits(self) -> None:
        StoreKey.of(*[f"s{i}" for i in range(8)])
        with pytest.raises(ValidationError, match="1..8"):
            StoreKey.of(*[f"s{i}" for i in range(9)])
        with pytest.raises(ValidationError, match="1..8"):
            StoreKey.of()

    def test_rendered_length_limit(self) -> None:
        StoreKey.of("a" * 510, "b")  # renders to exactly 512
        with pytest.raises(ValidationError, match="512"):
            StoreKey.of("a" * 511, "b")


class TestCanonicalSerialization:
    def test_keys_are_sorted_and_output_is_single_line(self) -> None:
        text = dumps_doc({"b": 1, "a": [1.5, "x", True, None], "c": {"z": 0.5, "y": 2}})
        assert text == '{"a": [1.5, "x", true, null], "b": 1, "c": {"y": 2, "z": 0.5}}\n'

    def test_equal_documents_serialize_identically(self) -> None:
        first = dumps_doc({"x": 1, "y": {"b": 2.5, "a": "s"}})
        second = dumps_doc({"y": {"a": "s", "b": 2.5}, "x": 1})
        assert first == second

    def test_integral_floats_keep_a_decimal_point(self) -> None:
        """Whole-number reals must stay distinguishable from integers."""
        assert dumps_doc([1.0, -3.0, 0.0]) == "[1.0, -3.0, 0.0]\n"
        assert dumps_doc({"a": 1.0, "b": 1}) == '{"a": 1.0, "b": 1}\n'

    def test_non_finite_reals_are_rejected(self) -> None:
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValidationError, match="non-finite"):
                dumps_doc({"a": bad})
            with pytest.raises(ValidationError, match="non-finite"):
                dumps_doc([{"a": [0.5, bad]}])

    def test_unsupported_types_are_rejected(self) -> None:
        with pytest.raises(ValidationError, match="type"):
            dumps_doc({"a": object()})
        # ``json`` alone would write these keys as the strings "1" and "2".
        for bad in ({1: "a"}, {"a": [{"b": {2: 0.5}}]}):
            with pytest.raises(ValidationError, match="keys must be strings"):
                dumps_doc(bad)
        deep: list = []
        for _ in range(5000):
            deep = [deep]
        for bad in (deep, {"a": deep}):
            with pytest.raises(ValidationError, match="nested"):
                dumps_doc(bad)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_reals_round_trip_exactly(self, x: float) -> None:
        assert loads_doc(dumps_doc(x)) == x

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.one_of(
                st.integers(min_value=-(2**40), max_value=2**40),
                st.floats(allow_nan=False, allow_infinity=False),
                st.text(max_size=20),
                st.booleans(),
                st.none(),
            ),
            max_size=8,
        )
    )
    def test_documents_round_trip_through_text(self, doc) -> None:
        assert loads_doc(dumps_doc(doc)) == doc


class TestFileStore:
    def test_put_get_round_trip(self, store: FileStore) -> None:
        key = StoreKey.of("model", "m1")
        body = dumps_doc({"model_id": "m1", "created_at": "2022-03-07T00:00:00Z"})
        store.put(key, body)
        assert store.get(key) == body

    def test_get_missing_returns_none(self, store: FileStore) -> None:
        assert store.get(StoreKey.of("model", "nope")) is None

    def test_overwrite_replaces_body(self, store: FileStore) -> None:
        key = StoreKey.of("k")
        store.put(key, dumps_doc({"v": 1}))
        store.put(key, dumps_doc({"v": 2}))
        assert loads_doc(store.get(key)) == {"v": 2}

    def test_put_rejects_malformed_bodies_without_touching_disk(self, store: FileStore) -> None:
        key = StoreKey.of("model", "m1")
        with pytest.raises(ValidationError, match="well-formed"):
            store.put(key, "{not json")
        with pytest.raises(ValidationError, match="well-formed"):
            store.put(key, {"v": 1})  # only serialized text is accepted
        # json accepts these tokens, but no canonical document holds them.
        for constant in ("NaN", "Infinity", "-Infinity"):
            with pytest.raises(ValidationError, match="non-finite"):
                store.put(key, f'{{"v": [1.0, {constant}]}}\n')
        assert store.get(key) is None

    def test_list_is_sorted_and_recursive(self, store: FileStore) -> None:
        keys = [
            StoreKey.of("model", "m1", "metrics", "2022-03-21", "f1"),
            StoreKey.of("model", "m1", "metrics", "2022-03-20", "f1"),
            StoreKey.of("model", "m1", "metrics", "2022-03-20", "f2"),
        ]
        for k in keys:
            store.put(k, dumps_doc({}))
        listed = store.list(StoreKey.of("model", "m1"))
        assert [k.render() for k in listed] == sorted(k.render() for k in keys)

    def test_list_matches_whole_segments_only(self, store: FileStore) -> None:
        """model/m1 must not match model/m10."""
        store.put(StoreKey.of("model", "m1", "a"), dumps_doc({}))
        store.put(StoreKey.of("model", "m10", "a"), dumps_doc({}))
        listed = store.list(StoreKey.of("model", "m1"))
        assert [k.render() for k in listed] == ["model/m1/a"]

    def test_list_passes_over_names_the_store_never_writes(
        self, store: FileStore, tmp_path: Path
    ) -> None:
        """A copied file, a renamed directory or a tree deeper than a key
        can be does not make listing fail."""
        key = StoreKey.of("model", "m1", "metrics", "2022-03-20", "velocity")
        store.put(key, dumps_doc({}))
        day = tmp_path / "store" / "model" / "m1" / "metrics" / "2022-03-20"
        (day / "velocity copy.json").write_text("{}\n", encoding="utf-8")
        (day.parent / "2022-03-20 old").mkdir()
        (day.parent / "2022-03-20 old" / "velocity.json").write_text("{}\n", encoding="utf-8")
        deep = day.joinpath("a", "b", "c", "d")
        deep.mkdir(parents=True)
        (deep / "e.json").write_text("{}\n", encoding="utf-8")
        assert store.list(StoreKey.of("model", "m1")) == [key]

    def test_children_are_the_sorted_directory_names_that_form_keys(
        self, store: FileStore, tmp_path: Path
    ) -> None:
        metrics = StoreKey.of("model", "m1", "metrics")
        for day in ("2022-03-21", "2022-03-20", "2022-03-22"):
            store.put(metrics.child(day, "f1"), dumps_doc({}))
        root = tmp_path / "store" / "model" / "m1" / "metrics"
        (root / "2022-03-20 old").mkdir()
        (root / "notes.json").write_text("{}\n", encoding="utf-8")
        assert store.children(metrics) == ["2022-03-20", "2022-03-21", "2022-03-22"]
        assert store.children(metrics.child("2022-03-20")) == []  # documents only
        assert store.children(metrics.child("notes.json")) == []  # a file
        assert store.children(StoreKey.of("ghost")) == []

    def test_list_includes_document_at_the_prefix_itself(self, store: FileStore) -> None:
        store.put(StoreKey.of("model", "m1"), dumps_doc({"id": "m1"}))
        store.put(StoreKey.of("model", "m1", "monitor", "d1"), dumps_doc({}))
        listed = store.list(StoreKey.of("model", "m1"))
        assert [k.render() for k in listed] == ["model/m1", "model/m1/monitor/d1"]

    def test_delete_removes_subtree_and_counts(self, store: FileStore) -> None:
        store.put(StoreKey.of("model", "m1"), dumps_doc({}))
        store.put(StoreKey.of("model", "m1", "a"), dumps_doc({}))
        store.put(StoreKey.of("model", "m1", "b", "c"), dumps_doc({}))
        store.put(StoreKey.of("model", "m2"), dumps_doc({}))
        assert store.delete(StoreKey.of("model", "m1")) == 3
        assert store.list(StoreKey.of("model", "m1")) == []
        assert store.get(StoreKey.of("model", "m2")) is not None

    def test_delete_missing_is_zero_not_an_error(self, store: FileStore) -> None:
        assert store.delete(StoreKey.of("ghost")) == 0

    def test_remove_targets_one_document_only(self, store: FileStore) -> None:
        config = StoreKey.of("model", "m1", "monitor", "d1")
        store.put(config, dumps_doc({}))
        store.put(config.child("baseline", "f1"), dumps_doc({}))
        assert store.remove(config) is True
        assert store.get(config) is None
        assert store.get(config.child("baseline", "f1")) is not None
        assert store.remove(config) is False

    def test_no_temporary_files_survive(self, store: FileStore, tmp_path: Path) -> None:
        for i in range(20):
            store.put(StoreKey.of("model", f"m{i}"), dumps_doc({"i": i}))
        leftovers = [
            p for p in (tmp_path / "store").rglob("*") if p.is_file() and p.suffix != ".json"
        ]
        assert leftovers == []

    def test_failed_replace_keeps_the_previous_document(
        self, store: FileStore, tmp_path: Path, monkeypatch
    ) -> None:
        key = StoreKey.of("model", "m1")
        before = dumps_doc({"v": 1})
        store.put(key, before)

        def full_disk(src: str, dst: str) -> None:
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", full_disk)
        with pytest.raises(StorageError, match="model/m1"):
            store.put(key, dumps_doc({"v": 2}))
        monkeypatch.undo()
        assert (tmp_path / "store" / "model" / "m1.json").read_text(encoding="utf-8") == before
        assert list((tmp_path / "store").rglob(".put-*.tmp")) == []

    def test_write_failing_mid_body_keeps_the_previous_document(
        self, store: FileStore, tmp_path: Path, monkeypatch
    ) -> None:
        key = StoreKey.of("model", "m1")
        before = dumps_doc({"v": 1})
        store.put(key, before)
        written: list[int] = []
        fdopen = os.fdopen

        class HalfThenFull:
            """A temp file that takes half the body, then reports a full disk."""

            def __init__(self, fd: int, *args, **kwargs) -> None:
                self.handle = fdopen(fd, *args, **kwargs)

            def __enter__(self) -> "HalfThenFull":
                return self

            def __exit__(self, *exc) -> None:
                self.handle.close()

            def write(self, text: str) -> int:
                self.handle.write(text[: len(text) // 2])
                self.handle.flush()
                written.append(os.fstat(self.handle.fileno()).st_size)
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fdopen", HalfThenFull)
        with pytest.raises(StorageError, match="model/m1"):
            store.put(key, dumps_doc({"v": 2, "pad": "x" * 100}))
        monkeypatch.undo()
        assert written and written[0] > 0  # a truncated document was on disk
        assert (tmp_path / "store" / "model" / "m1.json").read_text(encoding="utf-8") == before
        assert list((tmp_path / "store").rglob(".put-*.tmp")) == []

    def test_unlistable_directory_is_a_storage_error(self, store: FileStore, monkeypatch) -> None:
        metrics = StoreKey.of("model", "m1", "metrics")
        store.put(metrics.child("2022-03-20", "f1"), dumps_doc({}))

        def denied(path):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(os, "scandir", denied)
        with pytest.raises(StorageError, match="model/m1/metrics"):
            store.children(metrics)

    def test_failed_subtree_removal_is_a_storage_error(
        self, store: FileStore, monkeypatch
    ) -> None:
        prefix = StoreKey.of("model", "m1")
        store.put(prefix.child("a"), dumps_doc({}))

        def busy(path, *args, **kwargs) -> None:
            raise OSError(16, "Device or resource busy", path)

        monkeypatch.setattr(shutil, "rmtree", busy)
        with pytest.raises(StorageError, match="model/m1"):
            store.delete(prefix)

    def test_failed_unlink_is_a_storage_error(self, store: FileStore, monkeypatch) -> None:
        key = StoreKey.of("model", "m1")
        store.put(key, dumps_doc({}))

        def denied(path, *args, **kwargs) -> None:
            raise PermissionError(1, "Operation not permitted", path)

        monkeypatch.setattr(os, "unlink", denied)
        with pytest.raises(StorageError, match="model/m1"):
            store.remove(key)
        monkeypatch.undo()
        assert store.get(key) is not None

    def test_create_never_overwrites(self, store: FileStore, tmp_path: Path) -> None:
        key = StoreKey.of("model", "m1", "log", "x")
        first = dumps_doc({"v": 1})
        assert store.create(key, first) is True
        assert store.create(key, dumps_doc({"v": 2})) is False
        assert store.get(key) == first
        assert list((tmp_path / "store").rglob(".put-*.tmp")) == []
        with pytest.raises(ValidationError, match="well-formed"):
            store.create(StoreKey.of("model", "m2"), "{")
        assert store.get(StoreKey.of("model", "m2")) is None

    def test_two_processes_appending_logs_lose_none(self, store: FileStore) -> None:
        """Two processes run one reaction 25 times each, at once, in one
        store: all 50 logs are kept, whole and under distinct keys."""
        service = MonitoringService(store)
        service.register_model("m1")
        service.set_monitor(MonitorConfig("p1", "m1", MonitorKind.PERFORMANCE))
        record = MetricRecord(
            "m1", "p1", date(2022, 3, 20), "velocity", {"mae": 0.5}, {"n": 1}
        )
        store.put(
            StoreKey.of("model", "m1", "monitor", "p1", "metrics", "2022-03-20", "velocity"),
            dumps_doc(record.to_doc()),
        )
        service.set_reaction(
            ReactionConfig(
                "alert", "m1", ReactionKind.THRESHOLD, "p1",
                metric_name="mae", comparator=">", threshold=1.0,
            )
        )
        # Each process signals that it has started, then waits for the
        # other, so the two loops of runs overlap.
        script = (
            "import json, sys\n"
            "from datetime import date\n"
            "from driftmon import FileStore, MonitoringService\n"
            "service = MonitoringService(FileStore(sys.argv[1]))\n"
            "print('ready', flush=True)\n"
            "sys.stdin.readline()\n"
            "logs = [service.run_reaction('m1', 'alert', date(2022, 3, 20))[0]\n"
            "        for _ in range(25)]\n"
            "print(json.dumps([log.to_doc()['created_at'] for log in logs]))\n"
        )
        src = str(Path(driftmon.__file__).resolve().parents[1])
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(store.root)],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env={**os.environ, "PYTHONPATH": src},
            )
            for _ in range(2)
        ]
        try:
            assert [proc.stdout.readline() for proc in procs] == ["ready\n"] * 2
            outputs = [proc.communicate("go\n", timeout=60) for proc in procs]
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)
        assert [proc.returncode for proc in procs] == [0, 0], [err for _, err in outputs]
        written = [stamp for out, _ in outputs for stamp in json.loads(out)]

        keys = store.list(StoreKey.of("model", "m1", "reaction", "alert", "log"))
        assert len(keys) == len(set(keys)) == 50
        stored = [LogRecord.from_doc(loads_doc(store.get(key))) for key in keys]
        assert sorted(log.to_doc()["created_at"] for log in stored) == sorted(written)
        assert len(set(written)) == 50
        assert list(store.root.rglob(".put-*.tmp")) == []

    def test_failed_link_is_a_storage_error_and_leaves_no_temp_file(
        self, store: FileStore, tmp_path: Path, monkeypatch
    ) -> None:
        def unsupported(src: str, dst: str) -> None:
            raise OSError(1, "Operation not permitted")

        monkeypatch.setattr(os, "link", unsupported)
        with pytest.raises(StorageError, match="model/m1"):
            store.create(StoreKey.of("model", "m1"), dumps_doc({}))
        monkeypatch.undo()
        assert list((tmp_path / "store").rglob("*.*")) == []

    def test_unreadable_document_is_a_storage_error(
        self, store: FileStore, tmp_path: Path
    ) -> None:
        (tmp_path / "store" / "model" / "m1.json").mkdir(parents=True)
        with pytest.raises(StorageError, match="model/m1"):
            store.get(StoreKey.of("model", "m1"))

    def test_document_that_is_not_utf8_is_a_storage_error(self, store: FileStore) -> None:
        key = StoreKey.of("model", "m1")
        store.put(key, dumps_doc({"model_id": "m1"}))
        with open(store.root / "model" / "m1.json", "ab") as handle:
            handle.write(b"\xe9")
        with pytest.raises(StorageError, match="model/m1: not UTF-8"):
            store.get(key)
