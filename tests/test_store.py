"""Tests for the filesystem document store and its canonical serializer."""

from __future__ import annotations

import math
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from driftmon import FileStore, StorageError, StoreKey, ValidationError, dumps_doc, loads_doc
from driftmon.store import format_real


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
        assert format_real(1.0) == "1.0"
        assert format_real(-3.0) == "-3.0"
        assert format_real(0.0) == "0.0"
        assert dumps_doc({"a": 1.0, "b": 1}) == '{"a": 1.0, "b": 1}\n'

    def test_non_finite_reals_are_rejected(self) -> None:
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValidationError, match="non-finite"):
                format_real(bad)
            with pytest.raises(ValidationError, match="non-finite"):
                dumps_doc({"a": bad})

    def test_unsupported_types_are_rejected(self) -> None:
        with pytest.raises(ValidationError, match="type"):
            dumps_doc({"a": object()})

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_reals_round_trip_exactly(self, x: float) -> None:
        assert float(format_real(x)) == x

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
