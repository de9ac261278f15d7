"""The value records behave as frozen dataclasses would.

Each record class is built by keyword and by position, with defaults for
the fields left out, and then validated; records compare and hash by their
fields, print every field, and refuse assignment.  Every stored record
reads back from its canonical document as the record it was written from.
"""

from __future__ import annotations

from datetime import date, datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from driftmon import (
    ApproxCdf,
    DatasetHandle,
    DatasetKind,
    LogRecord,
    MetricRecord,
    ModelRegistration,
    MonitorConfig,
    MonitorKind,
    ReactionConfig,
    ReactionKind,
    Severity,
    StoreKey,
    SynthSpec,
    ValidationError,
    dumps_doc,
    loads_doc,
)

CREATED = datetime(2022, 3, 20, 6, 0, tzinfo=timezone.utc)

#: One instance of each record class, built by position, with the keyword
#: arguments that build the same record.
RECORDS = {
    "ModelRegistration": (
        ModelRegistration("m1", "demand model", CREATED),
        dict(model_id="m1", description="demand model", created_at=CREATED),
    ),
    "MonitorConfig": (
        MonitorConfig("d1", "m1", MonitorKind.DRIFT, ("f1", "f2"), 0.01),
        dict(monitor_id="d1", model_id="m1", kind=MonitorKind.DRIFT, quantities=("f1", "f2"),
             epsilon=0.01, cdf_points=100, density_bins=100),
    ),
    "MetricRecord": (
        MetricRecord("m1", "d1", date(2022, 3, 20), "f1", {"ks_distance": 0.1}, {"n": 3}),
        dict(model_id="m1", monitor_id="d1", eval_date=date(2022, 3, 20), quantity="f1",
             metrics={"ks_distance": 0.1}, context={"n": 3}),
    ),
    "ReactionConfig": (
        ReactionConfig("r1", "m1", ReactionKind.THRESHOLD, "d1", "ks_distance", ">", 0.2),
        dict(reaction_id="r1", model_id="m1", kind=ReactionKind.THRESHOLD, monitor_id="d1",
             metric_name="ks_distance", comparator=">", threshold=0.2,
             date_from=None, date_to=None, sample_size=None),
    ),
    "LogRecord": (
        LogRecord("m1", "r1", CREATED, Severity.ALERT, {"fired": True}),
        dict(model_id="m1", reaction_id="r1", created_at=CREATED, severity=Severity.ALERT,
             body={"fired": True}),
    ),
    "StoreKey": (StoreKey(("model", "m1")), dict(segments=("model", "m1"))),
    "DatasetHandle": (
        DatasetHandle(Path("day.csv"), DatasetKind.DAILY_INFERENCE, ("unit_id", "f1")),
        dict(path=Path("day.csv"), kind=DatasetKind.DAILY_INFERENCE, columns=("unit_id", "f1")),
    ),
    "ApproxCdf": (
        ApproxCdf("f1", 4, (1.0, 2.0), (0.5, 1.0)),
        dict(label="f1", sample_count=4, breakpoints=(1.0, 2.0), probabilities=(0.5, 1.0)),
    ),
    "SynthSpec": (
        SynthSpec(500, 0.5, 2, 0.1, 1.5, 3),
        dict(n_units=500, density=0.5, n_features=2, location_shift=0.1, scale_factor=1.5,
             seed=3),
    ),
}


@pytest.fixture(params=list(RECORDS), ids=list(RECORDS))
def case(request):
    return RECORDS[request.param]


def test_positional_and_keyword_construction_agree(case) -> None:
    record, fields = case
    cls = type(record)
    assert record == cls(**fields) == cls(*fields.values())
    assert record != tuple(fields.values())
    if _hashable(record):
        assert hash(record) == hash(cls(**fields))


def test_repr_names_every_field_in_order(case) -> None:
    record, fields = case
    body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(record) == f"{type(record).__name__}({body})"


def test_assignment_and_deletion_raise(case) -> None:
    record, fields = case
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, name, "other")
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert getattr(record, name) == fields[name]


def test_calls_that_do_not_fit_the_fields_raise_type_error(case) -> None:
    record, fields = case
    cls = type(record)
    first = next(iter(fields))
    with pytest.raises(TypeError):
        cls(**fields, not_a_field=1)
    with pytest.raises(TypeError):
        cls(fields[first], **fields)
    with pytest.raises(TypeError):  # more values than any record has fields
        cls(*fields.values(), *[None] * 11)
    with pytest.raises(TypeError):
        cls()


def test_defaults_fill_the_fields_left_out() -> None:
    config = MonitorConfig("d1", "m1", MonitorKind.PERFORMANCE)
    assert (config.quantities, config.epsilon, config.cdf_points, config.density_bins) == (
        (), 0.001, 100, 100,
    )
    reaction = ReactionConfig(
        "r1", "m1", ReactionKind.REPORT, "d1",
        date_from=date(2022, 1, 1), date_to=date(2022, 1, 31), sample_size=5,
    )
    assert (reaction.metric_name, reaction.comparator, reaction.threshold) == (None, None, None)


def test_validation_runs_on_every_construction() -> None:
    with pytest.raises(ValidationError, match="segment"):
        StoreKey(("model", "a b"))
    with pytest.raises(ValidationError, match="segment"):
        StoreKey(segments=("model", "a b"))
    with pytest.raises(ValidationError, match="needs at least one quantity"):
        MonitorConfig("d1", "m1", MonitorKind.DRIFT)


def test_store_keys_work_as_dict_keys_and_set_members() -> None:
    index = {StoreKey.of("model", "m1"): 1, StoreKey.of("model", "m2"): 2}
    assert index[StoreKey.parse("model/m1")] == 1
    assert index[StoreKey.of("model").child("m2")] == 2
    assert StoreKey.of("model", "m3") not in index
    assert len({StoreKey.of("a", "b"), StoreKey.parse("a/b"), StoreKey(("a", "b"))}) == 1
    assert hash(StoreKey.of("a", "b")) == hash(StoreKey.parse("a/b"))


def test_records_holding_dicts_are_unhashable() -> None:
    record, _ = RECORDS["MetricRecord"]
    with pytest.raises(TypeError):
        hash(record)


def _hashable(record) -> bool:
    try:
        hash(record)
    except TypeError:
        return False
    return True


# -- documents ---------------------------------------------------------------

_ids = st.from_regex(r"[A-Za-z0-9_-][A-Za-z0-9._-]{0,11}", fullmatch=True)
_reals = st.floats(allow_nan=False, allow_infinity=False)
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | _reals | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_objects = st.dictionaries(st.text(max_size=8), _json, max_size=4)


def _report(dates: tuple[date, date]) -> st.SearchStrategy:
    first, last = sorted(dates)
    return st.builds(
        ReactionConfig,
        reaction_id=_ids,
        model_id=_ids,
        kind=st.just(ReactionKind.REPORT),
        monitor_id=_ids,
        date_from=st.just(first),
        date_to=st.just(last),
        sample_size=st.integers(min_value=2, max_value=10_000),
    )


def _cdf(n: int) -> st.SearchStrategy:
    inner = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
    return st.builds(
        ApproxCdf,
        label=st.text(max_size=8),
        sample_count=st.integers(min_value=1, max_value=2**40),
        breakpoints=st.lists(_reals, min_size=n, max_size=n).map(sorted).map(tuple),
        probabilities=st.lists(inner, min_size=n - 1, max_size=n - 1, unique=True).map(
            lambda ps: (*sorted(ps), 1.0)
        ),
    )


#: A strategy for each kind of stored record.
STORED = {
    "drift monitor": st.builds(
        MonitorConfig,
        monitor_id=_ids,
        model_id=_ids,
        kind=st.just(MonitorKind.DRIFT),
        quantities=st.lists(_ids, min_size=1, max_size=4, unique=True).map(tuple),
        epsilon=st.floats(min_value=0.0, max_value=0.5, exclude_min=True),
        cdf_points=st.integers(min_value=2, max_value=10_000),
        density_bins=st.integers(min_value=1, max_value=10_000),
    ),
    "performance monitor": st.builds(
        MonitorConfig, monitor_id=_ids, model_id=_ids, kind=st.just(MonitorKind.PERFORMANCE)
    ),
    "metric": st.builds(
        MetricRecord,
        model_id=_ids,
        monitor_id=_ids,
        eval_date=st.dates(),
        quantity=st.text(max_size=8),
        metrics=st.dictionaries(st.text(max_size=8), _reals, max_size=4),
        context=_objects,
    ),
    "threshold reaction": st.builds(
        ReactionConfig,
        reaction_id=_ids,
        model_id=_ids,
        kind=st.just(ReactionKind.THRESHOLD),
        monitor_id=_ids,
        metric_name=st.text(min_size=1, max_size=8),
        comparator=st.sampled_from(["<", "<=", ">", ">="]),
        threshold=_reals,
    ),
    "report reaction": st.tuples(st.dates(), st.dates()).flatmap(_report),
    "log": st.builds(
        LogRecord,
        model_id=_ids,
        reaction_id=_ids,
        created_at=st.datetimes(timezones=st.just(timezone.utc)),
        severity=st.sampled_from(Severity),
        body=_objects,
    ),
    "summary": st.integers(min_value=1, max_value=6).flatmap(_cdf),
}


@pytest.mark.parametrize("kind", list(STORED))
@given(data=st.data())
def test_every_stored_record_reads_back_from_its_document(kind: str, data) -> None:
    record = data.draw(STORED[kind])
    assert type(record).from_doc(loads_doc(dumps_doc(record.to_doc()))) == record
