"""Tests for the streaming quantile sketch.

The reference oracle throughout is the sorted copy of everything inserted:
a query at probability p must land within epsilon * count ranks of the
target rank ceil(p * count), counting ranks from 1.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from itertools import repeat
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftmon import EmptySummaryError, QuantileSketch, ValidationError


def rank_error(sorted_values: list[float], answer: float, target: int) -> int:
    """Distance in ranks between ``answer`` and the target rank.

    A value occupies the closed rank interval [bisect_left + 1, bisect_right]
    in one-based rank space; the error is zero when the target falls inside.
    """
    lo = bisect_left(sorted_values, answer) + 1
    hi = bisect_right(sorted_values, answer)
    if lo <= target <= hi:
        return 0
    return min(abs(lo - target), abs(hi - target))


def check_invariants(sketch: QuantileSketch) -> None:
    """Assert the structural invariants that hold after every value."""
    tuples = sketch.tuples
    count = sketch.count
    assert sum(g for _, g, _ in tuples) == count
    values = [v for v, _, _ in tuples]
    assert values == sorted(values)
    if count >= 1.0 / (2.0 * sketch.epsilon):
        budget = math.floor(2.0 * sketch.epsilon * count)
        assert all(g + d <= budget for _, g, d in tuples)
    if tuples:
        assert tuples[0][2] == 0
        assert tuples[-1][2] == 0


def test_epsilon_must_lie_in_half_open_interval() -> None:
    for bad in (0.0, -0.1, 0.5000001, 1.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match="epsilon"):
            QuantileSketch(bad)
    assert QuantileSketch(0.5).epsilon == 0.5
    assert QuantileSketch(1e-4).epsilon == 1e-4


def test_non_finite_observations_are_rejected() -> None:
    sketch = QuantileSketch(0.1)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="finite"):
            sketch.extend([bad])
    assert sketch.count == 0


def test_query_probability_must_lie_in_unit_interval() -> None:
    sketch = QuantileSketch(0.1)
    sketch.extend([3.0])
    for bad in (-0.1, 1.5, math.nan):
        with pytest.raises(ValidationError, match="probability"):
            sketch.query(bad)


def test_empty_sketch_raises_on_query() -> None:
    with pytest.raises(EmptySummaryError, match="empty"):
        QuantileSketch(0.1).query(0.5)


def test_count_tracks_inserts() -> None:
    sketch = QuantileSketch(0.1)
    for i in range(25):
        sketch.extend([float(i % 7)])
        assert sketch.count == i + 1


def test_single_observation_answers_every_probability() -> None:
    sketch = QuantileSketch(0.25)
    sketch.extend([42.5])
    for p in (0.0, 0.3, 0.5, 0.99, 1.0):
        assert sketch.query(p) == 42.5


def test_extremes_are_exact() -> None:
    """p = 0 and p = 1 must return the true minimum and maximum."""
    rng = np.random.default_rng(11)
    values = rng.normal(0.0, 5.0, 3000)
    sketch = QuantileSketch(0.01)
    sketch.extend(values)
    assert sketch.query(0.0) == values.min()
    assert sketch.query(1.0) == values.max()


def test_sequential_integers_frozen_regression() -> None:
    """Known stream 1..1000 at epsilon 0.01: size and median are pinned."""
    sketch = QuantileSketch(0.01)
    sketch.extend([float(i) for i in range(1, 1001)])
    assert len(sketch.tuples) == 68
    assert sketch.query(0.0) == 1.0
    assert sketch.query(1.0) == 1000.0
    median = sketch.query(0.5)
    assert median == 506.0
    assert abs(median - 500) <= 0.01 * 1000


def test_compression_keeps_summary_small() -> None:
    """Tuple counts stay far below N and grow slowly with N."""
    sizes = {}
    for n in (1000, 10000, 50000):
        sketch = QuantileSketch(0.01)
        sketch.extend([float(i) for i in range(1, n + 1)])
        sizes[n] = len(sketch.tuples)
    assert sizes == {1000: 68, 10000: 59, 50000: 69}
    dense = QuantileSketch(0.001)
    dense.extend([float(i) for i in range(10000)])
    assert len(dense.tuples) == 659


def test_invariants_hold_throughout_a_random_stream() -> None:
    rng = np.random.default_rng(7)
    sketch = QuantileSketch(0.05)
    for v in rng.normal(0.0, 1.0, 500):
        sketch.extend([float(v)])
        check_invariants(sketch)


@settings(max_examples=100, deadline=None)
@given(
    pool=st.lists(
        st.integers(0, 5).map(float) | st.floats(allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=20,
    ),
    n=st.integers(0, 600),
    seed=st.integers(0, 2**32 - 1),
    epsilon=st.floats(min_value=0.002, max_value=0.5),
    order=st.sampled_from(["drawn", "sorted", "reversed"]),
)
def test_every_delta_fits_the_budget_at_every_count(pool, n, seed, epsilon, order) -> None:
    """``delta <= floor(2 * epsilon * count)`` after every value, also at
    the counts below ``1 / (2 * epsilon)`` that ``check_invariants`` skips.
    ``_compress`` relies on it: no tuple's band is computed from a negative
    capacity."""
    values = random.Random(seed).choices(pool, k=n)
    if order != "drawn":
        values.sort(reverse=order == "reversed")
    sketch = QuantileSketch(epsilon)
    for v in values:
        sketch.extend([v])
        budget = math.floor(2.0 * epsilon * sketch.count)
        assert all(d <= budget for _, _, d in sketch.tuples)


def test_invariants_hold_with_heavy_duplication() -> None:
    rng = np.random.default_rng(3)
    sketch = QuantileSketch(0.02)
    sketch.extend(rng.integers(0, 5, 2000))
    check_invariants(sketch)
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert sketch.query(p) in {0.0, 1.0, 2.0, 3.0, 4.0}


@pytest.mark.parametrize("order", ["sorted", "reversed", "shuffled"])
@pytest.mark.parametrize("epsilon", [0.01, 0.05])
def test_rank_error_stays_within_budget(order: str, epsilon: float) -> None:
    """Every grid quantile lands within epsilon * N ranks of the oracle."""
    rng = np.random.default_rng(13)
    values = rng.lognormal(0.0, 1.0, 4000)
    if order == "sorted":
        stream = np.sort(values)
    elif order == "reversed":
        stream = np.sort(values)[::-1]
    else:
        stream = values
    sketch = QuantileSketch(epsilon)
    sketch.extend(stream)
    reference = sorted(values.tolist())
    n = len(reference)
    budget = epsilon * n
    for k in range(1, 100):
        p = k / 100.0
        target = math.ceil(p * n)
        err = rank_error(reference, sketch.query(p), target)
        assert err <= budget, f"p={p}: rank error {err} > {budget}"


def test_rank_budget_just_below_an_integer_is_kept() -> None:
    """At epsilon 0.0003 and 1e5 values the budget is 29.999999999999996
    ranks, so an answer 30 ranks off breaks it."""
    epsilon, n = 0.0003, 100_000
    assert epsilon * n < 30
    values = np.random.default_rng(0).normal(0.0, 1.0, n)
    sketch = QuantileSketch(epsilon)
    sketch.extend(values)
    reference = sorted(values.tolist())
    for k in range(1, 1000):
        p = k / 1000.0
        err = rank_error(reference, sketch.query(p), math.ceil(p * n))
        assert err <= epsilon * n, f"p={p}: rank error {err} > {epsilon * n}"


def test_query_is_monotone_in_probability() -> None:
    rng = np.random.default_rng(29)
    sketch = QuantileSketch(0.01)
    sketch.extend(rng.normal(0.0, 1.0, 5000))
    answers = [sketch.query(k / 200.0) for k in range(201)]
    assert answers == sorted(answers)


def test_interleaved_streams_merge_correctly() -> None:
    """Alternating low/high values must not confuse the rank accounting."""
    data: list[float] = []
    for i in range(2500):
        data.extend((float(i), float(10000 - i)))
    sketch = QuantileSketch(0.01)
    sketch.extend(data)
    reference = sorted(data)
    n = len(reference)
    for p in (0.1, 0.5, 0.9):
        target = math.ceil(p * n)
        assert rank_error(reference, sketch.query(p), target) <= 0.01 * n


def reference_compress(sketch: QuantileSketch) -> None:
    """``_compress`` as written with a band table built beside the tuples,
    guarded for a delta above ``p``; the compression must stay tuple for
    tuple what this builds."""
    tuples = sketch._tuples
    if len(tuples) < 3:
        return
    p = math.floor(2.0 * sketch._epsilon * sketch._count)
    bands = [(p - d + 1 if d < p else 1).bit_length() - 1 for _, _, d in tuples]
    head_value, head_g, head_delta = tuples[-1]
    head_band = bands[-1]
    out = []
    i = len(tuples) - 2
    while i >= 1:
        value, g, delta = tuples[i]
        band = bands[i]
        if band <= head_band:
            g_block = g
            j = i - 1
            while j >= 1 and tuples[j][2] > delta:
                g_block += tuples[j][1]
                j -= 1
            if g_block + head_g + head_delta <= p:
                head_g += g_block
                i = j
                continue
        out.append((head_value, head_g, head_delta))
        head_value, head_g, head_delta, head_band = value, g, delta, band
        i -= 1
    out.append((head_value, head_g, head_delta))
    out.append(tuples[0])
    out.reverse()
    sketch._tuples = out


def reference_insert(sketch: QuantileSketch, x: float) -> None:
    """The per-value insertion that ``extend`` must reproduce tuple for
    tuple: bisect the value in, then compress once per period with
    ``reference_compress``."""
    x = float(x)
    if not math.isfinite(x):
        raise ValidationError(f"observation must be finite, got {x!r}")
    n = sketch._count
    tuples = sketch._tuples
    if not tuples or x < tuples[0][0]:
        tuples.insert(0, (x, 1, 0))
    elif x >= tuples[-1][0]:
        tuples.append((x, 1, 0))
    else:
        pos = bisect_right(tuples, x, key=itemgetter(0))
        delta = max(math.floor(2.0 * sketch._epsilon * n) - 1, 0)
        tuples.insert(pos, (x, 1, delta))
    sketch._count = n + 1
    if sketch._count % sketch._compress_period == 0:
        reference_compress(sketch)


def fed_by_insert(epsilon: float, values) -> QuantileSketch:
    sketch = QuantileSketch(epsilon)
    for v in values:
        reference_insert(sketch, v)
    return sketch


@settings(max_examples=200, deadline=None)
@given(
    pool=st.lists(
        st.integers(0, 5).map(float) | st.floats(allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=40,
    ),
    n=st.integers(0, 400),
    seed=st.integers(0, 2**32 - 1),
    # Periods 1/(2 epsilon) of 1, 1.67, 7.1, 10, 71.4 and 500.
    epsilon=st.sampled_from([0.5, 0.3, 0.07, 0.05, 0.007, 0.001]),
    order=st.sampled_from(["drawn", "sorted", "reversed"]),
    cuts=st.lists(st.integers(0, 400), max_size=12),
)
def test_extend_builds_the_tuples_repeated_insert_builds(
    pool, n, seed, epsilon, order, cuts
) -> None:
    """Identical tuples, not merely the same rank bound, for any chunking.

    The stream draws from a small pool of floats, often small integers, so
    values tie often, and a sorted or reversed stream makes every value a
    new maximum or minimum or a tie with one.  Hypothesis draws the pool
    and the length, not each value, which keeps long streams cheap to
    generate."""
    values = random.Random(seed).choices(pool, k=n)
    if order != "drawn":
        values.sort(reverse=order == "reversed")
    expected = fed_by_insert(epsilon, values)
    sketch = QuantileSketch(epsilon)
    bounds = [0, *sorted(min(cut, n) for cut in cuts), n]
    for start, stop in zip(bounds, bounds[1:]):
        sketch.extend(values[start:stop])
    assert sketch.count == expected.count
    assert sketch.tuples == expected.tuples


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", [0, 2, 4])
def test_extend_rejects_a_non_finite_chunk_whole(bad: float, position: int) -> None:
    rng = np.random.default_rng(17)
    before = rng.normal(0.0, 1.0, 120).tolist()
    sketch = fed_by_insert(0.05, before)
    chunk = [0.5, -0.5, 1.5, 2.5, -1.5]
    chunk[position] = bad
    with pytest.raises(ValidationError, match="finite"):
        sketch.extend(chunk)
    assert sketch.count == 120
    assert sketch.tuples == fed_by_insert(0.05, before).tuples
    sketch.extend([])
    assert sketch.count == 120
    sketch.extend([3.0, -3.0])
    sketch.extend([0.25])
    assert sketch.tuples == fed_by_insert(0.05, [*before, 3.0, -3.0, 0.25]).tuples


def test_extend_rejects_nested_sequences() -> None:
    sketch = QuantileSketch(0.1)
    bad_inputs = (
        [[1.0, 2.0]],
        3.0,
        ["a"],
        (float(i) for i in range(3)),
        "123",
        b"123",
        {1.0: 2.0},
        {1.0, 2.0},
        np.zeros((2, 2)),
    )
    for bad in bad_inputs:
        with pytest.raises(ValidationError, match="1-D"):
            sketch.extend(bad)
        assert sketch.count == 0


def reference_extend(sketch: QuantileSketch, values) -> None:
    """``extend`` as written with numpy: the whole call is checked and its
    deltas are set by array passes.  The pure-Python ``extend`` must build
    the tuples this builds, bit for bit."""
    try:
        batch = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            "observations must form a 1-D sequence of reals, "
            f"got {type(values).__name__}: {exc}"
        ) from exc
    if batch.ndim != 1:
        raise ValidationError(f"observations must form a 1-D sequence, got shape {batch.shape}")
    if not batch.size:
        return
    tuples = sketch._tuples
    low = np.minimum.accumulate(np.concatenate(([tuples[0][0] if tuples else math.inf], batch)))
    high = np.maximum.accumulate(np.concatenate(([tuples[-1][0] if tuples else -math.inf], batch)))
    if not (math.isfinite(low[-1]) and math.isfinite(high[-1])):
        bad = np.flatnonzero(~np.isfinite(batch))
        raise ValidationError(
            f"observation {bad[0]} must be finite, got {float(batch[bad[0]])!r}"
        )
    counts = np.arange(sketch._count, sketch._count + batch.size, dtype=np.float64)
    deltas = np.maximum(np.floor((2.0 * sketch._epsilon) * counts) - 1.0, 0.0).astype(np.int64)
    deltas[(batch < low[:-1]) | (batch >= high[:-1])] = 0
    period = sketch._compress_period
    start = 0
    while start < batch.size:
        stop = min(start + period - sketch._count % period, batch.size)
        new = zip(batch[start:stop].tolist(), repeat(1), deltas[start:stop].tolist())
        sketch._tuples = sorted(sketch._tuples + list(new), key=itemgetter(0))
        sketch._count += stop - start
        if sketch._count % period == 0:
            sketch._compress()
        start = stop


def exact(sketch: QuantileSketch) -> list[tuple[str, int, int]]:
    """The tuples with each value as ``float.hex``, which tells -0.0 from
    0.0, and the types of ``g`` and ``delta`` checked."""
    assert all(type(g) is int and type(d) is int for _, g, d in sketch.tuples)
    return [(v.hex(), g, d) for v, g, d in sketch.tuples]


@settings(max_examples=200, deadline=None)
@given(
    pool=st.lists(
        st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=40,
    ),
    n=st.integers(0, 1500),
    seed=st.integers(0, 2**32 - 1),
    epsilon=st.floats(min_value=0.001, max_value=0.5),
    order=st.sampled_from(["drawn", "sorted", "reversed"]),
    cuts=st.lists(st.integers(0, 1500), max_size=12),
)
def test_extend_matches_the_numpy_reference_bit_for_bit(
    pool, n, seed, epsilon, order, cuts
) -> None:
    """Any epsilon, so chunks whose budget steps up part way through are
    common, and any chunking, so calls that hold a new extreme and calls
    that do not both occur."""
    values = random.Random(seed).choices(pool, k=n)
    if order != "drawn":
        values.sort(reverse=order == "reversed")
    expected = QuantileSketch(epsilon)
    sketch = QuantileSketch(epsilon)
    bounds = [0, *sorted(min(cut, n) for cut in cuts), n]
    for start, stop in zip(bounds, bounds[1:]):
        reference_extend(expected, values[start:stop])
        sketch.extend(values[start:stop])
        assert sketch.count == expected.count
        assert exact(sketch) == exact(expected)


def test_a_numpy_array_extends_as_its_list() -> None:
    rng = np.random.default_rng(23)
    for batch in (rng.normal(0.0, 1.0, 3000), rng.integers(-5, 5, 3000), np.float32([0.1, 2.5])):
        from_array = QuantileSketch(0.01)
        from_list = QuantileSketch(0.01)
        for start in range(0, batch.size, 256):
            from_array.extend(batch[start:start + 256])
            from_list.extend(batch[start:start + 256].tolist())
        assert exact(from_array) == exact(from_list)
