"""Tests for the streaming quantile sketch.

The reference oracle throughout is the sorted copy of everything inserted:
a query at probability p must land within epsilon * count ranks of the
target rank ceil(p * count), counting ranks from 1.  The white-box tests
read the compactor's levels to check the steps of the rank-bound proof in
``driftmon.sketch``'s docstring.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftmon import EmptySummaryError, QuantileSketch, ValidationError
from driftmon import sketch as sketch_module
from driftmon.sketch import _level_size


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


def state(sketch: QuantileSketch) -> tuple:
    """Everything the sketch holds, with values as bytes or ``float.hex``,
    which tell -0.0 from 0.0."""
    return (
        sketch.count,
        [level.tobytes() for level in sketch._levels],
        sketch._offsets,
        sketch._min.hex(),
        sketch._max.hex(),
    )


def check_levels(sketch: QuantileSketch) -> None:
    """Assert the compactor's structure: the held weight is the count,
    level 0 holds fewer than ``k`` values and every other level none or
    ``k / 2`` (step 2 of the proof), and only levels below
    ``H = (count // k).bit_length()`` have compacted."""
    k = sketch._k
    levels = sketch._levels
    assert k % 2 == 0
    assert sum(len(level) << h for h, level in enumerate(levels)) == sketch.count
    assert len(levels[0]) < k
    assert all(len(level) in (0, k // 2) for level in levels[1:])
    assert len(levels) <= (sketch.count // k).bit_length() + 1


def bound_terms(sketch: QuantileSketch) -> tuple[int, float]:
    """Step 3's sum ``sum(ceil(c_h / 2) * 2**h)`` over the compacted
    levels, and its closed form ``(H / 2 + 1) * n / k``."""
    n, k = sketch.count, sketch._k
    levels = (n // k).bit_length()
    total = sum(-(-(n // (k << h)) // 2) << h for h in range(levels))
    return total, (levels / 2 + 1) * n / k


def adversarial(order: str, n: int) -> list[float]:
    """``n`` distinct values in one of the orders that stress a compactor."""
    ramp = [float(i) for i in range(n)]
    if order == "sorted":
        return ramp
    if order == "reversed":
        return ramp[::-1]
    if order == "organ-pipe":
        return ramp[0::2] + ramp[1::2][::-1]
    if order == "sawtooth":  # seven ascending ramps, each across the range
        tooth = -(-n // 7)
        return [float(i % tooth * 7 + i // tooth) for i in range(n)]
    return random.Random(n).sample(ramp, n)


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


def test_invariants_hold_throughout_a_random_stream() -> None:
    rng = np.random.default_rng(7)
    sketch = QuantileSketch(0.5)
    for v in rng.normal(0.0, 1.0, 500):
        sketch.extend([float(v)])
        check_levels(sketch)


def test_invariants_hold_with_heavy_duplication() -> None:
    rng = np.random.default_rng(3)
    sketch = QuantileSketch(0.02)
    sketch.extend(rng.integers(0, 5, 2000))
    check_levels(sketch)
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


@pytest.mark.parametrize("epsilon", [0.5, 0.3, 0.05, 0.01, 0.001, 0.0003, 1e-5])
def test_level_size_is_the_least_even_k_that_meets_the_bound(epsilon: float) -> None:
    """Step 4: ``H / 2 + 1 <= epsilon * k`` with ``H`` the most levels a
    capped stream compacts, and no smaller even ``k`` meets it."""

    def meets(k: int) -> bool:
        return (sketch_module._MAX_COUNT // k).bit_length() / 2 + 1 <= epsilon * k

    k = _level_size(epsilon)
    assert k % 2 == 0
    assert meets(k)
    assert not any(meets(smaller) for smaller in range(2, k, 2))
    assert QuantileSketch(epsilon)._k == k


@pytest.mark.parametrize("order", ["sorted", "reversed", "organ-pipe", "sawtooth", "shuffled"])
@pytest.mark.parametrize("epsilon", [0.5, 0.05])
def test_rank_bound_holds_at_every_level_boundary(order: str, epsilon: float) -> None:
    """At ``n = k * 2**h`` and one value either side, for levels 0 to 5:
    the held weight at or below (and below) every stream value is within
    step 3's sum of the true count, and every target rank from 1 to ``n``
    is answered within ``epsilon * n``."""
    k = _level_size(epsilon)
    checkpoints = sorted({(k << h) + d for h in range(6) for d in (-1, 0, 1)})
    values = adversarial(order, checkpoints[-1])
    sketch = QuantileSketch(epsilon)
    fed = 0
    for n in checkpoints:
        sketch.extend(values[fed:n])
        fed = n
        check_levels(sketch)
        ranked = sorted(values[:n])
        held = sorted(
            (v, 1 << h) for h, level in enumerate(sketch._levels) for v in level
        )
        held_values = [v for v, _ in held]
        cumulative = [0]
        for _, weight in held:
            cumulative.append(cumulative[-1] + weight)
        total, closed = bound_terms(sketch)
        assert total < closed <= epsilon * n
        for x in ranked:
            at_or_below = cumulative[bisect_right(held_values, x)]
            below = cumulative[bisect_left(held_values, x)]
            assert abs(at_or_below - bisect_right(ranked, x)) <= total, (n, x)
            assert abs(below - bisect_left(ranked, x)) <= total, (n, x)
        for target in range(1, n + 1):
            p = target / n
            err = rank_error(ranked, sketch.query(p), math.ceil(p * n))
            assert err <= epsilon * n, (n, p, err)


@pytest.mark.parametrize("order", ["sorted", "reversed", "organ-pipe", "sawtooth", "shuffled"])
def test_extremes_stay_exact_after_compaction(order: str) -> None:
    """The minimum and maximum survive compactions that drop them from the
    levels; of equal extremes the first seen is kept, as ``min`` and
    ``max`` keep it, so ``-0.0`` and ``0.0`` come back as they came in.

    With ``k = 30``, the first compaction keeps the smallest value and
    drops the largest, and the second drops the smallest."""
    body = [v + 1.0 for v in adversarial(order, 1000)]
    dropped = [2000.0, *body[:44], -2.0, *body[44:]]
    for stream in (body, [0.0, -0.0, *body], [*body, -0.0, 0.0], dropped):
        sketch = QuantileSketch(0.5)
        for start in range(0, len(stream), 37):
            sketch.extend(stream[start:start + 37])
        assert sketch.query(0.0).hex() == min(stream).hex()
        assert sketch.query(1.0).hex() == max(stream).hex()
        if stream is dropped:
            held = [v for level in sketch._levels for v in level]
            assert -2.0 not in held and 2000.0 not in held


def test_a_stream_past_the_cap_is_rejected_whole(monkeypatch) -> None:
    """Lowering the cap shrinks ``k`` with it; the call that would pass the
    cap adds nothing, and the bound holds at the cap."""
    monkeypatch.setattr(sketch_module, "_MAX_COUNT", 1000)
    sketch = QuantileSketch(0.1)
    assert sketch._k == _level_size(0.1) < 130
    values = adversarial("sawtooth", 1000)
    sketch.extend(values[:999])
    before = state(sketch)
    with pytest.raises(ValidationError, match="at most 1000 observations"):
        sketch.extend([1.0, 2.0])
    assert state(sketch) == before
    sketch.extend(values[999:])
    with pytest.raises(ValidationError, match="at most 1000"):
        sketch.extend([1.0])
    assert sketch.count == 1000
    ranked = sorted(values)
    for k in range(1, 100):
        p = k / 100.0
        assert rank_error(ranked, sketch.query(p), math.ceil(p * 1000)) <= 0.1 * 1000


@settings(max_examples=200, deadline=None)
@given(
    pool=st.lists(
        st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=40,
    ),
    n=st.integers(0, 1500),
    seed=st.integers(0, 2**32 - 1),
    # Level sizes 30, 48, 130 and 258.
    epsilon=st.sampled_from([0.5, 0.3, 0.1, 0.05]),
    order=st.sampled_from(["drawn", "sorted", "reversed"]),
    cuts=st.lists(st.integers(0, 1500), max_size=12),
)
def test_any_chunking_builds_the_state_one_value_per_call_builds(
    pool, n, seed, epsilon, order, cuts
) -> None:
    """Identical levels, bit for bit, and identical answers at every grid
    point, not merely the same rank bound, for any chunking.

    The stream draws from a small pool of floats, often signed zeros and
    small integers, so values tie often, and a sorted or reversed stream
    makes every value a new maximum or minimum or a tie with one."""
    values = random.Random(seed).choices(pool, k=n)
    if order != "drawn":
        values.sort(reverse=order == "reversed")
    expected = QuantileSketch(epsilon)
    for v in values:
        expected.extend([v])
    sketch = QuantileSketch(epsilon)
    bounds = [0, *sorted(min(cut, n) for cut in cuts), n]
    for start, stop in zip(bounds, bounds[1:]):
        sketch.extend(values[start:stop])
    assert state(sketch) == state(expected)
    if n:
        grid = [i / 200 for i in range(201)]
        assert [sketch.query(p).hex() for p in grid] == [expected.query(p).hex() for p in grid]


def weighted_sort_answers(sketch: QuantileSketch, ps: list[float]) -> list[float]:
    """The reference view: every held value paired with its weight, the
    pairs sorted, and each answer the first value whose cumulative weight
    reaches the target rank."""
    weighted = sorted((v, 1 << h) for h, level in enumerate(sketch._levels) for v in level)
    cumulative = list(accumulate(w for _, w in weighted))
    answers = []
    for p in ps:
        target = math.ceil(p * sketch.count)
        if target <= 0:
            answers.append(sketch._min)
        elif target >= sketch.count:
            answers.append(sketch._max)
        else:
            answers.append(weighted[bisect_left(cumulative, target)][0])
    return answers


@settings(max_examples=200, deadline=None)
@given(
    pool=st.lists(
        st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=40,
    ),
    n=st.integers(1, 3000),
    seed=st.integers(0, 2**32 - 1),
    epsilon=st.sampled_from([0.5, 0.3, 0.1, 0.05]),
)
def test_merged_view_answers_as_the_weighted_sort(pool, n, seed, epsilon) -> None:
    """The view merged from the sorted levels answers every grid point with
    the value, bit for bit, that sorting (value, weight) pairs gives, over
    streams full of ties and signed zeros."""
    sketch = QuantileSketch(epsilon)
    sketch.extend(random.Random(seed).choices(pool, k=n))
    grid = [i / 200 for i in range(201)]
    assert [v.hex() for v in sketch._quantiles(grid)] == [
        v.hex() for v in weighted_sort_answers(sketch, grid)
    ]


def fed_by_one_call(epsilon: float, values) -> QuantileSketch:
    sketch = QuantileSketch(epsilon)
    sketch.extend(values)
    return sketch


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", [0, 2, 4])
def test_extend_rejects_a_non_finite_chunk_whole(bad: float, position: int) -> None:
    rng = np.random.default_rng(17)
    before = rng.normal(0.0, 1.0, 300).tolist()
    sketch = fed_by_one_call(0.05, before)
    chunk = [0.5, -0.5, 1.5, 2.5, -1.5]
    chunk[position] = bad
    with pytest.raises(ValidationError, match="finite"):
        sketch.extend(chunk)
    assert sketch.count == 300
    assert state(sketch) == state(fed_by_one_call(0.05, before))
    sketch.extend([])
    assert sketch.count == 300
    sketch.extend([3.0, -3.0])
    sketch.extend([0.25])
    assert state(sketch) == state(fed_by_one_call(0.05, [*before, 3.0, -3.0, 0.25]))


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


def test_a_numpy_array_extends_as_its_list() -> None:
    rng = np.random.default_rng(23)
    for batch in (rng.normal(0.0, 1.0, 3000), rng.integers(-5, 5, 3000), np.float32([0.1, 2.5])):
        from_array = QuantileSketch(0.01)
        from_list = QuantileSketch(0.01)
        for start in range(0, batch.size, 256):
            from_array.extend(batch[start:start + 256])
            from_list.extend(batch[start:start + 256].tolist())
        assert state(from_array) == state(from_list)
