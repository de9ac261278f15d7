"""Streaming quantile summary with a proved, deterministic rank-error bound.

A multi-level compactor (Manku, Rajagopalan & Lindsay, SIGMOD 1998, without
randomness; see also Karnin, Lang & Liberty, FOCS 2016).  Level ``h`` is a
flat buffer of observed values, each standing for ``w = 2**h``
observations.  Values enter level 0.  A level that reaches ``k`` values is
sorted, and every other value moves up a level: the first, third, ... at
the level's odd-numbered compactions, the second, fourth, ... at its
even-numbered ones.  ``k`` is even, so the held weight equals the count.

Proof of the bound.  Let ``R(x)`` count the observations ``<= x`` and
``S(x)`` the held weight ``<= x`` (all of this holds with ``<`` as well).

1. The values ``<= x`` of a sorted level are a prefix, ``c`` values long,
   weighing ``c * w``.  After a compaction the kept ones weigh
   ``2w * ceil(c / 2)`` or ``2w * floor(c / 2)``, so one compaction moves
   ``S(x)`` by 0 or ``+w`` at odd-numbered ones and by 0 or ``-w`` at
   even-numbered ones.
2. Level 0 fills to exactly ``k`` and each compaction hands ``k / 2`` up,
   so level ``h`` compacts ``c_h = n // (k * 2**h)`` times in ``n``
   observations, and only levels ``h < H = (n // k).bit_length()`` do.
3. By 1 and 2, ``|S(x) - R(x)| <= sum(ceil(c_h / 2) * 2**h for h < H)
   <= H * n / (2k) + (2**H - 1) / 2 < (H / 2 + 1) * n / k``, as
   ``ceil(c / 2) <= (c + 1) / 2`` and ``2**(H - 1) <= n / k``.
4. A sketch takes at most ``_MAX_COUNT`` observations, so
   ``H <= (_MAX_COUNT // k).bit_length()``, and ``k`` is the least even
   number with ``H / 2 + 1 <= epsilon * k`` for that ``H``: the error in
   step 3 is below ``epsilon * n`` at every count.
5. For a target rank ``0 < r < n``, ``query`` answers the first held value
   ``v``, in order, at which the cumulative weight reaches ``r``, so
   ``S(v-) < r <= S(v)``.  By step 4, ``R(v) > r - epsilon * n`` and
   ``R(v-) + 1 < r + epsilon * n``: ``r`` is within ``epsilon * n`` of
   ``v``'s ranks.  Ranks 0 and ``n`` answer the exact extremes, which are
   kept apart from the levels.

Memory: by step 2, level 0 holds fewer than ``k`` values and every other
level none or ``k / 2``, the output of one compaction and so one sorted
run.  That is fewer than ``k * (1 + H / 2)`` doubles, and a query's sorted
view takes 16 bytes more per held value.  At epsilon 0.001, ``k`` is
10000, and 1e5 observations are held in fewer than 30000 doubles.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections.abc import Iterable, Sequence
from heapq import merge
from itertools import repeat

from .errors import EmptySummaryError, ValidationError

__all__ = ["QuantileSketch"]

#: Most observations one sketch takes; ``k`` is derived from it (step 4).
_MAX_COUNT = 2**31


def _level_size(epsilon: float) -> int:
    """Step 4's ``k``: for each ``h``, the least even ``k`` with both
    ``h / 2 + 1 <= epsilon * k`` and ``_MAX_COUNT // k < 2**h``, and the
    least of those over ``h``."""
    return min(
        max(
            2 * math.ceil((h / 2 + 1) / epsilon / 2),
            2 * math.ceil(((_MAX_COUNT >> h) + 1) / 2),
        )
        for h in range(_MAX_COUNT.bit_length() + 1)
    )


class QuantileSketch:
    """Bounded-memory quantile summary over a stream of reals.

    ``epsilon`` is the additive rank-error budget as a fraction of the
    stream length: ``query(p)`` returns an inserted value whose rank in
    the sorted stream is within ``epsilon * count`` of ``ceil(p * count)``.
    """

    def __init__(self, epsilon: float) -> None:
        if not (isinstance(epsilon, float) and math.isfinite(epsilon)):
            raise ValidationError(f"epsilon must be a finite real, got {epsilon!r}")
        if not 0.0 < epsilon <= 0.5:
            raise ValidationError(f"epsilon must be in (0, 0.5], got {epsilon!r}")
        self._epsilon = epsilon
        self._count = 0
        self._k = _level_size(epsilon)
        self._levels = [array("d")]
        self._offsets = [0]  # the index each level's next compaction keeps first
        self._min = math.inf  # the exact extremes, which compaction may drop
        self._max = -math.inf
        # The held values in order and their cumulative weights, built by
        # the first query after a change.
        self._view: tuple[array, array] | None = None

    @property
    def epsilon(self) -> float:
        return self._epsilon

    @property
    def count(self) -> int:
        """Number of values inserted so far."""
        return self._count

    def extend(self, values: Sequence[float]) -> None:
        """Add ``values`` to the stream in order.

        How the values are split across calls does not change the summary,
        value for value: level 0 compacts whenever it holds exactly ``k``.
        A single value goes in as ``extend([x])``, but batches are much
        faster per value.

        Anything but a 1-D sequence of finite reals rejects the whole call
        before anything is added: a non-finite value has no rank, and
        dropping it would desynchronise ``count`` from the data.  So does a
        call that would take the count past ``2**31``, where the bound's
        proof stops.
        """
        if hasattr(values, "ndim"):  # a numpy array, by duck typing
            shaped = values.ndim == 1
        else:
            shaped = isinstance(values, Sequence) and not isinstance(values, (str, bytes))
        if not shaped:
            raise ValidationError(
                f"observations must form a 1-D sequence of reals, got {type(values).__name__}"
            )
        try:
            batch = list(map(float, values))
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                "observations must form a 1-D sequence of reals, "
                f"got {type(values).__name__}: {exc}"
            ) from exc
        if not batch:
            return
        if not all(map(math.isfinite, batch)):
            bad = next(i for i, x in enumerate(batch) if not math.isfinite(x))
            raise ValidationError(f"observation {bad} must be finite, got {batch[bad]!r}")
        if self._count + len(batch) > _MAX_COUNT:
            raise ValidationError(
                f"a sketch takes at most {_MAX_COUNT} observations, "
                f"and {len(batch)} more would make {self._count + len(batch)}"
            )
        # Strict comparisons keep the first of equal extremes, as min and
        # max do within a call, so -0.0 and 0.0 do not depend on chunking.
        low, high = min(batch), max(batch)
        if low < self._min:
            self._min = low
        if high > self._max:
            self._max = high
        self._count += len(batch)
        self._view = None
        k = self._k
        levels = self._levels
        start = 0
        while start < len(batch):
            stop = start + k - len(levels[0])
            levels[0].extend(batch[start:stop])
            start = stop
            h = 0
            while len(levels[h]) == k:
                self._compact(h)
                h += 1

    def _compact(self, h: int) -> None:
        """Sort level ``h``, keep every other value and move those up."""
        if h + 1 == len(self._levels):
            self._levels.append(array("d"))
            self._offsets.append(0)
        offset = self._offsets[h]
        self._offsets[h] = 1 - offset
        ordered = sorted(self._levels[h])
        self._levels[h] = array("d")
        self._levels[h + 1].extend(ordered[offset::2])

    def query(self, p: float) -> float:
        """Return a value whose rank is within ``epsilon * count`` of
        ``ceil(p * count)``.  ``p=0`` yields the exact minimum and ``p=1``
        the exact maximum."""
        p = float(p)
        if not 0.0 <= p <= 1.0:
            raise ValidationError(f"probability must be in [0, 1], got {p!r}")
        if not self._count:
            raise EmptySummaryError("cannot query an empty summary")
        return self._quantiles((p,))[0]

    def _quantiles(self, ps: Iterable[float]) -> list[float]:
        """``query`` for each of ``ps``, probabilities in [0, 1], from one
        sorted view of the weighted levels (step 5 of the proof)."""
        if self._view is None:
            # Every level above 0 is one sorted run (see "Memory" above), so
            # sorting level 0 alone and merging the runs yields the held
            # values in order, equal ones lightest first, with no list of
            # (value, weight) pairs held.
            runs = [sorted(self._levels[0]), *self._levels[1:]]
            values, cumulative = array("d"), array("q")
            held = 0
            for value, weight in merge(*(zip(run, repeat(1 << h)) for h, run in enumerate(runs))):
                held += weight
                values.append(value)
                cumulative.append(held)
            self._view = (values, cumulative)
        values, cumulative = self._view
        n = self._count
        answers = []
        for p in ps:
            target = math.ceil(p * n)
            if target <= 0:
                answers.append(self._min)
            elif target >= n:
                answers.append(self._max)
            else:
                answers.append(values[bisect_left(cumulative, target)])
        return answers
