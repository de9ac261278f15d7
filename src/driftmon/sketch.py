"""Streaming quantile summary with a deterministic rank-error guarantee.

The summary keeps an ordered list of tuples ``(value, g, delta)`` where
``value`` is an observed sample, ``g`` is the gap between the minimum rank
of this value and the minimum rank of its predecessor, and ``delta`` bounds
the spread between the value's minimum and maximum possible rank.  After
``n`` observations every tuple satisfies ``g + delta <= floor(2 * epsilon * n)``
(once ``n >= 1 / (2 * epsilon)``), which is exactly what makes any rank
query answerable within ``epsilon * n`` ranks while holding far fewer than
``n`` tuples in memory.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from itertools import repeat
from operator import itemgetter

from .errors import EmptySummaryError, ValidationError

__all__ = ["QuantileSketch"]


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
        self._tuples: list[tuple[float, int, int]] = []
        self._compress_period = math.floor(1.0 / (2.0 * epsilon))

    @property
    def epsilon(self) -> float:
        return self._epsilon

    @property
    def count(self) -> int:
        """Number of values inserted so far."""
        return self._count

    @property
    def tuples(self) -> tuple[tuple[float, int, int], ...]:
        """Current ``(value, g, delta)`` summary, ordered by value."""
        return tuple(self._tuples)

    def extend(self, values: Sequence[float]) -> None:
        """Add ``values`` to the stream in order.

        How the values are split across calls does not change the summary:
        it ends the same, tuple for tuple, whether they come in one call or
        one per call.  A single value goes in as ``extend([x])``, but batches
        are much faster per value: the values between two compressions are
        sorted and merged in one step.

        Anything but a 1-D sequence of finite reals rejects the whole call
        before anything is added: a non-finite value has no rank, and
        dropping it would desynchronise ``count`` from the data.
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
        tuples = self._tuples
        low, high = (tuples[0][0], tuples[-1][0]) if tuples else (math.inf, -math.inf)
        # A value below every earlier value or at least as large as all of
        # them gets delta 0, and any other the budget at its count.  Most
        # calls hold no new extreme, which one min/max test shows.
        extreme = None
        if min(batch) < low or max(batch) >= high:
            extreme = []
            for x in batch:
                extreme.append(x < low or x >= high)
                low = min(low, x)
                high = max(high, x)
        two_eps = 2.0 * self._epsilon
        period = self._compress_period
        start = 0
        while start < len(batch):
            # Merge the values up to the next compression in one sort.  The
            # sort is stable and the older tuples come first, so equal values
            # keep arrival order.
            stop = min(start + period - self._count % period, len(batch))
            # The budget floor(2 * epsilon * count) never falls as the count
            # rises, so equal ends mean one budget for the whole chunk.
            count = self._count
            budget = math.floor(two_eps * count)
            if budget == math.floor(two_eps * (count + stop - start - 1)):
                deltas = repeat(max(budget - 1, 0))
            else:
                deltas = [
                    max(math.floor(two_eps * c) - 1, 0) for c in range(count, count + stop - start)
                ]
            if extreme is not None:
                deltas = [0 if e else d for e, d in zip(extreme[start:stop], deltas)]
            new = zip(batch[start:stop], repeat(1), deltas)
            self._tuples = sorted(self._tuples + list(new), key=itemgetter(0))
            self._count += stop - start
            if self._count % period == 0:
                self._compress()
            start = stop

    def _compress(self) -> None:
        """Merge adjacent tuples whose combined rank uncertainty stays
        within ``floor(2 * epsilon * count)``.

        Walks right to left, folding a tuple together with its block of
        newer left neighbours (those with larger delta) into the tuple to
        its right, the head.  A tuple is folded only if its band, its age
        class, is no greater than the head's: the band is the bit length of
        ``p - delta + 1``, smallest for the newest tuples (delta == p).
        Merges thus only fold newer tuples into older ones, which keeps the
        summary size logarithmic in ``n``.  The extreme tuples are never
        removed, so the exact minimum and maximum always survive.
        """
        tuples = self._tuples
        if len(tuples) < 3:
            return
        p = math.floor(2.0 * self._epsilon * self._count)
        # Every delta is at most p: inserts take an earlier count's budget, merges keep the head's.
        head_value, head_g, head_delta = tuples[-1]
        head_band = (p - head_delta + 1).bit_length()
        out = []
        i = len(tuples) - 2
        while i >= 1:
            value, g, delta = tuples[i]
            band = (p - delta + 1).bit_length()
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
        self._tuples = out

    def query(self, p: float) -> float:
        """Return a value whose rank is within ``epsilon * count`` of
        ``ceil(p * count)``.  ``p=0`` yields the exact minimum and ``p=1``
        the exact maximum."""
        p = float(p)
        if not 0.0 <= p <= 1.0:
            raise ValidationError(f"probability must be in [0, 1], got {p!r}")
        if not self._tuples:
            raise EmptySummaryError("cannot query an empty summary")
        return self._ascending_quantiles((p,))[0]

    def _ascending_quantiles(self, ps: Iterable[float]) -> list[float]:
        """``query`` for each of ``ps``, ascending probabilities in [0, 1],
        in one walk over the tuples.

        A query answers with the value before the first tuple whose
        ``min_rank + delta`` passes ``ceil(p * count) + epsilon * count``.
        That tuple never moves left as ``p`` rises, so each probability
        resumes the walk where the last one stopped: the cost is points plus
        tuples, not their product.
        """
        tuples = self._tuples
        allowed = self._epsilon * self._count
        answers = []
        j = 0  # every tuple before tuples[j] passes the current target
        min_rank = 0  # sum of g over tuples[:j]
        for p in ps:
            target = math.ceil(p * self._count)
            if target <= 0:
                answers.append(tuples[0][0])
                continue
            while j < len(tuples):
                _, g, delta = tuples[j]
                # Integer left side: ``target + allowed`` can round up to the
                # next integer when ``epsilon * count`` sits just below one.
                if min_rank + g + delta - target > allowed:
                    break
                min_rank += g
                j += 1
            answers.append(tuples[max(j - 1, 0)][0])
        return answers
