"""Compact distribution summaries derived from a quantile sketch.

An :class:`ApproxCdf` stores a small grid of quantiles and interpolates
linearly between them, giving a piecewise-linear estimate of the empirical
CDF whose error is bounded by the grid resolution plus the sketch's rank
error.  :func:`density_from_cdf` turns such a CDF into per-bin probability
masses over a uniform grid, which is what the distance metrics consume.

A drift run summarises each watched column of a data file.  A file of
``_fork.FORK_MIN_BYTES`` or more is summarised on every CPU of the
process's affinity mask: its columns are dealt out into one group per CPU,
and each group is read and summarised by a forked worker pinned to its CPU
(``_fork``), which sends its summaries back as one document.  Each sketch
sees the same values in the same order either way, so the summaries are
the same.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from functools import partial
from typing import TYPE_CHECKING, Sequence

from . import _fork
from ._record import Record
from .errors import EmptySummaryError, PreconditionError, ValidationError
from .sketch import QuantileSketch
from .store import dumps_doc, loads_doc

if TYPE_CHECKING:
    from .data import DatasetHandle

__all__ = ["ApproxCdf", "build_cdf", "density_from_cdf"]


class ApproxCdf(Record):
    """Piecewise-linear CDF estimate: ``probabilities[i]`` of the mass lies
    at or below ``breakpoints[i]``.  Immutable once built."""

    label: str
    sample_count: int
    breakpoints: tuple[float, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.sample_count < 1:
            raise ValidationError(f"sample_count must be >= 1, got {self.sample_count}")
        if len(self.breakpoints) != len(self.probabilities) or not self.breakpoints:
            raise ValidationError("breakpoints and probabilities must be equal-length and non-empty")
        if not all(map(math.isfinite, (*self.breakpoints, *self.probabilities))):
            raise ValidationError("breakpoints and probabilities must be finite")
        if any(b2 < b1 for b1, b2 in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValidationError("breakpoints must be non-decreasing")
        if any(q2 <= q1 for q1, q2 in zip(self.probabilities, self.probabilities[1:])):
            raise ValidationError("probabilities must be strictly increasing")
        if not 0.0 < self.probabilities[0] <= 1.0 or self.probabilities[-1] != 1.0:
            raise ValidationError("probabilities must lie in (0, 1] and end at 1.0")

    def __call__(self, x: float) -> float:
        """Evaluate the CDF at ``x`` (right-continuous).

        Below the first breakpoint the estimate is 0; at or above the last
        it is exactly 1.  Where several breakpoints share a value the
        largest probability of the run applies, so ties behave as jumps.
        """
        x = float(x)
        if not math.isfinite(x):
            raise ValidationError(f"evaluation point must be finite, got {x!r}")
        return self._limits(x)[1]

    def _limits(self, x: float) -> tuple[float, float]:
        """``(F(x-), F(x))`` for a finite ``x``: the limit of the CDF from
        below and its value.  They differ only at jump points: the minimum
        breakpoint and any run of tied breakpoints."""
        bps = self.breakpoints
        q = self.probabilities
        hi = bisect_right(bps, x)
        lo = bisect_left(bps, x, 0, hi)
        if lo < hi:
            return (q[lo] if lo else 0.0), q[hi - 1]
        if not hi:
            return 0.0, 0.0
        if hi == len(bps):
            return 1.0, 1.0
        j = hi - 1
        below, above = bps[j], bps[hi]
        if above - below == math.inf:  # the gap overflows; at half scale it does not
            x, below, above = x * 0.5, below * 0.5, above * 0.5
        frac = (x - below) / (above - below)
        value = q[j] + (q[hi] - q[j]) * frac
        return value, value


def build_cdf(sketch: QuantileSketch, points: int, label: str) -> ApproxCdf:
    """Summarise a sketch as an interpolated CDF on ``points`` quantiles.

    The probability grid is linearly spaced from ``1/N`` to ``1`` so the
    first breakpoint sits near the sample minimum and the last is the exact
    maximum.  A single-observation stream degenerates to one breakpoint.
    """
    if not isinstance(points, int) or points < 1:
        raise ValidationError(f"points must be a positive integer, got {points!r}")
    n = sketch.count
    if n < 1:
        raise EmptySummaryError("cannot build a CDF from an empty sketch")
    if points == 1 and n > 1:
        raise ValidationError("a single-point grid is only valid for a single-observation stream")
    if n == 1:
        # Any requested grid collapses: there is exactly one quantile.
        grid = [1.0]
    else:
        grid = _linspace(1.0 / n, 1.0, points)
    breakpoints = tuple(sketch._quantiles(grid))
    return ApproxCdf(
        label=label,
        sample_count=n,
        breakpoints=breakpoints,
        probabilities=tuple(grid),
    )


def density_from_cdf(cdf: ApproxCdf, lo: float, hi: float, bins: int) -> array:
    """Bin a CDF into ``bins`` uniform probability masses over ``[lo, hi]``.

    Mass the CDF places outside the range (including an atom exactly at
    ``lo``) is redistributed uniformly across all bins, so the result is
    always a proper distribution.  Tiny negative masses from rounding are
    clamped to zero and the vector renormalised.  Returns the masses, which
    are non-negative and sum to 1, as an ``array('d')``.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValidationError(f"need finite lo < hi, got lo={lo!r}, hi={hi!r}")
    if not isinstance(bins, int) or bins < 1:
        raise ValidationError(f"bins must be a positive integer, got {bins!r}")
    values = [cdf(e) for e in _linspace(lo, hi, bins + 1)]
    # The raw masses telescope to F(hi) - F(lo); computing the leftover that
    # way keeps the correction exactly zero when the range covers the whole
    # distribution, so empty bins stay exactly empty.
    correction = (1.0 - (values[-1] - values[0])) / bins
    masses = [b - a + correction for a, b in zip(values, values[1:])]
    # Not ``max(m, 0.0)``, which keeps a -0.0.
    masses = [m if m > 0.0 else 0.0 for m in masses]
    total = math.fsum(masses)
    return array("d", [m / total for m in masses])


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """``num >= 2`` evenly spaced points from ``start`` to ``stop``, both
    exact.  Each point weighs the two ends, so no width ``stop - start`` is
    formed and any finite range gives finite points."""
    div = num - 1
    return [start * (1.0 - i / div) + stop * (i / div) for i in range(div)] + [stop]


def _summarise(
    handle: DatasetHandle, columns: Sequence[str], epsilon: float, points: int
) -> list[ApproxCdf]:
    """One summary of each of ``columns`` of ``handle``, in that order,
    each from a sketch of ``epsilon`` on a grid of ``points``.

    The file is summarised by one worker per CPU (see the module docstring)
    when it holds ``_fork.FORK_MIN_BYTES`` or more, at least two columns are
    wanted, the affinity mask holds at least two CPUs, ``os.fork`` exists
    and no other thread runs.  Otherwise, or when any worker does not
    return its summaries whole, the file is summarised here, in this
    process: every error is then the one a serial read raises.  Blank
    cells are logged here either way, once per column, in column order.
    """
    from .data import _known, _warn_blanks

    columns = _known(handle, columns)
    cpus = _fork.cpus(handle.path, len(columns))
    forked = _forked(handle, columns, epsilon, points, cpus) if cpus else None
    if forked is not None:
        summaries, blanks = forked
        _warn_blanks(handle, columns, blanks)
        return summaries
    sketches, blanks = _sketches(handle, columns, epsilon)
    _warn_blanks(handle, columns, blanks)
    return _cdfs(handle, columns, sketches, points)


def _sketches(
    handle: DatasetHandle, columns: tuple[str, ...], epsilon: float
) -> tuple[list[QuantileSketch], list[int]]:
    """Sketch each column in one read of ``handle``; also return each
    column's count of blank cells."""
    from .data import _blocks

    sketches = [QuantileSketch(epsilon) for _ in columns]
    blanks = [0] * len(columns)
    for block in _blocks(handle, columns, blanks):
        for column, sketch, values in zip(columns, sketches, block):
            try:
                sketch.extend(values)
            except ValidationError as exc:  # a column longer than a sketch takes
                raise ValidationError(f"column {column!r} of {handle.path}: {exc}") from exc
    return sketches, blanks


def _cdfs(
    handle: DatasetHandle,
    columns: tuple[str, ...],
    sketches: list[QuantileSketch],
    points: int,
) -> list[ApproxCdf]:
    """The summaries of ``sketches``; a column without values is a
    precondition error."""
    for column, sketch in zip(columns, sketches):
        if sketch.count == 0:
            raise PreconditionError(f"column {column!r} of {handle.path} holds no usable values")
    return [build_cdf(sketch, points, column) for column, sketch in zip(columns, sketches)]


def _forked(
    handle: DatasetHandle,
    columns: tuple[str, ...],
    epsilon: float,
    points: int,
    cpus: list[int],
) -> tuple[list[ApproxCdf], list[int]] | None:
    """Summarise ``columns[i::len(cpus)]`` in a worker pinned to
    ``cpus[i]``; return the summaries and blank counts in column order, or
    ``None`` when a worker could not be started or did not return whole."""
    width = len(cpus)
    jobs = [partial(_summarised, handle, columns[i::width], epsilon, points) for i in range(width)]
    bodies: list[bytes] = []
    with _fork.replies(jobs, cpus) as replies:
        for reply in replies or ():
            bodies.append(b"".join(reply))
            if not bodies[-1]:
                break  # that worker failed; the serial rerun needs no others
    if not replies or not all(reply.whole for reply in replies) or not all(bodies):
        return None
    docs = [loads_doc(body.decode()) for body in bodies]
    # Column i went to worker i % width, as its (i // width)th column.
    places = [(docs[i % width], i // width) for i in range(len(columns))]
    summaries = [ApproxCdf.from_doc(doc["summaries"][j]) for doc, j in places]
    return summaries, [doc["blanks"][j] for doc, j in places]


def _summarised(
    handle: DatasetHandle, columns: tuple[str, ...], epsilon: float, points: int
) -> list[bytes]:
    """A worker's reply: the summaries of ``columns`` and their blank
    counts, as one document."""
    sketches, blanks = _sketches(handle, columns, epsilon)
    summaries = _cdfs(handle, columns, sketches, points)
    doc = {"blanks": blanks, "summaries": [cdf.to_doc() for cdf in summaries]}
    return [dumps_doc(doc).encode()]
