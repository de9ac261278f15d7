"""Distribution drift metrics computed on interpolated CDF summaries.

Two complementary views of the same comparison: the Kolmogorov-Smirnov
distance (worst-case CDF gap, with an analytic p-value) reacts to any
difference in location or shape, while the Bhattacharyya coefficient
measures how much probability mass two binned densities share, degrading
smoothly from 1 (identical) to 0 (disjoint).
"""

from __future__ import annotations

import math

from .errors import ValidationError
from .summary import ApproxCdf, density_from_cdf

__all__ = [
    "ks_distance",
    "ks_p_value",
    "ks_critical_distance",
    "bhattacharyya",
    "drift_evaluate",
]

#: Terms of the p-value series are dropped below this magnitude.
_SERIES_TERM_FLOOR = 1e-12
_SERIES_MAX_TERMS = 200
#: Effective sample scales at or below this are indistinguishable from zero.
_LAMBDA_FLOOR = 1e-8


def ks_distance(f: ApproxCdf, g: ApproxCdf) -> float:
    """Supremum of ``|f(x) - g(x)|`` over all reals.

    Both estimates are piecewise linear between their breakpoints and jump
    at ties and at their minimum breakpoint, so it suffices to examine the
    union of breakpoints, taking both the value and the left limit at each,
    as one ``ApproxCdf._limits`` call per summary per knot returns them.
    """
    best = 0.0
    for x in sorted(set(f.breakpoints) | set(g.breakpoints)):
        f_below, f_at = f._limits(x)
        g_below, g_at = g._limits(x)
        best = max(best, abs(f_at - g_at), abs(f_below - g_below))
    return best


def ks_p_value(d: float, n: int, m: int) -> float:
    """Probability that two same-distribution samples of sizes ``n`` and
    ``m`` show a KS distance at least ``d``.

    Uses the asymptotic survival function ``2 * sum((-1)^(k-1) *
    exp(-2 k^2 lambda^2))`` with ``lambda = sqrt(n m / (n + m)) * d``,
    truncated once terms drop below 1e-12 or after 200 terms.
    """
    d = float(d)
    if not 0.0 <= d <= 1.0:
        raise ValidationError(f"distance must be in [0, 1], got {d!r}")
    if n < 1 or m < 1:
        raise ValidationError(f"sample sizes must be >= 1, got n={n}, m={m}")
    lam = math.sqrt(n * m / (n + m)) * d
    if lam <= _LAMBDA_FLOOR:
        return 1.0
    total = 0.0
    sign = 1.0
    for k in range(1, _SERIES_MAX_TERMS + 1):
        term = 2.0 * math.exp(-2.0 * (k * lam) ** 2)
        total += sign * term
        if term < _SERIES_TERM_FLOOR:
            break
        sign = -sign
    return min(max(total, 0.0), 1.0)


def ks_critical_distance(alpha: float, n: int, m: int) -> float:
    """Smallest KS distance that is significant at level ``alpha`` for
    sample sizes ``n`` and ``m``.

    The p-value is continuous and non-increasing in the distance, so the
    threshold is found by bisection on [0, 1] to 1e-9; if even a distance
    of 1 is not significant the cap 1.0 is returned.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha!r}")
    if n < 1 or m < 1:
        raise ValidationError(f"sample sizes must be >= 1, got n={n}, m={m}")
    lo, hi = 0.0, 1.0
    if ks_p_value(hi, n, m) > alpha:
        return hi
    while hi - lo > 1e-9:
        mid = (lo + hi) / 2.0
        if ks_p_value(mid, n, m) > alpha:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def bhattacharyya(f: ApproxCdf, g: ApproxCdf, bins: int = 100) -> float:
    """Shared-mass coefficient ``sum(sqrt(p_k * q_k))`` over a common
    uniform binning of both distributions.

    The binning range spans both supports.  The lower edge is nudged one
    ulp below the smaller minimum so the atom sitting exactly at it falls
    inside the first bin rather than being redistributed; a zero-width
    range (two point masses at one value) is widened by 0.5 either side.
    """
    lo = min(f.breakpoints[0], g.breakpoints[0])
    hi = max(f.breakpoints[-1], g.breakpoints[-1])
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    else:
        lo = math.nextafter(lo, -math.inf)
    df = density_from_cdf(f, lo, hi, bins)
    dg = density_from_cdf(g, lo, hi, bins)
    coefficient = math.fsum(math.sqrt(p * q) for p, q in zip(df, dg))
    return min(max(coefficient, 0.0), 1.0)


def drift_evaluate(baseline: ApproxCdf, current: ApproxCdf, bins: int = 100) -> dict[str, float]:
    """Compare a current summary against its baseline for one quantity.

    Returns the three stored drift metrics: ``bhattacharyya_coefficient``,
    ``ks_distance`` and ``ks_p_value``.  Both summaries must describe the
    same quantity; comparing unrelated labels is a configuration mistake,
    not a statistical result.
    """
    if baseline.label != current.label:
        raise ValidationError(
            f"summary labels do not match: baseline {baseline.label!r} vs current {current.label!r}"
        )
    d = ks_distance(baseline, current)
    return {
        "bhattacharyya_coefficient": bhattacharyya(baseline, current, bins),
        "ks_distance": d,
        "ks_p_value": ks_p_value(d, baseline.sample_count, current.sample_count),
    }
