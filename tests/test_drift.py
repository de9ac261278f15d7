"""Tests for the distribution-shift metrics.

Two independent oracles keep the implementations honest: a brute-force
maximisation of |F1 - F2| on a dense evaluation grid for the distance, and
scipy's Kolmogorov tail function for the p-value series.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import special, stats

from driftmon import (
    QuantileSketch,
    ValidationError,
    bhattacharyya,
    build_cdf,
    drift_evaluate,
    ks_critical_distance,
    ks_distance,
    ks_p_value,
)


def summarize(values, epsilon: float = 0.01, points: int | None = None, label: str = "x"):
    sketch = QuantileSketch(epsilon)
    sketch.extend(values)
    return build_cdf(sketch, points if points is not None else min(len(values), 100), label)


def brute_force_distance(f, g, grid_size: int = 100_000) -> float:
    """Maximise |f - g| over a dense grid augmented with every breakpoint
    and a point just below each one, which captures both sides of jumps."""
    knots = np.array(sorted(set(f.breakpoints) | set(g.breakpoints)))
    grid = np.concatenate(
        [
            np.linspace(knots[0] - 1.0, knots[-1] + 1.0, grid_size),
            knots,
            np.nextafter(knots, -np.inf),
        ]
    )
    return max(abs(f(float(x)) - g(float(x))) for x in grid)


class TestKsDistance:
    def test_identical_summaries_have_zero_distance(self) -> None:
        f = summarize(np.random.default_rng(0).normal(0, 1, 1000))
        assert ks_distance(f, f) == 0.0

    def test_disjoint_supports_have_distance_one(self) -> None:
        f = summarize([1.0, 2.0, 3.0])
        g = summarize([10.0, 11.0, 12.0])
        assert ks_distance(f, g) == 1.0

    def test_small_overlapping_example_needs_left_limits(self) -> None:
        """The supremum here occurs just below x = 3, not at any breakpoint:
        approaching from the left, one CDF reaches 0.75 while the other is
        still 0."""
        f = summarize([1.0, 2.0, 3.0, 4.0], points=4)
        g = summarize([3.0, 4.0, 5.0, 6.0], points=4)
        assert ks_distance(f, g) == pytest.approx(0.75, abs=1e-12)

    def test_matches_brute_force_on_random_pairs(self) -> None:
        rng = np.random.default_rng(21)
        for trial in range(5):
            f = summarize(rng.normal(0, 1, 800), points=40)
            g = summarize(rng.normal(rng.uniform(0, 1), 1, 800), points=40)
            assert ks_distance(f, g) == pytest.approx(
                brute_force_distance(f, g, grid_size=20_000), abs=1e-9
            )

    def test_symmetry(self) -> None:
        rng = np.random.default_rng(2)
        f = summarize(rng.normal(0, 1, 500))
        g = summarize(rng.normal(0.4, 1.2, 500))
        assert ks_distance(f, g) == ks_distance(g, f)

    def test_point_mass_summaries(self) -> None:
        same_a = summarize([5.0, 5.0, 5.0], points=3)
        same_b = summarize([5.0, 5.0], points=2)
        other = summarize([9.0, 9.0], points=2)
        assert ks_distance(same_a, same_b) == 0.0
        assert ks_distance(same_a, other) == 1.0


class TestKsPValue:
    def test_zero_distance_means_probability_one(self) -> None:
        assert ks_p_value(0.0, 100, 100) == 1.0

    def test_monotone_decreasing_in_distance(self) -> None:
        distances = np.linspace(0.0, 0.3, 40)
        values = [ks_p_value(float(d), 5000, 5000) for d in distances]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_matches_scipy_kolmogorov_tail(self) -> None:
        """The truncated series must agree with scipy's tail function at
        the rescaled argument sqrt(nm / (n + m)) * d."""
        for n, m in ((1000, 1000), (1000, 100_000), (100_000, 10_000_000)):
            for d in (0.001, 0.005, 0.01, 0.05, 0.2):
                lam = math.sqrt(n * m / (n + m)) * d
                assert ks_p_value(d, n, m) == pytest.approx(
                    float(special.kolmogorov(lam)), abs=1e-12
                )

    def test_rejects_out_of_range_arguments(self) -> None:
        with pytest.raises(ValidationError, match="distance"):
            ks_p_value(-0.1, 10, 10)
        with pytest.raises(ValidationError, match="distance"):
            ks_p_value(1.5, 10, 10)
        with pytest.raises(ValidationError, match="sample sizes"):
            ks_p_value(0.5, 0, 10)


class TestKsCriticalDistance:
    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
    @pytest.mark.parametrize("n,m", [(1000, 1000), (100_000, 1000), (10_000_000, 10_000_000)])
    def test_round_trips_through_p_value(self, alpha: float, n: int, m: int) -> None:
        d = ks_critical_distance(alpha, n, m)
        assert ks_p_value(d, n, m) == pytest.approx(alpha, abs=1e-6)

    def test_unreachable_alpha_caps_at_one(self) -> None:
        """Tiny samples cannot produce arbitrarily small p-values, so the
        critical distance saturates at the maximum possible distance."""
        assert ks_critical_distance(0.001, 2, 2) == 1.0

    def test_tighter_alpha_needs_larger_distance(self) -> None:
        distances = [ks_critical_distance(a, 5000, 5000) for a in (0.2, 0.1, 0.05, 0.01)]
        assert distances == sorted(distances)

    def test_rejects_bad_alpha(self) -> None:
        for bad in (0.0, 1.0, -0.5, math.nan):
            with pytest.raises(ValidationError, match="alpha"):
                ks_critical_distance(bad, 10, 10)

    def test_rejects_empty_samples(self) -> None:
        for n, m in ((0, 10), (10, 0)):
            with pytest.raises(ValidationError, match="sample sizes"):
                ks_critical_distance(0.05, n, m)


class TestBhattacharyya:
    def test_identity_pair_is_one(self) -> None:
        f = summarize(np.random.default_rng(4).normal(0, 1, 2000))
        assert bhattacharyya(f, f) == 1.0

    def test_disjoint_supports_give_exactly_zero(self) -> None:
        f = summarize([1.0, 2.0, 3.0])
        g = summarize([10.0, 11.0, 12.0])
        assert bhattacharyya(f, g) == 0.0

    def test_symmetry_and_range(self) -> None:
        rng = np.random.default_rng(9)
        f = summarize(rng.normal(0, 1, 1500))
        g = summarize(rng.normal(0.7, 1.3, 1500))
        forward = bhattacharyya(f, g)
        assert forward == bhattacharyya(g, f)
        assert 0.0 < forward < 1.0

    def test_equal_point_masses_overlap_fully(self) -> None:
        a = summarize([5.0, 5.0, 5.0], points=3)
        b = summarize([5.0, 5.0], points=2)
        c = summarize([9.0, 9.0], points=2)
        assert bhattacharyya(a, b) == 1.0
        assert bhattacharyya(a, c) == 0.0

    def test_gaussian_overlap_near_closed_form(self) -> None:
        """Unit-variance Gaussians one sigma apart overlap by exp(-1/8)."""
        rng = np.random.default_rng(6)
        f = summarize(rng.normal(0, 1, 20_000), epsilon=0.001, points=100)
        g = summarize(rng.normal(1, 1, 20_000), epsilon=0.001, points=100)
        assert bhattacharyya(f, g) == pytest.approx(math.exp(-0.125), abs=0.03)

    def test_rejects_bad_bin_count(self) -> None:
        f = summarize([1.0, 2.0])
        with pytest.raises(ValidationError, match="bins"):
            bhattacharyya(f, f, bins=0)


class TestDriftEvaluate:
    def test_composes_the_three_metrics(self) -> None:
        rng = np.random.default_rng(12)
        f = summarize(rng.normal(0, 1, 3000), label="feat")
        g = summarize(rng.normal(0.5, 1, 3000), label="feat")
        d = ks_distance(f, g)
        assert drift_evaluate(f, g) == {
            "bhattacharyya_coefficient": bhattacharyya(f, g),
            "ks_distance": d,
            "ks_p_value": ks_p_value(d, 3000, 3000),
        }

    def test_label_mismatch_is_rejected(self) -> None:
        f = summarize([1.0, 2.0], label="a")
        g = summarize([1.0, 2.0], label="b")
        with pytest.raises(ValidationError, match="label"):
            drift_evaluate(f, g)

    def test_null_pairs_track_the_exact_test_and_rarely_alarm(self) -> None:
        """Same-distribution pairs through the production summary (eps 0.001,
        100 points) at n = 10k: every distance is within the criterion-4
        budget of scipy's exact statistic on the raw samples, and at most 6
        of 40 pairs alarm at p < 0.05, the 99th percentile of Bin(40, 0.05)."""
        n = 10_000
        alarms = 0
        for seed in range(1000, 1040):
            rng = np.random.default_rng(seed)
            x, y = rng.normal(0.0, 1.0, n), rng.normal(0.0, 1.0, n)
            result = drift_evaluate(
                summarize(x, epsilon=0.001, points=100), summarize(y, epsilon=0.001, points=100)
            )
            exact = stats.ks_2samp(x, y).statistic
            assert abs(result["ks_distance"] - exact) <= 0.02, seed
            alarms += result["ks_p_value"] < 0.05
        assert alarms <= 6

    def test_null_pairs_at_production_size_track_the_exact_test(self) -> None:
        """The same distance check at production size: four pairs at
        n = 100k through the monitor's default summary settings."""
        n = 100_000
        # A third of the 5 percent critical distance (about 0.0020): the
        # approximation error stays well below the alert line.
        tight = ks_critical_distance(0.05, n, n) / 3
        for seed in range(2000, 2004):
            rng = np.random.default_rng(seed)
            x, y = rng.normal(0.0, 1.0, n), rng.normal(0.0, 1.0, n)
            result = drift_evaluate(
                summarize(x, epsilon=0.001, points=100), summarize(y, epsilon=0.001, points=100)
            )
            exact = stats.ks_2samp(x, y).statistic
            assert abs(result["ks_distance"] - exact) <= 0.02, seed
            assert abs(result["ks_distance"] - exact) <= tight, seed

    def test_growing_shift_moves_both_metrics(self) -> None:
        rng = np.random.default_rng(14)
        base_values = rng.normal(0, 1, 4000)
        baseline = summarize(base_values, label="f")
        noise = rng.normal(0, 1, 4000)
        distances, overlaps = [], []
        for shift in (0.0, 0.5, 1.0, 2.0):
            current = summarize(noise + shift, label="f")
            result = drift_evaluate(baseline, current)
            distances.append(result["ks_distance"])
            overlaps.append(result["bhattacharyya_coefficient"])
        assert distances == sorted(distances)
        assert overlaps == sorted(overlaps, reverse=True)
