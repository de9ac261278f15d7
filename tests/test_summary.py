"""Tests for CDF and binned-density summaries built from a sketch."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftmon import (
    ApproxCdf,
    EmptySummaryError,
    QuantileSketch,
    ValidationError,
    build_cdf,
    density_from_cdf,
    ks_distance,
)
from driftmon.summary import _linspace


def sketch_of(values) -> QuantileSketch:
    sketch = QuantileSketch(0.01)
    sketch.extend(values)
    return sketch


def reference_evaluate(cdf: ApproxCdf, x: float) -> float:
    """The CDF's evaluation as written before ``ApproxCdf._limits``; its
    value at ``x`` must stay bit for bit what this returns."""
    x = float(x)
    if not math.isfinite(x):
        raise ValidationError(f"evaluation point must be finite, got {x!r}")
    bps = cdf.breakpoints
    if x < bps[0]:
        return 0.0
    if x >= bps[-1]:
        return 1.0
    j = bisect_right(bps, x) - 1
    q = cdf.probabilities
    if bps[j] == x:
        return q[j]
    frac = (x - bps[j]) / (bps[j + 1] - bps[j])
    return q[j] + (q[j + 1] - q[j]) * frac


def reference_left_limit(cdf: ApproxCdf, x: float) -> float:
    """Limit of the CDF as the argument approaches ``x`` from below.

    Differs from ``self(x)`` only at jump points: the minimum
    breakpoint and any run of tied breakpoints.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValidationError(f"evaluation point must be finite, got {x!r}")
    bps = cdf.breakpoints
    if x <= bps[0]:
        return 0.0
    if x > bps[-1]:
        return 1.0
    i = bisect_left(bps, x)
    if bps[i] == x:
        return cdf.probabilities[i]
    return reference_evaluate(cdf, x)


@st.composite
def tied_cdfs(draw) -> ApproxCdf:
    """An ``ApproxCdf`` of 1 to 30 breakpoints drawn from a pool of small
    integers or any float, so runs of tied breakpoints are common, with a
    random strictly increasing probability grid ending at 1."""
    value = st.integers(-3, 3).map(float) | st.floats(-1e6, 1e6, allow_nan=False)
    breakpoints = tuple(sorted(draw(st.lists(value, min_size=1, max_size=30))))
    inner = draw(
        st.lists(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            min_size=len(breakpoints) - 1,
            max_size=len(breakpoints) - 1,
            unique=True,
        )
    )
    return ApproxCdf(
        label="x",
        sample_count=len(breakpoints),
        breakpoints=breakpoints,
        probabilities=(*sorted(inner), 1.0),
    )


def exact_grid(start: float, stop: float, num: int) -> list[Fraction]:
    """``num`` evenly spaced points from ``start`` to ``stop``, exactly."""
    start, stop = Fraction(start), Fraction(stop)
    return [start + (stop - start) * Fraction(i, num - 1) for i in range(num)]


def exact_cdf(cdf: ApproxCdf, x: Fraction) -> Fraction:
    """The CDF at ``x`` in exact arithmetic: right-continuous, the top of a
    run of tied breakpoints, linear between neighbours."""
    bps = [Fraction(b) for b in cdf.breakpoints]
    q = [Fraction(p) for p in cdf.probabilities]
    hi = bisect_right(bps, x)
    if not hi:
        return Fraction(0)
    if hi == len(bps):
        return Fraction(1)
    j = hi - 1
    return q[j] + (q[hi] - q[j]) * (x - bps[j]) / (bps[hi] - bps[j])


def exact_masses(cdf: ApproxCdf, edges: list[Fraction]) -> list[Fraction]:
    """``density_from_cdf``'s masses over ``edges`` in exact arithmetic:
    the mass outside the edges spread evenly, negatives clamped, the
    total normalised to 1."""
    bins = len(edges) - 1
    values = [exact_cdf(cdf, e) for e in edges]
    correction = (1 - (values[-1] - values[0])) / bins
    masses = [max(b - a + correction, Fraction(0)) for a, b in zip(values, values[1:])]
    total = sum(masses)
    return [m / total for m in masses]


def assert_masses_near(masses, exact: list[Fraction]) -> None:
    """Non-negative, summing to 1 within 1e-15, each within 1e-12 of its
    exact value."""
    assert all(m >= 0.0 for m in masses)
    assert abs(math.fsum(masses) - 1.0) <= 1e-15
    assert max(abs(Fraction(m) - e) for m, e in zip(masses, exact)) <= Fraction(1, 10**12)


def ulps_off(points, exact: list[Fraction], unit: float | None = None) -> float:
    """The largest distance of a point from its exact value, in ulps of
    the point, or in ``unit``s if given."""
    return float(
        max(abs(Fraction(p) - e) / Fraction(unit or math.ulp(p)) for p, e in zip(points, exact))
    )


def probe_points(cdf: ApproxCdf) -> list[float]:
    """Every breakpoint, one ulp either side of each, the midpoints between
    neighbours and a point beyond each end."""
    bps = cdf.breakpoints
    return sorted(
        {*bps}
        | {math.nextafter(b, -math.inf) for b in bps}
        | {math.nextafter(b, math.inf) for b in bps}
        | {(a + b) / 2.0 for a, b in zip(bps, bps[1:])}
        | {bps[0] - 1.0, bps[-1] + 1.0}
    )


class TestBuildCdf:
    def test_rejects_non_positive_or_non_integer_points(self) -> None:
        sketch = sketch_of([1.0, 2.0])
        for bad in (0, -3, 2.5):
            with pytest.raises(ValidationError, match="points"):
                build_cdf(sketch, bad, "x")

    def test_rejects_single_point_grid_for_multi_observation_stream(self) -> None:
        with pytest.raises(ValidationError, match="single"):
            build_cdf(sketch_of([1.0, 2.0]), 1, "x")

    def test_empty_sketch_raises(self) -> None:
        with pytest.raises(EmptySummaryError):
            build_cdf(QuantileSketch(0.01), 10, "x")

    def test_single_observation_collapses_any_grid(self) -> None:
        """One observation yields one breakpoint regardless of grid size."""
        for points in (1, 2, 100):
            cdf = build_cdf(sketch_of([5.0]), points, "x")
            assert cdf.breakpoints == (5.0,)
            assert cdf.probabilities == (1.0,)
            assert cdf.sample_count == 1

    def test_two_observations_two_points(self) -> None:
        cdf = build_cdf(sketch_of([1.0, 3.0]), 2, "x")
        assert cdf.breakpoints == (1.0, 3.0)
        assert cdf.probabilities == (0.5, 1.0)

    def test_grid_spans_one_over_n_to_one(self) -> None:
        values = np.random.default_rng(1).normal(0.0, 1.0, 500)
        cdf = build_cdf(sketch_of(values), 25, "feat")
        assert cdf.probabilities[0] == 1.0 / 500
        assert cdf.probabilities[-1] == 1.0
        assert ulps_off(cdf.probabilities, exact_grid(1.0 / 500, 1.0, 25)) <= 2.0
        assert cdf.label == "feat"
        assert cdf.sample_count == 500
        assert cdf.breakpoints[-1] == values.max()
        assert list(cdf.breakpoints) == sorted(cdf.breakpoints)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(2, 10**7), points=st.integers(2, 2000))
    def test_grid_is_exact_at_its_ends_increasing_and_near_its_fractions(
        self, n: int, points: int
    ) -> None:
        """From exactly ``1/n`` to exactly 1, strictly increasing, and each
        point within 2 ulps of its exact value."""
        grid = _linspace(1.0 / n, 1.0, points)
        assert grid[0] == 1.0 / n and grid[-1] == 1.0
        assert all(b > a for a, b in zip(grid, grid[1:]))
        assert ulps_off(grid, exact_grid(1.0 / n, 1.0, points)) <= 2.0

    @pytest.mark.parametrize(
        ("epsilon", "n"), [(0.3, 3_000), (0.01, 30_000), (0.001, 30_000), (0.0003, 100_000)]
    )
    def test_breakpoints_match_one_query_per_point(self, epsilon: float, n: int) -> None:
        """``build_cdf``'s single sorted view returns the breakpoints of one
        ``query`` per grid point, on a skewed stream with ties and on a
        normal one; at eps 0.0003 and n = 1e5, ``epsilon * count`` falls
        just below an integer."""
        rng = np.random.default_rng(23)
        for values in (np.round(rng.lognormal(0.0, 1.0, n), 2), rng.normal(0.0, 1.0, n)):
            sketch = QuantileSketch(epsilon)
            sketch.extend(values)
            for points in (2, 100, 2000):
                cdf = build_cdf(sketch, points, "x")
                assert cdf.breakpoints == tuple(sketch.query(p) for p in cdf.probabilities)


class TestApproxCdfEval:
    def test_linear_interpolation_between_breakpoints(self) -> None:
        cdf = build_cdf(sketch_of([1.0, 3.0]), 2, "x")
        assert cdf(0.0) == 0.0
        assert cdf(1.0) == 0.5
        assert cdf(2.0) == 0.75
        assert cdf(3.0) == 1.0
        assert cdf(99.0) == 1.0

    def test_tied_breakpoints_behave_as_a_jump(self) -> None:
        """A run of equal breakpoints is a vertical step: evaluation takes
        the top of the step, the left limit takes the bottom."""
        cdf = ApproxCdf(
            label="x",
            sample_count=4,
            breakpoints=(1.0, 2.0, 2.0, 3.0),
            probabilities=(0.25, 0.5, 0.75, 1.0),
        )
        assert cdf(2.0) == 0.75
        assert cdf._limits(2.0) == (0.5, 0.75)
        assert cdf(1.5) == 0.375
        assert cdf._limits(1.5) == (cdf(1.5), cdf(1.5))

    def test_left_limit_at_minimum_is_zero(self) -> None:
        cdf = build_cdf(sketch_of([1.0, 3.0]), 2, "x")
        assert cdf._limits(1.0)[0] == 0.0
        assert cdf._limits(0.5)[0] == 0.0
        assert cdf._limits(3.0)[0] == 1.0
        assert cdf._limits(4.0)[0] == 1.0

    def test_breakpoints_round_trip_to_their_probabilities(self) -> None:
        """With distinct breakpoints, evaluating at breakpoint i returns
        exactly the grid probability i."""
        values = np.random.default_rng(8).normal(0.0, 2.0, 1000)
        cdf = build_cdf(sketch_of(values), 40, "x")
        assert len(set(cdf.breakpoints)) == len(cdf.breakpoints)
        for b, q in zip(cdf.breakpoints, cdf.probabilities):
            assert cdf(b) == pytest.approx(q, abs=1e-12)

    def test_interpolates_across_a_gap_wider_than_the_largest_float(self) -> None:
        """Between breakpoints further apart than the largest float the
        CDF is still linear, and the KS distance sees every knot."""
        g = ApproxCdf("x", 2, (-1e308, 1e308), (0.5, 1.0))
        assert g(9e307) == pytest.approx(0.975, abs=1e-15)
        assert g(0.0) == 0.75
        assert g._limits(-5e307) == (0.625, 0.625)
        f = ApproxCdf("x", 3, (-1e308, 9e307, 1e308), (0.2, 0.6, 1.0))
        assert ks_distance(f, g) == pytest.approx(0.375, abs=1e-15)

    def test_non_finite_evaluation_point_rejected(self) -> None:
        cdf = build_cdf(sketch_of([1.0, 3.0]), 2, "x")
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError, match="finite"):
                cdf(bad)

    def test_tracks_empirical_cdf_within_resolution_bound(self) -> None:
        """|approx - empirical| <= 1/points + 2 epsilon + 1/N everywhere."""
        rng = np.random.default_rng(5)
        n, eps, points = 5000, 0.01, 50
        data = rng.lognormal(0.0, 1.0, n)
        sketch = QuantileSketch(eps)
        sketch.extend(data)
        cdf = build_cdf(sketch, points, "x")
        ordered = np.sort(data).tolist()
        bound = 1.0 / points + 2.0 * eps + 1.0 / n
        probes = np.concatenate(
            [np.linspace(ordered[0] - 1.0, ordered[-1] + 1.0, 801), data]
        )
        for x in probes:
            empirical = bisect_right(ordered, float(x)) / n
            assert abs(cdf(float(x)) - empirical) <= bound

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=30,
            unique=True,
        )
    )
    def test_evaluation_is_monotone_and_bounded(self, points: list[float]) -> None:
        breakpoints = tuple(sorted(points))
        k = len(breakpoints)
        probabilities = tuple((i + 1) / k for i in range(k))
        cdf = ApproxCdf(
            label="x", sample_count=k, breakpoints=breakpoints, probabilities=probabilities
        )
        probes = sorted(
            set(breakpoints)
            | {(a + b) / 2.0 for a, b in zip(breakpoints, breakpoints[1:])}
            | {breakpoints[0] - 1.0, breakpoints[-1] + 1.0}
        )
        answers = [cdf(x) for x in probes]
        assert answers == sorted(answers)
        assert all(0.0 <= y <= 1.0 for y in answers)
        assert all(cdf._limits(x)[0] <= cdf(x) + 1e-15 for x in probes)

    @settings(max_examples=300)
    @given(tied_cdfs())
    def test_limits_match_the_reference_evaluations_bit_for_bit(self, cdf: ApproxCdf) -> None:
        """With ties, single points and probes one ulp off each breakpoint,
        the pair from one ``_limits`` call and the public evaluation equal
        the separate reference evaluations exactly."""
        for x in probe_points(cdf):
            below, at = cdf._limits(x)
            assert below.hex() == reference_left_limit(cdf, x).hex()
            assert at.hex() == cdf(x).hex() == reference_evaluate(cdf, x).hex()


class TestApproxCdfValidation:
    def test_rejects_mismatched_or_empty_vectors(self) -> None:
        with pytest.raises(ValidationError, match="equal-length"):
            ApproxCdf("x", 2, (1.0, 2.0), (1.0,))
        with pytest.raises(ValidationError, match="equal-length"):
            ApproxCdf("x", 2, (), ())

    def test_rejects_decreasing_breakpoints(self) -> None:
        with pytest.raises(ValidationError, match="non-decreasing"):
            ApproxCdf("x", 2, (2.0, 1.0), (0.5, 1.0))

    def test_rejects_non_increasing_probabilities(self) -> None:
        with pytest.raises(ValidationError, match="strictly increasing"):
            ApproxCdf("x", 2, (1.0, 2.0), (0.5, 0.5))

    def test_rejects_non_finite_breakpoints_or_probabilities(self) -> None:
        """A NaN passes every ordering comparison, so finiteness is its own
        check."""
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError, match="finite"):
                ApproxCdf("x", 2, (1.0, bad), (0.5, 1.0))
            with pytest.raises(ValidationError, match="finite"):
                ApproxCdf("x", 2, (bad, 2.0), (0.5, 1.0))
        with pytest.raises(ValidationError, match="finite"):
            ApproxCdf("x", 3, (1.0, 2.0, 3.0), (0.25, math.nan, 1.0))

    def test_rejects_grid_not_ending_at_one(self) -> None:
        with pytest.raises(ValidationError, match="end at 1.0"):
            ApproxCdf("x", 2, (1.0, 2.0), (0.4, 0.9))

    def test_rejects_non_positive_sample_count(self) -> None:
        with pytest.raises(ValidationError, match="sample_count"):
            ApproxCdf("x", 0, (1.0,), (1.0,))


class TestDensityFromCdf:
    def test_uniform_data_gives_equal_masses(self) -> None:
        """A linear CDF over [0, 1] bins into exactly equal masses once the
        atom at the left edge is redistributed."""
        cdf = ApproxCdf("x", 2, (0.0, 1.0), (0.5, 1.0))
        masses = density_from_cdf(cdf, 0.0, 1.0, 4)
        assert masses.tolist() == [0.25, 0.25, 0.25, 0.25]

    def test_masses_sum_to_one(self) -> None:
        values = np.random.default_rng(3).normal(0.0, 1.0, 2000)
        cdf = build_cdf(sketch_of(values), 50, "x")
        masses = density_from_cdf(cdf, float(values.min()), float(values.max()), 37)
        assert abs(math.fsum(masses) - 1.0) <= 1e-12
        assert all(m >= 0.0 for m in masses)

    def test_bins_outside_support_stay_exactly_empty(self) -> None:
        """When the range covers all mass, no correction is redistributed
        and bins beyond the support hold exactly zero."""
        cdf = ApproxCdf("x", 2, (0.5, 1.0), (0.5, 1.0))
        masses = density_from_cdf(cdf, -2.0, 1.0, 3)
        assert masses[0] == 0.0
        assert masses[1] == 0.0
        assert masses[2] == 1.0

    def test_mass_outside_subrange_is_redistributed(self) -> None:
        cdf = ApproxCdf("x", 4, (0.0, 1.0, 2.0, 3.0), (0.25, 0.5, 0.75, 1.0))
        masses = density_from_cdf(cdf, 1.0, 2.0, 2)
        assert abs(math.fsum(masses) - 1.0) <= 1e-12
        # the covered quarter splits evenly, the leftover spreads evenly
        assert masses[0] == pytest.approx(masses[1], abs=1e-12)

    def test_translation_equivariance(self) -> None:
        values = np.random.default_rng(17).normal(0.0, 1.0, 1500)
        shift = 123.5
        base = build_cdf(sketch_of(values), 30, "x")
        moved = build_cdf(sketch_of(values + shift), 30, "x")
        d0 = density_from_cdf(base, -4.0, 4.0, 20)
        d1 = density_from_cdf(moved, -4.0 + shift, 4.0 + shift, 20)
        for m0, m1 in zip(d0, d1):
            assert m0 == pytest.approx(m1, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        cdf=tied_cdfs(),
        bins=st.sampled_from([1, 7, 8, 100, 129]),
        ends=st.lists(st.floats(-2e6, 2e6) | st.integers(-3, 3).map(float), min_size=2, max_size=2),
        use_support=st.booleans(),
    )
    def test_masses_match_exact_fractions_on_the_same_edges(
        self, cdf: ApproxCdf, bins: int, ends: list[float], use_support: bool
    ) -> None:
        """Over a drawn range or over the CDF's support, as
        ``bhattacharyya`` bins it.  Ties put jumps under the edges, where a
        one-ulp move of an edge moves a mass by a whole step, so the oracle
        bins on the very edges ``density_from_cdf`` computed; the grid
        tests bound those edges against exact ones."""
        if use_support:
            lo, hi = math.nextafter(cdf.breakpoints[0], -math.inf), cdf.breakpoints[-1]
        else:
            lo, hi = sorted(ends)
        if not lo < hi:
            lo, hi = lo - 0.5, hi + 0.5
        masses = density_from_cdf(cdf, lo, hi, bins)
        assert masses.typecode == "d"
        edges = [Fraction(e) for e in _linspace(lo, hi, bins + 1)]
        assert_masses_near(masses, exact_masses(cdf, edges))

    @pytest.mark.parametrize("seed", range(6))
    def test_masses_match_exact_fractions_on_exact_edges(self, seed: int) -> None:
        """On summaries of continuous draws, binned over their support or a
        part of it, the masses are those of the exact edges."""
        rng = np.random.default_rng(seed)
        values = rng.lognormal(0.0, 1.0, 3000) if seed % 2 else rng.normal(0.0, 1.0, 3000)
        cdf = build_cdf(sketch_of(values), 100, "x")
        lo, hi = math.nextafter(cdf.breakpoints[0], -math.inf), cdf.breakpoints[-1]
        for lo, hi, bins in ((lo, hi, 100), (lo, hi, 129), ((lo + hi) / 3, hi / 2, 7)):
            masses = density_from_cdf(cdf, lo, hi, bins)
            assert_masses_near(masses, exact_masses(cdf, exact_grid(lo, hi, bins + 1)))

    def test_edges_stay_finite_across_the_whole_float_range(self) -> None:
        """Ends further apart than the largest float: no edge overflows."""
        cdf = ApproxCdf("x", 3, (-1e308, 0.0, 1e308), (1 / 3, 2 / 3, 1.0))
        masses = density_from_cdf(cdf, -1e308, 1e308, 100)
        assert_masses_near(masses, exact_masses(cdf, exact_grid(-1e308, 1e308, 101)))

    def test_rejects_bad_range_or_bins(self) -> None:
        cdf = ApproxCdf("x", 2, (0.0, 1.0), (0.5, 1.0))
        with pytest.raises(ValidationError, match="lo"):
            density_from_cdf(cdf, 1.0, 1.0, 4)
        with pytest.raises(ValidationError, match="lo"):
            density_from_cdf(cdf, 2.0, 1.0, 4)
        with pytest.raises(ValidationError, match="lo"):
            density_from_cdf(cdf, math.nan, 1.0, 4)
        with pytest.raises(ValidationError, match="bins"):
            density_from_cdf(cdf, 0.0, 1.0, 0)
        with pytest.raises(ValidationError, match="bins"):
            density_from_cdf(cdf, 0.0, 1.0, 2.5)


class TestLinspace:
    """``_linspace`` weighs its two ends at each point: the ends are exact,
    no point overflows, and each lies within 2 ulps of the larger end
    from its exact value."""

    @settings(max_examples=500, deadline=None)
    @given(
        start=st.floats(allow_nan=False, allow_infinity=False),
        stop=st.floats(allow_nan=False, allow_infinity=False),
        num=st.integers(2, 300),
    )
    def test_points_lie_near_their_fractions(self, start: float, stop: float, num: int) -> None:
        self.check(start, stop, num)

    @pytest.mark.parametrize(
        "start, stop, num",
        [
            (0.0, 5e-324, 101),  # a step below the smallest float
            (5e-324, 1e-323, 3),
            (-5e-324, 5e-324, 7),
            (0.0, 1e-320, 129),
            (1.0, 1.0, 5),  # no width
            (-0.0, 0.0, 4),
            (-1e308, 1e308, 101),  # the width overflows to infinity
            (0.0, 1.7976931348623157e308, 9),
            (1e300, 1.0000000000000002e300, 100),
            (1.0 / 3, 1.0, 100),
        ],
    )
    def test_extreme_ranges(self, start: float, stop: float, num: int) -> None:
        self.check(start, stop, num)

    @staticmethod
    def check(start: float, stop: float, num: int) -> None:
        points = _linspace(start, stop, num)
        assert len(points) == num
        assert points[0] == start and points[-1] == stop
        assert all(map(math.isfinite, points))
        unit = max(math.ulp(start), math.ulp(stop))
        assert ulps_off(points, exact_grid(start, stop, num), unit) <= 2.0
