"""Tests for forecast accuracy metrics over seven-day velocities."""

from __future__ import annotations

import math
import random
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from driftmon import (
    ValidationError,
    coefficient_of_variation,
    mae,
    wmape,
)

velocities = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


def split(pairs: list[tuple[float, float]]) -> tuple[list[float], list[float]]:
    """The predicted and the actual velocities of ``(predicted, actual)`` pairs."""
    return [p for p, _ in pairs], [a for _, a in pairs]


class TestVelocityChecks:
    def test_rejects_negative_values(self) -> None:
        for metric in (mae, wmape):
            with pytest.raises(ValidationError, match="predicted"):
                metric([1.0, -0.1], [0.0, 0.0])
            with pytest.raises(ValidationError, match="actual"):
                metric([0.0, 0.0], [1.0, -0.1])

    def test_rejects_non_finite_values(self) -> None:
        for metric in (mae, wmape):
            for bad in (math.nan, math.inf):
                with pytest.raises(ValidationError):
                    metric([bad], [1.0])
                with pytest.raises(ValidationError):
                    metric([1.0], [bad])

    @pytest.mark.parametrize(
        "bad", [-0.1, -math.inf, math.inf, math.nan, "1.0", None, Fraction(1, 2)]
    )
    def test_names_the_first_offending_value(self, bad) -> None:
        values = [0.0, 2.5, bad, -5.0]
        for metric in (mae, wmape):
            with pytest.raises(ValidationError) as info:
                metric(values, [1.0] * 4)
            assert str(info.value) == (
                f"predicted velocity must be finite and non-negative, got {bad!r}"
            )
            with pytest.raises(ValidationError) as info:
                metric([1.0] * 4, values)
            assert str(info.value).startswith("actual velocity")

    def test_rejects_unequal_lengths(self) -> None:
        for metric in (mae, wmape):
            with pytest.raises(ValidationError, match="2 predicted and 1 actual"):
                metric([1.0, 2.0], [1.0])
            with pytest.raises(ValidationError, match="0 predicted and 1 actual"):
                metric([], [1.0])


class TestMae:
    def test_empty_input_rejected(self) -> None:
        with pytest.raises(ValidationError, match="at least one"):
            mae([], [])

    def test_perfect_forecast_is_zero(self) -> None:
        assert mae(*split([(1.0, 1.0), (3.5, 3.5)])) == 0.0

    def test_hand_examples(self) -> None:
        assert mae(*split([(2.0, 1.0), (4.0, 2.0)])) == pytest.approx(1.5, abs=1e-12)
        assert mae(*split([(0.0, 5.0)])) == pytest.approx(5.0, abs=1e-12)

    @given(st.lists(st.tuples(velocities, velocities), min_size=1, max_size=20), st.randoms())
    def test_permutation_invariance(self, raw, rand) -> None:
        shuffled = raw[:]
        rand.shuffle(shuffled)
        assert mae(*split(shuffled)) == pytest.approx(mae(*split(raw)), rel=1e-12, abs=1e-12)

    @given(
        st.lists(st.tuples(velocities, velocities), min_size=1, max_size=10),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_homogeneity_under_scaling(self, raw, c) -> None:
        """Scaling every velocity by c scales the error by exactly c."""
        scaled = [(p * c, v * c) for p, v in raw]
        assert mae(*split(scaled)) == pytest.approx(c * mae(*split(raw)), rel=1e-9, abs=1e-9)


class TestWmape:
    def test_empty_input_rejected(self) -> None:
        with pytest.raises(ValidationError, match="at least one"):
            wmape([], [])

    def test_perfect_forecast_is_zero(self) -> None:
        assert wmape(*split([(2.0, 2.0), (0.0, 0.0)])) == 0.0

    def test_defined_when_actuals_are_zero(self) -> None:
        assert wmape(*split([(1.0, 0.0), (1.0, 0.0)])) == pytest.approx(100.0, abs=1e-12)

    def test_hand_example(self) -> None:
        assert wmape(*split([(2.0, 1.0), (0.0, 0.0)])) == pytest.approx(25.0, abs=1e-12)

    @given(st.lists(st.tuples(velocities, velocities), min_size=1, max_size=20), st.randoms())
    def test_permutation_invariance(self, raw, rand) -> None:
        shuffled = raw[:]
        rand.shuffle(shuffled)
        assert wmape(*split(shuffled)) == pytest.approx(wmape(*split(raw)), rel=1e-12, abs=1e-12)

    @given(st.lists(st.tuples(velocities, velocities), min_size=1, max_size=12))
    def test_decomposes_into_single_pair_means(self, raw) -> None:
        """The N-pair value is the arithmetic mean of single-pair values."""
        singles = [wmape([p], [a]) for p, a in raw]
        assert wmape(*split(raw)) == pytest.approx(
            math.fsum(singles) / len(singles), rel=1e-9, abs=1e-9
        )

    def test_non_negative(self) -> None:
        assert wmape(*split([(0.0, 9.0), (9.0, 0.0)])) >= 0.0


@pytest.mark.parametrize("kind", ["list", "array"])
def test_scores_match_the_per_pair_generator_bit_for_bit(kind: str) -> None:
    """Each term is the same double as in a per-pair generator, and fsum is
    exactly rounded, so the C-level passes cannot move a bit."""
    rng = random.Random(11)
    for n in (1, 2, 7, 1000, 20_000):
        predicted = [
            rng.choice((0.0, rng.random() * 10.0, rng.lognormvariate(0.0, 2.0))) for _ in range(n)
        ]
        actual = [rng.choice((0.0, 1 / 7, rng.random() * 10.0)) for _ in range(n)]
        if kind == "array":
            predicted, actual = array("d", predicted), array("d", actual)
        pairs = list(zip(predicted, actual))
        assert mae(predicted, actual).hex() == (
            math.fsum(abs(p - a) for p, a in pairs) / n
        ).hex()
        assert wmape(predicted, actual).hex() == (
            math.fsum(abs(p - a) / (a + 1.0) for p, a in pairs) / n * 100.0
        ).hex()


class TestCoefficientOfVariation:
    def test_needs_at_least_two_values(self) -> None:
        with pytest.raises(ValidationError, match="at least two"):
            coefficient_of_variation([3.0])

    def test_zero_mean_is_undefined(self) -> None:
        with pytest.raises(ValidationError, match="zero mean"):
            coefficient_of_variation([1.0, -1.0])

    def test_constant_sample_has_zero_dispersion(self) -> None:
        assert coefficient_of_variation([3.0, 3.0, 3.0]) == 0.0

    def test_hand_example(self) -> None:
        assert coefficient_of_variation([2.0, 4.0]) == pytest.approx(0.4714, abs=1e-4)

    def test_uses_sample_standard_deviation(self) -> None:
        """The N-1 denominator: for (2, 4) that is s = sqrt(2), not 1."""
        expected = math.sqrt(2.0) / 3.0
        assert coefficient_of_variation([2.0, 4.0]) == pytest.approx(expected, abs=1e-15)

    @given(
        st.lists(st.floats(min_value=0.1, max_value=1e4), min_size=2, max_size=20),
        st.floats(min_value=0.01, max_value=1000.0),
    )
    def test_invariant_under_positive_scaling(self, values, c) -> None:
        assert coefficient_of_variation([v * c for v in values]) == pytest.approx(
            coefficient_of_variation(values), rel=1e-9, abs=1e-9
        )
