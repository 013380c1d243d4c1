import dataclasses
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from agedist import classify, normalize
from agedist.distributions import (
    ALPHA_MIN,
    MAX_LAST_SURVIVAL,
    ActivationVector,
    AgeDistribution,
    Classification,
    ModelKind,
    ModelParams,
    SurvivalVector,
    mean_absolute_error,
    wasserstein,
)
from agedist.errors import (
    ActivationTooSmall,
    EmptyPopulation,
    IncomparableDistributions,
    InteriorZeroGroup,
    NotNormalized,
    TooFewGroups,
)


def dist(values, labels=None):
    values = np.asarray(values, dtype=float)
    labels = labels or [f"g{i}" for i in range(1, values.size + 1)]
    return AgeDistribution(tuple(labels), values)


counts_strategy = st.lists(st.integers(1, 10_000), min_size=3, max_size=25)


@st.composite
def distributions(draw, max_size=25):
    counts = draw(st.lists(st.integers(1, 10_000), min_size=3, max_size=max_size))
    return normalize(counts, [f"g{i}" for i in range(1, len(counts) + 1)])


class TestNormalize:
    def test_divides_by_sum(self):
        d = normalize([50, 30, 20], ["a", "b", "c"])
        assert np.allclose(d.proportions, [0.5, 0.3, 0.2])
        assert d.labels == ("a", "b", "c")

    def test_trailing_zeros_trimmed_with_labels(self):
        d = normalize([50, 30, 20, 0, 0], ["a", "b", "c", "d", "e"])
        assert d.labels == ("a", "b", "c")
        assert np.allclose(d.proportions, [0.5, 0.3, 0.2])

    def test_interior_zero_rejected(self):
        with pytest.raises(InteriorZeroGroup):
            normalize([50, 0, 20], ["a", "b", "c"])

    def test_all_zero_rejected(self):
        with pytest.raises(EmptyPopulation):
            normalize([0, 0, 0], ["a", "b", "c"])

    def test_too_few_groups_after_trim(self):
        with pytest.raises(TooFewGroups):
            normalize([5, 5, 0, 0], ["a", "b", "c", "d"])

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            normalize([1, 2, 3], ["a", "b"])

    def test_overflowing_sum_is_scaled_first(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = normalize([1e308, 1e308, 1e308], ["a", "b", "c"])
        assert np.array_equal(d.proportions, np.full(3, 1.0 / 3.0))

    @given(counts_strategy)
    def test_constructed_distributions_satisfy_invariants(self, counts):
        d = normalize(counts, [str(i) for i in range(len(counts))])
        assert abs(d.proportions.sum() - 1.0) <= 1e-12
        assert d.proportions.min() > 0
        assert len(d) >= 3


class TestAgeDistribution:
    def test_requires_normalized_input(self):
        with pytest.raises(NotNormalized):
            AgeDistribution(("a", "b", "c"), [0.5, 0.3, 0.3])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            AgeDistribution(("a", "b", "c"), [1.2, -0.1, -0.1])

    def test_immutable(self):
        d = dist([0.5, 0.3, 0.2])
        with pytest.raises(ValueError):
            d.proportions[0] = 0.9

    def test_equality(self):
        assert dist([0.5, 0.3, 0.2]) == dist([0.5, 0.3, 0.2])
        assert dist([0.5, 0.3, 0.2]) != dist([0.5, 0.2, 0.3])


class TestClassify:
    def test_monotone(self):
        assert classify(dist([0.5, 0.3, 0.2])) is Classification.MONOTONE_NON_INCREASING

    def test_non_monotone(self):
        assert classify(dist([0.3, 0.4, 0.3])) is Classification.NON_MONOTONE

    def test_uniform_ties_count_as_monotone(self):
        assert (
            classify(dist([0.25, 0.25, 0.25, 0.25]))
            is Classification.MONOTONE_NON_INCREASING
        )

    def test_last_group_unconstrained(self):
        # Only groups 1..n-1 must be non-increasing; a final upturn is fine
        # because the last survival probability is free.
        assert (
            classify(dist([0.4, 0.3, 0.1, 0.2]))
            is Classification.MONOTONE_NON_INCREASING
        )

    @given(counts_strategy, st.floats(1e-3, 1e3, allow_nan=False))
    def test_invariant_under_rescaling(self, counts, factor):
        labels = [str(i) for i in range(len(counts))]
        base = classify(normalize(counts, labels))
        scaled = classify(normalize(np.asarray(counts, dtype=float) * factor, labels))
        assert base is scaled


class TestWasserstein:
    def test_identity(self):
        d = dist([0.5, 0.3, 0.2])
        assert wasserstein(d, d) == 0.0

    def test_all_mass_moves_one_unit(self):
        # Metric-only use permits zero entries via raw vectors.
        assert wasserstein([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_cdf_difference_example(self):
        # CDFs [0.5, 1, 1] vs [0, 0.5, 1]: |diffs| sum to 1.0.
        assert wasserstein([0.5, 0.5, 0.0], [0.0, 0.5, 0.5]) == pytest.approx(1.0)

    def test_label_mismatch_rejected(self):
        a = dist([0.5, 0.3, 0.2], ["a", "b", "c"])
        b = dist([0.5, 0.3, 0.2], ["a", "b", "x"])
        with pytest.raises(IncomparableDistributions):
            wasserstein(a, b)

    def test_length_mismatch_rejected(self):
        with pytest.raises(IncomparableDistributions):
            wasserstein([0.5, 0.5], [0.3, 0.3, 0.4])

    @given(distributions(), distributions())
    def test_matches_scipy_and_is_symmetric(self, a, b):
        if len(a) != len(b):
            return
        ours = wasserstein(a, b)
        positions = np.arange(1, len(a) + 1)
        reference = scipy.stats.wasserstein_distance(
            positions, positions, a.proportions, b.proportions
        )
        assert ours == pytest.approx(reference, abs=1e-12)
        assert ours == pytest.approx(wasserstein(b, a), abs=0)

    @given(distributions(max_size=12), distributions(max_size=12), distributions(max_size=12))
    @settings(max_examples=60)
    def test_triangle_inequality(self, a, b, c):
        if not len(a) == len(b) == len(c):
            return
        assert wasserstein(a, c) <= wasserstein(a, b) + wasserstein(b, c) + 1e-12


class TestMeanAbsoluteError:
    def test_identity(self):
        d = dist([0.5, 0.3, 0.2])
        assert mean_absolute_error(d, d) == 0.0

    def test_two_group_arithmetic(self):
        assert mean_absolute_error([0.5, 0.5], [0.4, 0.6]) == pytest.approx(0.1)

    def test_three_group_arithmetic(self):
        assert mean_absolute_error(
            [0.5, 0.3, 0.2], [0.47, 0.32, 0.21]
        ) == pytest.approx(0.02)

    def test_length_mismatch_rejected(self):
        with pytest.raises(IncomparableDistributions):
            mean_absolute_error([0.5, 0.5], [1.0, 0.0, 0.0])

    @given(distributions(), distributions())
    def test_non_negative_and_zero_iff_equal(self, a, b):
        if len(a) != len(b):
            return
        value = mean_absolute_error(a, b)
        assert value >= 0.0
        if np.array_equal(a.proportions, b.proportions):
            assert value == 0.0
        else:
            assert value > 0.0


class TestVectors:
    def test_survival_range_enforced(self):
        with pytest.raises(ValueError):
            SurvivalVector([0.5, 1.2, 0.4])
        with pytest.raises(ValueError):
            SurvivalVector([-0.1, 0.5, 0.4])

    def test_last_entry_of_one_is_capped(self):
        sv = SurvivalVector([0.5, 0.5, 1.0])
        assert sv.probs[-1] == MAX_LAST_SURVIVAL
        # Intermediate entries of exactly 1 are legitimate.
        assert SurvivalVector([1.0, 1.0, 0.5]).probs[0] == 1.0

    def test_activation_floor(self):
        with pytest.raises(ActivationTooSmall):
            ActivationVector([0.5, 1e-4, 0.5])
        with pytest.raises(ValueError):
            ActivationVector([0.5, 1.5, 0.5])
        assert ActivationVector([ALPHA_MIN, 1.0, 0.5]).rates[0] == ALPHA_MIN

    @pytest.mark.parametrize("cls, kind, entries", [
        (SurvivalVector, "survival", "survival probabilities"),
        (ActivationVector, "activation", "activation rates"),
    ])
    def test_shared_checks_and_array_behaviour(self, cls, kind, entries):
        with pytest.raises(ValueError, match=f"^{kind} vector needs at least 3 entries$"):
            cls([0.5, 0.5])
        with pytest.raises(ValueError, match=f"^{entries} must be finite$"):
            cls([0.5, np.inf, 0.5])
        with pytest.raises(ValueError, match=f"^{entries} must be one-dimensional"):
            cls([[0.5, 0.5, 0.5]])
        vec = cls([0.5, 0.25, 0.5])
        assert len(vec) == 3
        assert np.array_equal(np.asarray(vec), [0.5, 0.25, 0.5])
        assert vec == cls([0.5, 0.25, 0.5])
        assert vec != cls([0.5, 0.5, 0.5])
        other = ActivationVector if cls is SurvivalVector else SurvivalVector
        assert vec != other([0.5, 0.25, 0.5])
        with pytest.raises(ValueError, match="read-only"):
            np.asarray(vec)[0] = 1.0


class TestModelParams:
    def test_free_param_is_the_last_survival_entry(self):
        params = ModelParams(kind=ModelKind.MODEL1, survival=SurvivalVector([0.6, 0.4, 0.3]))
        assert params.free_param == 0.3
        assert "free_param" not in {f.name for f in dataclasses.fields(ModelParams)}
        with pytest.raises(AttributeError):
            params.free_param = 0.5

    def test_activation_presence_tied_to_kind(self):
        sv = SurvivalVector([0.6, 0.4, 0.4])
        av = ActivationVector([1.0, 0.5, 0.5])
        with pytest.raises(ValueError):
            ModelParams(kind=ModelKind.MODEL1, survival=sv, activation=av)
        with pytest.raises(ValueError):
            ModelParams(kind=ModelKind.MODEL2, survival=sv)
        params = ModelParams(kind=ModelKind.MODEL2, survival=sv, activation=av)
        assert len(params.activation) == len(params.survival)
