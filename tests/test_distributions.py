import ast
import copy
import dataclasses
import importlib
import pickle
import pkgutil
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import agedist
from agedist import classify, curvefit, dataio, model1, model2, normalize, pipeline, simulator
from agedist.distributions import (
    ALPHA_MIN,
    MAX_LAST_SURVIVAL,
    ActivationVector,
    AgeDistribution,
    Classification,
    ModelKind,
    ModelParams,
    SurvivalVector,
    as_distribution,
    default_labels,
    mean_absolute_error,
    rises,
    stationary_distribution,
    step_thresholds,
    wasserstein,
)
from agedist.errors import (
    ActivationTooSmall,
    AgedistError,
    DegenerateLastGroup,
    EmptyPopulation,
    IncomparableDistributions,
    InteriorZeroGroup,
    NotModel1Eligible,
    NotNormalized,
    TooFewGroups,
)
from agedist.simulator import SimConfig


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
        # normalize refuses before it builds a distribution; the constructor
        # checks on its own too.
        with pytest.raises(ValueError, match="^2 labels for 3 proportions$"):
            AgeDistribution(("a", "b"), [0.2, 0.3, 0.5])
        dist = AgeDistribution(("a", "b", "c"), [0.2, 0.3, 0.5])
        assert repr(dist) == "AgeDistribution(n=3, a..c)"

    @pytest.mark.parametrize("counts", [["1", "2", "3"], [3, "2", 1]], ids=["text", "mixed"])
    def test_text_counts_are_refused(self, counts):
        with pytest.raises(ValueError, match="^raw_counts must be numbers, not text$"):
            normalize(counts, "abc")

    def test_overflowing_sum_is_scaled_first(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = normalize([1e308, 1e308, 1e308], ["a", "b", "c"])
        assert np.array_equal(d.proportions, np.full(3, 1.0 / 3.0))

    def test_a_trailing_count_that_underflows_is_dropped(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = normalize([1e308, 1e308, 1e308, 1e-320], "abcd")
        assert d.labels == ("a", "b", "c")
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

    def test_text_proportions_rejected(self):
        with pytest.raises(ValueError, match="^proportions must be numbers, not text$"):
            AgeDistribution(("a", "b", "c"), ["0.5", "0.25", "0.25"])

    def test_immutable(self):
        d = dist([0.5, 0.3, 0.2])
        with pytest.raises(ValueError):
            d.proportions[0] = 0.9

    def test_equality(self):
        assert dist([0.5, 0.3, 0.2]) == dist([0.5, 0.3, 0.2])
        assert dist([0.5, 0.3, 0.2]) != dist([0.5, 0.2, 0.3])

    def test_an_empty_group_anywhere_is_rejected(self):
        # Only normalize drops trailing empty groups; the constructor keeps
        # every group it is given or raises.
        with pytest.raises(InteriorZeroGroup, match=r"^group 'd' \(index 3\) is empty$"):
            AgeDistribution(tuple("abcd"), [0.4, 0.3, 0.3, 0.0])
        with pytest.raises(InteriorZeroGroup, match="index 1"):
            AgeDistribution(tuple("abcd"), [0.4, 0.0, 0.3, 0.3])
        with pytest.raises(EmptyPopulation):
            AgeDistribution(tuple("abc"), [0.0, 0.0, 0.0])


#: The public solver entry points: each takes an AgeDistribution or a raw
#: vector, which it reads through ``as_distribution``.
ENTRY_POINTS = [
    model2.feasibility, model1.solve, model2.solve, model2.nearest_reachable,
    model2.mae_objective, model2.optimize, curvefit.fit,
]


def entry_point_id(solver):
    return f"{solver.__module__.rsplit('.', 1)[1]}.{solver.__name__}"


@pytest.mark.parametrize("solver", ENTRY_POINTS, ids=entry_point_id)
def test_every_solver_rejects_a_raw_vector_of_two_groups(solver, monkeypatch):
    # The same typed error as an AgeDistribution of two groups, before any
    # work: the search never builds its objective.
    monkeypatch.setattr(model2, "mae_objective", None)
    with pytest.raises(TooFewGroups, match="got 2"):
        solver([0.6, 0.4])


@pytest.mark.parametrize("solver", ENTRY_POINTS, ids=entry_point_id)
@pytest.mark.parametrize("raw, error, message", [
    ([1.0, 0.0, 0.0], InteriorZeroGroup, "'g2' (index 1) is empty"),
    ([0.5, 0.3, 0.2, 0.0], InteriorZeroGroup, "'g4' (index 3) is empty"),
    ([0.0, 0.0, 0.0], EmptyPopulation, "every age group"),
    ([1e308, 1e308, 5e-324, 5e-324], InteriorZeroGroup, "'g3' (index 2) underflows to 0"),
], ids=["interior", "trailing", "all", "underflow"])
def test_every_solver_rejects_a_raw_vector_with_an_empty_group(solver, raw, error, message):
    # The check an AgeDistribution makes, before any division by a group.
    with pytest.raises(error) as caught:
        solver(raw)
    assert message in str(caught.value)


@pytest.mark.parametrize("solver", ENTRY_POINTS, ids=entry_point_id)
def test_every_solver_rejects_a_negative_entry(solver):
    with pytest.raises(ValueError, match="counts must be non-negative"):
        solver([0.6, -0.1, 0.5])


@pytest.mark.parametrize("solver", ENTRY_POINTS, ids=entry_point_id)
def test_every_solver_rejects_a_text_entry(solver):
    with pytest.raises(ValueError, match="^proportions must be numbers, not text$"):
        solver([0.6, "0.1", 0.5])


@pytest.mark.parametrize("call, message", [
    (lambda: model1.solve([5e-324, 5e-324, 1e308], "mid"),
     "group 'g1' (index 0) underflows to 0 (count 5e-324 of 1e+308)"),
    (lambda: normalize([5e-324, 1.0, 1e308], "abc"),
     "group 'a' (index 0) underflows to 0 (count 5e-324 of 1e+308)"),
], ids=["model1.solve", "normalize"])
def test_a_positive_count_that_underflows_is_called_underflowed(call, message):
    # An exact 0 is "empty"; a positive count that divides to 0 is not.
    with pytest.raises(InteriorZeroGroup) as caught:
        call()
    assert str(caught.value) == message


@pytest.mark.parametrize("shift", [1000, -1070], ids=["near-overflow", "subnormal"])
def test_solvers_see_a_count_vector_at_one_scale(shift):
    # Counts times 2**shift reach every solver as the same floats.
    counts = np.array([3.0, 2.0, 1.5, 1.0, 2.5])
    scaled = np.ldexp(counts, shift)
    assert np.array_equal(as_distribution(scaled).proportions,
                          as_distribution(counts).proportions)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert curvefit.fit(scaled).per_k_table == curvefit.fit(counts).per_k_table


def test_as_distribution_takes_a_distribution_as_it_is():
    d = dist([0.5, 0.3, 0.2], "abc")
    assert as_distribution(d) is d


@st.composite
def raw_counts(draw):
    """A raw count vector as a modeller might hand it over: 2-25 groups,
    each empty, a count between 1e-3 and 1e6, or one at either end of the
    positive float range (5e-324, 1e-320, 1e308); each draw empties at most
    three groups."""
    count = st.one_of(st.floats(1e-3, 1e6), st.sampled_from([5e-324, 1e-320, 1e308]))
    counts = draw(st.lists(count, min_size=2, max_size=25))
    for index in draw(st.lists(st.integers(0, len(counts) - 1), max_size=3)):
        counts[index] = 0.0
    return np.array(counts)


def reproduced(solver, v):
    """(what ``solver`` on ``v`` should reproduce, the stationary
    distribution of the rates it leads to), each labelled g1..gn."""
    labels = default_labels(v.size)
    if solver is model1.solve:
        return normalize(v, labels), stationary_distribution(model1.solve(v, "mid"), labels=labels)
    if solver is model2.solve:
        return normalize(v, labels), stationary_distribution(*model2.solve(v), labels=labels)
    if solver is model2.nearest_reachable:
        target = model2.nearest_reachable(v)
        return target, stationary_distribution(*model2.solve(target), labels=labels)
    target = curvefit.fit(v).fitted
    return target, stationary_distribution(model1.solve(target, "mid"), labels=labels)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(raw_counts())
def test_solvers_on_raw_vectors_raise_typed_errors_or_reproduce_every_group(v):
    for solver in (model1.solve, model2.solve, model2.nearest_reachable, curvefit.fit):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                expected, steady = reproduced(solver, v)
            except AgedistError:
                continue
        assert len(expected) == len(steady) == v.size, solver.__name__
        assert np.abs(steady.proportions - expected.proportions).max() <= 1e-12, solver.__name__


#: A search small enough to run on every example.
SMALL_SEARCH = model2.DEConfig(population_size=8, max_iterations=3)


def bits(value):
    """``value`` with every float and float array as its bytes, so that two
    results compare equal only if they are equal bit for bit."""
    if dataclasses.is_dataclass(value):
        fields = [getattr(value, f.name) for f in dataclasses.fields(value)]
        return type(value).__name__, bits(fields)
    if isinstance(value, (tuple, list)):
        return tuple(map(bits, value))
    if isinstance(value, (float, np.floating, np.ndarray)):
        return np.asarray(value, dtype=float).tobytes()
    return value


def outcome(solver, target):
    """The bits of what ``solver`` returns for ``target`` (the objective's
    scores of four fixed rows, for ``mae_objective``), or the typed error
    it raises."""
    try:
        if solver is model2.optimize:
            return bits(solver(target, SMALL_SEARCH))
        if solver is model2.mae_objective:
            n = len(target)
            rows = np.random.default_rng(0).uniform(*model2.default_bounds(n).T, size=(4, 2 * n))
            return bits(solver(target)(rows))
        return bits(solver(target))
    except AgedistError as error:
        return "raised", type(error), str(error)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.floats(1e-3, 1e6), st.sampled_from([5e-324, 1e-320, 1e308])),
                min_size=2, max_size=12))
def test_every_solver_takes_a_raw_vector_as_normalize_makes_it(counts):
    # A raw vector with no empty group is solved bit for bit as its
    # normalized distribution; one with a group that underflows is refused.
    v = np.array(counts)
    labels = default_labels(v.size)
    try:
        normalized = normalize(v, labels)
    except AgedistError:
        normalized = None
    for solver in ENTRY_POINTS:
        if normalized is not None and len(normalized) == v.size:
            assert outcome(solver, v) == outcome(solver, normalized), entry_point_id(solver)
        else:
            assert outcome(solver, v)[0] == "raised", entry_point_id(solver)


@pytest.mark.parametrize("seed, message", [
    (1.5, "seed must be an integer"), ("7", "seed must be an integer"),
    (True, "seed must be an integer"), (-1, "unsigned 64-bit"), (2**64, "unsigned 64-bit"),
], ids=["float", "str", "bool", "negative", "2**64"])
@pytest.mark.parametrize("seeded", [
    lambda seed: model1.solve([0.5, 0.3, 0.2], "rand", seed=seed),
    lambda seed: SimConfig(seed=seed),
    lambda seed: model2.DEConfig(seed=seed),
], ids=["model1.solve", "SimConfig", "DEConfig"])
def test_every_seed_passes_one_check(seeded, seed, message):
    # A float or a string would fail inside default_rng with an untyped
    # TypeError; a bool or an out-of-range integer would be taken.
    with pytest.raises(ValueError, match=message):
        seeded(seed)


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


@pytest.mark.parametrize("counts, expected", [
    ([2, 3, 2.5, 1.5, 1], [1]),
    ([3, 2.5, 1.5, 2, 1], [3]),
    ([2, 4, 3, 5, 1], [1, 3]),
    ([2.5, 2.5, 2, 2, 1], []),
    ([3, 2.5, 2, 1, 1.5], []),
    ([3, 4, 3], [1]),
    ([5, 2, 3], []),
], ids=["rise-at-1", "rise-at-n-2", "two-rises", "ties", "rise-into-last", "n3-rise",
        "n3-rise-into-last"])
def test_one_non_increasing_rule(counts, expected):
    # classify, model 1's eligibility and model 2's family member all read
    # distributions.rises: the indices 1..n-2 larger than the group before.
    target = normalize(counts, default_labels(len(counts)))
    props = target.proportions
    assert rises(props).tolist() == expected
    assert (classify(target) is Classification.NON_MONOTONE) == bool(expected)
    if expected:
        with pytest.raises(NotModel1Eligible,
                           match=re.escape(f"proportions increase at group indices {expected}")):
            model2.feasibility(target)
        first = expected[0]
        with pytest.raises(ValueError, match=re.escape(
                f"active mass {float(props[first])!r} at group index {first} rises above")):
            model2.member(target, props)
    else:
        model2.feasibility(target)
        survival, activation = model2.member(target, props)
        assert survival == model1.solve(target) and np.all(activation.rates == 1.0)


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

    def test_last_entry_of_one_is_refused(self):
        # Checked before the length, with the value as a plain float.
        for probs in ([0.5, 0.5, 1.0], [0.5, 1.0]):
            with pytest.raises(DegenerateLastGroup, match=r"^last-group survival 1\.0 leaves "
                                                          "the final group with no outflow$"):
                SurvivalVector(probs)
        with pytest.raises(DegenerateLastGroup, match="survival 1.5 "):
            SurvivalVector([0.5, 0.5, 1.5])
        assert SurvivalVector([0.5, 0.5, MAX_LAST_SURVIVAL]).probs[-1] == MAX_LAST_SURVIVAL
        # Intermediate entries of exactly 1 are legitimate.
        assert SurvivalVector([1.0, 1.0, 0.5]).probs[0] == 1.0

    def test_a_survival_vector_is_judged_as_the_bare_list_is(self):
        with pytest.raises(DegenerateLastGroup) as bare:
            model1.steady_state([0.5, 0.4, 1.0])
        with pytest.raises(DegenerateLastGroup) as typed:
            model1.steady_state(SurvivalVector([0.5, 0.4, 1.0]))
        assert str(typed.value) == str(bare.value)

    def test_a_profile_that_underflows_to_an_empty_group_is_refused(self):
        # The last group's share, 1e-200 * 1.25e-201 / 0.5, underflows to 0:
        # six survival rates give six groups or an error, never five.
        with pytest.raises(InteriorZeroGroup, match=r"'g6' \(index 5\) underflows to 0"):
            stationary_distribution([0.5, 0.5, 0.5, 1e-200, 1e-200, 0.5])

    @pytest.mark.parametrize("p, labels, group", [
        ([1e-300] * 5 + [0.5], None, "'g3' (index 2)"),
        ([1e-300] * 5 + [0.5], "abcdef", "'c' (index 2)"),
    ], ids=["interior", "labelled"])
    def test_a_share_that_underflows_is_called_underflowed(self, p, labels, group):
        # As normalize says of counts: the share is positive, not empty.
        with pytest.raises(InteriorZeroGroup) as caught:
            stationary_distribution(p, labels=labels)
        assert str(caught.value) == f"group {group} underflows to 0 in the stationary profile"

    @pytest.mark.parametrize("labels", [("1", "1", "1"), ("a", "b", "c"), ("0", "5", "10")],
                             ids=["ones", "letters", "ages"])
    def test_labels_passed_by_position_are_refused(self, labels):
        # In the second place they are activation rates, and text is no
        # rate: never a g1..g3 distribution, nor an activation of 0.
        with pytest.raises(ValueError, match="^activation rates must be numbers, not text$"):
            model1.steady_state([0.9, 0.8, 0.5], labels)
        with pytest.raises(TypeError, match="positional"):
            model1.steady_state([0.9, 0.8, 0.5], None, labels)
        assert model1.steady_state([0.9, 0.8, 0.5], labels=labels).labels == labels

    def test_activation_floor(self):
        with pytest.raises(ActivationTooSmall):
            ActivationVector([0.5, 1e-4, 0.5])
        with pytest.raises(ValueError):
            ActivationVector([0.5, 1.5, 0.5])
        assert ActivationVector([ALPHA_MIN, 1.0, 0.5]).rates[0] == ALPHA_MIN

    @pytest.mark.parametrize("cls, kind, entries, refusals", [
        (SurvivalVector, "survival", "survival probabilities", [
            ([0.5, -0.25, 1.5, 0.5], ValueError,
             r"survival probabilities must lie in \[0, 1\]: group index 1 has -0.25"),
        ]),
        (ActivationVector, "activation", "activation rates", [
            ([0.5, 1e-4, 1e-5, 0.5], ActivationTooSmall,
             "activation 0.0001 at group index 1 is below the floor 0.001: the group is "
             "more than 1/ALPHA_MIN = 1000 times its active mass"),
            ([0.5, 1.5, 2.0, 0.5], ValueError,
             r"activation rates must lie in \[ALPHA_MIN, 1\]: group index 1 has 1.5"),
        ]),
    ], ids=["SurvivalVector-survival-survival probabilities",
            "ActivationVector-activation-activation rates"])
    def test_shared_checks_and_array_behaviour(self, cls, kind, entries, refusals):
        # A range refusal names the first offending group index and its value.
        for values, error, message in refusals:
            with pytest.raises(error, match=f"^{message}$"):
                cls(values)
        with pytest.raises(ValueError, match=f"^{kind} vector needs at least 3 entries$"):
            cls([0.5, 0.5])
        with pytest.raises(ValueError, match=f"^{entries} must be finite$"):
            cls([0.5, np.inf, 0.5])
        with pytest.raises(ValueError, match=f"^{entries} must be one-dimensional"):
            cls([[0.5, 0.5, 0.5]])
        for text in (["0.5"] * 3, np.array([0.5, b"0.5", 0.5], dtype=object)):
            with pytest.raises(ValueError, match=f"^{entries} must be numbers, not text$"):
                cls(text)
        vec = cls([0.5, 0.25, 0.5])
        assert len(vec) == 3
        assert np.array_equal(np.asarray(vec), [0.5, 0.25, 0.5])
        assert vec == cls([0.5, 0.25, 0.5])
        assert vec != cls([0.5, 0.5, 0.5])
        other = ActivationVector if cls is SurvivalVector else SurvivalVector
        assert vec != other([0.5, 0.25, 0.5])
        with pytest.raises(ValueError, match="read-only"):
            np.asarray(vec)[0] = 1.0
        # np.array honours numpy's copy argument: a copy is the caller's to write.
        held = vec.probs if cls is SurvivalVector else vec.rates
        assert np.shares_memory(np.asarray(vec), held)
        copied = np.array(vec)
        assert copied.flags.writeable and not np.shares_memory(copied, held)


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

    def test_a_plain_set_carries_rates_of_one(self, tmp_path):
        sv = SurvivalVector([0.6, 0.4, 0.4])
        for kind in (ModelKind.MODEL1, ModelKind.MODEL1_ON_FITTED):
            plain = ModelParams(kind=kind, survival=sv)
            assert np.array_equal(plain.activation.rates, np.ones(3))
            assert ModelParams(kind=kind, survival=sv, activation=[1.0, 1.0, 1.0]) == plain
            assert ModelParams(kind=kind, survival=sv, activation=None) == plain
            for rates in ([1.0, 1.0, 0.5], [1.0, 1.0, 1.0 - 2.0 ** -53]):
                with pytest.raises(ValueError, match="activation rates are all 1"):
                    ModelParams(kind=kind, survival=sv, activation=rates)
            with pytest.raises(ValueError, match="differ in length"):
                ModelParams(kind=kind, survival=sv, activation=np.ones(4))
        # Every plain set that the library returns carries ones.
        pyramid = normalize([500, 300, 150, 50], default_labels(4))
        solution = pipeline.solve(pyramid)
        returned = [solution.params]
        for kind in (ModelKind.MODEL1, ModelKind.MODEL1_ON_FITTED):
            path = tmp_path / f"{kind.value}.json"
            dataio.emit_params(ModelParams(kind, solution.params.survival), path)
            returned.append(dataio.load_params(path))
        assert solution.route is pipeline.Route.MODEL1
        assert [params.kind for params in returned] == [
            ModelKind.MODEL1, ModelKind.MODEL1, ModelKind.MODEL1_ON_FITTED]
        for params in returned:
            assert np.array_equal(params.activation.rates, np.ones(4))

    def test_kind_is_coerced_to_a_model_kind(self, tmp_path):
        sv = [0.5, 0.5, 0.5]
        params = ModelParams("model1", sv)
        assert params.kind is ModelKind.MODEL1
        path = tmp_path / "params.json"
        dataio.emit_params(params, path)
        assert dataio.load_params(path) == params
        with pytest.raises(ValueError, match="MODEL2 set needs activation rates"):
            ModelParams("model2", sv)
        assert ModelParams("model2", sv, [1.0, 0.5, 0.5]).kind is ModelKind.MODEL2
        with pytest.raises(ValueError, match="'model3' is not a valid ModelKind"):
            ModelParams("model3", sv)

    def test_a_set_and_a_config_survive_pickle_and_replace(self):
        # Frozen values still travel to worker processes and copy with a change.
        solution = pipeline.solve(normalize([3, 4, 3], default_labels(3)))
        params = solution.params
        config = SimConfig(num_agents=500, num_steps=20, seed=3)
        for value in (params, config):
            assert pickle.loads(pickle.dumps(value)) == value
            assert dataclasses.replace(value) == value
        # A copy is rebuilt through the constructors, so it is frozen all the
        # way down: no worker can write a survival of 1 into its copy.
        values = (solution.analytic, params.survival, params.activation, params, solution)
        for copier in (lambda value: pickle.loads(pickle.dumps(value)), copy.copy,
                       copy.deepcopy):
            for value in values:
                copied = copier(value)
                assert copied == value
                held = arrays_of(copied)
                assert held and not any(arr.flags.writeable for arr in held)
        assert dataclasses.replace(config, seed=1) == SimConfig(num_agents=500, num_steps=20,
                                                                seed=1)
        changed = dataclasses.replace(params, diagnostics={"note": "copy"})
        assert changed.survival == params.survival and "note" not in params.diagnostics
        # replace builds anew, so the constructor's checks run again.
        with pytest.raises(TypeError, match="'span' has type tuple"):
            dataclasses.replace(params, diagnostics={"span": (1, 2)})
        with pytest.raises(ValueError, match="must be positive"):
            dataclasses.replace(config, num_agents=0)


def test_every_dataclass_is_frozen():
    # A constructor's checks hold only while no field can be reassigned.
    found, thawed = [], []
    for info in pkgutil.iter_modules(agedist.__path__):
        module = importlib.import_module(f"agedist.{info.name}")
        for name, value in vars(module).items():
            if (isinstance(value, type) and dataclasses.is_dataclass(value)
                    and value.__module__ == module.__name__):
                found.append(f"{info.name}.{name}")
                if not value.__dataclass_params__.frozen:
                    thawed.append(found[-1])
    assert {"distributions.AgeDistribution", "simulator.SimConfig"} <= set(found)
    assert not thawed, f"not frozen: {', '.join(thawed)}"


def arrays_of(value) -> list:
    """Every array that a dataclass value holds, at any depth."""
    if isinstance(value, np.ndarray):
        return [value]
    if not dataclasses.is_dataclass(value):
        return []
    return [arr for field in dataclasses.fields(value)
            for arr in arrays_of(getattr(value, field.name))]


def test_every_dataclass_that_holds_an_array_keeps_the_value_rule():
    # Compared field by field, an array field raises ValueError for a
    # default dataclass __eq__; the base compares it with np.array_equal.
    stray = []
    for info in pkgutil.iter_modules(agedist.__path__):
        module = importlib.import_module(f"agedist.{info.name}")
        for name, value in vars(module).items():
            if (isinstance(value, type) and dataclasses.is_dataclass(value)
                    and value.__module__ == module.__name__
                    and any("np.ndarray" in str(field.type)
                            for field in dataclasses.fields(value))
                    and not issubclass(value, agedist.distributions._Value)):
                stray.append(f"{info.name}.{name}")
    assert not stray, f"hold arrays without the value rule: {', '.join(stray)}"


#: The stationary law of the ageing process, which lives in distributions.py only.
LAW = ("RESIDUAL_TOLERANCE", "stationary_profiles", "stationarity_residual",
       "stationary_distribution", "step_thresholds")


def source_trees():
    src = Path(model1.__file__).parent
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(src.glob("*.py"))}


def defined_names(node) -> list:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [target.id for target in targets if isinstance(target, ast.Name)]
    return []


class TestTheLawHasOneHome:
    def test_the_law_is_defined_only_in_distributions(self):
        homes = {name: [] for name in LAW}
        for module, tree in source_trees().items():
            for node in ast.walk(tree):
                for name in defined_names(node):
                    if name in homes:
                        homes[name].append(module)
        assert homes == {name: ["distributions.py"] for name in LAW}

    def test_no_module_reads_model1_private_steady_state(self):
        readers = []
        for module, tree in source_trees().items():
            for node in ast.walk(tree):
                attribute = isinstance(node, ast.Attribute) and node.attr == "_steady_state"
                imported = isinstance(node, ast.ImportFrom) and any(
                    alias.name == "_steady_state" for alias in node.names)
                if attribute or imported:
                    readers.append(module)
        assert readers == []

    def test_model1_keeps_only_its_closed_form_and_steady_state(self):
        tree = source_trees()["model1.py"]
        top = [name for node in tree.body for name in defined_names(node)]
        assert sorted(top) == ["solve", "steady_state"]

    def test_step_thresholds(self):
        # Every kind gets two arrays; a plain set's are p and ones.
        survival = SurvivalVector([0.6, 0.4, 0.3])
        for kind in (ModelKind.MODEL1, ModelKind.MODEL1_ON_FITTED):
            below, stay = step_thresholds(ModelParams(kind=kind, survival=survival))
            assert np.array_equal(below, survival.probs) and np.array_equal(stay, np.ones(3))
        activated = ModelParams(kind=ModelKind.MODEL2, survival=survival,
                                activation=ActivationVector([1.0, 0.5, 0.25]))
        below, stay = step_thresholds(activated)
        assert np.array_equal(below, [0.6, 0.2, 0.075])
        assert np.array_equal(stay, [1.0, 0.5, 0.25])


#: Every numpy integer type (``np.sctypeDict`` also lists aliases such as
#: ``np.intc`` and ``np.longlong``), narrowest first.
INTEGER_TYPES = sorted({t for t in np.sctypeDict.values() if np.dtype(t).kind in "iu"},
                       key=lambda t: (np.dtype(t).itemsize, np.dtype(t).kind, t.__name__))


@st.composite
def numpy_integers(draw, low, high):
    """(a numpy integer, its Python int) in [low, high] and the type's range."""
    kind = draw(st.sampled_from(INTEGER_TYPES))
    info = np.iinfo(kind)
    value = draw(st.integers(max(low, int(info.min)), min(high, int(info.max))))
    return kind(value), value


def sim_results_equal(a, b) -> bool:
    return (np.array_equal(a.steady_estimate.view(np.uint64), b.steady_estimate.view(np.uint64))
            and np.array_equal(a.final_snapshot.view(np.uint64), b.final_snapshot.view(np.uint64))
            and a.total_deaths == b.total_deaths and a.seed == b.seed)


ACTIVATED = ModelParams(kind=ModelKind.MODEL2, survival=[0.7, 0.5, 0.4],
                        activation=[0.6, 0.8, 0.5])
START = np.array([0.5, 0.3, 0.2])


class TestConfigsHoldPythonInts:
    """``check_integer`` returns a Python int and the configs store it, so a
    numpy integer of any type gives the Python int's results bit for bit,
    with no warning: numpy arithmetic on a narrow type would overflow."""

    @pytest.mark.parametrize("fields", [
        dict(num_steps=np.int8(127), burn_in=np.int8(120)),  # range(1, num_steps + 1)
        dict(num_agents=np.int8(100)),  # by_segment's 5 * num_agents
    ])
    def test_narrow_sim_config(self, fields):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = simulator.run(START, ACTIVATED, SimConfig(**fields))
        want = simulator.run(START, ACTIVATED,
                             SimConfig(**{key: int(value) for key, value in fields.items()}))
        assert sim_results_equal(got, want)

    def test_narrow_population_size(self):
        # parallel.split's arithmetic on the population size.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = model2.optimize(START, model2.DEConfig(population_size=np.int8(100),
                                                         max_iterations=3))
        want = model2.optimize(START, model2.DEConfig(population_size=100, max_iterations=3))
        assert got == want

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_sim_config(self, data):
        steps, steps_int = data.draw(numpy_integers(1, 150))
        burn_in, burn_in_int = data.draw(numpy_integers(0, steps_int - 1))
        agents, agents_int = data.draw(numpy_integers(1, 300_000 // steps_int))
        seed, seed_int = data.draw(numpy_integers(0, 2**64 - 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = SimConfig(num_agents=agents, num_steps=steps, burn_in=burn_in, seed=seed)
            got = simulator.run(START, ACTIVATED, config)
        fields = (config.num_agents, config.num_steps, config.burn_in, config.seed)
        assert [type(value) for value in fields] == [int] * 4
        assert fields == (agents_int, steps_int, burn_in_int, seed_int)
        want = simulator.run(START, ACTIVATED, SimConfig(
            num_agents=agents_int, num_steps=steps_int, burn_in=burn_in_int, seed=seed_int))
        assert sim_results_equal(got, want)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_de_config(self, data):
        size, size_int = data.draw(numpy_integers(4, 150))
        budget, budget_int = data.draw(numpy_integers(1, 130))
        seed, seed_int = data.draw(numpy_integers(0, 2**64 - 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = model2.DEConfig(population_size=size, max_iterations=budget, seed=seed)
            got = model2.optimize(START, config)
        fields = (config.population_size, config.max_iterations, config.seed)
        assert [type(value) for value in fields] == [int] * 3
        assert fields == (size_int, budget_int, seed_int)
        want = model2.optimize(START, model2.DEConfig(
            population_size=size_int, max_iterations=budget_int, seed=seed_int))
        assert got == want

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=numpy_integers(0, 2**64 - 1))
    def test_model1_rand_seed(self, seed):
        pyramid = dist([0.5, 0.3, 0.2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = model1.solve(pyramid, "rand", seed=seed[0])
        want = model1.solve(pyramid, "rand", seed=seed[1])
        assert np.array_equal(got.probs.view(np.uint64), want.probs.view(np.uint64))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=numpy_integers(0, 2**64 - 1))
    def test_solve_station_records_a_python_int_seed(self, seed):
        # A model-1 and a model-2 route: the files carry the seed as the
        # configs hold it.
        for target in ([3, 2, 1], [1, 3, 2]):
            got = pipeline.solve(normalize(target, "abc"), "rand", seed=seed[0]).params
            want = pipeline.solve(normalize(target, "abc"), "rand", seed=seed[1]).params
            assert type(got.diagnostics["seed"]) is int
            assert got.diagnostics == want.diagnostics
            assert got.survival == want.survival and got.activation == want.activation
