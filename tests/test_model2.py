import dataclasses
import math
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from agedist import distributions, model1, model2, normalize, optimize, parallel
from agedist.distributions import (
    ALPHA_MIN,
    MAX_LAST_SURVIVAL,
    AgeDistribution,
    as_distribution,
    default_labels,
)
from agedist.errors import (
    ActivationTooSmall,
    DegenerateLastGroup,
    FreeParamOutOfRange,
    InteriorZeroGroup,
    ResidualCheckFailed,
)
from agedist.model1 import steady_state
from agedist.model2 import DEConfig, _bounce_back, default_bounds, mae_objective, steady_state2
from agedist.pipeline import Route, run_dataset
from agedist.simulator import SimConfig

from oracles import (
    expected_update_activated,
    fixed_point,
    reachable_band,
    reachable_l1_optimum,
    reference_chain,
    reference_bounce_back,
    reference_mae_objective,
    reference_optimize,
    reference_steady_state,
    stationarity_system,
    stationary_null_vector,
)

WITNESS_P = [0.8, 0.4, 0.2]
WITNESS_ALPHA = [1.0, 0.6, 0.4]
WITNESS_TARGET = np.array([0.3, 0.4, 0.3])


def hump():
    return AgeDistribution(("a", "b", "c"), WITNESS_TARGET)


@st.composite
def survival_vectors(draw, max_size=15):
    probs = draw(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=3, max_size=max_size
        )
    )
    last = draw(st.floats(0.0, 0.999, allow_nan=False))
    probs[-1] = last
    return np.asarray(probs)


@st.composite
def activation_vectors(draw, size):
    rates = draw(
        st.lists(
            st.floats(ALPHA_MIN, 1.0, allow_nan=False),
            min_size=size,
            max_size=size,
        )
    )
    return np.asarray(rates)


@st.composite
def rate_pairs(draw, min_survival=0.0, max_groups=60):
    """(survival, activation) of 3..max_groups groups; rates at ALPHA_MIN,
    at 1 and in between, the last survival up to MAX_LAST_SURVIVAL."""
    n = draw(st.integers(3, max_groups))
    probs = draw(st.lists(st.floats(min_survival, 1.0), min_size=n, max_size=n))
    probs[-1] = draw(st.just(MAX_LAST_SURVIVAL) | st.floats(0.0, MAX_LAST_SURVIVAL))
    rate = st.sampled_from([ALPHA_MIN, 1.0]) | st.floats(ALPHA_MIN, 1.0)
    rates = draw(st.lists(rate, min_size=n, max_size=n))
    return np.asarray(probs), np.asarray(rates)


@st.composite
def systems_and_profiles(draw):
    """A rate pair of 3..200 groups and a profile on the simplex."""
    probs, rates = draw(rate_pairs(max_groups=200))
    weights = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=probs.size,
                                       max_size=probs.size)))
    assume(weights.sum() > 0.0)
    return probs, rates, weights / weights.sum()


class TestStationaryKernel:
    @given(systems_and_profiles())
    @settings(max_examples=150)
    def test_residual_is_the_dense_system_times_the_profile(self, case):
        probs, rates, profile = case
        dense = stationarity_system(probs, rates) @ profile
        assert np.abs(distributions.stationarity_residual(probs, rates, profile) - dense).max() <= 1e-15

    @pytest.mark.parametrize("group", [0, 10, 20])
    def test_residual_check_covers_every_group(self, group, monkeypatch):
        # A profile off by 1e-6 in the first, a middle or the last group
        # misses its equations by far more than RESIDUAL_TOLERANCE.
        kernel = distributions.stationary_profiles

        def shifted(*args, **kwargs):
            out = kernel(*args, **kwargs)
            out[:, group] += 1e-6
            return np.divide(out, out.sum(axis=1, keepdims=True), out=out)

        monkeypatch.setattr(distributions, "stationary_profiles", shifted)
        probs = np.linspace(0.9, 0.5, 21)
        rates = np.linspace(1.0, 0.2, 21)
        with pytest.raises(ResidualCheckFailed, match="residual"):
            steady_state(probs)
        with pytest.raises(ResidualCheckFailed, match="residual"):
            steady_state2(probs, rates)

    @given(rate_pairs(min_survival=0.01))
    @settings(max_examples=150)
    def test_one_row_equals_both_steady_states(self, pair):
        probs, rates = pair
        n = probs.size
        plain = distributions.stationary_profiles(probs[None], np.ones((1, n)), np.empty((1, n)))
        activated = distributions.stationary_profiles(probs[None], rates[None], np.empty((1, n)))
        assert np.array_equal(plain[0], reference_steady_state(probs))
        assert np.array_equal(activated[0], reference_steady_state(probs, rates))
        assert np.array_equal(plain[0], steady_state(probs).proportions)
        assert np.array_equal(activated[0], steady_state2(probs, rates).proportions)

    def test_rows_are_independent_of_their_batch(self):
        rng = np.random.default_rng(5)
        probs = rng.uniform(0.05, MAX_LAST_SURVIVAL, (40, 21))
        rates = rng.uniform(ALPHA_MIN, 1.0, (40, 21))
        batch = distributions.stationary_profiles(probs, rates, np.empty((40, 21)))
        for i in (0, 17, 39):
            row = distributions.stationary_profiles(probs[i:i + 1], rates[i:i + 1], np.empty((1, 21)))
            assert np.array_equal(batch[i], row[0])


class TestSteadyState2:
    def test_hand_witness(self):
        ss = steady_state2(WITNESS_P, WITNESS_ALPHA)
        assert np.abs(ss.proportions - WITNESS_TARGET).max() < 1e-12

    def test_witness_balance_terms(self):
        # First-group inflow/outflow balance at the witness: 0.24 both ways.
        ss = steady_state2(WITNESS_P, WITNESS_ALPHA).proportions
        inflow = 1.0 * 0.8 * ss[0]
        outflow = 0.6 * 0.6 * ss[1] + 0.4 * 0.8 * ss[2]
        assert inflow == pytest.approx(0.24, abs=1e-12)
        assert outflow == pytest.approx(0.24, abs=1e-12)

    def test_all_ones_reduces_to_plain_process(self):
        p = [0.6, 0.4, 0.4]
        assert np.array_equal(
            steady_state2(p, [1.0, 1.0, 1.0]).proportions,
            steady_state(p).proportions,
        )

    def test_degenerate_last_group(self):
        with pytest.raises(DegenerateLastGroup):
            steady_state2([0.5, 0.4, 1.0], [1.0, 1.0, 1.0])

    def test_activation_floor_enforced(self):
        with pytest.raises(ActivationTooSmall):
            steady_state2([0.5, 0.4, 0.3], [1.0, 1e-5, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            steady_state2([0.5, 0.4, 0.3], [1.0, 1.0, 1.0, 1.0])

    def test_balance_guard_raises_typed_error(self, monkeypatch):
        monkeypatch.setattr(distributions, "RESIDUAL_TOLERANCE", 0.0)
        with pytest.raises(ResidualCheckFailed, match="stationarity residual"):
            steady_state2(WITNESS_P, WITNESS_ALPHA)

    @given(survival_vectors())
    @settings(max_examples=100)
    def test_reduction_property_is_exact(self, probs):
        from agedist.errors import AgedistError

        ones = np.ones(probs.size)
        try:
            plain = steady_state(probs)
        except AgedistError:
            return  # degenerate survival patterns are covered elsewhere
        assert np.array_equal(
            steady_state2(probs, ones).proportions, plain.proportions
        )

    @given(st.data())
    @settings(max_examples=80)
    def test_fixed_point_of_expected_update(self, data):
        probs = data.draw(survival_vectors(max_size=10))
        probs = np.clip(probs, 0.05, 1.0)
        probs[-1] = min(probs[-1], 0.95)
        rates = data.draw(activation_vectors(probs.size))
        ss = steady_state2(probs, rates).proportions
        stepped = expected_update_activated(ss, probs, rates)
        assert np.abs(stepped - ss).max() < 1e-12

    def test_oracle_agreement_from_scratch(self):
        probs = [0.7, 0.5, 0.9, 0.35]
        rates = [0.9, 0.4, 0.8, 0.6]
        ours = steady_state2(probs, rates).proportions
        theirs = fixed_point(
            lambda x: expected_update_activated(x, probs, rates), 4
        )
        assert np.abs(ours - theirs).max() < 1e-12

    def test_activation_scaling_by_half_is_exact(self):
        # Rates enter only as ratios; halving is exact in binary floating
        # point, so the profiles match bit for bit.
        rates = np.array([1.0, 0.6, 0.4])
        a = steady_state2(WITNESS_P, rates).proportions
        b = steady_state2(WITNESS_P, rates * 0.5).proportions
        assert np.array_equal(a, b)

    def test_activation_scaling_general_factor(self):
        rates = np.array([0.9, 0.61, 0.47])
        a = steady_state2(WITNESS_P, rates).proportions
        b = steady_state2(WITNESS_P, rates * 0.73).proportions
        assert np.abs(a - b).max() < 1e-12


@st.composite
def positive_targets(draw, max_size=200, monotone=False):
    """Targets with 3..max_size groups. The body spreads over a little more
    than 1/ALPHA_MIN, so the largest ratio to an earlier running minimum
    falls on either side of it; an optional tail falls towards underflow,
    into the subnormal range."""
    n = draw(st.integers(3, max_size))
    logs = np.array(draw(st.lists(st.floats(-3.001, 0.0), min_size=n, max_size=n)))
    if monotone:
        logs[: n - 1] = np.sort(logs[: n - 1])[::-1]
    tail = draw(st.integers(0, n - 2))
    if tail:
        depth = draw(st.floats(250.0, 320.0))
        logs[n - tail:] = np.linspace(logs[n - tail - 1], -depth, tail + 1)[1:]
    return normalize(10.0 ** logs, default_labels(n))


@st.composite
def near_floor_targets(draw, max_size=200):
    """Targets whose group j is 1/ALPHA_MIN times the smallest group before
    it, give or take a relative 1e-13 to 1e-8."""
    n = draw(st.integers(3, max_size))
    values = 10.0 ** np.array(
        draw(st.lists(st.floats(-2.0, 0.0), min_size=n, max_size=n))
    )
    j = draw(st.integers(1, n - 2))
    offset = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-13.0, -8.0))
    values[j] = values[:j].min() / ALPHA_MIN * (1.0 + offset)
    return normalize(values, default_labels(n))


def largest_ratio(props):
    """max_i N_i / min(N_1..N_i) over the first n-1 groups, exactly."""
    exact = [Fraction(float(v)) for v in props[:-1]]
    running, worst = exact[0], Fraction(1)
    for value in exact:
        running = min(running, value)
        worst = max(worst, value / running)
    return worst


class TestSolve:
    """Closed-form inverse, checked against a direct solve of the full
    stationarity system and an exact-arithmetic feasibility rule."""

    @given(positive_targets())
    @settings(max_examples=60, deadline=None)
    def test_reproduces_target_through_null_vector(self, dist):
        try:
            survival, activation = model2.solve(dist)
        except ActivationTooSmall:
            assert largest_ratio(dist.proportions) > 1 / Fraction(ALPHA_MIN)
            return
        x = stationary_null_vector(survival.probs, activation.rates)
        assert np.abs(x - dist.proportions).max() < 1e-12
        analytic = steady_state2(survival, activation)
        assert np.abs(analytic.proportions - dist.proportions).max() < 1e-12

    @given(st.one_of(positive_targets(), near_floor_targets()))
    @settings(max_examples=150, deadline=None)
    def test_rejects_exactly_beyond_the_floor_ratio(self, dist):
        # The decision is taken on the rounded quotient N_min / N_i; within
        # a relative 1e-14 of the boundary rounding may go either way.
        ratio = largest_ratio(dist.proportions) * Fraction(ALPHA_MIN)
        assume(abs(ratio - 1) > Fraction(1, 10**14))
        if ratio > 1:
            with pytest.raises(ActivationTooSmall):
                model2.solve(dist)
        else:
            _, activation = model2.solve(dist)
            assert activation.rates.min() >= ALPHA_MIN

    def test_raw_interior_zero_raises_typed_error_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InteriorZeroGroup, match="index 1"):
                model2.solve([0.5, 0.0, 0.5])

    def test_floor_ratio_itself_is_solvable(self):
        dist = AgeDistribution(("a", "b", "c", "d"), [0.0004, 0.3, 0.4, 0.2996])
        _, activation = model2.solve(dist)
        assert activation.rates.min() == ALPHA_MIN

    def test_huge_last_group_raises_typed_error(self):
        # A hump within 1/ALPHA_MIN, and a last group 1e10 times its
        # smallest group.
        dist = normalize([1e-10, 2e-10, 1e-10, 1.0], "abcd")
        with pytest.raises(DegenerateLastGroup, match="MAX_LAST_SURVIVAL"):
            model2.solve(dist)

    def test_just_beyond_floor_ratio_raises(self):
        dist = normalize([1.0, 1000.0 * (1 + 1e-9), 1.0], "abc")
        with pytest.raises(ActivationTooSmall, match="1/ALPHA_MIN"):
            model2.solve(dist)

    @pytest.mark.parametrize("target", [[0.5, 0.3, 0.2], [0.3, 0.4, 0.3]],
                             ids=["monotone", "hump"])
    def test_a_signed_zero_pn_gives_a_positive_zero(self, target):
        survival, _ = model2.solve(target, -0.0)
        assert not np.signbit(survival.probs[-1])
        assert survival.probs.tobytes() == model2.solve(target, 0.0)[0].probs.tobytes()

    def test_an_unknown_pn_mode_is_refused(self):
        with pytest.raises(ValueError, match="^unknown free-parameter mode 'max'$"):
            model2.solve([0.5, 0.3, 0.2], "max")

    @given(positive_targets(monotone=True))
    @settings(max_examples=60, deadline=None)
    def test_monotone_target_is_model1_bit_for_bit(self, dist):
        survival, activation = model2.solve(dist)
        assert np.all(activation.rates == 1.0)
        assert survival == model1.solve(dist, "mid")

    @given(positive_targets())
    @settings(max_examples=100, deadline=None)
    def test_running_minima_are_fully_active(self, dist):
        props = dist.proportions
        try:
            _, activation = model2.solve(dist)
        except ActivationTooSmall:
            return
        rates = activation.rates
        is_min = props[:-1] == np.minimum.accumulate(props[:-1])
        assert np.all(rates[:-1][is_min] == 1.0)
        assert np.all(rates[:-1][~is_min] < 1.0)
        assert rates[-1] == 1.0


def within_reach(dist):
    """``dist``, or its nearest reachable target where ``solve`` refuses it."""
    try:
        model2.solve(dist)
    except (ActivationTooSmall, DegenerateLastGroup):
        return model2.nearest_reachable(dist)
    return dist


def activation_floor(props):
    """The least active masses m_i whose activation m_i / N_i rounds to at
    least ALPHA_MIN."""
    floor = props * ALPHA_MIN
    while (low := floor / props < ALPHA_MIN).any():
        floor[low] = np.nextafter(floor[low], np.inf)
    while (fits := np.nextafter(floor, 0.0) / props >= ALPHA_MIN).any():
        floor[fits] = np.nextafter(floor[fits], 0.0)
    return floor


def with_last_term(head, last):
    """The non-increasing path over the first n-1 groups, at least ``head``
    and the last-survival term (1 - MAX_LAST_SURVIVAL) ``last`` (as
    ``band`` rounds it), that member accepts with m_n = ``last``. Where
    that term is subnormal its rounding, and the closed form's own
    normalizing, can leave p_n's interval empty: its entry is then taken
    one float up."""
    path = np.append(np.maximum(head, last * (1.0 - MAX_LAST_SURVIVAL)), last)
    path[:-1] = np.maximum.accumulate(path[-2::-1])[::-1]
    mass = as_distribution(path).proportions
    if mass[-2] < mass[-1] and 1.0 - mass[-2] / mass[-1] > MAX_LAST_SURVIVAL:
        path[-2] = np.nextafter(path[-2], np.inf)
    return np.maximum.accumulate(path[-2::-1])[::-1]


def within_a_float(values, exact):
    """Whether each float of ``values`` lies within one ulp of its Fraction in ``exact``."""
    return all(abs(Fraction(v) - e) <= Fraction(math.ulp(v)) for v, e in zip(values.tolist(), exact))


@st.composite
def admissible_members(draw, max_size=60, unit_last=False):
    """A target within ``solve``'s reach and an active mass m of its
    family. Each of the first n-1 entries lies between the floor that its
    own and later groups set and the running minimum of the target; the
    last lies between its floor and N_n (N_n itself with ``unit_last``).
    Shares of 0 and 1, which Hypothesis draws often, put activations
    exactly at ALPHA_MIN and at 1."""
    dist = within_reach(draw(positive_targets(max_size=max_size)))
    props = dist.proportions
    floor = activation_floor(props)
    low = np.maximum.accumulate(floor[-2::-1])[::-1]
    high = np.minimum.accumulate(props[:-1])
    shares = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=props.size,
                                    max_size=props.size)))
    head = np.minimum.accumulate(np.minimum(low + shares[:-1] * (high - low), high))
    last = props[-1] if unit_last else min(
        floor[-1] + shares[-1] * (props[-1] - floor[-1]), props[-1])
    return dist, np.append(head, last)


MEMBER_TARGET = AgeDistribution(tuple("abcde"), [0.2, 0.1, 0.3, 0.25, 0.15])


class TestMember:
    """The whole solution family, one member per admissible active mass."""

    @given(admissible_members())
    @settings(max_examples=150, deadline=None)
    def test_reproduces_target_through_null_vector(self, case):
        dist, active = case
        try:
            survival, activation = model2.member(dist, active)
        except DegenerateLastGroup:
            assert active[-1] > 1e8 * active[-2]
            return
        assert activation.rates.min() >= ALPHA_MIN
        assert np.array_equal(activation.rates, active / dist.proportions)
        x = stationary_null_vector(survival.probs, activation.rates)
        assert np.abs(x - dist.proportions).max() < 1e-12
        analytic = steady_state2(survival, activation)
        assert np.abs(analytic.proportions - dist.proportions).max() < 1e-12

    @given(positive_targets(monotone=True))
    @settings(max_examples=60, deadline=None)
    def test_full_activation_on_a_monotone_target_is_model1_bit_for_bit(self, dist):
        survival, activation = model2.member(dist, dist.proportions)
        assert np.all(activation.rates == 1.0)
        assert survival == model1.solve(dist, "mid")

    @given(admissible_members(unit_last=True))
    @settings(max_examples=100, deadline=None)
    def test_no_fully_active_last_group_widens_the_pn_interval(self, case):
        # With alpha_n = 1 the lower bound is 1 - m_{n-1} / N_n, and no
        # m_{n-1} exceeds the running minimum. The bounds are taken on m
        # normalized, whose rounding may differ by an ulp or two.
        dist, active = case
        props = dist.proportions
        running = np.append(np.minimum.accumulate(props[:-1]), props[-1])
        try:
            lower = model2.feasibility(active)[0]
        except DegenerateLastGroup:  # no interval at all
            return
        assert lower >= model2.feasibility(running)[0] - 1e-15

    def test_a_last_activation_below_one_admits_a_low_pn(self):
        # Newtown's reachable target: solve's member admits p_n from
        # 0.9987 on. With m_n = m_{n-1} / (1 - 0.3) the lower bound drops
        # to 0.3, at alpha_n of about 0.0019.
        reachable = model2.nearest_reachable(normalize([0.3, 500, 1200, 900], "abcd"))
        props = reachable.proportions
        with pytest.raises(FreeParamOutOfRange, match="p_n=0.3 "):
            model2.solve(reachable, 0.3)
        head = np.minimum.accumulate(props[:-1])
        active = np.append(head, head[-1] / (1 - 0.3) * (1 - 1e-12))
        survival, activation = model2.member(reachable, active, 0.3)
        assert survival.probs[-1] == 0.3
        assert activation.rates[-1] == pytest.approx(0.0019, rel=0.01)
        assert np.abs(steady_state2(survival, activation).proportions - props).max() < 1e-15
        x = stationary_null_vector(survival.probs, activation.rates)
        assert np.abs(x - props).max() < 1e-12

    def test_a_last_activation_below_one_reaches_a_target_outside_the_band(self):
        # ``band`` holds solve's family, m_n = N_n, and this target's last
        # group lies beyond its last term (1e10 times the smallest group
        # before it), so solve refuses the target. With m_n = ALPHA_MIN N_n
        # the last term drops a thousandfold, and member reproduces it.
        dist = normalize([1e-10, 2e-10, 1e-10, 1.0], "abcd")
        props = dist.proportions
        lower, upper = model2.band(dist)
        assert (lower > upper).any()
        with pytest.raises(DegenerateLastGroup):
            model2.solve(dist)
        active = [props[0], props[0], props[2], ALPHA_MIN * props[3]]
        survival, activation = model2.member(dist, active)
        assert activation.rates[-1] == ALPHA_MIN
        assert survival.probs[-1] == pytest.approx(1 - 5e-8, abs=1e-9)
        steady = steady_state2(survival, activation).proportions
        assert np.abs(steady / props - 1).max() < 1e-15

    @pytest.mark.parametrize("active, error, message", [
        ([0.1, 0.1, 0.1, 0.1], ValueError, "shape \\(4,\\) for 5 groups"),
        ([[0.1] * 5], ValueError, "shape \\(1, 5\\) for 5 groups"),
        ([0.1, 0.1, np.nan, 0.1, 0.1], ValueError, "^activation rates must be finite$"),
        ([0.1, np.inf, 0.1, 0.1, 0.1], ValueError, "^activation rates must be finite$"),
        # m_1 / N_1 overflows: refused as not finite, with no warning.
        ([1e308, 0.1, 0.1, 0.1, 0.1], ValueError, "^activation rates must be finite$"),
        ([0.1, 0.1, 0.1, 0.0, 0.1], ActivationTooSmall,
         "^activation 0.0 at group index 3 is below the floor 0.001: "),
        ([-0.1, -0.1, -0.1, -0.1, 0.1], ActivationTooSmall,
         "^activation -0.5 at group index 0 is below the floor"),
        ([0.1, 0.05, 0.08, 0.05, 0.1], ValueError, "group index 2 rises"),
        ([0.1, 0.1, 0.1, 0.1, 0.2], ValueError,
         r"^activation rates must lie in \[ALPHA_MIN, 1\]: group index 4 has 1.333"),
        ([0.25, 0.1, 0.1, 0.1, 0.1], ValueError, "group index 0 has 1.25$"),
        # Any m_i above N_i gives a rate above 1: the division rounds up.
        ([0.1, 0.1, 0.1, 0.1, np.nextafter(0.15, 1.0)], ValueError,
         "group index 4 has 1.0000000000000002$"),
        ([0.1, 0.05, 0.05, 1e-5, 0.1], ActivationTooSmall,
         "^activation 4e-05 at group index 3 is below the floor 0.001: the group is more "
         "than 1/ALPHA_MIN = 1000 times its active mass$"),
        ([0.1, 0.1, 0.1, 0.1, 1e-4], ActivationTooSmall, "group index 4 .*1/ALPHA_MIN"),
        # m_n is 1e10 times m_{n-1}, a DegenerateLastGroup in the closed
        # form; the floor is checked first, as solve checks it.
        ([1e-12, 1e-12, 1e-12, 1e-12, 0.01], ActivationTooSmall, "group index 0 .*1/ALPHA_MIN"),
    ], ids=["short", "two-dimensional", "nan", "inf", "overflow", "zero", "negative", "rising",
            "last-exceeds", "first-exceeds", "last-exceeds-by-one-ulp", "inactive",
            "inactive-last", "inactive-before-closed-form"])
    def test_each_input_check_names_the_group(self, active, error, message):
        with pytest.raises(error, match=message):
            model2.member(MEMBER_TARGET, active)


def edge_target(logs, j):
    """Groups 10**logs, for logs in [-2, 0] so that they sit inside the band,
    with group j, once they are proportions, the smallest group before it
    over ALPHA_MIN: on the band's edge, where rounding decides ``solve``'s
    verdict."""
    values = 10.0 ** np.asarray(logs)
    values[j] = values[:j].min() / ALPHA_MIN
    props = normalize(values, default_labels(len(values))).proportions.copy()
    props[j] = props[:j].min() / ALPHA_MIN  # normalize's division moved the pair
    return AgeDistribution(default_labels(len(props)), props)


@st.composite
def unreachable_targets(draw, max_size=60):
    """Targets of 3..max_size groups spread over 11 decades, with one of:
    a front beyond 1/ALPHA_MIN of its later groups, an ``edge_target`` (its
    decades scaled to two), a last group 1e9 to 1e12 times the one before
    it, or subnormal groups (all but one)."""
    n = draw(st.integers(3, max_size))
    logs = np.array(draw(st.lists(st.floats(-11.0, 0.0), min_size=n, max_size=n)))
    values = 10.0 ** logs
    kind = draw(st.sampled_from(["front", "edge", "last", "subnormal"]))
    if kind == "edge":
        return edge_target(logs * (2.0 / 11.0), draw(st.integers(1, n - 2)))
    if kind == "front":
        front = draw(st.integers(1, n - 2))
        values[:front] = values[front:-1].max() * ALPHA_MIN * 10.0 ** draw(
            st.floats(-8.0, -0.01))
    elif kind == "last":
        values[-1] = values[-2] * 10.0 ** draw(st.floats(9.0, 12.0))
    if kind == "subnormal":
        tiny = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1, unique=True))
        rest = np.ones(n, dtype=bool)
        rest[tiny] = False
        values[rest] /= values[rest].sum()
        values[tiny] = 10.0 ** np.array(
            draw(st.lists(st.floats(-323.0, -308.0), min_size=len(tiny), max_size=len(tiny))))
        return AgeDistribution(default_labels(n), values)
    return normalize(values, default_labels(n))


@st.composite
def tied_targets(draw, max_size=60):
    """Unreachable targets that repeat a few heights, so that chain breakpoints tie."""
    n = draw(st.integers(3, max_size))
    heights = draw(st.lists(st.floats(-9.0, 0.0), min_size=1, max_size=4))
    values = 10.0 ** np.array(draw(st.lists(st.sampled_from(heights), min_size=n, max_size=n)))
    values[: draw(st.integers(1, n - 2))] *= 10.0 ** draw(st.floats(-8.0, -3.0))
    return normalize(values, default_labels(n))


def assert_projects(dist):
    """Reachable, and as near as the LP optimum to 1e-6 (8 eps / n: the margin
    lifts by 4 eps); returns the nearest reachable target."""
    reachable = model2.nearest_reachable(dist)
    model2.solve(reachable)
    mae = float(np.abs(reachable.proportions - dist.proportions).mean())
    optimum = reachable_l1_optimum(dist.proportions, max(mae, 1e-300) * len(dist))
    assert mae == pytest.approx(optimum, rel=1e-6, abs=8 * np.finfo(float).eps / len(dist))
    return reachable


class TestNearestReachable:
    @given(st.one_of(unreachable_targets(), positive_targets(max_size=60)))
    @settings(max_examples=200, deadline=None)
    def test_cascade_solves_every_target(self, dist):
        # The entry is routed, and its steady state (guarded by the
        # stationarity residual check) is the target the route solved.
        report = run_dataset([("x", dist)], SimConfig(num_agents=10, num_steps=2, burn_in=1))
        result = report.per_country["x"]
        assert result.route is not Route.FAILED, result.failure_reason
        solved = (model2.nearest_reachable(dist) if result.route is Route.NEAREST_REACHABLE
                  else dist)
        assert np.abs(result.solution.analytic.proportions - solved.proportions).max() < 1e-12

    @given(unreachable_targets())
    @settings(max_examples=200, deadline=None)
    def test_result_is_reachable(self, dist):
        reachable = model2.nearest_reachable(dist)
        assert reachable.labels == dist.labels
        survival, activation = model2.solve(reachable)
        assert activation.rates.min() >= ALPHA_MIN
        assert survival.probs[-1] <= MAX_LAST_SURVIVAL

    @given(st.one_of(unreachable_targets(), tied_targets()))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_l1_projection(self, dist):
        assert_projects(dist)

    def test_equals_the_l1_projection_on_wide_targets(self, monkeypatch):
        # The search solves a chain at each end weight and one per cutting
        # plane, 66 at its cap; it ends on its tolerance long before.
        solves, chain = [], model2._chain
        monkeypatch.setattr(model2, "_chain", lambda *args: solves.append(1) or chain(*args))
        rng = np.random.default_rng(2024)
        for _ in range(12):
            n = int(rng.integers(40, 61))
            solves.clear()
            assert_projects(normalize(10.0 ** rng.uniform(-6.0, 0.0, n), default_labels(n)))
            assert 3 <= len(solves) < 20

    @pytest.mark.parametrize("values", [
        # Many raised groups over 12 decades, bounded by different later groups.
        10.0 ** np.random.default_rng(6).uniform(-12.0, 0.0, 80),
        # The last group sets the first one's floor. Its raise, 1e-12 of the
        # mass, is paid by a cut of the last group (renormalizing a sum so
        # near 1 keeps its bits), which only the end weight's chain makes.
        [1e-5, 1e-4, 10010.0],
    ], ids=["80-groups", "last-floor"])
    def test_equals_the_l1_projection_on_pinned_targets(self, values):
        reachable = assert_projects(normalize(values, default_labels(len(values))))
        # The final floor raise is paid too: before the last division by the
        # sum, the last-floor point summed to 1 - 1.1e-16.
        assert math.fsum(reachable.proportions) == 1.0

    def test_edge_targets_sit_on_the_band_edge(self):
        # In exact rationals, the largest lower / upper ratio of the band is 1
        # to a relative 1e-12 for at least half of 200 seeded edge targets.
        rng = np.random.default_rng(0)
        near = 0
        for _ in range(200):
            n = int(rng.integers(3, 61))
            lower, upper = reachable_band(
                edge_target(rng.uniform(-2.0, 0.0, n), int(rng.integers(1, n - 1))).proportions)
            near += abs(max(map(Fraction.__truediv__, lower, upper)) - 1) <= Fraction(1, 10**12)
        assert near >= 100

    @pytest.mark.parametrize("values", [
        [1e-9, 1.0, 1e-9, 1.0, 1e-9, 1.0, 0.5, 0.5],
        [7.593201980087514e-05, 0.3565084322904177, 0.20675465632527448,
         0.3567890087029073, 0.07987197066159968],
    ], ids=["repeated-heights", "near-tie"])
    def test_equals_the_l1_projection_on_ties(self, values):
        # Equal heights put equal raise and cut breakpoints on the heap at once;
        # the second target's groups 2 and 4 differ by 8e-4 of either.
        assert_projects(normalize(values, default_labels(len(values))))

    @pytest.mark.parametrize("n", [1_001, 5_001, 20_001])
    def test_equals_the_l1_projection_on_steep_rises(self, monkeypatch, n):
        # Every group but the last is raised. The LP is out of reach at these
        # sizes, so the optimum is certified by duality instead: each solved
        # weight w gives min_T (R + w C) / (1 + w) <= min_T max(R, C), a lower
        # bound on half the least sum |y - t| (``TestChain`` checks each solve).
        solves, chain = [], model2._chain

        def spy(t, weight):
            least = chain(t, weight)
            _, rise, cut = model2._moved(t, least)
            solves.append((rise + weight * cut) / (1.0 + weight))
            return least

        monkeypatch.setattr(model2, "_chain", spy)
        dist = normalize(np.geomspace(1e-6, 1.0, n), default_labels(n))
        reachable = model2.nearest_reachable(dist)
        model2.solve(reachable)
        mae = float(np.abs(reachable.proportions - dist.proportions).mean())
        lower = float(np.ldexp(max(solves), -128)) * 2.0 / n  # the search runs times 2**128
        assert mae >= lower * (1.0 - 1e-12)
        assert mae == pytest.approx(lower, rel=1e-6, abs=8 * np.finfo(float).eps / n)
        assert len(solves) < 20  # ends on its tolerance, not its cap of 66

    @pytest.mark.parametrize("values", [
        [1.0, 1.5496e-319, 1.932550847085e-312, 9e-323],
        [1.0, 4.743e-321, 1.034504e-318, 1.93e-322, 3.44094717891891e-309],
    ], ids=["cone", "last-group"])
    def test_subnormal_floors_clear_rounding(self, values):
        # A relative margin alone is lost to rounding on subnormal floors.
        dist = AgeDistribution(default_labels(len(values)), values)
        with pytest.raises((ActivationTooSmall, DegenerateLastGroup)):
            model2.solve(dist)
        _, activation = model2.solve(model2.nearest_reachable(dist))
        assert activation.rates.min() >= ALPHA_MIN

    def test_payment_keeps_every_group_positive(self):
        # The raise under the first group's bound (1e-3) dwarfs the group
        # that bounds the most raised groups (1e-6), which would go
        # negative if it paid for all of it.
        dist = normalize([1e-9, 1.0] + [1e-12] * 10 + [1e-6, 1e-6], default_labels(14))
        reachable = model2.nearest_reachable(dist).proportions
        # The raised groups end raised, not pushed down with their payer.
        assert np.all(reachable[2:12] > dist.proportions[2:12])
        assert_projects(dist)

    def test_raises_the_front_and_lowers_the_group_that_bounds_it(self):
        # A raise of d on the first group costs the second group
        # d / (1 + ALPHA_MIN): with it the raise itself shrinks, as in the L1
        # projection, which is x_1 = ALPHA_MIN x_2.
        dist = normalize([0.01, 500.0, 499.99], "abc")
        t = dist.proportions
        reachable = model2.nearest_reachable(dist).proportions
        cut = (ALPHA_MIN * t[1] - t[0]) / (1 + ALPHA_MIN)
        assert reachable == pytest.approx([t[0] + cut, t[1] - cut, t[2]], rel=1e-12)
        assert reachable[0] / reachable[1] == pytest.approx(ALPHA_MIN, rel=1e-14)

    @pytest.mark.parametrize("values", [
        [0.5, 0.3, 0.2],
        # Refused by solve: t_1 = fl(t_0 / ALPHA_MIN), yet fl(ALPHA_MIN t_1) >
        # t_0, and both end chains give one point, an ulp raised, nothing cut.
        [0.00025008705907678905, 0.2500870590767891, 0.7496628538641341],
        # Accepted by solve, but the small weight's chain cuts t_1 by an ulp
        # where nothing is raised.
        [0.0009974938241526993, 0.9974938241526994, 0.0015086820231478607],
    ], ids=["reachable", "one-point", "free-cut"])
    def test_a_target_within_rounding_of_reach_needs_no_search(self, values):
        assert_projects(AgeDistribution(default_labels(3), values))

    def test_a_bracket_crossed_by_rounding_ends_the_search(self, monkeypatch):
        # Rounding might leave the small weight's chain cutting no more than
        # the large one's; no weight then lies between them, and the search
        # ends on the target, its floors met by the last raise alone.
        moved, raises = model2._moved, []

        def crossed(t, chain):
            y, rise, _ = moved(t, chain)
            raises.append(rise)
            return y, rise, raises[0] / 2.0

        monkeypatch.setattr(model2, "_moved", crossed)
        reachable = model2.nearest_reachable(normalize([0.01, 500.0, 499.99], "abc"))
        model2.solve(reachable)
        assert len(raises) == 2
        assert reachable.proportions[0] / reachable.proportions[1] == pytest.approx(ALPHA_MIN)

    def test_raw_vector_gets_default_labels(self):
        reachable = model2.nearest_reachable([1e-6, 0.5, 0.5 - 1e-6])
        assert reachable.labels == default_labels(3)


class TestChain:
    @given(st.one_of(unreachable_targets(max_size=13), tied_targets(max_size=13)),
           st.floats(-6.0, 2.0))
    @settings(max_examples=150, deadline=None)
    def test_reaches_the_least_weighted_cost(self, dist, log_weight):
        # w = (1 - theta) / theta for theta in (0, 1), on targets scaled to a largest
        # group of 1: the program resolves w from 1e-6 to 1e2, its cost to 1e-10.
        t, weight = dist.proportions / dist.proportions.max(), 10.0 ** log_weight
        chain = model2._chain(t, weight)
        assert np.all(chain[1:] <= chain[:-1])
        _, rise, cut = model2._moved(t, chain)
        assert rise + weight * cut == pytest.approx(reference_chain(t, weight), rel=1e-6, abs=1e-9)

    def test_takes_the_least_of_equal_chains(self):
        # A reachable target is free on every chain from its caps to its floors.
        t = np.array([0.5, 0.25, 0.25])
        assert model2._chain(t, 1.0).tolist() == [
            0.25, 0.25 * (1.0 - MAX_LAST_SURVIVAL) / ALPHA_MIN]


SUBNORMAL_STEP = Fraction(float(np.finfo(float).smallest_subnormal))


def near_an_edge(props):
    """Whether rounding may decide ``solve``'s verdict on ``props``. Its
    activation floor is judged on the rounded quotient m_j / N_j, so an
    upper edge within a relative 1e-14 of ALPHA_MIN N_j may go either way,
    and ``band`` rounds ALPHA_MIN N_j to a subnormal step. Its last term is
    judged as 1 - m_{n-1} / N_n against MAX_LAST_SURVIVAL, 1e-9 below 1 and
    spaced 1.1e-16 from its neighbours, so there the zone is a relative
    2e-7, plus two steps for masses that normalizing rounds."""
    exact = [Fraction(float(v)) for v in props]
    _, upper = reachable_band(props)
    if any(abs(u - Fraction(ALPHA_MIN) * v) <= Fraction(ALPHA_MIN) * v / 10**14 + SUBNORMAL_STEP
           for u, v in zip(upper, exact)):
        return True
    last = (1 - Fraction(MAX_LAST_SURVIVAL)) * exact[-1]
    return abs(upper[-1] - last) <= last * Fraction(2, 10**7) + 2 * SUBNORMAL_STEP


class TestBand:
    """The reachable band against exact rationals, and against ``solve``."""

    @given(st.one_of(positive_targets(), near_floor_targets(), unreachable_targets()))
    @settings(max_examples=150, deadline=None)
    def test_edges_match_exact_rationals(self, dist):
        lower, upper = model2.band(dist)
        exact_lower, exact_upper = reachable_band(dist.proportions)
        assert not (lower.flags.writeable or upper.flags.writeable)
        assert [Fraction(v) for v in upper.tolist()] == exact_upper
        assert within_a_float(lower, exact_lower)

    @given(st.one_of(positive_targets(), near_floor_targets(), unreachable_targets()))
    @settings(max_examples=300, deadline=None)
    def test_not_empty_exactly_where_solve_accepts(self, dist):
        assume(not near_an_edge(dist.proportions))
        lower, upper = model2.band(dist)
        try:
            model2.solve(dist)
        except (ActivationTooSmall, DegenerateLastGroup):
            assert (lower > upper).any()
        else:
            assert (lower <= upper).all()

    @given(st.one_of(positive_targets(), near_floor_targets(), unreachable_targets()))
    @settings(max_examples=150, deadline=None)
    def test_member_accepts_the_paths_on_both_edges(self, dist):
        dist = within_reach(dist)
        props = dist.proportions
        lower, upper = model2.band(dist)
        # band's docstring: an entry on the lower edge may leave its
        # activation an ulp under ALPHA_MIN, and is then taken one float up.
        under = lower / props[:-1] < ALPHA_MIN
        lower = with_last_term(np.where(under, np.nextafter(lower, np.inf), lower), props[-1])
        # Where the band is narrower than that float, no path sits on its lower edge.
        assume((lower <= upper).all())
        assert within_a_float(lower, reachable_band(props)[0])
        for edge in (lower, upper):
            path = np.append(edge, props[-1])
            survival, activation = model2.member(dist, path)
            assert np.array_equal(activation.rates, path / props)
            x = stationary_null_vector(survival.probs, activation.rates)
            assert np.abs(x - props).max() < 1e-12

    @given(st.one_of(positive_targets(max_size=60), near_floor_targets(max_size=60),
                     unreachable_targets()))
    @settings(max_examples=100, deadline=None)
    def test_one_float_outside_either_edge_is_refused(self, dist):
        # The upper edge is exact in floats. The lower one is judged on
        # rounded quotients, so its float edge is the least path member
        # accepts: at each group the least m_i whose activation rounds to
        # ALPHA_MIN (activation_floor), within a float of the exact edge.
        # Where the last-survival term sets group n-1's entry, it is judged
        # as 1 - m_{n-1} / N_n against MAX_LAST_SURVIVAL, whose rounding
        # zone spans a relative 1e-7 (near_an_edge): no one-float move
        # there crosses it.
        dist = within_reach(dist)
        props = dist.proportions
        upper = model2.band(dist)[1]
        own = activation_floor(props)[:-1]
        floor = with_last_term(own, props[-1])
        assume((floor <= upper).all())
        exact_lower, exact_upper = reachable_band(props)
        assert [Fraction(v) for v in upper.tolist()] == exact_upper
        assert within_a_float(floor, exact_lower)
        model2.member(dist, np.append(floor, props[-1]))
        for i in range(props.size - 1):
            above = np.append(upper, props[-1])
            above[i] = np.nextafter(above[i], np.inf)
            with pytest.raises(ValueError):
                model2.member(dist, above)
            if i == props.size - 2 and floor[i] > own[i]:
                continue
            below = np.append(floor, props[-1])
            below[i] = np.nextafter(below[i], 0.0)
            with pytest.raises((ActivationTooSmall, ValueError)):
                model2.member(dist, below)

    def test_reads_a_raw_vector_as_it_is(self):
        # nearest_reachable hands it a point that sums to 1 up to rounding.
        lower, upper = model2.band([2.0, 4.0, 1.0])
        assert upper.tolist() == [2.0, 2.0]
        assert lower.tolist() == [4.0 * ALPHA_MIN, 4.0 * ALPHA_MIN]


class TestDEConfig:
    def test_only_size_budget_and_seed_are_settable(self):
        fields = [f.name for f in dataclasses.fields(DEConfig)]
        assert fields == ["population_size", "max_iterations", "seed"]
        for knob in ("strategy", "bounds", "mutation_factor", "crossover_rate",
                     "success_threshold"):
            with pytest.raises(TypeError):
                DEConfig(**{knob: None})

    def test_field_validation(self):
        with pytest.raises(ValueError, match="at least 4"):
            DEConfig(population_size=3)
        with pytest.raises(ValueError, match="positive"):
            DEConfig(max_iterations=0)
        with pytest.raises(ValueError, match="unsigned 64-bit"):
            DEConfig(seed=-1)

    @pytest.mark.parametrize("field", ["population_size", "max_iterations"])
    def test_sizes_must_be_integers(self, field):
        # A float population size would fail inside numpy with an untyped
        # TypeError, and a float budget would round up silently.
        for bad in (40.5, 2.5, True, "40"):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                DEConfig(**{field: bad})
        assert getattr(DEConfig(**{field: np.int64(40)}), field) == 40

    def test_seed_must_be_an_integer(self):
        # A float or a string would fail later inside default_rng with an
        # untyped TypeError; a bool would be written to output files as true.
        for bad in (1.5, "3", True, None):
            with pytest.raises(ValueError, match="seed must be an integer"):
                DEConfig(seed=bad)
        with pytest.raises(ValueError, match="unsigned 64-bit"):
            DEConfig(seed=2**64)
        assert DEConfig(seed=np.int64(7)).seed == 7


class TestOptimize:
    def test_hump_target_converges(self):
        # Feasibility is witnessed by the hand solution; the search must
        # find something at least as good as the stop threshold.
        for seed in (0, 1, 2):
            sol = optimize(hump(), DEConfig(seed=seed))
            assert sol.converged
            assert sol.mae < 1e-4
            assert sol.iterations_used <= 250
            ss = steady_state2(sol.survival, sol.activation).proportions
            # The stop rule bounds the per-group error by n * mae / 2
            # (differences of two normalized vectors sum to zero).
            assert np.abs(ss - WITNESS_TARGET).max() < 1.5e-4

    def test_monotone_target_converges(self):
        # Plain-process solutions (all rates 1) lie inside the search space.
        target = AgeDistribution(("a", "b", "c"), [0.5, 0.3, 0.2])
        sol = optimize(target, DEConfig(seed=0))
        assert sol.converged and sol.mae < 1e-4

    def test_same_seed_bitwise_identical(self):
        a = optimize(hump(), DEConfig(seed=11))
        b = optimize(hump(), DEConfig(seed=11))
        assert np.array_equal(a.survival.probs, b.survival.probs)
        assert np.array_equal(a.activation.rates, b.activation.rates)
        assert a.mae == b.mae
        assert a.iterations_used == b.iterations_used
        assert a.converged == b.converged

    def test_best_error_never_increases(self, monkeypatch):
        monkeypatch.setattr(model2, "SUCCESS_THRESHOLD", 1e-9)
        history = optimize(hump(), DEConfig(seed=5, max_iterations=60)).history
        assert all(b <= a + 0.0 for a, b in zip(history, history[1:]))

    def test_all_candidates_respect_bounds(self, split, monkeypatch):
        split(1)
        monkeypatch.setattr(model2, "SUCCESS_THRESHOLD", 1e-9)
        target = hump()
        bounds = default_bounds(len(target))
        # One share: one tile of 90 rows, then 23 tiles of 3-4 rows.
        for tile_rows, tiles in ((None, 1), (4, 23)):
            with monkeypatch.context() as patch:
                if tile_rows:
                    patch.setattr(model2, "TILE_ENTRIES", 6 * tile_rows)
                generations = scoring_log(patch)
                optimize(target, DEConfig(seed=2, max_iterations=40))
            assert len(generations) == 41  # initialisation + 40 generations
            for calls in generations:
                assert len(calls) == tiles
                assert sorted(row for _, rows, _ in calls for row in rows) == list(range(90))
                for _, _, batch in calls:
                    assert np.all(batch >= bounds[:, 0])
                    assert np.all(batch <= bounds[:, 1])

    def test_non_convergence_reported_not_raised(self):
        sol = optimize(hump(), DEConfig(seed=0, max_iterations=1))
        assert not sol.converged
        assert sol.mae >= 1e-4
        assert sol.iterations_used == 1

    def test_reported_mae_matches_steady_state(self):
        sol = optimize(hump(), DEConfig(seed=4))
        ss = steady_state2(sol.survival, sol.activation).proportions
        assert sol.mae == pytest.approx(
            np.abs(ss - WITNESS_TARGET).mean(), abs=1e-15
        )

    def test_non_finite_scores_count_as_infinite(self, monkeypatch):
        # One NaN row at initialisation used to stop the search at
        # iteration 0 with mae=nan; it must lose selection instead.
        base = mae_objective(hump())
        calls = []

        def poisoned(candidates, scratch=None):
            scores = base(candidates, scratch)
            if not calls:
                scores[0] = np.nan
                scores[1] = np.inf
            calls.append(1)
            return scores

        monkeypatch.setattr(model2, "mae_objective", lambda t: poisoned)
        sol = optimize(hump(), DEConfig(seed=0))
        assert sol.iterations_used > 0
        assert np.isfinite(sol.mae) and sol.converged
        assert all(np.isfinite(h) for h in sol.history)

    def test_all_non_finite_scores_run_the_full_budget(self, monkeypatch):
        monkeypatch.setattr(model2, "mae_objective",
                            lambda t: lambda c, scratch=None: np.full(len(c), np.nan))
        sol = optimize(hump(), DEConfig(seed=0, max_iterations=3))
        assert sol.iterations_used == 3
        assert sol.mae == np.inf and not sol.converged


def hump_target(n):
    x = np.linspace(0.0, 1.0, n)
    values = np.exp(-(((x - 0.3) / 0.25) ** 2)) + 0.2 * (1.0 - x) + 0.05
    return AgeDistribution(tuple(f"g{i}" for i in range(n)), values / values.sum())


def coarse_error(target):
    """Error rounded up to 0.01 steps: never zero, full of ties, so the
    selection rule's handling of equal scores shows."""
    evaluate = reference_mae_objective(target.proportions)

    def score(candidates, scratch=None):
        return np.ceil(evaluate(candidates) * 100.0) / 100.0

    return score


class TestMatchesReferenceLoop:
    """The in-place search reproduces the allocating loop bit for bit."""

    @pytest.mark.parametrize(
        "n, config",
        [
            (3, DEConfig(seed=3)),
            (3, DEConfig(seed=1, max_iterations=60)),
            (21, DEConfig(seed=0, max_iterations=40)),
            (21, DEConfig(seed=7, max_iterations=30)),
            (41, DEConfig(seed=2, max_iterations=12)),
            (101, DEConfig(seed=1, max_iterations=3)),
            (101, DEConfig(seed=2, max_iterations=2)),
            (101, DEConfig(seed=3, max_iterations=25)),
            (5, DEConfig(seed=4, population_size=9, max_iterations=80)),
            (5, DEConfig(seed=5, max_iterations=80)),
            (21, DEConfig(seed=6, population_size=50, max_iterations=50)),
            # The smallest populations: generations in which every trial
            # wins, and in which every trial loses.
            (3, DEConfig(seed=3, population_size=4, max_iterations=60)),
            (3, DEConfig(seed=28, population_size=5, max_iterations=60)),
        ],
        ids=["n3", "n3-seed1", "n21", "n21-seed7", "n41", "n101", "n101-seed2",
             "n101-seed3", "own-population", "n5", "n21-own-population",
             "n3-population-4", "n3-population-5"],
    )
    def test_bitwise_equal(self, n, config):
        target = hump_target(n)
        sol = optimize(target, config)
        probs, rates, mae, iterations = reference_optimize(target.proportions, config)
        assert np.array_equal(sol.survival.probs, probs)
        assert np.array_equal(sol.activation.rates, rates)
        assert sol.mae == mae
        assert sol.iterations_used == iterations

    def test_bitwise_equal_with_hooks(self, monkeypatch):
        # Coarse errors never fall below 0.01: the full budget runs.
        target = hump_target(8)
        config = DEConfig(seed=9, max_iterations=70)
        theirs = []
        monkeypatch.setattr(model2, "mae_objective", lambda t: coarse_error(target))
        sol = optimize(target, config)
        ours = list(sol.history)
        probs, rates, mae, iterations = reference_optimize(
            target.proportions, config, objective=coarse_error(target), history=theirs)
        assert ours == theirs
        assert len(ours) == iterations + 1 == config.max_iterations + 1
        assert np.array_equal(sol.survival.probs, probs)
        assert np.array_equal(sol.activation.rates, rates)
        assert (sol.mae, sol.iterations_used) == (mae, iterations)

    def test_bitwise_equal_with_constant_scores(self, monkeypatch):
        # Every trial ties its parent, so every row takes its trial.
        target = hump_target(8)
        config = DEConfig(seed=9, max_iterations=40)
        constant = lambda candidates, scratch=None: np.full(len(candidates), 0.5)
        monkeypatch.setattr(model2, "mae_objective", lambda t: constant)
        sol = optimize(target, config)
        probs, rates, mae, iterations = reference_optimize(
            target.proportions, config, objective=constant)
        assert sol.history == (0.5,) * (config.max_iterations + 1)
        assert np.array_equal(sol.survival.probs, probs)
        assert np.array_equal(sol.activation.rates, rates)
        assert (sol.mae, sol.iterations_used) == (mae, iterations)


class TestObjective:
    def test_matches_reference_across_row_counts(self):
        target = hump_target(7)
        ours = mae_objective(target)
        theirs = reference_mae_objective(target.proportions)
        rng = np.random.default_rng(0)
        bounds = default_bounds(7)
        first = None
        for m in (6, 3, 6, 1, 9, 2):
            x = rng.uniform(bounds[:, 0], bounds[:, 1], size=(m, 14))
            got = ours(x)
            assert np.array_equal(got, theirs(x))
            if first is None:
                first, kept = got, got.copy()
        # Results are fresh arrays, untouched by later calls.
        assert np.array_equal(first, kept)
        assert ours(x[0]).shape == (1,)

    @pytest.mark.parametrize("rows, columns", [(9, 14), (12, 14), (1, 200)],
                             ids=["tile", "taller", "flat"])
    def test_scratch_gives_the_allocating_result(self, rows, columns):
        # Any contiguous scratch of enough entries, whatever it held: the
        # search hands a tile's (m, 2n) uniforms, or a taller tile's.
        target = hump_target(7)
        evaluate = mae_objective(target)
        theirs = reference_mae_objective(target.proportions)
        bounds = default_bounds(7)
        rng = np.random.default_rng(1)
        scratch = np.full((rows, columns), np.nan)
        for m in (9, 1, 5):
            x = rng.uniform(bounds[:, 0], bounds[:, 1], size=(m, 14))
            got = evaluate(x, scratch)
            assert np.array_equal(got, theirs(x))
            assert np.array_equal(got, evaluate(x))
            assert not np.shares_memory(got, scratch)


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-3, 0.5,
           1.0 - 1e-9, 1.0, -1.0, 3.0, -3.0, 1e300, -1e300, np.nan, -np.nan]
EDGES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-3, 0.5, 1.0 - 1e-9, 1.0]


@st.composite
def reflection_cases(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(2, 40))
    edge = st.sampled_from(EDGES) | st.floats(0.0, 1.0)
    lo, hi = np.empty(cols), np.empty(cols)
    for j in range(cols):
        a, b = draw(edge), draw(edge)
        lo[j], hi[j] = (a, b) if a <= b else (b, a)
    value = (st.sampled_from(SPECIAL + ["lo", "hi"])
             | st.floats(-4.0, 4.0) | st.floats(-1e-300, 1e-300))
    x = np.empty((rows, cols))
    for i in range(rows):
        for j in range(cols):
            v = draw(value)
            x[i, j] = lo[j] if v == "lo" else hi[j] if v == "hi" else v
    return x, lo, hi


def test_reflection_equals_where_form_on_every_edge_pair():
    # Every value against every bound pair, as one row and as two rows of
    # half as many columns: the search hands over tiles of 2n columns.
    for a in EDGES:
        for b in EDGES:
            if a > b:
                continue
            x = np.array(SPECIAL + [a, b, np.nextafter(a, -1), np.nextafter(b, 2)])
            for shape in ((1, x.size), (2, x.size // 2)):
                cols = shape[1]
                lo, hi = np.full(cols, a), np.full(cols, b)
                xs = x.reshape(shape)
                expected = reference_bounce_back(xs, lo, hi)
                got = xs.copy()
                _bounce_back(got, lo, hi, np.empty_like(got), (2 * lo, 2 * hi))
                same = np.array_equal(got.view(np.uint64), expected.view(np.uint64))
                assert same, (a, b, shape)


@given(reflection_cases())
@settings(max_examples=300, deadline=None)
def test_reflection_equals_where_form_bitwise(case):
    x, lo, hi = case
    expected = reference_bounce_back(x, lo, hi)
    got = x.copy()
    _bounce_back(got, lo, hi, np.empty_like(got), (2 * lo, 2 * hi))
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_the_final_clamp_lifts_a_reflection_that_rounds_past_the_far_bound():
    # uniform(*MUTATION_RANGE) draws 0.5 + 0.5 u, which rounds to 1.0 at
    # u = 1 - 2**-53. A mutant built as the search builds it from base =
    # r1 = hi and r2 = lo is fl(hi + fl(hi - lo)): in a survival column it
    # reflects off hi exactly onto 0, in an activation column to just below
    # ALPHA_MIN, where only the clamp lifts it back.
    low, high = model2.MUTATION_RANGE
    factor = low + (high - low) * (1.0 - 2.0**-53)
    assert factor == 1.0
    lo, hi = default_bounds(3).T.copy()
    out, gather = hi[None].copy(), lo[None].copy()
    np.subtract(out, gather, out=out)
    np.multiply(out, factor, out=out)
    np.add(out, hi, out=out)
    reflected = 2 * hi - out
    assert np.all(reflected[0, :3] == 0.0) and np.all(reflected[0, 3:] < ALPHA_MIN)
    expected = reference_bounce_back(out, lo, hi)
    _bounce_back(out, lo, hi, gather, (2 * lo, 2 * hi))
    clamped = np.concatenate([np.zeros(3), np.full(3, ALPHA_MIN)])
    assert np.array_equal(out[0].view(np.uint64), clamped.view(np.uint64))
    assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("groups", [3, 21, 101])
def test_the_search_reflects_only_tiles_of_its_2n_columns(monkeypatch, groups):
    # The final clamp equals np.clip only where the bounds vary along
    # numpy's inner loop, which a tile's 2n >= 6 columns guarantee.
    shapes = []

    def recording(x, *args):
        shapes.append(x.shape)
        _bounce_back(x, *args)

    monkeypatch.setattr(model2, "_bounce_back", recording)
    optimize(hump_target(groups), DEConfig(max_iterations=2, seed=3))
    assert shapes and all(len(shape) == 2 and shape[1] == 2 * groups for shape in shapes)


def scoring_log(monkeypatch):
    """Record every scorer call of later searches, one list per generation
    (initialisation first): the calling thread, the rows of the population
    buffer it scores, and a copy of the candidates."""
    generations = [[]]
    make, pairs = model2.mae_objective, model2._distinct_pairs

    def recording(target):
        evaluate = make(target)

        def score(candidates, scratch=None):
            buffer = candidates.base
            first = (candidates.ctypes.data - buffer.ctypes.data) // candidates.strides[0]
            generations[-1].append((threading.get_ident(), range(first, first + len(candidates)),
                                    np.array(candidates, copy=True)))
            return evaluate(candidates, scratch)

        return score

    def next_generation(rng, m):
        generations.append([])
        return pairs(rng, m)

    monkeypatch.setattr(model2, "mae_objective", recording)
    monkeypatch.setattr(model2, "_distinct_pairs", next_generation)
    return generations


TILE_CASES = [
    (21, DEConfig(seed=0, max_iterations=25), 8),
    (21, DEConfig(seed=6, population_size=11, max_iterations=40), 2),
    (101, DEConfig(seed=3, max_iterations=3), 37),
    (101, DEConfig(seed=3, population_size=10, max_iterations=30), 4),
]
TILE_IDS = ["n21-8-rows", "n21-own-population-2-rows", "n101-37-rows",
            "n101-own-population-4-rows"]


class TestTiles:
    """Each share builds, scores and selects its rows in tiles of at most
    TILE_ENTRIES entries; results do not depend on the tile size."""

    @pytest.mark.parametrize("count", [1, 2, 3])
    @pytest.mark.parametrize("n, config, rows", TILE_CASES, ids=TILE_IDS)
    def test_bitwise_equal_to_reference(self, split, monkeypatch, n, config, rows, count):
        split(count)
        monkeypatch.setattr(model2, "TILE_ENTRIES", 2 * n * rows + 1)
        generations = scoring_log(monkeypatch)
        target = hump_target(n)
        sol = optimize(target, config)
        history = []
        probs, rates, mae, iterations = reference_optimize(
            target.proportions, config, history=history)
        assert sol.history == tuple(history)
        assert np.array_equal(sol.survival.probs, probs)
        assert np.array_equal(sol.activation.rates, rates)
        assert (sol.mae, sol.iterations_used) == (mae, iterations)
        # Tiles of at most ``rows`` rows, some shorter than others.
        sizes = {len(tile) for calls in generations for _, tile, _ in calls}
        assert max(sizes) <= rows and len(sizes) == 2

    @pytest.mark.parametrize("start, stop, height", [
        (0, 1515, 371), (1515, 3030, 371), (0, 3030, 371), (0, 7, 3), (5, 6, 4),
        (0, 630, 1785), (3, 13, 5), (0, 11, 1)])
    def test_tiles_cover_the_rows_in_order(self, start, stop, height):
        tiles = model2._tiles(slice(start, stop), height)
        assert tiles[0].start == start and tiles[-1].stop == stop
        assert all(a.stop == b.start for a, b in zip(tiles, tiles[1:]))
        sizes = [tile.stop - tile.start for tile in tiles]
        assert len(tiles) == -(-(stop - start) // height)
        assert max(sizes) <= height and min(sizes) >= max(sizes) - 1

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_two_population_buffers(self, monkeypatch, cpus):
        # Parents and trial rows; tile scratch, row indices and scores stay
        # under three quarters of a third buffer. Share-sized scratch read
        # about 4.2x, a separate objective scratch per share 2.4-3.2x.
        monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
        target, config = hump_target(101), DEConfig(seed=1, max_iterations=3)
        optimize(target, config)  # first-call allocations of numpy itself
        tracemalloc.start()
        try:
            optimize(target, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.75 * (3030 * 202 * 8)


