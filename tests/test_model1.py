import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agedist import distributions, normalize
from agedist.distributions import MAX_LAST_SURVIVAL, AgeDistribution
from agedist.errors import (
    DegenerateLastGroup,
    FreeParamOutOfRange,
    InteriorZeroGroup,
    NotModel1Eligible,
    ResidualCheckFailed,
)
from agedist.model1 import solve, steady_state
from agedist.model2 import feasibility

from oracles import expected_update_plain, fixed_point


def dist(values):
    values = np.asarray(values, dtype=float)
    return AgeDistribution(tuple(f"g{i}" for i in range(values.size)), values)


@st.composite
def monotone_distributions(draw, max_size=25):
    counts = draw(st.lists(st.integers(1, 10_000), min_size=3, max_size=max_size))
    counts = sorted(counts, reverse=True)
    return normalize(counts, [f"g{i}" for i in range(len(counts))])


@st.composite
def monotone_with_feasible_pn(draw, max_size=25):
    d = draw(monotone_distributions(max_size=max_size))
    lower, upper = feasibility(d)
    fraction = draw(st.floats(0.0, 1.0, allow_nan=False))
    pn = lower + fraction * (upper - lower)
    return d, pn


class TestFeasibility:
    def test_negative_lower_bound_clamps_to_zero(self):
        interval = feasibility(dist([0.5, 0.3, 0.2]))
        assert type(interval) is tuple and len(interval) == 2
        lower, upper = interval
        assert lower == 0.0  # 1 - 0.3/0.2 = -0.5 clamps
        assert upper == MAX_LAST_SURVIVAL

    def test_equal_tail_groups_give_zero_lower_bound(self):
        lower, _ = feasibility(dist([0.4, 0.3, 0.3]))
        assert lower == 0.0  # 1 - 0.3/0.3

    def test_growing_tail_gives_positive_lower_bound(self):
        lower, upper = feasibility(dist([0.5, 0.2, 0.3]))
        assert lower == pytest.approx(1.0 - 0.2 / 0.3)
        # Python floats, which the out-of-range message prints plainly.
        assert type(lower) is type(upper) is float

    def test_subnormal_last_group_gives_zero_lower_bound(self):
        values = np.array([0.6, 0.4, 5e-321])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lower, _ = feasibility(dist(values / values.sum()))
        assert lower == 0.0

    @pytest.mark.parametrize("entry", [feasibility, solve])
    def test_raw_interior_zero_raises_typed_error(self, entry):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InteriorZeroGroup, match="index 1"):
                entry([0.5, 0.0, 0.0, 0.5])

    @pytest.mark.parametrize("entry", [feasibility, solve])
    def test_huge_last_group_raises_typed_error(self, entry):
        # The last group is 1e10 times the one before it: the lower bound
        # 1 - 1e-10 lies above MAX_LAST_SURVIVAL. The message gives the
        # ratio's value and the survival it would need, in full.
        message = ("last group is more than 1/(1 - MAX_LAST_SURVIVAL) = 1e+09 times the one "
                   "before it (its survival would be at least 0.9999999999)")
        with pytest.raises(DegenerateLastGroup, match=f"^{re.escape(message)}$"):
            entry(normalize([1, 0.5, 1e-10, 1], "abcd"))

    def test_degenerate_last_group_message_prints_a_plain_float(self):
        # The ratio 2e-20 leaves a lower bound that rounds to 1.
        with pytest.raises(DegenerateLastGroup) as caught:
            solve([0.5, 1e-20, 0.5], "mid")
        assert str(caught.value).endswith("(its survival would be at least 1.0)")
        assert "np.float64" not in str(caught.value)

    def test_last_group_at_the_limit_is_feasible(self):
        lower, upper = feasibility(
            normalize([1, 0.5, 1e-9, 1e-9 / (1 - MAX_LAST_SURVIVAL)], "abcd"))
        assert lower <= upper == MAX_LAST_SURVIVAL

    def test_infeasible_lists_offending_indices(self):
        # Group 1 (0-based) exceeds group 0.
        with pytest.raises(NotModel1Eligible, match=r"indices \[1\]"):
            feasibility(dist([0.3, 0.4, 0.3]))


class TestSolve:
    def test_three_group_example(self):
        sv = solve(dist([0.5, 0.3, 0.2]), 0.4)
        assert np.allclose(sv.probs, [0.6, 0.4, 0.4], atol=1e-15)

    def test_uniform_example(self):
        sv = solve(dist([0.25, 0.25, 0.25, 0.25]), 0.5)
        assert np.allclose(sv.probs, [1.0, 1.0, 0.5, 0.5], atol=1e-15)

    def test_non_monotone_rejected(self):
        with pytest.raises(NotModel1Eligible):
            solve(dist([0.3, 0.4, 0.3]), 0.5)

    def test_out_of_range_free_param_rejected(self):
        with pytest.raises(FreeParamOutOfRange):
            solve(dist([0.5, 0.2, 0.3]), 0.1)  # lower bound is 1/3

    @pytest.mark.parametrize("p_n", [False, True, np.False_, np.True_],
                             ids=["False", "True", "numpy-False", "numpy-True"])
    def test_bool_free_param_rejected(self, p_n):
        # As every integer field refuses a bool: False would solve as a last
        # survival of 0, recorded as an explicit choice.
        with pytest.raises(ValueError, match=re.escape(
                f"free parameter must be a number, 'mid' or 'rand', not {p_n!r}")):
            solve(dist([0.5, 0.3, 0.2]), p_n)

    def test_midpoint_default(self):
        d = dist([0.5, 0.3, 0.2])
        sv = solve(d)
        lower, upper = feasibility(d)
        assert sv.probs[-1] == 0.5 * (lower + upper)

    def test_seeded_random_mode(self):
        d = dist([0.5, 0.3, 0.2])
        a = solve(d, "rand", seed=123)
        b = solve(d, "rand", seed=123)
        assert a == b
        lower, upper = feasibility(d)
        assert lower <= a.probs[-1] <= upper
        with pytest.raises(ValueError):
            solve(d, "rand")

    @pytest.mark.parametrize("values", [[0.5, 0.3, 0.2], [0.5, 0.2, 0.3]],
                             ids=["clamped-lower", "positive-lower"])
    def test_each_end_of_the_interval_is_the_last_survival(self, values):
        d = dist(values)
        for end in feasibility(d):
            assert solve(d, end).probs[-1] == end

    @pytest.mark.parametrize("values", [[0.5, 0.3, 0.2], [0.5, 0.2, 0.3]],
                             ids=["clamped-lower", "positive-lower"])
    def test_one_float_outside_either_end_is_refused(self, values):
        d = dist(values)
        lower, upper = feasibility(d)
        for outside in (np.nextafter(lower, -np.inf), np.nextafter(upper, np.inf)):
            message = f"p_n={float(outside)!r} outside [{lower!r}, {upper!r}]"
            with pytest.raises(FreeParamOutOfRange, match=f"^{re.escape(message)}$"):
                solve(d, outside)

    @given(monotone_with_feasible_pn())
    @settings(max_examples=100)
    def test_every_entry_is_a_probability(self, case):
        d, pn = case
        sv = solve(d, pn)
        assert np.all(sv.probs >= 0.0)
        assert np.all(sv.probs <= 1.0)


class TestSteadyState:
    def test_inverse_of_solve_example(self):
        # Frozen via the expected-update fixed-point oracle.
        ss = steady_state([0.6, 0.4, 0.4])
        assert np.allclose(ss.proportions, [0.5, 0.3, 0.2], atol=1e-12)

    def test_uniform_example(self):
        ss = steady_state([1.0, 1.0, 0.5, 0.5])
        assert np.allclose(ss.proportions, [0.25, 0.25, 0.25, 0.25], atol=1e-12)

    def test_degenerate_last_group(self):
        with pytest.raises(DegenerateLastGroup):
            steady_state([0.5, 1.0])
        with pytest.raises(DegenerateLastGroup):
            steady_state([0.5, 0.4, 1.0])

    def test_zero_intermediate_survival_empties_later_groups(self):
        with pytest.raises(InteriorZeroGroup):
            steady_state([0.5, 0.0, 0.5, 0.5])

    def test_labels_attach(self):
        ss = steady_state([0.6, 0.4, 0.4], labels=("a", "b", "c"))
        assert ss.labels == ("a", "b", "c")

    def test_residual_guard_raises_typed_error(self, monkeypatch):
        monkeypatch.setattr(distributions, "RESIDUAL_TOLERANCE", 0.0)
        with pytest.raises(ResidualCheckFailed, match="residual"):
            steady_state([0.6, 0.4, 0.4])


class TestRoundTripProperties:
    @given(monotone_with_feasible_pn())
    @settings(max_examples=150)
    def test_round_trip(self, case):
        d, pn = case
        ss = steady_state(solve(d, pn), labels=d.labels)
        assert np.abs(ss.proportions - d.proportions).max() < 1e-12

    @given(monotone_distributions())
    @settings(max_examples=60)
    def test_free_param_invariance(self, d):
        lower, upper = feasibility(d)
        lo = lower + 0.1 * (upper - lower)
        hi = lower + 0.9 * (upper - lower)
        a = steady_state(solve(d, lo))
        b = steady_state(solve(d, hi))
        assert np.abs(a.proportions - b.proportions).max() < 1e-12
        # Only the compensating entry differs between the vectors.
        pa, pb = solve(d, lo).probs, solve(d, hi).probs
        assert np.array_equal(pa[: -2], pb[: -2])

    @given(monotone_with_feasible_pn(max_size=15))
    @settings(max_examples=60)
    def test_steady_state_is_fixed_point_of_expected_update(self, case):
        d, pn = case
        sv = solve(d, pn)
        ss = steady_state(sv).proportions
        stepped = expected_update_plain(ss, sv.probs)
        assert np.abs(stepped - ss).max() < 1e-12

    def test_oracle_agreement_from_scratch(self):
        probs = [0.73, 0.41, 0.88, 0.66, 0.3]
        ours = steady_state(probs).proportions
        theirs = fixed_point(lambda x: expected_update_plain(x, probs), 5)
        assert np.abs(ours - theirs).max() < 1e-12

    @given(st.lists(st.integers(1, 9_999), min_size=3, max_size=15),
           st.integers(2, 1000))
    @settings(max_examples=60)
    def test_scale_invariance_is_exact_for_integer_counts(self, counts, factor):
        counts = sorted(counts, reverse=True)
        labels = [str(i) for i in range(len(counts))]
        a = solve(normalize(counts, labels), "mid")
        b = solve(normalize(np.asarray(counts, dtype=float) * factor, labels), "mid")
        # Integer scaling keeps every quotient the same real number, so the
        # correctly rounded results match bit for bit.
        assert np.array_equal(a.probs, b.probs)
