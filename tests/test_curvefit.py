import importlib.util
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agedist import curvefit, fit, normalize
from agedist.curvefit import CurveParams, curve_values
from agedist.distributions import (
    AgeDistribution, Classification, as_distribution, classify, default_labels)
from agedist.errors import InteriorZeroGroup
from agedist.model2 import feasibility

from oracles import reference_fit


def curve_distribution(plateau, scale, shape, breakpoint, n):
    params = CurveParams(plateau, scale, shape, breakpoint)
    values = curve_values(params, n)
    labels = tuple(f"g{i}" for i in range(1, n + 1))
    return AgeDistribution(labels, values / values.sum())


class TestEvalCurve:
    # curve_values works on log-parameters, so the plateau height comes
    # back as exp(log(0.1)), within one ulp of 0.1.
    def test_plateau_branch(self):
        values = curve_values(CurveParams(0.1, 0.05, 2.0, 3), 5)
        assert values[0] == values[1]
        assert abs(values[1] - 0.1) <= math.ulp(0.1)

    def test_breakpoint_itself_is_plateau_height(self):
        values = curve_values(CurveParams(0.1, 0.05, 2.0, 3), 5)
        assert values[2] == values[1]

    def test_decay_branch(self):
        # 0.1 * exp(-0.05 * (5-3)^2) = 0.1 * exp(-0.2)
        expected = 0.1 * math.exp(-0.2)
        assert curve_values(CurveParams(0.1, 0.05, 2.0, 3), 5)[4] == pytest.approx(
            expected, abs=1e-17
        )
        assert expected == pytest.approx(0.0818730753077982, abs=1e-16)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            CurveParams(0.0, 0.05, 2.0, 3)
        with pytest.raises(ValueError):
            CurveParams(0.1, -0.5, 2.0, 3)
        with pytest.raises(ValueError):
            CurveParams(0.1, 0.5, 2.0, 0)

    @given(
        st.floats(1e-3, 10.0, allow_nan=False),
        st.floats(1e-3, 3.0, allow_nan=False),
        st.floats(0.1, 4.0, allow_nan=False),
        st.integers(1, 12),
        st.integers(3, 12),
    )
    @settings(max_examples=150)
    def test_non_increasing_on_integer_grid(self, a, b, c, k, n):
        values = curve_values(CurveParams(a, b, c, k), n)
        assert np.all(np.diff(values) <= 1e-15 * a)


class TestFit:
    def test_recovers_generated_curve(self):
        dist = curve_distribution(0.1, 0.05, 2.0, 3, 8)
        result = fit(dist)
        assert result.params.breakpoint == 3
        assert result.wasserstein_to_original < 1e-6
        # Scale is absorbed by normalization; decay parameters recover.
        assert result.params.decay_scale == pytest.approx(0.05, rel=1e-4)
        assert result.params.decay_shape == pytest.approx(2.0, rel=1e-4)

    def test_constant_distribution_fits_exactly(self):
        dist = AgeDistribution(tuple("abcde"), [0.2] * 5)
        result = fit(dist)
        assert result.wasserstein_to_original == 0.0
        assert np.allclose(result.fitted.proportions, 0.2, atol=1e-15)

    def test_selected_row_minimises_wasserstein(self):
        dist = curve_distribution(0.2, 0.3, 1.5, 4, 10)
        result = fit(dist)
        finite = [row for row in result.per_k_table if np.isfinite(row[2])]
        best_distance = min(row[2] for row in finite)
        assert result.wasserstein_to_original == best_distance
        # Ties break toward the smallest breakpoint.
        winners = [row[0] for row in finite if row[2] == best_distance]
        assert result.params.breakpoint == winners[0]

    def test_per_k_table_covers_every_breakpoint(self):
        dist = curve_distribution(0.1, 0.2, 1.0, 2, 6)
        result = fit(dist)
        assert [row[0] for row in result.per_k_table] == list(range(1, 7))

    def test_normalization_invariance(self):
        counts = np.array([500.0, 480.0, 460.0, 300.0, 150.0, 60.0, 20.0])
        labels = [f"g{i}" for i in range(7)]
        a = fit(normalize(counts, labels))
        b = fit(normalize(counts * 37.0, labels))
        assert a.params.breakpoint == b.params.breakpoint
        assert np.abs(a.fitted.proportions - b.fitted.proportions).max() < 1e-12

    @given(st.lists(st.integers(1, 10_000), min_size=3, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_fitted_is_always_closed_form_eligible(self, counts):
        dist = normalize(counts, [f"g{i}" for i in range(len(counts))])
        result = fit(dist)
        assert classify(result.fitted) is Classification.MONOTONE_NON_INCREASING
        lower, upper = feasibility(result.fitted)
        assert type(lower) is type(upper) is float and 0.0 <= lower <= upper

    @given(st.lists(st.floats(-150.0, 150.0), min_size=3, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_the_plateau_only_breakpoint_always_fits(self, exponents):
        # At k = n the decay columns of the Jacobian are zero, so the fit
        # converges and normalizes to the uniform 1/n: fit always returns.
        dist = as_distribution(10.0 ** np.array(exponents))
        k, sse, distance = fit(dist).per_k_table[-1]
        assert k == len(dist)
        assert math.isfinite(sse) and math.isfinite(distance)

    def test_hump_still_yields_monotone_surrogate(self):
        dist = AgeDistribution(tuple("abcd"), [0.2, 0.35, 0.3, 0.15])
        result = fit(dist)
        assert classify(result.fitted) is Classification.MONOTONE_NON_INCREASING
        assert result.wasserstein_to_original > 0


class TestRawVectors:
    """``fit`` takes raw proportion vectors as the solvers do."""

    def test_raw_vector_fits_like_its_distribution(self):
        values = [0.2, 0.3, 0.25, 0.15, 0.1]
        raw = fit(values)
        dist = fit(normalize(values, ("a", "b", "c", "d", "e")))
        assert raw.params == dist.params
        assert np.array_equal(raw.fitted.proportions, dist.fitted.proportions)
        assert raw.wasserstein_to_original == dist.wasserstein_to_original
        assert raw.per_k_table == dist.per_k_table

    def test_raw_vector_gets_default_labels(self):
        assert fit(np.array([0.2, 0.3, 0.25, 0.15, 0.1])).fitted.labels == (
            "g1", "g2", "g3", "g4", "g5")

    @pytest.mark.parametrize("entry", [[0.5, 0.0, 0.5], [0.4, 0.0, 0.0, 0.6]])
    def test_raw_interior_zero_raises_typed_error_without_warning(self, entry):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InteriorZeroGroup):
                fit(entry)


def bench_generator():
    """``bench/gen.py``, which makes the benchmark's inputs with numpy alone."""
    path = Path(__file__).resolve().parent.parent / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def log_normal_target(seed, sigma, n):
    values = np.exp(np.random.default_rng(seed).normal(0.0, sigma, n))
    return normalize(values, default_labels(n))


def assert_matches_reference(dist):
    result = fit(dist)
    # The reference lets an overflowing sse warn; its floats are the same.
    with np.errstate(over="ignore"):
        expected = reference_fit(dist)
    assert result.params == expected.params
    assert np.array_equal(result.fitted.proportions.view(np.uint64),
                          expected.fitted.proportions.view(np.uint64))
    assert result.fitted.labels == expected.fitted.labels
    assert result.per_k_table == expected.per_k_table
    assert result.residual_sse == expected.residual_sse
    assert result.wasserstein_to_original == expected.wasserstein_to_original
    return result


class TestMatchesReferenceFit:
    """The batched least squares gives the breakpoint-at-a-time fit bit for
    bit: parameters, fitted proportions and the whole per-breakpoint table."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_bench_fine_grid_targets(self, seed):
        gen = bench_generator()
        for raw in gen.fine_grid_targets(seed, 2):
            result = assert_matches_reference(normalize(raw, gen.FINE_LABELS))
            assert len(result.per_k_table) == gen.FINE_GROUPS

    @given(st.integers(3, 60), st.sampled_from([0.3, 2.0, 8.0]), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_targets(self, n, sigma, seed):
        # Sigma 8 spans hundreds of orders of magnitude between groups.
        assert_matches_reference(log_normal_target(seed, sigma, n))

    def test_failed_breakpoints(self):
        result = assert_matches_reference(log_normal_target(79, 8.0, 12))
        sse, distance = np.array([row[1:] for row in result.per_k_table]).T
        # Inner fits out of budget, and curves that underflow to empty groups.
        assert np.isinf(sse).sum() == 2
        assert (np.isfinite(sse) & np.isinf(distance)).sum() == 2

    def test_overflowing_sse_is_rejected_without_warning(self):
        dist = log_normal_target(75, 8.0, 12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_matches_reference(dist)
        with pytest.warns(RuntimeWarning, match="overflow"):
            reference_fit(dist)

    def test_singular_systems_fall_back_row_by_row(self, monkeypatch):
        # Every system whose first entry has its low mantissa bits set a
        # given way is singular: the batched fit's LU screen gives it sign
        # 0, and the reference's single solve raises on it.
        slogdet, solve = np.linalg.slogdet, np.linalg.solve
        calls = {"stacked": 0, "singular": 0}

        def flaky_slogdet(a):
            sign, logdet = slogdet(a)
            hit = a.view(np.uint64)[..., 0, 0] % 7 == 0
            calls["stacked"] += bool(hit.any())
            return np.where(hit, 0.0, sign), np.where(hit, -np.inf, logdet)

        def flaky(a, b):
            if a.ndim == 2 and a.view(np.uint64)[0, 0] % 7 == 0:
                calls["singular"] += 1
                raise np.linalg.LinAlgError("singular")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "slogdet", flaky_slogdet)
        monkeypatch.setattr(np.linalg, "solve", flaky)
        gen = bench_generator()
        for dist in (log_normal_target(79, 8.0, 12), log_normal_target(5, 2.0, 30),
                     normalize(gen.fine_grid_targets(3, 1)[0][:40], gen.FINE_LABELS[:40])):
            assert_matches_reference(dist)
        assert calls["stacked"] > 0
        assert calls["singular"] > 0


class TestBatches:
    """Breakpoints are fitted in batches whose Jacobian stack stays under
    ``JACOBIAN_ENTRIES``; every batch gives the reference's floats."""

    def batch_sizes(self, monkeypatch):
        sizes = []
        fit_batch = curvefit._fit_breakpoints

        def recording(y, breakpoints):
            sizes.append(breakpoints.size)
            return fit_batch(y, breakpoints)

        monkeypatch.setattr(curvefit, "_fit_breakpoints", recording)
        return sizes

    @pytest.mark.parametrize("dist, per_batch", [
        (log_normal_target(79, 8.0, 12), 5),
        (log_normal_target(75, 8.0, 12), 1),
        (log_normal_target(5, 2.0, 30), 7),
        (log_normal_target(11, 0.3, 41), 40),
    ], ids=["failed-breakpoints", "overflow", "n30", "n41"])
    def test_uneven_batches_match_reference(self, monkeypatch, dist, per_batch):
        n = len(dist)
        monkeypatch.setattr(curvefit, "JACOBIAN_ENTRIES", 3 * n * per_batch + 2)
        sizes = self.batch_sizes(monkeypatch)
        assert_matches_reference(dist)
        assert sizes[:-1] == [per_batch] * (len(sizes) - 1)
        assert sum(sizes) == n and 0 < sizes[-1] <= per_batch

    def test_bench_fine_grid_fit_is_one_batch(self, monkeypatch):
        gen = bench_generator()
        sizes = self.batch_sizes(monkeypatch)
        fit(normalize(gen.fine_grid_targets(1, 1)[0], gen.FINE_LABELS))
        assert sizes == [gen.FINE_GROUPS]

    def test_memory_grows_linearly(self):
        # One stack of all 401 breakpoints peaked at 26.8 MB.
        dist = log_normal_target(3, 0.3, 401)
        tracemalloc.start()
        try:
            fit(dist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
