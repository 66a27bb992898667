"""Unit tests for the span-utilization and Marchenko–Pastur theory modules."""

import numpy as np
import pytest

from repro.core import (
    attenuation_factors,
    empirical_spectrum,
    kernel_axis_ratio,
    marchenko_pastur_bounds,
    mean_lambda,
    rank_ratio,
    singular_value_bounds,
    span_utilization,
    term_convergence_table,
    variance_terms,
)


class TestSpanUtilization:
    def test_orthogonal_classes_no_attenuation(self):
        hypervectors = np.eye(3, 10)
        result = span_utilization(hypervectors)
        np.testing.assert_allclose(result.attenuation, 1.0)
        assert result.sp == pytest.approx(result.rank_ratio)
        assert result.mean_abs_cosine == pytest.approx(0.0)

    def test_aligned_classes_heavily_attenuated(self):
        base = np.random.default_rng(0).standard_normal(50)
        hypervectors = np.vstack([base, base * 1.01, base * 0.99])
        aligned = span_utilization(hypervectors)
        orthogonal = span_utilization(np.eye(3, 50))
        assert aligned.sp < orthogonal.sp
        assert aligned.mean_abs_cosine > 0.9

    def test_rank_ratio_matches_numpy(self):
        matrix = np.random.default_rng(0).standard_normal((3, 20))
        assert rank_ratio(matrix) == pytest.approx(np.linalg.matrix_rank(matrix) / 20)

    def test_rank_deficient_matrix(self):
        row = np.random.default_rng(0).standard_normal(30)
        matrix = np.vstack([row, 2 * row, -row])
        result = span_utilization(matrix)
        assert result.rank == 1

    def test_attenuation_lower_bound_is_one(self):
        matrix = np.random.default_rng(1).standard_normal((4, 100))
        assert np.all(attenuation_factors(matrix) >= 1.0)

    def test_single_class(self):
        result = span_utilization(np.ones((1, 10)))
        assert result.rank == 1
        assert result.mean_abs_cosine == 0.0

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            span_utilization(np.empty((0, 5)))

    def test_boosthd_uses_space_better_than_aligned_model(self, blobs):
        # The Figure 5 comparison: concatenated BoostHD class hypervectors
        # should be less mutually aligned than a single OnlineHD model of the
        # same total dimension trained on the same data.
        from repro.core import BoostHD
        from repro.hdc import OnlineHD

        X, y = blobs
        online = OnlineHD(dim=200, epochs=2, seed=0).fit(X, y)
        boost = BoostHD(total_dim=200, n_learners=4, epochs=2, seed=0).fit(X, y)
        online_span = span_utilization(online.class_hypervectors_)
        boost_span = span_utilization(boost.class_hypervectors())
        assert boost_span.sp >= online_span.sp * 0.5  # sanity: same order of magnitude
        assert boost_span.rank == online_span.rank


class TestMarchenkoPastur:
    def test_bounds_ordering(self):
        lower, upper = marchenko_pastur_bounds(0.5)
        assert 0 <= lower < upper

    def test_bounds_at_q_one(self):
        lower, upper = marchenko_pastur_bounds(1.0)
        assert lower == pytest.approx(0.0)
        assert upper == pytest.approx(4.0)

    def test_singular_value_bounds_are_sqrt(self):
        lower, upper = marchenko_pastur_bounds(0.3)
        sv_lower, sv_upper = singular_value_bounds(0.3)
        assert sv_lower == pytest.approx(np.sqrt(lower))
        assert sv_upper == pytest.approx(np.sqrt(upper))

    def test_invalid_q_raises(self):
        with pytest.raises(ValueError):
            marchenko_pastur_bounds(0.0)

    def test_mean_lambda_positive(self):
        assert mean_lambda(2.0) > 0

    def test_variance_terms_converge(self):
        # Equations 4-6 / Figure 2: every term settles as q grows — T2 and T3
        # vanish, and the change in T1 between successive large q values is
        # far smaller than between small q values.
        t1_small, t2_small, t3_small = variance_terms(2.0)
        t1_large, t2_large, t3_large = variance_terms(500.0)
        assert abs(t2_large) < abs(t2_small)
        assert abs(t3_large) < abs(t3_small) + 1e-9
        assert abs(t2_large) < 0.1
        assert abs(t3_large) < 0.1
        t1_larger = variance_terms(1000.0)[0]
        early_change = abs(variance_terms(4.0)[0] - t1_small)
        late_change = abs(t1_larger - t1_large)
        assert late_change < early_change
        assert abs(t1_larger) < abs(t1_small)

    def test_variance_lambda_bounded_for_large_q(self):
        # Equation 3: sigma^2_lambda = (T1 + T2 + T3) / (2 pi sigma^2), sigma = 1.
        values = [sum(variance_terms(q)) / (2.0 * np.pi) for q in (100.0, 400.0, 1600.0)]
        assert max(values) - min(values) < 0.1 * abs(values[0]) + 0.1

    def test_axis_ratio_approaches_one_as_q_shrinks(self):
        # q = N_c / N_r; growing the hyperdimension D = N_r shrinks q.
        assert kernel_axis_ratio(0.001) > kernel_axis_ratio(0.5)
        assert kernel_axis_ratio(0.0001) > 0.95

    def test_term_convergence_table_structure(self):
        table = term_convergence_table(np.linspace(1, 50, 10))
        assert set(table) == {"q", "T1", "T2", "T3"}
        assert all(len(values) == 10 for values in table.values())

    def test_term_convergence_table_rejects_nonpositive_q(self):
        with pytest.raises(ValueError):
            term_convergence_table(np.array([0.0, 1.0]))


class TestEmpiricalSpectrum:
    def test_spectrum_within_mp_bounds(self):
        rng = np.random.default_rng(0)
        n_rows, n_cols = 2000, 40
        matrix = rng.standard_normal((n_rows, n_cols))
        spectrum = empirical_spectrum(matrix)
        q = n_cols / n_rows
        _, sv_upper = singular_value_bounds(q)
        assert spectrum.singular_values.max() <= sv_upper * 1.1
        assert spectrum.q == pytest.approx(q)

    def test_axis_ratio_grows_with_dimension(self):
        rng = np.random.default_rng(0)
        small = empirical_spectrum(rng.standard_normal((100, 30)))
        large = empirical_spectrum(rng.standard_normal((4000, 30)))
        assert large.axis_ratio > small.axis_ratio

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            empirical_spectrum(np.ones(10))
