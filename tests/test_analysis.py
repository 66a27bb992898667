"""Unit tests for the stability, robustness, fairness and spectra analyses."""

import dataclasses

import numpy as np
import pytest

from repro.analysis import (
    PAPER_GROUPS,
    bitflip_sweep,
    encoded_data_spread,
    evaluate_groups,
    fairness,
    group_accuracy_table,
    kernel_shape_report,
)
from repro.baselines import DecisionTreeClassifier, accuracy
from repro.experiments import figure6_stability
from repro.hdc import NonlinearEncoder, OnlineHD


class TestStabilitySweep:
    """Figure 6's (D, run) protocol: run ``r`` at dimension ``D`` fits a
    model seeded ``r``; σ is the spread of those runs' accuracies."""

    def test_result_structure(self, mini_wesad, tiny_scale):
        results, text = figure6_stability(
            mini_wesad,
            dims=(50, 100),
            scale=dataclasses.replace(tiny_scale, n_learners=2, sweep_runs=2, hd_epochs=1),
        )
        assert set(results) == {"OnlineHD", "BoostHD"}
        for name, result in results.items():
            assert result.model_name == name
            np.testing.assert_array_equal(result.dims, [50, 100])
            assert result.means.shape == (2,)
            assert result.stds.shape == (2,)
            assert 0.0 <= result.mean_sigma
        assert "FIGURE 6" in text

    def test_scores_recorded_per_run(self, mini_wesad, tiny_scale):
        results, _ = figure6_stability(
            mini_wesad,
            dims=(60,),
            seed=4,
            scale=dataclasses.replace(tiny_scale, n_learners=2, sweep_runs=3, hd_epochs=1),
        )
        X_train, X_test, y_train, y_test = mini_wesad.split(test_fraction=0.3, rng=4)
        expected = [
            accuracy(
                y_test,
                OnlineHD(dim=60, epochs=1, seed=run).fit(X_train, y_train).predict(X_test),
            )
            for run in range(3)
        ]
        point = results["OnlineHD"].points[0]
        np.testing.assert_array_equal(point.scores, expected)
        assert point.std == np.std(expected)
        assert results["BoostHD"].points[0].scores.shape == (3,)

    def test_invalid_arguments_raise(self, mini_wesad, tiny_scale):
        """An empty sweep; a run count below 1 is its scale's to refuse."""
        with pytest.raises(ValueError, match="dims"):
            figure6_stability(mini_wesad, dims=(), scale=tiny_scale)
        with pytest.raises(ValueError, match="sweep_runs"):
            dataclasses.replace(tiny_scale, sweep_runs=0)


class TestBitflipSweep:
    def test_sweep_structure(self, blobs_split):
        X_train, X_test, y_train, y_test = blobs_split
        model = OnlineHD(dim=100, epochs=1, seed=0).fit(X_train, y_train)
        result = bitflip_sweep(
            model, X_test, y_test, [1e-5, 1e-3], n_trials=3, model_name="OnlineHD", rng=0
        )
        assert result.model_name == "OnlineHD"
        assert [point.probability for point in result.points] == [1e-5, 1e-3]
        assert result.means.shape == (2,)
        assert result.points[0].scores.shape == (3,)
        assert result.overall_mad >= 0.0

    def test_tiny_probability_barely_hurts(self, blobs_split):
        X_train, X_test, y_train, y_test = blobs_split
        model = OnlineHD(dim=200, epochs=2, seed=0).fit(X_train, y_train)
        result = bitflip_sweep(model, X_test, y_test, [1e-7], n_trials=3, rng=0)
        assert result.accuracy_loss[0] < 0.1

    def test_severe_probability_hurts_more(self, blobs_split):
        X_train, X_test, y_train, y_test = blobs_split
        model = OnlineHD(dim=200, epochs=2, seed=0).fit(X_train, y_train)
        result = bitflip_sweep(model, X_test, y_test, [1e-6, 0.2], n_trials=5, rng=0)
        assert result.means[1] <= result.means[0] + 0.05

    def test_invalid_arguments_raise(self, blobs_split):
        X_train, X_test, y_train, y_test = blobs_split
        model = OnlineHD(dim=50, epochs=1, seed=0).fit(X_train, y_train)
        with pytest.raises(ValueError):
            bitflip_sweep(model, X_test, y_test, [], n_trials=3)
        with pytest.raises(ValueError):
            bitflip_sweep(model, X_test, y_test, [1e-5], n_trials=0)


class TestFairness:
    """Both functions evaluate the groups of ``fairness.PAPER_GROUPS``, read
    when called; a test that needs other groups patches the constant."""

    def test_paper_groups_defined(self):
        assert set(PAPER_GROUPS) == {
            "Left hands",
            "Female",
            "Age <= 25",
            "Age >= 30",
            "Height <= 170",
            "Height >= 185",
        }

    def test_evaluate_groups_returns_valid_accuracies(self, mini_wesad, monkeypatch):
        monkeypatch.setattr(fairness, "PAPER_GROUPS", {"Everyone": lambda record: True})
        results = evaluate_groups(
            lambda seed: DecisionTreeClassifier(max_depth=5, seed=seed), mini_wesad, seed=0
        )
        assert len(results) == 1
        assert 0.0 <= results[0].accuracy <= 1.0
        assert results[0].n_subjects == len(mini_wesad.subject_ids)

    def test_groups_with_too_few_subjects_skipped(self, mini_wesad, monkeypatch):
        lone_subject = int(mini_wesad.subject_ids[0])
        monkeypatch.setattr(
            fairness, "PAPER_GROUPS", {"Lonely": lambda record: record.subject_id == lone_subject}
        )
        results = evaluate_groups(
            lambda seed: DecisionTreeClassifier(max_depth=3, seed=seed), mini_wesad, seed=0
        )
        assert results == []

    def test_group_accuracy_table_structure(self, mini_wesad, monkeypatch):
        monkeypatch.setattr(fairness, "PAPER_GROUPS", {"Everyone": lambda record: True})
        table = group_accuracy_table(
            {"Tree": lambda seed: DecisionTreeClassifier(max_depth=5, seed=seed)},
            mini_wesad,
            seed=0,
        )
        assert "Tree" in table
        assert "AVERAGE" in table["Tree"]
        assert table["Tree"]["AVERAGE"] == pytest.approx(table["Tree"]["Everyone"])


class TestSpectraAnalysis:
    def test_kernel_shape_report_fields(self):
        encoder = NonlinearEncoder(10, 500, rng=0)
        report = kernel_shape_report(encoder)
        assert report.dim == 500
        assert report.in_features == 10
        assert report.q == pytest.approx(10 / 500)
        assert 0.0 < report.empirical_axis_ratio <= 1.0
        assert report.empirical_sv_max >= report.empirical_sv_min

    def test_axis_ratio_increases_with_dimension(self):
        small = kernel_shape_report(NonlinearEncoder(10, 100, rng=0))
        large = kernel_shape_report(NonlinearEncoder(10, 4000, rng=0))
        assert large.empirical_axis_ratio > small.empirical_axis_ratio

    def test_encoded_data_spread_keys_and_ranges(self, blobs):
        X, _ = blobs
        encoder = NonlinearEncoder(X.shape[1], 300, rng=0)
        spread = encoded_data_spread(encoder, X[:40])
        assert set(spread) == {"participation_ratio", "top10_variance_fraction"}
        assert 0.0 <= spread["participation_ratio"] <= 1.0
        assert 0.0 < spread["top10_variance_fraction"] <= 1.0
