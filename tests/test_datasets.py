"""Unit tests for dataset generation and the TabularDataset container."""

import sys

import numpy as np
import pytest

from repro.data import (
    load_nurse_stress,
    load_stress_predict,
    load_wesad,
    make_wesad_subjects,
    nurse_stress,
)


class TestTabularDataset:
    def test_shapes_consistent(self, mini_wesad):
        dataset = mini_wesad
        assert dataset.X.shape == (dataset.n_samples, dataset.n_features)
        assert dataset.y.shape == (dataset.n_samples,)
        assert dataset.subjects.shape == (dataset.n_samples,)

    def test_three_classes(self, mini_wesad):
        assert mini_wesad.n_classes == 3
        assert set(np.unique(mini_wesad.y)) == {0, 1, 2}

    def test_class_counts_balanced(self, mini_wesad):
        _, counts = np.unique(mini_wesad.y, return_counts=True)
        assert len(set(counts)) == 1

    def test_subject_records_cover_subject_ids(self, mini_wesad):
        assert set(mini_wesad.subject_ids) == set(mini_wesad.subject_records.keys())

    def test_features_standardised(self, mini_wesad):
        np.testing.assert_allclose(mini_wesad.X.mean(axis=0), 0.0, atol=1e-8)
        np.testing.assert_allclose(mini_wesad.X.std(axis=0), 1.0, atol=1e-6)

    def test_split_has_no_subject_leakage(self, mini_wesad):
        X_train, X_test, y_train, y_test = mini_wesad.split(test_fraction=0.3, rng=0)
        assert len(X_train) + len(X_test) == mini_wesad.n_samples
        train_rows = {tuple(np.round(row, 6)) for row in X_train}
        test_rows = {tuple(np.round(row, 6)) for row in X_test}
        assert not train_rows & test_rows

    def test_subset_by_mask(self, mini_wesad):
        mask = mini_wesad.y == 0
        subset = mini_wesad.subset(mask, name="class-0 only")
        assert subset.n_samples == int(mask.sum())
        assert set(np.unique(subset.y)) == {0}
        assert subset.name == "class-0 only"

    def test_subset_wrong_mask_shape_raises(self, mini_wesad):
        with pytest.raises(ValueError):
            mini_wesad.subset(np.ones(3, dtype=bool))

    def test_filter_subjects(self, mini_wesad):
        some_subject = int(mini_wesad.subject_ids[0])
        filtered = mini_wesad.filter_subjects(lambda record: record.subject_id == some_subject)
        assert set(np.unique(filtered.subjects)) == {some_subject}

    def test_filter_subjects_empty_raises(self, mini_wesad):
        with pytest.raises(ValueError):
            mini_wesad.filter_subjects(lambda record: record.age > 1000)

    def test_feature_names_length(self, mini_wesad):
        assert len(mini_wesad.feature_names) == mini_wesad.n_features


class TestWesadGenerator:
    def test_requested_subject_count(self):
        assert len(make_wesad_subjects(5, rng=0)) == 5

    def test_subjects_reproducible(self):
        first = make_wesad_subjects(4, rng=3)
        second = make_wesad_subjects(4, rng=3)
        assert [record.age for record in first] == [record.age for record in second]

    def test_demographics_in_plausible_ranges(self):
        for record in make_wesad_subjects(10, rng=0):
            assert 21 <= record.age <= 40
            assert 150 <= record.height <= 200
            assert record.hand in ("left", "right")
            assert record.gender in ("male", "female")

    def test_too_few_subjects_raises(self):
        with pytest.raises(ValueError):
            make_wesad_subjects(1)

    def test_dataset_reproducible_with_seed(self):
        first = load_wesad(n_subjects=3, windows_per_state=3, window_seconds=6, seed=5)
        second = load_wesad(n_subjects=3, windows_per_state=3, window_seconds=6, seed=5)
        np.testing.assert_allclose(first.X, second.X)
        np.testing.assert_array_equal(first.y, second.y)

    def test_classes_are_learnable(self, mini_wesad):
        # A depth-limited tree should comfortably beat chance on the
        # synthetic WESAD features, confirming the class signal is real.
        from repro.baselines import DecisionTreeClassifier

        X_train, X_test, y_train, y_test = mini_wesad.split(test_fraction=0.3, rng=1)
        tree = DecisionTreeClassifier(max_depth=6, seed=0).fit(X_train, y_train)
        assert tree.score(X_test, y_test) > 0.6


class TestOtherDatasets:
    @pytest.mark.parametrize(
        "loader, expected_name",
        [
            (load_nurse_stress, "Nurse Stress (synthetic)"),
            (load_stress_predict, "Stress-Predict (synthetic)"),
        ],
    )
    def test_small_generation(self, loader, expected_name, monkeypatch):
        monkeypatch.setattr(sys.modules[loader.__module__], "_WINDOW_SECONDS", 6.0)
        dataset = loader(n_subjects=3, windows_per_state=3)
        assert dataset.name == expected_name
        assert dataset.n_classes == 3
        assert dataset.n_samples == 3 * 3 * 3
        assert dataset.class_names == ["good", "common", "stress"]

    def test_nurse_dataset_is_harder_than_wesad(self, monkeypatch):
        # The nurse field study uses much larger class overlap, so its
        # class-separability (between-class spread over within-class spread
        # in feature space) must be clearly lower than WESAD's.
        def separability(dataset) -> float:
            class_means = np.vstack(
                [dataset.X[dataset.y == label].mean(axis=0) for label in range(dataset.n_classes)]
            )
            between = np.linalg.norm(class_means - class_means.mean(axis=0), axis=1).mean()
            within = np.mean(
                [
                    dataset.X[dataset.y == label].std(axis=0).mean()
                    for label in range(dataset.n_classes)
                ]
            )
            return between / within

        wesad = load_wesad(n_subjects=4, windows_per_state=6, window_seconds=8, seed=0)
        monkeypatch.setattr(nurse_stress, "_WINDOW_SECONDS", 8.0)
        nurse = load_nurse_stress(n_subjects=6, windows_per_state=5, seed=0)
        assert separability(nurse) < separability(wesad)
