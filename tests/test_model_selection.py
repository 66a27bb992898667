"""Unit tests for the paper's repeated independent-runs protocol."""

import numpy as np

from repro.baselines import DecisionTreeClassifier, accuracy
from repro.experiments import run_model


class TestRepeatedRuns:
    """The paper's independent-runs protocol is
    :func:`repro.experiments.run_model`: run ``r`` fits ``build(r)``."""

    def test_mean_and_std(self, blobs_split):
        X_train, X_test, y_train, y_test = blobs_split
        result = run_model(
            lambda run: DecisionTreeClassifier(max_depth=4, seed=run),
            X_train,
            y_train,
            X_test,
            y_test,
            engine=False,
        )
        expected = [
            accuracy(
                y_test,
                DecisionTreeClassifier(max_depth=4, seed=run)
                .fit(X_train, y_train)
                .predict(X_test),
            )
            for run in range(2)
        ]
        np.testing.assert_array_equal(result.accuracies, expected)
        assert result.mean_accuracy == np.mean(expected)
        assert result.std_accuracy == np.std(expected)
