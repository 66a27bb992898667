"""Integration tests: the full pipeline from synthetic sensors to evaluation."""

import numpy as np

from repro import BoostHD, OnlineHD, load_wesad
from repro.analysis import bitflip_sweep, evaluate_groups, fairness
from repro.baselines import RandomForestClassifier, macro_accuracy
from repro.data import make_imbalanced, perturb_model
from repro.experiments import QUICK, build_model, run_model


class TestEndToEndPipeline:
    def test_dataset_to_boosthd_to_evaluation(self, mini_wesad_split):
        X_train, X_test, y_train, y_test = mini_wesad_split
        model = BoostHD(total_dim=300, n_learners=5, epochs=3, seed=0).fit(X_train, y_train)
        score = model.score(X_test, y_test)
        assert score > 0.6
        assert set(np.unique(model.predict(X_test))) <= {0, 1, 2}

    def test_hdc_models_beat_chance_on_held_out_subjects(self, mini_wesad_split):
        X_train, X_test, y_train, y_test = mini_wesad_split
        for model in (
            OnlineHD(dim=300, epochs=3, seed=0),
            BoostHD(total_dim=300, n_learners=5, epochs=3, seed=0),
            RandomForestClassifier(n_estimators=10, seed=0),
        ):
            model.fit(X_train, y_train)
            assert model.score(X_test, y_test) > 0.5

    def test_registry_models_all_train_on_wesad(self, mini_wesad_split):
        X_train, X_test, y_train, y_test = mini_wesad_split
        # AdaBoost over depth-2 trees is the weakest baseline on such a tiny
        # subject-split sample, so it only has to beat chance.
        thresholds = {"AdaBoost": 1 / 3}
        for name in ("AdaBoost", "RF", "XGBoost", "SVM", "OnlineHD"):
            model = build_model(name, seed=0, scale=QUICK)
            # Shrink the expensive knobs for test speed where present.
            if hasattr(model, "epochs") and name not in ("SVM",):
                model.epochs = min(model.epochs, 3)
            model.fit(X_train, y_train)
            assert model.score(X_test, y_test) >= thresholds.get(name, 0.4), name

    def test_imbalance_hurts_macro_accuracy_less_for_boosthd_or_equal(self, mini_wesad_split):
        X_train, X_test, y_train, y_test = mini_wesad_split
        X_imbalanced, y_imbalanced = make_imbalanced(
            X_train, y_train, target_class=0, keep_fraction=0.3, rng=0
        )
        online = OnlineHD(dim=300, epochs=3, seed=0).fit(X_imbalanced, y_imbalanced)
        boost = BoostHD(total_dim=300, n_learners=5, epochs=3, seed=0).fit(
            X_imbalanced, y_imbalanced
        )
        online_macro = macro_accuracy(y_test, online.predict(X_test))
        boost_macro = macro_accuracy(y_test, boost.predict(X_test))
        # Both remain usable; the ensemble must not collapse.
        assert boost_macro > 0.45
        assert online_macro > 0.0

    def test_bitflip_pipeline_on_trained_models(self, mini_wesad_split):
        X_train, X_test, y_train, y_test = mini_wesad_split
        model = BoostHD(total_dim=200, n_learners=4, epochs=2, seed=0).fit(X_train, y_train)
        sweep = bitflip_sweep(model, X_test, y_test, [1e-5], n_trials=3, rng=0)
        assert sweep.clean_accuracy > 0.5
        assert sweep.accuracy_loss[0] < 0.3

    def test_perturbed_copy_does_not_change_clean_model_predictions(self, mini_wesad_split):
        X_train, X_test, y_train, y_test = mini_wesad_split
        model = OnlineHD(dim=200, epochs=2, seed=0).fit(X_train, y_train)
        before = model.predict(X_test)
        perturb_model(model, 0.01, rng=0)
        np.testing.assert_array_equal(model.predict(X_test), before)

    def test_person_specific_groups_pipeline(self, mini_wesad, monkeypatch):
        monkeypatch.setattr(
            fairness,
            "PAPER_GROUPS",
            {"Everyone": lambda record: True, "Age >= 25": lambda record: record.age >= 25},
        )
        results = evaluate_groups(
            lambda seed: RandomForestClassifier(n_estimators=5, seed=seed), mini_wesad, seed=0
        )
        assert all(0.0 <= result.accuracy <= 1.0 for result in results)
        assert len(results) >= 1

    def test_run_model_timing_consistency(self, mini_wesad_split):
        X_train, X_test, y_train, y_test = mini_wesad_split
        result = run_model(
            lambda seed: OnlineHD(dim=150, epochs=1, seed=seed),
            X_train,
            y_train,
            X_test,
            y_test,
        )
        assert result.mean_inference_per_query < np.mean(result.train_seconds)

    def test_public_api_quickstart_snippet(self):
        dataset = load_wesad(n_subjects=3, windows_per_state=4, window_seconds=6, seed=1)
        X_train, X_test, y_train, y_test = dataset.split(rng=0)
        model = BoostHD(total_dim=100, n_learners=2, epochs=2, seed=0).fit(X_train, y_train)
        assert 0.0 <= model.score(X_test, y_test) <= 1.0
