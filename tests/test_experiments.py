"""Unit tests for the experiment harness: config, registry, runner, reporting, tables, figures."""

import dataclasses
import inspect

import numpy as np
import pytest

from repro import experiments
from repro.baselines import AdaBoostClassifier, MLPClassifier, RandomForestClassifier
from repro.core import BoostHD
from repro.experiments import (
    FULL,
    QUICK,
    MODEL_NAMES,
    ExperimentScale,
    build_model,
    figure2_theory_terms,
    figure5_span,
    figure6_stability,
    figure7_overfitting,
    figure8_robustness,
    format_mean_std,
    format_series,
    format_table,
    get_scale,
    run_model,
    run_suite,
    table1_accuracy,
    table2_inference,
    table3_person_specific,
)
from repro.experiments.runner import ModelRunResult, SuiteResult
from repro.experiments.tables import average_rank, table_winner_summary
from repro.hdc import OnlineHD
from repro.runtime import ArtifactStore

#: Model-name lists a grid must refuse before anything trains, with the
#: message naming each unknown or repeated name.
BAD_MODEL_NAMES = [
    (("OnlineHD", "BoostHD", "Boosthd"), r"unknown model names \['Boosthd'\]"),
    (("OnlineHD", "OnlineHD"), r"repeated model names \['OnlineHD'\]"),
    (
        ("Boosthd", "RF", "RF", "SVN"),
        r"unknown model names \['Boosthd', 'SVN'\], repeated model names \['RF'\]",
    ),
]


class TestConfig:
    def test_quick_is_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert get_scale() is QUICK

    def test_full_scale_via_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert get_scale() is FULL

    def test_full_scale_matches_paper_parameters(self):
        assert FULL.n_learners == 10
        assert FULL.n_runs == 10
        assert FULL.dnn_hidden == (2048, 1024, 512)
        assert FULL.bitflip_trials == 100
        assert FULL.wesad_subjects == 15
        assert FULL.nurse_subjects == 37


class TestRegistry:
    def test_all_paper_models_listed(self):
        assert MODEL_NAMES == ("AdaBoost", "RF", "XGBoost", "SVM", "DNN", "OnlineHD", "BoostHD")

    def test_build_model_types(self):
        assert isinstance(build_model("AdaBoost"), AdaBoostClassifier)
        assert isinstance(build_model("RF"), RandomForestClassifier)
        assert isinstance(build_model("DNN"), MLPClassifier)
        assert isinstance(build_model("OnlineHD"), OnlineHD)
        assert isinstance(build_model("BoostHD"), BoostHD)

    def test_paper_hyperparameters(self):
        adaboost = build_model("AdaBoost")
        assert adaboost.n_estimators == 10 and adaboost.learning_rate == 1.0
        forest = build_model("RF")
        assert forest.n_estimators == 10 and forest.bootstrap
        online = build_model("OnlineHD", scale=QUICK)
        assert online.lr == pytest.approx(0.035)
        boost = build_model("BoostHD", scale=QUICK)
        assert boost.n_learners == QUICK.n_learners
        assert boost.total_dim == QUICK.total_dim

    def test_boosthd_weak_learner_dim_is_total_over_nl(self):
        boost = build_model("BoostHD", scale=QUICK)
        assert boost.learner_dim == QUICK.total_dim // QUICK.n_learners

    def test_unknown_model_raises(self):
        with pytest.raises(ValueError):
            build_model("ResNet")

    def test_build_model_is_seedable(self):
        first = build_model("RF", 0)
        second = build_model("RF", 1)
        assert first.seed == 0 and second.seed == 1


class TestRunnerAndTables:
    @pytest.fixture(scope="class")
    def tiny_suite(self, blobs_split):
        X_train, X_test, y_train, y_test = blobs_split
        results = {}
        for dataset_name in ("A", "B"):
            results[dataset_name] = {}
            for model_name, builder in (
                ("OnlineHD", lambda seed: OnlineHD(dim=80, epochs=1, seed=seed)),
                ("BoostHD", lambda seed: BoostHD(total_dim=80, n_learners=2, epochs=1, seed=seed)),
            ):
                results[dataset_name][model_name] = run_model(
                    builder, X_train, y_train, X_test, y_test
                )
        return SuiteResult(results=results)

    def test_run_model_collects_runs_and_times(self, blobs_split):
        X_train, X_test, y_train, y_test = blobs_split
        result = run_model(
            lambda seed: OnlineHD(dim=60, epochs=1, seed=seed),
            X_train,
            y_train,
            X_test,
            y_test,
        )
        assert isinstance(result, ModelRunResult)
        assert result.accuracies.shape == (2,)
        assert np.all(result.train_seconds > 0)
        assert np.all(result.inference_seconds_per_query > 0)
        assert 0.0 <= result.mean_accuracy <= 1.0

    def test_suite_accessors(self, tiny_suite):
        assert tiny_suite.datasets() == ["A", "B"]
        assert tiny_suite.models() == ["OnlineHD", "BoostHD"]

    def test_table1_structure(self, tiny_suite):
        data, text = table1_accuracy(tiny_suite)
        assert set(data) == {"A", "B"}
        assert set(data["A"]) == {"OnlineHD", "BoostHD"}
        mean, std = data["A"]["OnlineHD"]
        assert 0.0 <= mean <= 1.0 and std >= 0.0
        assert "TABLE I" in text and "OnlineHD" in text

    def test_table2_structure(self, tiny_suite):
        data, text = table2_inference(tiny_suite)
        assert data["A"]["OnlineHD"] > 0
        assert "TABLE II" in text

    def test_winner_summary_and_rank(self, tiny_suite):
        data, _ = table1_accuracy(tiny_suite)
        winners = table_winner_summary(data)
        assert set(winners) == {"A", "B"}
        ranks = average_rank(data)
        assert set(ranks) == {"OnlineHD", "BoostHD"}
        assert all(1.0 <= rank <= 2.0 for rank in ranks.values())


class TestReporting:
    def test_format_mean_std(self):
        assert format_mean_std(0.9837, 0.0032) == "98.37 ± 0.32"

    def test_format_table_contains_all_cells(self):
        text = format_table(
            [{"Model": "BoostHD", "Acc": "98.4"}, {"Model": "OnlineHD", "Acc": "96.4"}],
            ["Model", "Acc"],
            title="demo",
        )
        assert "BoostHD" in text and "96.4" in text and "demo" in text

    def test_format_table_requires_columns(self):
        with pytest.raises(ValueError):
            format_table([], [])

    def test_format_series_alignment(self):
        text = format_series([1, 2], {"acc": [0.5, 0.75]}, x_label="D")
        assert "0.7500" in text

    def test_format_series_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            format_series([1, 2], {"acc": [0.5]})


class TestFigureGenerators:
    def test_figure2_terms(self):
        table, text = figure2_theory_terms(np.linspace(1, 20, 5))
        assert set(table) == {"q", "T1", "T2", "T3"}
        assert "FIGURE 2" in text

    def test_figure5_span_on_mini_dataset(self, mini_wesad, tiny_scale):
        scale = dataclasses.replace(tiny_scale, total_dim=100, n_learners=2, hd_epochs=1)
        results, text = figure5_span(mini_wesad, seed=0, scale=scale)
        assert set(results) == {"OnlineHD", "BoostHD"}
        assert results["BoostHD"].dim == 100
        assert "FIGURE 5" in text

    def test_figure7_overfitting_on_mini_dataset(self, mini_wesad, tiny_scale):
        results, text = figure7_overfitting(
            mini_wesad,
            keep_fractions=(1.0, 0.5),
            total_dims=(100,),
            seed=0,
            scale=dataclasses.replace(tiny_scale, n_learners=2, hd_epochs=1),
        )
        assert 100 in results
        assert results[100]["OnlineHD"].shape == (2,)
        assert "FIGURE 7" in text

    def test_grids_are_equal_at_one_and_two_workers(self, mini_cohort, tiny_scale, monkeypatch):
        """Figures and Table III take their pool size from ``REPRO_MAX_WORKERS``."""
        outputs = []
        for workers in ("1", "2"):
            monkeypatch.setenv("REPRO_MAX_WORKERS", workers)
            table, table_text = table3_person_specific(mini_cohort, scale=tiny_scale)
            figure, figure_text = figure7_overfitting(
                mini_cohort,
                keep_fractions=(1.0, 0.5),
                total_dims=(100,),
                scale=dataclasses.replace(tiny_scale, n_learners=2, hd_epochs=1),
            )
            outputs.append((table, table_text, figure[100], figure_text))
        (table, table_text, panel, figure_text), parallel = outputs
        assert table["BoostHD"]["AVERAGE"] > 0
        assert parallel[0] == table and parallel[1] == table_text
        for kind in ("OnlineHD", "BoostHD"):
            np.testing.assert_array_equal(parallel[2][kind], panel[kind])
        assert parallel[3] == figure_text


def _fitted_epochs(monkeypatch) -> list[int]:
    """The ``epochs`` of every OnlineHD fitted in this process from now on,
    a BoostHD's learners included; grids run serially, so every fit is in
    this process."""
    monkeypatch.setenv("REPRO_MAX_WORKERS", "1")
    seen = []
    fit = OnlineHD.fit

    def recording(model, *args, **kwargs):
        seen.append(model.epochs)
        return fit(model, *args, **kwargs)

    monkeypatch.setattr(OnlineHD, "fit", recording)
    return seen


class TestScaleSizes:
    """An experiment's sizes live only in its :class:`ExperimentScale`."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("total_dim", 0),
            ("n_learners", 0),
            ("n_runs", 0),
            ("hd_epochs", -1),
            pytest.param("dnn_hidden", (16, 0), id="dnn_hidden-16-0"),
            ("dnn_epochs", 0),
            ("wesad_subjects", 0),
            ("nurse_subjects", -1),
            ("stress_predict_subjects", 0),
            ("windows_per_state", 0),
            ("bitflip_trials", 0),
            ("sweep_runs", 0),
        ],
    )
    def test_a_scale_refuses_a_bad_size(self, tiny_scale, field, value):
        """Whether it is built or replaced."""
        with pytest.raises(ValueError, match=f"{field} must be >= "):
            ExperimentScale(**{**dataclasses.asdict(tiny_scale), field: value})
        with pytest.raises(ValueError, match=f"{field} must be >= "):
            dataclasses.replace(tiny_scale, **{field: value})

    @pytest.mark.parametrize("epochs", [0, 1])
    def test_figures_5_to_7_fit_the_scale_epochs(
        self, mini_wesad, tiny_scale, monkeypatch, epochs
    ):
        """0 epochs is the bundling pass alone."""
        scale = dataclasses.replace(tiny_scale, hd_epochs=epochs)
        seen = _fitted_epochs(monkeypatch)
        figure5_span(mini_wesad, scale=scale)
        figure6_stability(mini_wesad, dims=(60,), scale=scale)
        figure7_overfitting(mini_wesad, keep_fractions=(0.5,), total_dims=(100,), scale=scale)
        assert seen and set(seen) == {epochs}

    @pytest.mark.parametrize("model_names, match", BAD_MODEL_NAMES)
    def test_bad_model_names_are_refused_before_anything_trains(
        self, mini_wesad, suite_datasets, tiny_scale, tmp_path, monkeypatch, model_names, match
    ):
        """By Figure 8, and by ``run_suite`` before any cell is stored."""
        seen = _fitted_epochs(monkeypatch)
        store = ArtifactStore(tmp_path)
        with pytest.raises(ValueError, match=match):
            figure8_robustness(mini_wesad, model_names=model_names, scale=tiny_scale)
        with pytest.raises(ValueError, match=match):
            run_suite(suite_datasets, model_names, scale=tiny_scale, store=store)
        assert seen == [] and len(store) == 0


def test_no_generator_takes_a_size_its_scale_states():
    """A public callable of ``repro.experiments`` that takes a scale takes no
    parameter naming one of its sizes: a field, or the aliases ``epochs``
    and ``n_trials``.  Another size is another scale."""
    sizes = {field.name for field in dataclasses.fields(ExperimentScale)} - {"name"}
    sizes |= {"epochs", "n_trials"}
    overrides = []
    for name in experiments.__all__:
        value = getattr(experiments, name)
        if not inspect.isfunction(value):
            continue
        parameters = inspect.signature(value).parameters
        if "scale" in parameters:
            overrides += [f"{name}({p}=)" for p in parameters if p in sizes]
    assert overrides == []
