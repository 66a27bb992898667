"""Golden regression tests for the table generators and reporting layer.

Two pinning strategies:

* **Formatting goldens** — synthetic :class:`SuiteResult` objects with fixed
  accuracies *and* timings, so the full rendered Table I/II text (including
  the fused-engine footer) is deterministic and pinned byte-for-byte.  Any
  change to column layout, separators, precision or footer phrasing fails
  here loudly.
* **Numeric goldens** — a real fixed-seed tiny-scale suite run over the
  shared session datasets, pinned at the rendered two-decimal precision,
  and a tiny Figure 8 sweep, pinned trial by trial.  Any drift in dataset
  generation, seeding, splitting, model training or bit-flip
  draws shows up as changed accuracy cells.

If a failure here is *intentional* (a deliberate format or algorithm
change), regenerate the expected strings with the snippet in each test's
docstring and update the constants.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    figure8_robustness,
    format_mean_std,
    format_series,
    format_table,
    run_suite,
    table1_accuracy,
    table2_inference,
)
from repro.experiments.runner import ModelRunResult, SuiteResult

pytestmark = pytest.mark.runtime


def _cell(model, dataset, accs, infer, engine=None):
    return ModelRunResult(
        model_name=model,
        dataset_name=dataset,
        accuracies=np.asarray(accs),
        train_seconds=np.asarray([0.5, 0.6]),
        inference_seconds_per_query=np.asarray(infer),
        engine_inference_seconds_per_query=(
            None if engine is None else np.asarray(engine)
        ),
    )


@pytest.fixture(scope="module")
def synthetic_suite() -> SuiteResult:
    """Hand-built suite with fixed numbers: rendering is fully deterministic."""
    return SuiteResult(
        results={
            "WESAD": {
                "SVM": _cell("SVM", "WESAD", [0.9123, 0.9321], [2.5e-5, 3.5e-5]),
                "BoostHD": _cell(
                    "BoostHD",
                    "WESAD",
                    [0.9837, 0.9773],
                    [4.0e-5, 6.0e-5],
                    engine=[1.0e-5, 1.5e-5],
                ),
            },
            "Nurse Stress Dataset": {
                "SVM": _cell(
                    "SVM", "Nurse Stress Dataset", [0.8, 0.82], [1.5e-5, 2.5e-5]
                ),
                "BoostHD": _cell(
                    "BoostHD",
                    "Nurse Stress Dataset",
                    [0.9, 0.88],
                    [3.0e-5, 5.0e-5],
                    engine=[2.0e-5, 2.0e-5],
                ),
            },
        }
    )


GOLDEN_TABLE1_SYNTHETIC = (
    "TABLE I — Accuracy (%) vs baselines\n"
    "Dataset              | SVM          | BoostHD     \n"
    "---------------------+--------------+-------------\n"
    "WESAD                | 92.22 ± 0.99 | 98.05 ± 0.32\n"
    "Nurse Stress Dataset | 81.00 ± 1.00 | 89.00 ± 1.00"
)

GOLDEN_TABLE2_SYNTHETIC = (
    "TABLE II — Inference time (1e-5 seconds per query)\n"
    "Dataset              | SVM | BoostHD\n"
    "---------------------+-----+--------\n"
    "WESAD                | 3.0 | 5.0    \n"
    "Nurse Stress Dataset | 2.0 | 4.0    \n"
    "Fused-engine inference (repro.engine):\n"
    "  WESAD / BoostHD: loop 5.0 -> fused 1.2 (1e-5 s/query, 4.0x speedup)\n"
    "  Nurse Stress Dataset / BoostHD: loop 4.0 -> fused 2.0 "
    "(1e-5 s/query, 2.0x speedup)"
)


class TestFormattingGoldens:
    def test_table1_rendering_pinned(self, synthetic_suite):
        _, text = table1_accuracy(synthetic_suite)
        assert text == GOLDEN_TABLE1_SYNTHETIC

    def test_table2_rendering_pinned(self, synthetic_suite):
        _, text = table2_inference(synthetic_suite)
        assert text == GOLDEN_TABLE2_SYNTHETIC

    def test_format_mean_std_pinned(self):
        assert format_mean_std(0.9837, 0.0032) == "98.37 ± 0.32"
        assert format_mean_std(1.0, 0.0) == "100.00 ± 0.00"

    def test_format_table_layout_pinned(self):
        text = format_table(
            [
                {"Model": "BoostHD", "Acc": "98.4"},
                {"Model": "OnlineHD", "Acc": "96.41"},
            ],
            ["Model", "Acc"],
            title="demo",
        )
        assert text == (
            "demo\n"
            "Model    | Acc  \n"
            "---------+------\n"
            "BoostHD  | 98.4 \n"
            "OnlineHD | 96.41"
        )

    def test_format_series_layout_pinned(self):
        text = format_series(
            [100, 200], {"acc": [0.5, 0.75]}, x_label="D", title="sweep"
        )
        assert text == (
            "sweep\n"
            "D   | acc   \n"
            "----+-------\n"
            "100 | 0.5000\n"
            "200 | 0.7500"
        )


#: Rendered Table I of the fixed-seed tiny-scale suite over the shared
#: session datasets (mini WESAD seed 0, mini Nurse seed 1; OnlineHD and
#: BoostHD; run r seeded with r; split seed 7).  Regenerate with::
#:
#:     suite = run_suite(suite_datasets, ("OnlineHD", "BoostHD"),
#:                       scale=TINY_SCALE, n_runs=2)
#:     print(table1_accuracy(suite)[1])
GOLDEN_TABLE1_REAL = (
    "TABLE I — Accuracy (%) vs baselines\n"
    "Dataset              | OnlineHD     | BoostHD      \n"
    "---------------------+--------------+--------------\n"
    "WESAD                | 96.67 ± 3.33 | 93.33 ± 0.00 \n"
    "Nurse Stress Dataset | 58.33 ± 8.33 | 79.17 ± 12.50"
)


class TestNumericGoldens:
    @pytest.fixture(scope="class")
    def real_suite(self, suite_datasets, tiny_scale):
        return run_suite(
            suite_datasets, ("OnlineHD", "BoostHD"), scale=tiny_scale, n_runs=2
        )

    def test_fixed_seed_table1_pinned(self, real_suite):
        """Numeric drift anywhere in data→split→train→score fails this test."""
        _, text = table1_accuracy(real_suite)
        assert text == GOLDEN_TABLE1_REAL

    def test_fixed_seed_run_is_reproducible_in_parallel(
        self, suite_datasets, tiny_scale, real_suite
    ):
        """The pinned numbers are also what a 2-worker run renders."""
        parallel = run_suite(
            suite_datasets,
            ("OnlineHD", "BoostHD"),
            scale=tiny_scale,
            n_runs=2,
            max_workers=2,
        )
        assert table1_accuracy(parallel)[1] == GOLDEN_TABLE1_REAL


#: Figure 8 on mini WESAD at the tiny scale (seed 0, 2 trials a rate), as
#: correct answers out of the 15 held-out windows: ``(clean, per-rate
#: trials)``.  The paper's 1e-6..1e-5 rates move no model this small, so
#: the pin uses rates that move each one.  Regenerate with::
#:
#:     results, _ = figure8_robustness(mini_wesad, probabilities=FIGURE8_RATES,
#:                                     scale=TINY_SCALE, seed=0)
#:     {name: (sweep.clean_accuracy * 15,
#:             [list(point.scores * 15) for point in sweep.points])
#:      for name, sweep in results.items()}
FIGURE8_RATES = (1e-3, 1e-2, 3e-2)
GOLDEN_FIGURE8_CORRECT = {
    "DNN": (3, [[3, 4], [5, 6], [6, 7]]),
    "OnlineHD": (15, [[15, 15], [15, 15], [12, 12]]),
    "BoostHD": (14, [[14, 15], [13, 14], [13, 14]]),
}


def test_fixed_seed_figure8_pinned(mini_wesad, tiny_scale):
    """Every trial's accuracy and each clean accuracy of a tiny sweep."""
    results, _ = figure8_robustness(
        mini_wesad, probabilities=FIGURE8_RATES, scale=tiny_scale, seed=0
    )
    assert list(results) == list(GOLDEN_FIGURE8_CORRECT)
    for name, (clean, trials) in GOLDEN_FIGURE8_CORRECT.items():
        sweep = results[name]
        assert [point.probability for point in sweep.points] == list(FIGURE8_RATES)
        assert sweep.clean_accuracy == clean / 15
        np.testing.assert_array_equal(
            [point.scores for point in sweep.points], np.asarray(trials) / 15
        )
