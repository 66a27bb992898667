"""Tests for the parallel, resumable experiment runtime (:mod:`repro.runtime`).

The load-bearing guarantees:

* **Equivalence** — ``run_suite`` produces bit-identical accuracies at 1, 2
  and 4 workers, with its default datasets or the same datasets passed
  explicitly, and run ``r`` of a model is the model seeded with ``r``.
* **Resume** — an interrupted suite checkpoints every completed cell into the
  :class:`~repro.runtime.store.ArtifactStore` and a rerun replays them
  without recomputation, landing on the same numbers.
* **Store integrity** — artifacts round-trip bit-exactly; corruption, layout
  changes and key collisions all read as cache misses, never as wrong data.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.wesad import load_wesad
from repro.experiments import build_model, load_dataset, load_datasets, run_suite
from repro.experiments.runner import _split_fingerprint
from repro.obs import OBS, capture
from repro.runtime import (
    ArtifactStore,
    CellResult,
    RunReport,
    canonical_spec,
    parallel_map,
    resolve_max_workers,
    spec_key,
    suite_cells,
)
from repro.runtime.executor import pool_size

pytestmark = pytest.mark.runtime

SUITE_MODELS = ("OnlineHD", "BoostHD")


def suite_accuracies(suite):
    return {
        (dataset, model): suite.results[dataset][model].accuracies
        for dataset in suite.datasets()
        for model in suite.models()
    }


def assert_suites_identical(first, second):
    assert first.datasets() == second.datasets()
    assert first.models() == second.models()
    first_acc, second_acc = suite_accuracies(first), suite_accuracies(second)
    for key in first_acc:
        assert np.array_equal(first_acc[key], second_acc[key]), key


# ---------------------------------------------------------------------------
# suite_cells
# ---------------------------------------------------------------------------


class TestSuiteCells:
    def test_expands_full_grid_in_order(self):
        cells = suite_cells(("A", "B"), ("m1", "m2"), 3)
        assert len(cells) == 2 * 2 * 3
        first = cells[0]
        assert (first.dataset, first.model, first.run_index) == ("A", "m1", 0)
        # datasets vary slowest, runs fastest
        assert [c.run_index for c in cells[:3]] == [0, 1, 2]
        assert cells[6].dataset == "B"

    def test_invalid_plans_raise(self):
        with pytest.raises(ValueError):
            suite_cells(("A",), ("m",), 0)
        with pytest.raises(ValueError):
            suite_cells((), ("m",), 1)
        with pytest.raises(ValueError):
            suite_cells(("A",), (), 1)


# ---------------------------------------------------------------------------
# Equivalence: serial vs parallel, both sources, the seed rule
# ---------------------------------------------------------------------------


class TestEquivalence:
    @pytest.fixture(scope="class")
    def three_runs(self, tiny_scale):
        return dataclasses.replace(tiny_scale, n_runs=3)

    @pytest.fixture(scope="class")
    def serial_suite(self, suite_datasets, three_runs):
        return run_suite(suite_datasets, SUITE_MODELS, scale=three_runs, max_workers=1)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_count_does_not_change_results(
        self, suite_datasets, three_runs, serial_suite, workers
    ):
        parallel = run_suite(
            suite_datasets, SUITE_MODELS, scale=three_runs, max_workers=workers
        )
        assert_suites_identical(serial_suite, parallel)
        assert parallel.report.n_cells == len(suite_datasets) * len(SUITE_MODELS) * 3

    def test_run_r_is_the_model_seeded_with_r(self, suite_datasets, serial_suite, three_runs):
        """Every cell fits the registry model seeded with its run index on
        the dataset's split with seed 7."""
        for name, dataset in suite_datasets.items():
            X_train, X_test, y_train, y_test = dataset.split(rng=7)
            for model in SUITE_MODELS:
                expected = [
                    build_model(model, run, three_runs).fit(X_train, y_train).score(X_test, y_test)
                    for run in range(3)
                ]
                assert serial_suite.results[name][model].accuracies.tolist() == expected

    @pytest.mark.slow
    def test_loader_source_equivalence(self, tiny_scale):
        """datasets=None runs the suite on ``load_datasets(scale)``."""
        default = run_suite(None, SUITE_MODELS, scale=tiny_scale)
        explicit = run_suite(
            load_datasets(tiny_scale), SUITE_MODELS, scale=tiny_scale, max_workers=2
        )
        assert_suites_identical(default, explicit)

    def test_report_reflects_workers(self, suite_datasets, tiny_scale):
        suite = run_suite(
            suite_datasets,
            ("OnlineHD",),
            scale=dataclasses.replace(tiny_scale, n_runs=4),
            max_workers=2,
        )
        assert suite.report.max_workers == 2
        assert suite.report.n_computed == suite.report.n_cells
        assert suite.report.busy_seconds > 0
        assert 0 < suite.report.utilization
        assert suite.report.n_workers_used <= 2

    def test_report_names_the_pool_the_map_ran_on(self, suite_datasets, tiny_scale, tmp_path):
        """One cell runs in-process and a full replay computes none: either
        report says one worker, whatever pool was asked for."""
        grid = {"WESAD": suite_datasets["WESAD"]}
        one_run = dataclasses.replace(tiny_scale, n_runs=1)
        for _ in range(2):  # compute, then replay from the store
            suite = run_suite(
                grid, ("OnlineHD",), scale=one_run, max_workers=4, store=tmp_path
            )
            assert suite.report.max_workers == 1
            assert "on 1 worker(s)" in suite.report.summary()
        assert suite.report.n_cached == 1

    def test_report_counts_no_more_workers_than_cells(self, suite_datasets, tiny_scale):
        """Two cells at ``max_workers=4`` run on, and report, two workers."""
        suite = run_suite(
            {"WESAD": suite_datasets["WESAD"]}, ("OnlineHD",), scale=tiny_scale, max_workers=4
        )
        assert suite.report.n_computed == 2
        assert suite.report.max_workers == 2
        assert "on 2 worker(s)" in suite.report.summary()


# ---------------------------------------------------------------------------
# Resume after interrupt
# ---------------------------------------------------------------------------


class _Bomb(RuntimeError):
    pass


class TestResume:
    def test_serial_interrupt_then_resume(
        self, suite_datasets, tiny_scale, tmp_path, monkeypatch
    ):
        """A crash mid-suite loses only the in-flight cell; resume replays the rest."""
        import repro.runtime.cells as cells_module

        baseline = run_suite(suite_datasets, SUITE_MODELS, scale=tiny_scale)
        total = baseline.report.n_cells

        real_execute = cells_module.execute_cell
        calls = {"n": 0}

        def dying_execute(*args, **kwargs):
            if calls["n"] >= 3:
                raise _Bomb("simulated crash")
            calls["n"] += 1
            return real_execute(*args, **kwargs)

        # max_workers=1 keeps the monkeypatched crash in-process: a pool
        # worker would fork its own copy of the call counter.
        monkeypatch.setattr(cells_module, "execute_cell", dying_execute)
        store = ArtifactStore(tmp_path)
        with pytest.raises(_Bomb):
            run_suite(suite_datasets, SUITE_MODELS, scale=tiny_scale, store=store, max_workers=1)
        monkeypatch.setattr(cells_module, "execute_cell", real_execute)
        assert len(store) == 3  # every completed cell was checkpointed

        resumed = run_suite(
            suite_datasets, SUITE_MODELS, scale=tiny_scale, store=store
        )
        assert resumed.report.n_cached == 3
        assert resumed.report.n_computed == total - 3
        assert_suites_identical(baseline, resumed)

    def test_parallel_resume_skips_completed_cells(
        self, suite_datasets, tiny_scale, tmp_path
    ):
        """Cells that pool workers checkpointed are replayed, not recomputed."""
        store = ArtifactStore(tmp_path)
        partial = run_suite(
            {"WESAD": suite_datasets["WESAD"]},
            SUITE_MODELS,
            scale=tiny_scale,
            store=store,
            max_workers=2,
        )
        assert len(store) == 4
        assert os.getpid() not in {cell.worker for cell in partial.report.cells}

        full = run_suite(
            suite_datasets, SUITE_MODELS, scale=tiny_scale, store=store,
            max_workers=1,
        )
        assert full.report.n_cached == 4
        assert full.report.n_computed == full.report.n_cells - 4
        assert [cell.cached for cell in full.report.cells] == [True] * 4 + [False] * 4
        baseline = run_suite(suite_datasets, SUITE_MODELS, scale=tiny_scale)
        assert_suites_identical(baseline, full)

    def test_store_hits_require_identical_spec(
        self, suite_datasets, tiny_scale, tmp_path
    ):
        store = ArtifactStore(tmp_path)
        run_suite(suite_datasets, ("OnlineHD",), scale=tiny_scale, store=store)
        # Another scale => other cells => no replays.
        other_scale = dataclasses.replace(tiny_scale, hd_epochs=tiny_scale.hd_epochs + 1)
        other = run_suite(
            suite_datasets, ("OnlineHD",), scale=other_scale, store=store
        )
        assert other.report.n_cached == 0

    def test_more_runs_replay_the_runs_already_stored(
        self, suite_datasets, tiny_scale, tmp_path
    ):
        """The run count says how many cells there are, not what one computes."""
        store = ArtifactStore(tmp_path)
        run_suite(suite_datasets, ("OnlineHD",), scale=tiny_scale, store=store)
        more = dataclasses.replace(tiny_scale, n_runs=3)
        extended = run_suite(suite_datasets, ("OnlineHD",), scale=more, store=store)
        assert [cell.cached for cell in extended.report.cells] == [True, True, False] * 2
        assert_suites_identical(
            run_suite(suite_datasets, ("OnlineHD",), scale=more), extended
        )


# ---------------------------------------------------------------------------
# ArtifactStore round-trip and integrity
# ---------------------------------------------------------------------------


def make_result(**overrides) -> CellResult:
    defaults = dict(
        dataset="WESAD",
        model="BoostHD",
        run_index=1,
        accuracy=0.875,
        train_seconds=0.25,
        inference_seconds_per_query=1.5e-5,
        engine_seconds_per_query=0.5e-5,
        wall_seconds=0.3,
        worker=1234,
    )
    defaults.update(overrides)
    return CellResult(**defaults)


SPEC = {"version": 1, "dataset": "WESAD", "model": "BoostHD", "run_index": 1, "data": "ab12"}


class TestArtifactStore:
    def test_round_trip_is_bit_exact(self, tmp_path):
        store = ArtifactStore(tmp_path)
        result = make_result()
        key = store.save(SPEC, result)
        assert key == spec_key(SPEC)
        assert key in store and len(store) == 1
        loaded = store.load(SPEC)
        assert loaded is not None and loaded.cached
        for field in (
            "dataset",
            "model",
            "run_index",
            "accuracy",
            "train_seconds",
            "inference_seconds_per_query",
            "engine_seconds_per_query",
            "wall_seconds",
            "worker",
        ):
            assert getattr(loaded, field) == getattr(result, field), field

    def test_none_engine_fields_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save(SPEC, make_result(engine_seconds_per_query=None))
        loaded = store.load(SPEC)
        assert loaded.engine_seconds_per_query is None

    def test_missing_spec_is_a_miss(self, tmp_path):
        assert ArtifactStore(tmp_path).load(SPEC) is None

    def test_corrupted_payload_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.save(SPEC, make_result())
        npz_path = tmp_path / f"{key}.npz"
        payload = bytearray(npz_path.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        npz_path.write_bytes(bytes(payload))
        assert store.load(SPEC) is None

    def test_hash_collision_reads_as_miss(self, tmp_path):
        """Two specs landing on one key must never replay each other.

        Real SHA-256 collisions are unconstructible, so simulate one: tamper
        with the manifest so its recorded spec differs from the requested
        one while the file still sits under the requested key.
        """
        store = ArtifactStore(tmp_path)
        key = store.save(SPEC, make_result())
        manifest_path = tmp_path / f"{key}.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["spec"] = {**SPEC, "data": "cd34"}  # the "colliding" spec
        manifest_path.write_text(json.dumps(manifest))
        assert store.load(SPEC) is None

    @pytest.mark.parametrize("text", ["null", "[]", "0", '"x"'])
    def test_manifest_that_is_not_an_object_is_a_miss(self, tmp_path, text):
        store = ArtifactStore(tmp_path)
        key = store.save(SPEC, make_result())
        (tmp_path / f"{key}.json").write_text(text)
        assert store.load(SPEC) is None

    def test_layout_version_mismatch_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.save(SPEC, make_result())
        manifest_path = tmp_path / f"{key}.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["store_version"] = 999
        manifest_path.write_text(json.dumps(manifest))
        assert store.load(SPEC) is None

    def test_version_1_artifacts_with_cache_fields_miss(self, tmp_path):
        """Layout 1 also stored the engine cache's warm timing and hit counts."""
        store = ArtifactStore(tmp_path)
        key = store.save(SPEC, make_result())
        npz_path = tmp_path / f"{key}.npz"
        with np.load(npz_path) as data:
            arrays = {name: data[name] for name in data.files}
        arrays.update(
            engine_warm_seconds_per_query=np.float64(0.25e-5),
            cache_hits=np.int64(10),
            cache_requests=np.int64(12),
        )
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        npz_path.write_bytes(buffer.getvalue())
        manifest_path = tmp_path / f"{key}.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["store_version"] = 1
        manifest["content_hash"] = hashlib.sha256(buffer.getvalue()).hexdigest()
        manifest_path.write_text(json.dumps(manifest))
        assert store.load(SPEC) is None
        store.save(SPEC, make_result())
        assert store.load(SPEC) == make_result(cached=True)

    def test_clear_empties_the_store(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save(SPEC, make_result())
        store.save({**SPEC, "run_index": 2}, make_result(run_index=2))
        assert store.clear() == 2
        assert len(store) == 0 and store.load(SPEC) is None

    def test_spec_key_is_order_insensitive(self):
        assert spec_key({"a": 1, "b": 2}) == spec_key({"b": 2, "a": 1})
        assert canonical_spec({"b": 2, "a": 1}) == '{"a":1,"b":2}'


# --------------------------------------------------------------- hypothesis


spec_values = st.one_of(
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)
specs = st.dictionaries(st.text(min_size=1, max_size=10), spec_values, max_size=6)


@pytest.mark.slow
@given(first=specs, second=specs)
@settings(max_examples=60, deadline=None)
def test_property_distinct_specs_get_distinct_keys(first, second):
    if canonical_spec(first) == canonical_spec(second):
        assert spec_key(first) == spec_key(second)
    else:
        assert spec_key(first) != spec_key(second)


@pytest.mark.slow
@given(
    accuracy=st.floats(0.0, 1.0, allow_nan=False),
    train_seconds=st.floats(0.0, 1e6, allow_nan=False),
    inference=st.floats(0.0, 1.0, allow_nan=False),
    engine=st.one_of(st.none(), st.floats(0.0, 1.0, allow_nan=False)),
    run_index=st.integers(0, 1000),
    worker=st.integers(0, 10**9),
)
@settings(max_examples=40, deadline=None)
def test_property_store_round_trip_bit_exact(
    tmp_path_factory, accuracy, train_seconds, inference, engine, run_index, worker
):
    store = ArtifactStore(tmp_path_factory.mktemp("store"))
    result = make_result(
        accuracy=accuracy,
        train_seconds=train_seconds,
        inference_seconds_per_query=inference,
        engine_seconds_per_query=engine,
        run_index=run_index,
        worker=worker,
    )
    spec = {"run_index": run_index, "worker": worker}
    store.save(spec, result)
    loaded = store.load(spec)
    assert loaded.accuracy == accuracy
    assert loaded.train_seconds == train_seconds
    assert loaded.inference_seconds_per_query == inference
    assert loaded.engine_seconds_per_query == engine
    assert loaded.run_index == run_index
    assert loaded.worker == worker


# ---------------------------------------------------------------------------
# parallel_map, worker resolution, reports
# ---------------------------------------------------------------------------


def _square(x: int) -> int:
    return x * x


def _observed_square(x: int) -> int:
    """An item that records a counter and a span, as grid cells do."""
    with OBS.recorder.span("test.item", x=x):
        OBS.metrics.counter("test_items_total", parity=str(x % 2)).inc()
    return x * x


class TestParallelMap:
    def test_serial_and_parallel_agree_in_order(self):
        items = list(range(20))
        assert parallel_map(_square, items) == [x * x for x in items]
        assert parallel_map(_square, items, max_workers=2) == [x * x for x in items]

    def test_pool_ships_item_telemetry_back(self):
        """Counters and spans recorded in workers reach the caller, equal to
        what the serial map records."""
        items = list(range(8))
        recorded = {}
        for workers in (1, 2):
            with capture() as (registry, recorder):
                assert parallel_map(_observed_square, items, max_workers=workers) == [
                    x * x for x in items
                ]
                counters = {
                    (entry["name"], entry["labels"]["parity"]): entry["value"]
                    for entry in registry.snapshot()["counters"]
                }
                spans = sorted(r.attrs["x"] for r in recorder.spans if r.name == "test.item")
            recorded[workers] = counters, spans
        assert recorded[1] == ({("test_items_total", "0"): 4, ("test_items_total", "1"): 4}, items)
        assert recorded[2] == recorded[1]

    def test_empty_items(self):
        assert parallel_map(_square, [], max_workers=4) == []

    def test_serial_fallback_restores_previous_shared(self):
        from repro.runtime.executor import _set_shared, get_shared

        _set_shared("outer")
        try:
            parallel_map(_square, [1, 2], shared="inner")
            assert get_shared() == "outer"
        finally:
            _set_shared(None)

    def test_resolve_max_workers(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_WORKERS", raising=False)
        assert resolve_max_workers(None) == 1
        assert resolve_max_workers(0) == 1
        assert resolve_max_workers(3) == 3
        assert resolve_max_workers("auto") >= 1
        monkeypatch.setenv("REPRO_MAX_WORKERS", "5")
        assert resolve_max_workers(None) == 5

    def test_pool_size_is_capped_at_the_item_count(self, monkeypatch):
        """A map of at most one item runs in-process whatever is asked, and
        no map starts a worker it has no item for."""
        monkeypatch.setenv("REPRO_MAX_WORKERS", "5")
        assert [pool_size(None, n) for n in (0, 1, 2, 5, 9)] == [1, 1, 2, 5, 5]
        assert [pool_size(4, n) for n in (0, 1, 2, 3, 4, 9)] == [1, 1, 2, 3, 4, 4]
        assert pool_size(1, 9) == 1


class TestRunReport:
    def make_report(self):
        cells = (
            make_result(dataset="A", model="m", run_index=0, wall_seconds=1.0, worker=10),
            make_result(dataset="A", model="m", run_index=1, wall_seconds=3.0, worker=11),
            make_result(
                dataset="A", model="m", run_index=2, wall_seconds=9.9, worker=12, cached=True
            ),
        )
        return RunReport(total_seconds=2.0, max_workers=2, cells=cells)

    def test_statistics(self):
        report = self.make_report()
        assert report.n_cells == 3
        assert report.n_cached == 1 and report.n_computed == 2
        assert report.busy_seconds == pytest.approx(4.0)
        assert report.utilization == pytest.approx(4.0 / (2.0 * 2))
        assert report.n_workers_used == 2
        assert [c.run_index for c in report.slowest(1)] == [1]

    def test_summary_text(self):
        text = self.make_report().summary()
        assert "3 cells" in text and "1 cached" in text and "A/m#1" in text


class TestSplitFingerprint:
    def test_fingerprint_distinguishes_seeds(self, tiny_scale):
        """The store keys a cell by its data: another generation seed is
        another fingerprint, the same seed the same one.  ``load_dataset``
        seeds WESAD with its position, 0."""

        def fingerprint(seed):
            dataset = load_wesad(
                n_subjects=tiny_scale.wesad_subjects,
                windows_per_state=tiny_scale.windows_per_state,
                seed=seed,
            )
            return _split_fingerprint(dataset.split(rng=7))

        assert fingerprint(0) != fingerprint(5)
        assert fingerprint(0) == fingerprint(0)
        assert fingerprint(0) == _split_fingerprint(
            load_dataset("WESAD", tiny_scale).split(rng=7)
        )
