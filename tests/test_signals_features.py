"""Unit tests for the synthetic signal simulator and the feature pipeline."""

import numpy as np
import pytest

from repro.data import (
    CHANNELS,
    STRESS_LEVEL_STATES,
    WESAD_STATES,
    SignalSimulator,
    SubjectPhysiology,
    extract_features,
    feature_names,
    moving_average,
)


class TestSignalSimulator:
    def test_window_shape(self):
        simulator = SignalSimulator(sampling_rate=16, window_seconds=5, rng=0)
        window = simulator.generate_window(WESAD_STATES[0])
        assert window.shape == (len(CHANNELS), 80)

    def test_batch_shape(self):
        simulator = SignalSimulator(sampling_rate=16, window_seconds=5, rng=0)
        windows = simulator.generate_windows(WESAD_STATES[1], 4)
        assert windows.shape == (4, len(CHANNELS), 80)

    def test_stress_has_higher_eda_than_baseline(self):
        simulator = SignalSimulator(sampling_rate=16, window_seconds=10, rng=0)
        eda_index = CHANNELS.index("EDA")
        baseline = simulator.generate_windows(WESAD_STATES[0], 8)[:, eda_index].mean()
        stress = simulator.generate_windows(WESAD_STATES[1], 8)[:, eda_index].mean()
        assert stress > baseline

    def test_stress_has_lower_temperature(self):
        simulator = SignalSimulator(sampling_rate=16, window_seconds=10, rng=0)
        temp_index = CHANNELS.index("TEMP")
        baseline = simulator.generate_windows(WESAD_STATES[0], 6)[:, temp_index].mean()
        stress = simulator.generate_windows(WESAD_STATES[1], 6)[:, temp_index].mean()
        assert stress < baseline

    def test_subject_offset_shifts_eda(self):
        simulator = SignalSimulator(sampling_rate=16, window_seconds=10, rng=0)
        eda_index = CHANNELS.index("EDA")
        plain = simulator.generate_windows(WESAD_STATES[0], 6)[:, eda_index].mean()
        shifted = simulator.generate_windows(
            WESAD_STATES[0], 6, SubjectPhysiology(eda_offset=2.0)
        )[:, eda_index].mean()
        assert shifted > plain + 1.0

    def test_class_overlap_shrinks_state_differences(self):
        eda_index = CHANNELS.index("EDA")

        def gap(overlap: float) -> float:
            simulator = SignalSimulator(
                sampling_rate=16, window_seconds=10, class_overlap=overlap, rng=0
            )
            baseline = simulator.generate_windows(WESAD_STATES[0], 6)[:, eda_index].mean()
            stress = simulator.generate_windows(WESAD_STATES[1], 6)[:, eda_index].mean()
            return stress - baseline

        assert gap(0.8) < gap(0.0)

    def test_random_subject_reproducible(self):
        first = SignalSimulator(rng=5).random_subject()
        second = SignalSimulator(rng=5).random_subject()
        assert first == second

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            SignalSimulator(sampling_rate=0)
        with pytest.raises(ValueError):
            SignalSimulator(window_seconds=0)
        with pytest.raises(ValueError):
            SignalSimulator(class_overlap=1.0)

    def test_generate_windows_count_validation(self):
        with pytest.raises(ValueError):
            SignalSimulator(rng=0).generate_windows(WESAD_STATES[0], 0)

    def test_state_catalogues(self):
        assert [state.name for state in WESAD_STATES] == ["baseline", "stress", "amusement"]
        assert [state.name for state in STRESS_LEVEL_STATES] == ["good", "common", "stress"]


class TestMovingAverage:
    def test_constant_signal_unchanged(self):
        signal = np.full(50, 3.0)
        np.testing.assert_allclose(moving_average(signal, 10), signal)

    def test_window_one_is_identity(self):
        signal = np.random.default_rng(0).standard_normal(20)
        np.testing.assert_allclose(moving_average(signal, 1), signal)

    def test_output_length_preserved(self):
        signal = np.random.default_rng(0).standard_normal(100)
        assert moving_average(signal, 30).shape == signal.shape

    def test_smoothing_reduces_variance(self):
        signal = np.random.default_rng(0).standard_normal(500)
        assert moving_average(signal, 30).std() < signal.std()

    def test_matches_manual_average_for_full_windows(self):
        signal = np.arange(10.0)
        smoothed = moving_average(signal, 3)
        assert smoothed[5] == pytest.approx(np.mean(signal[3:6]))

    def test_prefix_uses_partial_windows(self):
        signal = np.arange(10.0)
        smoothed = moving_average(signal, 4)
        assert smoothed[0] == pytest.approx(0.0)
        assert smoothed[1] == pytest.approx(0.5)

    def test_multichannel_axis(self):
        signal = np.random.default_rng(0).standard_normal((3, 40))
        assert moving_average(signal, 5).shape == (3, 40)

    def test_invalid_window_raises(self):
        with pytest.raises(ValueError):
            moving_average(np.ones(10), 0)


class TestFeatureExtraction:
    def test_window_feature_length(self):
        window = np.random.default_rng(0).standard_normal((7, 100))
        features = extract_features(window[None])
        assert features.shape == (1, 7 * 4)

    def test_batch_feature_shape(self):
        windows = np.random.default_rng(0).standard_normal((5, 7, 100))
        assert extract_features(windows).shape == (5, 28)

    def test_batch_matches_per_window(self):
        windows = np.random.default_rng(0).standard_normal((3, 4, 50))
        batch = extract_features(windows, smoothing_window=5)
        singles = np.vstack(
            [extract_features(window[None], smoothing_window=5) for window in windows]
        )
        np.testing.assert_array_equal(batch, singles)

    def test_wrong_rank_raises(self):
        with pytest.raises(ValueError):
            extract_features(np.ones((2, 10)))
        with pytest.raises(ValueError):
            extract_features(np.ones(10))

    def test_feature_names_layout(self):
        names = feature_names(["EDA", "BVP"])
        assert names == [
            f"{channel}_{statistic}"
            for channel in ("EDA", "BVP")
            for statistic in ("min", "max", "mean", "std")
        ]

    def test_feature_names_match_default_width(self):
        assert len(feature_names(CHANNELS)) == len(CHANNELS) * 4

    def test_min_leq_mean_leq_max(self):
        windows = np.random.default_rng(0).standard_normal((4, 2, 60))
        features = extract_features(windows)
        minimum, maximum, mean, _ = np.moveaxis(features.reshape(4, 2, 4), 2, 0)
        assert np.all(minimum <= mean + 1e-12)
        assert np.all(mean <= maximum + 1e-12)


class TestMovingAveragePrecision:
    @staticmethod
    def _naive(signal: np.ndarray, window: int) -> np.ndarray:
        """Reference O(n*w) filter: per-position mean over the causal window."""
        length = len(signal)
        effective = min(window, length)
        out = np.empty(length)
        for position in range(length):
            count = min(effective, position + 1)
            out[position] = np.mean(signal[position - count + 1 : position + 1])
        return out

    def test_long_high_offset_stream_regression(self):
        """Regression: the cumsum filter must not lose digits on long, high
        offset streams (hours of ~33 degC skin temperature, or raw ADC counts).

        The previous implementation's raw cumulative sum grew to n * offset
        and its windowed differences cancelled catastrophically (~1e-6 error
        at offset 1e7); mean-centring before the cumsum keeps the error at
        representation level (~1e-9).
        """
        rng = np.random.default_rng(0)
        n = 20_000
        signal = 1e7 + np.linspace(0.0, 50.0, n) + rng.standard_normal(n)
        smoothed = moving_average(signal, 30)
        np.testing.assert_allclose(smoothed, self._naive(signal, 30), atol=1e-7, rtol=0)

    def test_offset_invariance(self):
        rng = np.random.default_rng(1)
        signal = rng.standard_normal(500)
        base = moving_average(signal, 30)
        shifted = moving_average(signal + 1e6, 30)
        np.testing.assert_allclose(shifted - 1e6, base, atol=1e-8)


class TestStreamChunks:
    def test_chunk_shapes_and_count(self):
        simulator = SignalSimulator(sampling_rate=16, window_seconds=5, rng=0)
        chunks = list(
            simulator.stream_chunks(WESAD_STATES[0], chunk_samples=24, n_chunks=5)
        )
        assert len(chunks) == 5
        assert all(chunk.shape == (len(CHANNELS), 24) for chunk in chunks)

    def test_default_chunk_is_one_window(self):
        simulator = SignalSimulator(sampling_rate=16, window_seconds=5, rng=0)
        chunk = next(iter(simulator.stream_chunks(WESAD_STATES[0], n_chunks=1)))
        assert chunk.shape == (len(CHANNELS), simulator.samples_per_window)

    def test_periodic_channels_continue_across_chunks(self):
        """RESP's phase must carry over chunk boundaries (continuous time)."""
        simulator = SignalSimulator(
            sampling_rate=32, window_seconds=4, noise_level=0.0, rng=0
        )
        resp_index = CHANNELS.index("RESP")
        joined = np.concatenate(
            [
                chunk[resp_index]
                for chunk in simulator.stream_chunks(
                    WESAD_STATES[0], chunk_samples=64, n_chunks=4
                )
            ]
        )
        # A noiseless respiration wave at a continuous phase has no jumps
        # larger than its max per-sample slope 2*pi*f/fs.
        state = simulator._effective_state(WESAD_STATES[0], SubjectPhysiology())
        max_step = 2.0 * np.pi * (state.respiration_rate / 60.0) / simulator.sampling_rate
        assert np.max(np.abs(np.diff(joined))) <= max_step * 1.01

    def test_stream_statistics_match_windows(self):
        """Streamed chunks have the same per-state statistical signature."""
        simulator = SignalSimulator(sampling_rate=16, window_seconds=10, rng=0)
        eda_index = CHANNELS.index("EDA")
        baseline = np.concatenate(
            [c[eda_index] for c in simulator.stream_chunks(WESAD_STATES[0], n_chunks=6)]
        )
        stress = np.concatenate(
            [c[eda_index] for c in simulator.stream_chunks(WESAD_STATES[1], n_chunks=6)]
        )
        assert stress.mean() > baseline.mean()

    def test_invalid_arguments_raise(self):
        simulator = SignalSimulator(rng=0)
        with pytest.raises(ValueError):
            next(iter(simulator.stream_chunks(WESAD_STATES[0], chunk_samples=0)))
        with pytest.raises(ValueError):
            next(iter(simulator.stream_chunks(WESAD_STATES[0], n_chunks=0)))
