"""Property-based tests (hypothesis) for core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.baselines.metrics import accuracy, macro_accuracy, median_absolute_deviation
from repro.core.partition import split_dimensions
from repro.core.theory import marchenko_pastur_bounds, variance_terms
from repro.data.features import moving_average
from repro.data.imbalance import imbalance_indices
from repro.hdc.similarity import cosine_similarity

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@pytest.mark.slow
@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, st.integers(2, 64), elements=finite_floats))
def test_cosine_similarity_bounded(vector):
    other = np.roll(vector, 1)
    value = cosine_similarity(vector, other)
    assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, st.integers(2, 64), elements=finite_floats))
def test_cosine_self_similarity_is_one_or_zero_vector(vector):
    value = cosine_similarity(vector, vector)
    if np.linalg.norm(vector) > 1e-6:
        assert value == np.testing.assert_allclose(value, 1.0, atol=1e-6) or True
        np.testing.assert_allclose(value, 1.0, atol=1e-6)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5000), st.integers(1, 100))
def test_split_dimensions_partition_properties(total_dim, n_learners):
    if n_learners > total_dim:
        return
    chunks = split_dimensions(total_dim, n_learners)
    assert sum(chunks) == total_dim
    assert len(chunks) == n_learners
    assert all(chunk >= 1 for chunk in chunks)
    assert max(chunks) - min(chunks) <= 1


@settings(max_examples=50, deadline=None)
@given(
    arrays(np.int64, st.integers(1, 200), elements=st.integers(0, 4)),
)
def test_accuracy_of_identical_arrays_is_one(labels):
    assert accuracy(labels, labels.copy()) == 1.0
    assert macro_accuracy(labels, labels.copy()) == 1.0


@pytest.mark.slow
@settings(max_examples=50, deadline=None)
@given(
    arrays(np.int64, st.integers(2, 200), elements=st.integers(0, 3)),
    arrays(np.int64, st.integers(2, 200), elements=st.integers(0, 3)),
)
def test_accuracy_bounded(y_true, y_pred):
    size = min(len(y_true), len(y_pred))
    value = accuracy(y_true[:size], y_pred[:size])
    assert 0.0 <= value <= 1.0


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, st.integers(1, 100), elements=finite_floats))
def test_mad_is_nonnegative_and_shift_invariant(values):
    mad = median_absolute_deviation(values)
    assert mad >= 0.0
    shifted = median_absolute_deviation(values + 17.0)
    np.testing.assert_allclose(mad, shifted, rtol=1e-9, atol=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    arrays(np.float64, st.integers(2, 200), elements=st.floats(-100, 100)),
    st.integers(1, 40),
)
def test_moving_average_preserves_length_and_range(signal, window):
    smoothed = moving_average(signal, window)
    assert smoothed.shape == signal.shape
    assert smoothed.min() >= signal.min() - 1e-9
    assert smoothed.max() <= signal.max() + 1e-9


@settings(max_examples=40, deadline=None)
@given(st.floats(0.01, 1000.0))
def test_marchenko_pastur_bounds_ordered(q):
    lower, upper = marchenko_pastur_bounds(q)
    assert 0.0 <= lower <= upper


@settings(max_examples=40, deadline=None)
@given(st.floats(1.0, 1000.0))
def test_variance_terms_finite(q):
    terms = variance_terms(q)
    assert all(np.isfinite(term) for term in terms)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 5),
    st.integers(3, 30),
    st.floats(0.0, 1.0),
    st.integers(0, 1000),
)
def test_imbalance_keeps_target_class_and_all_classes(n_classes, per_class, keep, seed):
    y = np.repeat(np.arange(n_classes), per_class)
    indices = imbalance_indices(y, target_class=0, keep_fraction=keep, rng=seed)
    kept = y[indices]
    assert np.sum(kept == 0) == per_class
    assert set(np.unique(kept)) == set(range(n_classes))
    assert len(np.unique(indices)) == len(indices)
