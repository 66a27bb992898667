"""Unit tests for hypervector similarity metrics."""

import numpy as np
import pytest

from repro.hdc import cosine_similarity, hamming_similarity, pairwise_cosine


def gaussian(dim, count=None, seed=0):
    """N(0, 1) hypervectors: one of width ``dim``, or a ``(count, dim)`` batch."""
    shape = (dim,) if count is None else (count, dim)
    return np.random.default_rng(seed).standard_normal(shape)


def bipolar(dim, count=None, seed=0):
    """Random ±1 hypervectors, shaped as :func:`gaussian`'s."""
    shape = (dim,) if count is None else (count, dim)
    return np.random.default_rng(seed).choice(np.array([-1.0, 1.0]), size=shape)


class TestCosineSimilarity:
    def test_identical_vectors(self):
        vector = gaussian(256, seed=0)
        assert cosine_similarity(vector, vector) == pytest.approx(1.0)

    def test_opposite_vectors(self):
        vector = gaussian(256, seed=0)
        assert cosine_similarity(vector, -vector) == pytest.approx(-1.0)

    def test_orthogonal_vectors(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)

    def test_scale_invariance(self):
        first = gaussian(128, seed=0)
        second = gaussian(128, seed=1)
        assert cosine_similarity(first, second) == pytest.approx(
            cosine_similarity(3.5 * first, 0.2 * second)
        )

    def test_batch_shapes(self):
        queries = gaussian(64, 5, seed=0)
        references = gaussian(64, 3, seed=1)
        assert cosine_similarity(queries, references).shape == (5, 3)

    def test_vector_vs_batch_shape(self):
        query = gaussian(64, seed=0)
        references = gaussian(64, 3, seed=1)
        assert cosine_similarity(query, references).shape == (3,)

    def test_batch_vs_vector_shape(self):
        queries = gaussian(64, 4, seed=0)
        reference = gaussian(64, seed=1)
        assert cosine_similarity(queries, reference).shape == (4,)

    def test_zero_vector_does_not_nan(self):
        result = cosine_similarity(np.zeros(10), np.ones(10))
        assert np.isfinite(result)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.ones(4), np.ones(6))

    def test_bounded_in_unit_interval(self):
        queries = gaussian(32, 10, seed=0)
        references = gaussian(32, 10, seed=1)
        values = cosine_similarity(queries, references)
        assert np.all(values <= 1.0 + 1e-12) and np.all(values >= -1.0 - 1e-12)


class TestCosineFastPath:
    """The 1-vs-many fast path must be bit-identical to the general path."""

    @staticmethod
    def _general_path(first, second):
        """The pre-fast-path formulation, kept verbatim as the oracle."""
        lhs = np.atleast_2d(np.asarray(first, dtype=float))
        rhs = np.atleast_2d(np.asarray(second, dtype=float))
        lhs_norm = np.linalg.norm(lhs, axis=1, keepdims=True)
        rhs_norm = np.linalg.norm(rhs, axis=1, keepdims=True)
        denominator = np.maximum(lhs_norm @ rhs_norm.T, 1e-12)
        return ((lhs @ rhs.T) / denominator)[0]

    def test_bit_identical_to_general_path(self):
        rng = np.random.default_rng(0)
        for dim, m in ((64, 3), (257, 1), (1000, 10)):
            query = rng.standard_normal(dim)
            references = rng.standard_normal((m, dim))
            np.testing.assert_array_equal(
                cosine_similarity(query, references),
                self._general_path(query, references),
            )

    def test_bit_identical_on_noncontiguous_views(self):
        rng = np.random.default_rng(1)
        full = rng.standard_normal((5, 120))
        query = full[2, ::2]              # strided 1-D view
        references = full[:, ::2]          # strided 2-D view
        np.testing.assert_array_equal(
            cosine_similarity(query, references),
            self._general_path(query, references),
        )

    def test_non_float64_inputs_still_work(self):
        query = np.ones(8, dtype=np.float32)
        references = np.ones((2, 8), dtype=np.float32)
        np.testing.assert_allclose(cosine_similarity(query, references), 1.0)

    def test_lists_still_work(self):
        assert cosine_similarity([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]) == pytest.approx(
            [1.0, 0.0]
        )

    def test_zero_query_clips_not_nan(self):
        values = cosine_similarity(np.zeros(6), np.ones((2, 6)))
        assert np.all(np.isfinite(values))


class TestDotAndHamming:
    def test_hamming_identical(self):
        vector = bipolar(100, seed=0)
        assert hamming_similarity(vector, vector) == pytest.approx(1.0)

    def test_hamming_opposite(self):
        vector = bipolar(100, seed=0)
        assert hamming_similarity(vector, -vector) == pytest.approx(0.0)

    def test_hamming_random_near_half(self):
        first = bipolar(10000, seed=0)
        second = bipolar(10000, seed=1)
        assert hamming_similarity(first, second) == pytest.approx(0.5, abs=0.05)

    def test_hamming_batch_shape(self):
        first = bipolar(64, 4, seed=0)
        second = bipolar(64, 2, seed=1)
        assert hamming_similarity(first, second).shape == (4, 2)

    def test_hamming_matmul_matches_broadcast_formulation(self):
        """Sign-matmul rewrite is bit-identical to the (n, m, dim) broadcast."""
        rng = np.random.default_rng(3)
        for n, m, dim in ((4, 3, 97), (1, 5, 64), (7, 7, 33)):
            first = rng.standard_normal((n, dim))
            second = rng.standard_normal((m, dim))
            lhs_sign = np.where(first >= 0.0, 1.0, -1.0)
            rhs_sign = np.where(second >= 0.0, 1.0, -1.0)
            broadcast = (lhs_sign[:, None, :] == rhs_sign[None, :, :]).mean(axis=2)
            np.testing.assert_array_equal(
                hamming_similarity(first, second), broadcast
            )

    def test_hamming_real_valued_inputs_use_signs(self):
        first = np.array([0.3, -0.2, 0.0, -5.0])
        second = np.array([1.0, 1.0, -1.0, -1.0])
        # Signs: [+, -, +, -] vs [+, +, -, -] -> 2 of 4 match.
        assert hamming_similarity(first, second) == pytest.approx(0.5)

    def test_hamming_large_batch_no_broadcast_blowup(self):
        """256x256 at dim 4096 would be a 256 MB boolean tensor if broadcast."""
        rng = np.random.default_rng(4)
        first = np.where(rng.standard_normal((256, 4096)) >= 0, 1.0, -1.0)
        second = np.where(rng.standard_normal((256, 4096)) >= 0, 1.0, -1.0)
        values = hamming_similarity(first, second)
        assert values.shape == (256, 256)
        assert np.all((values >= 0.0) & (values <= 1.0))


class TestPairwiseCosine:
    def test_symmetric_with_unit_diagonal(self):
        batch = gaussian(128, 5, seed=0)
        matrix = pairwise_cosine(batch)
        assert matrix.shape == (5, 5)
        np.testing.assert_allclose(np.diag(matrix), 1.0)
        np.testing.assert_allclose(matrix, matrix.T)
