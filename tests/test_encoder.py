"""Unit tests for HDC encoders."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdc import NonlinearEncoder


class TestNonlinearEncoder:
    @pytest.mark.parametrize("shape", [(1, 3), (7, 5), (60, 28)])
    def test_encode_is_bitwise_the_one_line_expression(self, shape):
        """The in-place evaluation runs the expression's ufuncs in its order."""
        n, f = shape
        encoder = NonlinearEncoder(f, 97, bandwidth=1.5, rng=0)
        X = np.random.default_rng(1).standard_normal(shape)
        projected = X @ encoder.basis.T * encoder._projection_scale
        expected = np.cos(projected + encoder.bias) * np.sin(projected)
        np.testing.assert_array_equal(encoder.encode(X), expected)
        np.testing.assert_array_equal(encoder.encode(X[0]), encoder.encode(X[:1])[0])

    def test_output_shapes(self):
        encoder = NonlinearEncoder(5, 100, rng=0)
        assert encoder.encode(np.ones(5)).shape == (100,)
        assert encoder.encode(np.ones((7, 5))).shape == (7, 100)

    def test_deterministic_after_construction(self):
        encoder = NonlinearEncoder(4, 64, rng=0)
        sample = np.array([0.1, -0.2, 0.3, 0.4])
        np.testing.assert_array_equal(encoder.encode(sample), encoder.encode(sample))

    def test_same_seed_same_encoding(self):
        sample = np.array([1.0, 2.0, 3.0])
        first = NonlinearEncoder(3, 128, rng=11).encode(sample)
        second = NonlinearEncoder(3, 128, rng=11).encode(sample)
        np.testing.assert_array_equal(first, second)

    def test_different_seeds_differ(self):
        sample = np.array([1.0, 2.0, 3.0])
        first = NonlinearEncoder(3, 128, rng=1).encode(sample)
        second = NonlinearEncoder(3, 128, rng=2).encode(sample)
        assert not np.allclose(first, second)

    def test_values_bounded_by_one(self):
        encoder = NonlinearEncoder(6, 256, rng=0)
        encoded = encoder.encode(np.random.default_rng(0).standard_normal((10, 6)))
        assert np.all(np.abs(encoded) <= 1.0)

    def test_similar_inputs_have_similar_encodings(self):
        encoder = NonlinearEncoder(6, 2000, rng=0)
        base = np.full(6, 0.4)
        near = base + 0.05
        far = base + 5.0
        from repro.hdc import cosine_similarity

        assert cosine_similarity(encoder.encode(base), encoder.encode(near)) > cosine_similarity(
            encoder.encode(base), encoder.encode(far)
        )

    def test_bandwidth_controls_smoothness(self):
        from repro.hdc import cosine_similarity

        base = np.full(6, 0.4)
        near = base + 0.5
        narrow = NonlinearEncoder(6, 2000, bandwidth=0.5, rng=0)
        wide = NonlinearEncoder(6, 2000, bandwidth=4.0, rng=0)
        assert cosine_similarity(wide.encode(base), wide.encode(near)) > cosine_similarity(
            narrow.encode(base), narrow.encode(near)
        )

    def test_wrong_feature_count_raises(self):
        encoder = NonlinearEncoder(5, 32, rng=0)
        with pytest.raises(ValueError):
            encoder.encode(np.ones(4))

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            NonlinearEncoder(0, 10)
        with pytest.raises(ValueError):
            NonlinearEncoder(10, 0)
        with pytest.raises(ValueError):
            NonlinearEncoder(10, 10, bandwidth=0.0)

    def test_callable_interface(self):
        encoder = NonlinearEncoder(3, 16, rng=0)
        sample = np.ones(3)
        np.testing.assert_array_equal(encoder(sample), encoder.encode(sample))


class TestSlicedEncoder:
    """``NonlinearEncoder.slice``: an encoder over row views of another."""

    def test_slice_matches_parent_block(self):
        """A slice, and a slice of it, encode their own rows of the parent.

        Each is bitwise a standalone encoder over those projection rows, and
        matches the parent encoding's columns up to how BLAS rounds a column
        block of a wider product: bitwise for many shapes, but that depends
        on the BLAS kernel, so only the rounding bound is asserted.
        """
        parent = NonlinearEncoder(4, 100, rng=0)
        child = parent.slice(20, 50)
        grandchild = child.slice(5, 20)
        sample = np.array([0.5, -1.0, 0.2, 0.9])
        batch = np.random.default_rng(2).standard_normal((16, 4))
        for encoder, (start, stop) in ((child, (20, 50)), (grandchild, (25, 40))):
            own_rows = NonlinearEncoder.from_params(
                parent.basis[start:stop], parent.bias[start:stop]
            )
            for features in (sample, batch):
                encoded = encoder.encode(features)
                np.testing.assert_array_equal(encoded, own_rows.encode(features))
                columns = parent.encode(features)[..., start:stop]
                np.testing.assert_allclose(encoded, columns, rtol=0, atol=1e-12)
            # Its own array, not a view that keeps the parent encoding alive.
            assert encoded.base is None
            # Its projection is row views of the parent's arrays.
            assert encoder.basis.base is parent.basis
            assert encoder.bias.base is parent.bias
            assert np.shares_memory(encoder.basis, parent.basis[start:stop])

    @settings(max_examples=40, deadline=None)
    @given(
        n_samples=st.integers(1, 40),
        n_features=st.integers(1, 48),
        dim=st.integers(2, 300),
        bounds=st.tuples(st.floats(0, 1), st.floats(0, 1)),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_slice_encodes_its_own_rows(self, n_samples, n_features, dim, bounds, seed):
        """A slice is a standalone encoder over its rows of the root.

        Bitwise equal to :class:`NonlinearEncoder` built from rows
        ``[start, stop)`` of the root's basis and bias, and equal to the
        root's encoding columns up to BLAS rounding of a column block.
        """
        rng = np.random.default_rng(seed)
        parent = NonlinearEncoder(n_features, dim, bandwidth=1.5, rng=seed)
        start = min(int(bounds[0] * dim), dim - 1)
        stop = start + 1 + int(bounds[1] * (dim - 1 - start))
        child = parent.slice(start, stop)
        own_rows = NonlinearEncoder.from_params(
            parent.basis[start:stop], parent.bias[start:stop], bandwidth=1.5
        )
        X = rng.standard_normal((n_samples, n_features))
        np.testing.assert_array_equal(child.encode(X), own_rows.encode(X))
        np.testing.assert_array_equal(child.encode(X[0]), own_rows.encode(X[0]))
        np.testing.assert_allclose(
            child.encode(X), parent.encode(X)[:, start:stop], rtol=0, atol=1e-12
        )

    def test_slice_dim(self):
        parent = NonlinearEncoder(4, 100, bandwidth=2.5, rng=0)
        child = parent.slice(0, 25)
        assert (child.dim, child.in_features, child.bandwidth) == (25, 4, 2.5)

    def test_invalid_slice_raises(self):
        parent = NonlinearEncoder(4, 100, rng=0)
        with pytest.raises(ValueError):
            parent.slice(50, 40)
        with pytest.raises(ValueError):
            parent.slice(0, 101)
        with pytest.raises(ValueError):
            parent.slice(-1, 10)

    def test_contiguous_slices_cover_parent(self):
        parent = NonlinearEncoder(4, 90, rng=0)
        sample = np.array([1.0, 2.0, 3.0, 4.0])
        parts = [parent.slice(i * 30, (i + 1) * 30).encode(sample) for i in range(3)]
        np.testing.assert_allclose(np.concatenate(parts), parent.encode(sample))


class TestProjectionParams:
    def test_encoding_reconstructed_from_params(self):
        encoder = NonlinearEncoder(6, 40, bandwidth=1.5, rng=0)
        basis, bias = encoder.projection_params()
        X = np.random.default_rng(1).standard_normal((5, 6))
        projected = X @ basis.T
        expected = np.cos(projected + bias) * np.sin(projected)
        np.testing.assert_allclose(encoder.encode(X), expected, atol=1e-12)

    def test_sliced_params_match_parent_rows(self):
        parent = NonlinearEncoder(4, 30, rng=0)
        child = parent.slice(10, 25)
        basis, bias = child.projection_params()
        parent_basis, parent_bias = parent.projection_params()
        np.testing.assert_array_equal(basis, parent_basis[10:25])
        np.testing.assert_array_equal(bias, parent_bias[10:25])

    def test_nested_slice_flattens_to_root(self):
        """A slice of a slice views rows of the root, at the summed offset."""
        parent = NonlinearEncoder(4, 60, rng=0)
        outer = parent.slice(10, 50).slice(5, 20)
        assert outer.basis.base is parent.basis and outer.bias.base is parent.bias
        np.testing.assert_array_equal(outer.basis, parent.basis[15:30])
        basis, _ = outer.projection_params()
        np.testing.assert_array_equal(basis, parent.projection_params()[0][15:30])
