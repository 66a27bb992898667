"""Unit tests for model quantisation helpers."""

import numpy as np
import pytest

from repro.hdc import (
    FixedPointFormat,
    bipolarize,
    from_fixed_point,
    quantize_codes,
    to_fixed_point,
)
from repro.hdc.quantize import SCHEME_DTYPES, infer_scale


class TestFixedPointFormat:
    def test_code_range(self):
        fmt = FixedPointFormat(bits=8, scale=1.0)
        assert fmt.min_code == -128
        assert fmt.max_code == 127

    def test_invalid_bits_raise(self):
        with pytest.raises(ValueError):
            FixedPointFormat(bits=1)
        with pytest.raises(ValueError):
            FixedPointFormat(bits=40)

    def test_invalid_scale_raises(self):
        with pytest.raises(ValueError):
            FixedPointFormat(bits=8, scale=0.0)


class TestFixedPointRoundTrip:
    def test_roundtrip_error_small(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(1000)
        codes, fmt = to_fixed_point(values, bits=16)
        recovered = from_fixed_point(codes, fmt)
        assert np.max(np.abs(recovered - values)) < 2 * fmt.scale

    def test_codes_within_range(self):
        values = np.linspace(-10, 10, 100)
        codes, fmt = to_fixed_point(values, bits=8)
        assert codes.max() <= fmt.max_code
        assert codes.min() >= fmt.min_code

    def test_infer_scale_covers_max(self):
        values = np.array([0.1, -3.0, 2.0])
        fmt = infer_scale(values, bits=16)
        assert abs(3.0 / fmt.scale) <= fmt.max_code + 1

    def test_zero_array(self):
        codes, fmt = to_fixed_point(np.zeros(5))
        np.testing.assert_array_equal(from_fixed_point(codes, fmt), np.zeros(5))


class TestQuantizeModel:
    """Class hypervectors quantize through ``bipolarize`` (1 bit) or
    ``quantize_codes`` + ``from_fixed_point`` (what the engines store)."""

    def test_bipolar_scheme(self):
        model = np.array([[0.5, -0.2], [-1.0, 0.0]])
        np.testing.assert_array_equal(bipolarize(model), [[1.0, -1.0], [-1.0, 1.0]])

    def test_fixed_schemes_preserve_shape_and_sign(self):
        rng = np.random.default_rng(0)
        model = rng.standard_normal((3, 50))
        for scheme in ("fixed16", "fixed8"):
            codes, fmt = quantize_codes(model, scheme)
            assert codes.dtype == SCHEME_DTYPES[scheme]
            quantized = from_fixed_point(codes, fmt)
            assert quantized.shape == model.shape
            # Signs agree wherever the magnitude is not negligible.
            mask = np.abs(model) > 0.1
            assert np.all(np.sign(quantized[mask]) == np.sign(model[mask]))

    def test_fixed16_more_accurate_than_fixed8(self):
        rng = np.random.default_rng(1)
        model = rng.standard_normal((2, 200))
        error16 = np.abs(from_fixed_point(*quantize_codes(model, "fixed16")) - model).mean()
        error8 = np.abs(from_fixed_point(*quantize_codes(model, "fixed8")) - model).mean()
        assert error16 < error8

    def test_unknown_scheme_raises(self):
        with pytest.raises(ValueError, match="int4"):
            quantize_codes(np.ones((2, 2)), "int4")
